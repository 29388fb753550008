"""Deterministic seed derivation.

Child seeds are derived from a master seed with the splitmix64 finalizer so
independent workers (fields, trees, grid points) get decorrelated streams
that do not depend on execution schedule.
"""

from __future__ import annotations

from numbers import Integral

from .errors import ConfigError

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step: mix `x` into a decorrelated 64-bit value."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(master: int, *indices: int) -> int:
    """Fold worker indices into a master seed, one mixing step per level.
    The master seed is an int, not a bool, in [0, 2**64), so that no two
    master seeds give the same streams; else ``ConfigError``."""
    if isinstance(master, bool) or not isinstance(master, Integral) or not 0 <= master <= _MASK:
        raise ConfigError(f"a master seed must be an int in [0, 2**64), got {master!r}")
    s = splitmix64(int(master))
    for k in indices:
        s = splitmix64((s ^ ((k + 1) * 0xD1B54A32D192ED03)) & _MASK)
    return s
