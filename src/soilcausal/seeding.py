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


def _word(value, what: str) -> int:
    """``value`` as a Python int; ``ConfigError`` unless it is an int, not a
    bool, in [0, 2**64)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not 0 <= value <= _MASK:
        raise ConfigError(f"{what} must be an int in [0, 2**64), got {value!r}")
    return int(value)


def derive_seed(master: int, *indices: int) -> int:
    """Fold worker indices into a master seed, one mixing step per level.
    The master seed and each index are ints, not bools, in [0, 2**64), so
    that no two of them give the same streams (a NumPy integer gives the
    Python int's); else ``ConfigError``."""
    s = splitmix64(_word(master, "a master seed"))
    for k in indices:
        s = splitmix64((s ^ ((_word(k, "a seed index") + 1) * 0xD1B54A32D192ED03)) & _MASK)
    return s
