"""Shared exception types and the checks of count, rate, level and label
arguments that raise them.  The exit codes named below are those of the
command-line interface that ROADMAP item 1 plans; no module maps them yet."""

import math
from numbers import Integral, Real


class SchemaError(ValueError):
    """Malformed or inconsistent data/schema (exit code 3)."""


class ConfigError(ValueError):
    """Invalid configuration or arguments (exit code 2)."""


class GraphError(ValueError):
    """Malformed graph or impossible graph operation (exit code 3)."""


class NumericError(RuntimeError):
    """Numerical failure during fitting or scoring (exit code 4)."""


def require_count(value, least: int, message: str) -> None:
    """``ConfigError(message)`` unless ``value`` is an int, not a bool, of
    at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ConfigError(message)


def require_rate(value, message: str) -> None:
    """``ConfigError(message)`` unless ``value`` is a finite real number,
    not a bool, of at least 0."""
    if isinstance(value, bool) or not isinstance(value, Real) or not (math.isfinite(value) and value >= 0):
        raise ConfigError(message)


def require_level(value, message: str) -> None:
    """``ConfigError(message)`` unless ``value`` is a real number, not a
    bool, strictly between 0 and 1 (a significance level)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value < 1.0:
        raise ConfigError(message)


def require_labels(value, error: Exception) -> frozenset:
    """``value`` as a frozenset; ``error`` for a string (one label, not the
    collection of its characters), a non-iterable or an unhashable item."""
    if not isinstance(value, str):
        try:
            return frozenset(value)
        except TypeError:
            pass
    raise error
