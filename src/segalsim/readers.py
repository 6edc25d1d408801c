"""Readers of scenario document values.

Each reader takes a decoded JSON value and the context to name in its
message, and returns the value checked, or raises :class:`ConfigError`.
"""

from __future__ import annotations

import math

__all__ = ["ConfigError"]


class ConfigError(ValueError):
    """Scenario document failed validation."""


def _fail(message: str) -> None:
    raise ConfigError(message)


def _require_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        _fail(f"{context}: unknown keys {sorted(unknown)}; allowed keys are {sorted(allowed)}")


def _number(value, context: str, sign: str = "") -> float:
    """``value`` as a float, if it is a finite JSON number and not a bool.

    ``sign`` ``"positive"`` or ``"non-negative"`` also bounds it below.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number) and {"": True, "positive": number > 0, "non-negative": number >= 0}[sign]:
            return number
    _fail(f"{context}: expected a finite {sign + ' ' if sign else ''}number, got {value!r}")


def _numbers(value, context: str) -> list[float]:
    if not isinstance(value, list):
        _fail(f"{context}: expected a list of numbers, got {value!r}")
    return [_number(v, f"{context}[{k}]") for k, v in enumerate(value)]


def _integer(value, context: str, least: int = 1, below: int | None = None) -> int:
    """``value``, if it is a JSON integer, not a bool, in [least, below)."""
    if isinstance(value, int) and not isinstance(value, bool):
        if least <= value and (below is None or value < below):
            return value
    span = f">= {least}" if below is None else f"in [{least}, {below})"
    _fail(f"{context}: expected an integer {span}, got {value!r}")


def _object(value, readers: dict, context: str) -> dict:
    """The keys of a JSON object each read by its reader; null reads as absent."""
    if not isinstance(value, dict):
        _fail(f"{context}: expected an object, got {value!r}")
    _require_keys(value, set(readers), context)
    return {k: readers[k](v, f"{context}.{k}") for k, v in value.items() if v is not None}
