"""The value-check vocabulary: one ``check(name, value)`` per kind of value.

Plan knobs, server settings, wire request fields and fault plans all check
through these.  The module imports nothing from the package, so every layer —
the Map-Reduce substrate included — can use it.
"""

from __future__ import annotations

import math
import reprlib
import sys
from typing import Any, Callable

__all__ = [
    "KnobCheck",
    "boolean",
    "integer",
    "is_int",
    "is_number",
    "json_object",
    "name_list",
    "non_negative_int",
    "one_of",
    "positive_int",
    "positive_seconds",
    "string",
    "value_check",
]

KnobCheck = Callable[[str, Any], Any]
"""Checks one value: ``check(name, value)`` returns the (normalised) value or
raises ``ValueError`` reading "<name> must be ..., got ...".  Values may
arrive from the wire or a JSON file as any JSON value."""


def value_check(
    what: str, accepts: Callable[[Any], bool], convert: Callable[[Any], Any] | None = None
) -> KnobCheck:
    """The check passing each value ``accepts`` holds for (``convert``-ed, when
    given) and refusing the rest: "<name> must be <what>, got <value>"."""

    def check(name: str, value: Any) -> Any:
        if not accepts(value):
            raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")
        return value if convert is None else convert(value)

    return check


def is_int(value: Any) -> bool:
    """Whether ``value`` is an integer (a bool is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """Whether ``value`` is an int or float that converts to a finite float
    (a bool is not; nor is an integer past the float range)."""
    if is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


integer = value_check("an integer", is_int)
positive_int = value_check("a positive integer", lambda v: is_int(v) and v > 0)
non_negative_int = value_check("a non-negative integer", lambda v: is_int(v) and v >= 0)
positive_seconds = value_check(
    "a positive number of seconds", lambda v: is_number(v) and v > 0, float
)
string = value_check("a string", lambda v: isinstance(v, str))
boolean = value_check("a boolean", lambda v: isinstance(v, bool))
json_object = value_check("an object", lambda v: isinstance(v, dict))
name_list = value_check(
    "a non-empty list of strings",
    lambda v: isinstance(v, list) and bool(v) and all(isinstance(n, str) for n in v),
)


def one_of(*choices: str, what: str | None = None) -> KnobCheck:
    """A check accepting exactly ``choices``; errors read "unknown <what> ..."
    (``what`` defaults to the knob's name).  Non-strings are rejected before
    the membership test, so an unhashable wire value never reaches it."""

    def check(name: str, value: Any) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"unknown {what or name} {value!r}; expected one of {choices}")
        return value

    return check
