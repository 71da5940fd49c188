"""Runtime values of the expression subset.

Plain Python objects carry most kinds: None (null), bool, int, float
(integers and decimals stay distinct kinds), str, list, dict (contexts).
Temporal instants and ranges get small dedicated types, and UNDEFINED is
the before-first-write state of a process variable.

A value's kind comes from one table keyed by its exact class, so a plain
string or number costs one lookup; `equals` and `compare` settle two plain
strings, or two plain numbers, the same way before their general rules.
Subclasses, temporals, UNDEFINED and foreign objects miss the table and
take the isinstance cascade, which gives every other result and error.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass

from ..errors import DateOutOfRangeError, FeelTypeError, UndefinedValueError

SECONDS_PER_DAY = 86_400
_LAST_ORDINAL = datetime.date.max.toordinal()
#: The largest integer (in bits) and string (in characters) an operation may
#: build; `**` and `*` on two integers and `+` on two strings check first.
#: 2**13 bits is at most 2,467 decimal digits, under the 4,300 that Python
#: converts to text by default, so every integer built can be rendered.
MAX_INT_BITS = 1 << 13
MAX_STRING_LENGTH = 1 << 20


class _Undefined:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEFINED"


#: Initial value of every process variable before its first write.
UNDEFINED = _Undefined()


@dataclass(frozen=True)
class Temporal:
    """A date (days as a proleptic ordinal) or a time (seconds since midnight)."""

    kind: str  # "date" | "time"
    scalar: int

    def __post_init__(self):
        if self.kind not in ("date", "time"):
            raise ValueError(f"bad temporal kind {self.kind!r}")

    @classmethod
    def from_text(cls, kind: str, text: str) -> "Temporal":
        if kind == "date":
            return cls("date", datetime.date.fromisoformat(text).toordinal())
        h, m, s = text.split(":")
        return cls("time", (int(h) * 3600 + int(m) * 60 + int(s)) % SECONDS_PER_DAY)

    def to_text(self) -> str:
        if self.kind == "date":
            if not 1 <= self.scalar <= _LAST_ORDINAL:
                raise DateOutOfRangeError(f"date ordinal {self.scalar} is outside "
                                          f"0001-01-01 to 9999-12-31")
            return datetime.date.fromordinal(self.scalar).isoformat()
        h, rest = divmod(self.scalar, 3600)
        m, s = divmod(rest, 60)
        return f"{h:02d}:{m:02d}:{s:02d}"


@dataclass(frozen=True)
class FeelRange:
    """Numeric or temporal interval with per-end inclusivity."""

    lo: object
    hi: object
    lo_incl: bool = True
    hi_incl: bool = True

    def contains(self, value) -> bool:
        lo_ok = compare(value, self.lo) >= (0 if self.lo_incl else 1)
        hi_ok = compare(value, self.hi) <= (0 if self.hi_incl else -1)
        return lo_ok and hi_ok


#: Kind of a value by its exact class; a miss falls back to `_kind_by_cascade`.
_KINDS = {type(None): "null", bool: "boolean", int: "number", float: "number",
          str: "string", list: "list", dict: "context", FeelRange: "range"}
_NUMBERS = frozenset((int, float))  # exact classes: a bool is no number here


def kind_of(value) -> str:
    kind = _KINDS.get(type(value))
    if kind is not None:
        return kind
    return _kind_by_cascade(value)


def _kind_by_cascade(value) -> str:
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, Temporal):
        return value.kind
    if isinstance(value, FeelRange):
        return "range"
    if isinstance(value, list):
        return "list"
    if isinstance(value, dict):
        return "context"
    raise FeelTypeError(f"not a value of the expression language: {value!r}")


def check_defined(value):
    if value is UNDEFINED:
        raise UndefinedValueError("operation touches an undefined variable")
    return value


def compare(a, b) -> int:
    """Three-way ordering; only numbers, strings and same-kind temporals order."""
    ta, tb = type(a), type(b)
    if (ta is str and tb is str) or (ta in _NUMBERS and tb in _NUMBERS):
        return (a > b) - (a < b)
    check_defined(a)
    check_defined(b)
    ka, kb = kind_of(a), kind_of(b)
    if ka == kb == "number":
        return (a > b) - (a < b)
    if ka == kb == "string":
        return (a > b) - (a < b)
    if ka == kb and ka in ("date", "time"):
        return (a.scalar > b.scalar) - (a.scalar < b.scalar)
    raise FeelTypeError(f"cannot order {ka} against {kb}")


def equals(a, b) -> bool:
    """Structural equality; comparing against null is always defined."""
    ta, tb = type(a), type(b)
    if (ta is str and tb is str) or (ta in _NUMBERS and tb in _NUMBERS):
        return a == b
    check_defined(a)
    check_defined(b)
    ka, kb = kind_of(a), kind_of(b)
    if ka == "null" or kb == "null":
        return ka == kb
    if ka != kb:
        raise FeelTypeError(f"cannot compare {ka} against {kb} for equality")
    if ka == "number":
        return a == b
    if ka == "list":
        if len(a) != len(b):
            return False
        return all(equals(x, y) for x, y in zip(a, b))
    if ka == "context":
        if set(a) != set(b):
            return False
        return all(equals(a[k], b[k]) for k in a)
    return a == b


def render_value(value) -> str:
    """Literal syntax of a value; parses back to an equal constant."""
    check_defined(value)
    kind = kind_of(value)
    if kind == "null":
        return "null"
    if kind == "boolean":
        return "true" if value else "false"
    if kind == "number":
        if value in _INFINITIES:  # an overflowing literal reads back as the infinity
            return "1e999" if value > 0 else "-1e999"
        return repr(value)
    if kind == "string":
        return _string_literal(value)
    if kind in ("date", "time"):
        return f'{kind}("{value.to_text()}")'
    if kind == "list":
        return "[" + ", ".join(render_value(v) for v in value) + "]"
    if kind == "context":
        return "{" + ", ".join(f"{render_key(k)}: {render_value(v)}"
                               for k, v in value.items()) + "}"
    # range
    lo_b = "[" if value.lo_incl else "("
    hi_b = "]" if value.hi_incl else ")"
    return f"{lo_b}{render_value(value.lo)}..{render_value(value.hi)}{hi_b}"


_INFINITIES = (float("inf"), float("-inf"))
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def render_key(key: str) -> str:
    """A context key as the parser reads it back: a plain name (keywords
    included) as it is, any other key as a string literal."""
    return key if _NAME.fullmatch(key) else _string_literal(key)


def _string_literal(value: str) -> str:
    escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n").replace("\r", "\\r"))  # written values keep to one line
    return f'"{escaped}"'
