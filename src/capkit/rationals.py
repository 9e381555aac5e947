"""Exact rational parsing and canonical formatting.

All quantities in capkit are exact rationals (stdlib ``fractions.Fraction``).
Floats never enter the model: wire-format literals are integers, decimal
strings, or ``p/q`` strings, and every comparison is exact, so there are no
epsilon tolerances anywhere in the engine.

A JSON number decodes to an ``int``, or else to its text as ``bytes``, which
:func:`parse_rational` reads like a string.  Every decoded tree is then
marshallable, so the parser keys each raw value by its marshal bytes, in
which the number ``1.5`` (bytes) and the string ``"1.5"`` differ.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import SchemaError

__all__ = ["parse_rational", "format_rational"]

# A decimal literal; digit separators are removed before matching.  Kept
# as a pattern string, so it is compiled on first use, not at import.
_DECIMAL = r"[-+]?(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?"

# 0 (no limit) on Pythons that predate the int-to-string digit limit.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _oversized(text: str) -> bool:
    """Would the decimal literal's value, written as its digits d times 10^k,
    need more numerator digits (len(d) + k, k ≥ 0) or denominator digits
    (1 − k, k < 0) than the interpreter's int-to-string limit?  The exponent
    is read from the text, so no huge number is ever built."""
    limit = _int_max_str_digits()
    if not limit or (len(text) <= limit and "e" not in text and "E" not in text):
        return False  # without an exponent, neither part outgrows the text
    match = re.fullmatch(_DECIMAL, text.replace("_", ""))
    if match is None:
        return False
    whole, frac, exp = match.groups("")
    try:
        k = int(exp or 0) - len(frac)
    except ValueError:  # the exponent alone has more digits than the limit
        return True
    return len((whole + frac).lstrip("0")) + max(k, 0) > limit or -k >= limit


def exceeds_digit_limit(value: Fraction) -> bool:
    """Would the numerator or denominator of ``value`` print with more digits
    than the interpreter's int-to-string limit?  Sized by ``bit_length``:
    2^(3·limit) < 10^limit, so up to 3·limit bits always fit, and only a
    longer integer is compared with 10^limit.  No string is built."""
    limit = _int_max_str_digits()
    return bool(limit) and any(
        n.bit_length() > 3 * limit and abs(n) >= 10**limit
        for n in (value.numerator, value.denominator)
    )


# Diagnostics echo at most this many characters of a literal.
_ECHO_CHARS = 40


def _echo(text: str) -> str:
    """The literal quoted for a diagnostic: whole when short, else a prefix
    and its length, so one huge literal cannot flood the error output."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


json_decimal = str.encode  # ``parse_float`` hook for JSON: the literal's bytes


def json_integer(text: str):
    """``parse_int`` hook for JSON: an int, or the literal's bytes when it has
    more digits than the int-to-string limit."""
    try:
        return int(text)
    except ValueError:
        return text.encode()


_JSON_KINDS = {dict: "object", list: "array", str: "string", int: "number",
               bytes: "number", bool: "boolean", type(None): "null"}


def json_kind(value) -> str:
    """The JSON kind of a decoded value, as diagnostics name it."""
    return _JSON_KINDS.get(type(value), type(value).__name__)


def parse_rational(raw) -> Fraction:
    """Turn a wire-format literal into a Fraction.

    Accepts Python ints, and strings (or the bytes of a JSON number) in
    integer, decimal, or ``p/q`` form.  Rejects floats (inexact), zero
    denominators, non-finite spellings such as ``nan`` or ``inf``, and
    literals whose value would not print within the interpreter's
    int-to-string digit limit.  A diagnostic echoes at most a bounded
    prefix of the literal.
    """
    if isinstance(raw, bool):
        raise SchemaError(f"expected a rational literal, got boolean {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raise SchemaError(
            f"float literal {raw!r} is not admitted; write an integer, "
            "a decimal string, or a 'p/q' string"
        )
    if isinstance(raw, bytes):
        raw = raw.decode()
    if isinstance(raw, str):
        text = raw.strip()
        if _oversized(text):
            raise SchemaError(
                f"rational literal {_echo(text)} is too large: its numerator or "
                f"denominator would exceed {_int_max_str_digits()} digits"
            )
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise SchemaError(f"zero denominator in rational literal {_echo(raw)}") from None
        except (ValueError, OverflowError):
            raise SchemaError(
                f"malformed rational literal {_echo(raw)}; expected an integer, "
                "a decimal, or 'p/q'"
            ) from None
        return value
    raise SchemaError(f"expected a rational literal, got {json_kind(raw)}")


def format_rational(value: Fraction):
    """Canonical wire form: an int when integral, else a lowest-terms 'p/q' string.

    ``Fraction`` already keeps itself in lowest terms, so equal values always
    format identically -- the property the deterministic-serialization tests
    lean on.
    """
    if value.denominator == 1:
        return int(value.numerator)
    return f"{value.numerator}/{value.denominator}"
