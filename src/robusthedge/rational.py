"""Exact rational parsing, rendering and scaling shared by the package.

Accepted inputs: "p/q" strings, decimal strings, plain integers, and
`Fraction` itself. Decimal inputs convert exactly (scaled integers), never
through binary floats.

A number may have at most MAX_DIGITS digits, its exponent counted in (see
`over_cap`). The size is read off the text before any integer is built, so
"1e100000000" fails at once, and every accepted value prints within
Python's default limit of 4300 digits on int-to-str conversion.
"""

from __future__ import annotations

import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm

MAX_DIGITS = 4000
DECIMAL_DIGITS = 12  # significant digits of a rendered decimal
_LIMIT = 10**MAX_DIGITS


class RationalParseError(ValueError):
    """Raised when a value cannot be read as an exact rational."""


class Oversize:
    """A JSON number over the size cap, kept as text until the loader can
    name the field it sits in."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return f"<numeral of {len(self.text)} characters>"


def over_cap(text: str) -> bool:
    """Whether a numeral may denote a rational with more than MAX_DIGITS
    digits in its numerator or its denominator. Read off the text: "p/q"
    counts the longer of p and q; a decimal counts its digits, at least one
    before the point, plus the size of its exponent. The "p/q" that
    save_model writes for an accepted value is therefore accepted too."""
    if len(text) <= MAX_DIGITS and "e" not in text and "E" not in text:
        return False
    text = text.strip().lstrip("+-").replace("_", "")
    if "/" in text:
        return max(len(part) for part in text.split("/")) > MAX_DIGITS
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    size = max(1, len(whole)) + len(fraction)
    exponent = exponent.lstrip("+-").lstrip("0")
    if not exponent.isdecimal():
        return size > MAX_DIGITS  # no exponent, or not a numeral at all
    return len(exponent) > len(str(MAX_DIGITS)) or size + int(exponent) > MAX_DIGITS


def json_float(text: str) -> Fraction | Oversize:
    """`parse_float` hook: the exact value, or Oversize over the cap."""
    return Oversize(text) if over_cap(text) else Fraction(text)


def json_int(text: str) -> int | Oversize:
    """`parse_int` hook: the integer, or Oversize over the cap."""
    return Oversize(text) if len(text.lstrip("-")) > MAX_DIGITS else int(text)


def _too_large() -> RationalParseError:
    return RationalParseError(
        f"number has more than {MAX_DIGITS} digits (its exponent counted in)"
    )


def _plain_numeral(text: str) -> Fraction | None:
    """The value of "n" or "n/m" in ASCII digits, n with an optional leading
    "-" and m nonzero, without the `Fraction` regex; None for any other
    text, which `Fraction` then reads or rejects."""
    if not text.isascii():
        return None
    num, slash, den = text.partition("/")
    digits = num[1:] if num.startswith("-") else num
    if not digits.isdigit():
        return None
    if not slash:
        return Fraction(int(num))
    if not den.isdigit() or not den.strip("0"):
        return None
    return Fraction(int(num), int(den))


def to_rational(value: object) -> Fraction:
    """Convert a JSON scalar to an exact Fraction.

    Floats are rejected: the model loader parses JSON numbers with
    ``parse_float=json_float`` so a genuine ``float`` here means the caller
    bypassed exact parsing.
    """
    # str and int first: the Fraction check goes through ABCMeta
    if isinstance(value, str):
        if over_cap(value):
            raise _too_large()
        plain = _plain_numeral(value)
        if plain is not None:
            return plain
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise RationalParseError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, bool):  # before int: a bool is an int
        raise RationalParseError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        if abs(value) >= _LIMIT:
            raise _too_large()
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Oversize):
        raise _too_large()
    if isinstance(value, float):
        raise RationalParseError(
            f"refusing inexact float {value!r}; parse the document with exact numbers"
        )
    raise RationalParseError(f"cannot parse rational from {value!r}")


def integer_row(numbers) -> tuple[int, list[int]]:
    """A row of rationals as integers over one positive scale s, the lcm of
    their denominators and so the least positive integer that makes every
    entry integral: (s, [s*x for x in numbers]), and (1, []) for no entry."""
    ratios = [x.as_integer_ratio() for x in numbers]
    scale = lcm(*[d for _, d in ratios])
    return scale, [n * (scale // d) for n, d in ratios]


def format_with_decimal(x: Fraction | float) -> str:
    """Human rendering: exact form plus a DECIMAL_DIGITS-significant-digit
    decimal, through `decimal` when a nonzero value is past float range or
    below its normal range, where a float would overflow, read 0 or lose digits."""
    if not isinstance(x, Fraction):
        return f"{x:.{DECIMAL_DIGITS}g}"
    try:
        value = float(x)
    except OverflowError:
        value = None
    if value is not None and (x == 0 or abs(value) >= sys.float_info.min):
        return f"{x} (={value:.{DECIMAL_DIGITS}g})"
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        quotient = Decimal(x.numerator) / Decimal(x.denominator)
    return f"{x} (={quotient.normalize():.{DECIMAL_DIGITS}g})"
