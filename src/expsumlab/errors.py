"""Shared error types.

Counting routines promise exact results within 128-bit magnitude; anything
larger raises OverflowError (the built-in) rather than wrapping around.
Desk-scale guards (table sizes, tuple counts) raise GuardError so the CLI can
map them to a dedicated exit code.
"""

import math
import sys

COUNT_LIMIT = 1 << 128
COUNT_BITS = COUNT_LIMIT.bit_length() - 1


class GuardError(ValueError):
    """A desk-scale resource guard was violated (table too big, etc.)."""


def check_count(value: int, context: str) -> int:
    """Return ``value`` unchanged if it fits in 128 bits, else raise."""
    if value >= COUNT_LIMIT:
        raise OverflowError(f"{context}: exact count exceeds 128 bits")
    return value


def check_power(terms: int, p: float, bits: int = sys.float_info.max_exp) -> None:
    """Refuse p before any work: not finite, below 1, or with terms^p past 2^bits.

    terms^p bounds |S|^p for a sum S of ``terms`` unimodular terms (it is
    |S(0)|^p for unit ones), and at p = 2n it is the number of 2n-tuples that
    an exact count runs over.  ``bits`` is 1024 (the float64 range) by
    default, or COUNT_BITS for exact integer counts.  One term counts as two,
    so that p stays below ``bits`` although its count is 1.
    """
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got p={p}")
    if p < 1:
        raise ValueError("p must be at least 1")
    if p * math.log2(max(terms, 2)) >= bits:
        raise OverflowError(f"p={p!r} over {terms} term(s): {max(terms, 2)}^p reaches 2^{bits}")
