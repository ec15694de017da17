"""Reference prices of the solver's leaf games in ``Fraction``s.

``cefai.solver._LEAVES`` writes each leaf's prices as integer forms over
the sorted scaled incomes.  Here they are written the way the paper's
constructions read: one ``(c0, c1)`` pair per position, meaning
``c0 + c1·ε``, computed from the sorted incomes ``a > b > c`` in exact
rationals, with BAAA's ``max(c, (a − b)/2)`` taken literally.  A missing
income is 0.  The leaves ``AA``, ``AAA`` and ``AAAA`` are the equal
split of a one-agent market.  The tests compare the prices of every
leaf, read from its integers by ``eps_reference.positions``, with these
prices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable


def _baaa(a: Fraction, b: Fraction, c: Fraction) -> tuple:
    split = max(c, (a - b) / 2)
    return ((b, 0), (a - 2 * split, -2), (split, +1), (split, +1))


REFERENCE_LEAVES: dict[str, Callable[[Fraction, Fraction, Fraction], tuple]] = {
    "A": lambda a, b, c: ((a, 0),),
    "AA": lambda a, b, c: ((a / 2, 0),) * 2,
    "AAA": lambda a, b, c: ((a / 3, 0),) * 3,
    "AAAA": lambda a, b, c: ((a / 4, 0),) * 4,
    "AB": lambda a, b, c: ((a, 0), (b, 0)),
    "ABA": lambda a, b, c: ((a - c, -1), (b, 0), (c, +1)),
    "ABC": lambda a, b, c: ((a, 0), (b, 0), (c, 0)),
    "AABA": lambda a, b, c: ((a - b - c, -2), (b, +1), (b, 0), (c, +1)),
    "AABC": lambda a, b, c: ((a - b, -1), (b, +1), (b, 0), (c, 0)),
    "ABAC": lambda a, b, c: ((b, +1), (b, 0), (a - b, -1), (c, 0)),
    "ABAB": lambda a, b, c: ((a - c, -2), (b - c, -1), (c, +2), (c, +1)),
    "AABB": lambda a, b, c: ((a / 2, 0), (a / 2, 0), (b / 2, 0), (b / 2, 0)),
    "ABBC": lambda a, b, c: ((a, 0), (b / 2, 0), (b / 2, 0), (c, 0)),
    "ABCA": lambda a, b, c: ((a, -1), (b, 0), (c, 0), (0, +1)),
    "ABCB": lambda a, b, c: ((a, 0), (b, -1), (c, 0), (0, +1)),
    "BAAA": _baaa,
    "BAAC": lambda a, b, c: ((b, 0), (a - c, -1), (c, +1), (c, 0)),
    "BAAC=": lambda a, b, c: ((b, 0), (a / 2, 0), (a / 2, 0), (c, 0)),
    "BACA": lambda a, b, c: ((b, 0), (c, +1), (c, 0), (a - c, -1)),
}


def reference_prices(name: str, abc: tuple[Fraction, Fraction, Fraction]) -> tuple:
    """The leaf's (c0, c1) per position as ``Fraction``s, at the sorted
    incomes ``abc``."""
    return tuple((Fraction(c0), Fraction(c1)) for c0, c1 in REFERENCE_LEAVES[name](*abc))
