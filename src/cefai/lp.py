"""Exact linear programming in integers: the largest slack of a system of
rows ``s <= a_r·z + c_r``, and the Farkas certificate when it is not
positive.

The ``a_r`` are integer vectors over k free variables ``z`` and the
``c_r`` integers.  The system admits ``s > 0`` iff the dual LP

    minimise sum(y_r c_r)  subject to  sum(y_r) = 1,  sum(y_r a_r) = 0,  y >= 0

has a positive optimum.  ``_dual_simplex`` solves it over the columns
``r`` in the order given.  Column 0 must be a row with ``a = 0`` and
column ``1 + f`` the row with ``a = e_f``: together they are the
starting basis, whose inverse ``[[1, -1, ...], [0, I]]`` is integer.

Tableau invariant: with basis B (k + 1 columns) and ``d = det B > 0``,
the tableau holds ``d * B^-1 [A | b]``, all integers, and the reduced
costs ``d * (c - c_B B^-1 A)``, with minus ``d`` times the objective
appended.  A pivot on entry ``e`` of row p and column q turns every other
row into ``(e * row - row[q] * pivot) // d`` and makes ``e`` the new
``d``; the division is exact (Edmonds-Bareiss), so nothing is rounded.
The entering column is the first with a negative reduced cost and the
leaving row the first of least ratio by basic column index (Bland's
rule), so the simplex cannot cycle.  Since Bland's rule reads the
columns in the order given, callers that want the same pivots, and so
the same certificates and prices, must keep their column order.

Farkas check: ``y / d`` with ``y >= 0``, ``sum(y) = d > 0``,
``sum(y a) = 0`` and ``sum(y c) <= 0`` proves that every solution has
``s = sum(y_r s) / d <= sum(y_r (a_r·z + c_r)) / d = sum(y_r c_r) / d
<= 0``.  ``_check_farkas`` checks each of these in integers before a
caller may count a system as closed.
"""

from __future__ import annotations


def _dual_simplex(a: list[list[int]], c: list[int]):
    """Minimise ``sum(y_j c_j)`` subject to ``sum(y_j) = 1``,
    ``sum(y_j a_j) = 0`` and ``y >= 0``, in integers.

    ``a[0]`` must be the zero vector and ``a[1 + f]`` the unit vector
    ``e_f``: they form the starting basis.  The search stops at the
    optimum, or as soon as the objective is at most 0, which already
    settles whether ``s > 0`` is possible.

    Returns ``(y, reduced, d)``: the basic columns' multipliers and every
    column's reduced cost, both times ``d``, with minus ``d`` times the
    objective appended to ``reduced``.
    """
    width = len(a)
    # Row 0 is sum(y) = 1 minus the other rows and row 1 + f the f-th
    # component of sum(y a) = 0, one transpose of a: the starting basis
    # inverse applied.  The last entry of a row is its right-hand side.
    table = [[1 - sum(col) for col in a] + [1]]
    table += [[*col, 0] for col in zip(*a)]
    basis = list(range(len(table)))
    reduced = [*c, 0]
    for cost, row in zip(c, table):
        if cost:
            reduced = [r - cost * x for r, x in zip(reduced, row)]
    d = 1
    while reduced[-1] < 0:
        # The objective's own entry is negative, so the scan stops by
        # width at the latest; stopping there means the optimum.
        for q, r in enumerate(reduced):
            if r < 0:
                break
        if q == width:
            break
        # The leaving row p, its right-hand side b and the pivot entry e.
        p = -1
        for i, row in enumerate(table):
            v = row[q]
            if v > 0:
                if p < 0:
                    p, b, e = i, row[-1], v
                    continue
                lhs = row[-1] * e
                rhs = b * v
                if lhs < rhs or (lhs == rhs and basis[i] < basis[p]):
                    p, b, e = i, row[-1], v
        if p < 0:
            # The primal always has solutions (s far below 0), so the dual
            # is bounded.
            raise AssertionError(
                "dual simplex found an unbounded ray; the tableau is broken"
            )
        pivot = table[p]
        for i, row in enumerate(table):
            if i != p:
                f = row[q]
                if f:
                    table[i] = [(e * x - f * z) // d for x, z in zip(row, pivot)]
                elif e != d:
                    table[i] = [e * x // d for x in row]
        f = reduced[q]
        reduced = [(e * x - f * z) // d for x, z in zip(reduced, pivot)]
        basis[p] = q
        d = e
    return {basis[i]: row[-1] for i, row in enumerate(table)}, reduced, d


def _check_farkas(a: list[list[int]], c: list[int], y: dict[int, int], d: int) -> None:
    """Raise unless ``y / d`` proves that no solution has ``s > 0``:
    ``y >= 0``, ``sum(y) = d > 0``, ``sum(y a) = 0`` and ``sum(y c) <= 0``."""
    total = [0] * len(a[0])
    objective = 0
    for j, v in y.items():
        total = [t + v * x for t, x in zip(total, a[j])]
        objective += v * c[j]
    if (
        d <= 0
        or any(v < 0 for v in y.values())
        or sum(y.values()) != d
        or any(total)
        or objective > 0
    ):
        raise AssertionError("Farkas certificate failed its integer check")


# The certificates of a closing pair of rows, y = e_0 + e_1 over d = 2, and
# of one a = 0 row with c <= 0, y = 2 e_0 over d = 2.
_PAIR_CERTIFICATES = {(0, 1): {0: 1, 1: 1}, (0, 0): {0: 2}}
