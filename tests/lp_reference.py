"""Reference simplex: the plain form of ``cefai.lp._dual_simplex``, with
one ``_eliminate`` call per tableau row and one generator per column for
the starting reduced costs.

``cefai.lp._dual_simplex`` builds the same tableau with one transpose and
pivots inline; the tests require both to return the same
``(y, reduced, d)`` on every system, which pins the pivots themselves.
"""

from __future__ import annotations


def reference_dual_simplex(a: list[list[int]], c: list[int]):
    """Minimise ``sum(y_j c_j)`` subject to ``sum(y_j) = 1``,
    ``sum(y_j a_j) = 0`` and ``y >= 0``, in integers.

    ``a[0]`` must be the zero vector and ``a[1 + f]`` the unit vector
    ``e_f``: they form the starting basis, whose inverse is integer.  The
    tableau holds ``d * B^-1 [A | b]`` with ``d = det B > 0`` and is
    pivoted fraction-free under Bland's rule.  The search stops at the
    optimum, or as soon as the objective is at most 0, which already
    settles the question the oracle asks.

    Returns ``(y, reduced, d)``: the basic columns' multipliers and every
    column's reduced cost, both times ``d``, with minus ``d`` times the
    objective appended to ``reduced``.
    """
    k = len(a[0])
    width = len(a)
    # Row 0 is sum(y) = 1 and row 1 + f the f-th component of sum(y a) = 0,
    # both multiplied by the starting basis inverse [[1, -1...], [0, I]].
    table = [[1 - sum(col) for col in a] + [1]]
    table.extend([col[f] for col in a] + [0] for f in range(k))
    basis = list(range(k + 1))
    reduced = [
        c[j] - sum(c[i] * table[i][j] for i in range(k + 1)) for j in range(width)
    ]
    reduced.append(-c[0])
    d = 1
    while reduced[-1] < 0:
        q = next((j for j in range(width) if reduced[j] < 0), None)
        if q is None:
            break
        p = -1
        for i, row in enumerate(table):
            if row[q] > 0:
                if p < 0:
                    p = i
                    continue
                lhs = row[-1] * table[p][q]
                rhs = table[p][-1] * row[q]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[p]):
                    p = i
        if p < 0:
            # The primal always has solutions (s far below 0), so the dual
            # is bounded.
            raise AssertionError(
                "dual simplex found an unbounded ray; the tableau is broken"
            )
        pivot = table[p]
        e = pivot[q]
        for i, row in enumerate(table):
            if i != p:
                table[i] = _eliminate(row, pivot, q, e, d)
        reduced = _eliminate(reduced, pivot, q, e, d)
        basis[p] = q
        d = e
    return {basis[i]: row[-1] for i, row in enumerate(table)}, reduced, d


def _eliminate(row: list[int], pivot: list[int], q: int, e: int, d: int) -> list[int]:
    """One fraction-free pivot step on ``row``; every division is exact."""
    f = row[q]
    if f == 0:
        return row if e == d else [e * x // d for x in row]
    return [(e * x - f * z) // d for x, z in zip(row, pivot)]
