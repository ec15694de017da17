"""Reference feasibility by exact Fourier-Motzkin elimination.

An independent cross-check for ``cefai.oracle.feasible_ce_prices``: the
same question (does some strictly positive price vector make a given
allocation an equilibrium?) answered by Gaussian elimination of the
budget equalities followed by Fourier-Motzkin elimination of the
remaining prices over exact rationals.  Strict inequalities share one
slack variable ``s`` capped at 1; the open system is feasible iff the
closed one admits ``s > 0``.  Slow (the eliminated rows grow quickly),
but simple enough to trust, so the tests compare the oracle's simplex
against it on every allocation of small markets.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from cefai.core import Bundle, PreferenceOrder, all_bundles, items_of
from cefai.market import Allocation, IncomeVector, PriceVector

from conftest import is_subset

# A row of length m+2 over (p_0..p_{m-1}, s, 1) encodes
#     sum(row[v] * var_v) + row[m+1] >= 0     (or == 0 for equalities).
Row = tuple[int, ...]


def _scale_to_int(frac_row: Sequence[Fraction]) -> Row:
    denom = 1
    for v in frac_row:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in frac_row]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def _normalize(row: Sequence[int]) -> Row:
    g = 0
    for v in row:
        g = gcd(g, abs(v))
    if g > 1:
        row = [v // g for v in row]
    return tuple(row)


class _Infeasible(Exception):
    pass


def _substitute(row: list[Fraction], var: int, expr: list[Fraction]) -> None:
    coeff = row[var]
    if coeff == 0:
        return
    row[var] = Fraction(0)
    for u, e in enumerate(expr):
        if e:
            row[u] += coeff * e


def _gauss(equalities: list[list[Fraction]], width: int):
    """Eliminate equality rows; returns substitutions in elimination order.

    Each substitution is (var, expr) with var = expr·(vars, 1); rows that
    reduce to 0 = nonzero raise ``_Infeasible``.
    """
    subs: list[tuple[int, list[Fraction]]] = []
    for row in equalities:
        row = list(row)
        for var, expr in subs:
            _substitute(row, var, expr)
        pivot = next((v for v in range(width - 2) if row[v] != 0), None)
        if pivot is None:
            if row[-1] != 0:
                raise _Infeasible
            continue
        coeff = row[pivot]
        expr = [Fraction(0)] * width
        for u in range(width):
            if u != pivot and row[u] != 0:
                expr[u] = -row[u] / coeff
        subs.append((pivot, expr))
    return subs


def _fourier_motzkin(rows: set[Row], variables: list[int], width: int):
    """Eliminate ``variables`` from weak inequality rows.

    Returns (final rows, stack of (var, rows before its elimination)) for
    back-substitution.  Raises ``_Infeasible`` on a contradiction.
    """
    stack: list[tuple[int, list[Row]]] = []
    active = set(rows)
    remaining = list(variables)
    while remaining:
        best = min(
            remaining,
            key=lambda v: sum(1 for r in active if r[v] > 0)
            * sum(1 for r in active if r[v] < 0),
        )
        remaining.remove(best)
        pos = [r for r in active if r[best] > 0]
        neg = [r for r in active if r[best] < 0]
        keep = {r for r in active if r[best] == 0}
        stack.append((best, pos + neg))
        for p in pos:
            for q in neg:
                combined = [
                    p[i] * (-q[best]) + q[i] * p[best] for i in range(width)
                ]
                if not any(combined[:-1]):
                    if combined[-1] < 0:
                        raise _Infeasible
                    continue
                keep.add(_normalize(combined))
        active = keep
    return active, stack


def _bounds(rows, var: int, values: dict[int, Fraction]):
    lo = hi = None
    for row in rows:
        coeff = row[var]
        if coeff == 0:
            continue
        rest = row[-1] + sum(
            Fraction(row[u]) * values[u]
            for u in range(len(row) - 1)
            if u != var and row[u] != 0
        )
        bound = -Fraction(rest, coeff)
        if coeff > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    return lo, hi


def _pick_within(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1
    if hi is not None:
        return hi - 1
    return Fraction(0)


def _ce_system(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    masks: Sequence[Bundle],
):
    """Budget equalities and slack-encoded strict inequalities for one
    allocation.  Variables: item prices, then the slack s."""
    m = profile[0].m
    s_var = m
    width = m + 2
    empty_income = [incomes[i] for i in range(len(masks)) if masks[i] == 0]
    floor = max(empty_income) if empty_income else Fraction(0)

    inequalities: list[list[Fraction]] = []
    for j in range(m):
        row = [Fraction(0)] * width
        row[j] = Fraction(1)
        row[s_var] = Fraction(-1)
        row[-1] = -floor
        inequalities.append(row)
    cap = [Fraction(0)] * width
    cap[s_var] = Fraction(-1)
    cap[-1] = Fraction(1)
    inequalities.append(cap)

    equalities: list[list[Fraction]] = []
    for i, own in enumerate(masks):
        if own == 0:
            continue  # singleton floors above already dominate every bundle
        row = [Fraction(0)] * width
        for j in items_of(own):
            row[j] = Fraction(1)
        row[-1] = -incomes[i]
        equalities.append(row)
        own_rank = profile[i].rank[own]
        for y in all_bundles(m):
            if profile[i].rank[y] <= own_rank:
                continue
            if is_subset(own, y):
                continue  # costs the bundle price plus extra items: implied
            row = [Fraction(0)] * width
            for j in items_of(y):
                row[j] = Fraction(1)
            row[s_var] = Fraction(-1)
            row[-1] = -incomes[i]
            inequalities.append(row)
    return equalities, inequalities, width


def fm_feasible_ce_prices(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    allocation: Allocation,
) -> PriceVector | None:
    """A strictly positive price vector making the allocation an
    equilibrium, or None when the system is infeasible."""
    masks = allocation.bundles
    m = profile[0].m
    s_var = m
    equalities, inequalities, width = _ce_system(profile, incomes, masks)
    try:
        subs = _gauss(equalities, width)
        rows = set()
        for frac_row in inequalities:
            frac_row = list(frac_row)
            for var, expr in subs:
                _substitute(frac_row, var, expr)
            row = _scale_to_int(frac_row)
            if not any(row[:-1]):
                if row[-1] < 0:
                    raise _Infeasible
                continue
            rows.add(row)
        eliminated = {var for var, _ in subs}
        free = [v for v in range(m) if v not in eliminated]
        rows, stack = _fourier_motzkin(rows, free, width)
    except _Infeasible:
        return None

    s_lo = s_hi = None
    for row in rows:
        if row[s_var] == 0:
            if row[-1] < 0:
                return None
            continue
        bound = -Fraction(row[-1], row[s_var])
        if row[s_var] > 0:
            s_lo = bound if s_lo is None else max(s_lo, bound)
        else:
            s_hi = bound if s_hi is None else min(s_hi, bound)
    if s_hi is None:
        s_hi = Fraction(1)  # the cap row always bounds s; defensive only
    if s_lo is not None and s_lo > s_hi:
        return None
    if s_hi <= 0:
        return None

    values = {v: Fraction(0) for v in range(width - 1)}
    values[s_var] = s_hi
    for var, held in reversed(stack):
        lo, hi = _bounds(held, var, values)
        values[var] = _pick_within(lo, hi)
    for var, expr in reversed(subs):
        values[var] = expr[-1] + sum(
            expr[u] * values[u] for u in range(width - 1) if expr[u]
        )
    return PriceVector.of(values[j] for j in range(m))
