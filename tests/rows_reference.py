"""Reference row system of the oracle: every row of one allocation, built
before any pair is looked for.

``reference_slack_rows`` builds the whole system ``s <= a·z + c`` of one
allocation, one bundle at a time per row, and only then scans it for two
opposite rows that close it.  The oracle's ``_slack_rows`` stops as soon
as such a pair appears, so the tests compare the two: the oracle must
close early exactly when this reference finds a pair, every row it
returns must be a row of this system, and a system it does not close
must equal this one row for row.  Each agent's target bundles come from
``reference_better``, a full scan of the ``2^m`` bundles, so that the
oracle's walk of its preference bitsets is compared against it too,
order included: the simplex reads the columns in this order.
"""

from __future__ import annotations

from typing import Sequence

from cefai.core import Bundle, PreferenceOrder, all_bundles, items_of
from cefai.oracle import _MarketRows


def reference_better(pref: PreferenceOrder, own: Bundle) -> list[Bundle]:
    """The bundles ``pref`` ranks above ``own`` that do not contain it,
    ascending."""
    own_rank = pref.rank[own]
    return [y for y in all_bundles(pref.m) if pref.rank[y] > own_rank and y & own != own]


def reference_slack_rows(rows: _MarketRows, masks: Sequence[Bundle]):
    """The system ``s <= a·z + c`` of one allocation, scaled by ``rows.scale``.

    Returns ``(items, bundles, a, c, pair)``: the free items ascending,
    the non-empty bundles as (lowest item bit, other items, scaled
    income), per distinct ``a`` the vector over the free items with its
    smallest ``c``, and the first two columns ``r <= r'`` with
    ``a_r = -a_r'`` and ``c_r + c_r' <= 0`` (``r = r'`` for ``a = 0``),
    or None.  Column 0 is ``a = 0`` (the cap ``s <= 1`` among others) and
    column ``1 + f`` is ``a = e_f`` (the floor row of the f-th free
    item), which gives the simplex its starting basis.
    """
    m = rows.m
    income = rows.income
    empty = [income[i] for i, own in enumerate(masks) if own == 0]
    floor = max(empty) if empty else 0
    bundles = []
    free = 0
    for i, own in enumerate(masks):
        if own:
            low = own & -own
            bundles.append((low, own ^ low, income[i]))
            free |= own ^ low
    items = items_of(free)

    # Row key: the items with coefficient +1 in a, then those with -1
    # shifted by m; the cap and the floors go in first, in column order.
    best = {0: rows.scale}
    for j in items:
        best[1 << j] = -floor
    groups = [([low for low, _, _ in bundles], floor)]
    for i, own in enumerate(masks):
        if own:
            groups.append((reference_better(rows.profile[i], own), income[i]))
    for targets, threshold in groups:
        for y in targets:
            inside = 0
            c = -threshold
            for low, rest, t in bundles:
                if y & low:
                    inside |= rest
                    c += t
            key = (y & free & ~inside) | ((inside & ~y) << m)
            old = best.get(key)
            if old is None or c < old:
                best[key] = c
    a = [[(key >> j & 1) - (key >> (m + j) & 1) for j in items] for key in best]
    # Two opposite rows whose c sum to at most 0 close the system on their
    # own (the a = 0 row is its own opposite).  Negating a swaps the +1
    # half of its key with the -1 half.
    half = (1 << m) - 1
    pair = None
    for r, (key, c) in enumerate(best.items()):
        opposite = key >> m | (key & half) << m
        other = best.get(opposite)
        if other is not None and c + other <= 0:
            pair = r, list(best).index(opposite)
            break
    return items, bundles, a, list(best.values()), pair
