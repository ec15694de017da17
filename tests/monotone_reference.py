"""Reference monotonicity check for ``cefai.core.make_preference``.

``reference_validate_monotone`` is the loop ``make_preference`` ran
before it compared the ranks along the cover pairs of ``core._lattice``
in one pass: every bundle S ascending, every item j outside S ascending,
raising on the first ``rank[S + j] <= rank[S]``.  The tests require the
package to accept exactly what this loop accepts and, on a ranking it
rejects, to raise the same ``MonotonicityViolationError``.
"""

from __future__ import annotations

from typing import Sequence

from cefai.core import MonotonicityViolationError, all_bundles


def reference_validate_monotone(m: int, rank: Sequence[int]) -> None:
    # Checking every single-item extension suffices: any S ⊊ T is reachable
    # by a chain of such extensions, so rank increases along the chain.
    for s in all_bundles(m):
        for j in range(m):
            bit = 1 << j
            if s & bit:
                continue
            if rank[s | bit] <= rank[s]:
                raise MonotonicityViolationError(s, s | bit, m)
