"""ε resolution against its ``Fraction`` reference.

``check_requirements``, ``_sign_flip_bound`` and ``resolve_epsilon`` must
give the same interval, flip bound and ε as ``tests/eps_reference.py``,
and raise the same exception with the same message.  The library's ends
and flip bound are integer ratios, read as ``Fraction``s by
``fraction``; its ε is a ``Fraction``.
"""

import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from cefai.instances import stratified_incomes
from cefai.market import IncomeVector, with_incomes
from cefai.pixep import (
    EpsilonInterval,
    Pixep,
    _sign_flip_bound,
    check_requirements,
    resolve_epsilon,
)
from cefai.solver import _LEAVES, range_labels

from conftest import leaf_at
from eps_reference import (
    affine,
    fraction,
    midpoint,
    pixep_of,
    positions,
    reference_check_requirements,
    reference_resolve_epsilon,
    reference_sign_flip_bound,
)


def _money(rng: random.Random, low: int, high: int) -> Fraction:
    # Small numerators and denominators, so that bounds often tie.
    return Fraction(rng.randint(low, high), rng.choice((1, 2, 3, 4)))


def random_pixep(rng: random.Random) -> tuple[Pixep, IncomeVector]:
    """A pixep of 1-5 positions over 1-4 agents, with integer ε-slopes,
    and incomes.

    Each present agent's last position makes up the rest of the agent's
    income and cancels the agent's ε-slopes, so R1 holds, except that
    about one pixep in seven has one price nudged to break it.  Agents
    that draw no position are absent, so R3 applies to them; constants
    in no order make many ε intervals empty.
    """
    m = rng.randint(1, 5)
    n = rng.randint(1, 4)
    agents = [rng.randrange(n) for _ in range(m)]
    incomes = [_money(rng, 1, 12) for _ in range(n)]
    constants = [_money(rng, -4, 12) for _ in range(m)]
    slopes = [rng.randint(-3, 3) for _ in range(m)]
    last = {agent: k for k, agent in enumerate(agents)}
    for agent, k in last.items():
        others = [j for j in range(m) if agents[j] == agent and j != k]
        constants[k] = incomes[agent] - sum(constants[j] for j in others)
        slopes[k] = -sum(slopes[j] for j in others)
    if rng.random() < 1 / 7:
        k = rng.randrange(m)
        if rng.random() < 0.5:
            constants[k] += Fraction(1, rng.randint(1, 3))
        else:
            slopes[k] += 1
    prices = [affine(c0, c1) for c0, c1 in zip(constants, slopes)]
    return pixep_of(zip(agents, prices)), IncomeVector.of(incomes)


class Raised(NamedTuple):
    kind: type
    text: str
    agent: int | None


def _outcome(fn, pix, incomes):
    """What ``fn`` returns, or the type, message and fields of what it raises."""
    try:
        return fn(pix, incomes)
    except ValueError as exc:
        return Raised(type(exc), str(exc), getattr(exc, "agent", None))


def interval(pix, incomes):
    """The checked ε interval as ``(lo, hi)`` in ``Fraction``s."""
    checked = check_requirements(pix, incomes)
    return fraction(checked.lo), fraction(checked.hi)


def flip_bound(pix, incomes):
    """The sign-flip bound, which reads only the interval's integer form,
    so it is taken on every pixep, whether its requirements hold or not."""
    form = EpsilonInterval((0, 1), None, *with_incomes(pix.scale, pix.constants, incomes))
    return fraction(_sign_flip_bound(pix, form))


def resolved(pix, incomes):
    """ε the way ``execute_to_ce`` resolves it: checked, then capped."""
    return resolve_epsilon(pix, check_requirements(pix, incomes))


def compare(pix: Pixep, incomes: IncomeVector) -> str:
    """Assert that the library and the reference agree on ``pix``; return
    the type and message of the exception raised, or the kind of interval."""
    want = _outcome(reference_check_requirements, pix, incomes)
    assert _outcome(interval, pix, incomes) == want
    flip = _outcome(flip_bound, pix, incomes)
    assert flip == _outcome(reference_sign_flip_bound, pix, incomes)
    eps = _outcome(resolved, pix, incomes)
    assert eps == _outcome(reference_resolve_epsilon, pix, incomes)
    if isinstance(want, Raised):
        return f"{want.kind.__name__}: {want.text}"
    assert type(eps) is Fraction
    lo, hi = want
    if lo > 0 and eps == midpoint(lo, hi) and flip is not None and flip / 2 <= lo:
        return "clamped to the midpoint"
    return "bounded" if hi is not None else "unbounded"


def test_seeded_random_pixeps():
    rng = random.Random("eps-reference")
    kinds = Counter()
    one_position = Counter()
    texts = []
    for _ in range(4000):
        pix, incomes = random_pixep(rng)
        text = compare(pix, incomes)
        texts.append(text)
        kind = text.split(":")[0]
        kinds[kind] += 1
        if pix.m == 1:
            one_position[kind] += 1
    # every outcome and every constraint text is reached, and one-position
    # pixeps meet R1 violations, absent agents and unbounded intervals
    for kind in (
        "R1ViolationError",
        "EmptyEpsilonIntervalError",
        "bounded",
        "unbounded",
        "clamped to the midpoint",
    ):
        assert kinds[kind] > 0, (kind, kinds)
    for kind in ("R1ViolationError", "EmptyEpsilonIntervalError", "unbounded"):
        assert one_position[kind] > 0, (kind, one_position)
    texts = "\n".join(texts)
    for text in (
        "unsatisfiable", "empty ε interval", "(ε > 0)", "R2 switch", "R2 run",
        "absent agent", "positivity of last price",
    ):
        assert text in texts, text


def test_random_pixeps_round_trip():
    # a pixep read back from its Fraction prices is the same integer data,
    # fractional constants included
    rng = random.Random("eps-reference")
    scales = Counter()
    for _ in range(2000):
        pix, _ = random_pixep(rng)
        assert pixep_of(positions(pix)) == pix
        scales[pix.scale > 1] += 1
    assert scales[False] > 0 and scales[True] > 0, scales


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_hypothesis_random_pixeps(rng):
    compare(*random_pixep(rng))


@pytest.mark.parametrize("m,n", [(4, 3), (4, 2)], ids=["m4n3", "m4n2"])
def test_solver_leaves_on_every_range(m, n):
    # every leaf of the solver's table at stratified points of every range,
    # including leaves that miss R1 or name an agent the market lacks
    kinds = Counter()
    for label in range_labels(m, n):
        for incomes in stratified_incomes(m, n, label, seed=7, count=10):
            for name in _LEAVES:
                kinds[compare(leaf_at(name, incomes), incomes)] += 1
    assert kinds["bounded"] + kinds["unbounded"] > 0, kinds
