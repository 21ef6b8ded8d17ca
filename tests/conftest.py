import random

import pytest
from hypothesis import assume, settings, strategies as st

from suspcalc.abelian import FgAbelianGroup
from suspcalc.catalog import WedgeComplex, sphere
from suspcalc.classifier import (
    SQ2_CASE_A,
    SQ2_CASE_B,
    SQ2_CASE_C,
    SQ2_NOT_APPLICABLE,
    THETA_NONTRIVIAL,
    THETA_TRIVIAL,
    ManifoldInvariants,
    Sq2Case,
    ThetaAction,
)

def cyclic(k):
    return FgAbelianGroup.of_orders(k)


def spheres(n, count):
    return WedgeComplex(tuple(sphere(n) for _ in range(count)))


def invariants(m, d, orders=(), spin=True, theta=None, sq2=None, postnikov=True, label=None):
    return ManifoldInvariants(
        m,
        d,
        FgAbelianGroup.of_orders(*orders),
        spin,
        theta or ThetaAction("trivial"),
        sq2 or (Sq2Case("not_applicable") if spin else Sq2Case("A")),
        postnikov,
        label,
    )


# One fixed profile, so that every run draws the same examples.
settings.register_profile("suspcalc", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("suspcalc")


def random_torsion(rng: random.Random, max_two_factors=3, max_exponent=4) -> FgAbelianGroup:
    orders = []
    for _ in range(rng.randint(0, max_two_factors)):
        orders.append(2 ** rng.randint(1, max_exponent))
    for _ in range(rng.randint(0, 2)):
        orders.append(rng.choice([3, 5, 9, 7]))
    return FgAbelianGroup.of_orders(*orders)


def random_invariants(rng: random.Random, postnikov=None) -> ManifoldInvariants:
    """A uniformly messy but valid, classifiable invariant record."""
    torsion = random_torsion(rng)
    n = len(torsion.two_primary_exponents())
    m, d = rng.randint(0, 3), rng.randint(0, 3)
    spin = rng.random() < 0.5
    if postnikov is None:
        postnikov = rng.random() < 0.5

    if spin:
        sq2 = Sq2Case(SQ2_NOT_APPLICABLE)
        if n and rng.random() < 0.5:
            theta = ThetaAction(THETA_NONTRIVIAL, rng.randint(1, n))
        else:
            theta = ThetaAction(THETA_TRIVIAL)
    else:
        if n and rng.random() < 0.15:
            theta = ThetaAction(THETA_NONTRIVIAL, rng.randint(1, n))  # the declined case
        else:
            theta = ThetaAction(THETA_TRIVIAL)
        choices = []
        if d >= 1:
            choices.append(Sq2Case(SQ2_CASE_A))
        if n:
            choices.append(Sq2Case(SQ2_CASE_B, rng.randint(1, n)))
            choices.append(Sq2Case(SQ2_CASE_C, rng.randint(1, n)))
        if not choices:
            return random_invariants(rng, postnikov)
        sq2 = rng.choice(choices)
    return ManifoldInvariants(m, d, torsion, spin, theta, sq2, postnikov)


@st.composite
def valid_invariants(draw) -> ManifoldInvariants:
    """A valid, classifiable invariant record over the ranges of
    ``random_invariants``, without its declined case (non-spin with a
    nontrivial theta action), which has no report."""
    two = draw(st.lists(st.integers(1, 4), max_size=3))
    odd = draw(st.lists(st.sampled_from([3, 5, 9, 7]), max_size=2))
    torsion = FgAbelianGroup.of_orders(*(2**r for r in two), *odd)
    m, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    spin, postnikov = draw(st.booleans()), draw(st.booleans())
    index = st.integers(1, len(two))
    theta = ThetaAction(THETA_TRIVIAL)
    if spin:
        sq2 = Sq2Case(SQ2_NOT_APPLICABLE)
        if two and draw(st.booleans()):
            theta = ThetaAction(THETA_NONTRIVIAL, draw(index))
    else:
        cases = [st.just(Sq2Case(SQ2_CASE_A))] if d else []
        if two:
            cases += [st.builds(Sq2Case, st.just(c), index) for c in (SQ2_CASE_B, SQ2_CASE_C)]
        assume(cases)
        sq2 = draw(st.one_of(cases))
    return ManifoldInvariants(m, d, torsion, spin, theta, sq2, postnikov)


@pytest.fixture
def rng():
    return random.Random(20240811)
