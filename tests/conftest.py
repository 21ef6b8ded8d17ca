import random

import pytest
from hypothesis import settings

from suspcalc.abelian import FgAbelianGroup
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


@pytest.fixture
def rng():
    return random.Random(20240811)
