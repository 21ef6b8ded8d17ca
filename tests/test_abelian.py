import math
import random

import pytest
from hypothesis import example, given, strategies as st

import suspcalc.abelian
from suspcalc.abelian import (
    CyclicFactor,
    FgAbelianGroup,
    RING_Z2LOCAL,
    factorint,
    iroot,
    isprime,
    perfect_power,
)
import suspcalc.catalog
from suspcalc.catalog import maps_group, moore, sphere

Z = FgAbelianGroup(1)
ZERO = FgAbelianGroup()


def orders(*ks):
    return FgAbelianGroup.of_orders(*ks)


# --------------------------------------------------------------------------
# two_primary
# --------------------------------------------------------------------------

def test_two_primary_examples():
    assert orders(12, 5).two_primary() == orders(4)
    assert ZERO.two_primary() == ZERO
    assert orders(2, 8, 9).two_primary() == orders(2, 8)
    assert orders(2, 8, 9).two_primary_exponents() == (1, 3)


def test_two_primary_respects_direct_sum(rng):
    for _ in range(30):
        a = FgAbelianGroup.of_orders(*[rng.randint(0, 24) for _ in range(4)])
        b = FgAbelianGroup.of_orders(*[rng.randint(0, 24) for _ in range(4)])
        assert a.direct_sum(b).two_primary() == a.two_primary().direct_sum(b.two_primary())


# --------------------------------------------------------------------------
# direct_sum
# --------------------------------------------------------------------------

def test_direct_sum_examples():
    assert Z.direct_sum(orders(2)) == orders(0, 2)
    g = orders(6, 8)
    assert ZERO.direct_sum(g) == g
    assert orders(2, 8).direct_sum(orders(4)) == orders(2, 4, 8)


def test_direct_sum_commutative_associative(rng):
    for _ in range(25):
        a, b, c = (FgAbelianGroup.of_orders(*[rng.randint(0, 12) for _ in range(3)]) for _ in range(3))
        assert a.direct_sum(b) == b.direct_sum(a)
        assert a.direct_sum(b.direct_sum(c)) == a.direct_sum(b).direct_sum(c)


FACTORS = st.builds(CyclicFactor, st.sampled_from([2, 3, 5]), st.integers(1, 3))


@given(st.lists(FACTORS, max_size=12), st.lists(FACTORS, max_size=12),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 3), st.data())
def test_multiset_group_matches_per_copy_reference(a, b, rank_a, rank_b, k, data):
    """Every operation on (factor, multiplicity) pairs against a sorted
    list of CyclicFactor copies."""
    ref_a, ref_b = sorted(a), sorted(b)

    def pairs(copies):
        return tuple((f, copies.count(f)) for f in sorted(set(copies)))

    split = data.draw(st.integers(0, len(a)))
    ga = FgAbelianGroup(rank_a, [(f, 1) for f in a[:split]] + list(pairs(a[split:])))
    gb = FgAbelianGroup(rank_b, [(f, 1) for f in b[::-1]])
    assert ga.pairs == pairs(a)

    total = ga.direct_sum(gb)
    assert (total.free_rank, total.pairs) == (rank_a + rank_b, pairs(a + b))
    copies = ga.times(k)
    assert (copies.free_rank, copies.pairs) == (k * rank_a, pairs(k * a))
    assert ga.two_primary().pairs == pairs([f for f in a if f.prime == 2])
    assert ga.two_primary().free_rank == 0
    assert ga.two_primary_exponents() == tuple(f.exponent for f in ref_a if f.prime == 2)
    assert ga.order() == (None if rank_a else math.prod(f.order for f in a))

    data_a = ga.to_json_dict()
    assert [(t["prime"], t["exponent"], t["multiplicity"]) for t in data_a["torsion"]] == [
        (f.prime, f.exponent, ref_a.count(f)) for f in sorted(set(a))]

    free = [] if not rank_a else ["Z" if rank_a == 1 else f"Z^{rank_a}"]
    assert str(ga) == (" + ".join(free + [f"Z/{f.prime ** f.exponent}" for f in ref_a]) or "0")
    assert (ga == gb) == ((rank_a, ref_a) == (rank_b, ref_b))


def test_mixed_free_rings_rejected():
    local = FgAbelianGroup(1, free_ring=RING_Z2LOCAL)
    with pytest.raises(ValueError):
        Z.direct_sum(local)
    # A rank-0 side never clashes.
    assert orders(2).direct_sum(local).free_ring == RING_Z2LOCAL


# --------------------------------------------------------------------------
# isprime / factorint
# --------------------------------------------------------------------------

P32, Q32 = 4294967291, 4294967279  # the two largest primes below 2**32
PSI_11, PSI_12 = 3825123056546413051, 318665857834031151167461


def trial_division(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def raises_in_factorint(factors):
    """Whether factorint raises on the number with these prime factors:
    exactly when the cofactor that trial division below 1024 leaves is
    neither 1 nor a prime power, that is when two primes above 1024 divide it."""
    return sum(p > 1024 for p in factors) > 1


def test_number_theory_matches_trial_division():
    assert not isprime(0) and not isprime(1)
    for n in range(1, 10**4):
        expected = trial_division(n)
        assert factorint(n) == expected, n
        assert isprime(n) == (expected == {n: 1}), n
        e = math.gcd(*expected.values()) or 1
        assert perfect_power(n) == (math.prod(p ** (a // e) for p, a in expected.items()), e), n


@pytest.mark.parametrize(
    "n, factors",
    [
        (561, {3: 1, 11: 1, 17: 1}),  # Carmichael numbers
        (41041, {7: 1, 11: 1, 13: 1, 41: 1}),
        (3215031751, {151: 1, 751: 1, 28351: 1}),  # strong pseudoprimes to small bases
        (PSI_11, {149491: 1, 747451: 1, 34233211: 1}),
        (2**61 - 1, {2**61 - 1: 1}),
        (2**64 - 59, {2**64 - 59: 1}),
        (P32 * Q32, {Q32: 1, P32: 1}),
        (P32**2, {P32: 2}),
        (3**40, {3: 40}),
        (2**63, {2: 63}),
    ],
)
def test_number_theory_named_cases(n, factors):
    # PSI_11 and P32 * Q32 have two prime factors above 1024, so factorint
    # raises on them; isprime still decides them.
    if raises_in_factorint(factors):
        with pytest.raises(ValueError, match="is not a prime power"):
            factorint(n)
    else:
        assert factorint(n) == factors
    assert isprime(n) == (factors == {n: 1})


def test_moore_maps_factor_nothing(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorint({n}) called")

    monkeypatch.setattr(suspcalc.abelian, "factorint", refuse)
    monkeypatch.setattr(suspcalc.catalog, "factorint", refuse, raising=False)
    lookup = maps_group.__wrapped__  # past the cache, so the table is consulted
    # An odd order is decided by its parity, and the constructor rejects a
    # composite one by a prime-power test, not a factorization.
    for k in (P32**2, 3**40):
        assert lookup(sphere(3), moore(4, k)).generators == ()
        assert lookup(moore(5, k), sphere(3)).generators == ()
    for k in (P32 * Q32, 2 * P32):
        with pytest.raises(ValueError, match="needs a prime-power order"):
            moore(4, k)


def test_factorint_takes_perfect_powers_without_rho():
    # A cofactor above the trial divisors is taken by its exact integer
    # root; no general factoring step follows, so any other one raises.
    assert factorint(P32**2) == {P32: 2}
    assert factorint(8 * P32**2) == {2: 3, P32: 2}
    assert factorint((2**31 - 1) ** 2) == {2**31 - 1: 2}
    with pytest.raises(ValueError, match="is not a prime power"):
        factorint(8 * P32 * Q32)


def test_number_theory_refuses_to_guess_at_psi_12():
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on every
    # prime base up to 37, so no answer at all beats a probable one.
    with pytest.raises(ValueError):
        isprime(PSI_12)
    with pytest.raises(ValueError):
        factorint(PSI_12)


@given(st.integers(1, 2**64 - 1))
@example(P32 * Q32)
@example(P32**2)
@example(2**64 - 59)
def test_factorint_product_of_primes(n):
    # A product of primes, or a ValueError exactly when the cofactor that
    # trial division below 1024 leaves is neither 1 nor a prime power.
    cofactor = n
    for p in range(2, 1024):
        while cofactor % p == 0:
            cofactor //= p
    if cofactor > 1 and not isprime(perfect_power(cofactor)[0]):
        with pytest.raises(ValueError, match="is not a prime power"):
            factorint(n)
        return
    factors = factorint(n)
    assert math.prod(p**e for p, e in factors.items()) == n
    assert all(isprime(p) and e >= 1 for p, e in factors.items())
    assert list(factors) == sorted(factors)


@given(st.integers(1, 2**64 - 1), st.integers(1, 63))
def test_iroot_is_the_exact_integer_root(k, e):
    p = iroot(k, e)
    assert p**e <= k < (p + 1) ** e


def test_number_theory_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2)
    for bits in (16, 32, 48, 64):
        for _ in range(50):
            n = rng.randrange(2, 2**bits)
            expected = sympy.factorint(n)
            if raises_in_factorint(expected):
                with pytest.raises(ValueError, match="is not a prime power"):
                    factorint(n)
            else:
                assert factorint(n) == expected, n
            assert isprime(n) == sympy.isprime(n), n


# --------------------------------------------------------------------------
# canonical form and serialization
# --------------------------------------------------------------------------

def test_canonical_equality():
    assert orders(6) == orders(2, 3)
    assert orders(8) != orders(2, 4)
    assert orders(4, 2) == orders(2, 4)


def test_no_order_one_factors():
    assert orders(1, 1, 2) == orders(2)


def test_cyclic_factor_validation():
    with pytest.raises(ValueError):
        CyclicFactor(4, 1)
    with pytest.raises(ValueError):
        CyclicFactor(2, 0)


def test_json_roundtrip(rng):
    for _ in range(20):
        g = FgAbelianGroup.of_orders(
            *[rng.randint(0, 16) for _ in range(4)],
            free_ring=rng.choice(["Z", RING_Z2LOCAL]),
        )
        data = g.to_json_dict()
        assert (data["free_rank"], data["free_ring"]) == (g.free_rank, g.free_ring)
        assert [(CyclicFactor(t["prime"], t["exponent"]), t["multiplicity"])
                for t in data["torsion"]] == list(g.pairs)


def test_json_shape():
    data = orders(0, 2, 2, 8).to_json_dict()
    assert data == {
        "free_rank": 1,
        "free_ring": "Z",
        "torsion": [
            {"prime": 2, "exponent": 1, "multiplicity": 2},
            {"prime": 2, "exponent": 3, "multiplicity": 1},
        ],
    }


def test_order_queries():
    assert orders(4, 3).order() == 12
    assert Z.order() is None
    assert orders(2).direct_sum(orders(3)).direct_sum(orders(5)).order() == 30

