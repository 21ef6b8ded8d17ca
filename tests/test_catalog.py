import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from suspcalc.abelian import RING_Z2LOCAL, FgAbelianGroup, NotTorsion
from suspcalc.cli import build_tables
from suspcalc.ehp import hopf_table
from suspcalc.catalog import (
    OTHER,
    SPHERE,
    ElementaryComplex,
    TableMiss,
    WedgeComplex,
    _homology_pairs,
    _mod2_basis,
    _sq2_nonzero,
    a_2r_eta2,
    a_eta2,
    a_tilde,
    bockstein_profile,
    chang_eta,
    chang_r,
    chang_rt,
    chang_t,
    homology_by_degree,
    integral_homology,
    maps_group,
    mod2_cohomology_dim,
    moore,
    moore_pairs,
    operation_profile,
    parse_complex,
    parse_wedge,
    peterson_of_group,
    pontryagin_square_Ct,
    sphere,
    sq2_action,
    sq2_is_nonzero,
    theta_flag,
)

Z = FgAbelianGroup.free(1)
ZERO = FgAbelianGroup.zero()


def cyclic(k):
    return FgAbelianGroup.cyclic(k)


ALL_SAMPLE_COMPLEXES = (
    [sphere(n) for n in range(2, 7)]
    + [moore(n, 2**r) for n in (3, 4, 5) for r in (1, 2, 3)]
    + [moore(4, 3), moore(5, 9)]
    + [chang_eta(n) for n in (2, 3, 4)]
    + [chang_r(n, r) for n in (2, 3, 4) for r in (1, 2, 3)]
    + [chang_t(n, t) for n in (2, 3, 4) for t in (1, 2, 3)]
    + [chang_rt(n, r, t) for n in (2, 3, 4) for r in (1, 2) for t in (1, 2)]
    + [a_eta2(n) for n in (2, 3)]
    + [a_tilde(n, r) for n in (2, 3) for r in (1, 2, 3)]
    + [a_2r_eta2(n, r) for n in (2, 3) for r in (1, 2, 3)]
)


# --------------------------------------------------------------------------
# integral homology
# --------------------------------------------------------------------------

def test_homology_moore():
    for r in (1, 2, 3):
        assert integral_homology(moore(4, 2**r), 3) == cyclic(2**r)
        assert integral_homology(moore(4, 2**r), 4) == ZERO


def test_homology_a_complexes():
    for r in (1, 2, 3):
        x = a_2r_eta2(3, r)
        assert integral_homology(x, 3) == cyclic(2**r)
        assert integral_homology(x, 6) == Z
        assert integral_homology(x, 4) == ZERO
        assert integral_homology(x, 5) == ZERO


def test_homology_chang_eta():
    x = chang_eta(3)  # two cells, homologically trivial attachment
    assert integral_homology(x, 3) == Z
    assert integral_homology(x, 5) == Z
    assert integral_homology(x, 4) == ZERO


def test_homology_additive_over_wedge():
    w = WedgeComplex.of(sphere(3), moore(4, 2), moore(4, 8))
    assert integral_homology(w, 3) == Z.direct_sum(cyclic(2)).direct_sum(cyclic(8))


# --------------------------------------------------------------------------
# Sq^2, Theta, Bocksteins
# --------------------------------------------------------------------------

def test_sq2_chang_iso():
    assert sq2_action(chang_eta(4), 4) == ((1,),)


def test_sq2_a_tilde_iso():
    assert sq2_action(a_tilde(3, 2), 4) == ((1,),)


def test_sq2_moore_zero():
    # no degree-5 cohomology in P^4(2): the matrix is empty
    assert not sq2_is_nonzero(moore(4, 2), 3)


def test_sq2_iso_across_parameters():
    # Sq^2 is an isomorphism on the bottom class of every two-stage
    # eta-type complex, and in degree n+1 on A^(n+3)(eta~_r).
    for n in range(2, 7):
        samples = [chang_eta(n)]
        for r in (1, 2, 3):
            samples.append(chang_r(n, r))
            samples.append(a_tilde(n, r))
        for t in (1, 2, 3):
            samples.append(chang_t(n, t))
            for r in (1, 2, 3):
                samples.append(chang_rt(n, r, t))
        for x in samples:
            if x.kind == "a_tilde":
                assert sq2_action(x, n + 1) == ((1,),), x
            else:
                assert sq2_action(x, n) == ((1,),), x


def test_sq2_zero_on_eta2_attachments():
    for r in (1, 2, 3):
        assert not sq2_is_nonzero(a_2r_eta2(3, r), 4)
        assert not sq2_is_nonzero(a_2r_eta2(3, r), 3)


def test_theta_flag():
    assert theta_flag(a_eta2(3))
    for r in (1, 2, 3):
        assert theta_flag(a_2r_eta2(3, r))
    # classes three dimensions apart but eta~-attached: Theta is trivial
    assert not theta_flag(a_tilde(3, 2))
    assert not theta_flag(chang_eta(4))
    assert not theta_flag(WedgeComplex.of(sphere(3), moore(4, 2)))
    assert theta_flag(WedgeComplex.of(sphere(3), a_eta2(2)))


def test_bockstein_profile():
    assert bockstein_profile(moore(5, 2**3)) == ((3, 4),)
    assert bockstein_profile(sphere(6)) == ()
    assert bockstein_profile(WedgeComplex.of(moore(4, 2), moore(5, 8))) == ((1, 3), (3, 4))
    assert bockstein_profile(moore(4, 9)) == ()


# --------------------------------------------------------------------------
# Pontryagin square on the C(t) model
# --------------------------------------------------------------------------

def test_pontryagin_examples():
    assert pontryagin_square_Ct(0, 1) == 0
    assert pontryagin_square_Ct(1, 1) == 1
    assert pontryagin_square_Ct(3, 2) == 3


def _pontryagin_by_sum_formula(t, u, a):
    # Independent evaluation through the quadratic-function axioms:
    # P(x + y) = P(x) + P(y) + j(x cup y), with j doubling into Z/2^(u+1)
    # and (bx cup x) = b*t mod 2^u on the model.
    modulus = 2 ** (u + 1)
    value = 0
    for b in range(a):
        cup = (b * t) % (2**u)
        value = (value + t + 2 * cup) % modulus
    return value


def test_pontryagin_quadraticity_exhaustive():
    for r in (1, 2, 3):
        for u in range(r, r + 3):
            for t in range(2 ** (r + 1)):
                for a in range(2**u):
                    expected = _pontryagin_by_sum_formula(t, u, a)
                    assert pontryagin_square_Ct(t, u, multiple=a) == expected
                    assert expected == (a * a * t) % 2 ** (u + 1)


def test_pontryagin_negation_invariance():
    for t in range(8):
        assert pontryagin_square_Ct(t, 2, multiple=-1) == pontryagin_square_Ct(t, 2)


# --------------------------------------------------------------------------
# suspension
# --------------------------------------------------------------------------

def test_suspend_examples():
    w = WedgeComplex.of(sphere(3), moore(4, 4))
    assert w.suspend() == WedgeComplex.of(sphere(4), moore(5, 4))
    assert chang_eta(3).suspend() == chang_eta(4)
    assert WedgeComplex.point().suspend() == WedgeComplex.point()


def test_suspend_preserves_kind_homology_and_profiles():
    for x in ALL_SAMPLE_COMPLEXES:
        s = x.suspend()
        assert s.kind == x.kind
        for i in range(0, 10):
            assert integral_homology(s, i + 1) == integral_homology(x, i)
        px, ps = operation_profile(x), operation_profile(s)
        assert ps.theta == px.theta
        assert ps.bocksteins == tuple((r, k + 1) for r, k in px.bocksteins)
        assert {k + 1: m for k, m in px.sq2} == dict(ps.sq2)


def test_desuspend_inverts_suspend():
    for x in ALL_SAMPLE_COMPLEXES:
        assert x.suspend().desuspend() == x


@pytest.mark.parametrize("kind, n, params", [
    ("sphere", 3, {"order": 5}),
    ("sphere", 3, {"r": 1}),
    ("moore", 4, {"order": 2, "r": 7}),
    ("chang_eta", 2, {"t": 1}),
    ("chang_t", 2, {"t": 1, "r": 2}),
    ("a_tilde", 2, {"r": 1, "order": 3}),
])
def test_constructor_rejects_parameters_the_kind_does_not_use(kind, n, params):
    with pytest.raises(ValueError, match="takes no"):
        ElementaryComplex(kind, n, **params)


@pytest.mark.parametrize("notation", ["A^5(eta~_{})", "C^5_{}", "C^{{5,{}}}", "C^{{5,1}}_{}",
                                      "A^5(2^{} eta^2)"])
def test_two_power_exponents_bounded_like_moore_orders(notation):
    # 2**r and 2**t stay below MAX_FACTOR_ORDER = 2**64, as a Moore order does.
    assert parse_complex(notation.format(63)).notation == notation.format(63)
    with pytest.raises(ValueError, match=r"2\*\*[rt] below 2\*\*64"):
        parse_complex(notation.format(64))


def test_desuspension_floor():
    with pytest.raises(ValueError):
        a_tilde(2, 1).desuspend()
    with pytest.raises(ValueError):
        moore(2, 2).desuspend()


# --------------------------------------------------------------------------
# interned complexes
# --------------------------------------------------------------------------

def test_constructors_return_one_object_per_complex():
    assert sphere(3) is sphere(3)
    assert parse_complex("P^4(2)") is moore(4, 2)
    for x in ALL_SAMPLE_COMPLEXES:
        assert x.suspend().desuspend() is x
        assert parse_complex(x.notation) is x
        fresh = ElementaryComplex(x.kind, x.n, x.order, x.r, x.t)
        assert fresh is not x
        assert fresh == x and x == fresh
        assert hash(fresh) == hash(x)
        assert fresh.sort_key() == x.sort_key()
        assert {fresh: 1}[x] == 1


@pytest.mark.parametrize("build", [
    lambda: moore(4, 0),
    lambda: moore(4, 2**64),
    lambda: sphere(0),
    lambda: chang_r(3, 64),
    lambda: a_tilde(1, 1),
    lambda: sphere(1).desuspend(),
    lambda: parse_complex("P^4(18446744073709551616)"),
])
def test_interned_constructors_raise_on_every_call(build):
    # A raising call caches nothing, so the next call raises again.
    for _ in range(3):
        with pytest.raises(ValueError):
            build()


# --------------------------------------------------------------------------
# Peterson wedges
# --------------------------------------------------------------------------

def test_peterson_of_group():
    g = FgAbelianGroup.of_orders(2, 9)
    assert peterson_of_group(4, g) == WedgeComplex.of(moore(4, 2), moore(4, 9))
    assert peterson_of_group(4, ZERO) == WedgeComplex.point()
    assert peterson_of_group(3, FgAbelianGroup.of_orders(2, 2)) == WedgeComplex.of(
        moore(3, 2), moore(3, 2)
    )
    with pytest.raises(NotTorsion):
        peterson_of_group(4, Z)
    with pytest.raises(NotTorsion):
        moore_pairs(4, Z)
    g = FgAbelianGroup.of_orders(2, 2, 8, 9)
    assert moore_pairs(5, g) == ((moore(5, 2), 2), (moore(5, 8), 1), (moore(5, 9), 1))
    assert WedgeComplex(counts=moore_pairs(5, g)) == peterson_of_group(5, g)


# --------------------------------------------------------------------------
# maps_group table
# --------------------------------------------------------------------------

def test_maps_group_moore_homotopy():
    entry = maps_group(sphere(3), moore(3, 2**2))
    assert entry.group == cyclic(8)
    assert entry.generators == ("i_2 eta",)

    entry = maps_group(sphere(5), moore(4, 2**3))
    assert entry.group == FgAbelianGroup.of_orders(2, 2)
    assert entry.generators == ("eta~_3", "i_3 eta^2")

    entry = maps_group(sphere(5), moore(4, 2))
    assert entry.group == cyclic(4)
    assert entry.generators == ("eta~_1",)


def test_maps_group_cohomotopy_rows():
    entry = maps_group(chang_r(3, 2), sphere(3))
    assert entry.group == cyclic(2)
    assert entry.generators == ("eta q_4",)

    entry = maps_group(a_2r_eta2(2, 2), sphere(3))
    assert entry.group == cyclic(8)
    assert entry.generators == ("q_3",)

    assert maps_group(chang_eta(4), sphere(5)).is_trivial
    assert maps_group(a_tilde(3, 2), sphere(5)).is_trivial
    assert maps_group(moore(5, 4), sphere(5)).group == cyclic(4)


def test_maps_group_odd_vanishes():
    assert maps_group(sphere(4), moore(4, 3)).is_trivial
    assert maps_group(moore(5, 9), sphere(5)).is_trivial
    assert maps_group(sphere(3), moore(4, 9)).group == cyclic(9)


def test_maps_group_dimension_rule():
    assert maps_group(sphere(3), sphere(5)).is_trivial
    assert maps_group(moore(4, 2), sphere(5)).is_trivial


def test_maps_group_kinds_align_with_generators():
    for row in build_tables()["maps_groups"]:
        source, target = parse_complex(row["source"]), parse_complex(row["target"])
        entry = maps_group(source, target)
        assert len(entry.generators) == len(entry.orders) == len(entry.kinds)
        if source.kind == SPHERE:
            assert OTHER not in entry.kinds, (row["source"], row["target"])


def test_maps_group_table_miss():
    with pytest.raises(TableMiss):
        maps_group(sphere(7), sphere(3))  # pi_7(S^3) is not tabulated
    with pytest.raises(TableMiss):
        maps_group(chang_eta(5), sphere(6))


# --------------------------------------------------------------------------
# Euler-characteristic consistency (universal coefficients)
# --------------------------------------------------------------------------

def test_mod2_dimensions_match_universal_coefficients():
    for x in ALL_SAMPLE_COMPLEXES:
        betti = two_tors = 0
        alt_mod2 = alt_betti = 0
        total_mod2 = 0
        for i in range(0, x.top_dim + 2):
            h = integral_homology(x, i)
            betti += h.free_rank
            two_tors += len(h.two_primary_exponents())
            alt_betti += (-1) ** i * h.free_rank
            dim = mod2_cohomology_dim(x, i)
            total_mod2 += dim
            alt_mod2 += (-1) ** i * dim
        assert total_mod2 == betti + 2 * two_tors, x
        assert alt_mod2 == alt_betti, x


# --------------------------------------------------------------------------
# notation
# --------------------------------------------------------------------------

def test_notation_roundtrip():
    for x in ALL_SAMPLE_COMPLEXES:
        assert parse_complex(x.notation) == x
    w = WedgeComplex.of(sphere(3), moore(4, 8), a_tilde(3, 2), chang_r(4, 1))
    assert parse_wedge(w.notation) == w
    assert parse_wedge("*") == WedgeComplex.point()


def test_canonical_wedge_order_is_stable():
    a = WedgeComplex.of(sphere(5), moore(4, 2), sphere(3))
    b = WedgeComplex.of(sphere(3), sphere(5), moore(4, 2))
    assert a == b
    assert a.notation == "S^3 v P^4(2) v S^5"


# --------------------------------------------------------------------------
# the multiset representation against a per-copy reference
# --------------------------------------------------------------------------

_n = st.integers(2, 6)
_e = st.integers(1, 3)
catalog_complexes = st.one_of(
    st.builds(sphere, st.integers(1, 8)),
    st.builds(moore, _n, st.sampled_from([2, 4, 8, 3, 9])),
    st.builds(chang_eta, _n),
    st.builds(chang_r, _n, _e),
    st.builds(chang_t, _n, _e),
    st.builds(chang_rt, _n, _e, _e),
    st.builds(a_eta2, _n),
    st.builds(a_tilde, _n, _e),
    st.builds(a_2r_eta2, _n, _e),
)


def _per_copy_sq2(copies, k):
    """The block-diagonal Sq^2 matrix of a wedge, assembled copy by copy."""
    blocks = [sq2_action(x, k) for x in copies]
    rows = sum(len(b) for b in blocks)
    cols = sum(len(b[0]) if b else 0 for b in blocks)
    matrix = [[0] * cols for _ in range(rows)]
    ri = ci = 0
    for b in blocks:
        for i, row in enumerate(b):
            matrix[ri + i][ci:ci + len(row)] = row
        ri += len(b)
        ci += len(b[0]) if b else 0
    return matrix


@given(st.lists(st.tuples(catalog_complexes, st.integers(0, 4)), max_size=6),
       st.randoms(use_true_random=False))
def test_wedge_aggregates_match_per_copy_reference(counts, rnd):
    copies = [x for x, k in counts for _ in range(k)]
    rnd.shuffle(copies)
    w = WedgeComplex(counts=counts)
    assert w == WedgeComplex(tuple(copies))
    assert list(w.summands) == sorted(copies, key=lambda x: x.sort_key())
    assert len(w.summands) == len(copies)
    assert len(w.pairs) == len(set(copies))
    for x, _ in counts:
        assert w.count(x) == copies.count(x)
    for i in range(0, 12):
        expected = ZERO
        for x in copies:
            expected = expected.direct_sum(integral_homology(x, i))
        assert integral_homology(w, i) == expected
        assert mod2_cohomology_dim(w, i) == sum(mod2_cohomology_dim(x, i) for x in copies)
        assert sq2_is_nonzero(w, i) == any(any(row) for row in _per_copy_sq2(copies, i))
    assert bockstein_profile(w) == tuple(
        sorted((p for x in copies for p in bockstein_profile(x)), key=lambda p: (p[1], p[0]))
    )
    assert theta_flag(w) == any(theta_flag(x) for x in copies)
    notation = " v ".join(x.notation for x in w.summands) if copies else "*"
    assert w.notation == notation
    assert parse_wedge(notation) == w
    assert w.wedge(w) == WedgeComplex(tuple(copies + copies))
    assert w.suspend().desuspend() == w


# --------------------------------------------------------------------------
# every kind fact, against a recorded file
# --------------------------------------------------------------------------

DATA_DIR = Path(__file__).parent / "data"
_E = (1, 2, 3)


def _fact_window():
    """Every kind with n from its least value to 7, r, t in {1, 2, 3} and
    Moore orders {2, 4, 8, 3, 9, 6, 12}."""
    yield from (sphere(n) for n in range(1, 8))
    yield from (moore(n, k) for n in range(2, 8) for k in (2, 4, 8, 3, 9, 6, 12))
    for n in range(2, 8):
        yield chang_eta(n)
        yield from (chang_r(n, r) for r in _E)
        yield from (chang_t(n, t) for t in _E)
        yield from (chang_rt(n, r, t) for r in _E for t in _E)
        yield a_eta2(n)
        yield from (a_tilde(n, r) for r in _E)
        yield from (a_2r_eta2(n, r) for r in _E)


def _catalog_facts():
    for x in _fact_window():
        yield [
            x.notation,
            parse_complex(x.notation) == x,
            x.bottom_dim,
            x.top_dim,
            list(x.sort_key()),
            [str(integral_homology(x, i)) for i in range(12)],
            operation_profile(x).to_json_dict(),
        ]


def test_catalog_facts_match_recording():
    # Recorded while each kind's facts were still spelled out in per-kind
    # if chains, so the kind table is checked against an independent source,
    # also outside the window of the tables dump.
    expected = json.loads((DATA_DIR / "catalog_facts.json").read_text(encoding="utf-8"))
    actual = list(_catalog_facts())
    assert len(actual) == 187
    for got, want in zip(actual, expected, strict=True):
        assert got == want


# --------------------------------------------------------------------------
# every maps_group answer on a pool, against a recorded file
# --------------------------------------------------------------------------

def _maps_group_pool():
    """S^1..S^8, P^2..P^7 of orders {2, 4, 8, 3, 9, 6, 12}, and each
    Chang/A kind at n = 2..5 with r in {1, 2, 3} and t = 1."""
    yield from (sphere(n) for n in range(1, 9))
    yield from (moore(n, k) for n in range(2, 8) for k in (2, 4, 8, 3, 9, 6, 12))
    for n in range(2, 6):
        yield chang_eta(n)
        yield from (chang_r(n, r) for r in _E)
        yield chang_t(n, 1)
        yield from (chang_rt(n, r, 1) for r in _E)
        yield a_eta2(n)
        yield from (a_tilde(n, r) for r in _E)
        yield from (a_2r_eta2(n, r) for r in _E)


def _maps_group_rows():
    """[source, target, generators, orders, kinds] for each tabulated pair
    of the pool, in pool order; the other pairs raise TableMiss."""
    pool = list(_maps_group_pool())
    for source in pool:
        for target in pool:
            try:
                entry = maps_group(source, target)
            except TableMiss:
                continue
            yield [source.notation, target.notation,
                   list(entry.generators), list(entry.orders), list(entry.kinds)]


def test_maps_group_pool_matches_recording():
    # Recorded while maps_group was still an if chain over kinds, so the
    # group table is checked against an independent source, also on pairs
    # the tables dump does not list and on every pair that must miss.
    expected = json.loads((DATA_DIR / "maps_group_pool.json").read_text(encoding="utf-8"))
    assert len(list(_maps_group_pool())) == 110
    assert len(expected) == 632
    for got, want in zip(_maps_group_rows(), expected, strict=True):
        assert got == want


def test_cached_facts_equal_fresh():
    # Each memoized fact, read cold and then warm, equals its uncached
    # computation; an entry's group is the canonical group of its orders.
    for cached in (hopf_table, _mod2_basis, _sq2_nonzero):
        cached.cache_clear()
    pool = list(_maps_group_pool())
    complexes = list(dict.fromkeys([*pool, *_fact_window()]))
    for _ in ("cold", "warm"):
        for x in complexes:
            try:
                assert hopf_table(x) == hopf_table.__wrapped__(x)
            except TableMiss:
                with pytest.raises(TableMiss):
                    hopf_table.__wrapped__(x)
            for k in range(x.top_dim + 3):
                assert _mod2_basis(x, k) == _mod2_basis.__wrapped__(x, k)
                assert _sq2_nonzero(x, k) == _sq2_nonzero.__wrapped__(x, k)
    for source in pool:
        for target in pool:
            try:
                entry = maps_group.__wrapped__(source, target)  # a fresh entry
            except TableMiss:
                continue
            canonical = FgAbelianGroup.of_orders(*entry.orders, free_ring=RING_Z2LOCAL)
            assert entry.group == canonical  # cold
            assert entry.group == canonical  # warm
            assert maps_group(source, target).group == canonical


# --------------------------------------------------------------------------
# wedge shifts, the one-walk homology and long notation, against references
# --------------------------------------------------------------------------

recorded_complexes = st.sampled_from([
    row[0] for row in json.loads((DATA_DIR / "catalog_facts.json").read_text(encoding="utf-8"))
]).map(parse_complex)


def _homology_walk(w, i):
    """H_i of a wedge by one walk over its pairs per degree."""
    rank = 0
    counts = []
    for summand, k in w.pairs:
        for degree, group in _homology_pairs(summand):
            if degree == i:
                rank += k * group.free_rank
                counts += [(f, k * m) for f, m in group.pairs]
    return FgAbelianGroup(rank, counts=counts)


@given(st.lists(st.tuples(recorded_complexes, st.integers(1, 50)), max_size=8))
def test_wedge_shifts_homology_and_notation_match_references(counts):
    w = WedgeComplex(counts=counts)
    up = w.suspend()
    assert up.pairs == WedgeComplex(counts=[(x.suspend(), k) for x, k in w.pairs]).pairs
    assert up.desuspend().pairs == w.pairs
    try:
        down = WedgeComplex(counts=[(x.desuspend(), k) for x, k in w.pairs])
    except ValueError:
        with pytest.raises(ValueError):
            w.desuspend()
    else:
        assert w.desuspend().pairs == down.pairs
    by_degree = homology_by_degree(w)
    for i in range(11):
        assert by_degree[i] == _homology_walk(w, i)
        assert integral_homology(w, i) == by_degree[i]
    assert w.notation == (" v ".join(map(str, w.summands)) if w.pairs else "*")
