import pytest
from hypothesis import given, strategies as st

from suspcalc.abelian import FgAbelianGroup, NotTorsion
from suspcalc.catalog import (
    TableMiss,
    WedgeComplex,
    a_2r_eta2,
    a_eta2,
    a_tilde,
    bockstein_profile,
    chang_eta,
    chang_r,
    chang_rt,
    chang_t,
    integral_homology,
    maps_group,
    mod2_cohomology_dim,
    moore,
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


def test_desuspension_floor():
    with pytest.raises(ValueError):
        a_tilde(2, 1).desuspend()
    with pytest.raises(ValueError):
        moore(2, 2).desuspend()


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
