import copy
import json
import pickle
import re
from json.encoder import encode_basestring_ascii
from itertools import product
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from conftest import cyclic
from suspcalc.abelian import RING_Z2LOCAL, FgAbelianGroup, isprime, merge_counts
from suspcalc.cli import build_tables
from suspcalc.ehp import hopf_table
from suspcalc.normalizer import _move_kinds
from suspcalc import catalog
from suspcalc.catalog import (
    ETA,
    ETA2,
    ETA2_PINCH,
    ETA_BAR,
    ETA_PINCH,
    IOTA,
    NU_PRIME,
    OTHER,
    PINCH,
    SPHERE,
    ElementaryComplex,
    Notation,
    TableMiss,
    WedgeComplex,
    _homology_pairs,
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
    moore,
    moore_pairs,
    of_kind,
    operation_profile,
    parse_complex,
    peterson_of_group,
    pontryagin_square_Ct,
    sphere,
    sq2_is_nonzero,
    theta_flag,
)

Z = FgAbelianGroup(1)
ZERO = FgAbelianGroup()


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
    w = WedgeComplex((sphere(3), moore(4, 2), moore(4, 8)))
    assert integral_homology(w, 3) == Z.direct_sum(cyclic(2)).direct_sum(cyclic(8))


# --------------------------------------------------------------------------
# Sq^2, Theta, Bocksteins
# --------------------------------------------------------------------------

def test_sq2_chang_iso():
    assert sq2_is_nonzero(chang_eta(4), 4)


def test_sq2_a_tilde_iso():
    assert sq2_is_nonzero(a_tilde(3, 2), 4)


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
                assert sq2_is_nonzero(x, n + 1), x
            else:
                assert sq2_is_nonzero(x, n), x


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
    assert not theta_flag(WedgeComplex((sphere(3), moore(4, 2))))
    assert theta_flag(WedgeComplex((sphere(3), a_eta2(2))))


def test_bockstein_profile():
    assert bockstein_profile(moore(5, 2**3)) == ((3, 4),)
    assert bockstein_profile(sphere(6)) == ()
    assert bockstein_profile(WedgeComplex((moore(4, 2), moore(5, 8)))) == ((1, 3), (3, 4))
    assert bockstein_profile(moore(4, 9)) == ()


# --------------------------------------------------------------------------
# Pontryagin square on the C(t) model
# --------------------------------------------------------------------------

def test_pontryagin_examples():
    assert pontryagin_square_Ct(0, 1) == 0
    assert pontryagin_square_Ct(1, 1) == 1
    assert pontryagin_square_Ct(3, 2) == 3
    with pytest.raises(ValueError, match="coefficient exponent u must be >= 1"):
        pontryagin_square_Ct(1, 0)


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
    w = WedgeComplex((sphere(3), moore(4, 4)))
    assert w.suspend() == WedgeComplex((sphere(4), moore(5, 4)))
    assert chang_eta(3).suspend() == chang_eta(4)
    assert WedgeComplex().suspend() == WedgeComplex()


def test_suspend_preserves_kind_homology_and_profiles():
    for x in ALL_SAMPLE_COMPLEXES:
        s = x.suspend()
        assert s.kind == x.kind
        for i in range(0, 10):
            assert integral_homology(s, i + 1) == integral_homology(x, i)
        px, ps = operation_profile(x), operation_profile(s)
        assert ps.theta == px.theta
        assert ps.bocksteins == tuple((r, k + 1) for r, k in px.bocksteins)
        assert ps.sq2 == tuple(k + 1 for k in px.sq2)


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

def _dumped_complexes():
    """Every complex the tables dump names."""
    for rows in build_tables().values():
        for row in rows:
            for key in ("source", "target", "complex", "summand"):
                if key in row:
                    yield parse_complex(row[key])


def test_constructors_return_one_object_per_complex():
    assert sphere(3) is sphere(3)
    assert parse_complex("P^4(2)") is moore(4, 2)
    pool = list(dict.fromkeys([*ALL_SAMPLE_COMPLEXES, *_fact_window(), *_maps_group_pool(),
                               *_dumped_complexes()]))
    for x in pool:
        named = getattr(catalog, x.kind)  # sphere, moore, chang_r, ...
        params = [getattr(x, name) for name in ("order", "r", "t") if getattr(x, name)]
        assert named(x.n, *params) is x
        assert ElementaryComplex(x.kind, x.n, x.order, x.r, x.t) is x
        assert x.suspend().desuspend() is x
        assert parse_complex(x.notation) is x
        assert copy.deepcopy(x) is x and pickle.loads(pickle.dumps(x)) is x
        for r in (1, 2, 3):
            y = of_kind(x.kind, x.n, r)
            assert (y is x) == (y.notation == x.notation)
    notations = [x.notation for x in pool]
    assert len(set(notations)) == len(pool)  # one object per complex
    for x in pool:
        for y in pool:
            assert (x == y) == (x is y)


@pytest.mark.parametrize("build", [
    lambda: moore(4, 0),
    lambda: moore(4, 2**64),
    lambda: sphere(0),
    lambda: chang_r(3, 64),
    lambda: a_tilde(1, 1),
    lambda: sphere(1).desuspend(),
    lambda: parse_complex("P^4(18446744073709551616)"),
    lambda: moore(4, 6),
    lambda: moore(4, 1031 * 1033),
    lambda: parse_complex("P^4(15)"),
    lambda: sphere(3.0),
    lambda: sphere(True),
    lambda: sphere(3.5),
    lambda: moore(4, 2.0),
    lambda: chang_rt(3, True, 1),
    lambda: ElementaryComplex(SPHERE, 3.0),
    lambda: ElementaryComplex(type("Kind", (str,), {})(SPHERE), 3),
])
def test_interned_constructors_raise_on_every_call(build):
    # A raising call caches nothing, so the next call raises again; a float
    # or bool field, or a str subclass kind, raises even once the plain
    # complex is interned.
    sphere(3), moore(4, 2), chang_rt(3, 1, 1)  # interned first
    for _ in range(3):
        with pytest.raises(ValueError):
            build()


def test_parse_complex_cached_per_text():
    for text, built in [("S^3", sphere(3)), ("P^4(2)", moore(4, 2)), ("C^5_eta", chang_eta(3)),
                        ("A^6(eta~_2)", a_tilde(3, 2)), ("C^{5,1}_2", chang_rt(3, 2, 1))]:
        assert parse_complex(text) is built
        assert parse_complex(text) is built
        assert parse_complex(f"  {text}\n") is built


@pytest.mark.parametrize("text", ["S^\u0664", "S^\uff14", "P^\uff14(\uff12)"])
def test_parse_complex_reads_ascii_digits_alone(text):
    # int() reads any Unicode decimal digit; the notation takes 0-9 alone.
    assert parse_complex("S^4") is sphere(4)
    with pytest.raises(ValueError, match="cannot parse complex notation"):
        parse_complex(text)


@pytest.mark.parametrize("text", ["X^3", "S^", "P^4(18446744073709551616)", "S^0", "P^4(0)"])
def test_parse_complex_caches_no_invalid_notation(text):
    size = parse_complex.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError):
            parse_complex(text)
    assert parse_complex.cache_info().currsize == size


def test_parse_complex_cache_agrees_with_the_parser():
    dump = json.loads((DATA_DIR / "tables_transcription.json").read_text(encoding="utf-8"))
    texts = {row["source"] for row in dump["maps_groups"]}
    texts |= {row["target"] for row in dump["maps_groups"]}
    texts |= {row["complex"] for row in dump["operation_profiles"]}
    texts |= {row["summand"] for row in dump["hopf_table"]}
    for text in sorted(texts):
        assert parse_complex.__wrapped__(text) is parse_complex(text), text
        assert parse_complex(text).notation == text


# --------------------------------------------------------------------------
# Peterson wedges
# --------------------------------------------------------------------------

def test_peterson_of_group():
    g = FgAbelianGroup.of_orders(2, 9)
    assert peterson_of_group(4, g) == WedgeComplex((moore(4, 2), moore(4, 9)))
    assert peterson_of_group(4, ZERO) == WedgeComplex()
    assert peterson_of_group(3, FgAbelianGroup.of_orders(2, 2)) == WedgeComplex((
        moore(3, 2), moore(3, 2)
    ))
    with pytest.raises(ValueError, match="Z has free rank 1"):
        peterson_of_group(4, Z)
    with pytest.raises(ValueError, match="Z has free rank 1"):
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

    assert maps_group(chang_eta(4), sphere(5)).group == ZERO
    assert maps_group(a_tilde(3, 2), sphere(5)).group == ZERO
    assert maps_group(moore(5, 4), sphere(5)).group == cyclic(4)


def test_maps_group_odd_vanishes():
    # 2-locally P^n(k) is a point for odd k, and so is every map into or
    # out of it, the bottom cell's i_(n-1) included.
    for k in (3, 9, 5**3):
        assert maps_group(sphere(3), moore(4, k)).group == ZERO
        assert maps_group(sphere(4), moore(4, k)).group == ZERO
        assert maps_group(moore(5, k), sphere(3)).group == ZERO
        assert maps_group(moore(5, k), sphere(5)).group == ZERO
    assert maps_group(chang_r(3, 2), moore(5, 5**3)).group == ZERO
    assert maps_group(moore(4, 4), moore(5, 9)).group == ZERO


def test_maps_group_dimension_rule():
    assert maps_group(sphere(3), sphere(5)).group == ZERO
    assert maps_group(moore(4, 2), sphere(5)).group == ZERO


# g f for the generator g of each sphere row that the counts below meet and
# f = eta or eta^2, as a multiple of the generator of the row it lands on
# (Toda 1962): iota eta = eta, eta eta = eta^2, iota eta^2 = eta^2, and
# eta eta^2 = eta^3 = 2 nu' in pi_6(S^3) = Z/4.
_COMPOSED = {(IOTA, ETA): (ETA, 1), (ETA, ETA): (ETA2, 1),
             (IOTA, ETA2): (ETA2, 1), (ETA, ETA2): (NU_PRIME, 2)}


_STEM = {ETA: 1, ETA2: 2}


def _precomposition(f, k, N):
    """Orders of the cokernel and the kernel of precomposition with f,
    [S^k, S^N] -> [S^(k+d), S^N], for f: S^(k+d) -> S^k a degree map 2^r
    (the int 2^r, d = 0), ETA (d = 1) or ETA2 (d = 2).  The groups are the
    sphere rows, each cyclic; order 0 is Z_(2), and a zero group has order
    1.  On a sphere the degree map precomposes as multiplication by 2^r."""
    source = maps_group(sphere(k), sphere(N))
    target = maps_group(sphere(k + _STEM.get(f, 0)), sphere(N))
    b = target.orders[0] if target.orders else 1
    if not source.orders:
        return b, 1
    m = f
    if f in _STEM:
        kind, m = _COMPOSED[source.kinds[0], f]
        assert target.kinds == (kind,), (f, k, N)
    if b == 0:  # Z onto m Z
        return m, 1
    a, image = source.orders[0], b // gcd(b, m)
    return b // image, (0 if a == 0 else a // image)


def test_a_eta2_rows_match_the_cofibre_sequence_count():
    # X = A^(n+3)(eta^2) = S^n u_(eta^2) e^(n+3): its cofibre sequence gives
    #   [S^(n+1), S^N] -> [S^(n+3), S^N] -> [X, S^N] -> [S^n, S^N] -> [S^(n+2), S^N],
    # the outer maps precomposition with S(eta^2) and eta^2.  So [X, S^N]
    # is an extension of ker (eta^2)^* by coker (S eta^2)^*, which splits
    # wherever the kernel is free.  These rows are in no tables dump.
    printed = {(2, 3): "0", (3, 3): "Z_(2) + Z/2", (2, 5): "Z_(2)", (3, 5): "Z/2"}
    for (n, N), group in printed.items():
        coker, _ = _precomposition(ETA2, n + 1, N)
        _, ker = _precomposition(ETA2, n, N)
        assert coker == 1 or ker in (0, 1), (n, N)  # the extension is forced
        entry = maps_group(a_eta2(n), sphere(N))
        assert entry.group == FgAbelianGroup.of_orders(coker, ker, free_ring=RING_Z2LOCAL)
        assert str(entry.group) == group


def test_chang_eta_rows_match_the_cofibre_sequence_count():
    # X = C^(n+2)_eta = S^n u_eta e^(n+2): its cofibre sequence gives
    #   [S^(n+1), S^N] -> [S^(n+2), S^N] -> [X, S^N] -> [S^n, S^N] -> [S^(n+1), S^N],
    # the outer maps precomposition with S eta and eta.  So [X, S^N] is an
    # extension of ker eta^* by coker (S eta)^*, which splits wherever the
    # kernel is free.  N >= 3: [C^4_eta, S^2] = 0 is unstable (k -> k^2 eta_2
    # is no homomorphism), and only the recording pins it.
    printed = {}
    for n, N in product(range(2, 9), range(3, 9)):
        try:
            entry = maps_group(chang_eta(n), sphere(N))
        except TableMiss:
            continue
        coker, _ = _precomposition(ETA, n + 1, N)
        _, ker = _precomposition(ETA, n, N)
        assert coker == 1 or ker in (0, 1), (n, N)  # the extension is forced
        assert entry.group == FgAbelianGroup.of_orders(coker, ker, free_ring=RING_Z2LOCAL), (n, N)
        printed[n, N] = str(entry.group)
    assert len(printed) == 13
    # The three rows with n <= N <= n + 2, by hand: [C^5_eta, S^3] = ker eta^* = 2Z,
    # [C^5_eta, S^5] = Z from the top cell, and [C^6_eta, S^5] = 0 since iota eta = eta.
    assert {key: group for key, group in printed.items() if group != "0"} == {
        (3, 3): "Z_(2)", (3, 5): "Z_(2)"}
    assert printed[4, 5] == "0"


# g (i eta) for the generator g of each Moore row that the count below
# meets, as the kind of the sphere row it lands on, or None for zero
# (Toda 1962): q i = 0 kills q, eta q and eta^2 q, and eta-_r i = eta sends
# eta-_r to eta eta = eta^2, the generator of its row.
_AFTER_I_ETA = {PINCH: None, ETA_PINCH: None, ETA2_PINCH: None, ETA_BAR: ETA2}


def _i_eta_precomposition(m, r, N):
    """Orders of the cokernel and the kernel of precomposition with
    i eta: S^m -> P^m(2^r), [P^m(2^r), S^N] -> [S^m, S^N].  The groups are
    the Moore and sphere rows; order 0 is Z_(2), and a zero group has
    order 1.  The Moore rows are finite, and a nonzero image is a whole
    sphere row."""
    source = maps_group(moore(m, 2**r), sphere(N))
    target = maps_group(sphere(m), sphere(N))
    images = {_AFTER_I_ETA[kind] for kind in source.kinds} - {None}
    assert images <= set(target.kinds), (m, r, N)
    b = target.orders[0] if target.orders else 1
    image = b if images else 1
    return b // image, prod(source.orders) // image


def test_chang_r_rows_match_the_cofibre_sequence_count():
    # X = C^(n+2)_r = P^(n+1)(2^r) u_(i eta) e^(n+2): its cofibre sequence gives
    #   [P^(n+2)(2^r), S^N] -> [S^(n+2), S^N] -> [X, S^N]
    #     -> [P^(n+1)(2^r), S^N] -> [S^(n+1), S^N],
    # the outer maps precomposition with S(i eta) and i eta.  So [X, S^N]
    # is an extension of ker (i eta)^* by coker (S i eta)^*.  Where neither
    # is trivial the count fixes the order alone: [C^6_r, S^5] has order
    # 2^(r+1), an extension of Z/2^r (q_5) by Z/2 (eta), which the count
    # does not decide between Z/2^(r+1) and Z/2^r + Z/2.
    for r in range(1, 5):
        orders = {}  # None for an infinite group
        for n, N in product(range(2, 9), range(3, 9)):
            try:
                entry = maps_group(chang_r(n, r), sphere(N))
            except TableMiss:
                continue
            coker, _ = _i_eta_precomposition(n + 2, r, N)
            _, ker = _i_eta_precomposition(n + 1, r, N)
            if coker == 1 or ker == 1:  # the extension is forced
                counted = FgAbelianGroup.of_orders(coker, ker, free_ring=RING_Z2LOCAL)
                assert entry.group == counted, (n, r, N)
            else:
                assert entry.group.order() == coker * ker, (n, r, N)
            orders[n, N] = entry.group.order()
        assert len(orders) == 13
        assert {key: order for key, order in orders.items() if order != 1} == {
            (3, 3): 2, (3, 5): None, (4, 5): 2 ** (r + 1)}


def test_moore_rows_match_the_cofibre_sequence_count():
    # X = P^n(2^r) = S^(n-1) u_(2^r) e^n: its cofibre sequence gives
    #   [S^n, S^N] -> [S^n, S^N] -> [X, S^N] -> [S^(n-1), S^N] -> [S^(n-1), S^N],
    # the outer maps precomposition with the degree 2^r map, which on a
    # sphere is multiplication by 2^r.  So [X, S^N] is finite, of order
    # |pi_n(S^N) / 2^r| * |pi_(n-1)(S^N)[2^r]|.  The sphere groups are the
    # sphere rows, zero below the source dimension; order 0 is Z_(2).
    checked = 0
    for n, r, N in product(range(3, 11), range(1, 5), range(2, 9)):
        try:
            group = maps_group(moore(n, 2**r), sphere(N)).group
        except TableMiss:
            continue
        coker, _ = _precomposition(2**r, n, N)
        _, ker = _precomposition(2**r, n - 1, N)
        assert group.free_rank == 0 and group.order() == coker * ker, (n, r, N)
        checked += 1
    assert checked == 132


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
        mod2_dims = dict(operation_profile(x).mod2_dims)
        for i in range(0, x.top_dim + 2):
            h = integral_homology(x, i)
            betti += h.free_rank
            two_tors += len(h.two_primary_exponents())
            alt_betti += (-1) ** i * h.free_rank
            dim = mod2_dims.get(i, 0)
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
    w = WedgeComplex((sphere(3), moore(4, 8), a_tilde(3, 2), chang_r(4, 1)))
    assert WedgeComplex(parse_complex(p) for p in w.notation.split(" v ")) == w


def test_canonical_wedge_order_is_stable():
    a = WedgeComplex((sphere(5), moore(4, 2), sphere(3)))
    b = WedgeComplex((sphere(3), sphere(5), moore(4, 2)))
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


@given(st.lists(st.tuples(catalog_complexes, st.integers(0, 4)), max_size=6),
       st.randoms(use_true_random=False))
def test_wedge_aggregates_match_per_copy_reference(counts, rnd):
    copies = [x for x, k in counts for _ in range(k)]
    rnd.shuffle(copies)
    w = WedgeComplex(counts=counts)
    assert w == WedgeComplex(tuple(copies))
    assert list(w.summands) == sorted(copies, key=lambda x: x.sort_key)
    assert len(w.summands) == len(copies)
    assert len(w.pairs) == len(set(copies))
    for x, _ in counts:
        assert dict(w.pairs).get(x, 0) == copies.count(x)
    for i in range(0, 12):
        expected = ZERO
        for x in copies:
            expected = expected.direct_sum(integral_homology(x, i))
        assert integral_homology(w, i) == expected
        assert sq2_is_nonzero(w, i) == any(sq2_is_nonzero(x, i) for x in copies)
    assert bockstein_profile(w) == tuple(
        sorted((p for x in copies for p in bockstein_profile(x)), key=lambda p: (p[1], p[0]))
    )
    assert theta_flag(w) == any(theta_flag(x) for x in copies)
    notation = " v ".join(x.notation for x in w.summands) if copies else "*"
    assert w.notation == notation
    if copies:
        assert WedgeComplex(parse_complex(p) for p in notation.split(" v ")) == w
    assert w.wedge(w) == WedgeComplex(tuple(copies + copies))
    assert w.suspend().desuspend() == w


def test_wedge_multiplicities_are_ints_at_least_zero():
    # merge_counts checks them for wedges as for groups: a float one would
    # fail only when printed, and True would count as 1.
    for k in (-1, 1.0, True, "2", None, [1]):
        with pytest.raises(ValueError, match="multiplicity"):
            WedgeComplex(counts=[(sphere(3), k)])


@given(st.lists(st.tuples(catalog_complexes, st.integers(0, 4)), max_size=6))
def test_homology_and_bocksteins_match_a_merging_reference(counts):
    # Per copy and per degree, each summand's own homology groups added up
    # by merge_counts alone, with no direct_sum and no group constructor.
    copies = [x for x, k in counts for _ in range(k)]
    w = WedgeComplex(counts=counts)
    rows = [(degree, g) for x in copies for degree, g in _homology_pairs(x)]
    homology = homology_by_degree(w)
    for i in range(0, 12):
        group = homology[i]
        assert group.free_rank == sum(g.free_rank for degree, g in rows if degree == i)
        assert group.pairs == merge_counts((f, 1) for degree, g in rows if degree == i
                                           for f, m in g.pairs for _ in range(m))
    assert set(homology) == {degree for degree, g in rows if g.free_rank or g.pairs}
    expected = merge_counts(((degree, f.exponent), 1) for degree, g in rows
                            for f, m in g.pairs if f.prime == 2 for _ in range(m))
    assert bockstein_profile(w) == tuple((r, degree) for (degree, r), k in expected
                                         for _ in range(k))


# --------------------------------------------------------------------------
# every kind fact, against a recorded file
# --------------------------------------------------------------------------

DATA_DIR = Path(__file__).parent / "data"
_E = (1, 2, 3)


def _fact_window():
    """Every kind with n from its least value to 7, r, t in {1, 2, 3} and
    Moore orders {2, 4, 8, 3, 9}."""
    yield from (sphere(n) for n in range(1, 8))
    yield from (moore(n, k) for n in range(2, 8) for k in (2, 4, 8, 3, 9))
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
            list(x.sort_key),
            [str(integral_homology(x, i)) for i in range(12)],
            operation_profile(x).to_json_dict(),
        ]


_COMPOSITE_MOORE = re.compile(r"P\^\d+\((6|12)\)")


def _prime_power_rows(rows, width):
    """The recorded rows whose first ``width`` notations name no Moore
    space of composite order.  The recordings predate the prime-power rule
    for Moore orders and keep P^n(6) and P^n(12), which no longer parse."""
    kept = []
    for row in rows:
        composite = [x for x in row[:width] if _COMPOSITE_MOORE.fullmatch(x)]
        for x in composite:
            with pytest.raises(ValueError, match="needs a prime-power order"):
                parse_complex(x)
        if not composite:
            kept.append(row)
    return kept


def test_catalog_facts_match_recording():
    # Recorded while each kind's facts were still spelled out in per-kind
    # if chains, so the kind table is checked against an independent source,
    # also outside the window of the tables dump.
    recorded = json.loads((DATA_DIR / "catalog_facts.json").read_text(encoding="utf-8"))
    expected = _prime_power_rows(recorded, 1)
    actual = list(_catalog_facts())
    assert (len(recorded), len(actual)) == (187, 175)
    for got, want in zip(actual, expected, strict=True):
        assert got == want


def test_suspension_is_an_isomorphism_in_the_stable_range():
    # Freudenthal: [X, Y] -> [SX, SY] is an isomorphism when
    # dim X <= 2 conn(Y), that is top_dim(X) <= 2 bottom_dim(Y) - 2.
    # X and Y run over the recorded complexes and their first three
    # suspensions, wherever both groups are tabulated; a pair with an odd
    # Moore space is zero on both sides.
    window = {}
    for x in _fact_window():
        for _ in range(4):
            window[x] = None
            x = x.suspend()
    assert len(window) == 262
    pairs = nontrivial = 0
    for x, y in product(window, repeat=2):
        if x.top_dim > 2 * y.bottom_dim - 2:
            continue
        try:
            group, suspended = maps_group(x, y).group, maps_group(x.suspend(), y.suspend()).group
        except TableMiss:
            continue
        assert group == suspended, (x.notation, y.notation)
        pairs += 1
        nontrivial += group != ZERO
    assert (pairs, nontrivial) == (6633, 143)


def _stable_count(x, N):
    """(free rank, torsion order) of [X, S^N] 2-locally, read off the
    ``_KINDS`` row of x alone, for N >= 3 and top_dim(X) <= N + 1.  There
    the 2-stage Postnikov section of S^N gives the exact sequence
      H^(N-1)(X; Z) -> H^(N+1)(X; Z/2) -> [X, S^N] -> H^N(X; Z) -> 0,
    whose first map is Sq^2 rho, and the torsion of H^N(X; Z) is that of
    H_(N-1)(X).  rho: H^k(X; Z) -> H^k(X; Z/2) misses only the duals of the
    torsion of H_k(X), so Sq^2 rho is nonzero exactly where Sq^2 acts from
    degree N - 1 and H_(N-1)(X) has no 2-torsion."""
    row = catalog._KINDS[x.kind]
    two_part = {"order": x.order & -x.order, "r": 2**x.r, "t": 2**x.t}
    free, torsion = {}, {}  # degree -> rank, 2-primary cyclic orders
    for offset, order in row.homology:
        if order == "Z":
            free[x.n + offset] = free.get(x.n + offset, 0) + 1
        elif two_part[order] > 1:
            torsion.setdefault(x.n + offset, []).append(two_part[order])

    def mod2_dim(k):
        return free.get(k, 0) + len(torsion.get(k, ())) + len(torsion.get(k - 1, ()))

    sq2_rho = row.sq2 is not None and x.n + row.sq2 == N - 1 and N - 1 not in torsion
    return free.get(N, 0), prod(torsion.get(N - 1, ())) * 2 ** (mod2_dim(N + 1) - sq2_rho)


def test_maps_into_spheres_match_the_stable_count():
    # Every tabulated [X, S^N] in the stable range, X from the recorded
    # complexes, against the count from X's homology and Sq^2 alone.
    rows = nontrivial = 0
    for x, N in product(_fact_window(), range(3, 10)):
        if x.top_dim > N + 1:
            continue
        try:
            group = maps_group(x, sphere(N)).group
        except TableMiss:
            continue
        count = group.free_rank, prod(f.order**k for f, k in group.pairs)
        assert count == _stable_count(x, N), (x.notation, N)
        rows += 1
        nontrivial += count != (0, 1)
    assert (rows, nontrivial) == (558, 57)


def _odd_prime_power(h, e):
    """p^e for the least odd prime p >= h, or p when p^e is not below 2^64."""
    p = next(q for q in range(h | 1, 2**64, 2) if isprime(q))
    return p**e if p**e < 2**64 else p


@given(st.builds(_odd_prime_power, st.integers(1, 2**63), st.integers(1, 40)),
       st.integers(2, 7))
@example(3, 4)
@example(9, 5)
@example(3**40, 5)
@example(4294967291**2, 4)  # the largest prime below 2**32, squared
@example(2**64 - 59, 4)  # the largest prime below 2**64
def test_odd_moore_spaces_are_points_in_every_module(k, n):
    # 2-locally P^n(k) is a point for odd k, so each module that reads
    # maps into or out of it finds none: maps_group gives the zero entry
    # on either side of every kind, hopf_table zero groups by the odd rule,
    # and normalize no move.
    odd = moore(n, k)
    lookup = maps_group.__wrapped__  # past the cache, which would keep every drawn pair
    for x in _fact_window():
        for source, target in ((x, odd), (odd, x)):
            assert lookup(source, target) == (source, target, (), (), ()), (source, target)
            assert _move_kinds(source, target) == (), (source, target)
    for summand in (moore(4, k), moore(5, k)):
        assert hopf_table(summand)[1:] == (
            ZERO, ZERO, ZERO, None, "odd-primary summands vanish 2-locally")


# --------------------------------------------------------------------------
# every maps_group answer on a pool, against a recorded file
# --------------------------------------------------------------------------

def _maps_group_pool():
    """S^1..S^8, P^2..P^7 of orders {2, 4, 8, 3, 9}, and each Chang/A
    kind at n = 2..5 with r in {1, 2, 3} and t = 1."""
    yield from (sphere(n) for n in range(1, 9))
    yield from (moore(n, k) for n in range(2, 8) for k in (2, 4, 8, 3, 9))
    for n in range(2, 6):
        yield chang_eta(n)
        yield from (chang_r(n, r) for r in _E)
        yield chang_t(n, 1)
        yield from (chang_rt(n, r, 1) for r in _E)
        yield a_eta2(n)
        yield from (a_tilde(n, r) for r in _E)
        yield from (a_2r_eta2(n, r) for r in _E)


def _maps_group_rows(pool):
    """[source, target, generators, orders, kinds] for each tabulated pair
    of the pool without an odd Moore space, in pool order; the other pairs
    raise TableMiss."""
    for source, target in product(pool, repeat=2):
        if source.order % 2 or target.order % 2:
            continue
        try:
            entry = maps_group(source, target)
        except TableMiss:
            continue
        yield [source.notation, target.notation,
               list(entry.generators), list(entry.orders), list(entry.kinds)]


def test_maps_group_pool_matches_recording():
    # Recorded while maps_group was still an if chain over kinds, so the
    # group table is checked against an independent source, also on pairs
    # the tables dump does not list and on every pair that must miss.  The
    # recording predates the 2-local rule for odd Moore spaces (it keeps
    # i_(n-1) into P^n(3) and P^n(9)), so its rows with one are left out,
    # and every pool pair with one is checked against the rule instead; it
    # also predates the prime-power rule, so its rows with P^n(6) or
    # P^n(12) are left out too.
    recorded = json.loads((DATA_DIR / "maps_group_pool.json").read_text(encoding="utf-8"))
    expected = [row for row in _prime_power_rows(recorded, 2)
                if not any(parse_complex(x).order % 2 for x in row[:2])]
    assert (len(recorded), len(expected)) == (632, 402)
    pool = list(_maps_group_pool())
    assert len(pool) == 98
    for got, want in zip(_maps_group_rows(pool), expected, strict=True):
        assert got == want
    odd = [(x, y) for x, y in product(pool, repeat=2) if x.order % 2 or y.order % 2]
    assert len(odd) == 98**2 - 86**2
    for source, target in odd:
        assert maps_group(source, target) == (source, target, (), (), ())


def test_cached_facts_equal_fresh():
    # Each memoized fact, read cold and then warm, equals its uncached
    # computation; an entry's group is the canonical group of its orders.
    for cached in (hopf_table, _homology_pairs):
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
            assert _homology_pairs(x) == _homology_pairs.__wrapped__(x)
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
    if not _COMPOSITE_MOORE.fullmatch(row[0])
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


# --------------------------------------------------------------------------
# Notation: wedge text that the JSON writer copies between quotes unescaped
# --------------------------------------------------------------------------

def assert_needs_no_escaping(text):
    assert type(text) is Notation
    assert encode_basestring_ascii(text) == '"' + text + '"'


# Every kind at its least n and parameters, and at n = 10^6 with the
# largest parameters it takes: order 2^64 - 59 (the largest prime power
# below 2^64, a prime), r = t = 63.
EXTREME_COMPLEXES = [
    ElementaryComplex(kind, n, **{name: value[name] for name in row.params})
    for kind, row in catalog._KINDS.items()
    for n, value in ((row.least_n, catalog._LEAST),
                     (10**6, {"order": 2**64 - 59, "r": 63, "t": 63}))
]


def test_wedge_notation_needs_no_escaping_at_every_kind_and_extreme():
    assert_needs_no_escaping(WedgeComplex().notation)
    for x in EXTREME_COMPLEXES:
        # A complex's own notation is read back (MapVector.from_json_dict),
        # so it stays a plain str.
        assert type(x.notation) is str
        assert_needs_no_escaping(WedgeComplex([x]).notation)
        assert_needs_no_escaping(WedgeComplex(counts=[(x, 3)]).notation)
    assert_needs_no_escaping(WedgeComplex(EXTREME_COMPLEXES).notation)


@given(st.lists(st.tuples(recorded_complexes, st.integers(1, 10**4)), max_size=4))
def test_wedge_notation_needs_no_escaping(counts):
    assert_needs_no_escaping(WedgeComplex(counts=counts).notation)
