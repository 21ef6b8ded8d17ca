import io
import json
import random
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from suspcalc import cli, normalizer
from suspcalc.catalog import (
    TableMiss,
    WedgeComplex,
    a_2r_eta2,
    a_eta2,
    a_tilde,
    chang_eta,
    chang_r,
    maps_group,
    moore,
    sphere,
)
from suspcalc.normalizer import (
    ActBySelfEquiv,
    AddRow,
    GeneratorSymbol,
    IllegalOp,
    MapClass,
    MapVector,
    NotComposable,
    NotNormalForm,
    SwapRows,
    TooLarge,
    UnsupportedVector,
    apply_transfer,
    cofiber,
    compose_relation,
    normalize,
    oracle_normal_form,
    orbit,
    row_op,
    sym_chi,
    sym_eta,
    sym_eta2,
    sym_eta_bar,
    sym_eta_tilde,
    sym_incl,
    sym_pinch,
    transfer_alphabet,
)

S3, S4, S5 = sphere(3), sphere(4), sphere(5)
DATA_DIR = Path(__file__).parent / "data"


def vec(source, *components):
    return MapVector.of(source, list(components))


# --------------------------------------------------------------------------
# compose_relation
# --------------------------------------------------------------------------

def test_chi_on_inclusion():
    # chi^r_s i = i for r >= s and 2^(s-r) i for r <= s
    down = compose_relation(sym_chi(4, 2, 1), sym_incl(4, 4))
    assert down.coefficients() == {"i_3": 1}
    up = compose_relation(sym_chi(4, 1, 3), sym_incl(4, 2))
    assert up.coefficients() == {"i_3": 4}


def test_chi_on_eta_tilde():
    up = compose_relation(sym_chi(4, 1, 2), sym_eta_tilde(4, 1))
    assert up.coefficients() == {"eta~_2": 1}
    down = compose_relation(sym_chi(4, 3, 2), sym_eta_tilde(4, 3))
    assert down.coefficients() == {"eta~_2": 0} or down.is_zero  # 2 eta~_2 = 0
    down1 = compose_relation(sym_chi(4, 2, 1), sym_eta_tilde(4, 2))
    assert down1.coefficients() == {"eta~_1": 2}  # 2^(r-s) eta~_1


def test_pinch_after_chi():
    # q chi^r_s = q for r <= s and 2^(r-s) q for r >= s
    assert compose_relation(sym_pinch(4, 4), sym_chi(4, 1, 2)).coefficients() == {"q_4": 1}
    assert compose_relation(sym_pinch(4, 2), sym_chi(4, 3, 1)).coefficients() == {"q_4": 4}


def test_pinch_kills_inclusion():
    assert compose_relation(sym_pinch(4, 4), sym_incl(4, 4)).is_zero


def test_relation_anchors():
    # q eta~_r = eta, for every tabulated exponent
    for r in (1, 2, 3, 4):
        out = compose_relation(sym_pinch(4, 2**r), sym_eta_tilde(4, r))
        assert out.coefficients() == {"eta": 1}
    # eta-_r i = eta
    for r in (1, 2, 3, 4):
        out = compose_relation(sym_eta_bar(5, r), sym_incl(5, 2**r))
        assert out.coefficients() == {"eta": 1}


def test_nu_prime_factorization():
    # nu' = eta-_1 eta~_1, and 2 nu' = eta^3
    nu = compose_relation(sym_eta_bar(5, 1), sym_eta_tilde(5, 1))
    assert nu.coefficients() == {"nu'": 1}
    eta_cubed = compose_relation(sym_eta(3), sym_eta2(4))
    assert eta_cubed.coefficients() == {"nu'": 2}
    assert compose_relation(sym_eta2(3), sym_eta(5)).coefficients() == {"nu'": 2}


def _unit(i, n):
    return tuple(int(j == i) for j in range(n))


def _unit_compositions():
    """Every move of the transfer alphabet applied to every unit generator,
    for sources S^3..S^8 and row targets S^3..S^6, P^3..P^6(2^r) with
    r <= 3, and P^4(3): (source, target, generator, transfer kind, image
    target, image coefficients or None for TableMiss)."""
    rows = ([sphere(n) for n in range(3, 7)]
            + [moore(n, 2**r) for n in range(3, 7) for r in (1, 2, 3)] + [moore(4, 3)])
    for source in map(sphere, range(3, 9)):
        for target in rows:
            try:
                entry = maps_group(source, target)
            except TableMiss:
                continue
            for i, name in enumerate(entry.generators):
                unit = MapClass(entry, _unit(i, len(entry.orders)))
                for into in rows:
                    for transfer in transfer_alphabet(target, into):
                        try:
                            coeffs = list(apply_transfer(transfer, unit).coeffs)
                        except TableMiss:
                            coeffs = None
                        yield [source.notation, target.notation, name, transfer.kind,
                               into.notation, coeffs]


def test_unit_compositions_match_golden():
    # Recorded data, so that the composition law is checked apart from how it is encoded.
    expected = json.loads((DATA_DIR / "compositions.json").read_text(encoding="utf-8"))
    actual = list(_unit_compositions())
    assert len(actual) == 677
    assert sum(row[-1] is None for row in actual) == 98
    for got, want in zip(actual, expected, strict=True):
        assert got == want


def test_not_composable():
    with pytest.raises(NotComposable):
        compose_relation(sym_pinch(4, 2), sym_incl(5, 2))
    # P^4(3) is a point 2-locally: i eta and i eta^2 have no generator there.
    for right in (sym_eta(3), sym_eta2(3)):
        with pytest.raises(TableMiss):
            compose_relation(sym_incl(4, 3), right)


def test_order_annihilation():
    # 2^(r+1) (i_2 eta) = 0 in the degree-3 group of P^3(2^r)
    for r in (1, 2, 3):
        unit = MapClass.of(S3, moore(3, 2**r), {"i_2 eta": 1})
        assert unit.scale(2 ** (r + 1)).is_zero
        assert not unit.scale(2**r).is_zero


# --------------------------------------------------------------------------
# row_op
# --------------------------------------------------------------------------

def test_row_op_subtract_eta_rows():
    v = vec(S4, (S3, {"eta": 1}), (S3, {"eta": 1}))
    g = GeneratorSymbol("deg", S3, S3, -1)
    out = row_op(v, AddRow(1, 0, g))
    assert out.key() == ((1,), (0,))


def test_row_op_chi_move():
    # (i_3 eta, i_3 eta) in P^4(2^r) v P^4(2^s): the larger exponent kills
    # the smaller via -chi^s_r applied to its row.
    v = vec(S4, (moore(4, 2), {"i_3 eta": 1}), (moore(4, 4), {"i_3 eta": 1}))
    out = row_op(v, AddRow(0, 1, sym_chi(4, 2, 1)))
    assert out.key() == ((0,), (1,))


def test_row_op_swap():
    v = vec(S4, (S3, {}), (S3, {"eta": 1}))
    out = row_op(v, SwapRows(0, 1))
    assert out.key() == ((1,), (0,))


def test_row_op_swap_distinct_targets_illegal():
    v = vec(S4, (S3, {}), (moore(4, 2), {}))
    with pytest.raises(IllegalOp):
        row_op(v, SwapRows(0, 1))


def test_row_op_alphabet_enforced():
    v = vec(S4, (S3, {"eta": 1}), (moore(4, 2), {}))
    bogus = GeneratorSymbol("eta", S3, moore(4, 2))
    with pytest.raises(IllegalOp):
        row_op(v, AddRow(1, 0, bogus))


def test_self_equivalence_negates():
    v = vec(S5, (moore(4, 2), {"eta~_1": 1}),)
    out = row_op(v, ActBySelfEquiv(0, "neg"))
    assert out.key() == ((3,),)


def test_row_ops_preserve_cofiber():
    rng = random.Random(3)
    v = vec(
        S5,
        (S4, {"eta": 1}),
        (moore(4, 4), {"eta~_2": 1, "i_3 eta^2": 1}),
        (moore(4, 2), {"eta~_1": 2}),
    )
    base = cofiber(normalize(v))
    current = v
    moves_applied = 0
    for _ in range(60):
        ops = []
        n = len(current.targets)
        for dst in range(n):
            for src in range(n):
                if dst == src:
                    continue
                for g in transfer_alphabet(current.targets[src], current.targets[dst]):
                    ops.append(AddRow(dst, src, g))
        op = rng.choice(ops)
        try:
            current = row_op(current, op)
        except IllegalOp:
            continue
        moves_applied += 1
        assert cofiber(normalize(current)) == base
    assert moves_applied > 40


# --------------------------------------------------------------------------
# normalize
# --------------------------------------------------------------------------

def test_normalize_eta_collapse():
    v = vec(S4, (S3, {"eta": 1}), (S3, {"eta": 1}), (S3, {"eta": 1}), (S3, {}))
    out = normalize(v)
    assert out.key() == ((1,), (0,), (0,), (0,))


def test_normalize_eta_tilde_minimal_exponent():
    v = vec(S5, (moore(4, 2), {"eta~_1": 1}), (moore(4, 4), {"eta~_2": 1}))
    out = normalize(v)
    assert out.key() == ((1,), (0, 0))
    # and in the other order the survivor follows the exponent, not the slot
    v2 = vec(S5, (moore(4, 4), {"eta~_2": 1}), (moore(4, 2), {"eta~_1": 3}))
    out2 = normalize(v2)
    assert out2.key() == ((0, 0), (1,))


def test_normalize_eta_beats_i_eta():
    v = vec(S5, (S4, {"eta": 1}), (moore(5, 4), {"i_4 eta": 1}))
    out = normalize(v)
    assert out.key() == ((1,), (0,))


def test_normalize_zero_vector():
    v = vec(S5, (S4, {}), (moore(4, 2), {}))
    assert normalize(v).is_zero


def test_normalize_i_eta_maximal_index():
    v = vec(S4, (moore(4, 2), {"i_3 eta": 1}), (moore(4, 4), {"i_3 eta": 1}))
    assert normalize(v).key() == ((0,), (1,))


def test_normalize_i_eta2_maximal_and_eta2_dominates():
    v = vec(S5, (moore(4, 2), {"eta~_1": 2}), (moore(4, 8), {"i_3 eta^2": 1}))
    out = normalize(v)
    assert out.key() == ((0,), (0, 1))
    v2 = vec(S5, (S3, {"eta^2": 1}), (moore(4, 8), {"i_3 eta^2": 1}))
    out2 = normalize(v2)
    assert out2.key() == ((1,), (0, 0))


def test_normalize_idempotent(rng):
    for _ in range(60):
        v = _random_vector(rng)
        once = normalize(v)
        assert normalize(once) == once


def _random_vector(rng):
    pool = [S3, S4, moore(4, 2), moore(4, 4), moore(4, 8)]
    src = rng.choice([S4, S5])
    targets = []
    for _ in range(rng.randint(1, 3)):
        t = rng.choice(pool)
        if src == S4 and t == S4:
            continue
        targets.append(t)
    if not targets:
        targets = [S3]
    components = []
    for t in targets:
        entry = maps_group(src, t)
        coeffs = {g: rng.randrange(o) for g, o in zip(entry.generators, entry.orders)}
        components.append((t, coeffs))
    return MapVector.of(src, components)


def test_normalize_rejects_theta_remainder():
    v = MapVector.of(S5, [(S4, {"eta": 1})], theta_remainder=True)
    with pytest.raises(UnsupportedVector):
        normalize(v)


def test_normalize_rejects_homologically_nontrivial():
    v = vec(S4, (moore(5, 4), {"i_4": 1}))
    with pytest.raises(UnsupportedVector):
        normalize(v)


def _criterion_4_pool():
    """The 1580 vectors of the acceptance suite's criterion 4, in its order."""
    pool = {
        S4: [S3, moore(4, 2), moore(4, 4), moore(4, 8)],
        S5: [S3, S4, moore(4, 2), moore(4, 4), moore(4, 8)],
    }
    for source, choices in pool.items():
        for size in (1, 2, 3):
            for targets in combinations_with_replacement(choices, size):
                entries = [maps_group(source, t) for t in targets]
                for combo in product(*(_coeff_products(e.orders) for e in entries)):
                    yield MapVector(source, targets, tuple(map(MapClass, entries, combo)))


def test_normal_forms_match_golden():
    # Recorded data: criterion 4 checks only orbit membership and the
    # cofiber, so a changed tie-break between survivors would pass it.
    expected = json.loads((DATA_DIR / "normal_forms.json").read_text(encoding="utf-8"))
    assert len(expected) == 1580
    for v, want in zip(_criterion_4_pool(), expected, strict=True):
        got = [v.source.notation, [t.notation for t in v.targets],
               [list(c) for c in v.key()], [list(c) for c in normalize(v).key()]]
        assert got == want


# --------------------------------------------------------------------------
# cofiber
# --------------------------------------------------------------------------

def test_cofiber_examples():
    assert cofiber(vec(S4, (S3, {"eta": 1}))) == WedgeComplex.of(chang_eta(3))
    for r in (1, 2, 3):
        v = vec(S5, (moore(4, 2**r), {f"eta~_{r}": 1}))
        assert cofiber(v) == WedgeComplex.of(a_tilde(3, r))
    v = vec(S5, (S4, {}), (moore(4, 2), {}))
    assert cofiber(v) == WedgeComplex.of(S4, moore(4, 2), sphere(6))


def test_cofiber_i_eta_and_i_eta2():
    assert cofiber(vec(S4, (moore(4, 8), {"i_3 eta": 1}))) == WedgeComplex.of(chang_r(3, 3))
    assert cofiber(vec(S5, (moore(4, 8), {"i_3 eta^2": 1}))) == WedgeComplex.of(a_2r_eta2(3, 3))
    # with r = 1 the class i eta^2 is 2 eta~_1
    assert cofiber(vec(S5, (moore(4, 2), {"eta~_1": 2}))) == WedgeComplex.of(a_2r_eta2(3, 1))


def test_cofiber_eta2():
    assert cofiber(vec(S5, (S3, {"eta^2": 1}))) == WedgeComplex.of(a_eta2(3))


def test_cofiber_requires_normal_form():
    v = vec(S4, (S3, {"eta": 1}), (S3, {"eta": 1}))
    with pytest.raises(NotNormalForm):
        cofiber(v)


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

def test_oracle_examples():
    v = vec(S4, (S3, {"eta": 1}), (S3, {"eta": 1}))
    least = oracle_normal_form(v)
    assert least.key() == ((0,), (1,))  # lexicographically least orbit element
    assert normalize(v).key() in orbit(v)

    v2 = vec(S4, (moore(4, 2), {"i_3 eta": 1}), (moore(4, 4), {"i_3 eta": 1}))
    least2 = oracle_normal_form(v2)
    assert least2.key() == ((0,), (1,))  # single entry at index 2

    v3 = vec(S4, (S3, {}), (S3, {}))
    assert oracle_normal_form(v3).is_zero


def test_oracle_matches_normalize_on_sample(rng):
    for _ in range(40):
        v = _random_vector(rng)
        reachable = orbit(v)
        nf = normalize(v)
        assert nf.key() in reachable
        assert cofiber(nf) == cofiber(normalize(oracle_normal_form(v)))


def test_oracle_bounds():
    with pytest.raises(TooLarge):
        oracle_normal_form(vec(S4, (S4, {"iota": 0})))  # infinite entry group
    big = vec(S4, *[(S3, {}) for _ in range(5)])
    with pytest.raises(TooLarge):
        oracle_normal_form(big)


def test_oracle_agrees_on_degree5_moore_targets():
    # the P^5 slots of the full pipeline, outside the exhaustive-sweep window
    targets = [S4, moore(5, 4), moore(4, 2)]
    spaces = []
    for t in targets:
        entry = maps_group(S5, t)
        spaces.append(
            [dict(zip(entry.generators, combo)) for combo in _coeff_products(entry.orders)]
        )
    from itertools import product as _product

    for combo in _product(*spaces):
        v = MapVector.of(S5, list(zip(targets, combo)))
        reachable = orbit(v)
        nf = normalize(v)
        assert nf.key() in reachable
        assert cofiber(nf) == cofiber(normalize(oracle_normal_form(v)))


def _coeff_products(orders):
    from itertools import product as _product

    return _product(*(range(o) for o in orders))


def test_oracle_seed_insensitive(monkeypatch):
    # The exploration order of the orbit does not change the oracle's answer.
    v = vec(S5, (S4, {"eta": 1}), (moore(4, 4), {"eta~_2": 1}), (moore(4, 2), {"eta~_1": 1}))
    in_order = oracle_normal_form(v)
    all_moves = normalizer._all_moves
    shuffled = []
    for seed in range(5):
        def shuffled_moves(targets, seed=seed):
            moves = all_moves(targets)
            random.Random(seed).shuffle(moves)
            shuffled.append(seed)
            return moves

        monkeypatch.setattr(normalizer, "_all_moves", shuffled_moves)
        normalizer._compiled.cache_clear()
        assert oracle_normal_form(v) == in_order
    normalizer._compiled.cache_clear()  # later orbits list members in the unshuffled order
    # Each answer came from the shuffled moves, not from moves compiled earlier.
    assert shuffled == list(range(5))


def _cold_orbit(v):
    normalizer._block.cache_clear()
    normalizer._compiled.cache_clear()
    return orbit(v)


def test_orbit_independent_of_block_cache():
    # The oracle caches each move's block by complexes and move only, and
    # the compiled tables by source and targets.  Blocks cached from the
    # reversed vector, at other rows, give the same orbit as cold caches;
    # the second vector has illegal columns (eta-_2 . eta~_2 is not
    # tabulated).
    for v in (
        vec(S5, (S4, {"eta": 1}), (moore(4, 4), {"eta~_2": 1}), (moore(4, 2), {"eta~_1": 1})),
        vec(sphere(6), (S3, {"nu'": 2}), (moore(5, 4), {"eta~_2": 1}), (S5, {"eta": 1})),
    ):
        _cold_orbit(MapVector(v.source, v.targets[::-1], v.entries[::-1]))
        misses = normalizer._block.cache_info().misses
        warm = orbit(v)
        assert normalizer._block.cache_info().misses == misses > 0
        assert _cold_orbit(v) == warm

    # Tables compiled for one vector serve every vector into the same
    # targets: each orbit from warm compiled tables is the cold one.  The
    # last ten vectors map S^6 into S^3 and P^5(2^r), r >= 2, where some
    # moves are illegal.
    rng = random.Random(3)
    illegal = 0
    for k in range(40):
        v = _random_pool_vector(rng, MOVE_POOL)
        if k >= 30:
            u = _random_pool_vector(rng, {sphere(6): [S3]}, 1)
            w = _random_pool_vector(rng, {sphere(6): [moore(5, 4), moore(5, 8)]}, 3)
            v = MapVector(u.source, u.targets + w.targets, u.entries + w.entries)
        orbit(MapVector.of(v.source, [(t, {}) for t in v.targets]))
        hits = normalizer._compiled.cache_info().hits
        warm = list(orbit(v))
        assert normalizer._compiled.cache_info().hits == hits + 1
        _, moves, _ = normalizer._compiled(v.source, v.targets)
        illegal += any(None in delta for *_, delta in moves)
        assert list(_cold_orbit(v)) == warm, v.key()
    assert illegal >= 10


def test_orbit_mapping_builds_members_on_lookup(monkeypatch):
    v = vec(S5, (S4, {"eta": 1}), (moore(4, 4), {"eta~_2": 1}), (moore(4, 2), {"eta~_1": 1}))
    for w in (v, v._replace(theta_remainder=True)):
        reachable = orbit(w)
        assert all(reachable[k].key() == k for k in reachable)
        first = next(iter(reachable))
        assert first == w.key() and reachable[first] == w
        assert reachable == {k: reachable[k] for k in reachable}
    zero = tuple((0,) * len(e.coeffs) for e in v.entries)  # no automorphism reaches it
    assert zero not in reachable
    with pytest.raises(KeyError):
        reachable[zero]

    built = []
    new = MapVector.__new__

    def counted(cls, *args):
        built.append(new(cls, *args))
        return built[-1]

    monkeypatch.setattr(MapVector, "__new__", counted)
    reachable = orbit(v)  # the block cache is warm from the orbits above
    assert len(reachable) > 1 and built == []
    least = reachable[min(reachable)]
    assert built == [least]


# The S^5 sweep window of the acceptance suite, at up to three targets.
S5_WINDOW = (S3, S4, moore(4, 2), moore(4, 4), moore(5, 2), moore(5, 4))


@st.composite
def s5_window_vectors(draw):
    components = []
    for t in draw(st.lists(st.sampled_from(S5_WINDOW), min_size=1, max_size=3)):
        entry = maps_group(S5, t)
        orders = zip(entry.generators, entry.orders)
        components.append((t, {g: draw(st.integers(-o, 2 * o)) for g, o in orders}))
    return MapVector.of(S5, components)


@given(s5_window_vectors(), st.data())
def test_normal_form_is_a_fixed_point_in_the_orbit(v, data):
    nf = normalize(v)
    assert normalize(nf) == nf
    reachable = orbit(v)
    assert nf.key() in reachable
    w = reachable[data.draw(st.sampled_from(list(reachable)))]
    assert orbit(w).keys() == reachable.keys()


# Criterion 4's sweep pool plus the P^5 target of the degree-5 test above,
# and maps from S^6, where eta-_r . eta~_r (r >= 2) makes some moves illegal.
MOVE_POOL = {
    S4: [S3, moore(4, 2), moore(4, 4), moore(4, 8)],
    S5: [S3, S4, moore(4, 2), moore(4, 4), moore(4, 8), moore(5, 4)],
    sphere(6): [S3, S5, moore(5, 2), moore(5, 4), moore(5, 8)],
}


def _random_pool_vector(rng, pool, most=4):
    source = rng.choice(list(pool))
    components = []
    for t in [rng.choice(pool[source]) for _ in range(rng.randint(1, most))]:
        entry = maps_group(source, t)
        components.append((t, {g: rng.randrange(o) for g, o in zip(entry.generators, entry.orders)}))
    return MapVector.of(source, components)


def test_compiled_moves_equal_row_op():
    # The oracle reads each move off row_op on every state of its block and
    # applies it to whole vectors by offset tables; on any vector it must
    # agree with row_op itself, legality included.
    rng = random.Random(7)
    checked = illegal = 0
    for _ in range(500):
        v = _random_pool_vector(rng, MOVE_POOL)
        moves = normalizer._all_moves(v.targets)
        places, tables = normalizer._move_tables(v.source, v.targets, moves)
        rows = [normalizer._elements(v.source, t) for t in v.targets]
        d = [r.index(e.coeffs) for r, e in zip(rows, v.entries)]
        state = sum(i * s for i, (s, _) in zip(d, places))
        for move, (hi, lo, radix, delta) in zip(moves, tables, strict=True):
            step = delta[d[hi] * radix + d[lo]]
            image = None if step is None else tuple(
                r[(state + step) // s % n] for r, (s, n) in zip(rows, places))
            try:
                expected = row_op(v, move).key()
            except IllegalOp:
                expected = None
                illegal += 1
            assert image == expected, (v.key(), move)
            checked += 1
    assert checked > 5000 and illegal > 20


def _row_op_closure(v):
    """The orbit of v by a worklist over vectors, straight from row_op."""
    keys, vectors = {v.key(): None}, [v]
    for w in vectors:
        for move in normalizer._all_moves(w.targets):
            try:
                image = row_op(w, move)
            except IllegalOp:
                continue
            if image.key() not in keys:
                keys[image.key()] = None
                vectors.append(image)
    return list(keys)


# Maps out of Moore spaces, where every row addition is illegal.
MOORE_POOL = {
    moore(5, 2): [S3, S4, S5],
    moore(5, 4): [S3, S4, S5],
    moore(6, 4): [S4, S5],
}


def test_orbit_equals_row_op_closure():
    # A cross-check of the closure that does not depend on how moves are
    # compiled: the same keys in the same order as the reference worklist.
    rng = random.Random(11)
    for pool, count, most in ((MOVE_POOL, 60, 4), (MOORE_POOL, 60, 3)):
        for _ in range(count):
            v = _random_pool_vector(rng, pool, most)
            assert list(orbit(v)) == _row_op_closure(v), v.key()


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def test_vector_json_roundtrip():
    v = vec(S5, (S4, {"eta": 1}), (moore(4, 4), {"eta~_2": 1, "i_3 eta^2": 1}))
    assert MapVector.from_json_dict(v.to_json_dict()) == v
    # Read back without a JSON parser in between, so no string of it may be
    # a catalog.Notation, which json_value rejects.
    for v in VALID_VECTORS:
        assert MapVector.from_json_dict(v.to_json_dict()) == v


# --------------------------------------------------------------------------
# the normalize command on mutated input
# --------------------------------------------------------------------------

# Valid vectors from the tests above; the last two are rejected by normalize.
VALID_VECTORS = [
    vec(S4, (S3, {"eta": 1}), (S3, {"eta": 1}), (S3, {"eta": 1}), (S3, {})),
    vec(S5, (moore(4, 2), {"eta~_1": 1}), (moore(4, 4), {"eta~_2": 1})),
    vec(S5, (S4, {"eta": 1}), (moore(5, 4), {"i_4 eta": 1})),
    vec(S4, (moore(4, 2), {"i_3 eta": 1}), (moore(4, 4), {"i_3 eta": 1})),
    vec(S5, (S3, {"eta^2": 1}), (moore(4, 8), {"i_3 eta^2": 1})),
    vec(S5, (S4, {"eta": 1}), (moore(4, 4), {"eta~_2": 1, "i_3 eta^2": 1}),
        (moore(4, 2), {"eta~_1": 2})),
    vec(S4, (moore(5, 4), {"i_4": 1})),
    MapVector.of(S5, [(S4, {"eta": 1})], theta_remainder=True),
]

ODD_VALUES = [None, True, 0, -1, 1.5, "1", "", [], {}, [1], {"eta": 1}]
ODD_NOTATIONS = [
    "S^0", "S^1", "S^2", "S^-1", "S^100", "P^1(2)", "P^2(2)", "P^3(2)", "P^4(1)", "P^4(0)",
    "P^4(3)", "P^4(6)", "P^4(9)", f"P^4({2**63})", f"P^4({2**64})", "P^100(2)", "C^5_eta",
    "C^4_eta", "C^5_2", "C^5_0", "C^{5,2}", "C^{5,3}_2", "A^6(eta^2)", "A^6(eta~_2)",
    "A^6(2^1 eta^2)", "A^4(eta~_1)", "S^3 v S^4", "s^3", "garbage",
]


def _nodes(data):
    """(container, key) for every field of a vector's JSON form."""
    out = [(data, key) for key in data]
    entries = data.get("entries")
    for item in entries if isinstance(entries, list) else []:
        if isinstance(item, dict):
            out += [(item, key) for key in item]
            coefficients = item.get("coefficients")
            if isinstance(coefficients, dict):
                out += [(coefficients, key) for key in coefficients]
    return out


def _mutant(rng: random.Random) -> str:
    data = json.loads(json.dumps(rng.choice(VALID_VECTORS).to_json_dict()))
    for _ in range(rng.randint(1, 3)):
        container, key = rng.choice(_nodes(data))
        how = rng.randrange(5)
        if how == 0:
            container[key] = rng.choice(ODD_VALUES)
        elif how == 1:
            del container[key]
        elif how == 2:
            container[rng.choice(["extra", "eta", "i_3", key + "_"])] = rng.choice([1, "x", None])
        elif how == 3:
            container[key] = rng.choice([-1, 1]) * 10 ** rng.choice([19, 20, 64, 400, 4299])
        else:
            container[key] = rng.choice(ODD_NOTATIONS)
        if not _nodes(data):
            break
    text = json.dumps(data)
    if rng.random() < 0.2:
        text = text[: rng.randrange(len(text))]
    return text


def test_normalize_cli_survives_mutated_vectors(monkeypatch, capsys):
    # Every input ends in a report (exit 0) or one error line (exit 2).
    rng = random.Random(8)
    for _ in range(300):
        text = _mutant(rng)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = cli.main(["normalize", "-"])
        out, err = capsys.readouterr()
        if code == cli.EXIT_OK:
            assert out and not err, text
        else:
            assert code == cli.EXIT_BAD_INPUT, text
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, text
