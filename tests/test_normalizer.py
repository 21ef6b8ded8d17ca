import io
import json
import random
import re
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from suspcalc import cli, normalizer
from suspcalc.catalog import (
    ETA,
    ETA2,
    ETA_BAR,
    ETA_TILDE,
    INCL,
    PINCH,
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
    CHI,
    DEG,
    ActBySelfEquiv,
    AddRow,
    GeneratorSymbol,
    IllegalOp,
    MapClass,
    MapVector,
    SwapRows,
    apply_transfer,
    cofiber,
    compose_relation,
    normalize,
    oracle_normal_form,
    orbit,
    row_op,
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
    down = compose_relation(GeneratorSymbol(CHI, moore(4, 4), moore(4, 2)),
                            GeneratorSymbol(INCL, S3, moore(4, 4)))
    assert down.coefficients() == {"i_3": 1}
    up = compose_relation(GeneratorSymbol(CHI, moore(4, 2), moore(4, 8)),
                          GeneratorSymbol(INCL, S3, moore(4, 2)))
    assert up.coefficients() == {"i_3": 4}


def test_chi_on_eta_tilde():
    up = compose_relation(GeneratorSymbol(CHI, moore(4, 2), moore(4, 4)),
                          GeneratorSymbol(ETA_TILDE, S5, moore(4, 2)))
    assert up.coefficients() == {"eta~_2": 1}
    down = compose_relation(GeneratorSymbol(CHI, moore(4, 8), moore(4, 4)),
                            GeneratorSymbol(ETA_TILDE, S5, moore(4, 8)))
    assert down.coefficients() == {"eta~_2": 0} or down.is_zero  # 2 eta~_2 = 0
    down1 = compose_relation(GeneratorSymbol(CHI, moore(4, 4), moore(4, 2)),
                             GeneratorSymbol(ETA_TILDE, S5, moore(4, 4)))
    assert down1.coefficients() == {"eta~_1": 2}  # 2^(r-s) eta~_1


def test_pinch_after_chi():
    # q chi^r_s = q for r <= s and 2^(r-s) q for r >= s
    up = compose_relation(GeneratorSymbol(PINCH, moore(4, 4), S4),
                          GeneratorSymbol(CHI, moore(4, 2), moore(4, 4)))
    assert up.coefficients() == {"q_4": 1}
    down = compose_relation(GeneratorSymbol(PINCH, moore(4, 2), S4),
                            GeneratorSymbol(CHI, moore(4, 8), moore(4, 2)))
    assert down.coefficients() == {"q_4": 4}


def test_pinch_kills_inclusion():
    assert compose_relation(GeneratorSymbol(PINCH, moore(4, 4), S4),
                            GeneratorSymbol(INCL, S3, moore(4, 4))).is_zero


def test_relation_anchors():
    # q eta~_r = eta, for every tabulated exponent
    for r in (1, 2, 3, 4):
        out = compose_relation(GeneratorSymbol(PINCH, moore(4, 2**r), S4),
                               GeneratorSymbol(ETA_TILDE, S5, moore(4, 2**r)))
        assert out.coefficients() == {"eta": 1}
    # eta-_r i = eta
    for r in (1, 2, 3, 4):
        out = compose_relation(GeneratorSymbol(ETA_BAR, moore(5, 2**r), S3),
                               GeneratorSymbol(INCL, S4, moore(5, 2**r)))
        assert out.coefficients() == {"eta": 1}


def test_nu_prime_factorization():
    # nu' = eta-_1 eta~_1, and 2 nu' = eta^3
    nu = compose_relation(GeneratorSymbol(ETA_BAR, moore(5, 2), S3),
                          GeneratorSymbol(ETA_TILDE, sphere(6), moore(5, 2)))
    assert nu.coefficients() == {"nu'": 1}
    eta_cubed = compose_relation(GeneratorSymbol(ETA, S4, S3),
                                 GeneratorSymbol(ETA2, sphere(6), S4))
    assert eta_cubed.coefficients() == {"nu'": 2}
    eta_cubed = compose_relation(GeneratorSymbol(ETA2, S5, S3),
                                 GeneratorSymbol(ETA, sphere(6), S5))
    assert eta_cubed.coefficients() == {"nu'": 2}


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
                    for kind in normalizer._move_kinds(target, into):
                        transfer = GeneratorSymbol(kind, target, into)
                        try:
                            coeffs = list(apply_transfer(transfer, unit).coeffs)
                        except TableMiss:
                            coeffs = None
                        yield [source.notation, target.notation, name, kind,
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
    with pytest.raises(ValueError, match=re.escape(
            "pinch: P^4(2) -> S^4 cannot follow incl: S^4 -> P^5(2)")):
        compose_relation(GeneratorSymbol(PINCH, moore(4, 2), S4),
                         GeneratorSymbol(INCL, S4, moore(5, 2)))
    with pytest.raises(ValueError, match="no relation stored for eta . pinch"):
        compose_relation(GeneratorSymbol(ETA, S4, S3), GeneratorSymbol(PINCH, moore(4, 2), S4))
    # P^4(3) is a point 2-locally: i eta and i eta^2 have no generator there.
    for right in (GeneratorSymbol(ETA, S4, S3), GeneratorSymbol(ETA2, S5, S3)):
        with pytest.raises(TableMiss):
            compose_relation(GeneratorSymbol(INCL, S3, moore(4, 3)), right)
    with pytest.raises(TableMiss, match="chi . eta is not tabulated"):  # chi is Moore to Moore
        compose_relation(GeneratorSymbol(CHI, S3, moore(3, 2)), GeneratorSymbol(ETA, S4, S3))
    # chi^r_s is a map between mod-2^r Moore spaces, and 12 is no power of 2.
    with pytest.raises(ValueError, match=re.escape("P^4(12) is not a mod-2^r Moore space")):
        compose_relation(GeneratorSymbol(PINCH, moore(4, 4), S4),
                         GeneratorSymbol(CHI, moore(4, 12), moore(4, 4)))
    with pytest.raises(ValueError, match=re.escape(
            "pinch: P^4(2) -> S^4 cannot follow a class into S^3")):
        apply_transfer(GeneratorSymbol(PINCH, moore(4, 2), S4), MapClass.of(S4, S3, {"eta": 1}))


def test_order_annihilation():
    # 2^(r+1) (i_2 eta) = 0 in the degree-3 group of P^3(2^r)
    for r in (1, 2, 3):
        unit = MapClass.of(S3, moore(3, 2**r), {"i_2 eta": 1})
        assert unit.scale(2 ** (r + 1)).is_zero
        assert not unit.scale(2**r).is_zero
        assert str(unit.scale(2 ** (r + 1))) == "0" and str(unit.scale(3)) == "3(i_2 eta)"
    with pytest.raises(ValueError, match="cannot add classes in different groups"):
        unit.add(MapClass.of(S3, moore(3, 4), {"i_2 eta": 1}))


def test_kind_names_unit_generators_only():
    # [S^3, P^3(4)] = Z/8 on i_2 eta: neg takes 1 to 7, and no move takes
    # 1 to 3 or 5 (unit_plus_i_eta_q fixes i_2 eta, since q i = 0).
    entry = maps_group(S3, moore(3, 4))
    assert [MapClass(entry, (z,)).kind() for z in range(8)] == (
        ["zero", "incl_eta"] + ["other"] * 5 + ["incl_eta"])
    # On an eta~ entry, odd eta~ coefficients are eta~ and other classes
    # i eta^2: one Z/4 at r = 1, two Z/2's at r = 2.
    assert [MapClass.of(S5, moore(4, 2), {"eta~_1": z}).kind() for z in range(4)] == [
        "zero", "eta_tilde", "incl_eta2", "eta_tilde"]
    assert [MapClass(maps_group(S5, moore(4, 4)), c).kind()
            for c in ((0, 0), (1, 0), (0, 1), (1, 1))] == [
        "zero", "eta_tilde", "incl_eta2", "eta_tilde"]
    # No survivor: the identity and the bottom-cell inclusion.
    assert MapClass.of(S4, S4, {"iota": 1}).kind() == "other"
    assert MapClass.of(S3, moore(4, 4), {"i_3": 1}).kind() == "other"


# --------------------------------------------------------------------------
# row_op
# --------------------------------------------------------------------------

def test_row_op_subtract_eta_rows():
    # eta has order 2, so adding row 0 to row 1 subtracts it
    v = vec(S4, (S3, {"eta": 1}), (S3, {"eta": 1}))
    out = row_op(v, AddRow(1, 0, DEG))
    assert out.key() == ((1,), (0,))


def test_row_op_chi_move():
    # (i_3 eta, i_3 eta) in P^4(2^r) v P^4(2^s): the larger exponent kills
    # the smaller via -chi^s_r applied to its row.
    v = vec(S4, (moore(4, 2), {"i_3 eta": 1}), (moore(4, 4), {"i_3 eta": 1}))
    out = row_op(v, AddRow(0, 1, CHI))
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
    with pytest.raises(IllegalOp):  # the move from S^3 into P^4(2) is i, not eta
        row_op(v, AddRow(1, 0, ETA))
    # eta from an S^3 row onto an S^2 row is no move: a sphere target below its source needs n >= 3
    assert normalizer._move_kinds(S3, sphere(2)) == ()
    for op, message in [
            (SwapRows(0, 2), "row index out of range"),
            (AddRow(1, 1, DEG), "use ActBySelfEquiv for diagonal moves"),
            (AddRow(2, 0, INCL), "row index out of range"),
            (ActBySelfEquiv(-1, "neg"), "row index out of range"),
            (ActBySelfEquiv(0, "unit_plus_i_eta_q"), "is not a self-equivalence of S^3"),
            ((0, 1), "unknown operation")]:
        with pytest.raises(IllegalOp, match=re.escape(message)):
            row_op(v, op)


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
        ops = [m for m in normalizer._all_moves(current.targets) if isinstance(m, AddRow)]
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
    assert all(e.is_zero for e in normalize(v).entries)


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
    with pytest.raises(ValueError, match="vector carries an unresolved Whitehead-product remainder"):
        normalize(v)


def test_normalize_rejects_homologically_nontrivial():
    v = vec(S4, (moore(5, 4), {"i_4": 1}))
    with pytest.raises(ValueError, match=re.escape(
            "entry i_4 in [S^4, P^5(4)] is outside the normal-form range")):
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
    assert cofiber(vec(S4, (S3, {"eta": 1}))) == WedgeComplex([chang_eta(3)])
    for r in (1, 2, 3):
        v = vec(S5, (moore(4, 2**r), {f"eta~_{r}": 1}))
        assert cofiber(v) == WedgeComplex([a_tilde(3, r)])
    v = vec(S5, (S4, {}), (moore(4, 2), {}))
    assert cofiber(v) == WedgeComplex((S4, moore(4, 2), sphere(6)))


def test_cofiber_i_eta_and_i_eta2():
    assert cofiber(vec(S4, (moore(4, 8), {"i_3 eta": 1}))) == WedgeComplex([chang_r(3, 3)])
    assert cofiber(vec(S5, (moore(4, 8), {"i_3 eta^2": 1}))) == WedgeComplex([a_2r_eta2(3, 3)])
    # with r = 1 the class i eta^2 is 2 eta~_1
    assert cofiber(vec(S5, (moore(4, 2), {"eta~_1": 2}))) == WedgeComplex([a_2r_eta2(3, 1)])


def test_cofiber_eta2():
    assert cofiber(vec(S5, (S3, {"eta^2": 1}))) == WedgeComplex([a_eta2(3)])


def test_cofiber_requires_normal_form():
    v = vec(S4, (S3, {"eta": 1}), (S3, {"eta": 1}))
    with pytest.raises(ValueError, match="cofiber needs at most one nonzero entry"):
        cofiber(v)
    with pytest.raises(ValueError, match=re.escape("entry iota in [S^3, S^3] has no catalog cofiber")):
        cofiber(vec(S3, (S3, {"iota": 1})))


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

def test_oracle_examples():
    v = vec(S4, (S3, {"eta": 1}), (S3, {"eta": 1}))
    least = oracle_normal_form(v)
    assert least.key() == ((0,), (1,))  # lexicographically least orbit element
    assert normalize(v).key() in orbit(v)
    assert "x" not in orbit(v)  # not comparable with a key, so not one

    v2 = vec(S4, (moore(4, 2), {"i_3 eta": 1}), (moore(4, 4), {"i_3 eta": 1}))
    least2 = oracle_normal_form(v2)
    assert least2.key() == ((0,), (1,))  # single entry at index 2

    v3 = vec(S4, (S3, {}), (S3, {}))
    assert all(e.is_zero for e in oracle_normal_form(v3).entries)


def test_oracle_matches_normalize_on_sample(rng):
    for _ in range(40):
        v = _random_vector(rng)
        reachable = orbit(v)
        nf = normalize(v)
        assert nf.key() in reachable
        assert cofiber(nf) == cofiber(normalize(oracle_normal_form(v)))


def test_oracle_bounds():
    with pytest.raises(ValueError, match=re.escape("entry group [S^4, S^4] is infinite")):
        oracle_normal_form(vec(S4, (S4, {"iota": 0})))
    big = vec(S4, *[(S3, {}) for _ in range(5)])
    with pytest.raises(ValueError, match="oracle supports at most 4 targets"):
        oracle_normal_form(big)
    # [S^3, P^3(16)] = Z/32, so three such rows hold 32^3 = 2^15 states.
    with pytest.raises(ValueError, match=re.escape("total entry-group order 32768 exceeds 2^12")):
        oracle_normal_form(vec(S3, *[(moore(3, 16), {}) for _ in range(3)]))


def _blocks(sources, targets):
    """(source, targets, move) for every block the oracle compiles from
    these complexes: each self-equivalence on one target, and each row
    addition and swap on an ordered pair of targets whose groups are
    finite, with a total order within the oracle's 2^12."""
    for source in sources:
        orders = {}
        for t in targets:
            try:
                orders[t] = maps_group(source, t).group.order()
            except TableMiss:
                continue
        orders = {t: order for t, order in orders.items() if order is not None}
        for t in orders:
            yield from ((source, (t,), ActBySelfEquiv(0, op)) for op in normalizer.self_equivalences(t))
        for a, b in product(orders, repeat=2):
            if orders[a] * orders[b] <= 2**12:
                yield from ((source, (a, b), AddRow(1, 0, kind)) for kind in normalizer._move_kinds(a, b))
                if a == b:
                    yield source, (a, b), SwapRows(0, 1)


def test_every_move_permutes_its_legal_states():
    # Why the oracle may split states into orbits by walking moves forward:
    # each move maps the states where it is legal one to one onto
    # themselves, so some power of it is its inverse.
    sources = [sphere(n) for n in range(2, 8)]
    targets = [sphere(n) for n in range(1, 10)]
    targets += [moore(n, 2**r) for n in range(2, 10) for r in range(1, 5)]
    blocks = list(_blocks(sources, targets))
    assert len(blocks) == 3454
    for source, rows, move in blocks:
        block = normalizer._block(source, rows, move)
        legal = [k for k, image in enumerate(block) if image is not None]
        assert sorted(block[k] for k in legal) == legal, (source, rows, move)


def test_compiled_rejects_a_move_that_does_not_permute(monkeypatch):
    block = normalizer._block

    def collapsed(source, targets, move):  # neg sends every state to zero
        table = block(source, targets, move)
        return (0,) * len(table) if move == ActBySelfEquiv(0, "neg") else table

    monkeypatch.setattr(normalizer, "_block", collapsed)
    with pytest.raises(ValueError, match=re.escape(
            "ActBySelfEquiv(row=0, op='neg') does not permute the states where it is legal")):
        normalizer._compiled.__wrapped__(S5, (S4,))  # past the cache


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
    normalizer._compiled.cache_clear()  # later orbits compile from the unshuffled moves
    # Each answer came from the shuffled moves, not from moves compiled earlier.
    assert shuffled == list(range(5))


def _cold_orbit(v):
    normalizer._block.cache_clear()
    normalizer._compiled.cache_clear()
    return orbit(v)


def test_orbit_independent_of_block_cache():
    # The oracle caches each move's block by complexes and move only, and
    # the orbit partition by source and targets.  Blocks cached from the
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

    # A partition compiled for one vector serves every vector into the
    # same targets: each orbit from a warm one is the cold one.  The last ten
    # vectors map S^6 into S^3 and P^5(2^r), r >= 2, where some row
    # additions are illegal, as their block tables show.
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
        illegal += any(
            None in normalizer._block(v.source, (v.targets[m.src], v.targets[m.dst]),
                                      AddRow(1, 0, m.kind))
            for m in normalizer._all_moves(v.targets) if isinstance(m, AddRow))
        assert list(_cold_orbit(v)) == warm, v.key()
    assert illegal >= 10


def test_orbit_mapping_builds_members_on_lookup(monkeypatch):
    v = vec(S5, (S4, {"eta": 1}), (moore(4, 4), {"eta~_2": 1}), (moore(4, 2), {"eta~_1": 1}))
    for w in (v, v._replace(theta_remainder=True)):
        reachable = orbit(w)
        assert all(reachable[k].key() == k for k in reachable)
        first = next(iter(reachable))
        assert first == min(reachable) and reachable[w.key()] == w
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


# Maps from S^6 into up to three of these: eta-_r . eta~_r (r >= 2) makes
# a move from a P^5(4) row into an S^3 row illegal on some states.
S6_WINDOW = (S3, moore(5, 4), moore(5, 2), S5)


def test_state_graph_equals_row_op():
    # The oracle's orbits are the connected classes of the graph whose
    # edges join each state to its row_op images over _all_moves, built
    # here on every state of each target tuple: each image shares the
    # state's label, and each class has a label of its own.  Each orbit
    # lists its members' keys in state order.
    rng = random.Random(13)
    pairs = [(sphere(6), targets) for size in (1, 2, 3)
             for targets in combinations_with_replacement(S6_WINDOW, size)]
    pairs += [(v.source, v.targets) for v in (_random_pool_vector(rng, MOVE_POOL) for _ in range(200))]
    with_illegal = 0
    for source, targets in dict.fromkeys(pairs):
        places, rows, labels, members = normalizer._compiled(source, targets)
        moves = normalizer._all_moves(targets)
        entries = [maps_group(source, t) for t in targets]
        keys = list(product(*rows))  # states number the keys in this order
        states = {key: state for state, key in enumerate(keys)}
        parent = list(range(len(keys)))  # a union-find forest over the states

        def root(state):
            while parent[state] != state:
                state = parent[state] = parent[parent[state]]
            return state

        illegal = False
        for state, key in enumerate(keys):
            w = MapVector(source, targets, tuple(MapClass(e, c) for e, c in zip(entries, key)))
            for move in moves:
                try:
                    image = states[row_op(w, move).key()]
                except IllegalOp:
                    illegal = True
                    continue
                if image != state:
                    assert labels[image] == labels[state], (source, targets, key, move)
                    parent[root(image)] = root(state)
        assert len(labels) == len(keys)
        classes = [root(state) for state in range(len(keys))]
        assert len(set(zip(classes, labels))) == len(set(classes)) == len(members)
        orbits = [[] for _ in members]
        for key, label in zip(keys, labels):
            orbits[label].append(key)
        assert members == tuple(map(tuple, orbits))
        with_illegal += illegal
    assert with_illegal >= 10


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
    # compiled: the keys of the reference worklist, in key order.
    rng = random.Random(11)
    for pool, count, most in ((MOVE_POOL, 60, 4), (MOORE_POOL, 60, 3)):
        for _ in range(count):
            v = _random_pool_vector(rng, pool, most)
            assert list(orbit(v)) == sorted(_row_op_closure(v)), v.key()


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
