"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import sys
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from conftest import random_invariants, spheres
from suspcalc.abelian import RING_Z2LOCAL, FgAbelianGroup
from suspcalc.catalog import (
    ETA,
    ETA2,
    ETA_TILDE,
    PINCH,
    WedgeComplex,
    a_2r_eta2,
    a_tilde,
    chang_eta,
    chang_r,
    chang_rt,
    chang_t,
    integral_homology,
    maps_group,
    moore,
    pontryagin_square_Ct,
    sphere,
    sq2_action,
)
from suspcalc.classifier import (
    BRANCH_NONSPIN_CASE_B,
    ManifoldInvariants,
    OmittedCase,
    Sq2Case,
    ThetaAction,
    Unresolved,
    classify_double_suspension,
    validate_roundtrip,
)
from suspcalc.cli import build_tables, main, tables_text
from suspcalc.ehp import coker_H2, is_E_surjective
from suspcalc.normalizer import (
    GeneratorSymbol,
    MapClass,
    MapVector,
    cofiber,
    compose_relation,
    normalize,
    oracle_normal_form,
    orbit,
)

DATA_DIR = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL", file=sys.stderr)
        raise
    print(f"criterion {number} ({name}): PASS")


def inv(m, d, orders, spin, theta, sq2, postnikov=True, label=None):
    return ManifoldInvariants(
        m, d, FgAbelianGroup.of_orders(*orders), spin, theta, sq2, postnikov, label
    )


def petersons(n, orders):
    return WedgeComplex(tuple(moore(n, k) for k in orders))


TRIVIAL_THETA = ThetaAction("trivial")
NA = Sq2Case("not_applicable")

# The branch suite: twelve descriptors covering all six branches, with the
# hand-transcribed wedge each theorem clause prescribes (None marks the
# declined case).
BRANCH_SUITE = [
    (
        inv(0, 0, (), True, TRIVIAL_THETA, NA, label="s4"),
        WedgeComplex([sphere(6)]),
    ),
    (
        inv(1, 1, (2,), True, TRIVIAL_THETA, NA, label="spin-small"),
        spheres(3, 1).wedge(spheres(5, 1)).wedge(spheres(4, 1))
        .wedge(petersons(4, [2])).wedge(petersons(5, [2])).wedge(WedgeComplex([sphere(6)])),
    ),
    (
        inv(3, 3, (4, 3), True, TRIVIAL_THETA, NA, label="spin-mixed"),
        spheres(3, 3).wedge(spheres(5, 3)).wedge(spheres(4, 3))
        .wedge(petersons(4, [4, 3])).wedge(petersons(5, [4, 3]))
        .wedge(WedgeComplex([sphere(6)])),
    ),
    (
        inv(0, 1, (2, 4), True, ThetaAction("nontrivial", 2), NA, label="theta-j2"),
        spheres(4, 1).wedge(petersons(4, [2])).wedge(petersons(5, [2, 4]))
        .wedge(WedgeComplex([a_2r_eta2(3, 2)])),
    ),
    (
        inv(1, 0, (2, 2, 16), True, ThetaAction("nontrivial", 1), NA, label="theta-j1"),
        spheres(3, 1).wedge(spheres(5, 1)).wedge(petersons(4, [2, 16]))
        .wedge(petersons(5, [2, 2, 16])).wedge(WedgeComplex([a_2r_eta2(3, 1)])),
    ),
    (
        inv(0, 1, (), False, TRIVIAL_THETA, Sq2Case("A"), label="case-a-minimal"),
        WedgeComplex([chang_eta(4)]),
    ),
    (
        inv(2, 3, (8,), False, TRIVIAL_THETA, Sq2Case("A"), label="case-a"),
        spheres(3, 2).wedge(spheres(5, 2)).wedge(spheres(4, 2))
        .wedge(petersons(4, [8])).wedge(petersons(5, [8]))
        .wedge(WedgeComplex([chang_eta(4)])),
    ),
    (
        inv(1, 0, (4,), False, TRIVIAL_THETA, Sq2Case("B", 1), label="case-b-minimal"),
        spheres(3, 1).wedge(spheres(5, 1)).wedge(petersons(4, [4]))
        .wedge(WedgeComplex([chang_r(4, 2)])),
    ),
    (
        inv(0, 2, (2, 2, 8), False, TRIVIAL_THETA, Sq2Case("B", 3), label="case-b"),
        spheres(4, 2).wedge(petersons(4, [2, 2, 8])).wedge(petersons(5, [2, 2]))
        .wedge(WedgeComplex([chang_r(4, 3)])),
    ),
    (
        inv(2, 1, (2, 4), False, TRIVIAL_THETA, Sq2Case("C", 1), label="case-c"),
        spheres(3, 2).wedge(spheres(5, 2)).wedge(spheres(4, 1))
        .wedge(petersons(4, [4])).wedge(petersons(5, [2, 4]))
        .wedge(WedgeComplex([a_tilde(3, 1)])),
    ),
    (
        inv(0, 0, (4, 4, 9), False, TRIVIAL_THETA, Sq2Case("C", 2), label="case-c-tied"),
        petersons(4, [4, 9]).wedge(petersons(5, [4, 4, 9]))
        .wedge(WedgeComplex([a_tilde(3, 2)])),
    ),
    (
        inv(1, 1, (2,), False, ThetaAction("nontrivial", 1), Sq2Case("B", 1), label="omitted"),
        None,
    ),
]


def _random_suite():
    rng = random.Random(424242)
    out = []
    while len(out) < 200:
        candidate = random_invariants(rng)
        try:
            report = classify_double_suspension(candidate)
        except OmittedCase:
            continue
        out.append((candidate, report))
    return out


RANDOM_SUITE = _random_suite()


# --------------------------------------------------------------------------
# criterion 1: theorem branch reproduction
# --------------------------------------------------------------------------

def test_criterion_1_branch_reproduction():
    with criterion(1, "theorem branch reproduction"):
        start = time.monotonic()
        branches = set()
        for descriptor, expected in BRANCH_SUITE:
            if expected is None:
                with pytest.raises(OmittedCase):
                    classify_double_suspension(descriptor)
                branches.add("omitted")
                continue
            report = classify_double_suspension(descriptor)
            assert report.sigma2 == expected, descriptor.label
            branches.add(report.branch)
        assert len(branches) == 6
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# criterion 2: homology round-trip on 200 randomized descriptors
# --------------------------------------------------------------------------

def test_criterion_2_homology_roundtrip():
    with criterion(2, "homology round-trip"):
        start = time.monotonic()
        failures = 0
        for descriptor, report in RANDOM_SUITE:
            for i in range(0, 8):
                if integral_homology(report.sigma2, i) != descriptor.homology(i - 2):
                    failures += 1
        assert failures == 0
        assert len(RANDOM_SUITE) == 200
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# criterion 3: suspension coherence
# --------------------------------------------------------------------------

def test_criterion_3_suspension_coherence():
    with criterion(3, "suspension coherence"):
        checked = 0
        for descriptor, report in RANDOM_SUITE:
            if not descriptor.postnikov_trivial:
                continue
            assert not isinstance(report.sigma, Unresolved)
            assert report.sigma.suspend() == report.sigma2
            checked += 1
        for descriptor, expected in BRANCH_SUITE:
            if expected is None:
                continue
            report = classify_double_suspension(descriptor)
            assert report.sigma.suspend() == report.sigma2
            checked += 1
        assert checked > 50


# --------------------------------------------------------------------------
# criterion 4: normalizer oracle equivalence, exhaustive
# --------------------------------------------------------------------------

# The exhaustive sweep's pool: maps from S^4 and S^5 into wedges of these.
SWEEP_POOL = {
    sphere(4): [sphere(3), moore(4, 2), moore(4, 4), moore(4, 8)],
    sphere(5): [sphere(3), sphere(4), moore(4, 2), moore(4, 4), moore(4, 8)],
}


def _oracle_sweep(sizes, pools=SWEEP_POOL):
    """Every vector of ``pools`` at these target counts, orbit by orbit:
    (vectors checked, orbits, discrepancies between normalize and the
    oracle, the members normalize declines).  An accepted member must
    normalize into its orbit, and the accepted members of an orbit must
    share one cofiber: the oracle's, wherever it accepts the least member."""
    checked = orbits = discrepancies = 0
    declined = []
    sampled_oracle_calls = 0
    for source, pool in pools.items():
        for size in sizes:
            for targets in combinations_with_replacement(pool, size):
                entries = [maps_group(source, t) for t in targets]
                assert all(
                    0 not in e.orders and e.group.order() <= 8 for e in entries
                )
                spaces = [
                    [dict(zip(e.generators, combo)) for combo in product(*(range(o) for o in e.orders))]
                    for e in entries
                ]
                vectors = [
                    MapVector.of(source, list(zip(targets, combo)))
                    for combo in product(*spaces)
                ]
                unvisited = {v.key(): v for v in vectors}
                while unvisited:
                    _, seed_vector = next(iter(unvisited.items()))
                    reachable = orbit(seed_vector)
                    orbits += 1
                    least_key = min(reachable)
                    least = reachable[least_key]
                    try:
                        orbit_cofiber = cofiber(normalize(least))
                    except ValueError as err:  # declined: any other error fails the sweep
                        assert "outside the normal-form range" in str(err), err
                        orbit_cofiber = None  # the first accepted member's then
                    for key in reachable:
                        member = unvisited.pop(key, None)
                        if member is None:
                            continue
                        checked += 1
                        try:
                            nf = normalize(member)
                        except ValueError as err:
                            assert "outside the normal-form range" in str(err), err
                            declined.append(member)
                            continue
                        if nf.key() not in reachable:
                            discrepancies += 1
                            continue
                        if orbit_cofiber is None:
                            orbit_cofiber = cofiber(nf)
                        elif cofiber(nf) != orbit_cofiber:
                            discrepancies += 1
                    if sampled_oracle_calls < 25:
                        # exercise the public entry point directly too
                        assert oracle_normal_form(least).key() == least_key
                        sampled_oracle_calls += 1
    return checked, orbits, discrepancies, declined


def test_criterion_4_oracle_equivalence():
    with criterion(4, "normalizer oracle equivalence"):
        start = time.monotonic()
        checked, _, discrepancies, declined = _oracle_sweep((1, 2, 3))
        assert checked == 1580
        assert discrepancies == 0
        assert declined == []
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_oracle_sweep_at_four_targets():
    # Criterion 4's pool with up to four targets: every vector, not a sample.
    start = time.monotonic()
    assert _oracle_sweep((1, 2, 3, 4)) == (10156, 782, 0, [])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


# Maps from S^5 into mixed P^4 and P^5 targets: the chi, incl_pinch and
# incl_eta_bar moves that criterion 4's pool lacks.  The same window one
# dimension up, without S^3, is its suspension, so it is not swept again:
# test_normalize_commutes_with_suspension checks the two agree instead.
S5_WINDOW = {
    sphere(5): [sphere(3), sphere(4), moore(4, 2), moore(4, 4), moore(5, 2), moore(5, 4)],
}


def test_oracle_sweep_s5_window():
    start = time.monotonic()
    assert _oracle_sweep((1, 2, 3, 4), S5_WINDOW) == (8376, 881, 0, [])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


# Maps from S^6, where normalize declines vectors with a nu' component on
# an S^3 row and the oracle meets illegal moves (eta-_2 . eta~_2 is not
# tabulated).
S6_WINDOW = {sphere(6): [sphere(3), moore(5, 4), moore(5, 2), sphere(5)]}


def test_oracle_sweep_s6_window():
    start = time.monotonic()
    checked, orbits, discrepancies, declined = _oracle_sweep((1, 2, 3, 4), S6_WINDOW)
    assert (checked, orbits, discrepancies) == (6642, 374, 0)
    for v in declined:  # their count is not pinned: clearing nu' will lower it
        assert any(t == sphere(3) and e.coefficients().get("nu'")
                   for t, e in zip(v.targets, v.entries)), v.key()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


# Maps from S^3, whose P^3(2^r) entries are Z/2^(r+1) on i_2 eta: an odd
# multiple other than +-1 is no unit generator, since no move reaches it
# from i_2 eta (q i = 0 makes unit_plus_i_eta_q fix it).
S3_WINDOW = {sphere(3): [moore(3, 2), moore(3, 4), moore(4, 2), moore(4, 4), moore(4, 8)]}


def test_oracle_sweep_s3_window():
    start = time.monotonic()
    checked, orbits, discrepancies, _ = _oracle_sweep((1, 2, 3), S3_WINDOW)
    assert (checked, orbits, discrepancies) == (5894, 356, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_orbits_partition_s6_window():
    # Each member's orbit is its seed's: orbits are classes, so one
    # partition per source and targets serves every vector into them.
    checked = 0
    for source, pool in S6_WINDOW.items():
        for size in (1, 2, 3):
            for targets in combinations_with_replacement(pool, size):
                entries = [maps_group(source, t) for t in targets]
                unvisited = set(product(*(product(*(range(o) for o in e.orders)) for e in entries)))
                while unvisited:
                    reachable = orbit(MapVector(source, targets, tuple(
                        MapClass(e, c) for e, c in zip(entries, next(iter(unvisited))))))
                    for key in reachable:
                        assert orbit(reachable[key]).keys() == reachable.keys(), key
                        unvisited.discard(key)
                        checked += 1
    assert checked == 1026


def test_normalize_commutes_with_suspension():
    # Each vector of the S^5 window and the S^6 vector with the same
    # coefficients into the suspended targets have the same normal form.
    checked = 0
    for source, pool in S5_WINDOW.items():
        for size in (1, 2, 3):
            for targets in combinations_with_replacement(pool, size):
                entries = [maps_group(source, t) for t in targets]
                lifted = [maps_group(source.suspend(), t.suspend()) for t in targets]
                assert [(e.kinds, e.orders) for e in entries] == [(e.kinds, e.orders) for e in lifted]
                for combo in product(*(product(*(range(o) for o in e.orders)) for e in entries)):
                    v, w = (
                        MapVector(x[0].source, tuple(e.target for e in x),
                                  tuple(MapClass(e, c) for e, c in zip(x, combo)))
                        for x in (entries, lifted)
                    )
                    assert normalize(v).key() == normalize(w).key(), v.key()
                    checked += 1
    assert checked == 1288


# --------------------------------------------------------------------------
# criterion 5: cohomotopy formulas
# --------------------------------------------------------------------------

def test_criterion_5_cohomotopy_formulas():
    with criterion(5, "cohomotopy formulas"):
        for descriptor, expected in BRANCH_SUITE:
            if expected is None:
                continue
            report = classify_double_suspension(descriptor)
            formula = FgAbelianGroup(descriptor.m, free_ring=RING_Z2LOCAL).direct_sum(
                FgAbelianGroup.of_orders(*(2 ** (r - 1) for r in descriptor.two_exponents))
            )
            if report.branch == BRANCH_NONSPIN_CASE_B:
                r = descriptor.exponent_at(descriptor.sq2_case.index)
                formula = formula.direct_sum(FgAbelianGroup.of_orders(2**r))
            assert coker_H2(report) == formula, descriptor.label
            if descriptor.postnikov_trivial:
                assert is_E_surjective(descriptor).surjective is True, descriptor.label


# --------------------------------------------------------------------------
# criterion 6: table fidelity
# --------------------------------------------------------------------------

def test_criterion_6_table_fidelity():
    with criterion(6, "table fidelity"):
        expected = (DATA_DIR / "tables_transcription.json").read_bytes()
        actual = (json.dumps(build_tables(), indent=2) + "\n").encode("utf-8")
        assert actual == expected


def test_criterion_6_table_fidelity_through_the_cli(capsys):
    # The bytes a user gets: ``suspcalc tables`` prints through the CLI's
    # own JSON writer, not through json.dumps.  The first dump of a process
    # builds the text, every later one prints it again: check both.
    with criterion(6, "table fidelity through the CLI"):
        expected = (DATA_DIR / "tables_transcription.json").read_bytes()
        tables_text.cache_clear()
        for _ in ("cold", "warm"):
            assert main(["tables"]) == 0
            assert capsys.readouterr().out.encode("utf-8") == expected


# --------------------------------------------------------------------------
# criterion 7: operation-table property suite
# --------------------------------------------------------------------------

def test_criterion_7_operation_properties():
    with criterion(7, "operation-table properties"):
        # quadraticity of the Pontryagin square on the two-cell model
        for r in (1, 2, 3):
            u = r
            for t in range(2 ** (r + 1)):
                for a in range(2 ** (u + 1)):
                    assert pontryagin_square_Ct(t, u, multiple=a) == (a * a * t) % 2 ** (u + 1)
                assert pontryagin_square_Ct(t, u) == t % 2 ** (u + 1)
        # Sq^2 isomorphisms on the two-stage complexes and on A(eta~_r)
        for n in range(2, 7):
            assert sq2_action(chang_eta(n), n) == ((1,),)
            for r in (1, 2, 3):
                assert sq2_action(chang_r(n, r), n) == ((1,),)
                assert sq2_action(a_tilde(n, r), n + 1) == ((1,),)
            for t in (1, 2, 3):
                assert sq2_action(chang_t(n, t), n) == ((1,),)
                assert sq2_action(chang_rt(n, 2, t), n) == ((1,),)
        # relation anchors
        for r in (1, 2, 3, 4):
            out = compose_relation(GeneratorSymbol(PINCH, moore(4, 2**r), sphere(4)),
                                   GeneratorSymbol(ETA_TILDE, sphere(5), moore(4, 2**r)))
            assert out.coefficients() == {"eta": 1}
        eta_cubed = compose_relation(GeneratorSymbol(ETA, sphere(4), sphere(3)),
                                     GeneratorSymbol(ETA2, sphere(6), sphere(4)))
        assert eta_cubed.coefficients() == {"nu'": 2}


# --------------------------------------------------------------------------
# criterion 8: roundtrip audit over criteria 1-2
# --------------------------------------------------------------------------

def test_criterion_8_roundtrip_audit():
    with criterion(8, "roundtrip audit"):
        suites = [
            (descriptor, classify_double_suspension(descriptor))
            for descriptor, expected in BRANCH_SUITE
            if expected is not None
        ]
        for descriptor, report in suites + RANDOM_SUITE:
            results = validate_roundtrip(descriptor, report)
            assert all(c.passed for c in results), (descriptor, results)
