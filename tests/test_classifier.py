import json

import pytest
from hypothesis import given

from conftest import random_invariants, valid_invariants
from test_catalog import assert_needs_no_escaping
from suspcalc.abelian import CyclicFactor, FgAbelianGroup
from suspcalc.catalog import (
    Notation,
    WedgeComplex,
    a_2r_eta2,
    a_tilde,
    chang_eta,
    chang_r,
    integral_homology,
    moore,
    peterson_of_group,
    sphere,
)
from suspcalc.classifier import (
    ALL_BRANCHES,
    BRANCH_NONSPIN_CASE_A,
    BRANCH_NONSPIN_CASE_C,
    BRANCH_SPIN_THETA_NONTRIVIAL,
    BRANCH_SPIN_THETA_TRIVIAL,
    MAX_FREE_RANK,
    MAX_TORSION_FACTORS,
    InvalidInvariants,
    ManifoldInvariants,
    OmittedCase,
    Sq2Case,
    ThetaAction,
    Unresolved,
    classify_double_suspension,
    classify_suspension,
    stage_decompositions,
    validate_roundtrip,
)
from suspcalc.normalizer import MapVector, cofiber, normalize

ZERO = FgAbelianGroup.zero()


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


def spheres(n, count):
    return WedgeComplex(tuple(sphere(n) for _ in range(count)))


# --------------------------------------------------------------------------
# classify_double_suspension
# --------------------------------------------------------------------------

def test_spin_theta_trivial_example():
    report = classify_double_suspension(invariants(1, 1, (2,)))
    expected = (
        spheres(3, 1)
        .wedge(spheres(5, 1))
        .wedge(spheres(4, 1))
        .wedge(WedgeComplex.of(moore(4, 2), moore(5, 2), sphere(6)))
    )
    assert report.branch == BRANCH_SPIN_THETA_TRIVIAL
    assert report.sigma2 == expected


def test_nonspin_case_c_example():
    inv = invariants(2, 1, (2, 4), spin=False, sq2=Sq2Case("C", 1))
    report = classify_double_suspension(inv)
    expected = (
        spheres(3, 2)
        .wedge(spheres(5, 2))
        .wedge(spheres(4, 1))
        .wedge(WedgeComplex.of(moore(4, 4), moore(5, 2), moore(5, 4), a_tilde(3, 1)))
    )
    assert report.branch == BRANCH_NONSPIN_CASE_C
    assert report.sigma2 == expected


def test_four_sphere():
    report = classify_double_suspension(invariants(0, 0))
    assert report.sigma2 == WedgeComplex.of(sphere(6))
    assert classify_suspension(invariants(0, 0)) == WedgeComplex.of(sphere(5))


def test_omitted_case():
    inv = invariants(
        1, 1, (2,), spin=False, theta=ThetaAction("nontrivial", 1), sq2=Sq2Case("B", 1)
    )
    with pytest.raises(OmittedCase) as err:
        classify_double_suspension(inv)
    assert "We omit the discussion" in str(err.value)


def test_spin_theta_nontrivial_quotients_degree3_peterson():
    inv = invariants(0, 2, (2, 8, 9), theta=ThetaAction("nontrivial", 2))
    report = classify_double_suspension(inv)
    assert report.branch == BRANCH_SPIN_THETA_NONTRIVIAL
    # the j0 = 2 factor Z/8 moves out of the degree-4 Peterson wedge
    assert report.sigma2 == (
        spheres(4, 2).wedge(
            WedgeComplex.of(
                moore(4, 2), moore(4, 9), moore(5, 2), moore(5, 8), moore(5, 9),
                a_2r_eta2(3, 3),
            )
        )
    )


def test_nonspin_case_b_quotients_degree5_peterson():
    inv = invariants(0, 1, (4,), spin=False, sq2=Sq2Case("B", 1))
    report = classify_double_suspension(inv)
    assert report.sigma2 == WedgeComplex.of(moore(4, 4), sphere(4), chang_r(4, 2))


def test_nonspin_case_a_spends_one_free_class():
    inv = invariants(1, 2, (3,), spin=False, sq2=Sq2Case("A"))
    report = classify_double_suspension(inv)
    assert report.branch == BRANCH_NONSPIN_CASE_A
    assert report.sigma2 == (
        spheres(3, 1)
        .wedge(spheres(5, 1))
        .wedge(spheres(4, 1))
        .wedge(WedgeComplex.of(moore(4, 3), moore(5, 3), chang_eta(4)))
    )


# --------------------------------------------------------------------------
# classify_suspension
# --------------------------------------------------------------------------

def test_suspension_desuspends():
    out = classify_suspension(invariants(0, 2))
    assert out == WedgeComplex.of(sphere(3), sphere(3), sphere(5))


def test_suspension_unresolved_without_postnikov():
    out = classify_suspension(invariants(1, 1, (2,), postnikov=False))
    assert isinstance(out, Unresolved)


def test_suspension_forced_when_no_two_torsion():
    inv = invariants(1, 1, (9,), postnikov=False)
    report = classify_double_suspension(inv)
    assert not isinstance(report.sigma, Unresolved)
    assert any("forces" in note for note in report.notes)


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------

def test_stage_w3():
    stages = stage_decompositions(invariants(0, 1, (2,)))
    assert stages.w3 == WedgeComplex.of(sphere(3), moore(3, 2), moore(4, 2))


def test_stage_sigma_w4():
    stages = stage_decompositions(invariants(2, 0))
    assert stages.sigma_w4 == spheres(5, 2)


def test_stage_w4_split():
    stages = stage_decompositions(invariants(1, 1, (4,)))
    assert stages.w4 == WedgeComplex.of(sphere(3), sphere(4), moore(3, 4), moore(4, 4))
    assert stages.w4_symbolic is None


def test_stage_w4_symbolic_without_postnikov():
    stages = stage_decompositions(invariants(1, 1, (4,), postnikov=False))
    assert stages.w4 is None
    assert stages.w4_symbolic == "S^3 v P^4(4) v C_{g2}"


# --------------------------------------------------------------------------
# validate_roundtrip
# --------------------------------------------------------------------------

def test_roundtrip_passes_on_real_reports():
    inv = invariants(1, 2, (2, 8), theta=ThetaAction("nontrivial", 1))
    report = classify_double_suspension(inv)
    assert all(c.passed for c in validate_roundtrip(inv, report))


def test_roundtrip_flags_tampered_report():
    inv = invariants(1, 1, (2,))
    report = classify_double_suspension(inv)
    # negative control: a spin input whose report smuggles in C^6_eta
    summands = tuple(
        chang_eta(4) if s == sphere(6) else s for s in report.sigma2.summands
    )
    tampered = report._replace(sigma2=WedgeComplex(summands))
    results = {c.name: c.passed for c in validate_roundtrip(inv, tampered)}
    assert results["sq2-degree-4"] is False


def test_roundtrip_bockstein_check_on_torsion_free():
    inv = invariants(2, 1)
    report = classify_double_suspension(inv)
    results = {c.name: c.passed for c in validate_roundtrip(inv, report)}
    assert results["bockstein-profile"] is True


# --------------------------------------------------------------------------
# invariant validation
# --------------------------------------------------------------------------

def test_invalid_case_a_without_free_class():
    with pytest.raises(InvalidInvariants):
        invariants(1, 0, (2,), spin=False, sq2=Sq2Case("A"))


def test_invalid_indices():
    with pytest.raises(InvalidInvariants):
        invariants(0, 0, (2,), theta=ThetaAction("nontrivial", 2))
    with pytest.raises(InvalidInvariants):
        invariants(0, 0, (), spin=False, sq2=Sq2Case("B", 1))
    with pytest.raises(InvalidInvariants):
        invariants(0, 0, (2,), spin=True, sq2=Sq2Case("B", 1))
    with pytest.raises(InvalidInvariants):
        ManifoldInvariants(
            0, 0, FgAbelianGroup.free(1), True, ThetaAction("trivial"),
            Sq2Case("not_applicable"), True,
        )


# --------------------------------------------------------------------------
# randomized properties
# --------------------------------------------------------------------------

def test_descriptor_json_roundtrip_randomized(rng):
    for i in range(200):
        inv = random_invariants(rng)._replace(label=f"r{i}" if i % 2 else None)
        data = json.loads(json.dumps(inv.to_json_dict()))
        assert ManifoldInvariants.from_json_dict(data) == inv


def _strings(obj):
    """Every str of a JSON tree, keys included."""
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _strings(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _strings(value)


@given(valid_invariants())
def test_only_printed_wedges_are_notation(inv):
    # The wedges, the symbolic W4 among them, skip the JSON escaper; the
    # label, branch, notes and invariants go through it, and the invariants
    # read back in-process, where json_value takes exactly a str.
    report = classify_double_suspension(inv)
    data = report.to_json_dict(2, stages=True)
    stages = data["stages"]
    wedges = [data["sigma2"], stages["W3"], stages["SigmaW4"],
              stages["W4"] if report.stages.w4 is not None else stages["W4"]["symbolic"]]
    if not isinstance(report.sigma, Unresolved):
        wedges.append(data["sigma"])
    for text in wedges:
        assert_needs_no_escaping(text)
    assert sorted(map(id, wedges)) == sorted(id(t) for t in _strings(data) if type(t) is Notation)
    assert ManifoldInvariants.from_json_dict(data["invariants"]) == inv
    assert ManifoldInvariants.from_json_dict(inv.to_json_dict()) == inv


def test_homology_roundtrip_randomized(rng):
    for _ in range(150):
        inv = random_invariants(rng)
        try:
            report = classify_double_suspension(inv)
        except OmittedCase:
            continue
        for i in range(0, 8):
            assert integral_homology(report.sigma2, i) == inv.homology(i - 2), inv


def test_suspension_coherence_randomized(rng):
    for _ in range(120):
        inv = random_invariants(rng, postnikov=True)
        try:
            report = classify_double_suspension(inv)
        except OmittedCase:
            continue
        assert not isinstance(report.sigma, Unresolved)
        assert report.sigma.suspend() == report.sigma2


def test_branch_totality(rng):
    seen = set()
    for _ in range(250):
        inv = random_invariants(rng)
        try:
            report = classify_double_suspension(inv)
        except OmittedCase:
            seen.add("omitted")
            continue
        assert report.branch in ALL_BRANCHES
        seen.add(report.branch)
    assert seen == set(ALL_BRANCHES) | {"omitted"}


def test_roundtrip_passes_randomized(rng):
    for _ in range(80):
        inv = random_invariants(rng)
        try:
            report = classify_double_suspension(inv)
        except OmittedCase:
            continue
        assert all(c.passed for c in validate_roundtrip(inv, report))


@given(valid_invariants())
def test_every_valid_descriptor_audits_and_desuspends_coherently(inv):
    report = classify_double_suspension(inv)
    assert all(c.passed for c in validate_roundtrip(inv, report))
    if not isinstance(report.sigma, Unresolved):
        assert report.sigma.suspend() == report.sigma2


# --------------------------------------------------------------------------
# integration with the matrix method: the classifier's degree-6 piece is
# the cofiber of the normalized attaching vector
# --------------------------------------------------------------------------

def _phi_targets(inv):
    t2 = inv.torsion.two_primary()
    return (
        [sphere(4)] * inv.d
        + list(peterson_of_group(4, t2))
        + list(peterson_of_group(5, t2))
    )


def _assemble(inv, c_phi):
    odd = FgAbelianGroup(torsion=tuple(f for f in inv.torsion.torsion if f.prime != 2))
    return (
        WedgeComplex(tuple(sphere(3) for _ in range(inv.m)))
        .wedge(WedgeComplex(tuple(sphere(5) for _ in range(inv.m))))
        .wedge(peterson_of_group(4, odd))
        .wedge(peterson_of_group(5, odd))
        .wedge(c_phi)
    )


def _zero_components(inv):
    return [(t, {}) for t in _phi_targets(inv)]


def test_matrix_method_reproduces_spin_branches():
    inv = invariants(2, 1, (2, 4, 9))
    phi = MapVector.of(sphere(5), _zero_components(inv))
    c_phi = cofiber(normalize(phi))
    assert _assemble(inv, c_phi) == classify_double_suspension(inv).sigma2

    # theta nontrivial: i eta^2 entries on a set of degree-4 Moore slots
    # whose maximum is j0
    inv2 = invariants(1, 1, (2, 4, 4), theta=ThetaAction("nontrivial", 3))
    components = []
    for t in _phi_targets(inv2):
        if t == moore(4, 2):
            components.append((t, {"eta~_1": 2}))  # i eta^2 = 2 eta~_1
        elif t == moore(4, 4):
            components.append((t, {"i_3 eta^2": 1}))
        else:
            components.append((t, {}))
    phi2 = MapVector.of(sphere(5), components)
    c_phi2 = cofiber(normalize(phi2))
    assert _assemble(inv2, c_phi2) == classify_double_suspension(inv2).sigma2


def test_matrix_method_reproduces_nonspin_branches():
    # case A: several eta components over the degree-4 spheres
    inv = invariants(0, 3, (3,), spin=False, sq2=Sq2Case("A"))
    components = [
        (t, {"eta": 1} if t == sphere(4) else {}) for t in _phi_targets(inv)
    ]
    phi = MapVector.of(sphere(5), components)
    assert _assemble(inv, cofiber(normalize(phi))) == classify_double_suspension(inv).sigma2

    # case B: i eta entries on degree-5 Moore slots, maximum index j1 = 2
    inv2 = invariants(1, 0, (2, 4), spin=False, sq2=Sq2Case("B", 2))
    components2 = [
        (t, {"i_4 eta": 1} if t.n == 5 and t.order in (2, 4) else {})
        for t in _phi_targets(inv2)
    ]
    phi2 = MapVector.of(sphere(5), components2)
    assert _assemble(inv2, cofiber(normalize(phi2))) == classify_double_suspension(inv2).sigma2

    # case C: odd eta~ entries with minimal exponent index j2 = 1, plus
    # eta and i eta noise that the reduction must kill
    inv3 = invariants(0, 1, (2, 4), spin=False, sq2=Sq2Case("C", 1))
    components3 = []
    for t in _phi_targets(inv3):
        if t == sphere(4):
            components3.append((t, {"eta": 1}))
        elif t == moore(4, 2):
            components3.append((t, {"eta~_1": 3}))
        elif t == moore(4, 4):
            components3.append((t, {"eta~_2": 1, "i_3 eta^2": 1}))
        elif t == moore(5, 4):
            components3.append((t, {"i_4 eta": 1}))
        else:
            components3.append((t, {}))
    phi3 = MapVector.of(sphere(5), components3)
    assert _assemble(inv3, cofiber(normalize(phi3))) == classify_double_suspension(inv3).sigma2


# --------------------------------------------------------------------------
# input bounds
# --------------------------------------------------------------------------

def test_classify_and_audit_at_the_input_bound():
    """m = d = MAX_FREE_RANK with MAX_TORSION_FACTORS torsion factors: the
    wedge has over three million copies but eight distinct summands, and
    nothing is rendered."""
    n = MAX_TORSION_FACTORS // 2
    torsion = FgAbelianGroup(torsion=(CyclicFactor(2, 1),) * n + (CyclicFactor(2, 3),) * n)
    inv = ManifoldInvariants(MAX_FREE_RANK, MAX_FREE_RANK, torsion, False,
                             ThetaAction("trivial"), Sq2Case("B", n + 1), True)
    assert MAX_FREE_RANK == 10**6
    report = classify_double_suspension(inv)
    checks = validate_roundtrip(inv, report)
    assert [c.name for c in checks] == ["homology", "theta-flag", "sq2-degree-4",
                                        "bockstein-profile"]
    assert all(c.passed for c in checks), checks
    assert report.sigma2.count(sphere(3)) == 10**6
    assert report.sigma2.count(sphere(4)) == 10**6
    assert report.sigma2.count(moore(5, 8)) == n - 1
    assert report.sigma.count(chang_r(3, 3)) == 1
    assert len(report.sigma2.pairs) == 8


@pytest.mark.parametrize("m, d, factors", [
    (MAX_FREE_RANK + 1, 0, 0),
    (0, MAX_FREE_RANK + 1, 0),
    (0, 0, MAX_TORSION_FACTORS + 1),
])
def test_invariants_over_the_input_bound_rejected(m, d, factors):
    torsion = FgAbelianGroup(torsion=(CyclicFactor(2, 1),) * factors)
    with pytest.raises(InvalidInvariants):
        ManifoldInvariants(m, d, torsion, True, ThetaAction("trivial"),
                           Sq2Case("not_applicable"), True)
