import json

import pytest
from hypothesis import given, strategies as st

from conftest import invariants, random_invariants, spheres, valid_invariants
from test_catalog import assert_needs_no_escaping
from suspcalc.abelian import CyclicFactor, FgAbelianGroup
from suspcalc.catalog import (
    Notation,
    WedgeComplex,
    _homology_pairs,
    a_2r_eta2,
    a_tilde,
    bockstein_profile,
    chang_eta,
    chang_r,
    integral_homology,
    moore,
    peterson_of_group,
    sphere,
    sq2_is_nonzero,
    theta_flag,
)
from suspcalc.classifier import (
    BRANCH_NONSPIN_CASE_A,
    BRANCH_NONSPIN_CASE_B,
    BRANCH_NONSPIN_CASE_C,
    BRANCH_SPIN_THETA_NONTRIVIAL,
    BRANCH_SPIN_THETA_TRIVIAL,
    MAX_FREE_RANK,
    MAX_TORSION_FACTORS,
    CheckResult,
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

ZERO = FgAbelianGroup()


# --------------------------------------------------------------------------
# classify_double_suspension
# --------------------------------------------------------------------------

def test_spin_theta_trivial_example():
    report = classify_double_suspension(invariants(1, 1, (2,)))
    expected = (
        spheres(3, 1)
        .wedge(spheres(5, 1))
        .wedge(spheres(4, 1))
        .wedge(WedgeComplex((moore(4, 2), moore(5, 2), sphere(6))))
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
        .wedge(WedgeComplex((moore(4, 4), moore(5, 2), moore(5, 4), a_tilde(3, 1))))
    )
    assert report.branch == BRANCH_NONSPIN_CASE_C
    assert report.sigma2 == expected


def test_four_sphere():
    report = classify_double_suspension(invariants(0, 0))
    assert report.sigma2 == WedgeComplex([sphere(6)])
    assert classify_suspension(invariants(0, 0)) == WedgeComplex([sphere(5)])


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
            WedgeComplex((
                moore(4, 2), moore(4, 9), moore(5, 2), moore(5, 8), moore(5, 9),
                a_2r_eta2(3, 3),
            ))
        )
    )


def test_nonspin_case_b_quotients_degree5_peterson():
    inv = invariants(0, 1, (4,), spin=False, sq2=Sq2Case("B", 1))
    report = classify_double_suspension(inv)
    assert report.sigma2 == WedgeComplex((moore(4, 4), sphere(4), chang_r(4, 2)))


def test_nonspin_case_a_spends_one_free_class():
    inv = invariants(1, 2, (3,), spin=False, sq2=Sq2Case("A"))
    report = classify_double_suspension(inv)
    assert report.branch == BRANCH_NONSPIN_CASE_A
    assert report.sigma2 == (
        spheres(3, 1)
        .wedge(spheres(5, 1))
        .wedge(spheres(4, 1))
        .wedge(WedgeComplex((moore(4, 3), moore(5, 3), chang_eta(4))))
    )


@given(valid_invariants())
def test_replaced_is_the_copy_the_top_piece_takes_the_place_of(inv):
    # Sigma^2 M v replaced = the lower cells v top, the lower cells
    # m S^3 v m S^5 v d S^4 v P^4(T) v P^5(T) built here by the merging constructor.
    report = classify_double_suspension(inv)
    lower = [(sphere(3), inv.m), (sphere(5), inv.m), (sphere(4), inv.d)]
    lower += [(moore(n, f.order), k) for n in (4, 5) for f, k in inv.torsion.pairs]
    extra = [] if report.replaced is None else [(report.replaced, 1)]
    assert (WedgeComplex(counts=[*report.sigma2.pairs, *extra])
            == WedgeComplex(counts=[*lower, (report.top, 1)]))
    # The branch table, read off the declared invariants: the summand the
    # declared index names, none on spin theta-trivial.
    two = sorted(f.exponent for f, k in inv.torsion.pairs if f.prime == 2 for _ in range(k))
    if inv.spin:
        nontrivial = inv.theta.action == "nontrivial"
        expected = moore(4, 2 ** two[inv.theta.j0 - 1]) if nontrivial else None
    elif inv.sq2_case.case == "A":
        expected = sphere(4)
    else:
        n = 5 if inv.sq2_case.case == "B" else 4
        expected = moore(n, 2 ** two[inv.sq2_case.index - 1])
    assert report.replaced == expected


# --------------------------------------------------------------------------
# classify_suspension
# --------------------------------------------------------------------------

def test_suspension_desuspends():
    out = classify_suspension(invariants(0, 2))
    assert out == WedgeComplex((sphere(3), sphere(3), sphere(5)))


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
    assert stages.w3 == WedgeComplex((sphere(3), moore(3, 2), moore(4, 2)))


def test_stage_sigma_w4():
    stages = stage_decompositions(invariants(2, 0))
    assert stages.sigma_w4 == spheres(5, 2)


def test_stage_w4_split():
    stages = stage_decompositions(invariants(1, 1, (4,)))
    assert stages.w4 == WedgeComplex((sphere(3), sphere(4), moore(3, 4), moore(4, 4)))
    assert stages.w4_symbolic is None


@given(valid_invariants())
def test_stages_equal_their_definitions(inv):
    # Each stage against its definition, built by the merging constructor.
    T, m, d = inv.torsion, inv.m, inv.d

    def peterson(n):
        return [(moore(n, f.order), k) for f, k in T.pairs]

    stages = stage_decompositions(inv)
    w3 = WedgeComplex(counts=[(sphere(3), d), *peterson(3), *peterson(4)])
    assert stages.w3 == w3
    assert stages.sigma_w4 == WedgeComplex(
        counts=[(sphere(4), d), *peterson(4), *peterson(5), (sphere(5), m)])
    if inv.postnikov_trivial or not inv.two_exponents:
        assert stages.w4 == WedgeComplex(counts=[*w3.pairs, (sphere(4), m)])
        assert stages.w4_symbolic is None
    else:
        assert stages.w4 is None


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


def reference_roundtrip(inv, report):
    """The audit as a loop over degrees 0-7 that builds both groups in
    each: H_*(M) by direct sums, H_*(Sigma^2 M) copy by copy from each
    summand's own homology.  The other three checks as validate_roundtrip
    states them, with both Bockstein lists rendered."""
    expected_groups = {
        1: FgAbelianGroup(inv.m).direct_sum(inv.torsion),
        2: FgAbelianGroup(inv.d).direct_sum(inv.torsion),
        3: FgAbelianGroup(inv.m),
        4: FgAbelianGroup(1),
    }
    actual_groups = {}
    for x in report.sigma2.summands:
        for degree, group in _homology_pairs(x):
            actual_groups[degree] = actual_groups.get(degree, ZERO).direct_sum(group)
    ok = True
    detail = []
    for i in range(0, 8):
        expected = expected_groups.get(i - 2, ZERO)
        actual = actual_groups.get(i, ZERO)
        if actual != expected:
            ok = False
            detail.append(f"H_{i} = {actual} != {expected}")
    checks = [CheckResult("homology", ok, "; ".join(detail) if detail
                          else "H_i(Sigma^2 M) matches the shifted table")]
    flag = theta_flag(report.sigma2)
    checks.append(CheckResult(
        "theta-flag", flag == inv.theta.nontrivial,
        f"secondary operation on the wedge is {'non' if flag else ''}trivial, "
        f"input says {'non' if inv.theta.nontrivial else ''}trivial"))
    sq2 = sq2_is_nonzero(report.sigma2, 4)
    checks.append(CheckResult(
        "sq2-degree-4", sq2 == (not inv.spin),
        f"Sq^2 on H^4 of the wedge is {'non' if sq2 else ''}zero, "
        f"input is {'non-' if not inv.spin else ''}spin"))
    exps = inv.two_exponents
    expected_pairs = [(r, 3) for r in exps] + [(r, 4) for r in exps]
    actual_pairs = list(bockstein_profile(report.sigma2))
    checks.append(CheckResult(
        "bockstein-profile", actual_pairs == expected_pairs,
        f"profile {actual_pairs} vs torsion expectation {expected_pairs}"))
    return checks


def _tampered(report, add=(), remove=()):
    """``report`` with one copy of each of ``add`` wedged on and one copy of
    each of ``remove`` taken out of Sigma^2 M."""
    counts = [(x, k - remove.count(x)) for x, k in report.sigma2.pairs]
    return report._replace(sigma2=WedgeComplex(counts=[*counts, *((x, 1) for x in add)]))


# Spin, theta trivial: S^3 v S^5 v S^4 v P^4(2) v P^4(3) v P^5(2) v P^5(3) v S^6.
_TAMPER_BASE = invariants(1, 1, (2, 3))
_TAMPERS = {
    "C^6_eta for S^6": (dict(add=(chang_eta(4),), remove=(sphere(6),)), False,
                        "H_4 = Z^2 + Z/2 + Z/3 != Z + Z/2 + Z/3"),
    "extra S^7": (dict(add=(sphere(7),)), False, "H_7 = Z != 0"),
    "extra P^4(2)": (dict(add=(moore(4, 2),)), False,
                     "H_3 = Z + Z/2 + Z/2 + Z/3 != Z + Z/2 + Z/3"),
    "P^5(3) removed": (dict(remove=(moore(5, 3),)), False, "H_4 = Z + Z/2 != Z + Z/2 + Z/3"),
    "extra S^2": (dict(add=(sphere(2),)), False, "H_2 = Z != 0"),
    # H_8 lies outside the audited degrees 0-7, so the check passes.
    "extra S^8": (dict(add=(sphere(8),)), True, "H_i(Sigma^2 M) matches the shifted table"),
}


@pytest.mark.parametrize("name", _TAMPERS)
def test_roundtrip_homology_check_on_tampered_reports(name):
    tamper, passed, detail = _TAMPERS[name]
    report = _tampered(classify_double_suspension(_TAMPER_BASE), **tamper)
    checks = validate_roundtrip(_TAMPER_BASE, report)
    assert checks == reference_roundtrip(_TAMPER_BASE, report)
    assert checks[0] == ("homology", passed, detail)


_pieces = st.one_of(
    st.builds(sphere, st.integers(1, 9)),
    st.builds(sphere, st.integers(8, 10)),  # homology above the audited degrees
    st.builds(moore, st.integers(2, 7), st.sampled_from([2, 4, 8, 3, 9])),
    st.builds(chang_eta, st.integers(2, 5)),
    st.builds(chang_r, st.integers(2, 5), st.integers(1, 4)),
    st.builds(a_tilde, st.integers(2, 4), st.integers(1, 4)),
    st.builds(a_2r_eta2, st.integers(2, 4), st.integers(1, 4)),
)


@given(valid_invariants(), st.sampled_from(["add", "remove", "replace"]), _pieces,
       st.integers(0, 20))
def test_roundtrip_matches_reference_on_one_random_tamper(inv, how, piece, at):
    report = classify_double_suspension(inv)
    assert validate_roundtrip(inv, report) == reference_roundtrip(inv, report)
    victim = report.sigma2.pairs[at % len(report.sigma2.pairs)][0]
    tampered = _tampered(report, add=(piece,) if how != "remove" else (),
                         remove=(victim,) if how != "add" else ())
    assert validate_roundtrip(inv, tampered) == reference_roundtrip(inv, tampered)


# --------------------------------------------------------------------------
# invariant validation
# --------------------------------------------------------------------------

def test_invalid_case_a_without_free_class():
    with pytest.raises(ValueError, match="case A consumes a free degree-4 class; d >= 1 required"):
        invariants(1, 0, (2,), spin=False, sq2=Sq2Case("A"))


def test_invalid_indices():
    with pytest.raises(ValueError, match="theta index j0 must lie in 1..1"):
        invariants(0, 0, (2,), theta=ThetaAction("nontrivial", 2))
    with pytest.raises(ValueError, match="sq2 index must lie in 1..0"):
        invariants(0, 0, (), spin=False, sq2=Sq2Case("B", 1))
    with pytest.raises(ValueError, match="spin manifolds take sq2_case not_applicable"):
        invariants(0, 0, (2,), spin=True, sq2=Sq2Case("B", 1))
    with pytest.raises(ValueError, match="torsion group must have free rank 0"):
        ManifoldInvariants(
            0, 0, FgAbelianGroup(1), True, ThetaAction("trivial"),
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


ALL_BRANCHES = (BRANCH_SPIN_THETA_TRIVIAL, BRANCH_SPIN_THETA_NONTRIVIAL, BRANCH_NONSPIN_CASE_A,
                BRANCH_NONSPIN_CASE_B, BRANCH_NONSPIN_CASE_C)


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
    t2 = FgAbelianGroup(counts=[(f, k) for f, k in inv.torsion.pairs if f.prime == 2])
    return (
        [sphere(4)] * inv.d
        + list(peterson_of_group(4, t2))
        + list(peterson_of_group(5, t2))
    )


def _assemble(inv, c_phi):
    odd = FgAbelianGroup(counts=[(f, k) for f, k in inv.torsion.pairs if f.prime != 2])
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
    torsion = FgAbelianGroup(counts=[(CyclicFactor(2, 1), n), (CyclicFactor(2, 3), n)])
    inv = ManifoldInvariants(MAX_FREE_RANK, MAX_FREE_RANK, torsion, False,
                             ThetaAction("trivial"), Sq2Case("B", n + 1), True)
    assert MAX_FREE_RANK == 10**6
    report = classify_double_suspension(inv)
    checks = validate_roundtrip(inv, report)
    assert [c.name for c in checks] == ["homology", "theta-flag", "sq2-degree-4",
                                        "bockstein-profile"]
    assert all(c.passed for c in checks), checks
    counts = dict(report.sigma2.pairs)
    assert counts[sphere(3)] == counts[sphere(4)] == 10**6
    assert counts[moore(5, 8)] == n - 1
    assert dict(report.sigma.pairs)[chang_r(3, 3)] == 1
    assert len(report.sigma2.pairs) == 8


@pytest.mark.parametrize("m, d, factors", [
    (MAX_FREE_RANK + 1, 0, 0),
    (0, MAX_FREE_RANK + 1, 0),
    (0, 0, MAX_TORSION_FACTORS + 1),
])
def test_invariants_over_the_input_bound_rejected(m, d, factors):
    torsion = FgAbelianGroup(counts=[(CyclicFactor(2, 1), factors)])
    with pytest.raises(ValueError, match=f"m and d must be at most {MAX_FREE_RANK}|"
                                         f"torsion may have at most {MAX_TORSION_FACTORS} factors"):
        ManifoldInvariants(m, d, torsion, True, ThetaAction("trivial"),
                           Sq2Case("not_applicable"), True)
