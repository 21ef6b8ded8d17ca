from itertools import product
from math import prod

import pytest

from conftest import cyclic, invariants, random_invariants
from suspcalc.abelian import RING_Z2LOCAL, FgAbelianGroup, ZERO_GROUP
from suspcalc.catalog import (
    A_2R_ETA2,
    A_TILDE,
    ETA,
    ETA2,
    MOORE,
    SPHERE,
    TableMiss,
    a_2r_eta2,
    a_eta2,
    a_tilde,
    chang_eta,
    chang_r,
    chang_t,
    maps_group,
    moore,
    sphere,
)
from suspcalc.classifier import (
    BRANCH_NONSPIN_CASE_B,
    BRANCH_NONSPIN_CASE_C,
    BRANCH_SPIN_THETA_NONTRIVIAL,
    BRANCH_SPIN_THETA_TRIVIAL,
    OmittedCase,
    Sq2Case,
    ThetaAction,
    classify_double_suspension,
)
from suspcalc.ehp import (
    _E_RULES,
    _HOPF,
    coker_H2,
    fiber_of_E,
    hopf_table,
    is_E_surjective,
    pi5_double_suspension,
    pi5_suspension,
)


def z2local(rank=1):
    return FgAbelianGroup(rank, free_ring=RING_Z2LOCAL)


# --------------------------------------------------------------------------
# pi^5 of the double suspension
# --------------------------------------------------------------------------

def test_pi5_spin_example():
    report = classify_double_suspension(invariants(1, 0, (4,)))
    assert pi5_double_suspension(report) == z2local().direct_sum(cyclic(4)).direct_sum(cyclic(2))


def test_pi5_four_sphere():
    report = classify_double_suspension(invariants(0, 0))
    assert pi5_double_suspension(report) == cyclic(2)


def test_pi5_case_b_adds_the_chang_cohomotopy():
    inv = invariants(0, 1, (4,), spin=False, sq2=Sq2Case("B", 1))
    report = classify_double_suspension(inv)
    assert report.branch == BRANCH_NONSPIN_CASE_B
    assert pi5_double_suspension(report) == cyclic(4).direct_sum(cyclic(8))


def test_pi5_odd_torsion_is_invisible():
    with_odd = classify_double_suspension(invariants(1, 1, (2, 9)))
    without = classify_double_suspension(invariants(1, 1, (2,)))
    assert pi5_double_suspension(with_odd) == pi5_double_suspension(without)


def test_pi5_suspension_is_z2local_or_unresolved():
    report = classify_double_suspension(invariants(2, 1, (4,)))
    assert pi5_suspension(report) == z2local()
    unresolved = classify_double_suspension(invariants(1, 1, (4,), postnikov=False))
    assert pi5_suspension(unresolved) is None


# --------------------------------------------------------------------------
# coker(H_2)
# --------------------------------------------------------------------------

def test_coker_drops_exponent_one_and_keeps_z2local():
    report = classify_double_suspension(invariants(2, 0, (2, 8)))
    assert coker_H2(report) == z2local(2).direct_sum(cyclic(4))


def test_coker_case_b_extra_summand():
    inv = invariants(0, 1, (4,), spin=False, sq2=Sq2Case("B", 1))
    report = classify_double_suspension(inv)
    assert coker_H2(report) == cyclic(2).direct_sum(cyclic(4))


def test_coker_trivial_manifold():
    report = classify_double_suspension(invariants(0, 0))
    assert coker_H2(report) == ZERO_GROUP


def test_coker_insensitive_to_non_chang_top():
    # every branch without a C^6 summand uses the same closed formula
    for orders, theta, sq2 in [
        ((2, 8), ThetaAction("trivial"), None),
        ((2, 8), ThetaAction("nontrivial", 2), None),
        ((2, 8), ThetaAction("trivial"), Sq2Case("C", 1)),
    ]:
        spin = sq2 is None
        inv = invariants(1, 1, orders, spin=spin, theta=theta,
                         sq2=sq2 or Sq2Case("not_applicable"))
        report = classify_double_suspension(inv)
        assert coker_H2(report) == z2local(1).direct_sum(cyclic(4))


# --------------------------------------------------------------------------
# per-summand additivity
# --------------------------------------------------------------------------

def _torsion_order(group):
    return prod(f.order**k for f, k in group.pairs)


def test_additivity_over_summands_off_the_chang_branch(rng):
    # H is natural, so over a wedge pi^5 and coker(H_2) are the sums over
    # the summands of Sigma^2 M.  For dim X <= N + 1 and N >= 3 the 2-stage
    # Postnikov section of S^N gives the exact sequence
    #   H^(N-1)(X; Z) -> H^(N+1)(X; Z/2) -> [X, S^N] -> H^N(X; Z) -> 0,
    # so the torsion of [Sigma^2 M, S^5] has order at most 2 |T_2|, and the
    # sum meets that bound on every branch.  On case B the closed formulas
    # keep the P^5(2^(r_j1)) summand that C^6_r replaced: pi^5 exceeds the
    # bound by its Z/2^(r_j1), and coker(H_2) keeps its Z/2^(r_j1 - 1).
    branches = {}
    for _ in range(400):
        inv = random_invariants(rng)
        try:
            report = classify_double_suspension(inv)
        except OmittedCase:
            continue
        pi5 = coker = ZERO_GROUP
        for x, k in report.sigma2.pairs:
            pi5 = pi5.direct_sum(maps_group(x, sphere(5)).group.times(k))
            coker = coker.direct_sum(hopf_table(x).cokernel.times(k))
        bound = 2 * _torsion_order(inv.torsion.two_primary())
        assert pi5.free_rank == inv.m and _torsion_order(pi5) <= bound
        closed = (pi5_double_suspension(report), coker_H2(report))
        if report.branch == BRANCH_NONSPIN_CASE_B:
            r = inv.exponent_at(inv.sq2_case.index)
            assert _torsion_order(pi5) == bound
            assert _torsion_order(closed[0]) == bound * 2**r
            assert coker.direct_sum(cyclic(2 ** (r - 1))) == closed[1]
        else:
            assert closed == (pi5, coker)
        branches[report.branch] = branches.get(report.branch, 0) + 1
    assert len(branches) == 5 and branches[BRANCH_NONSPIN_CASE_B] == 50


# --------------------------------------------------------------------------
# hopf_table
# --------------------------------------------------------------------------

def test_hopf_entries():
    entry = hopf_table(moore(5, 2**3))
    assert entry.cokernel == cyclic(4)
    assert entry.domain_group == FgAbelianGroup.of_orders(2, 2)

    assert hopf_table(moore(5, 2)).cokernel == ZERO_GROUP  # trivial for r = 1
    assert hopf_table(a_2r_eta2(3, 2)).cokernel == ZERO_GROUP
    assert hopf_table(a_2r_eta2(3, 2)).kernel_trivial is True
    assert hopf_table(chang_eta(4)).cokernel == ZERO_GROUP
    assert hopf_table(chang_r(4, 3)).cokernel == cyclic(8)
    assert hopf_table(a_tilde(3, 1)).cokernel == ZERO_GROUP
    assert hopf_table(sphere(5)).cokernel == z2local()
    assert hopf_table(sphere(6)).cokernel == ZERO_GROUP
    assert hopf_table(moore(5, 9)).cokernel == ZERO_GROUP

    # An odd-order Moore summand vanishes 2-locally, prime power or not.
    for summand in (moore(4, 15), moore(5, 9)):
        entry = hopf_table(summand)
        assert entry.rule == "odd-primary summands vanish 2-locally"
        assert entry.kernel_trivial is None
        assert entry.domain_group == entry.codomain_group == entry.cokernel == ZERO_GROUP
    # [X, S^3] is not tabulated for these, and the entry says so.
    for summand in (chang_eta(4), chang_r(4, 1), chang_r(4, 3), a_tilde(3, 1), a_tilde(3, 2)):
        entry = hopf_table(summand)
        assert entry.domain_group is None
        assert entry.kernel_trivial is None


def test_hopf_table_miss():
    for summand in (chang_t(4, 1), sphere(7), moore(3, 2), moore(6, 2), sphere(2),
                    chang_eta(3), chang_r(5, 1), a_tilde(2, 1), a_eta2(3)):
        with pytest.raises(TableMiss) as miss:
            hopf_table(summand)
        assert str(miss.value) == f"no Hopf data for {summand}"
    # A Moore order that is neither odd nor a power of 2 misses in maps_group.
    for summand in (moore(4, 6), moore(5, 12)):
        with pytest.raises(TableMiss) as miss:
            hopf_table(summand)
        assert str(miss.value) == f"[{summand}, S^3]"


def test_s5_summands_count_matches_m(rng):
    for _ in range(40):
        inv = random_invariants(rng)
        try:
            report = classify_double_suspension(inv)
        except OmittedCase:
            continue
        s5_count = dict(report.sigma2.pairs).get(sphere(5), 0)
        assert s5_count == inv.m
        assert coker_H2(report).free_rank == inv.m


# --------------------------------------------------------------------------
# exact-sequence bookkeeping, recomputed by brute force
# --------------------------------------------------------------------------

def _hom_multipliers(source_order, target_order):
    # homomorphisms Z/a -> Z/b correspond to multipliers k with k*a = 0 mod b
    return [k for k in range(target_order) if (k * source_order) % target_order == 0]


def test_moore_cokernel_forced_by_exactness():
    # For r >= 2 the sequence (Z/2 + Z/2) --H--> Z/2^r --P--> Z/2^r --E--> Z/2 -> 0
    # with H nonzero forces |coker(H)| = 2^(r-1), whatever the maps are.
    for r in (2, 3, 4):
        order = 2**r
        coker_orders = set()
        # H is determined by the images of the two order-2 generators
        h_images = [
            (a, b)
            for a in _hom_multipliers(2, order)
            for b in _hom_multipliers(2, order)
            if (a, b) != (0, 0)
        ]
        for (a, b), p_mult, e_mult in product(
            h_images, range(order), _hom_multipliers(order, 2)
        ):
            image_h = {(a * x + b * y) % order for x in range(2) for y in range(2)}
            image_p = {(p_mult * x) % order for x in range(order)}
            kernel_p = {x for x in range(order) if (p_mult * x) % order == 0}
            image_e = {(e_mult * x) % 2 for x in range(order)}
            kernel_e = {x for x in range(order) if (e_mult * x) % 2 == 0}
            if image_e != {0, 1}:
                continue  # E must be onto Z/2
            if kernel_e != image_p or kernel_p != image_h:
                continue
            coker_orders.add(order // len(image_h))
        assert coker_orders == {2 ** (r - 1)}, r
    # and the catalog agrees
    for r in (2, 3, 4):
        assert hopf_table(moore(5, 2**r)).cokernel == cyclic(2 ** (r - 1))


# [Y, S^2] for the Y whose double suspension the EHP check below meets,
# as the order of a cyclic group: 0 for Z, and "k" for the Moore order.
# _GROUPS holds no S^2 targets but C^4_eta and C^4_r, since composition
# into S^2 is not linear ((k iota_2) eta_2 = k^2 eta_2), so these stay here:
_INTO_S2 = {
    # [S^k, S^2] for k = 1..4: 0, Z on iota_2, Z on the Hopf map eta_2
    # (Hopf 1931), Z/2 on eta_2 eta_3 (Toda 1962, Prop. 5.1).
    (SPHERE, 1): 1,
    (SPHERE, 2): 0,
    (SPHERE, 3): 0,
    (SPHERE, 4): 2,
    # [P^2(2^r), S^2] = H^2(P^2(2^r); Z) = Z/2^r on the pinch, by Hopf's
    # classification theorem for 2-complexes.
    (MOORE, 2): "k",
    # [P^3(2^r), S^2] = [P^3(2^r), S^3] = H^3 = Z/2^r on eta_2 q_3: the Hopf
    # fibration S^3 -> S^2 -> CP^oo gives this, since H^1 = H^2(; Z) = 0.
    (MOORE, 3): "k",
}


def _cyclic_order(y, target):
    """|[y, target]| as in _INTO_S2 for target S^2, else from maps_group."""
    if target == sphere(2) and (y.kind, y.n) in _INTO_S2:
        order = _INTO_S2[y.kind, y.n]
        return y.order if order == "k" else order
    orders = maps_group(y, target).orders
    assert len(orders) <= 1, y  # cyclic
    return orders[0] if orders else 1


def test_hopf_cokernel_is_the_kernel_of_e():
    # James's 2-local fibration S^2 -> Omega S^3 -> Omega S^5 gives, for a
    # complex Y, the exact sequence
    #   [Sigma^2 Y, S^3] -H-> [Sigma^2 Y, S^5] -P-> [Y, S^2] -E-> [Sigma Y, S^3],
    # so on X = Sigma^2 Y, coker(H) = ker(E).  On every Y below, E takes the
    # generator to the generator (iota_2, eta_2, eta_2 eta_3, the pinch,
    # eta_2 q_3 and eta q_3 suspend to iota, eta, eta^2, q_3, eta q_4 and
    # eta q_4), so it is onto wherever [Y, S^2] is nonzero, and ker(E) is
    # Z for Z onto a finite group, else of order |[Y, S^2]| / |[Sigma Y, S^3]|.
    ys = [sphere(k) for k in range(1, 5)]
    ys += [moore(n, 2**r) for n in (2, 3) for r in range(1, 5)]
    ys += [chang_eta(2), *(chang_r(2, r) for r in range(1, 5))]
    assert len(ys) == 17
    for y in ys:
        a, b = _cyclic_order(y, sphere(2)), _cyclic_order(y.suspend(), sphere(3))
        if a == 1 or a == b == 0:
            kernel = (0, 1)
        elif a == 0:
            kernel = (1, 1)
        else:
            assert b and a % b == 0, y  # finite onto finite
            kernel = (0, a // b)
        cokernel = hopf_table(y.suspend().suspend()).cokernel
        assert (cokernel.free_rank, _torsion_order(cokernel)) == kernel, y
    # Every _HOPF row but the two whose desuspension is below the catalog.
    assert {(y.kind, y.n + 2) for y in ys} == set(_HOPF) - {(A_TILDE, 3), (A_2R_ETA2, 3)}


def test_pi6_s3_relations():
    # 2 nu' = eta^3 and H(nu') = eta inside the stored tables: the S^6
    # Hopf entry sends the order-4 generator onto the order-2 target, so
    # eta^3 = 2 nu' must die under H.
    from suspcalc.normalizer import GeneratorSymbol, compose_relation

    eta_cubed = compose_relation(GeneratorSymbol(ETA, sphere(4), sphere(3)),
                                 GeneratorSymbol(ETA2, sphere(6), sphere(4)))
    assert eta_cubed.coefficients() == {"nu'": 2}
    entry = hopf_table(sphere(6))
    assert entry.domain_group == cyclic(4)
    assert entry.codomain_group == cyclic(2)
    assert entry.cokernel == ZERO_GROUP  # H surjective, so H(nu') = eta
    assert entry.kernel_trivial is False  # and 2 nu' is in the kernel


# --------------------------------------------------------------------------
# E-surjectivity and fibers
# --------------------------------------------------------------------------

def test_e_surjective_cases():
    assert is_E_surjective(invariants(1, 1, (2,))).surjective is True
    inv_b = invariants(1, 1, (2, 4), theta=ThetaAction("nontrivial", 1))
    assert is_E_surjective(inv_b).surjective is True
    unknown = is_E_surjective(invariants(1, 1, (2,), postnikov=False))
    assert unknown.surjective is None
    for inv in (invariants(1, 1, (2,)), inv_b, invariants(1, 1, (2,), postnikov=False)):
        assert is_E_surjective(classify_double_suspension(inv)) == is_E_surjective(inv)


# The group each rule text names, as (branch, invariants whose top piece
# has exponent r, the text, the exponent e of the named group Z/2^e).
_E_RULE_GROUPS = [
    (BRANCH_SPIN_THETA_NONTRIVIAL,
     lambda r: invariants(0, 0, (2**r,), theta=ThetaAction("nontrivial", 1)),
     "[A^5(2^r eta^2), S^3] ~ Z/2^(r+1)", lambda r: r + 1),
    (BRANCH_NONSPIN_CASE_B,
     lambda r: invariants(0, 0, (2**r,), spin=False, sq2=Sq2Case("B", 1)),
     "[C^5_r, S^3] ~ Z/2", lambda r: 1),
    (BRANCH_NONSPIN_CASE_C,
     lambda r: invariants(0, 0, (2**r,), spin=False, sq2=Sq2Case("C", 1)),
     "[A^5(eta~_r), S^3] ~ Z/2^(r-1)", lambda r: r - 1),
]


def test_e_rules_name_the_tabulated_groups():
    # Each text is checked against the summand E meets: the desuspended top piece.
    for branch, make, text, exponent in _E_RULE_GROUPS:
        assert text in _E_RULES[branch]
        for r in (1, 2, 3, 4):
            report = classify_double_suspension(make(r))
            assert report.branch == branch
            source = report.top.desuspend()
            named = f"[{source}, S^3]".replace(f"_{r}", "_r").replace(f"2^{r}", "2^r")
            assert text.startswith(named), (text, r)
            assert maps_group(source, sphere(3)).group == cyclic(2 ** exponent(r)), (text, r)
    report = classify_double_suspension(invariants(1, 1, (4,)))
    assert report.branch == BRANCH_SPIN_THETA_TRIVIAL
    assert "[S^5, S^3]" in _E_RULES[report.branch] and "eta^2" in _E_RULES[report.branch]
    assert report.top.desuspend() == sphere(5)
    assert maps_group(sphere(5), sphere(3)).generators == ("eta^2",)
    assert maps_group(sphere(5), sphere(3)).group == cyclic(2)


def test_e_surjective_on_every_postnikov_trivial_branch(rng):
    for _ in range(50):
        inv = random_invariants(rng, postnikov=True)
        try:
            verdict = is_E_surjective(inv)
        except OmittedCase:
            continue
        assert verdict.surjective is True


def test_fiber_of_e():
    report = classify_double_suspension(invariants(0, 0, (4,)))
    fiber = fiber_of_E(True, report)
    assert not fiber.empty
    assert fiber.coker == cyclic(2)
    assert fiber.cardinality == 2

    assert fiber_of_E(False, report).empty

    singleton = fiber_of_E(True, classify_double_suspension(invariants(0, 0)))
    assert singleton.cardinality == 1

    infinite = fiber_of_E(True, classify_double_suspension(invariants(2, 0)))
    assert infinite.cardinality is None
    assert infinite.coker == z2local(2)
