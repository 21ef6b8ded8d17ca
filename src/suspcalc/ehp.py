"""2-local cohomotopy of the suspensions via the EHP sequence.

For a decomposition report this module computes the degree-5 cohomotopy
group of the double suspension, the cokernel of the second James-Hopf
homomorphism H_2 (which parametrizes the fibers of the suspension map E
into degree-2 cohomotopy), per-summand Hopf data, and the surjectivity
verdict for E.

The closed cokernel formula keeps one Z/2^(r_j - 1) for every 2-primary
torsion exponent of the manifold plus one Z_(2) per circle factor, with
an extra Z/2^(r_{j1}) exactly when a C^6_{r_{j1}} summand is present;
the degree-5 cohomotopy likewise always carries the full torsion sum
(+)_j Z/2^(r_j) next to the branch-dependent top contribution.  On the
C^6 branch this bookkeeping intentionally follows the closed formulas of
the source results rather than a literal summand-by-summand sum, which
would drop the quotiented Moore factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .abelian import RING_Z2LOCAL, CyclicFactor, FgAbelianGroup, ZERO_GROUP
from .catalog import (
    A_2R_ETA2,
    A_TILDE,
    CHANG_ETA,
    CHANG_R,
    MOORE,
    SPHERE,
    ElementaryComplex,
    TableMiss,
    maps_group,
    sphere,
)
from .classifier import (
    BRANCH_NONSPIN_CASE_A,
    BRANCH_NONSPIN_CASE_B,
    BRANCH_NONSPIN_CASE_C,
    BRANCH_SPIN_THETA_NONTRIVIAL,
    BRANCH_SPIN_THETA_TRIVIAL,
    DecompositionReport,
    ManifoldInvariants,
    Unresolved,
    classify_double_suspension,
)


class UnsupportedBranch(ValueError):
    """The report does not come from a supported classifier branch."""


def _z2local(rank: int = 1, exponents: Iterable[int] = ()) -> FgAbelianGroup:
    """Z_(2)^rank (+) (+)_e Z/2^e over ``exponents``, with Z/2^0 dropped."""
    torsion = tuple(CyclicFactor(2, e) for e in exponents if e > 0)
    return FgAbelianGroup(rank, torsion, RING_Z2LOCAL)


def _cyclic2(exponent: int) -> FgAbelianGroup:
    """Z/2^exponent, with Z/2^0 silently dropped to the zero group."""
    if exponent <= 0:
        return ZERO_GROUP
    return FgAbelianGroup.of_orders(2**exponent)


@dataclass(frozen=True)
class HopfEntry:
    """Restriction of the James-Hopf homomorphism H to one wedge summand.

    ``domain_group`` is [X, S^3] and ``codomain_group`` is [X, S^5],
    2-locally; ``domain_group`` is None where the tables do not name the
    group (the cokernel is still pinned down).  ``rule`` records which
    catalog fact produced the cokernel.
    """

    summand: ElementaryComplex
    domain_group: FgAbelianGroup | None
    codomain_group: FgAbelianGroup
    cokernel: FgAbelianGroup
    kernel_trivial: bool | None
    rule: str

    def to_json_dict(self) -> dict:
        return {
            "summand": self.summand.notation,
            "domain": self.domain_group.to_json_dict() if self.domain_group else None,
            "codomain": self.codomain_group.to_json_dict(),
            "cokernel": self.cokernel.to_json_dict(),
            "kernel_trivial": self.kernel_trivial,
            "rule": self.rule,
        }


def _group_of(source: ElementaryComplex, target: ElementaryComplex) -> FgAbelianGroup:
    return maps_group(source, target).group


def hopf_table(summand: ElementaryComplex) -> HopfEntry:
    """Per-summand H data for the summand kinds the classifier emits."""
    s3, s5 = sphere(3), sphere(5)
    if summand.kind == SPHERE and 3 <= summand.n <= 6:
        domain = _group_of(summand, s3)
        codomain = _group_of(summand, s5)
        if summand.n == 5:
            return HopfEntry(
                summand, domain, codomain, _z2local(), False,
                "H kills eta^2, so the degree-5 identity class is not hit",
            )
        if summand.n == 6:
            return HopfEntry(
                summand, domain, codomain, ZERO_GROUP, False,
                "H(nu') = eta generates [S^6, S^5]",
            )
        return HopfEntry(
            summand, domain, codomain, ZERO_GROUP, False,
            "degree-5 cohomotopy of a low sphere is trivial",
        )
    if summand.kind == MOORE and summand.n in (4, 5):
        if summand.order % 2:
            return HopfEntry(
                summand, ZERO_GROUP, ZERO_GROUP, ZERO_GROUP, None,
                "odd-primary summands vanish 2-locally",
            )
        r = summand.order.bit_length() - 1
        domain = _group_of(summand, s3)
        codomain = _group_of(summand, s5)
        if summand.n == 4:
            return HopfEntry(
                summand, domain, codomain, ZERO_GROUP, False,
                "a 4-dimensional complex has trivial degree-5 cohomotopy",
            )
        return HopfEntry(
            summand, domain, codomain, _cyclic2(r - 1), False,
            "H(eta-_r) generates the order-2 subgroup of Z/2^r",
        )
    if summand.kind == CHANG_ETA and summand.n == 4:
        return HopfEntry(
            summand, None, _group_of(summand, s5), ZERO_GROUP, None,
            "[C^6_eta, S^5] = 0",
        )
    if summand.kind == CHANG_R and summand.n == 4:
        return HopfEntry(
            summand, None, _group_of(summand, s5), _cyclic2(summand.r), None,
            "the EHP sequence pins coker(H) to Z/2^r inside Z/2^(r+1)",
        )
    if summand.kind == A_TILDE and summand.n == 3:
        return HopfEntry(
            summand, None, _group_of(summand, s5), ZERO_GROUP, None,
            "[A^6(eta~_r), S^5] = 0",
        )
    if summand.kind == A_2R_ETA2 and summand.n == 3:
        return HopfEntry(
            summand, _group_of(summand, s3), _group_of(summand, s5), ZERO_GROUP, True,
            "H(nu' q_6) = eta q_6 is an isomorphism",
        )
    raise TableMiss(f"no Hopf data for {summand}")


def _branch_top(report: DecompositionReport) -> ElementaryComplex:
    tops = {
        BRANCH_SPIN_THETA_TRIVIAL: SPHERE,
        BRANCH_SPIN_THETA_NONTRIVIAL: A_2R_ETA2,
        BRANCH_NONSPIN_CASE_A: CHANG_ETA,
        BRANCH_NONSPIN_CASE_B: CHANG_R,
        BRANCH_NONSPIN_CASE_C: A_TILDE,
    }
    kind = tops.get(report.branch)
    if kind is None:
        raise UnsupportedBranch(f"branch {report.branch!r} has no cohomotopy bookkeeping")
    if kind == SPHERE:
        return sphere(6)
    for summand, _ in report.sigma2.pairs:
        if summand.kind == kind:
            return summand
    raise UnsupportedBranch(f"report for {report.branch} lacks its top summand")


def pi5_double_suspension(report: DecompositionReport) -> FgAbelianGroup:
    """[Sigma^2 M, S^5] 2-locally: Z_(2)^m (+) (+)_j Z/2^(r_j) plus the
    branch top-piece contribution."""
    inv = report.invariants
    top = _branch_top(report)
    extra = maps_group(top, sphere(5)).group
    return _z2local(inv.m, inv.two_exponents).direct_sum(extra)


def pi5_suspension(report: DecompositionReport) -> FgAbelianGroup | None:
    """[Sigma M, S^5] 2-locally, None when the suspension is unresolved.

    Only the degree-5 top piece contributes; every resolved branch
    yields one Z_(2) summand.
    """
    if isinstance(report.sigma, Unresolved):
        return None
    out = ZERO_GROUP
    for summand, k in report.sigma.pairs:
        if summand.top_dim < 5:
            continue
        out = out.direct_sum(maps_group(summand, sphere(5)).group.times(k))
    return out


def coker_H2(report: DecompositionReport) -> FgAbelianGroup:
    """Cokernel of H_2: [Sigma^2 M, S^3] -> [Sigma^2 M, S^5], 2-locally."""
    inv = report.invariants
    top = _branch_top(report)
    out = _z2local(inv.m, (r - 1 for r in inv.two_exponents))
    return out.direct_sum(hopf_table(top).cokernel)


@dataclass(frozen=True)
class ESurjectivity:
    surjective: bool | None  # None = unknown
    justification: str

    def __str__(self):
        verdict = {True: "surjective", False: "not surjective", None: "unknown"}
        return f"{verdict[self.surjective]} ({self.justification})"


_E_RULES = {
    BRANCH_SPIN_THETA_TRIVIAL: (
        "H_1 restricts to H: [S^5, S^3] -> [S^5, S^5], which kills eta^2"
    ),
    BRANCH_SPIN_THETA_NONTRIVIAL: (
        "H_1 restricts to [A^5(2^r eta^2), S^3] ~ Z/2^(r+1) -> Z_(2), "
        "which is trivial on torsion"
    ),
    BRANCH_NONSPIN_CASE_A: (
        "H_1 is controlled by the degree-5 two-cell complex, whose "
        "degree-3 cohomotopy maps trivially onto the torsion-free target"
    ),
    BRANCH_NONSPIN_CASE_B: (
        "H_1 restricts to [C^5_r, S^3] ~ Z/2 -> Z_(2), which is trivial"
    ),
    BRANCH_NONSPIN_CASE_C: (
        "H_1 restricts to [A^5(eta~_r), S^3] ~ Z/2^(r-1) -> Z_(2), "
        "which is trivial on torsion"
    ),
}


def is_E_surjective(x: "ManifoldInvariants | DecompositionReport") -> ESurjectivity:
    """Surjectivity of E: degree-2 cohomotopy -> [Sigma M, S^3], from the
    invariants or from their decomposition report.

    All resolved branches force H_1 = 0, hence surjectivity by exactness;
    without the Postnikov hypothesis the verdict stays open.
    """
    report = classify_double_suspension(x) if isinstance(x, ManifoldInvariants) else x
    if isinstance(report.sigma, Unresolved):
        return ESurjectivity(
            None,
            "the degree-1 Postnikov square is not declared trivial; the "
            "suspension decomposition, hence H_1, is not pinned down",
        )
    return ESurjectivity(True, _E_RULES[report.branch])


@dataclass(frozen=True)
class FiberOfE:
    """The fiber E^(-1)(alpha) over a class in [Sigma M, S^3]."""

    empty: bool
    coker: FgAbelianGroup | None  # torsor structure when non-empty
    cardinality: int | None  # None when empty or infinite

    def describe(self) -> str:
        if self.empty:
            return "empty (the class is not in the kernel of H_1)"
        if self.cardinality is None:
            return f"in bijection with {self.coker} (infinite)"
        if self.cardinality == 1:
            return "a singleton"
        return f"in bijection with {self.coker} ({self.cardinality} elements)"


def fiber_of_E(alpha_in_kernel_H1: bool, report: DecompositionReport) -> FiberOfE:
    """Fibers of E are empty off ker(H_1) and coker(H_2)-torsors on it."""
    if not alpha_in_kernel_H1:
        return FiberOfE(True, None, None)
    coker = coker_H2(report)
    return FiberOfE(False, coker, coker.order())
