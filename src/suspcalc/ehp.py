"""2-local cohomotopy of the suspensions via the EHP sequence.

For a decomposition report this module computes the degree-5 cohomotopy
group of the double suspension, the cokernel of the second James-Hopf
homomorphism H_2 (which parametrizes the fibers of the suspension map E
into degree-2 cohomotopy), per-summand Hopf data, and the surjectivity
verdict for E.  The per-summand Hopf data (``hopf_table``) is computed
once per summand and process.  Its facts are rows of ``_HOPF``, keyed by
(kind, n): the cokernel, whether the kernel is trivial, and the rule.
The domain [X, S^3] and codomain [X, S^5] are the cached ``maps_group``
entry groups; in an entry read from a row the domain is None exactly
where ``kernel_trivial`` is.  Two rules stay code: a summand without a
row raises TableMiss, and an odd-order Moore summand vanishes 2-locally
(zero groups, ``kernel_trivial`` None).

The closed cokernel formula keeps one Z/2^(r_j - 1) for every 2-primary
torsion exponent of the manifold plus one Z_(2) per circle factor, with
an extra Z/2^(r_{j1}) exactly when a C^6_{r_{j1}} summand is present;
the degree-5 cohomotopy likewise always carries the full torsion sum
(+)_j Z/2^(r_j) next to the branch-dependent top contribution.  On the
C^6 branch this bookkeeping intentionally follows the closed formulas of
the source results rather than a literal summand-by-summand sum, which
would drop the P^5(2^(r_{j1})) summand that the C^6 top piece replaces
in the wedge (``classifier._top_piece``'s ``replaced``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cache

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
    moore,
    of_kind,
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


def _z2local(rank: int = 1, exponents: Iterable[tuple[int, int]] = ()) -> FgAbelianGroup:
    """Z_(2)^rank (+) (+)_e Z/2^e over ``(e, multiplicity)`` pairs, Z/2^0 dropped."""
    counts = ((CyclicFactor(2, e), k) for e, k in exponents if e > 0)
    return FgAbelianGroup(rank, free_ring=RING_Z2LOCAL, counts=counts)


class HopfEntry(namedtuple("HopfEntry",
                           "summand domain_group codomain_group cokernel kernel_trivial rule")):
    """Restriction of the James-Hopf homomorphism H to one wedge summand.

    ``domain_group`` is [X, S^3] and ``codomain_group`` is [X, S^5],
    2-locally, read from ``maps_group``; the rest is the summand's row of
    ``_HOPF``.  ``domain_group`` is None exactly where the row's
    ``kernel_trivial`` is: for C^6_eta, C^6_r and A^6(eta~_r), whose
    [X, S^3] the tables do not name (the cokernel is still pinned down).
    An odd-order Moore summand has no row of its own: its groups are zero
    and ``kernel_trivial`` is None.  ``rule`` records which catalog fact
    produced the cokernel.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "summand": self.summand.notation,
            "domain": self.domain_group.to_json_dict() if self.domain_group else None,
            "codomain": self.codomain_group.to_json_dict(),
            "cokernel": self.cokernel.to_json_dict(),
            "kernel_trivial": self.kernel_trivial,
            "rule": self.rule,
        }


# H restricted to a summand, by (kind, n): coker(H) as a Z_(2) rank and
# the shift of a Z/2^(r + shift) summand (None: no such summand), r being
# the summand's r or the log2 of its Moore order; whether ker(H) is trivial,
# None where [X, S^3] is not tabulated; and the fact that gives the
# cokernel.
_HOPF = {
    (SPHERE, 3): (0, None, False, "degree-5 cohomotopy of a low sphere is trivial"),
    (SPHERE, 4): (0, None, False, "degree-5 cohomotopy of a low sphere is trivial"),
    (SPHERE, 5): (1, None, False, "H kills eta^2, so the degree-5 identity class is not hit"),
    (SPHERE, 6): (0, None, False, "H(nu') = eta generates [S^6, S^5]"),
    (MOORE, 4): (0, None, False, "a 4-dimensional complex has trivial degree-5 cohomotopy"),
    (MOORE, 5): (0, -1, False, "H(eta-_r) generates the order-2 subgroup of Z/2^r"),
    (CHANG_ETA, 4): (0, None, None, "[C^6_eta, S^5] = 0"),
    (CHANG_R, 4): (0, 0, None, "the EHP sequence pins coker(H) to Z/2^r inside Z/2^(r+1)"),
    (A_TILDE, 3): (0, None, None, "[A^6(eta~_r), S^5] = 0"),
    (A_2R_ETA2, 3): (0, None, True, "H(nu' q_6) = eta q_6 is an isomorphism"),
}


@cache
def hopf_table(summand: ElementaryComplex) -> HopfEntry:
    """Per-summand H data for the summand kinds the classifier emits.

    Cached per summand like ``catalog.maps_group``: a batch meets the same
    few summands again and again.  A summand outside the table raises
    TableMiss on every call.
    """
    row = _HOPF.get((summand.kind, summand.n))
    if row is None:
        raise TableMiss(f"no Hopf data for {summand}")
    if summand.order % 2:
        return HopfEntry(summand, ZERO_GROUP, ZERO_GROUP, ZERO_GROUP, None,
                         "odd-primary summands vanish 2-locally")
    rank, shift, kernel_trivial, rule = row
    domain = None if kernel_trivial is None else maps_group(summand, sphere(3)).group
    codomain = maps_group(summand, sphere(5)).group
    r = summand.r or summand.order.bit_length() - 1
    cokernel = _z2local(rank, () if shift is None else [(r + shift, 1)])
    return HopfEntry(summand, domain, codomain, cokernel, kernel_trivial, rule)


def hopf_rows() -> list[dict]:
    """The ``tables`` dump's rows of the Hopf data of every ``_HOPF`` row,
    at r = 1, 2, 3 (Moore orders 2, 4, 8) where the kind takes a
    parameter, and of P^5(3)."""
    summands = dict.fromkeys(of_kind(kind, n, r) for kind, n in _HOPF for r in (1, 2, 3))
    rows = [{"family": x.family, **hopf_table(x).to_json_dict()} for x in (*summands, moore(5, 3))]
    rows.sort(key=lambda row: (row["family"], row["summand"]))
    return rows


def pi5_double_suspension(report: DecompositionReport) -> FgAbelianGroup:
    """[Sigma^2 M, S^5] 2-locally: Z_(2)^m (+) (+)_j Z/2^(r_j) plus the
    branch top-piece contribution."""
    inv = report.invariants
    extra = maps_group(report.top, sphere(5)).group
    exponents = ((f.exponent, k) for f, k in inv.torsion.two_primary().pairs)
    return _z2local(inv.m, exponents).direct_sum(extra)


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
    out = _z2local(inv.m, ((f.exponent - 1, k) for f, k in inv.torsion.two_primary().pairs))
    return out.direct_sum(hopf_table(report.top).cokernel)


class ESurjectivity(namedtuple("ESurjectivity", "surjective justification")):
    """``surjective`` is None where the verdict is unknown."""

    __slots__ = ()

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


class FiberOfE(namedtuple("FiberOfE", "empty coker cardinality")):
    """The fiber E^(-1)(alpha) over a class in [Sigma M, S^3]: ``coker``
    is its torsor structure when it is non-empty, ``cardinality`` None
    when it is empty or infinite."""

    __slots__ = ()


def fiber_of_E(alpha_in_kernel_H1: bool, report: DecompositionReport) -> FiberOfE:
    """Fibers of E are empty off ker(H_1) and coker(H_2)-torsors on it."""
    if not alpha_in_kernel_H1:
        return FiberOfE(True, None, None)
    coker = coker_H2(report)
    return FiberOfE(False, coker, coker.order())
