"""Decision engine for the wedge decomposition of the (double) suspension
of a closed smooth connected orientable 4-manifold.

The input is the record of algebraic invariants (Betti data, torsion,
spin flag, secondary-operation action, the Sq^2/Bockstein case selector
and the degree-1 Postnikov-square triviality flag); the output is the
exact wedge of catalog complexes for the double suspension, the
desuspended wedge for the single suspension when the Postnikov square
permits it, and the intermediate homology-section stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .abelian import MAX_FACTOR_ORDER, CyclicFactor, FgAbelianGroup, ZERO_GROUP
from .catalog import (
    ElementaryComplex,
    Notation,
    WedgeComplex,
    a_2r_eta2,
    a_tilde,
    bockstein_profile,
    chang_eta,
    chang_r,
    homology_by_degree,
    moore_pairs,
    sphere,
    sq2_is_nonzero,
    theta_flag,
)
# Not called here but bound: perfbench/tracing.py wraps each catalog
# function it traces under its name in this module.
from .catalog import integral_homology, peterson_of_group  # noqa: F401

# Branch identifiers: spin cases split on the secondary operation, the
# non-spin/theta-trivial cases on the Sq^2/Bockstein selector A/B/C.
BRANCH_SPIN_THETA_TRIVIAL = "spin-theta-trivial"
BRANCH_SPIN_THETA_NONTRIVIAL = "spin-theta-nontrivial"
BRANCH_NONSPIN_CASE_A = "nonspin-case-a"
BRANCH_NONSPIN_CASE_B = "nonspin-case-b"
BRANCH_NONSPIN_CASE_C = "nonspin-case-c"

ALL_BRANCHES = (
    BRANCH_SPIN_THETA_TRIVIAL,
    BRANCH_SPIN_THETA_NONTRIVIAL,
    BRANCH_NONSPIN_CASE_A,
    BRANCH_NONSPIN_CASE_B,
    BRANCH_NONSPIN_CASE_C,
)


class InvalidInvariants(ValueError):
    """The invariant record violates its own consistency constraints."""


class OmittedCase(ValueError):
    """Non-spin with nontrivial secondary-operation action: the
    classification declines this case ("We omit the discussion")."""


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number", type(None): "null"}


def json_fields(data, where: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> dict:
    """``data`` itself, once it is an object holding every ``required``
    field and no field outside ``required`` and ``optional``."""
    if type(data) is not dict:
        raise InvalidInvariants(f"{where} must be an object, not {_json_type(data)}")
    unknown = set(data).difference(required, optional)
    if unknown:
        raise InvalidInvariants(f"unknown field {min(unknown)!r} in {where}")
    for key in required:
        if key not in data:
            raise InvalidInvariants(f"missing field {key!r} in {where}")
    return data


def json_value(data: dict, key: str, kind: type, where: str, default=None):
    """``data[key]`` when its type is exactly ``kind`` (so ``true`` is no
    integer and ``1.0`` is none either), ``default`` when it is absent."""
    if key not in data:
        return default
    value = data[key]
    if type(value) is not kind:
        raise InvalidInvariants(
            f"{key!r} in {where} must be {_JSON_TYPES[kind]}, not {_json_type(value)}"
        )
    return value


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


# Input bounds.  Wedges and torsion groups cost what their distinct
# summands and factors cost, but printed wedges and groups, the j-indices
# and the Bockstein audit list every copy; these keep time, memory and
# output size bounded.
# Every prime**exponent stays below abelian.MAX_FACTOR_ORDER.
MAX_FREE_RANK = 10**6  # m and d
MAX_TORSION_FACTORS = 10**4  # summed multiplicity of the torsion items


THETA_TRIVIAL = "trivial"
THETA_NONTRIVIAL = "nontrivial"

SQ2_NOT_APPLICABLE = "not_applicable"
SQ2_CASE_A = "A"
SQ2_CASE_B = "B"
SQ2_CASE_C = "C"


@dataclass(frozen=True)
class ThetaAction:
    action: str  # "trivial" | "nontrivial"
    j0: int | None = None  # 1-based index into the sorted 2-exponents

    def __post_init__(self):
        if self.action not in (THETA_TRIVIAL, THETA_NONTRIVIAL):
            raise InvalidInvariants(f"unknown theta action {self.action!r}")
        if self.action == THETA_NONTRIVIAL and self.j0 is None:
            raise InvalidInvariants("nontrivial theta action needs an index j0")
        if self.action == THETA_TRIVIAL and self.j0 is not None:
            raise InvalidInvariants("trivial theta action carries no index")

    @property
    def nontrivial(self) -> bool:
        return self.action == THETA_NONTRIVIAL


@dataclass(frozen=True)
class Sq2Case:
    case: str  # "not_applicable" | "A" | "B" | "C"
    index: int | None = None  # j1 for case B, j2 for case C

    def __post_init__(self):
        if self.case not in (SQ2_NOT_APPLICABLE, SQ2_CASE_A, SQ2_CASE_B, SQ2_CASE_C):
            raise InvalidInvariants(f"unknown sq2 case {self.case!r}")
        needs_index = self.case in (SQ2_CASE_B, SQ2_CASE_C)
        if needs_index and self.index is None:
            raise InvalidInvariants(f"case {self.case} needs an index")
        if not needs_index and self.index is not None:
            raise InvalidInvariants(f"case {self.case} carries no index")


@dataclass(frozen=True)
class ManifoldInvariants:
    """Input record of the classifier; all entries are declared data.

    ``m`` and ``d`` are the free ranks of first and second homology,
    ``torsion`` the common torsion subgroup of both.  The index fields
    point into the ascending list of 2-primary exponents r_1 <= ... <= r_n.
    """

    m: int
    d: int
    torsion: FgAbelianGroup
    spin: bool
    theta: ThetaAction
    sq2_case: Sq2Case
    postnikov_trivial: bool
    label: str | None = None

    def __post_init__(self):
        if self.m < 0 or self.d < 0:
            raise InvalidInvariants("m and d must be non-negative")
        if max(self.m, self.d) > MAX_FREE_RANK:
            raise InvalidInvariants(f"m and d must be at most {MAX_FREE_RANK}")
        if sum(k for _, k in self.torsion.pairs) > MAX_TORSION_FACTORS:
            raise InvalidInvariants(f"torsion may have at most {MAX_TORSION_FACTORS} factors "
                                    "(summed multiplicity)")
        if not self.torsion.is_torsion:
            raise InvalidInvariants("torsion group must have free rank 0")
        n = len(self.two_exponents)
        if self.theta.nontrivial and not 1 <= self.theta.j0 <= n:
            raise InvalidInvariants(f"theta index j0 must lie in 1..{n}")
        if self.spin and self.sq2_case.case != SQ2_NOT_APPLICABLE:
            raise InvalidInvariants("spin manifolds take sq2_case not_applicable")
        if not self.spin and self.sq2_case.case == SQ2_NOT_APPLICABLE:
            raise InvalidInvariants("non-spin manifolds need sq2_case A, B or C")
        if self.sq2_case.case == SQ2_CASE_A and not self.spin and self.d < 1:
            raise InvalidInvariants("case A consumes a free degree-4 class; d >= 1 required")
        if self.sq2_case.case in (SQ2_CASE_B, SQ2_CASE_C):
            if not 1 <= self.sq2_case.index <= n:
                raise InvalidInvariants(f"sq2 index must lie in 1..{n}")

    @cached_property
    def two_exponents(self) -> tuple[int, ...]:
        return self.torsion.two_primary_exponents()

    def exponent_at(self, index: int) -> int:
        return self.two_exponents[index - 1]

    @cached_property
    def _homology_groups(self) -> dict[int, FgAbelianGroup]:
        """The nonzero degrees of ``homology``, each group built once."""
        return {
            1: FgAbelianGroup.free(self.m).direct_sum(self.torsion),
            2: FgAbelianGroup.free(self.d).direct_sum(self.torsion),
            3: FgAbelianGroup.free(self.m),
            4: FgAbelianGroup.free(1),
        }

    def homology(self, i: int) -> FgAbelianGroup:
        """Reduced integral homology of the manifold itself."""
        return self._homology_groups.get(i, ZERO_GROUP)

    # ----- JSON descriptor form ------------------------------------------

    def to_json_dict(self) -> dict:
        theta: dict = {"action": self.theta.action}
        if self.theta.j0 is not None:
            theta["j0"] = self.theta.j0
        sq2: dict = {"case": self.sq2_case.case}
        if self.sq2_case.index is not None:
            key = "j1" if self.sq2_case.case == SQ2_CASE_B else "j2"
            sq2[key] = self.sq2_case.index
        out = {
            "m": self.m,
            "d": self.d,
            "torsion": self.torsion.to_json_dict()["torsion"],
            "spin": self.spin,
            "theta": theta,
            "sq2_case": sq2,
            "postnikov_trivial": self.postnikov_trivial,
        }
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ManifoldInvariants":
        """Parse a JSON descriptor: the one check of its shape and types.

        Ranges and enums are checked by the records built from it.
        """
        required = ("m", "d", "spin", "theta", "sq2_case", "postnikov_trivial")
        json_fields(data, "descriptor", required, ("label", "torsion"))
        items = json_value(data, "torsion", list, "descriptor", [])
        for i, item in enumerate(items):
            where = f"torsion[{i}]"
            json_fields(item, where, ("prime", "exponent"), ("multiplicity",))
            for key in item:
                json_value(item, key, int, where)
            if not _order_below_bound(item["prime"], item["exponent"]):
                bits = MAX_FACTOR_ORDER.bit_length() - 1
                raise InvalidInvariants(f"{where}: prime**exponent must be below 2**{bits}")
        theta_data = json_fields(data["theta"], "theta", ("action",), ("j0",))
        theta = ThetaAction(
            json_value(theta_data, "action", str, "theta"),
            json_value(theta_data, "j0", int, "theta"),
        )
        sq2_data = json_fields(data["sq2_case"], "sq2_case", ("case",), ("j1", "j2"))
        case = json_value(sq2_data, "case", str, "sq2_case")
        key, stray = ("j1", "j2") if case == SQ2_CASE_B else ("j2", "j1")
        if stray in sq2_data:
            raise InvalidInvariants(f"sq2_case {case!r} takes no {stray}")
        label = json_value(data, "label", str, "descriptor")
        if label is not None:
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, which no output can print
                raise InvalidInvariants("'label' in descriptor must be valid Unicode") from None
        return cls(
            m=json_value(data, "m", int, "descriptor"),
            d=json_value(data, "d", int, "descriptor"),
            torsion=FgAbelianGroup.from_json_dict({"torsion": items}),
            spin=json_value(data, "spin", bool, "descriptor"),
            theta=theta,
            sq2_case=Sq2Case(case, json_value(sq2_data, key, int, "sq2_case")),
            postnikov_trivial=json_value(data, "postnikov_trivial", bool, "descriptor"),
            label=label,
        )


def _order_below_bound(prime: int, exponent: int) -> bool:
    """``prime**exponent < MAX_FACTOR_ORDER``, decided without raising a
    large number to a large power; exponents below 1 and primes below 2
    pass, for the factor's own checks to reject."""
    if exponent < 1 or prime < 2:
        return True
    return (exponent < MAX_FACTOR_ORDER.bit_length() and prime < MAX_FACTOR_ORDER
            and prime**exponent < MAX_FACTOR_ORDER)


@dataclass(frozen=True)
class Unresolved:
    """Placeholder for a suspension decomposition the hypotheses do not pin down."""

    reason: str


@dataclass(frozen=True)
class StageDecompositions:
    """The homology-section stages of the suspension pipeline.

    ``w4`` is the split form, available only when the Postnikov square is
    trivial; otherwise ``w4_symbolic`` carries the unsplit description
    with the symbolic cofiber remainder C_{g2}.
    """

    w3: WedgeComplex
    w4: WedgeComplex | None
    w4_symbolic: Notation | None
    sigma_w4: WedgeComplex

    def to_json_dict(self) -> dict:
        return {
            "W3": self.w3.notation,
            "W4": self.w4.notation if self.w4 is not None else {"symbolic": self.w4_symbolic},
            "SigmaW4": self.sigma_w4.notation,
        }


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class DecompositionReport:
    """``top`` is the branch's degree-6 summand of ``sigma2``.

    ``stages`` is not a field: the three stage wedges are built from the
    invariants on first read, which only ``classify --stages`` makes.
    """

    invariants: ManifoldInvariants
    branch: str
    sigma2: WedgeComplex
    sigma: WedgeComplex | Unresolved
    top: ElementaryComplex
    notes: tuple[str, ...] = ()

    @cached_property
    def stages(self) -> StageDecompositions:
        return stage_decompositions(self.invariants)

    def to_json_dict(self, level: int = 2, stages: bool = True) -> dict:
        """The single suspension alone at ``level`` 1, both suspensions
        and, with ``stages``, the stages at level 2; each wedge that goes
        into it is rendered once."""
        if isinstance(self.sigma, Unresolved):
            sigma: object = {"unresolved": True, "note": self.sigma.reason}
        else:
            sigma = self.sigma.notation
        if level == 1:
            return {"label": self.invariants.label, "branch": self.branch, "sigma": sigma,
                    "notes": list(self.notes)}
        out = {
            "label": self.invariants.label,
            "branch": self.branch,
            "sigma2": self.sigma2.notation,
            "sigma": sigma,
        }
        if stages:
            out["stages"] = self.stages.to_json_dict()
        out["notes"] = list(self.notes)
        out["invariants"] = self.invariants.to_json_dict()
        return out


def stage_decompositions(inv: ManifoldInvariants) -> StageDecompositions:
    """The three pipeline stages W3, W4 and Sigma W4."""
    T = inv.torsion
    p3, p4, p5 = (moore_pairs(n, T) for n in (3, 4, 5))
    w3 = WedgeComplex(counts=((sphere(3), inv.d), *p3, *p4))
    sigma_w4 = WedgeComplex(counts=((sphere(4), inv.d), *p4, *p5, (sphere(5), inv.m)))
    if inv.postnikov_trivial or not inv.two_exponents:
        w4 = WedgeComplex(counts=(*w3.pairs, (sphere(4), inv.m)))
        return StageDecompositions(w3, w4, None, sigma_w4)
    known = WedgeComplex(counts=((sphere(3), inv.d), *p4))
    symbolic = Notation(f"{known.notation} v C_{{g2}}" if not known.is_point else "C_{g2}")
    return StageDecompositions(w3, None, symbolic, sigma_w4)


def _top_piece(inv: ManifoldInvariants) -> tuple[str, ElementaryComplex, CyclicFactor | None, int]:
    """Branch id, degree-6 top summand, quotiented factor, quotient slot (4 or 5)."""
    exps = inv.two_exponents
    if inv.spin:
        if not inv.theta.nontrivial:
            return BRANCH_SPIN_THETA_TRIVIAL, sphere(6), None, 0
        r = exps[inv.theta.j0 - 1]
        return BRANCH_SPIN_THETA_NONTRIVIAL, a_2r_eta2(3, r), CyclicFactor(2, r), 4
    if inv.theta.nontrivial:
        raise OmittedCase(
            "non-spin with nontrivial secondary-operation action on degree-1 "
            'cohomology: "We omit the discussion" of this case; no decomposition '
            "is emitted"
        )
    case = inv.sq2_case.case
    if case == SQ2_CASE_A:
        return BRANCH_NONSPIN_CASE_A, chang_eta(4), None, 0
    if case == SQ2_CASE_B:
        r = exps[inv.sq2_case.index - 1]
        return BRANCH_NONSPIN_CASE_B, chang_r(4, r), CyclicFactor(2, r), 5
    r = exps[inv.sq2_case.index - 1]
    return BRANCH_NONSPIN_CASE_C, a_tilde(3, r), CyclicFactor(2, r), 4


def classify_double_suspension(inv: ManifoldInvariants) -> DecompositionReport:
    """The exact wedge decomposition of the double suspension."""
    branch, top, removed, slot = _top_piece(inv)
    T = inv.torsion
    t4 = T.quotient_by_factor(removed) if slot == 4 else T
    t5 = T.quotient_by_factor(removed) if slot == 5 else T
    d4 = inv.d - 1 if branch == BRANCH_NONSPIN_CASE_A else inv.d
    sigma2 = WedgeComplex(counts=(
        (sphere(3), inv.m),
        (sphere(5), inv.m),
        (sphere(4), d4),
        *moore_pairs(4, t4),
        *moore_pairs(5, t5),
        (top, 1),
    ))

    notes: list[str] = []
    if branch == BRANCH_NONSPIN_CASE_B:
        notes.append(
            "the index j1 is taken as declared input; the hypothesis clause "
            "mixing degree-2 and degree-4 classes is ambiguous in the source "
            "statement"
        )
    if branch == BRANCH_NONSPIN_CASE_C:
        notes.append("j2 is the minimum of the qualifying indices")

    sigma: WedgeComplex | Unresolved
    if inv.postnikov_trivial:
        sigma = sigma2.desuspend()
    elif not inv.two_exponents:
        sigma = sigma2.desuspend()
        notes.append(
            "postnikov_trivial was not set, but the 2-primary torsion is zero, "
            "which forces the degree-1 Postnikov square to vanish"
        )
    else:
        sigma = Unresolved(
            "the degree-1 Postnikov square is not declared trivial, so the "
            "double-suspension decomposition does not desuspend"
        )

    return DecompositionReport(
        invariants=inv,
        branch=branch,
        sigma2=sigma2,
        sigma=sigma,
        top=top,
        notes=tuple(notes),
    )


def classify_suspension(inv: ManifoldInvariants) -> WedgeComplex | Unresolved:
    """Decomposition of the single suspension, when it is pinned down."""
    return classify_double_suspension(inv).sigma


def validate_roundtrip(inv: ManifoldInvariants, report: DecompositionReport) -> list[CheckResult]:
    """Consistency audit of a report against its input invariants."""
    checks: list[CheckResult] = []

    ok = True
    detail = []
    homology = homology_by_degree(report.sigma2)
    for i in range(0, 8):
        expected = inv.homology(i - 2)
        actual = homology[i]
        if actual != expected:
            ok = False
            detail.append(f"H_{i} = {actual} != {expected}")
    checks.append(
        CheckResult(
            "homology",
            ok,
            "; ".join(detail) if detail else "H_i(Sigma^2 M) matches the shifted table",
        )
    )

    flag = theta_flag(report.sigma2)
    checks.append(
        CheckResult(
            "theta-flag",
            flag == inv.theta.nontrivial,
            f"secondary operation on the wedge is {'non' if flag else ''}trivial, "
            f"input says {'non' if inv.theta.nontrivial else ''}trivial",
        )
    )

    sq2 = sq2_is_nonzero(report.sigma2, 4)
    checks.append(
        CheckResult(
            "sq2-degree-4",
            sq2 == (not inv.spin),
            f"Sq^2 on H^4 of the wedge is {'non' if sq2 else ''}zero, "
            f"input is {'non-' if not inv.spin else ''}spin",
        )
    )

    exps = inv.two_exponents  # ascending, so the pairs come sorted by (degree, r)
    expected_pairs = [(r, 3) for r in exps] + [(r, 4) for r in exps]
    actual_pairs = list(bockstein_profile(report.sigma2))
    checks.append(
        CheckResult(
            "bockstein-profile",
            actual_pairs == expected_pairs,
            f"profile {actual_pairs} vs torsion expectation {expected_pairs}",
        )
    )
    return checks
