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

from collections import namedtuple
from functools import cached_property

from .abelian import MAX_FACTOR_ORDER, ZERO_GROUP, CyclicFactor, FgAbelianGroup, Validated
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
    moore,
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
        raise ValueError(f"{where} must be an object, not {_json_type(data)}")
    unknown = set(data).difference(required, optional)
    if unknown:
        raise ValueError(f"unknown field {min(unknown)!r} in {where}")
    for key in required:
        if key not in data:
            raise ValueError(f"missing field {key!r} in {where}")
    return data


def json_value(data: dict, key: str, kind: type, where: str, default=None):
    """``data[key]`` when its type is exactly ``kind`` (so ``true`` is no
    integer and ``1.0`` is none either), ``default`` when it is absent."""
    if key not in data:
        return default
    value = data[key]
    if type(value) is not kind:
        raise ValueError(
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


class ThetaAction(Validated, namedtuple("ThetaAction", "action j0")):
    """``action`` is "trivial" or "nontrivial"; ``j0``, the 1-based index
    into the sorted 2-exponents, is given exactly when it is nontrivial."""

    __slots__ = ()

    def __new__(cls, action: str, j0: int | None = None):
        if action not in (THETA_TRIVIAL, THETA_NONTRIVIAL):
            raise ValueError(f"unknown theta action {action!r}")
        if action == THETA_NONTRIVIAL and j0 is None:
            raise ValueError("nontrivial theta action needs an index j0")
        if action == THETA_TRIVIAL and j0 is not None:
            raise ValueError("trivial theta action carries no index")
        return tuple.__new__(cls, (action, j0))

    @property
    def nontrivial(self) -> bool:
        return self.action == THETA_NONTRIVIAL


class Sq2Case(Validated, namedtuple("Sq2Case", "case index")):
    """``case`` is "not_applicable", "A", "B" or "C"; ``index`` is j1 for
    case B and j2 for case C, and absent otherwise."""

    __slots__ = ()

    def __new__(cls, case: str, index: int | None = None):
        if case not in (SQ2_NOT_APPLICABLE, SQ2_CASE_A, SQ2_CASE_B, SQ2_CASE_C):
            raise ValueError(f"unknown sq2 case {case!r}")
        needs_index = case in (SQ2_CASE_B, SQ2_CASE_C)
        if needs_index and index is None:
            raise ValueError(f"case {case} needs an index")
        if not needs_index and index is not None:
            raise ValueError(f"case {case} carries no index")
        return tuple.__new__(cls, (case, index))


class ManifoldInvariants(Validated, namedtuple(
        "ManifoldInvariants", "m d torsion spin theta sq2_case postnikov_trivial label")):
    """Input record of the classifier; all entries are declared data.

    ``m`` and ``d`` are the free ranks of first and second homology,
    ``torsion`` the common torsion subgroup of both.  The index fields
    point into the ascending list of 2-primary exponents r_1 <= ... <= r_n.
    """

    # No __slots__: the instance dict keeps the cached properties.
    def __new__(cls, m: int, d: int, torsion: FgAbelianGroup, spin: bool, theta: ThetaAction,
                sq2_case: Sq2Case, postnikov_trivial: bool, label: str | None = None):
        self = tuple.__new__(cls, (m, d, torsion, spin, theta, sq2_case, postnikov_trivial,
                                   label))
        if m < 0 or d < 0:
            raise ValueError("m and d must be non-negative")
        if max(m, d) > MAX_FREE_RANK:
            raise ValueError(f"m and d must be at most {MAX_FREE_RANK}")
        if sum(k for _, k in torsion.pairs) > MAX_TORSION_FACTORS:
            raise ValueError(f"torsion may have at most {MAX_TORSION_FACTORS} factors "
                                    "(summed multiplicity)")
        if torsion.free_rank:
            raise ValueError("torsion group must have free rank 0")
        n = len(self.two_exponents)
        if theta.nontrivial and not 1 <= theta.j0 <= n:
            raise ValueError(f"theta index j0 must lie in 1..{n}")
        if spin and sq2_case.case != SQ2_NOT_APPLICABLE:
            raise ValueError("spin manifolds take sq2_case not_applicable")
        if not spin and sq2_case.case == SQ2_NOT_APPLICABLE:
            raise ValueError("non-spin manifolds need sq2_case A, B or C")
        if sq2_case.case == SQ2_CASE_A and not spin and d < 1:
            raise ValueError("case A consumes a free degree-4 class; d >= 1 required")
        if sq2_case.case in (SQ2_CASE_B, SQ2_CASE_C):
            if not 1 <= sq2_case.index <= n:
                raise ValueError(f"sq2 index must lie in 1..{n}")
        return self

    @cached_property
    def two_exponents(self) -> tuple[int, ...]:
        return self.torsion.two_primary_exponents()

    def exponent_at(self, index: int) -> int:
        return self.two_exponents[index - 1]

    @cached_property
    def _homology_groups(self) -> dict[int, FgAbelianGroup]:
        """The nonzero degrees of ``homology``, each group built once."""
        return {
            1: FgAbelianGroup(self.m).direct_sum(self.torsion),
            2: FgAbelianGroup(self.d).direct_sum(self.torsion),
            3: FgAbelianGroup(self.m),
            4: FgAbelianGroup(1),
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
                raise ValueError(f"{where}: prime**exponent must be below 2**{bits}")
        theta_data = json_fields(data["theta"], "theta", ("action",), ("j0",))
        theta = ThetaAction(
            json_value(theta_data, "action", str, "theta"),
            json_value(theta_data, "j0", int, "theta"),
        )
        sq2_data = json_fields(data["sq2_case"], "sq2_case", ("case",), ("j1", "j2"))
        case = json_value(sq2_data, "case", str, "sq2_case")
        key, stray = ("j1", "j2") if case == SQ2_CASE_B else ("j2", "j1")
        if stray in sq2_data:
            raise ValueError(f"sq2_case {case!r} takes no {stray}")
        label = json_value(data, "label", str, "descriptor")
        if label is not None:
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, which no output can print
                raise ValueError("'label' in descriptor must be valid Unicode") from None
        return cls(
            m=json_value(data, "m", int, "descriptor"),
            d=json_value(data, "d", int, "descriptor"),
            torsion=FgAbelianGroup(counts=[_factor(item) for item in items]),
            spin=json_value(data, "spin", bool, "descriptor"),
            theta=theta,
            sq2_case=Sq2Case(case, json_value(sq2_data, key, int, "sq2_case")),
            postnikov_trivial=json_value(data, "postnikov_trivial", bool, "descriptor"),
            label=label,
        )


def _factor(item: dict) -> tuple[CyclicFactor, int]:
    """A torsion item, its shape and types checked, as (factor, multiplicity)."""
    k = item.get("multiplicity", 1)
    if k < 1:
        raise ValueError("multiplicity must be >= 1")
    return CyclicFactor(item["prime"], item["exponent"]), k


def _order_below_bound(prime: int, exponent: int) -> bool:
    """``prime**exponent < MAX_FACTOR_ORDER``, decided without raising a
    large number to a large power; exponents below 1 and primes below 2
    pass, for the factor's own checks to reject."""
    if exponent < 1 or prime < 2:
        return True
    return (exponent < MAX_FACTOR_ORDER.bit_length() and prime < MAX_FACTOR_ORDER
            and prime**exponent < MAX_FACTOR_ORDER)


class Unresolved(namedtuple("Unresolved", "reason")):
    """Placeholder for a suspension decomposition the hypotheses do not pin down."""

    __slots__ = ()


class StageDecompositions(namedtuple("StageDecompositions", "w3 w4 w4_symbolic sigma_w4")):
    """The homology-section stages of the suspension pipeline.

    ``w4`` is the split form, available only when the Postnikov square is
    trivial; otherwise ``w4_symbolic`` carries the unsplit description
    with the symbolic cofiber remainder C_{g2}.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "W3": self.w3.notation,
            "W4": self.w4.notation if self.w4 is not None else {"symbolic": self.w4_symbolic},
            "SigmaW4": self.sigma_w4.notation,
        }


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    __slots__ = ()

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


class DecompositionReport(namedtuple("DecompositionReport",
                                     "invariants branch sigma2 sigma top notes",
                                     defaults=((),))):
    """``sigma`` is a WedgeComplex or Unresolved; ``top`` is the branch's
    degree-6 summand of ``sigma2``.

    ``stages`` is not a field: the three stage wedges are built from the
    invariants on first read, which only ``classify --stages`` makes (the
    instance dict, there being no __slots__, keeps them).
    """

    @cached_property
    def stages(self) -> StageDecompositions:
        return stage_decompositions(self.invariants)

    def to_json_dict(self, level: int = 2, stages: bool = True) -> dict:
        """The single suspension alone at ``level`` 1, both suspensions and
        the invariants at level 2; with ``stages``, the stages at either
        level.  Each wedge that goes into it is rendered once."""
        if isinstance(self.sigma, Unresolved):
            sigma: object = {"unresolved": True, "note": self.sigma.reason}
        else:
            sigma = self.sigma.notation
        out = {"label": self.invariants.label, "branch": self.branch}
        if level == 2:
            out["sigma2"] = self.sigma2.notation
        out["sigma"] = sigma
        if stages:
            out["stages"] = self.stages.to_json_dict()
        out["notes"] = list(self.notes)
        if level == 2:
            out["invariants"] = self.invariants.to_json_dict()
        return out


def stage_decompositions(inv: ManifoldInvariants) -> StageDecompositions:
    """The three pipeline stages W3, W4 and Sigma W4, of which only Sigma W4 is merged."""
    p4, p5 = (moore_pairs(n, inv.torsion) for n in (4, 5))
    sigma_w4 = WedgeComplex(counts=((sphere(4), inv.d), *p4, *p5, (sphere(5), inv.m)))
    w4 = sigma_w4.desuspend()  # d S^3 v P^3(T) v P^4(T) v m S^4, i.e. W3 v m S^4
    w3 = w4.without(sphere(4))
    if inv.postnikov_trivial or not inv.two_exponents:
        return StageDecompositions(w3, w4, None, sigma_w4)
    known = WedgeComplex(counts=((sphere(3), inv.d), *p4))
    symbolic = Notation(f"{known.notation} v C_{{g2}}" if known.pairs else "C_{g2}")
    return StageDecompositions(w3, None, symbolic, sigma_w4)


def _top_piece(inv: ManifoldInvariants) -> tuple[str, ElementaryComplex, ElementaryComplex | None]:
    """Branch id, the degree-6 top piece, and the lower-cell summand it
    replaces: the one the top cell's attaching map lands on in normal
    form, None when the top cell splits off as S^6."""
    if inv.spin:
        if not inv.theta.nontrivial:
            return BRANCH_SPIN_THETA_TRIVIAL, sphere(6), None
        r = inv.exponent_at(inv.theta.j0)
        return BRANCH_SPIN_THETA_NONTRIVIAL, a_2r_eta2(3, r), moore(4, 2**r)
    if inv.theta.nontrivial:
        raise OmittedCase(
            "non-spin with nontrivial secondary-operation action on degree-1 "
            'cohomology: "We omit the discussion" of this case; no decomposition '
            "is emitted"
        )
    case = inv.sq2_case.case
    if case == SQ2_CASE_A:
        return BRANCH_NONSPIN_CASE_A, chang_eta(4), sphere(4)
    r = inv.exponent_at(inv.sq2_case.index)
    if case == SQ2_CASE_B:
        return BRANCH_NONSPIN_CASE_B, chang_r(4, r), moore(5, 2**r)
    return BRANCH_NONSPIN_CASE_C, a_tilde(3, r), moore(4, 2**r)


def classify_double_suspension(inv: ManifoldInvariants) -> DecompositionReport:
    """The exact wedge decomposition of the double suspension: the lower
    cells m S^3 v m S^5 v d S^4 v P^4(T) v P^5(T), with the top piece in
    place of one copy of the summand it replaces."""
    branch, top, replaced = _top_piece(inv)
    lower = ((sphere(3), inv.m), (sphere(5), inv.m), (sphere(4), inv.d),
             *moore_pairs(4, inv.torsion), *moore_pairs(5, inv.torsion))
    # Complexes are interned, so ``is`` finds the replaced summand.
    sigma2 = WedgeComplex(counts=(*((x, k - (x is replaced)) for x, k in lower), (top, 1)))

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
