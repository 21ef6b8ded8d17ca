"""Batch front-end: classify descriptors, print cohomotopy reports,
normalize map vectors, and dump the catalog tables.

Exit codes: 0 success, 1 failed validation checks, 2 malformed input
(JSON, descriptor shape, inconsistent invariants, or sizes over the input
bounds), 3 the declined case (non-spin with nontrivial secondary-operation
action).  A batch reports its other members around a declined one and
exits 3, or 1 when an audit check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import catalog, ehp, normalizer
from .catalog import (
    ElementaryComplex,
    a_2r_eta2,
    a_eta2,
    a_tilde,
    chang_eta,
    chang_r,
    chang_rt,
    chang_t,
    maps_group,
    moore,
    operation_profile,
    sphere,
)
from .classifier import (
    DecompositionReport,
    InvalidInvariants,
    ManifoldInvariants,
    OmittedCase,
    Unresolved,
    classify_double_suspension,
    validate_roundtrip,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_OMITTED = 3

class InputError(ValueError):
    pass


def _read_json(path: str | None):
    try:
        if path in (None, "-"):
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError, too many digits
        raise InputError(f"malformed JSON: {err}") from None
    except OSError as err:
        raise InputError(str(err)) from None


def load_descriptors(data) -> list[ManifoldInvariants]:
    items = data if isinstance(data, list) else [data]
    out = []
    for i, item in enumerate(items):
        try:
            out.append(ManifoldInvariants.from_json_dict(item))
        except ValueError as err:
            raise InputError(f"descriptor {i}: {err}") from None
    return out


@dataclass(frozen=True)
class Batch:
    """The classified members of one input, the declined ones left out."""

    single: bool  # the input was one descriptor, not a list
    reports: list[tuple[ManifoldInvariants, DecompositionReport]]
    declined: bool

    def exit_code(self, checks_passed: bool = True) -> int:
        if not checks_passed:
            return EXIT_CHECK_FAILED
        return EXIT_OMITTED if self.declined else EXIT_OK


def classify_input(path: str | None) -> Batch:
    """Read and classify the descriptors at ``path``.

    A declined member of a list gets one ``declined: descriptor <i>:``
    line on stderr and no report; a declined single descriptor raises
    OmittedCase.
    """
    data = _read_json(path)
    single = not isinstance(data, list)
    reports = []
    declined = False
    for i, inv in enumerate(load_descriptors(data)):
        try:
            reports.append((inv, classify_double_suspension(inv)))
        except OmittedCase as err:
            if single:
                raise
            print(f"declined: descriptor {i}: {err}", file=sys.stderr)
            declined = True
    return Batch(single, reports, declined)


def _emit(payload, as_json: bool, pretty_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(pretty_lines))


# --------------------------------------------------------------------------
# classify / validate
# --------------------------------------------------------------------------

def run_classify(args) -> int:
    batch = classify_input(args.input)
    payloads = []
    lines: list[str] = []
    all_ok = True
    for inv, report in batch.reports:
        payload = report.to_json_dict()
        if args.suspension_level == 1:
            payload = {
                "label": inv.label,
                "branch": report.branch,
                "sigma": payload["sigma"],
                "notes": payload["notes"],
            }
        if not args.stages:
            payload.pop("stages", None)
        checks = validate_roundtrip(inv, report) if args.validate else []
        all_ok &= all(c.passed for c in checks)
        if args.validate:
            payload["checks"] = [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
            ]
        payloads.append(payload)

        if args.suspension_level == 1:
            if isinstance(report.sigma, Unresolved):
                lines.append(f"Sigma M: Unresolved ({report.sigma.reason})")
            else:
                lines.append(f"Sigma M ~ {report.sigma.notation}")
            if inv.label:
                lines[-1] = f"{inv.label}: " + lines[-1]
        else:
            lines.append(report.pretty())
        if args.stages:
            stages = report.stages.to_json_dict()
            w4 = stages["W4"] if isinstance(stages["W4"], str) else stages["W4"]["symbolic"]
            lines.append(f"  W3 ~ {stages['W3']}")
            lines.append(f"  W4 ~ {w4}")
            lines.append(f"  Sigma W4 ~ {stages['SigmaW4']}")
        lines.extend(f"  {c}" for c in checks)
        lines.append("")

    _emit(payloads[0] if batch.single else payloads, args.json, lines[:-1])
    return batch.exit_code(all_ok)


def run_validate(args) -> int:
    batch = classify_input(args.input)
    all_ok = True
    for inv, report in batch.reports:
        label = inv.label or report.branch
        for check in validate_roundtrip(inv, report):
            all_ok &= check.passed
            print(f"{label}: {check}")
    return batch.exit_code(all_ok)


# --------------------------------------------------------------------------
# cohomotopy
# --------------------------------------------------------------------------

def run_cohomotopy(args) -> int:
    batch = classify_input(args.input)
    payloads = []
    lines = []
    for inv, report in batch.reports:
        pi5_2 = ehp.pi5_double_suspension(report)
        pi5_1 = ehp.pi5_suspension(report)
        coker = ehp.coker_H2(report)
        verdict = ehp.is_E_surjective(report)
        rules = []
        for summand, _ in report.sigma2.pairs:
            try:
                rule = ehp.hopf_table(summand).rule
            except catalog.TableMiss:
                continue
            if rule not in rules:
                rules.append(rule)
        payloads.append(
            {
                "label": inv.label,
                "branch": report.branch,
                "pi5_double_suspension": pi5_2.to_json_dict(),
                "pi5_suspension": pi5_1.to_json_dict() if pi5_1 is not None else None,
                "coker_H2": coker.to_json_dict(),
                "E_surjective": verdict.surjective,
                "justification": verdict.justification,
                "rules": rules,
            }
        )
        if inv.label:
            lines.append(f"label:    {inv.label}")
        lines.append(f"branch:   {report.branch}")
        lines.append(f"pi^5(Sigma^2 M; Z_(2)) = {pi5_2}")
        lines.append(
            f"pi^5(Sigma M; Z_(2))   = {pi5_1 if pi5_1 is not None else 'unresolved'}"
        )
        lines.append(f"coker(H_2)             = {coker}")
        lines.append(f"E: pi^2 -> pi^3(Sigma M) is {verdict}")
        for rule in rules:
            lines.append(f"  using: {rule}")
        lines.append("")

    _emit(payloads[0] if batch.single else payloads, args.json, lines[:-1])
    return batch.exit_code()


# --------------------------------------------------------------------------
# normalize
# --------------------------------------------------------------------------

def run_normalize(args) -> int:
    data = _read_json(args.input)
    try:
        vector = normalizer.MapVector.from_json_dict(data)
        normal = normalizer.normalize(vector)
        cofib = normalizer.cofiber(normal)
    except (KeyError, ValueError, catalog.TableMiss) as err:
        raise InputError(str(err)) from None
    payload = {
        "normal_form": normal.to_json_dict(),
        "cofiber": cofib.notation,
    }
    _emit(
        payload,
        args.json,
        [f"normal form: {normal.to_json_dict()['entries']}", f"cofiber: {cofib.notation}"],
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def _maps_rows() -> list[dict]:
    """Every tabulated (source, target) pair in the dump window."""
    pairs: list[tuple[str, ElementaryComplex, ElementaryComplex]] = []
    for n in range(3, 7):
        pairs.append(("sphere", sphere(n), sphere(n)))
    for n in range(3, 6):
        pairs.append(("sphere", sphere(n + 1), sphere(n)))
    for n in range(3, 5):
        pairs.append(("sphere", sphere(n + 2), sphere(n)))
    pairs.append(("sphere", sphere(6), sphere(3)))
    for r in (1, 2, 3):
        for nM in (3, 4, 5):
            P = moore(nM, 2**r)
            pairs.append(("moore", sphere(nM - 1), P))
            pairs.append(("moore", sphere(nM), P))
            pairs.append(("moore", sphere(nM + 1), P))
            pairs.append(("moore", P, sphere(nM)))
            if nM >= 4:
                pairs.append(("moore", P, sphere(nM - 1)))
            if nM == 5:
                pairs.append(("moore", P, sphere(3)))
    pairs.append(("moore", sphere(4), moore(4, 3)))
    pairs.append(("moore", sphere(5), moore(4, 3)))
    for r in (1, 2, 3):
        pairs.append(("chang", chang_eta(2), sphere(2)))
        pairs.append(("chang", chang_r(2, r), sphere(2)))
        pairs.append(("chang", chang_eta(3), sphere(3)))
        pairs.append(("chang", chang_eta(3), sphere(5)))
        pairs.append(("chang", chang_r(3, r), sphere(3)))
        pairs.append(("chang", chang_r(3, r), sphere(5)))
        pairs.append(("chang", chang_eta(4), sphere(5)))
        pairs.append(("chang", chang_r(4, r), sphere(5)))
        pairs.append(("a3", a_2r_eta2(2, r), sphere(3)))
        pairs.append(("a3", a_2r_eta2(2, r), sphere(4)))
        pairs.append(("a3", a_2r_eta2(2, r), sphere(5)))
        pairs.append(("a3", a_2r_eta2(3, r), sphere(3)))
        pairs.append(("a3", a_2r_eta2(3, r), sphere(5)))
        pairs.append(("a3", a_tilde(2, r), sphere(3)))
        pairs.append(("a3", a_tilde(2, r), sphere(5)))
        pairs.append(("a3", a_tilde(3, r), sphere(5)))

    rows = []
    seen = set()
    for family, src, tgt in pairs:
        key = (src.notation, tgt.notation)
        if key in seen:
            continue
        seen.add(key)
        entry = maps_group(src, tgt)
        rows.append({"family": family, **entry.to_json_dict()})
    rows.sort(key=lambda row: (row["family"], row["source"], row["target"]))
    return rows


def _profile_rows() -> list[dict]:
    complexes: list[tuple[str, ElementaryComplex]] = []
    for n in range(2, 7):
        complexes.append(("sphere", sphere(n)))
    for nM in (3, 4, 5):
        for r in (1, 2, 3):
            complexes.append(("moore", moore(nM, 2**r)))
    complexes.append(("moore", moore(4, 3)))
    for n in (2, 3, 4):
        complexes.append(("chang", chang_eta(n)))
        for r in (1, 2, 3):
            complexes.append(("chang", chang_r(n, r)))
        for t in (1, 2):
            complexes.append(("chang", chang_t(n, t)))
            for r in (1, 2):
                complexes.append(("chang", chang_rt(n, r, t)))
    for n in (2, 3):
        complexes.append(("a3", a_eta2(n)))
        for r in (1, 2, 3):
            complexes.append(("a3", a_tilde(n, r)))
            complexes.append(("a3", a_2r_eta2(n, r)))
    rows = [
        {"family": family, **operation_profile(x).to_json_dict()}
        for family, x in complexes
    ]
    rows.sort(key=lambda row: (row["family"], row["complex"]))
    return rows


def _hopf_rows() -> list[dict]:
    summands: list[tuple[str, ElementaryComplex]] = []
    for n in (3, 4, 5, 6):
        summands.append(("sphere", sphere(n)))
    for r in (1, 2, 3):
        summands.append(("moore", moore(4, 2**r)))
        summands.append(("moore", moore(5, 2**r)))
    summands.append(("moore", moore(5, 3)))
    summands.append(("chang", chang_eta(4)))
    for r in (1, 2, 3):
        summands.append(("chang", chang_r(4, r)))
        summands.append(("a3", a_tilde(3, r)))
        summands.append(("a3", a_2r_eta2(3, r)))
    rows = [
        {"family": family, **ehp.hopf_table(x).to_json_dict()}
        for family, x in summands
    ]
    rows.sort(key=lambda row: (row["family"], row["summand"]))
    return rows


def build_tables(filter_family: str | None = None) -> dict:
    dump = {
        "maps_groups": _maps_rows(),
        "operation_profiles": _profile_rows(),
        "hopf_table": _hopf_rows(),
    }
    if filter_family:
        dump = {
            section: [row for row in rows if row["family"] == filter_family]
            for section, rows in dump.items()
        }
    return dump


def run_tables(args) -> int:
    print(json.dumps(build_tables(args.filter), indent=2))
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suspcalc",
        description=(
            "Wedge decompositions of the (double) suspension of a closed "
            "orientable 4-manifold, from its algebraic invariants, plus the "
            "associated 2-local cohomotopy data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decompose Sigma M and Sigma^2 M")
    p.add_argument("input", nargs="?", help="descriptor JSON file (default stdin)")
    p.add_argument("--suspension-level", type=int, choices=(1, 2), default=2)
    p.add_argument("--stages", action="store_true", help="include W3/W4/Sigma W4")
    p.add_argument("--validate", action="store_true", help="run the roundtrip audit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=run_classify)

    p = sub.add_parser("cohomotopy", help="pi^5 groups, coker(H_2), E-surjectivity")
    p.add_argument("input", nargs="?")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=run_cohomotopy)

    p = sub.add_parser("normalize", help="normal form and cofiber of a map vector")
    p.add_argument("input", nargs="?")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=run_normalize)

    p = sub.add_parser("tables", help="dump the catalog tables as JSON")
    p.add_argument("--filter", choices=("sphere", "moore", "chang", "a3"))
    p.set_defaults(func=run_tables)

    p = sub.add_parser("validate", help="roundtrip audit; exit 1 on failures")
    p.add_argument("input", nargs="?")
    p.set_defaults(func=run_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InvalidInvariants as err:
        print(f"error: invalid invariants: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OmittedCase as err:
        print(f"declined: {err}", file=sys.stderr)
        return EXIT_OMITTED


if __name__ == "__main__":
    sys.exit(main())
