"""Batch front-end: classify descriptors, print cohomotopy reports,
normalize map vectors, and dump the catalog tables.

Exit codes: 0 success, 1 failed validation checks, 2 malformed input
(JSON, descriptor shape, inconsistent invariants, or sizes over the input
bounds), 3 the declined case (non-spin with nontrivial secondary-operation
action), 141 stdout closed before all output was written (as a shell
shows for a tool stopped by SIGPIPE: 128 + 13).  A batch reports its other
members around a declined one and exits 3, or 1 when an audit check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import cache, lru_cache
from json.encoder import encode_basestring_ascii

# ehp and normalizer are imported by the commands that run them, so that
# classify and validate start without loading either.
from . import catalog
from .catalog import (
    SPHERE,
    ElementaryComplex,
    Notation,
    a_2r_eta2,
    a_eta2,
    a_tilde,
    chang_eta,
    chang_r,
    chang_rt,
    chang_t,
    maps_group,
    moore,
    of_kind,
    operation_profile,
    sphere,
)
from .classifier import (
    DecompositionReport,
    InvalidInvariants,
    ManifoldInvariants,
    OmittedCase,
    classify_double_suspension,
    validate_roundtrip,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_OMITTED = 3
EXIT_STDOUT_CLOSED = 141

class InputError(ValueError):
    pass


def _read_json(path: str | None):
    try:
        if path in (None, "-"):
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    # JSONDecodeError, UnicodeDecodeError, too many digits; RecursionError
    # for arrays or objects nested deeper than the decoder recurses.
    except (ValueError, RecursionError) as err:
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


class Batch(namedtuple("Batch", "single reports declined")):
    """The classified members of one input, the declined ones left out:
    ``reports`` holds (invariants, report) pairs, and ``single`` says that
    the input was one descriptor, not a list."""

    __slots__ = ()

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


def _write_json(obj, out: list[str], newline: str) -> None:
    """Append ``obj`` to ``out`` in chunks, as ``json.dumps`` with
    ``indent=2`` spells it, every line after the first starting with
    ``newline``.

    Module-level, not a closure that calls itself: such a closure is a
    reference cycle, and would keep each call's chunks alive until the
    cyclic garbage collector runs.
    """
    if type(obj) is Notation:  # nothing in it to escape: see catalog.Notation
        out += '"', obj, '"'
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """The text ``json.dumps`` gives with ``indent=2``, for dicts with str
    keys, lists, str, int, bool and None; any other type raises TypeError.
    One chunk list, joined once; every str but a ``catalog.Notation``
    goes through the C string escaper that ``json`` uses."""
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _emit(payload, as_json: bool, pretty_lines) -> None:
    if as_json:
        print(json_text(payload))
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
        payload = report.to_json_dict(args.suspension_level, args.stages)
        checks = validate_roundtrip(inv, report) if args.validate else []
        all_ok &= all(c.passed for c in checks)
        if args.validate:
            payload["checks"] = [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
            ]
        payloads.append(payload)
        if args.json:
            continue

        sigma = payload["sigma"]
        if args.suspension_level == 1:
            if isinstance(sigma, dict):
                line = f"Sigma M: Unresolved ({sigma['note']})"
            else:
                line = f"Sigma M ~ {sigma}"
            lines.append(f"{inv.label}: {line}" if inv.label else line)
        else:
            if inv.label:
                lines.append(f"label:   {inv.label}")
            lines.append(f"branch:  {report.branch}")
            lines.append(f"Sigma^2 M ~ {payload['sigma2']}")
            if isinstance(sigma, dict):
                lines.append(f"Sigma M   : unresolved ({sigma['note']})")
            else:
                lines.append(f"Sigma M   ~ {sigma}")
            lines.extend(f"note:    {note}" for note in report.notes)
        if args.stages:
            stages = payload["stages"]
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
    from . import ehp

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
            rule = ehp.hopf_table(summand).rule
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
    from . import normalizer

    data = _read_json(args.input)
    try:
        vector = normalizer.MapVector.from_json_dict(data)
        normal = normalizer.normalize(vector)
        cofib = normalizer.cofiber(normal)
    except catalog.TableMiss as err:
        raise InputError(f"not tabulated: {err}") from None
    except (KeyError, ValueError) as err:
        raise InputError(str(err)) from None
    payload = {
        "normal_form": normal.to_json_dict(),
        "cofiber": cofib.notation,
    }
    lines = [] if args.json else [
        f"normal form: {payload['normal_form']['entries']}", f"cofiber: {cofib.notation}"]
    _emit(payload, args.json, lines)
    return EXIT_OK


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def _maps_rows() -> list[dict]:
    """Every tabulated (source, target) pair in the dump window."""
    pairs: list[tuple[ElementaryComplex, ElementaryComplex]] = []
    for n in range(3, 7):
        pairs.append((sphere(n), sphere(n)))
    for n in range(3, 6):
        pairs.append((sphere(n + 1), sphere(n)))
    for n in range(3, 5):
        pairs.append((sphere(n + 2), sphere(n)))
    pairs.append((sphere(6), sphere(3)))
    for r in (1, 2, 3):
        for nM in (3, 4, 5):
            P = moore(nM, 2**r)
            pairs.append((sphere(nM - 1), P))
            pairs.append((sphere(nM), P))
            pairs.append((sphere(nM + 1), P))
            pairs.append((P, sphere(nM)))
            if nM >= 4:
                pairs.append((P, sphere(nM - 1)))
            if nM == 5:
                pairs.append((P, sphere(3)))
    pairs.append((sphere(4), moore(4, 3)))
    pairs.append((sphere(5), moore(4, 3)))
    pairs.append((chang_eta(2), sphere(2)))
    pairs.append((chang_eta(3), sphere(3)))
    pairs.append((chang_eta(3), sphere(5)))
    pairs.append((chang_eta(4), sphere(5)))
    for r in (1, 2, 3):
        pairs.append((chang_r(2, r), sphere(2)))
        pairs.append((chang_r(3, r), sphere(3)))
        pairs.append((chang_r(3, r), sphere(5)))
        pairs.append((chang_r(4, r), sphere(5)))
        pairs.append((a_2r_eta2(2, r), sphere(3)))
        pairs.append((a_2r_eta2(2, r), sphere(4)))
        pairs.append((a_2r_eta2(2, r), sphere(5)))
        pairs.append((a_2r_eta2(3, r), sphere(3)))
        pairs.append((a_2r_eta2(3, r), sphere(5)))
        pairs.append((a_tilde(2, r), sphere(3)))
        pairs.append((a_tilde(2, r), sphere(5)))
        pairs.append((a_tilde(3, r), sphere(5)))

    rows = []
    for src, tgt in pairs:
        entry = maps_group(src, tgt)
        # A row belongs to the family of its non-sphere member.
        family = tgt.family if src.kind == SPHERE else src.family
        rows.append({"family": family, **entry.to_json_dict()})
    rows.sort(key=lambda row: (row["family"], row["source"], row["target"]))
    return rows


def _profile_rows() -> list[dict]:
    complexes: list[ElementaryComplex] = []
    for n in range(2, 7):
        complexes.append(sphere(n))
    for nM in (3, 4, 5):
        for r in (1, 2, 3):
            complexes.append(moore(nM, 2**r))
    complexes.append(moore(4, 3))
    for n in (2, 3, 4):
        complexes.append(chang_eta(n))
        for r in (1, 2, 3):
            complexes.append(chang_r(n, r))
        for t in (1, 2):
            complexes.append(chang_t(n, t))
            for r in (1, 2):
                complexes.append(chang_rt(n, r, t))
    for n in (2, 3):
        complexes.append(a_eta2(n))
        for r in (1, 2, 3):
            complexes.append(a_tilde(n, r))
            complexes.append(a_2r_eta2(n, r))
    rows = [
        {"family": x.family, **operation_profile(x).to_json_dict()}
        for x in complexes
    ]
    rows.sort(key=lambda row: (row["family"], row["complex"]))
    return rows


def _hopf_rows() -> list[dict]:
    """The Hopf data of every ``ehp._HOPF`` row, at r = 1, 2, 3 (Moore
    orders 2, 4, 8) where the kind takes a parameter, and of P^5(3)."""
    from . import ehp

    summands = dict.fromkeys(of_kind(kind, n, r) for kind, n in ehp._HOPF for r in (1, 2, 3))
    rows = [
        {"family": x.family, **ehp.hopf_table(x).to_json_dict()}
        for x in (*summands, moore(5, 3))
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


@lru_cache(maxsize=1 + len(catalog.FAMILIES))
def tables_text(filter_family: str | None = None) -> str:
    """The ``tables`` dump as printed, built and encoded once per process
    and filter: one string for the full dump and one per family.  It holds
    text, which no caller can change, and not the rows: ``build_tables``
    returns fresh dicts on every call."""
    return json_text(build_tables(filter_family))


def run_tables(args) -> int:
    print(tables_text(args.filter))
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
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
    p.add_argument("--filter", choices=catalog.FAMILIES)
    p.set_defaults(func=run_tables)

    p = sub.add_parser("validate", help="roundtrip audit; exit 1 on failures")
    p.add_argument("input", nargs="?")
    p.set_defaults(func=run_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone.  Point fd 1 at the null device, so that the
        # flush at interpreter exit cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
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
