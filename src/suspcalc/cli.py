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
import io
import json
import os
import sys
from collections import namedtuple
from functools import cache, lru_cache
from json.encoder import encode_basestring_ascii

# ehp and normalizer are imported by the commands that run them, so that
# classify and validate start without loading either.
from . import catalog
from .catalog import Notation
# Not called here but bound: perfbench/tracing.py wraps maps_group under
# its name in this module.
from .catalog import maps_group  # noqa: F401
from .classifier import (
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
    ``newline``: dicts with str keys, lists, str, int, bool and None; any
    other type raises TypeError.  Every str but a ``catalog.Notation`` goes
    through the C string escaper that ``json`` uses.

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


def _write_pieces(pieces: list[str]) -> None:
    """Write ``pieces`` to stdout in order: each run of short pieces as
    one write, and each piece longer than ``io.DEFAULT_BUFFER_SIZE`` (a
    long wedge notation) as it is.  So no string the size of the whole
    output is built, while a small output stays one write, which a
    line-buffered terminal flushes once."""
    write = sys.stdout.write
    if max(map(len, pieces)) <= io.DEFAULT_BUFFER_SIZE:
        write("".join(pieces))
        return
    start = 0
    for i, piece in enumerate(pieces):
        if len(piece) > io.DEFAULT_BUFFER_SIZE:
            if start < i:
                write("".join(pieces[start:i]))
            write(piece)
            start = i + 1
    if start < len(pieces):
        write("".join(pieces[start:]))


def _emit(payload, as_json: bool, pretty_lines) -> None:
    if as_json:
        pieces: list[str] = []
        _write_json(payload, pieces, "\n")
        pieces.append("\n")
        _write_pieces(pieces)
    elif pretty_lines:  # an empty batch prints nothing
        pieces = ["\n"] * (2 * len(pretty_lines))
        pieces[::2] = pretty_lines
        _write_pieces(pieces)


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
    lines = []
    for inv, report in batch.reports:
        label = inv.label or report.branch
        for check in validate_roundtrip(inv, report):
            all_ok &= check.passed
            lines.append(f"{label}: {check}")
    _emit(None, False, lines)
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
        rules: list[str] = []
        coker = ehp.coker_H2(report, rules)
        verdict = ehp.is_E_surjective(report)
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
        if args.json:
            continue
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
        "normal form: " + "; ".join(f"{t}: {e}" for t, e in zip(normal.targets, normal.entries)),
        f"cofiber: {cofib.notation}"]
    _emit(payload, args.json, lines)
    return EXIT_OK


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def build_tables(filter_family: str | None = None) -> dict:
    from . import ehp

    dump = {
        "maps_groups": catalog.maps_group_rows(),
        "operation_profiles": catalog.profile_rows(),
        "hopf_table": ehp.hopf_rows(),
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
    out: list[str] = []
    _write_json(build_tables(filter_family), out, "\n")
    return "".join(out)


def run_tables(args) -> int:
    _write_pieces([tables_text(args.filter), "\n"])
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged.  Its ``commands`` attribute maps each command's name to the
    command's own parser (the subparsers action's ``choices``)."""
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

    parser.commands = sub.choices
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one argparse pass.

    When argv's first word names a command, the top-level parser would only
    hand the rest to that command's parser, so that parser alone parses it,
    and what it leaves over is reported as the top-level parser reports it.
    Any other argv (none, ``-h``, an unknown command) goes to the top-level
    parser.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code (see the module docstring).  ``argv`` is parsed
    once, by ``parse_args``.  A usage error prints the usage line and raises
    ``SystemExit(2)`` from argparse; ``-h`` prints the help and raises
    ``SystemExit(0)``."""
    args = parse_args(argv)
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
    except OmittedCase as err:
        print(f"declined: {err}", file=sys.stderr)
        return EXIT_OMITTED


if __name__ == "__main__":
    sys.exit(main())
