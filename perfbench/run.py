"""Benchmark of the suspcalc calculator: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch-mixed --seed 1 --seconds 30 --trace 0

Workloads (the seed drives every generated input; see README.md):

    batch-mixed       small valid descriptors through classify, cohomotopy and
                      validate, plus invalid inputs sent one per call
    wide-wedge        two descriptors with m = d = 10^4 and long 2-primary
                      torsion lists through the same three commands
    normalize-oracle  map vectors through normalize, each cross-checked by the
                      orbit oracle, plus repeated table dumps

The program is driven in-process through ``suspcalc.cli.main(argv)`` and
the public functions of ``suspcalc.normalizer``, single-threaded; set-up
time is measured on fresh interpreters, one at a time.  Each run repeats
the workload's fixed set of operations (one pass) until ``--seconds`` is
spent, checks every output, and reports each operation's median time
over the passes.  The gated throughputs count time in kref, thousands of
a fixed reference loop's time measured around each operation, which
cancels the speed of a shared host (see README.md).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` half the time is spent untraced and half with spans
around the calculator's public functions, and the last line carries the
per-layer metrics.  Every run also writes a results file (metrics, run
metadata, output digests, failures) under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import expect
import hostspeed
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

WORKLOADS = ("batch-mixed", "wide-wedge", "normalize-oracle")
BATCH_SIZE = 100
WIDE_COUNT, WIDE_RANK, WIDE_TWO_COUNT = 2, 10000, 40
TABLE_DUMPS = 20
SETUP_REPEATS = 11
# The reference loop's time on an idle 2-vCPU x86-64 host: the scale at
# which setup_s turns kref back into seconds.
REF_NOMINAL_S = 0.00011
IMPORTTIME_REPEATS = 3
SPAN_FILE_LIMIT = 50000

CLASSIFY_ARGV = ("classify", "--json", "--stages", "--validate", "-")
COHOMOTOPY_ARGV = ("cohomotopy", "--json", "-")
VALIDATE_ARGV = ("validate", "-")

# The checked-in transcription `suspcalc tables` must print byte for byte,
# as the acceptance suite checks.
TABLES_TRANSCRIPTION = ROOT / "tests" / "data" / "tables_transcription.json"

IMPORT_CHILD = (
    f"import sys; sys.path.insert(0, {str(SRC)!r}); import suspcalc.cli; "
    f"assert suspcalc.cli.__file__.startswith({str(SRC)!r})"
)
# The same import, timed inside the child with the host's speed sampled
# on the CPU that does the work (after one warm-up run of the reference
# loop); prints its cost in kref.
SETUP_CHILD = (
    f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import hostspeed\n"
    "hostspeed.reference_seconds()  # warm-up\n"
    "with hostspeed.HostSample() as sample:\n"
    "    import suspcalc.cli\n"
    f"assert suspcalc.cli.__file__.startswith({str(SRC)!r})\n"
    "print(sample.kref)"
)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program, or it will not load)."""


# --------------------------------------------------------------------------
# operations and passes
# --------------------------------------------------------------------------

@dataclass
class Op:
    """One operation: a descriptor batch through one command, one vector,
    one invalid input or one table dump.  ``run(p)`` returns the number
    of failed units and a message per failure."""

    run: Callable[[Pass], tuple[int, list[str]]]
    units: int
    phase_units: dict[str, int]
    defect: str | None = None


@dataclass
class Pass:
    """Timing, digests and failures of one pass over a workload's ops.

    Per op and phase, ``op_times`` holds wall seconds and ``op_costs`` the
    same time in kref: thousands of the reference loop's time while the
    op ran (see ``hostspeed``).
    """

    tracer: object
    op_times: list[dict[str, float]] = field(default_factory=list)
    op_costs: list[dict[str, float]] = field(default_factory=list)
    digests: dict[str, object] = field(default_factory=dict)
    failed: int = 0
    defect_failed: int = 0
    unstable: int = 0
    problems: list[str] = field(default_factory=list)

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(name)

    @contextlib.contextmanager
    def measure(self, phase: str):
        self.phase(phase)
        try:
            with hostspeed.HostSample() as sample:
                yield
        finally:
            self.phase("check")
            times, costs = self.op_times[-1], self.op_costs[-1]
            times[phase] = times.get(phase, 0.0) + sample.seconds
            costs[phase] = costs.get(phase, 0.0) + sample.kref

    @property
    def seconds(self) -> float:
        return sum(sum(times.values()) for times in self.op_times)

    def cli(self, phase: str, argv, stdin: str):
        """Run ``suspcalc.cli.main`` with captured I/O; returns exit code
        (None when an exception escaped), stdout, stderr and exception."""
        from suspcalc import cli

        out, err, exc, code = io.StringIO(), io.StringIO(), None, None
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with self.measure(phase), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except (Exception, SystemExit) as error:  # what escapes the CLI is a result
            exc = error
        finally:
            sys.stdin = saved_stdin
        stdout = out.getvalue()
        digest = self.digests.setdefault(phase, hashlib.sha256())
        digest.update(stdout.encode())
        if phase == "reject":
            digest.update(f"{code} {type(exc).__name__} {err.getvalue()}".encode())
        return code, stdout, err.getvalue(), exc

    def timed(self, phase: str, func, *args):
        with self.measure(phase):
            return func(*args)


def _describe(code, exc, err: str) -> str:
    if exc is not None:
        return f"uncaught {type(exc).__name__}: {exc}"
    return f"exit {code}: {err.strip()[:160]}"


def batch_op(phase: str, argv, descs: list[dict], checker) -> Op:
    expected = [expect.Expected(d) for d in descs]
    stdin = json.dumps(descs)

    def run(p: Pass):
        code, out, err, exc = p.cli(phase, argv, stdin)
        if exc is not None or code != 0:
            return len(descs), [f"{phase}: {_describe(code, exc, err)}"]
        try:
            problems = checker(expected, out)
        except (ValueError, KeyError, TypeError) as error:
            return len(descs), [f"{phase}: unreadable output ({error!r})"]
        return len(problems), [f"{phase}: {msg}"[:300] for msg in problems]

    return Op(run, len(descs), {phase: len(descs)})


def _reported(label: str, stdout: str) -> bool:
    """Whether a JSON report or an audit line names the descriptor."""
    return f'"label": "{label}"' in stdout or any(
        line.startswith(f"{label}: ") for line in stdout.splitlines())


def reject_op(rej: inputs.Reject) -> Op:
    prefix = "error:" if rej.exit_code == 2 else "declined:"

    def run(p: Pass):
        code, out, err, exc = p.cli("reject", (*rej.argv, "-"), rej.stdin)
        if exc is not None or code != rej.exit_code:
            got = _describe(code, exc, err)
        elif rej.labels:
            missing = [label for label in rej.labels if not _reported(label, out)]
            if not missing:
                return 0, []
            got = f"no report for {missing}"
        elif out or not err.startswith(prefix) or err.count("\n") != 1:
            got = f"stdout {out[:80]!r}, stderr {err[:80]!r}"
        else:
            return 0, []
        return 1, [f"{rej.kind} via {rej.argv[0]}: expected exit {rej.exit_code}, got {got}"]

    return Op(run, 1, {"reject": 1}, rej.defect)


def vector_op(vector: dict) -> Op:
    """``normalize --json`` on one vector, then the oracle cross-check:
    the normal form must lie in the vector's row-operation orbit (the
    closure ``normalizer.oracle_normal_form`` takes the least element of)
    and have the cofiber of the normalized least element."""
    from suspcalc import normalizer

    stdin = json.dumps(vector)

    def oracle():
        reachable = normalizer.orbit(normalizer.MapVector.from_json_dict(vector))
        least = reachable[min(reachable)]
        return reachable, normalizer.cofiber(normalizer.normalize(least)).notation

    def run(p: Pass):
        code, out, err, exc = p.cli("normalize", ("normalize", "--json", "-"), stdin)
        try:
            reachable, cofiber = p.timed("oracle", oracle)
        except (ValueError, KeyError) as error:
            return 1, [f"oracle: {stdin}: {error!r}"]
        if exc is not None or code != 0:
            return 1, [f"normalize: {stdin}: {_describe(code, exc, err)}"]
        try:
            payload = json.loads(out)
            normal = normalizer.MapVector.from_json_dict(payload["normal_form"]).key()
        except (ValueError, KeyError, TypeError) as error:
            return 1, [f"normalize: {stdin}: unreadable output ({error!r})"]
        if normal not in reachable or payload["cofiber"] != cofiber:
            return 1, [f"normalize: {stdin} -> {payload} disagrees with the oracle ({cofiber})"]
        return 0, []

    return Op(run, 1, {"normalize": 1, "oracle": 1})


def tables_op() -> Op:
    try:
        expected = TABLES_TRANSCRIPTION.read_text(encoding="utf-8")
    except OSError as error:
        raise SetupError(f"no table transcription to check against: {error}") from None

    def run(p: Pass):
        code, out, err, exc = p.cli("tables", ("tables",), "")
        if exc is None and code == 0 and out == expected:
            return 0, []
        return 1, [f"tables: {_describe(code, exc, err)}, or the dump differs from the transcription"]

    return Op(run, 1, {"tables": 1})


def _interleave(main: list, extra: list, rng: random.Random) -> list:
    out = list(main)
    for op in extra:
        out.insert(rng.randint(0, len(out)), op)
    return out


def build_workload(name: str, seed: int) -> tuple[list[Op], tuple[str, ...]]:
    """The workload's ops for one pass and its command phases."""
    rng = random.Random(seed)
    if name == "normalize-oracle":
        vectors = inputs.map_vectors(rng)
        extra = [reject_op(r) for r in inputs.vector_rejects(rng, vectors)]
        extra += [tables_op() for _ in range(TABLE_DUMPS)]
        return _interleave([vector_op(v) for v in vectors], extra, rng), (
            "normalize", "oracle", "tables")
    if name == "batch-mixed":
        descs = inputs.small_descriptors(rng, BATCH_SIZE)
        rejects = [reject_op(r) for r in inputs.descriptor_rejects(rng, descs)]
    else:
        descs = inputs.wide_descriptors(rng, WIDE_COUNT, WIDE_RANK, WIDE_TWO_COUNT)
        rejects = []
    ops = [
        batch_op("classify", CLASSIFY_ARGV, descs, expect.check_classify),
        batch_op("cohomotopy", COHOMOTOPY_ARGV, descs, expect.check_cohomotopy),
        batch_op("validate", VALIDATE_ARGV, descs, expect.check_validate),
    ]
    return _interleave(ops, rejects, rng), ("classify", "cohomotopy", "validate")


def run_passes(ops: list[Op], budget_s: float, tracer=None) -> list[Pass]:
    """Whole passes until the next one would end after ``budget_s``."""
    passes: list[Pass] = []
    durations: list[float] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(durations) <= budget_s:
        began = time.perf_counter()
        p = Pass(tracer)
        for op in ops:
            p.op_times.append({})
            p.op_costs.append({})
            failed, problems = op.run(p)
            if op.defect:
                p.defect_failed += failed
            p.failed += failed
            p.problems += problems
        passes.append(p)
        durations.append(time.perf_counter() - began)
    first = {k: d.hexdigest() for k, d in passes[0].digests.items()}
    for p in passes[1:]:
        for phase, digest in p.digests.items():
            if digest.hexdigest() != first[phase]:
                p.problems.append(f"{phase}: output differs from the first pass")
                p.unstable += 1
    return passes


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def phase_units(ops: list[Op]) -> dict[str, int]:
    units: dict[str, int] = defaultdict(int)
    for op in ops:
        for phase, n in op.phase_units.items():
            units[phase] += n
    return units


def typical(passes: list[Pass], kind: str = "op_times") -> dict[str, float]:
    """Per phase, the sum over operations of each one's median time
    (``op_times``, seconds) or cost (``op_costs``, kref) across passes:
    a typical pass, robust to a spike in any one repeat, and not biased
    by how many passes fit in the run."""
    out: dict[str, float] = defaultdict(float)
    for i, times in enumerate(getattr(passes[0], kind)):
        for phase in times:
            out[phase] += statistics.median(getattr(p, kind)[i][phase] for p in passes)
    return out


def phase_rates(ops: list[Op], passes: list[Pass], kind: str = "op_times") -> dict[str, float]:
    """Units per second (or per kref) per phase."""
    spent = typical(passes, kind)
    return {phase: n / spent[phase] for phase, n in phase_units(ops).items()}


def throughput(ops: list[Op], passes: list[Pass], kind: str = "op_times") -> float:
    """Operations of the mix per second (or per kref)."""
    return sum(op.units for op in ops) / sum(typical(passes, kind).values())


def geomean(rates: dict[str, float], commands) -> float:
    return math.exp(statistics.fmean(math.log(rates[c]) for c in commands))


# Per-command figures a user of each command sees, by phase: descriptors
# or vectors per second, and seconds per table dump.
COMMAND_METRICS = {
    "classify": ("classify_desc_per_s", "1/s"),
    "cohomotopy": ("cohomotopy_desc_per_s", "1/s"),
    "validate": ("validate_desc_per_s", "1/s"),
    "normalize": ("normalize_vec_per_s", "1/s"),
    "oracle": ("oracle_vec_per_s", "1/s"),
    "tables": ("tables_dump_s", "s"),
}


def command_metrics(rates: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The per-command figures of the commands the workload runs."""
    return {
        name: (1 / rates[phase] if unit == "s" else rates[phase], unit)
        for phase, (name, unit) in COMMAND_METRICS.items() if phase in rates
    }


def child_import(code: str, extra_args=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *extra_args, "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )


def setup_seconds() -> tuple[float, float]:
    """A fresh interpreter's ``import suspcalc.cli``, SETUP_REPEATS times
    one at a time after one discarded warm-up: the median of its cost in
    kref, as seconds on a host whose reference loop reads REF_NOMINAL_S,
    and the median wall time of the whole child process."""
    costs, walls = [], []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        kref = float(child_import(SETUP_CHILD).stdout)
        if i:
            costs.append(kref)
            walls.append(time.perf_counter() - start)
    return statistics.median(costs) * 1000 * REF_NOMINAL_S, statistics.median(walls)


def import_seconds() -> dict[str, tuple[float, str]]:
    """Cumulative import times from ``python -X importtime`` (median of
    runs): sympy, jsonschema, and suspcalc without those two."""
    runs = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        cumulative = {}
        for line in child_import(IMPORT_CHILD, ("-X", "importtime")).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        sympy_s, jsonschema_s = cumulative.get("sympy", 0.0), cumulative.get("jsonschema", 0.0)
        runs["import.sympy_s"].append(sympy_s)
        runs["import.jsonschema_s"].append(jsonschema_s)
        runs["import.suspcalc_s"].append(
            cumulative["suspcalc.cli"] - sympy_s - jsonschema_s
        )
    return {name: (statistics.median(values), "s") for name, values in runs.items()}


def layer_metrics(tracer, traced: list[Pass], ops: list[Op]) -> dict[str, tuple[float, str]]:
    """Per-layer figures per pass from the traced passes' spans and counts."""
    agg = tracer.aggregate()
    n = len(traced)

    def spans(name, key, phases=None):
        return sum(row[key] for (phase, nm), row in agg.items()
                   if nm == name and phase != "check" and (phases is None or phase in phases))

    def count(name, phases=None):
        return sum(v for (phase, nm), v in tracer.counts.items()
                   if nm == name and phase != "check" and (phases is None or phase in phases))

    units = phase_units(ops)

    def per_desc(calls_of, phases):
        descs = sum(units[p] for p in phases) * n
        return spans(calls_of, "calls", phases) / descs if descs else 0.0

    out: dict[str, tuple[float, str]] = {}
    items = count("cli.load_descriptors.items")
    out["cli.load_descriptors_ms_per_desc"] = (
        spans("cli.load_descriptors", "total_s") * 1e3 / items if items else 0.0, "ms")
    out["cli.main_self_s"] = (spans("cli.main", "self_s") / n, "s")
    out["cli.build_tables_s"] = (spans("cli.build_tables", "self_s") / n, "s")

    classify, roundtrip = "classifier.classify_double_suspension", "classifier.validate_roundtrip"
    commands = ("classify", "cohomotopy", "validate")
    out["classifier.classify_s"] = (spans(classify, "self_s") / n, "s")
    out["classifier.classify_calls_per_desc"] = (per_desc(classify, commands), "count")
    for command in commands:
        out[f"classifier.classify_calls_per_desc.{command}"] = (
            per_desc(classify, (command,)), "count")
    out["classifier.validate_roundtrip_s"] = (spans(roundtrip, "self_s") / n, "s")
    out["classifier.validate_calls_per_desc"] = (per_desc(roundtrip, commands), "count")
    for command in ("classify", "validate"):
        out[f"classifier.validate_calls_per_desc.{command}"] = (
            per_desc(roundtrip, (command,)), "count")

    for name in ("pi5_double_suspension", "pi5_suspension", "coker_H2", "is_E_surjective"):
        out[f"ehp.{name}_s"] = (spans(f"ehp.{name}", "self_s") / n, "s")
    out["ehp.hopf_table_calls"] = (spans("ehp.hopf_table", "calls") / n, "count")

    out["catalog.maps_group_s"] = (spans("catalog.maps_group", "self_s") / n, "s")
    out["catalog.maps_group_calls"] = (spans("catalog.maps_group", "calls") / n, "count")
    for name in ("integral_homology", "bockstein_profile", "theta_flag", "sq2_is_nonzero",
                 "peterson_of_group"):
        out[f"catalog.{name}_s"] = (spans(f"catalog.{name}", "self_s") / n, "s")
    out["catalog.wedge_calls"] = (count("catalog.wedge") / n, "count")
    out["catalog.wedge_summands_sorted"] = (count("catalog.wedge_summands_sorted") / n, "count")

    out["abelian.of_orders_s"] = (spans("abelian.of_orders", "self_s") / n, "s")
    out["abelian.of_orders_calls"] = (spans("abelian.of_orders", "calls") / n, "count")
    out["abelian.factorint_calls"] = (count("abelian.factorint") / n, "count")
    out["abelian.direct_sum_calls"] = (count("abelian.direct_sum") / n, "count")

    # normalize and cofiber as `suspcalc normalize` calls them, not as the
    # oracle cross-check does.
    for name in ("normalize", "cofiber"):
        out[f"normalizer.{name}_s"] = (
            spans(f"normalizer.{name}", "self_s", ("normalize",)) / n, "s")
    out["normalizer.orbit_s"] = (spans("normalizer.orbit", "self_s") / n, "s")
    out["normalizer.orbit_states"] = (count("normalizer.orbit_states") / n, "count")
    row_ops = count("normalizer.row_op")
    out["normalizer.row_op_calls"] = (row_ops / n, "count")
    out["normalizer.row_op_illegal_ratio"] = (
        count("normalizer.row_op.raised") / row_ops if row_ops else 0.0, "ratio")
    return out


# --------------------------------------------------------------------------
# run metadata
# --------------------------------------------------------------------------

def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself a git
    repository (git is kept from looking further up)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_metadata() -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "suspcalc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": _version("sympy"),
        "jsonschema": _version("jsonschema"),
        "commit": _git_commit(),
        "src_sha256": source.hexdigest(),
    }


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def load_program() -> None:
    """Import the calculator from this checkout's ``src``, or fail."""
    if not (SRC / "suspcalc" / "cli.py").is_file():
        raise SetupError(f"no program to benchmark: {SRC / 'suspcalc' / 'cli.py'} is missing")
    sys.path.insert(0, str(SRC))
    try:
        import suspcalc.cli
    except ImportError as error:
        raise SetupError(f"the program does not import: {error}") from None
    if not Path(suspcalc.cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"suspcalc was imported from {suspcalc.cli.__file__}, not {SRC}")


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_program()
    setup_s, setup_wall_s = (None, None) if trace else setup_seconds()
    import_s = import_seconds() if trace else {}
    ops, commands = build_workload(workload, seed)

    untraced = run_passes(ops, seconds / 2 if trace else seconds)
    traced, tracer = [], None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.patched():
            traced = run_passes(ops, seconds / 2, tracer)

    passes = untraced + traced
    attempted = sum(op.units for op in ops) * len(passes)
    failed = sum(p.failed for p in passes)
    defect_failed = sum(p.defect_failed for p in passes)
    unstable = sum(p.unstable for p in passes)
    problems = sorted(set(msg for p in passes for msg in p.problems))
    rates = phase_rates(ops, untraced)
    per_command = command_metrics(rates)
    if not trace:
        per_command["setup_wall_s"] = (setup_wall_s, "s")
    per_command["ops_per_s"] = (throughput(ops, untraced), "1/s")
    per_command["cmd_geomean_per_s"] = (geomean(rates, commands), "1/s")
    per_command["failed_ops_ratio"] = (failed / attempted, "ratio")

    if trace:
        metrics = layer_metrics(tracer, traced, ops)
        metrics.update(import_s)
        metrics["trace.overhead_ratio"] = (
            throughput(ops, untraced, "op_costs") / throughput(ops, traced, "op_costs"), "ratio")
        # The per-layer list is the same for every workload: commands a
        # workload does not run read 0.
        for name, unit in COMMAND_METRICS.values():
            metrics[name] = per_command.get(name, (0.0, unit))
        metrics["failed_ops_ratio"] = per_command["failed_ops_ratio"]
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_kref": (throughput(ops, untraced, "op_costs"), "1/kref"),
            "cmd_geomean_per_kref": (
                geomean(phase_rates(ops, untraced, "op_costs"), commands), "1/kref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.jsonl", SPAN_FILE_LIMIT)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metadata": run_metadata(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_seconds": [p.seconds for p in passes],
        "pass_kref": [sum(sum(costs.values()) for costs in p.op_costs) for p in passes],
        "attempted": attempted,
        "failed": failed,
        "known_defect_failed": defect_failed,
        "unstable_outputs": unstable,
        "known_defects": sorted({op.defect for op in ops if op.defect}),
        "problems": problems[:50],
        "stdout_sha256": {k: d.hexdigest() for k, d in passes[0].digests.items()},
        "command_metrics": {k: {"value": v, "unit": u} for k, (v, u) in per_command.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.SubprocessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    correct = result["failed"] == result["known_defect_failed"] and not result["unstable_outputs"]
    print(f"{args.workload} seed={args.seed} passes={result['passes']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"(known defects {result['known_defect_failed']})")
    for name, row in {**result["command_metrics"], **result["metrics"]}.items():
        print(f"  {name:48s} {row['value']:.6g} {row['unit']}")
    for msg in result["problems"]:
        print(f"  problem: {msg}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
