"""In-memory spans and counters around the calculator's public functions.

The program itself is not touched: ``Tracer.patched`` replaces a name
where its callers look it up (a module global or a class attribute) by a
wrapper, and restores the original on exit.  Each wrapped call becomes a
span (name, parent, phase, start, end) kept in flat arrays; counters
record call counts and sizes where a span per call would only add cost.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns

from suspcalc import abelian, catalog, classifier, cli, ehp, normalizer


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.phases: list[str] = []
        self.phase = 0
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_phase = array("B")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)

    def set_phase(self, phase: str) -> None:
        if phase not in self.phases:
            self.phases.append(phase)
        self.phase = self.phases.index(phase)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phases[self.phase], name)] += n

    def span(self, name: str, func, on_result=None):
        """``func`` wrapped so that each call records a span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack

        @wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_phase.append(self.phase)
            self.span_end.append(0)
            stack.append(idx)
            self.span_start.append(perf_counter_ns())
            try:
                result = func(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name: str, func, size=None, raises=None):
        """``func`` wrapped so that each call adds to ``name`` (by
        ``size(args)`` when given) and each ``raises`` exception to
        ``name + '.raised'``."""

        @wraps(func)
        def wrapper(*args, **kwargs):
            self.count(name, size(args) if size else 1)
            if raises is None:
                return func(*args, **kwargs)
            try:
                return func(*args, **kwargs)
            except raises:
                self.count(name + ".raised")
                raise

        return wrapper

    def _patches(self):
        """(owner, attribute, wrapper) for every traced name."""
        def spanned(name, owners, on_result=None):
            attr = name.split(".")[-1]
            func = getattr(owners[0], attr)
            wrapper = self.span(name, func, on_result)
            return [(owner, attr, wrapper) for owner in owners]

        def counted_len(name):
            return lambda result: self.count(name, len(result))

        out = []
        out += spanned("cli.main", [cli])
        out += spanned("cli.load_descriptors", [cli],
                       on_result=counted_len("cli.load_descriptors.items"))
        out += spanned("cli.build_tables", [cli])
        out += spanned("classifier.classify_double_suspension", [cli, ehp])
        out += spanned("classifier.validate_roundtrip", [cli])
        for name in ("pi5_double_suspension", "pi5_suspension", "coker_H2",
                     "is_E_surjective", "hopf_table"):
            out += spanned(f"ehp.{name}", [ehp])
        out += spanned("catalog.maps_group", [cli, ehp, normalizer])
        for name in ("integral_homology", "bockstein_profile", "theta_flag",
                     "sq2_is_nonzero", "peterson_of_group"):
            out += spanned(f"catalog.{name}", [classifier])
        for name in ("normalize", "cofiber"):
            out += spanned(f"normalizer.{name}", [normalizer])
        out += spanned("normalizer.orbit", [normalizer],
                       on_result=counted_len("normalizer.orbit_states"))

        group = abelian.FgAbelianGroup
        of_orders = group.__dict__["of_orders"].__func__
        out.append((group, "of_orders", classmethod(self.span("abelian.of_orders", of_orders))))
        out.append((group, "direct_sum", self.counter("abelian.direct_sum", group.direct_sum)))
        out.append((abelian, "factorint", self.counter("abelian.factorint", abelian.factorint)))
        wedge = catalog.WedgeComplex
        out.append((wedge, "wedge", self.counter("catalog.wedge", wedge.wedge)))
        out.append((wedge, "__post_init__",
                    self.counter("catalog.wedge_summands_sorted", wedge.__post_init__,
                                 size=lambda args: len(args[0].summands))))
        out.append((normalizer, "row_op",
                    self.counter("normalizer.row_op", normalizer.row_op,
                                 raises=normalizer.IllegalOp)))
        return out

    @contextmanager
    def patched(self):
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ----- results --------------------------------------------------------

    def aggregate(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (phase, name): span count, total and self seconds."""
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += duration[i]
        out: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i in range(n):
            row = out[(self.phases[self.span_phase[i]], self.names[self.span_name[i]])]
            row["calls"] += 1
            row["total_s"] += duration[i] / 1e9
            row["self_s"] += (duration[i] - child[i]) / 1e9
        return out

    def write_spans(self, path, limit: int) -> None:
        """JSON Lines: a header, then up to ``limit`` spans as
        [name, parent, phase, start_ns, end_ns] relative to the first."""
        n = len(self.span_start)
        origin = self.span_start[0] if n else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "phases": self.phases,
                                     "spans_total": n, "spans_written": min(n, limit)}) + "\n")
            for i in range(min(n, limit)):
                handle.write(json.dumps([
                    self.span_name[i], self.span_parent[i], self.span_phase[i],
                    self.span_start[i] - origin, self.span_end[i] - origin,
                ]) + "\n")
