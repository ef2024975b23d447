"""Outside-in layer tracing: spans recorded around the library's public calls.

Nothing under ``src/`` is changed.  While a :class:`Tracer` is installed it
replaces a fixed list of public methods, one or more per layer, with
wrappers that record a span per call (name, start, end, parent, operation
id) and read the layer's own counters off the call's arguments and return
value.  Spans are kept in memory and written out by :meth:`Tracer.dump`.

The benchmark opens one root span per operation, of kind ``setup`` or
``op`` (the workload's measured call: ``discover`` or ``append``); every
span below it carries the root's operation id.  A span's self time is its
duration minus the durations of its children, so the self times under a
root add up to the root's duration.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.algorithms.hyfd import HyFD
from repro.core.eulerfd import EulerFD
from repro.core.incremental import IncrementalEulerFD
from repro.core.inversion import Inverter
from repro.core.sampler import SamplingModule
from repro.engine.backends import ColumnarBackend, NumpyBackend, PythonBackend
from repro.engine.context import ExecutionContext


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    kind: str  # the root's kind: "setup" or "op"


def _pass_counts(tracer, args, result):
    _, stats = result
    tracer.count("core.sampler.pairs", stats.pairs_compared)
    tracer.count("core.sampler.new_non_fds", stats.new_non_fds)


def _inversion_counts(tracer, args, result):
    tracer.count("core.inversion.non_fds", result.non_fds_processed)
    tracer.count("core.inversion.candidates_added", result.candidates_added)
    tracer.count("core.inversion.candidates_removed", result.candidates_removed)


def _eulerfd_counts(tracer, args, result):
    for key in ("cycles", "sampling_rounds", "ncover_size", "pcover_size"):
        tracer.count(f"core.eulerfd.{key}", result.stats[key])


def _validate_counts(tracer, args, result):
    tracer.count("engine.validate.candidates", len(result))


def _append_counts(tracer, args, result):
    tracer.count("engine.context.appended_rows", len(args[1]))


SPANNED = (
    (ExecutionContext, "__init__", "engine.context.init", None),
    (ExecutionContext, "validate_many", "engine.context.validate_many", _validate_counts),
    (ExecutionContext, "append_rows", "engine.context.append_rows", _append_counts),
    (SamplingModule, "run_pass", "core.sampler.run_pass", _pass_counts),
    (SamplingModule, "extend_clusters", "core.sampler.extend_clusters", None),
    (Inverter, "process", "core.inversion.process", _inversion_counts),
    (EulerFD, "discover", "core.eulerfd.discover", _eulerfd_counts),
    (HyFD, "discover", "algorithms.hyfd.discover", None),
    (IncrementalEulerFD, "__init__", "core.incremental.init", None),
    (IncrementalEulerFD, "append", "core.incremental.append", None),
)
"""(owner, method, span name, counter hook) of every traced layer boundary."""

COUNTED = (
    (NumpyBackend, "group_keys", "engine.backends.group_keys_calls"),
    (ColumnarBackend, "group_keys", "engine.backends.group_keys_calls"),
    (PythonBackend, "group_keys", "engine.backends.group_keys_calls"),
)
"""Boundaries crossed once per LHS fold: counted only, a span each would
cost more than the fold on small relations and hide inside validate_many."""

STORE_KEYS = ("hits", "misses", "derives", "evictions", "delta_applied", "delta_rebuilt")

# Per-operation self-time metrics and the span each sums; together they
# cover every span expected under an op root.
OP_SELF_METRICS = {
    "core.sampler.run_pass_s": "core.sampler.run_pass",
    "core.sampler.extend_clusters_s": "core.sampler.extend_clusters",
    "core.inversion.process_s": "core.inversion.process",
    "core.eulerfd.self_s": "core.eulerfd.discover",
    "engine.context.validate_many_s": "engine.context.validate_many",
    "algorithms.hyfd.self_s": "algorithms.hyfd.discover",
    "engine.context.append_rows_s": "engine.context.append_rows",
    "core.incremental.self_s": "core.incremental.append",
    "bench.op_self_s": "bench.op",
}

PER_LAYER = {
    "engine.context.init_s": "s",
    "trace.setup_wall_s": "s",
    **{metric: "s" for metric in OP_SELF_METRICS},
    "core.sampler.run_pass_calls": "count",
    "core.sampler.pairs": "count",
    "core.sampler.us_per_pair": "us",
    "core.sampler.novel_ratio": "ratio",
    "core.inversion.non_fds": "count",
    "core.inversion.candidates_added": "count",
    "core.inversion.candidates_removed": "count",
    "core.inversion.us_per_non_fd": "us",
    "core.eulerfd.cycles": "count",
    "core.eulerfd.sampling_rounds": "count",
    "core.eulerfd.ncover_size": "count",
    "core.eulerfd.pcover_size": "count",
    "engine.validate.candidates": "count",
    "engine.backends.group_keys_calls": "count",
    "engine.validate.us_per_candidate": "us",
    "engine.validate.candidates_per_fold": "ratio",
    "engine.context.us_per_appended_row": "us",
    **{f"engine.store.{key}": "count" for key in STORE_KEYS},
    "engine.store.resident_bytes": "bytes",
    "trace.op_wall_s": "s",
    "trace.coverage": "ratio",
    "trace_overhead": "ratio",
}
"""Every per-layer metric and its unit, in BENCHMARK.json order."""


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self.roots: Counter[str] = Counter()
        self.root_wall_ns: Counter[str] = Counter()
        self.resident: list[int] = []
        self._stack: list[int] = []
        self._op = -1
        self._kind = ""
        self._saved: list[tuple[type, str, object]] = []

    # -- recording -------------------------------------------------------------

    def count(self, key: str, amount: int | float = 1, kind: str | None = None) -> None:
        self.counts[(kind or self._kind, key)] += amount

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._op, self._kind))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str):
        """One benchmark operation: a root span all its spans hang from."""
        self._op += 1
        self._kind = kind
        outer = time.perf_counter_ns()
        index = self._enter(f"bench.{kind}")
        try:
            yield
        finally:
            self._exit(index)
            self.roots[kind] += 1
            self.root_wall_ns[kind] += time.perf_counter_ns() - outer
            self._kind = ""

    def store_sample(self, store, before: dict[str, int]) -> None:
        """Partition-store traffic of one op, from ``stats()`` read around it."""
        after = store.stats()
        for key in STORE_KEYS:
            self.count(f"engine.store.{key}", after[key] - before[key], kind="op")
        self.resident.append(store.resident_bytes)

    # -- installation ----------------------------------------------------------

    def _spanned(self, original, name, hook):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(index)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _counted(self, original, key):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count(key)
            return original(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced boundary for the duration of the block."""
        try:
            for owner, method, name, hook in SPANNED:
                original = owner.__dict__[method]
                self._saved.append((owner, method, original))
                setattr(owner, method, self._spanned(original, name, hook))
            for owner, method, key in COUNTED:
                original = owner.__dict__[method]
                self._saved.append((owner, method, original))
                setattr(owner, method, self._counted(original, key))
            yield self
        finally:
            while self._saved:
                owner, method, original = self._saved.pop()
                setattr(owner, method, original)

    # -- analysis --------------------------------------------------------------

    def self_seconds(self) -> dict[tuple[str, str], float]:
        """Self time per (root kind, span name), in seconds."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for span, children in zip(self.spans, child_ns):
            totals[(span.kind, span.name)] += (span.end_ns - span.start_ns - children) / 1e9
        return totals

    def metrics(self, untraced_wall_s: float) -> dict[str, float]:
        """Every per-layer metric: op metrics per op, setup metrics per setup.

        ``untraced_wall_s`` is the wall time of the same operations run
        without the tracer, the base of ``trace_overhead``.
        """
        ops = max(self.roots["op"], 1)
        setups = max(self.roots["setup"], 1)
        self_s = self.self_seconds()
        out: dict[str, float] = {}
        out["engine.context.init_s"] = (
            self_s[("setup", "engine.context.init")] + self_s[("op", "engine.context.init")]
        ) / setups
        out["trace.setup_wall_s"] = self.root_wall_ns["setup"] / 1e9 / setups
        for metric, name in OP_SELF_METRICS.items():
            out[metric] = self_s[("op", name)] / ops

        def op_count(key: str) -> float:
            return self.counts[("op", key)]

        pairs = op_count("core.sampler.pairs")
        non_fds = op_count("core.inversion.non_fds")
        candidates = op_count("engine.validate.candidates")
        folds = op_count("engine.backends.group_keys_calls")
        rows = op_count("engine.context.appended_rows")
        out["core.sampler.run_pass_calls"] = (
            sum(1 for s in self.spans if s.kind == "op" and s.name == "core.sampler.run_pass") / ops
        )
        out["core.sampler.pairs"] = pairs / ops
        out["core.sampler.us_per_pair"] = _ratio(self_s[("op", "core.sampler.run_pass")] * 1e6, pairs)
        out["core.sampler.novel_ratio"] = _ratio(op_count("core.sampler.new_non_fds"), pairs)
        for key in ("non_fds", "candidates_added", "candidates_removed"):
            out[f"core.inversion.{key}"] = op_count(f"core.inversion.{key}") / ops
        out["core.inversion.us_per_non_fd"] = _ratio(
            self_s[("op", "core.inversion.process")] * 1e6, non_fds
        )
        for key in ("cycles", "sampling_rounds", "ncover_size", "pcover_size"):
            out[f"core.eulerfd.{key}"] = op_count(f"core.eulerfd.{key}") / ops
        out["engine.validate.candidates"] = candidates / ops
        out["engine.backends.group_keys_calls"] = folds / ops
        out["engine.validate.us_per_candidate"] = _ratio(
            self_s[("op", "engine.context.validate_many")] * 1e6, candidates
        )
        out["engine.validate.candidates_per_fold"] = _ratio(candidates, folds)
        out["engine.context.us_per_appended_row"] = _ratio(
            self_s[("op", "engine.context.append_rows")] * 1e6, rows
        )
        for key in STORE_KEYS:
            out[f"engine.store.{key}"] = op_count(f"engine.store.{key}") / ops
        out["engine.store.resident_bytes"] = _ratio(sum(self.resident), len(self.resident))
        op_wall = self.root_wall_ns["op"] / 1e9 / ops
        out["trace.op_wall_s"] = op_wall
        out["trace.coverage"] = _ratio(sum(out[m] for m in OP_SELF_METRICS), op_wall)
        traced_wall = (self.root_wall_ns["op"] + self.root_wall_ns["setup"]) / 1e9
        out["trace_overhead"] = _ratio(traced_wall, untraced_wall_s) - 1.0
        return {name: out[name] for name in PER_LAYER}

    def dump(self, path: Path) -> None:
        """Write every span and counter as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [asdict(span) for span in self.spans],
            "counts": [
                {"kind": kind, "key": key, "value": value}
                for (kind, key), value in sorted(self.counts.items())
            ],
        }
        path.write_text(json.dumps(payload))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
