"""The three workloads, their seeded inputs, and the closed measurement loop.

One caller drives the public API in a closed loop: each operation starts
when the previous one returned.  Library defaults apply (serial pool,
default backend).  Inputs are a function of the seed and are built outside
every timed region.

Each workload runs on one registry dataset at a fixed size and the
registry's own generator seed, so it plays the part of a benchmark data
file.  The seed permutes its rows, a fresh permutation per batch operation,
which changes the order every sampler walks clusters in; for
``append-stream`` it also orders the batch sizes.  The generator seed stays
fixed: it moves the FD count, and the discovery time with it, by more than
the benchmark's bounds (33k-42k FDs on fd-reduced-30), and a fixed row
multiset keeps one committed exact oracle per workload.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.algorithms import create
from repro.core.incremental import IncrementalEulerFD
from repro.core.result import DiscoveryResult
from repro.engine import ExecutionContext, use_context
from repro.datasets.registry import make
from repro.fd.fd import FD
from repro.metrics.accuracy import f1_score
from repro.relation.relation import Relation

import oracle
from tracing import Tracer

F1_FLOOR = 0.9
"""An approximate result scoring below this F1 counts as a failed operation."""

MIN_BATCH_OPS = 4  # batch operations, each on its own row order, even in the shortest run
MIN_ROUNDS = 2  # of the stream
MIN_SETUPS = 5  # set-up samples of the stream, whose rounds are few
SETUP_REPEATS = 3  # context builds per batch operation
TRACE_ROUNDS = 3
"""Traced runs do fixed work: after one warm-up op, this many batch ops (or
one stream), each run untraced and then traced, so ``trace_overhead``
compares equal work."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    rows: int
    smoke_rows: int
    algorithm: str  # "eulerfd", "hyfd", or "incremental"
    exact: bool = False
    used_rows: int | None = None  # a prefix of the generated rows, when not all
    base_rows: int = 0  # append-stream: rows profiled in set-up
    smoke_base_rows: int = 0
    smoke_columns: int | None = None  # narrower smoke inputs where the dataset allows
    max_batch: int = 0  # append-stream: batch sizes are uniform in 1..max_batch


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-eulerfd",
            "EulerFD on fd-reduced-30 2000x30 (~37k FDs): inversion dominates, "
            "so inversion and LHS-index changes show here",
            "fd-reduced-30", 2000, 300, "eulerfd", smoke_columns=12,
        ),
        Workload(
            "exact-hyfd",
            "HyFD on ncvoter 500x19, a new row order per operation: validate_many "
            "dominates; the only workload on the validation backends, checked exactly",
            "ncvoter", 500, 150, "hyfd", exact=True,
        ),
        Workload(
            "append-stream",
            "IncrementalEulerFD on fd-reduced-30: 1000-row base, then 112 "
            "batches of 1-4 rows; the only write path",
            "fd-reduced-30", 2000, 300, "incremental", used_rows=1280,
            base_rows=1000, smoke_base_rows=150, smoke_columns=12, max_batch=4,
        ),
    )
}


@dataclass
class Inputs:
    source: Relation  # the registry dataset, in generator order
    seed: int
    base_rows: int = 0  # append-stream only
    batches: list[list[tuple]] = field(default_factory=list)

    def relation(self, index: int = 0) -> Relation:
        """Operation ``index``'s input: the source rows in a seeded order."""
        order = list(range(self.source.num_rows))
        random.Random(f"{self.seed}/{index}").shuffle(order)
        return Relation(
            self.source.column_names,
            tuple(tuple(column[i] for i in order) for column in self.source.columns),
            self.source.name,
        )


def make_inputs(workload: Workload, seed: int, smoke: bool = False) -> Inputs:
    """Everything a run feeds the library, a function of ``seed`` alone.

    Batch workloads give every operation its own row order; the stream
    grows relation 0 from its first ``base_rows`` rows in seeded batches.
    """
    if smoke:
        source = make(workload.dataset, rows=workload.smoke_rows, columns=workload.smoke_columns)
    else:
        source = make(workload.dataset, rows=workload.rows).head(workload.used_rows or workload.rows)
    rows = source.num_rows
    inputs = Inputs(source, seed)
    if workload.algorithm != "incremental":
        return inputs
    inputs.base_rows = workload.smoke_base_rows if smoke else workload.base_rows
    relation = inputs.relation(0)
    sizes = _batch_sizes(rows - inputs.base_rows, workload.max_batch)
    random.Random(seed).shuffle(sizes)
    position = inputs.base_rows
    for size in sizes:
        inputs.batches.append([relation.row(i) for i in range(position, position + size)])
        position += size
    return inputs


def _batch_sizes(total: int, largest: int) -> list[int]:
    """Sizes 1..largest in equal numbers, then the remainder, so that every
    seed appends the same rows in the same number of batches."""
    cycle = list(range(1, largest + 1))
    sizes = cycle * (total // sum(cycle))
    rest = total - sum(sizes)
    return sizes + [largest] * (rest // largest) + ([rest % largest] if rest % largest else [])


# -- failure accounting ------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


def malformed(result: object, width: int) -> str | None:
    """Why ``result`` is not a usable FD set, or None when it is."""
    if not isinstance(result, DiscoveryResult) or not isinstance(result.fds, frozenset):
        return f"not a DiscoveryResult: {type(result).__name__}"
    if not result.fds:
        return "empty FD set"
    limit = 1 << width
    for fd in result.fds:
        if not isinstance(fd, FD) or not 0 <= fd.rhs < width or fd.lhs >= limit:
            return f"malformed FD {fd!r}"
        if fd.lhs >> fd.rhs & 1:
            return f"trivial FD {fd!r}"
    return None


def score(result: object, truth: frozenset, width: int, exact: bool, tally: Tally) -> float | None:
    """F1 of ``result`` against ``truth``; None (and a failure) when unusable."""
    problem = malformed(result, width)
    if problem is not None:
        tally.fail(problem)
        return None
    f1 = f1_score(result.fds, truth)
    if exact and result.fds != truth:
        tally.fail(f"differs from the oracle in {len(result.fds ^ truth)} FDs")
        return None
    if f1 < F1_FLOOR:
        tally.fail(f"F1 {f1:.4f} below {F1_FLOOR}")
        return None
    return f1


# -- measurement ---------------------------------------------------------------------
#
# This host's CPU switches between a fast and a slow state (about 1.5x apart)
# many times a second, and for minutes at a time the slow state dominates:
# whole runs of identical work differ by up to 1.7x.  Between operations the
# benchmark therefore times a fixed reference kernel that does not use the
# library, and reports every timing scaled by the kernel's time around it
# (see ``Speed``): a change to the library moves the scaled figure, a
# change of host speed largely cancels.


REFERENCE_S = 0.004
"""The reference kernel's time at the nominal host speed; a timing is
reported as ``measured * REFERENCE_S / kernel time around it``."""
PROBE_SHARE = 0.05
"""Kernel time per probe, as a share of the time since the previous probe."""
PROBE_MIN_CALLS = 2

_ref_rng = random.Random(0)
_REF_MASKS = [_ref_rng.getrandbits(30) for _ in range(600)]
_REF_PAIRS = [(_ref_rng.getrandbits(20), _ref_rng.getrandbits(30)) for _ in range(4000)]
_REF_ARRAY = np.random.default_rng(0).integers(0, 5000, 20000)


def reference_kernel() -> int:
    """Fixed work in the library's own mix: int bitmasks and dicts, many
    small objects built, hashed and sorted, and a numpy pass."""
    seen: dict[int, int] = {}
    acc = 0
    for mask in _REF_MASKS:
        key = mask ^ (mask & -mask)
        seen[key] = seen.get(key, 0) + 1
        acc += bin(mask).count("1")
    pairs = sorted(frozenset((b, a) for a, b in _REF_PAIRS))
    index = {pair: i for i, pair in enumerate(pairs)}
    np.unique(_REF_ARRAY, return_inverse=True)
    return acc + len(seen) + len(index)


class Speed:
    """The reference kernel's time, probed between operations.

    Each probe runs the kernel for ``PROBE_SHARE`` of the time since the
    previous probe, so a long operation is bracketed by long probes.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.since = time.perf_counter()
        self.last = self.probe()

    def probe(self) -> float:
        """Run a probe; return the kernel's mean time in it."""
        budget = PROBE_SHARE * (time.perf_counter() - self.since)
        times: list[float] = []
        gc.disable()  # the kernel's time must not depend on the library's heap
        while len(times) < PROBE_MIN_CALLS or sum(times) < budget:
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
        gc.enable()
        self.samples += times
        self.since = time.perf_counter()
        self.last = sum(times) / len(times)
        return self.last


@dataclass
class Samples:
    setup_s: list[tuple[float, float]] = field(default_factory=list)  # (measured, kernel)
    op_s: dict[int, list[tuple[float, float]]] = field(default_factory=dict)  # op -> reps
    op_rows: dict[int, int] = field(default_factory=dict)
    f1: list[float] = field(default_factory=list)
    wall_s: float = 0.0  # setups + ops, for trace_overhead
    speed: Speed = field(default_factory=Speed)

    def record(self, op: int, seconds: float, kernel: float, rows: int) -> None:
        self.op_s.setdefault(op, []).append((seconds, kernel))
        self.op_rows[op] = rows


class _Untraced:
    """Stands in for a Tracer: no spans, no store reads."""

    def root(self, kind):
        return nullcontext()

    def store_sample(self, store, before):
        pass


UNTRACED = _Untraced()


def _keep_going(count: int, start: float, seconds: float, single: bool, least: int) -> bool:
    """Start another operation or round only while one more of average length fits."""
    if single:
        return count < 1
    if count < least:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / count <= seconds


def measure_batch(workload, inputs, truth, seconds, tally, tracer=UNTRACED, single=False, first=0):
    """Operations of (fresh contexts, discover), each on its own row order.

    Operation ``k`` profiles ``inputs.relation(first + k)``; ``single`` runs
    operation ``first`` alone.
    """
    width = inputs.source.num_columns
    samples = Samples()
    speed = samples.speed
    start = time.perf_counter()
    op = first
    while _keep_going(op - first, start, seconds, single, MIN_BATCH_OPS):
        relation = inputs.relation(op)
        op += 1
        gc.collect()
        before = speed.last
        setups = []
        try:
            # set-up is brief and noisy, so each operation samples it repeatedly
            for _ in range(SETUP_REPEATS):
                tally.attempted += 1
                t0 = time.perf_counter()
                with tracer.root("setup"):
                    context = ExecutionContext(relation)
                setups.append(time.perf_counter() - t0)
        except Exception as exc:  # an operation failing is a measurement
            tally.fail(f"setup raised {exc!r}")
            speed.probe()
            continue
        tally.attempted += 1
        store_before = context.partitions.stats() if tracer is not UNTRACED else None
        try:
            t0 = time.perf_counter()
            with tracer.root("op"), use_context(context):
                result = create(workload.algorithm).discover(relation)
            elapsed = time.perf_counter() - t0
        except Exception as exc:
            tally.fail(f"discover raised {exc!r}")
            speed.probe()
            continue
        kernel = (before + speed.probe()) / 2
        samples.setup_s += [(s, kernel) for s in setups]
        tracer.store_sample(context.partitions, store_before)
        samples.wall_s += sum(setups) + elapsed
        f1 = score(result, truth, width, workload.exact, tally)
        if f1 is not None:
            samples.record(op - 1, elapsed, kernel, relation.num_rows)
            samples.f1.append(f1)
        del context, result
    return samples


def measure_stream(workload, inputs, truth, seconds, tally, tracer=UNTRACED, single=False, first=0):
    """Rounds of the whole stream: set up on the base, then append every batch."""
    width = inputs.source.num_columns
    base = inputs.relation(0).head(inputs.base_rows)
    samples = Samples()
    speed = samples.speed
    start = time.perf_counter()
    rounds = 0
    while _keep_going(rounds, start, seconds, single, MIN_ROUNDS):
        rounds += 1
        gc.collect()
        tally.attempted += 1
        before = speed.last
        try:
            t0 = time.perf_counter()
            with tracer.root("setup"):
                engine = IncrementalEulerFD(base)
            elapsed = time.perf_counter() - t0
        except Exception as exc:
            tally.fail(f"setup raised {exc!r}")
            speed.probe()
            continue
        samples.setup_s.append((elapsed, (before + speed.probe()) / 2))
        samples.wall_s += elapsed
        result = None
        for op, batch in enumerate(inputs.batches):
            tally.attempted += 1
            store = engine.context.partitions
            store_before = store.stats() if tracer is not UNTRACED else None
            before = speed.last
            try:
                t0 = time.perf_counter()
                with tracer.root("op"):
                    result = engine.append(batch)
                elapsed = time.perf_counter() - t0
            except Exception as exc:
                tally.fail(f"append raised {exc!r}")
                speed.probe()
                break  # the engine's state is unknown; start a fresh stream
            kernel = (before + speed.probe()) / 2
            tracer.store_sample(store, store_before)
            samples.wall_s += elapsed
            problem = malformed(result, width)
            if problem is not None:
                tally.fail(problem)
                continue
            samples.record(op, elapsed, kernel, len(batch))
        else:
            f1 = score(result, truth, width, False, tally)
            if f1 is not None:
                samples.f1.append(f1)
        del engine, result
    # the set-up median needs several samples even when few rounds fit
    while not single and len(samples.setup_s) < MIN_SETUPS:
        gc.collect()
        tally.attempted += 1
        before = speed.last
        try:
            t0 = time.perf_counter()
            IncrementalEulerFD(base)
            elapsed = time.perf_counter() - t0
        except Exception as exc:
            tally.fail(f"setup raised {exc!r}")
            break
        samples.setup_s.append((elapsed, (before + speed.probe()) / 2))
    return samples


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timings(samples: Samples, scale) -> dict[str, float]:
    """The timing metrics, each (measured, kernel) pair mapped by ``scale``.

    An operation repeated across rounds counts with its median repetition.
    """
    ops = [statistics.median(scale(*rep) for rep in reps) for _, reps in sorted(samples.op_s.items())]
    setups = [scale(*pair) for pair in samples.setup_s]
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "op_p50_ms": statistics.median(ops) * 1e3 if ops else 0.0,
        "op_p90_ms": _percentile(ops, 90) * 1e3,
        "rows_per_s": sum(samples.op_rows.values()) / sum(ops) if ops else 0.0,
    }


def end_to_end(samples: Samples, tally: Tally) -> dict[str, float]:
    """Every end-to-end metric of one untraced run, timings at reference speed."""
    metrics = _timings(samples, lambda measured, kernel: measured * REFERENCE_S / kernel)
    metrics.update({
        "f1": statistics.median(samples.f1) if samples.f1 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1.0 - tally.failed / max(tally.attempted, 1),
    })
    return metrics


def as_measured(samples: Samples) -> dict[str, float]:
    """The timing metrics unscaled, and the kernel's mean time, for the log."""
    measured = _timings(samples, lambda measured, kernel: measured)
    measured["kernel_ms"] = statistics.mean(samples.speed.samples) * 1e3
    return measured


UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "rows_per_s": "1/s",
    "f1": "ratio",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


@dataclass
class Outcome:
    tally: Tally
    metrics: dict[str, float]
    samples: Samples
    measured: dict[str, float] = field(default_factory=dict)
    trace_path: Path | None = None


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    cache_dir: Path,
    smoke: bool = False,
) -> Outcome:
    """Run one workload: inputs, oracle, then an untraced or a traced pass."""
    workload = WORKLOADS[name]
    inputs = make_inputs(workload, seed, smoke)
    generated = workload.smoke_rows if smoke else workload.rows
    truth = oracle.load_or_compute(inputs.source, workload.dataset, generated, cache_dir)
    measure = measure_stream if workload.algorithm == "incremental" else measure_batch
    tally = Tally()
    if not trace:
        samples = measure(workload, inputs, truth, seconds, tally)
        return Outcome(tally, end_to_end(samples, tally), samples, as_measured(samples))
    # Untraced and traced passes over the same inputs alternate, so slow
    # phases of the host hit both sides of trace_overhead alike.
    tracer = Tracer()
    if workload.algorithm == "incremental":
        rounds = 1
    else:
        rounds = TRACE_ROUNDS
        measure(workload, inputs, truth, seconds, Tally(), single=True)  # warm-up
    untraced_wall = 0.0
    samples = Samples()
    for index in range(rounds):
        untraced_wall += measure(
            workload, inputs, truth, seconds, tally, single=True, first=index
        ).wall_s
        with tracer.installed():
            traced = measure(workload, inputs, truth, seconds, tally, tracer, True, index)
        samples.setup_s += traced.setup_s
        for op, times in traced.op_s.items():
            samples.op_s.setdefault(op, []).extend(times)
    path = cache_dir / "traces" / f"{name}-seed{seed}.json"
    tracer.dump(path)
    return Outcome(tally, tracer.metrics(untraced_wall), samples, trace_path=path)
