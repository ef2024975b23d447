"""Run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from its
``src/``.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced pass (see perfbench/README.md).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload, each
in its own process.  ``--smoke`` shrinks every input for quick checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE_DIR = HERE / ".cache"
PINNED_ENV = ("REPRO_BACKEND", "REPRO_JOBS")
"""Library defaults the benchmark measures; a run refuses to override them."""


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_library():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_one(args) -> int:
    import workloads
    from repro.engine import close_all_pools, get_backend, get_pool
    from tracing import PER_LAYER

    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), CACHE_DIR, args.smoke
        )
        backend, spec = get_backend().name, get_pool().spec
    finally:
        close_all_pools()
    tally = outcome.tally
    workload = workloads.WORKLOADS[args.workload]
    print(
        f"workload {args.workload} seed {args.seed} smoke {args.smoke} "
        f"dataset {workload.dataset} backend {backend} pool {spec.kind}:{spec.jobs} "
        f"trace {args.trace}"
    )
    print(
        f"operations {tally.attempted} failed {tally.failed} "
        f"error_rate {tally.failed / max(tally.attempted, 1):.4f} "
        f"timed {sum(map(len, outcome.samples.op_s.values()))} repetitions of "
        f"{len(outcome.samples.op_s)} operations, {len(outcome.samples.setup_s)} set-ups"
    )
    for reason in tally.reasons:
        print(f"failure: {reason}")
    if outcome.trace_path is not None:
        print(f"spans written to {outcome.trace_path}")
    metrics = {}
    for name, value in outcome.metrics.items():
        unit = PER_LAYER[name] if args.trace else workloads.UNITS[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:40s} {value:16.6f} {unit}")
    for name, value in outcome.measured.items():
        print(f"  measured {name:31s} {value:16.6f}")
    print(_result_line(tally.failed == 0, tally.attempted, tally.failed, metrics))
    return 0


def run_all(args, names) -> int:
    """Every workload in a fresh process, then one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            return _fail(f"workload {name} exited with {child.returncode}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{key}": value for key, value in result["metrics"].items()})
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    overridden = [name for name in PINNED_ENV if os.environ.get(name)]
    if overridden:
        return _fail(f"unset {', '.join(overridden)}: the benchmark measures library defaults")
    try:
        _import_library()
        from workloads import WORKLOADS
    except ImportError as exc:
        return _fail(str(exc))
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
