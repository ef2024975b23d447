"""The exact FD set a workload's outputs are scored against.

The oracle of a relation is computed by HyFD on an explicitly pinned
``columnar`` backend and cross-checked against Fdep; the two share no
validation code, so a defect in one cannot silently redefine "correct".
It runs in a child process (``python3 perfbench/oracle.py``), outside
every timed region and outside the measured process's memory.

Results are stored as gzip text keyed by a digest of the relation.  The
digest covers the schema and the *multiset* of rows: the exact FD set does
not depend on row order, so every seed's permutation of one dataset shares
one oracle.  Files under ``oracles/`` are committed, which pins the answer
for the shipped workloads; anything computed later goes to the run cache.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_DIR = HERE / "oracles"
FORMAT = "perfbench-oracle/1"


class OracleError(RuntimeError):
    """The oracle could not be computed or does not match its relation."""


def relation_digest(relation) -> str:
    """SHA-256 over the schema and the sorted rows of ``relation``."""
    digest = hashlib.sha256()
    digest.update(repr(relation.column_names).encode())
    for line in sorted(repr(row) for row in relation.iter_rows()):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def compute(relation):
    """HyFD (columnar) cross-checked against Fdep; raises on disagreement."""
    from repro.algorithms import create
    from repro.engine import ExecutionContext, use_context

    answers = {}
    for algorithm in ("hyfd", "fdep"):
        context = ExecutionContext(relation, backend="columnar")
        with use_context(context):
            answers[algorithm] = create(algorithm).discover(relation).fds
    if answers["hyfd"] != answers["fdep"]:
        raise OracleError(
            f"hyfd and fdep disagree on {relation.name}: "
            f"{len(answers['hyfd'] ^ answers['fdep'])} FDs differ"
        )
    return answers["hyfd"]


def write(path: Path, digest: str, relation, fds) -> None:
    """Write ``fds`` as gzip text: a header, then ``rhs lhs-hex`` lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"# {FORMAT}",
        f"# digest {digest}",
        f"# relation {relation.name} {relation.num_rows}x{relation.num_columns}",
        f"# fds {len(fds)}",
    ]
    lines += [f"{fd.rhs} {fd.lhs:x}" for fd in sorted(fds, key=lambda f: (f.rhs, f.lhs))]
    tmp = path.with_suffix(".tmp")
    # mtime=0 keeps the bytes a function of the FD set alone
    with open(tmp, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as out:
        out.write(("\n".join(lines) + "\n").encode())
    tmp.replace(path)


def read(path: Path, digest: str):
    """Load an oracle file, refusing one written for another relation."""
    from repro.fd.fd import FD

    with gzip.open(path, "rt") as handle:
        lines = handle.read().splitlines()
    header = [line for line in lines if line.startswith("#")]
    if not header or header[0] != f"# {FORMAT}" or f"# digest {digest}" not in header:
        raise OracleError(f"{path} is not the oracle of relation {digest[:12]}")
    fds = frozenset(
        FD(int(lhs, 16), int(rhs))
        for rhs, lhs in (line.split() for line in lines if not line.startswith("#"))
    )
    declared = int(next(line for line in header if line.startswith("# fds")).split()[2])
    if len(fds) != declared:
        raise OracleError(f"{path} holds {len(fds)} FDs, header says {declared}")
    return fds


def load_or_compute(relation, dataset: str, generated_rows: int, cache_dir: Path):
    """The oracle of ``relation``: pinned file, cached file, or a child run.

    ``relation`` permutes the first ``relation.num_rows`` rows of registry
    dataset ``dataset`` generated at ``generated_rows`` rows; the child
    regenerates that rather than receiving it pickled.
    """
    digest = relation_digest(relation)
    name = f"{digest[:32]}.txt.gz"
    for directory in (PINNED_DIR, cache_dir / "oracles"):
        path = directory / name
        if path.exists():
            return read(path, digest)
    path = cache_dir / "oracles" / name
    child = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--dataset",
            dataset,
            "--rows",
            str(generated_rows),
            "--head",
            str(relation.num_rows),
            "--columns",
            str(relation.num_columns),
            "--out",
            str(path),
        ],
        capture_output=True,
        text=True,
        timeout=900,
    )
    if child.returncode != 0:
        raise OracleError(f"oracle child failed:\n{child.stderr.strip()}")
    return read(path, digest)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--head", type=int, default=None)
    parser.add_argument("--columns", type=int, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.datasets.registry import info

    entry = info(args.dataset)
    columns = args.columns if entry.column_parameter else None
    relation = entry.make(rows=args.rows, columns=columns).head(args.head or args.rows)
    write(args.out, relation_digest(relation), relation, compute(relation))
    return 0


if __name__ == "__main__":
    sys.exit(main())
