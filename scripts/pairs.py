"""The harness shared by the parent-against-change scripts in this directory.

Each script compares the ``src/`` directory given by ``--parent-src`` (for
instance a clone of the parent commit) with this tree's ``src/``.  Every
measurement runs a child program in a fresh interpreter with one BLAS
thread; the child finds its tree's ``src/`` on ``sys.path`` and reports
through ``emit()``, which adds its peak RSS.  Paired runs alternate which
tree runs first, parent first on even pairs.  The output records the host.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

# runs before every child program; sys.argv[1] is the tree's src/
_PRELUDE = """
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
def emit(**fields):
    fields["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(fields))
"""


def parser(doc: str, out: bool = True) -> argparse.ArgumentParser:
    """A script's parser: --parent-src, and --out unless `out` is false."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--parent-src", required=True,
                    help="src/ directory of the tree to compare against")
    if out:
        ap.add_argument("--out", required=True)
    return ap


def trees(args: argparse.Namespace) -> dict[str, Path]:
    """The two src/ directories by label, parent first."""
    return {"parent": Path(args.parent_src).resolve(), "change": ROOT / "src"}


def run_child(code: str, src: Path, *args) -> str:
    """The stdout of `code` run with `src` and `args` as its arguments.

    A child that fails raises SystemExit with its exit code and stderr tail.
    """
    argv = [str(a) for a in (src, *args)]
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + code, *argv],
                          capture_output=True, text=True, env=ENV)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)}: exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure(code: str, src: Path, *args) -> dict:
    """The fields of the last line a child printed with emit()."""
    return json.loads(run_child(code, src, *args).splitlines()[-1])


def run_pairs(subjects: dict, rounds: int, run, name: str) -> dict[object, list]:
    """run(subject) for each subject in every round: in the dict's order on even
    rounds, reversed on odd ones.  The results by key, in round order."""
    runs = {key: [] for key in subjects}
    for i in range(rounds):
        for key in list(subjects) if i % 2 == 0 else list(subjects)[::-1]:
            runs[key].append(run(subjects[key]))
            print(f"{name} round {i} {key}: {runs[key][-1]}", file=sys.stderr)
    return runs


def summary(xs: list[float]) -> dict:
    """Median and inclusive quartiles; one value is all three."""
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def wins(runs: dict, key: str, higher: bool = False) -> int:
    """Pairs in which the change's `key` is lower than the parent's (higher if asked)."""
    pairs = zip(runs["parent"], runs["change"])
    return sum(c[key] > p[key] if higher else c[key] < p[key] for p, c in pairs)


def identical(runs: dict) -> bool:
    """Whether every run of both trees reported the same sha256."""
    return len({r["sha256"] for rs in runs.values() for r in rs}) == 1


def write(path, what: str, points: list, **extra) -> None:
    """The output JSON: what was measured, the host, the points, then `extra`."""
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}
    result = {"what": what, "host": host, "points": points, **extra}
    Path(path).write_text(json.dumps(result, indent=1) + "\n")
