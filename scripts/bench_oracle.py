"""Exact-oracle timing: a parent tree against this one.

    python scripts/bench_oracle.py --parent-src ../parent/src --out BENCH_oracle.json

``--parent-src`` is the ``src/`` directory of the tree to compare against,
for instance a clone of the parent commit.  For each M the instance is the
one ``perfbench``'s ``exact-m12`` workload generates at M = 12 (M/4
squeezers, eta 0.5, r_max 1.0, seed 1).  Every measurement runs in a fresh
interpreter with one BLAS thread and times ``brute_force_distribution``.
Each paired point runs the same number of parent/change pairs, and which
tree runs first alternates from pair to pair.  The largest points run
this tree only, because a parent run would take hours.  The output records
each run, the medians and quartiles, the number of pairs in which the
change was faster, the peak RSS of each tree, and whether the two trees'
distributions are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 5
# (M, pairs); a parent run at M=14 takes minutes, so that point gets one pair
PAIRED_POINTS = ((8, PAIRS), (10, PAIRS), (12, PAIRS), (14, 1))
CHANGE_ONLY_POINTS = (16, 18)

_CHILD = """
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from gbsemu.gaussian import brute_force_distribution, random_instance
M = int(sys.argv[2])
inst, _ = random_instance(M, max(1, M // 4), 0.5, 1.0, seed=1)
t0 = time.perf_counter()
dist = brute_force_distribution(inst)
t1 = time.perf_counter()
print(json.dumps({
    "oracle_s": t1 - t0,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "sha256": hashlib.sha256(dist.tobytes()).hexdigest(),
}))
"""


def run_one(src: Path, M: int) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(M)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summary(xs: list[float]) -> dict:
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def side(rs: list[dict]) -> dict:
    return {
        "oracle_s": summary([r["oracle_s"] for r in rs]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rs),
        "runs": [r["oracle_s"] for r in rs],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent-src", required=True,
                    help="src/ directory of the tree to compare against")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": Path(args.parent_src).resolve(), "change": ROOT / "src"}
    rows = []
    for M, pairs in PAIRED_POINTS:
        runs = {label: [] for label in trees}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for label in order:
                runs[label].append(run_one(trees[label], M))
                print(f"M={M} pair {i} {label}: {runs[label][-1]}", file=sys.stderr)
        row = {"M": M, "pairs": pairs}
        for label, rs in runs.items():
            row[label] = side(rs)
        matched = list(zip(runs["parent"], runs["change"]))
        row["speedup"] = row["parent"]["oracle_s"]["median"] / row["change"]["oracle_s"]["median"]
        row["wins"] = sum(c["oracle_s"] < p["oracle_s"] for p, c in matched)
        row["identical"] = len({r["sha256"] for rs in runs.values() for r in rs}) == 1
        rows.append(row)
    for M in CHANGE_ONLY_POINTS:
        r = run_one(trees["change"], M)
        print(f"M={M} change: {r}", file=sys.stderr)
        rows.append({"M": M, "pairs": 0, "change": side([r])})
    result = {
        "what": "brute_force_distribution seconds, one process per run, one BLAS thread, "
                "alternating parent/change pairs; the last points run the change only",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "points": rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
