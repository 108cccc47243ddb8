"""Phase II timing on the reference instances: a parent tree against this one.

    python scripts/bench_phase2.py --parent-src ../parent/src --out BENCH_phase2.json

``--parent-src`` is the ``src/`` directory of the tree to compare against,
for instance a clone of the parent commit.  For each (M, K) point the
instance is the one the ``scaling`` command builds (M/4 squeezers, eta
0.5, r_max 1.0, seed 1234 + M).  Every measurement runs in a fresh
interpreter with one BLAS thread and times ``correlator_table`` (Phase
II) and ``cumulants_from_correlators`` (the transform).  Each point runs
the same number of parent/change pairs; which tree runs first alternates
from pair to pair.  The output records each run, the medians and
quartiles, the number of pairs in which the change was faster, the
peak RSS of each tree, and whether the correlator and cumulant tables
of the two trees are byte-identical.
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
# (M, K, pairs); a parent run at M=48 K=5 takes minutes, so that point gets two pairs
POINTS = ((64, 3, PAIRS), (32, 5, PAIRS), (48, 5, 2), (128, 3, PAIRS))

_CHILD = """
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from gbsemu.cumulants import correlator_table, cumulants_from_correlators
from gbsemu.gaussian import random_instance
M, K = int(sys.argv[2]), int(sys.argv[3])
inst, _ = random_instance(M, max(1, M // 4), 0.5, 1.0, seed=1234 + M)
t0 = time.perf_counter()
ctab = correlator_table(inst, K)
t1 = time.perf_counter()
ktab = cumulants_from_correlators(ctab)
t2 = time.perf_counter()
print(json.dumps({
    "phase2_s": t1 - t0, "transform_s": t2 - t1, "entries": int(ctab.values.size),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "sha256": hashlib.sha256(ctab.values.tobytes() + ktab.values.tobytes()).hexdigest(),
}))
"""


def run_one(src: Path, M: int, K: int) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(M), str(K)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summary(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent-src", required=True,
                    help="src/ directory of the tree to compare against")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": Path(args.parent_src).resolve(), "change": ROOT / "src"}
    rows = []
    for M, K, pairs in POINTS:
        runs = {label: [] for label in trees}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for label in order:
                runs[label].append(run_one(trees[label], M, K))
                print(f"M={M} K={K} pair {i} {label}: {runs[label][-1]}", file=sys.stderr)
        row = {"M": M, "K": K, "pairs": pairs, "entries": runs["change"][0]["entries"]}
        for label, rs in runs.items():
            row[label] = {
                "phase2_s": summary([r["phase2_s"] for r in rs]),
                "transform_s": summary([r["transform_s"] for r in rs]),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in rs),
                "runs": [{k: r[k] for k in ("phase2_s", "transform_s")} for r in rs],
            }
        matched = list(zip(runs["parent"], runs["change"]))
        row["phase2_speedup"] = row["parent"]["phase2_s"]["median"] / row["change"]["phase2_s"]["median"]
        row["phase2_wins"] = sum(c["phase2_s"] < p["phase2_s"] for p, c in matched)
        row["transform_wins"] = sum(c["transform_s"] < p["transform_s"] for p, c in matched)
        row["tables_identical"] = len({r["sha256"] for rs in runs.values() for r in rs}) == 1
        rows.append(row)
    result = {
        "what": "Phase II (correlator_table) and cumulant transform seconds, "
                "one process per run, one BLAS thread, alternating parent/change pairs",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "points": rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
