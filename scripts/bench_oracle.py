"""Exact-oracle timing: a parent tree against this one.

    python scripts/bench_oracle.py --parent-src ../parent/src --out BENCH_oracle.json

For each M the instance is the one ``perfbench``'s ``exact-m12`` workload
generates at M = 12 (M/4 squeezers, eta 0.5, r_max 1.0, seed 1).  Every
measurement times ``brute_force_distribution`` in a child run as
``pairs.py`` runs it.  Each paired point runs the same number of
alternating parent/change pairs.  The points at M = 18 and 20 run this
tree only.  The output records each run, the medians and quartiles, the
number of pairs in which the change was faster, the peak RSS of each
tree, and whether the two trees' distributions are byte-identical.  It
also records each tree's sum of the returned distribution and, for a
tree whose oracle has the private ``_click_table``, its smallest entry
before the clamp to [0, 1] (computed again after the timed call).
"""

from __future__ import annotations

import sys

import pairs

PAIRS = 5
PAIRED_POINTS = (8, 10, 12, 14, 16)
CHANGE_ONLY_POINTS = (18, 20)

_CHILD = """
import numpy as np
from gbsemu import gaussian
M = int(sys.argv[2])
inst, _ = gaussian.random_instance(M, max(1, M // 4), 0.5, 1.0, seed=1)
t0 = time.perf_counter()
dist = gaussian.brute_force_distribution(inst)
t1 = time.perf_counter()
table = getattr(gaussian, "_click_table", None)
raw_min = float(table(inst, np.arange(0), np.arange(M)).min()) if table else None
emit(oracle_s=t1 - t0, sha256=hashlib.sha256(dist.tobytes()).hexdigest(),
     sum=float(dist.sum()), raw_min=raw_min)
"""


def side(rs: list[dict]) -> dict:
    return {
        "oracle_s": pairs.summary([r["oracle_s"] for r in rs]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rs),
        "runs": [r["oracle_s"] for r in rs],
        "sum": rs[0]["sum"],
        "min_before_clamp": rs[0]["raw_min"],
    }


def main() -> int:
    args = pairs.parser(__doc__).parse_args()
    trees = pairs.trees(args)
    rows = []
    for M in PAIRED_POINTS:
        runs = pairs.run_pairs(trees, PAIRS, lambda src: pairs.measure(_CHILD, src, M), f"M={M}")
        row = {"M": M, "pairs": PAIRS}
        for label, rs in runs.items():
            row[label] = side(rs)
        row["speedup"] = row["parent"]["oracle_s"]["median"] / row["change"]["oracle_s"]["median"]
        row["wins"] = pairs.wins(runs, "oracle_s")
        row["identical"] = pairs.identical(runs)
        rows.append(row)
    for M in CHANGE_ONLY_POINTS:
        runs = pairs.run_pairs({"change": trees["change"]}, 1,
                               lambda src: pairs.measure(_CHILD, src, M), f"M={M}")
        rows.append({"M": M, "pairs": 0, "change": side(runs["change"])})
    pairs.write(args.out, "brute_force_distribution seconds, one process per run, one BLAS thread, "
                "alternating parent/change pairs; the last points run the change only", rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
