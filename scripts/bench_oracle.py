"""Exact-oracle timing: a parent tree against this one.

    python scripts/bench_oracle.py --parent-src ../parent/src --out BENCH_oracle.json

For each M the instance is the one ``perfbench``'s ``exact-m12`` workload
generates at M = 12 (M/4 squeezers, eta 0.5, r_max 1.0, seed 1).  Every
measurement times ``brute_force_distribution`` in a child run as
``pairs.py`` runs it.  Each paired point runs the same number of
alternating parent/change pairs.  The largest points run this tree only,
because a parent run would take hours.  The output records each run, the
medians and quartiles, the number of pairs in which the change was faster,
the peak RSS of each tree, and whether the two trees' distributions are
byte-identical.
"""

from __future__ import annotations

import sys

import pairs

PAIRS = 5
# (M, pairs); a parent run at M=14 takes minutes, so that point gets one pair
PAIRED_POINTS = ((8, PAIRS), (10, PAIRS), (12, PAIRS), (14, 1))
CHANGE_ONLY_POINTS = (16, 18)

_CHILD = """
from gbsemu.gaussian import brute_force_distribution, random_instance
M = int(sys.argv[2])
inst, _ = random_instance(M, max(1, M // 4), 0.5, 1.0, seed=1)
t0 = time.perf_counter()
dist = brute_force_distribution(inst)
t1 = time.perf_counter()
emit(oracle_s=t1 - t0, sha256=hashlib.sha256(dist.tobytes()).hexdigest())
"""


def side(rs: list[dict]) -> dict:
    return {
        "oracle_s": pairs.summary([r["oracle_s"] for r in rs]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rs),
        "runs": [r["oracle_s"] for r in rs],
    }


def main() -> int:
    args = pairs.parser(__doc__).parse_args()
    trees = pairs.trees(args)
    rows = []
    for M, n in PAIRED_POINTS:
        runs = pairs.run_pairs(trees, n, lambda src: pairs.measure(_CHILD, src, M), f"M={M}")
        row = {"M": M, "pairs": n}
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
