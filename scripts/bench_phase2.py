"""Phase II timing on the reference instances: a parent tree against this one.

    python scripts/bench_phase2.py --parent-src ../parent/src --out BENCH_phase2.json

For each (M, K) point the instance is the one the ``scaling`` command
builds (M/4 squeezers, eta 0.5, r_max 1.0, seed 1234 + M).  Every
measurement times ``correlator_table`` (Phase II) and
``cumulants_from_correlators`` (the transform), in a child run as
``pairs.py`` runs it.  Each point runs the same number of alternating
parent/change pairs.  The output records each run, the medians and
quartiles, the number of pairs in which the change was faster, the peak
RSS of each tree, whether the correlator and cumulant tables of the
two trees are byte-identical, and the largest absolute difference between
the two trees' correlators and between their cumulants.  Each child saves
its tables to ``.bench_build/phase2/`` for that comparison.
"""

from __future__ import annotations

import sys

import numpy as np

import pairs

PAIRS = 5
# (M, K, pairs); a parent run at M=48 K=5 takes minutes, so that point gets two pairs
POINTS = ((64, 3, PAIRS), (24, 5, PAIRS), (32, 5, PAIRS), (48, 5, 2), (128, 3, PAIRS))
WORK = pairs.ROOT / ".bench_build" / "phase2"

_CHILD = """
import numpy as np
from gbsemu.cumulants import correlator_table, cumulants_from_correlators
from gbsemu.gaussian import random_instance
M, K = int(sys.argv[2]), int(sys.argv[3])
inst, _ = random_instance(M, max(1, M // 4), 0.5, 1.0, seed=1234 + M)
t0 = time.perf_counter()
ctab = correlator_table(inst, K)
t1 = time.perf_counter()
ktab = cumulants_from_correlators(ctab)
t2 = time.perf_counter()
emit(phase2_s=t1 - t0, transform_s=t2 - t1, entries=int(ctab.values.size),
     sha256=hashlib.sha256(ctab.values.tobytes() + ktab.values.tobytes()).hexdigest())
np.savez(sys.argv[4], correlator=ctab.values, cumulant=ktab.values)
"""


def main() -> int:
    args = pairs.parser(__doc__).parse_args()
    trees = pairs.trees(args)
    WORK.mkdir(parents=True, exist_ok=True)
    saved = {src: WORK / f"{label}.npz" for label, src in trees.items()}
    rows = []
    for M, K, n in POINTS:
        runs = pairs.run_pairs(trees, n, lambda src: pairs.measure(_CHILD, src, M, K, saved[src]),
                               f"M={M} K={K}")
        row = {"M": M, "K": K, "pairs": n, "entries": runs["change"][0]["entries"]}
        for label, rs in runs.items():
            row[label] = {
                "phase2_s": pairs.summary([r["phase2_s"] for r in rs]),
                "transform_s": pairs.summary([r["transform_s"] for r in rs]),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in rs),
                "runs": [{k: r[k] for k in ("phase2_s", "transform_s")} for r in rs],
            }
        row["phase2_speedup"] = row["parent"]["phase2_s"]["median"] / row["change"]["phase2_s"]["median"]
        row["phase2_wins"] = pairs.wins(runs, "phase2_s")
        row["transform_wins"] = pairs.wins(runs, "transform_s")
        row["tables_identical"] = pairs.identical(runs)
        with np.load(saved[trees["parent"]]) as a, np.load(saved[trees["change"]]) as b:
            for kind in ("correlator", "cumulant"):
                row[f"max_{kind}_diff"] = float(np.abs(a[kind] - b[kind]).max())
        rows.append(row)
    pairs.write(args.out, "Phase II (correlator_table) and cumulant transform seconds, "
                "one process per run, one BLAS thread, alternating parent/change pairs", rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
