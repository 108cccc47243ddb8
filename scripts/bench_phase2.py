"""Phase II timing on the reference instances: a parent tree against this one.

    python scripts/bench_phase2.py --parent-src ../parent/src --out BENCH_phase2.json

For each (M, K) point the instance is the one the ``scaling`` command
builds (M/4 squeezers, eta 0.5, r_max 1.0, seed 1234 + M).  Every
measurement builds both tables with ``cumulant_tables`` and records its
two layers: ``phase2_s``, the no-click lattice, and ``transform_s``, the
one pass that makes correlators and cumulants.  A tree without
``cumulant_tables`` runs ``correlator_table`` (lattice and correlator
conversion, its ``phase2_s``) and ``cumulants_from_correlators`` (its
``transform_s``), so the layers of the two trees split the work at
different places; ``total_s`` is their sum, and the speedup and the win
count compare it.  Each point runs the same number of alternating
parent/change pairs, in a child run as ``pairs.py`` runs it.  The output
records each run, the medians and quartiles, the peak RSS of each tree,
whether the correlator and cumulant tables of the two trees are
byte-identical, and the largest absolute difference between the two
trees' correlators and between their cumulants.  Each child saves its
tables to ``.bench_build/phase2/`` for that comparison.
"""

from __future__ import annotations

import sys

import numpy as np

import pairs

PAIRS = 5
# (M, K, pairs); one run at M=144, K=4 takes about 10 s and 0.6 GB
POINTS = ((64, 3, PAIRS), (24, 5, PAIRS), (32, 5, PAIRS), (48, 5, PAIRS), (128, 3, PAIRS),
          (144, 4, 2))
WORK = pairs.ROOT / ".bench_build" / "phase2"
FIELDS = ("phase2_s", "transform_s", "total_s")

_CHILD = """
import numpy as np
from gbsemu import cumulants
from gbsemu.gaussian import random_instance
M, K = int(sys.argv[2]), int(sys.argv[3])
inst, _ = random_instance(M, max(1, M // 4), 0.5, 1.0, seed=1234 + M)
times = {}
t0 = time.perf_counter()
if hasattr(cumulants, "cumulant_tables"):
    ctab, ktab = cumulants.cumulant_tables(inst, K, times)
else:
    ctab = cumulants.correlator_table(inst, K)
    t1 = time.perf_counter()
    ktab = cumulants.cumulants_from_correlators(ctab)
    times = {"phase2_s": t1 - t0, "transform_s": time.perf_counter() - t1}
total_s = time.perf_counter() - t0
# hashed in place: a bytes copy of the tables would set the peak RSS
digest = hashlib.sha256(ctab.values)
digest.update(ktab.values)
emit(**times, total_s=total_s, entries=int(ctab.values.size), sha256=digest.hexdigest())
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
            row[label] = {f: pairs.summary([r[f] for r in rs]) for f in FIELDS}
            row[label]["peak_rss_mb"] = max(r["peak_rss_mb"] for r in rs)
            row[label]["runs"] = [{f: r[f] for f in FIELDS} for r in rs]
        row["speedup"] = row["parent"]["total_s"]["median"] / row["change"]["total_s"]["median"]
        row["total_wins"] = pairs.wins(runs, "total_s")
        row["tables_identical"] = pairs.identical(runs)
        with np.load(saved[trees["parent"]]) as a, np.load(saved[trees["change"]]) as b:
            for kind in ("correlator", "cumulant"):
                row[f"max_{kind}_diff"] = float(np.abs(a[kind] - b[kind]).max())
        rows.append(row)
    pairs.write(args.out, "Phase II (no-click lattice) and transform seconds of the correlator "
                "and cumulant tables, one process per run, one BLAS thread, alternating "
                "parent/change pairs", rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
