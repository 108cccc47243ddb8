"""Sampler throughput on the reference instances: a parent tree against this one.

    python scripts/bench_sampler.py --parent-src ../parent/src --out BENCH_sampler.json

For each point the instance is the one the ``scaling`` command builds (M/4
squeezers, eta 0.5, r_max 1.0, seed 1234 + M); its cumulant table is built
once by this tree and cached under ``.bench_build/``.  Every measurement
draws N samples (seed 1) with ``batch_sample`` on one worker at the tree's
own batch width, in a child run as ``pairs.py`` runs it.  The four
``MarginalTables`` layers (p-step, q1, q2, pp) are timed by wrapping their
methods.  Each point runs the same number of alternating parent/change
pairs.  The output records each run, the medians and quartiles of
samples/s, the median per-layer seconds, the peak RSS of each tree, the
number of pairs in which the change was faster, and whether the two trees
drew the same bitstrings.  ``column_share`` is the share of the N * M
column-steps the change's sampler computed, which shares one table column
between samples with a common prefix; ``deferred`` counts the samples it
restarted in a later table run, for want of a free column or because they
left the previous run's trie, and ``routed`` the samples whose bits it
read from a finished run's trie.

A second part (``widths``) runs this tree alone at fixed batch widths,
WIDTH_RUNS runs per width, and records samples/s and peak RSS at each
width next to the width ``_auto_batch`` picks.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pairs

CACHE = pairs.ROOT / ".bench_build" / "sampler"
PAIRS = 5
# (M, K, method, N): N keeps one parent run to a few seconds
POINTS = (
    (24, 5, "double_elision", 4000),
    (32, 5, "double_elision", 2000),
    (48, 5, "double_elision", 400),
    (64, 3, "single_elision", 8192),
    (128, 3, "single_elision", 1024),
)
# (M, K, method, N, widths): this tree at fixed batch widths, against the
# width _auto_batch picks; for single elision the widest entry is the
# previous engine's width
WIDTH_RUNS = 3
WIDTH_POINTS = (
    (48, 5, "double_elision", 512, (16, 32, 64, 128, 256)),
    (64, 3, "single_elision", 8192, (64, 128, 256, 512, 1024, 4096)),
    (128, 3, "single_elision", 2048, (32, 64, 128, 256, 1024)),
)
LAYERS = ("step_probability_zero", "update_p1", "update_p2", "update_p_plus")

_BUILD = """
from gbsemu.cumulants import cumulant_tables, save_table
from gbsemu.gaussian import random_instance
M, K = int(sys.argv[2]), int(sys.argv[3])
inst, _ = random_instance(M, max(1, M // 4), 0.5, 1.0, seed=1234 + M)
save_table(cumulant_tables(inst, K)[1], sys.argv[4])
"""

_CHILD = """
from gbsemu import sampler
from gbsemu.cumulants import load_table
kappa = load_table(sys.argv[2])
K, method, N = int(sys.argv[3]), sys.argv[4], int(sys.argv[5])
split = dict.fromkeys(sys.argv[6].split(","), 0.0)
width = int(sys.argv[7])  # 0: the tree's own width
if width:
    sampler._auto_batch = lambda M, config: width

def timed(name, fn):
    def wrapper(self, n):
        t0 = time.perf_counter()
        try:
            return fn(self, n)
        finally:
            split[name] += time.perf_counter() - t0
    return wrapper

for name in split:
    setattr(sampler.MarginalTables, name, timed(name, getattr(sampler.MarginalTables, name)))
cfg = sampler.SamplerConfig(N=N, K=K, method=method, seed=1)
t0 = time.perf_counter()
batch = sampler.batch_sample(cfg, kappa=kappa)
wall = time.perf_counter() - t0
emit(samples_per_s=N / wall, layer_s=split,
     sha256=hashlib.sha256(batch.bitstrings.tobytes()).hexdigest(),
     column_share=getattr(batch, "table_columns", N * kappa.M) / (N * kappa.M),
     deferred=getattr(batch, "n_deferred", 0), routed=getattr(batch, "n_routed", 0))
"""


def table_path(M: int, K: int) -> Path:
    path = CACHE / f"m{M}_k{K}.gbsk"
    if not path.exists():
        CACHE.mkdir(parents=True, exist_ok=True)
        pairs.run_child(_BUILD, pairs.ROOT / "src", M, K, path)
    return path


def run_one(src: Path, table: Path, K: int, method: str, N: int, width: int = 0) -> dict:
    return pairs.measure(_CHILD, src, table, K, method, N, ",".join(LAYERS), width)


def width_sweep() -> list[dict]:
    """This tree at each fixed width; the run order reverses every round."""
    sys.path.insert(0, str(pairs.ROOT / "src"))
    from gbsemu import sampler

    rows = []
    for M, K, method, N, widths in WIDTH_POINTS:
        table = table_path(M, K)
        runs = pairs.run_pairs(
            {w: w for w in widths}, WIDTH_RUNS,
            lambda w: run_one(pairs.ROOT / "src", table, K, method, N, w),
            f"M={M} K={K} {method} width")
        rows.append({
            "M": M, "K": K, "method": method, "N": N, "runs_per_width": WIDTH_RUNS,
            "auto_width": sampler._auto_batch(
                M, sampler.SamplerConfig(N=0, K=K, method=method)),
            "by_width": [{"width": w,
                          "samples_per_s": pairs.summary([r["samples_per_s"] for r in runs[w]]),
                          "peak_rss_mb": max(r["peak_rss_mb"] for r in runs[w])}
                         for w in widths],
        })
    return rows


def main() -> int:
    args = pairs.parser(__doc__).parse_args()
    trees = pairs.trees(args)
    rows = []
    for M, K, method, N in POINTS:
        table = table_path(M, K)
        runs = pairs.run_pairs(trees, PAIRS, lambda src: run_one(src, table, K, method, N),
                               f"M={M} K={K} {method}")
        row = {"M": M, "K": K, "method": method, "N": N, "pairs": PAIRS}
        for label, rs in runs.items():
            row[label] = {
                "samples_per_s": pairs.summary([r["samples_per_s"] for r in rs]),
                "layer_s": {name: statistics.median(r["layer_s"][name] for r in rs)
                            for name in LAYERS},
                "peak_rss_mb": max(r["peak_rss_mb"] for r in rs),
                "runs": [r["samples_per_s"] for r in rs],
            }
        row["column_share"] = runs["change"][0]["column_share"]
        row["deferred"] = runs["change"][0]["deferred"]
        row["routed"] = runs["change"][0]["routed"]
        row["speedup"] = (row["change"]["samples_per_s"]["median"]
                          / row["parent"]["samples_per_s"]["median"])
        row["wins"] = pairs.wins(runs, "samples_per_s", higher=True)
        row["bits_identical"] = pairs.identical(runs)
        rows.append(row)
    pairs.write(args.out, "batch_sample samples/s and per-layer seconds, one process per run, "
                "one worker, one BLAS thread, alternating parent/change pairs", rows,
                widths=width_sweep())
    return 0


if __name__ == "__main__":
    sys.exit(main())
