"""Report-stage (``benchmark`` command) timing: a parent tree against this one.

    python scripts/bench_report.py --parent-src ../parent/src --out BENCH_report.json

The inputs are perfbench's ``deep-k5`` and ``exact-m12`` workloads (M/4
squeezers, eta 0.5, r_max 1.0, instance seed 1, sampling seed 1, report
orders 2,3).  This tree makes each instance and sample file once, through
its CLI, and caches them under ``.bench_build/report/``.  Every
measurement is a child run as ``pairs.py`` runs it.  The child repeats
REPEATS passes.  Each pass times the report's layers one by one: load
the samples, the estimate column, the theory column, the exact oracle,
XEB plus TVD, and writing the report files.  The pass then times the
whole ``benchmark`` command on the same files.  Each field is the median
over the passes; the oracle and XEB+TVD are absent above
``BRUTE_FORCE_MAX_MODES``.  Each workload runs the same number of
alternating parent/change pairs.  The output records each run, the medians
and quartiles, the number of pairs in which the change was faster, the
peak RSS of each tree, and whether every run of both trees wrote
byte-identical report files.
"""

from __future__ import annotations

import statistics
import sys

import pairs

CACHE = pairs.ROOT / ".bench_build" / "report"
PAIRS = 10
REPEATS = 7
SAMPLING_SEED = 1
# (name, M, K, method, N, report orders), as perfbench declares them
WORKLOADS = (
    ("deep-k5", 24, 5, "double_elision", 8000, "2,3"),
    ("exact-m12", 12, 5, "double_elision", 100_000, "2,3"),
)
LAYERS = ("load", "estimate", "theory", "oracle", "xeb_tvd", "write", "command")

_CLI = """
from gbsemu.cli import main
sys.exit(main(sys.argv[2:]))
"""

_CHILD = """
import contextlib, io, shutil, statistics
from pathlib import Path
from gbsemu import benchmark as bm, cumulants as cu, gaussian, sampler
from gbsemu.cli import main
inst_path, samples_path, orders, out = sys.argv[2:6]
orders = tuple(int(d) for d in orders.split(","))
out = Path(out)
K = max(orders)
inst = gaussian.load_instance(inst_path)
passes = {}
for _ in range(int(sys.argv[6])):
    t = {}
    t0 = time.perf_counter()
    arr = sampler.load_samples(samples_path).bitstrings
    t["load"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    bm.estimate_click_cumulants(arr, K)
    t["estimate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    if hasattr(cu, "cumulant_tables"):
        kappa = cu.cumulant_tables(inst, K)[1]
    else:  # a tree from before the one pass
        kappa = cu.cumulants_from_correlators(cu.correlator_table(inst, K))
    cu.click_cumulants_from_cumulants(kappa)
    t["theory"] = time.perf_counter() - t0
    if inst.M <= bm.BRUTE_FORCE_MAX_MODES:
        t0 = time.perf_counter()
        dist = gaussian.brute_force_distribution(inst)
        t["oracle"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        bm.xeb(arr, inst, dist=dist)
        bm.tvd(bm.empirical_distribution(arr, inst.M), dist)
        t["xeb_tvd"] = time.perf_counter() - t0
    report, scatter = bm.build_report(inst, arr, orders)
    shutil.rmtree(out / "layers", ignore_errors=True)
    t0 = time.perf_counter()
    bm.write_report(out / "layers", report, scatter)
    t["write"] = time.perf_counter() - t0
    argv = ["benchmark", "--samples", samples_path, "--instance", inst_path,
            "--orders", sys.argv[4], "--seed", sys.argv[7], "--out", str(out / "command")]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = main(argv)
        t["command"] = time.perf_counter() - t0
    assert rc == 0, rc
    for name, s in t.items():
        passes.setdefault(name, []).append(s)
digest = hashlib.sha256()
for p in sorted(out.rglob("*")):
    if p.is_file():
        digest.update(str(p.relative_to(out)).encode() + b"\\0" + p.read_bytes())
emit(command_s=statistics.median(passes["command"]),
     layer_s={name: statistics.median(xs) for name, xs in passes.items()},
     sha256=digest.hexdigest())
"""


def inputs(name: str, M: int, K: int, method: str, N: int) -> tuple:
    """The instance and sample files of a workload, made once by this tree."""
    d = CACHE / name
    inst, table, samples = d / "inst.json", d / "table.gbsk", d / "samples.txt"
    if not samples.exists():
        d.mkdir(parents=True, exist_ok=True)
        src = pairs.ROOT / "src"
        pairs.run_child(_CLI, src, "gen-instance", "--modes", M, "--squeezers", M // 4,
                        "--eta", 0.5, "--rmax", 1.0, "--seed", 1, "--out", inst)
        pairs.run_child(_CLI, src, "precompute", "--instance", inst, "--order", K,
                        "--out", table)
        pairs.run_child(_CLI, src, "sample", "--table", table, "--instance", inst,
                        "--method", method, "--order", K, "--samples", N,
                        "--seed", SAMPLING_SEED, "--out", samples)
    return inst, samples


def main() -> int:
    args = pairs.parser(__doc__).parse_args()
    trees = pairs.trees(args)
    rows = []
    for name, M, K, method, N, orders in WORKLOADS:
        inst, samples = inputs(name, M, K, method, N)
        runs = pairs.run_pairs(
            trees, PAIRS,
            lambda src: pairs.measure(_CHILD, src, inst, samples, orders,
                                      CACHE / name / "out", REPEATS, SAMPLING_SEED),
            name)
        row = {"workload": name, "M": M, "K": K, "N": N, "orders": orders, "pairs": PAIRS,
               "repeats": REPEATS}
        for label, rs in runs.items():
            present = [layer for layer in LAYERS if layer in rs[0]["layer_s"]]
            row[label] = {
                "command_s": pairs.summary([r["command_s"] for r in rs]),
                "layer_s": {layer: statistics.median(r["layer_s"][layer] for r in rs)
                            for layer in present},
                "peak_rss_mb": max(r["peak_rss_mb"] for r in rs),
                "runs": [r["command_s"] for r in rs],
            }
        row["speedup"] = (row["parent"]["command_s"]["median"]
                          / row["change"]["command_s"]["median"])
        row["wins"] = pairs.wins(runs, "command_s")
        row["reports_identical"] = pairs.identical(runs)
        rows.append(row)
    pairs.write(args.out, "benchmark-command seconds and per-layer seconds (median of "
                f"{REPEATS} in-process passes per run), one process per run, one BLAS "
                "thread, alternating parent/change pairs", rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
