"""End-to-end benchmark of the gbsemu pipeline.

Runs ``gen-instance -> precompute -> sample -> benchmark`` through
``gbsemu.cli.main(argv)`` on one named workload, checks the outputs, and
prints one JSON result object as the last line of standard output.

    python3 perfbench/run.py --workload deep-k5 --seed 1 --seconds 60 --trace 0

``--trace 0`` reports the end-to-end metrics.  One whole pipeline pass
runs first; until ``--seconds`` is used up, single stages are then run
again on the same inputs, always the one with the fewest runs so far, and
each stage reports the median of its runs.  ``--trace 1`` runs
one untraced pass, then one pass with spans attached to the public
functions of gaussian, cumulants, sampler, benchmark and cli (see
spans.py), and reports per-layer self times and call counts.

The package is imported from ``src/`` of the checkout that holds this
directory; without it the benchmark exits with code 2.  Scratch files go
to ``.perfbench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    modes: int
    order: int
    method: str
    samples: int
    report_orders: str

    @property
    def squeezers(self) -> int:
        return self.modes // 4


WORKLOADS = {
    "deep-k5": Workload(24, 5, "double_elision", 8000, "2,3"),
    "wide-k3": Workload(64, 3, "single_elision", 16384, "2"),
    "exact-m12": Workload(12, 5, "double_elision", 100_000, "2,3"),
}

ETA = 0.5
RMAX = 1.0
# One fixed instance per workload: the cost of every stage depends only on
# (M, K, method, N), and the quality metrics then vary only with --seed.
INSTANCE_SEED = 1
SETUP_REPEATS = 5
ORACLE_SUBSETS = 6
ORACLE_TOL = 1e-10
# modes of the exact marginal used for tvd where the report has no full TVD
TVD_MARGINAL_MODES = 8
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

STAGES = ("precompute", "sample", "sample_w2", "benchmark")

# import plus gen-instance, timed inside a fresh interpreter
_SETUP_CODE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from gbsemu.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[2:])
print(json.dumps({"rc": rc, "s": time.perf_counter() - t0}))
"""

# every end-to-end metric of BENCHMARK.json, with its unit
END_TO_END = (
    ("setup_s", "s"), ("table_s", "s"), ("sample_rate", "1/s"),
    ("sample_rate_w2", "1/s"), ("report_s", "s"), ("total_s", "s"),
    ("peak_rss_mb", "MB"), ("pearson2", "1"),
)

# per-layer self times by span name (sampler.<method> are MarginalTables methods)
LAYER_SELF = (
    "cumulants.correlator_table", "cumulants.cumulants_from_correlators",
    "cumulants.save_table", "cumulants.load_table", "cumulants.click_cumulant",
    "gaussian.brute_force_distribution", "gaussian.load_instance",
    "sampler.batch_sample", "sampler.step_probability_zero", "sampler.update_p1",
    "sampler.update_p2", "sampler.update_p_plus", "sampler.save_samples_text",
    "sampler.load_samples", "benchmark.build_report",
    "benchmark.estimate_click_cumulants", "benchmark.xeb", "benchmark.tvd",
)
LAYER_CALLS = ("cumulants.correlator", "cumulants.click_cumulant", "benchmark.bootstrap")
# Stages whose spans feed the per-layer sums.  The 2-worker stage runs its
# sampler spans in worker processes, where they are lost.
LAYER_STAGES = ("precompute", "sample", "benchmark")


class StageFailed(Exception):
    pass


class Tally:
    """Attempted and failed operations: stages, samples and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> bool:
        self.add(1, 0 if ok else 1, what)
        return ok


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Pipeline:
    """File layout and CLI argument lists of one workload run."""

    def __init__(self, wl: Workload, inst_seed: int, sample_seed: int, workdir: Path):
        self.wl = wl
        self.inst_seed = inst_seed
        self.sample_seed = sample_seed
        self.dir = workdir
        self.inst = workdir / "inst.json"
        self.table = workdir / "table.gbsk"
        self.corr = workdir / "table.gbsc"
        self.samples = {1: workdir / "samples_w1.txt", 2: workdir / "samples_w2.txt"}

    def gen_argv(self, out: Path) -> list[str]:
        wl = self.wl
        return ["gen-instance", "--modes", str(wl.modes), "--squeezers", str(wl.squeezers),
                "--eta", str(ETA), "--rmax", str(RMAX), "--seed", str(self.inst_seed),
                "--out", str(out)]

    def argv(self, stage: str) -> list[str]:
        wl = self.wl
        if stage == "precompute":
            return ["precompute", "--instance", str(self.inst), "--order", str(wl.order),
                    "--out", str(self.table)]
        if stage == "benchmark":
            return ["benchmark", "--samples", str(self.samples[1]), "--instance", str(self.inst),
                    "--orders", wl.report_orders, "--seed", str(self.sample_seed),
                    "--out", str(self.dir / "report")]
        workers = 2 if stage == "sample_w2" else 1
        return ["sample", "--table", str(self.table), "--instance", str(self.inst),
                "--method", wl.method, "--order", str(wl.order), "--samples", str(wl.samples),
                "--seed", str(self.sample_seed), "--workers", str(workers),
                "--out", str(self.samples[workers])]


def run_setup(pipe: Pipeline, tally: Tally) -> float:
    """Median seconds of import + gen-instance over fresh interpreters."""
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        out = pipe.dir / f"inst_setup{i}.json"
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)] + pipe.gen_argv(out),
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        res = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        if not tally.check(res.get("rc") == 0,
                           f"gen-instance exited {proc.returncode}: {proc.stderr[-300:]}"):
            raise StageFailed("gen-instance")
        times.append(res["s"])
        digests.append(_digest([out]))
    tally.check(len(set(digests)) == 1, "gen-instance output differs between repeats")
    shutil.copyfile(pipe.dir / "inst_setup0.json", pipe.inst)
    return statistics.median(times)


@dataclass
class StageRun:
    seconds: float
    manifest: dict
    digest: str


def run_stage(cli, pipe: Pipeline, stage: str, tally: Tally, tracer=None) -> StageRun:
    """One CLI stage in-process; counts its exit code and failed samples."""
    buf = io.StringIO()
    span = tracer.stage_span(stage) if tracer else contextlib.nullcontext()
    gc.collect()
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), span:
            rc = cli.main(pipe.argv(stage))
    except Exception:  # a crashing stage is a failed operation, not a benchmark crash
        traceback.print_exc(file=sys.stderr)
    dt = time.perf_counter() - t0
    if not tally.check(rc == 0, f"{stage} exited {rc}"):
        raise StageFailed(stage)
    man = json.loads(buf.getvalue())
    if "n_failed" in man:
        tally.add(pipe.wl.samples, man["n_failed"], f"{stage}: {man['n_failed']} samples failed")
    return StageRun(dt, man, _digest(man["outputs"]))


def run_pass(cli, pipe: Pipeline, tally: Tally, tracer=None) -> dict[str, StageRun]:
    """precompute -> sample (1 worker) -> sample (2 workers) -> benchmark."""
    return {st: run_stage(cli, pipe, st, tally, tracer) for st in STAGES}


def measure(cli, pipe: Pipeline, tally: Tally, seconds: float):
    """One pass, then repeats of the stage with the fewest runs (the shortest
    on a tie) that still fits in the time.

    Returns the runs of every stage and the peak RSS in MB after the first
    pass; later repeats vary from run to run and would move the peak.
    """
    t_end = time.perf_counter() + seconds
    runs = {st: [r] for st, r in run_pass(cli, pipe, tally).items()}
    peak_mb = peak_rss_mb()
    while True:
        left = t_end - time.perf_counter()
        fits = [st for st in STAGES if statistics.median(r.seconds for r in runs[st]) < left]
        if not fits:
            return runs, peak_mb
        stage = min(fits, key=lambda st: (len(runs[st]), runs[st][0].seconds))
        runs[stage].append(run_stage(cli, pipe, stage, tally))


def _subset_offset(M: int, subset) -> int:
    """Dense table offset: subsets ordered by size, then colex rank.

    Computed from the documented file layout rather than with
    gbsemu.subsets, so the oracle check does not rely on the code it checks.
    """
    d = len(subset)
    return sum(math.comb(M, j) for j in range(1, d)) + sum(
        math.comb(s, i + 1) for i, s in enumerate(subset))


def check_outputs(pipe: Pipeline, runs: dict[str, list[StageRun]], tally: Tally,
                  seed: int) -> dict:
    """Output checks; returns the quality figures."""
    from gbsemu import cumulants, gaussian, sampler

    wl = pipe.wl
    for st, rs in runs.items():
        tally.check(all(r.digest == rs[0].digest for r in rs),
                    f"{st}: outputs differ between runs of the same inputs")
    tally.check(_digest([pipe.samples[2]]) == _digest([pipe.samples[1]]),
                "2-worker samples file differs from the 1-worker file")
    batch = sampler.load_samples(pipe.samples[1])
    tally.check(batch.N == wl.samples and batch.bitstrings.shape == (wl.samples, wl.modes),
                f"samples file holds {batch.bitstrings.shape}, expected ({wl.samples}, {wl.modes})")

    inst = gaussian.load_instance(pipe.inst)
    corr = cumulants.load_table(pipe.corr)
    rng = np.random.default_rng(seed)
    for _ in range(ORACLE_SUBSETS):
        d = int(rng.integers(1, wl.order + 1))
        S = tuple(sorted(int(k) for k in rng.choice(wl.modes, size=d, replace=False)))
        got = float(corr.values[_subset_offset(wl.modes, S)])
        want = cumulants.correlator(inst, S)
        tally.check(abs(got - want) <= ORACLE_TOL, f"correlator{S}: table {got!r}, oracle {want!r}")

    summary = runs["benchmark"][-1].manifest["summaries"][str(pipe.samples[1])]
    pearson2 = summary["pearson"].get("2")
    tvd = summary["tvd"]
    if tvd is None:
        m = min(TVD_MARGINAL_MODES, wl.modes)
        exact = gaussian.brute_force_distribution(gaussian.reduce_modes(inst, range(m)))
        codes = batch.bitstrings[:, :m].astype(np.int64) @ (1 << np.arange(m - 1, -1, -1))
        emp = np.bincount(codes, minlength=2**m) / batch.N
        tvd = 0.5 * float(np.abs(emp - exact).sum())
    for name, v in (("pearson2", pearson2), ("tvd", tvd)):
        tally.check(v is not None and math.isfinite(v), f"{name} is {v!r}")
    return {"pearson2": pearson2, "tvd": tvd}


def host_probe() -> float:
    """Median seconds of a fixed loop of small gathered determinants."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 48))
    a = a @ a.T + 48.0 * np.eye(48)
    idxs = [rng.choice(48, size=8, replace=False) for _ in range(2000)]
    eye = np.eye(8)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for idx in idxs:
            np.linalg.det(a[np.ix_(idx, idx)] + eye)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_facts() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": model, "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end_metrics(setup_s: float, runs: dict[str, list[StageRun]], peak_mb: float,
                       n: int, quality: dict) -> dict:
    med = {st: statistics.median(r.seconds for r in rs) for st, rs in runs.items()}
    return {
        "setup_s": setup_s,
        "table_s": med["precompute"],
        "sample_rate": n / med["sample"],
        "sample_rate_w2": n / med["sample_w2"],
        "report_s": med["benchmark"],
        "total_s": setup_s + med["precompute"] + med["sample"] + med["benchmark"],
        "peak_rss_mb": peak_mb,
        **quality,
    }


def _comb_sum(M: int, K: int, weight) -> int:
    return sum(math.comb(M, d) * weight(d) for d in range(1, K + 1))


def layer_metrics(tracer, pipe: Pipeline, untraced: dict[str, StageRun],
                  traced: dict[str, StageRun]) -> tuple[dict, list]:
    """Per-layer metrics from the traced pass; removed functions read null."""
    from gbsemu import sampler

    def present(span: str) -> bool:
        mod, fn = span.split(".", 1)
        if mod == "sampler" and hasattr(sampler.MarginalTables, fn):
            return True
        return callable(getattr(importlib.import_module(f"gbsemu.{mod}"), fn, None))

    def total(table, span):
        return sum(table.get((st, span), 0) for st in LAYER_STAGES)

    metrics, missing = {}, []
    for span in LAYER_SELF + LAYER_CALLS:
        if not present(span) and span not in missing:
            missing.append(span)
    for span in LAYER_SELF:
        metrics[f"{span}.s"] = (None if span in missing else total(tracer.self_s, span), "s")
    for span in LAYER_CALLS:
        metrics[f"{span}.calls"] = (None if span in missing else total(tracer.calls, span), "count")
    for stage in LAYER_STAGES:
        metrics[f"cli.{stage}.self_s"] = (sum(
            v for (st, name), v in tracer.self_s.items()
            if st == stage and name.startswith("cli.")), "s")
    wl, man = pipe.wl, untraced["sample"].manifest
    metrics["sampler.flagged_frac"] = (man["n_flagged"] / wl.samples, "1")
    metrics["sampler.parallel_eff"] = (
        untraced["sample"].seconds / (2.0 * untraced["sample_w2"].seconds), "1")
    metrics["cumulants.overlap_dets"] = (_comb_sum(wl.modes, wl.order, lambda d: 2**d - 1), "count")
    metrics["cumulants.table_bytes"] = (8 * _comb_sum(wl.modes, wl.order, lambda d: 1), "bytes")
    metrics["sampler.aux_values_per_sample"] = (man["aux_values_per_sample"], "count")

    def stages_total(p):
        return sum(p[st].seconds for st in LAYER_STAGES)

    metrics["trace.overhead_s"] = (stages_total(traced) - stages_total(untraced), "s")
    return metrics, missing


def run_traced(cli, pipe: Pipeline, tally: Tally):
    """One untraced pass, one traced pass; returns (per-layer metrics, runs)."""
    untraced = run_pass(cli, pipe, tally)
    tracer = Tracer()
    with installed(tracer):
        traced = run_pass(cli, pipe, tally, tracer)
    for stage, dur in tracer.stage_s.items():
        self_sum = tracer.stage_self_sum(stage)
        tally.check(abs(self_sum - dur) <= 1e-6 * max(dur, 1.0),
                    f"{stage}: span self times sum to {self_sum}, stage span {dur}")
    layer, missing = layer_metrics(tracer, pipe, untraced, traced)
    if missing:
        print("removed functions (reported as null): " + ", ".join(missing))
    spans = {f"{st}/{name}": [round(tracer.self_s[(st, name)], 6), tracer.calls[(st, name)]]
             for (st, name) in sorted(tracer.calls)}
    print("spans (stage/name: [self_s, calls]): " + json.dumps(spans))
    runs = {st: [untraced[st], traced[st]] for st in STAGES}
    return {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}, runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="sampling seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instance-seed", type=int, default=INSTANCE_SEED,
                    help=f"instance seed (default {INSTANCE_SEED})")
    args = ap.parse_args(argv)

    if not (SRC / "gbsemu" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'gbsemu'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gbsemu
    from gbsemu import cli

    if Path(gbsemu.__file__).resolve().parent != (SRC / "gbsemu").resolve():
        print(f"error: imported gbsemu from {gbsemu.__file__}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    host = host_facts()
    host["probe_start_s"] = host_probe()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    pipe = Pipeline(wl, args.instance_seed, args.seed, workdir)
    tally = Tally()
    metrics, runs = {}, {}
    try:
        setup_s = run_setup(pipe, tally)
        if args.trace:
            metrics, runs = run_traced(cli, pipe, tally)
            quality = check_outputs(pipe, runs, tally, args.seed)
            metrics["sampler.tvd"] = {"value": quality["tvd"], "unit": "1"}
        else:
            runs, peak_mb = measure(cli, pipe, tally, args.seconds)
            quality = check_outputs(pipe, runs, tally, args.seed)
            e2e = end_to_end_metrics(setup_s, runs, peak_mb, wl.samples, quality)
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
            print(f"tvd {quality['tvd']!r} (reported by --trace 1 as sampler.tvd)")
    except StageFailed as exc:
        print(f"stage failed: {exc}", file=sys.stderr)
    except Exception:  # report a broken output as a failed check, not as a crash
        traceback.print_exc(file=sys.stderr)
        tally.add(1, 1, "output check raised")
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if metrics:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
        tally.check(set(metrics) == names,
                    f"metrics {sorted(set(metrics) ^ names)} differ from BENCHMARK.json")
    host["probe_end_s"] = host_probe()
    print("host: " + json.dumps(host))
    for st, rs in runs.items():
        print(f"stage {st:10s} runs_s=" + ",".join(f"{r.seconds:.4f}" for r in rs))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']!r:>24} {m['unit']}")
    print(f"failed_frac {tally.failed / max(tally.attempted, 1)!r} "
          f"({tally.failed} of {tally.attempted} operations)")
    for p in tally.problems:
        print(f"problem: {p}")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": max(tally.failed, 0 if metrics else 1), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
