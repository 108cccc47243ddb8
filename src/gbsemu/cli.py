"""Command-line orchestration: instance generation, preprocessing, sampling,
benchmarking, and the scaling/throughput harnesses.

Every command prints a JSON run manifest to stdout (machine-readable; no
interactive output) listing the echoed configuration, input file hashes,
wall time, a peak-memory estimate, and every output file written.

Exit codes: 0 success, 2 validation error, 3 resource guard, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import build_report, linear_fit, write_report
from .cumulants import cumulant_tables, load_table, save_table
from .errors import GbsError, ValidationError
from .gaussian import load_instance, random_instance, save_instance
from .sampler import (
    METHODS,
    SamplerConfig,
    batch_sample,
    load_samples,
    save_samples_text,
)
from .subsets import partition_patterns

# Wall time the scaling harness spends per timed point (it keeps the best run).
_MIN_TIMING_S = 0.5

# the SampleBatch fields a sample manifest reports under their own names
_SAMPLE_FIELDS = ("n_failed", "worker_errors", "n_flagged", "n_clipped", "max_clip_excursion",
                  "table_columns", "n_deferred", "n_routed", "aux_values_per_sample")


def _int_list(text: str, count: int | None = None) -> tuple[int, ...]:
    """argparse type: `count` comma-separated integers, or any number of distinct ones."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = None
    if values is None or len(values) != (count or len(set(values))):
        need = count or "distinct"
        raise argparse.ArgumentTypeError(f"need {need} comma-separated integers: {text!r}")
    return values


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args, inputs: list, outputs: list, t0: float, extra=None) -> dict:
    """The run manifest; its config echoes every parsed flag of the command."""
    man = {
        "command": args.cmd,
        "config": {k: v for k, v in vars(args).items() if k not in ("cmd", "func")},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "versions": {
            "gbsemu": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": time.perf_counter() - t0,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if extra:
        man.update(extra)
    return man


def _emit(man: dict) -> None:
    json.dump(man, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


def cmd_gen_instance(args) -> int:
    t0 = time.perf_counter()
    _, spec = random_instance(args.modes, args.squeezers, args.eta, args.rmax, args.seed)
    save_instance(args.out, spec=spec)
    _emit(_manifest(args, [], [args.out], t0))
    return 0


def cmd_precompute(args) -> int:
    t0 = time.perf_counter()
    inst = load_instance(args.instance)
    t1 = time.perf_counter()
    for d in range(1, args.order + 1):
        partition_patterns(d)
    t2 = time.perf_counter()
    times = {}
    ctab, ktab = cumulant_tables(inst, args.order, times)
    t4 = time.perf_counter()
    out = Path(args.out)
    corr_out = out.with_suffix(".gbsc")
    save_table(ktab, out)
    save_table(ctab, corr_out)
    t5 = time.perf_counter()
    _emit(_manifest(args, [args.instance], [str(out), str(corr_out)], t0,
                    extra={"phase1_s": t2 - t1, **times, "save_s": t5 - t4,
                           "entries": int(ktab.values.size)}))
    return 0


def cmd_sample(args) -> int:
    t0 = time.perf_counter()
    inst = load_instance(args.instance)
    if args.method == "exact_reference" and args.table:
        raise ValidationError("exact_reference reads no --table")
    if args.method != "exact_reference" and not args.table:
        raise ValidationError("chain methods need --table")
    kappa = load_table(args.table) if args.table else None
    config = SamplerConfig(
        N=args.samples, K=args.order, method=args.method, aux_orders=args.aux_orders,
        seed=args.seed, workers=args.workers, clamp_epsilon=args.clamp_epsilon,
    )
    batch = batch_sample(config, kappa=kappa, inst=inst)
    save_samples_text(args.out, batch)
    inputs = [args.instance] + ([args.table] if args.table else [])
    extra = {name: getattr(batch, name) for name in _SAMPLE_FIELDS}
    extra.update(
        n_generated=batch.N, sample_steps=config.N * inst.M, per_sample_s=batch.per_sample_mean,
        throughput_per_s=(batch.N / batch.wall_time) if batch.wall_time > 0 else 0.0,
    )
    _emit(_manifest(args, inputs, [args.out], t0, extra=extra))
    return 0


def cmd_benchmark(args) -> int:
    t0 = time.perf_counter()
    inst = load_instance(args.instance)
    xeb_range = range(args.xeb_range[0], args.xeb_range[1] + 1) if args.xeb_range else None
    if xeb_range is not None and len(xeb_range) == 0:
        raise ValidationError("--xeb-range lo,hi needs lo <= hi")
    outputs = []
    summaries = {}
    for sample_path in args.samples:
        batch = load_samples(sample_path)
        if batch.N == 0:
            raise ValidationError(f"samples file {sample_path} is empty")
        if batch.M != inst.M:
            raise ValidationError(
                f"samples M={batch.M} does not match instance M={inst.M}"
            )
        report, scatter = build_report(inst, batch.bitstrings, args.orders, xeb_range)
        outdir = Path(args.out) / Path(sample_path).stem
        outputs.extend(write_report(outdir, report, scatter))
        summaries[str(sample_path)] = {
            "pearson": report.pearson, "spearman": report.spearman,
            "slope": report.slope, "tvd": report.tvd, "notes": report.notes,
        }
    _emit(_manifest(args, list(args.samples) + [args.instance], outputs, t0,
                    extra={"summaries": summaries}))
    return 0


def _best_time(run):
    """Best seconds of run() and its last result.

    Repeats until _MIN_TIMING_S has been spent: at small M one run takes
    milliseconds, where a single timing mostly measures host noise.
    """
    best, spent = float("inf"), 0.0
    while spent < _MIN_TIMING_S:
        t0 = time.perf_counter()
        result = run()
        dt = time.perf_counter() - t0
        best, spent = min(best, dt), spent + dt
    return best, result


def _scaling_instance(M: int, K: int):
    """The scaling harness's instance at M modes, and the chain method it samples at order K."""
    inst, _ = random_instance(M, max(1, M // 4), 0.5, 1.0, seed=1234 + M)
    return inst, "single_elision" if K <= 3 else "double_elision"


def cmd_scaling(args) -> int:
    t0 = time.perf_counter()
    if args.samples_per_point < 1:
        raise ValidationError("--samples-per-point must be at least 1")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for K in args.orders:
        for M in args.modes:
            inst, method = _scaling_instance(M, K)
            t1 = time.perf_counter()
            for d in range(1, K + 1):
                partition_patterns(d)
            t_phase1 = time.perf_counter() - t1
            t_phase2, (_, ktab) = _best_time(lambda: cumulant_tables(inst, K))
            cfg = SamplerConfig(N=args.samples_per_point, K=K, method=method, seed=7)
            t_sample = _best_time(lambda: batch_sample(cfg, kappa=ktab))[0] / cfg.N
            rows.append(
                {"M": M, "K": K, "t_phase1": t_phase1, "t_phase2": t_phase2,
                 "t_per_sample": t_sample}
            )
    times_csv = outdir / "times.csv"
    with open(times_csv, "w") as fh:
        fh.write("M,K,t_phase1,t_phase2,t_per_sample\n")
        for r in rows:
            fh.write(f"{r['M']},{r['K']},{r['t_phase1']!r},{r['t_phase2']!r},{r['t_per_sample']!r}\n")
    slopes = {}
    for K in args.orders:
        pts = [r for r in rows if r["K"] == K]
        if len(pts) < 2:
            slopes[str(K)] = {"per_sample": float("nan"), "phase2": float("nan"),
                              "note": "single point: slope undefined"}
            continue
        lx = np.log([r["M"] for r in pts])
        slopes[str(K)] = {
            "per_sample": linear_fit(lx, np.log([r["t_per_sample"] for r in pts]))[0],
            "phase2": linear_fit(lx, np.log([r["t_phase2"] for r in pts]))[0],
        }
    outputs = [str(times_csv)]
    throughput_rows = []
    if args.workers:
        K = args.orders[0]
        inst, method = _scaling_instance(args.throughput_modes, K)
        _, ktab = cumulant_tables(inst, K)
        for w in args.workers:
            cfg = SamplerConfig(N=args.samples_per_point, K=K, method=method, seed=7, workers=w)
            seconds = _best_time(lambda: batch_sample(cfg, kappa=ktab))[0]
            throughput_rows.append({"workers": w, "throughput": cfg.N / seconds})
        tp_csv = outdir / "throughput.csv"
        with open(tp_csv, "w") as fh:
            fh.write("workers,throughput\n")
            for r in throughput_rows:
                fh.write(f"{r['workers']},{r['throughput']!r}\n")
        outputs.append(str(tp_csv))
    _emit(_manifest(args, [], outputs, t0, extra={"slopes": slopes, "throughput": throughput_rows}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gbsemu", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-instance", help="write a random instance file")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--squeezers", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--rmax", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_instance)

    p = sub.add_parser("precompute", help="write correlator and cumulant tables")
    p.add_argument("--instance", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("sample", help="generate samples")
    p.add_argument("--table")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", default="double_elision",
                   choices=METHODS)
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--aux-orders", dest="aux_orders", type=lambda t: _int_list(t, 3), default=None,
                   help="comma-separated expansion orders for (pp, p1, p2)")
    p.add_argument("--clamp-epsilon", dest="clamp_epsilon", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("benchmark", help="compare sample files against the ground truth")
    p.add_argument("--samples", nargs="+", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--orders", type=_int_list, default=(2, 3))
    p.add_argument("--xeb-range", dest="xeb_range", type=lambda t: _int_list(t, 2), default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility and ignored: the report is deterministic")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("scaling", help="timing harness over a mode grid")
    p.add_argument("--orders", type=_int_list, default=(3,))
    p.add_argument("--modes", type=_int_list, default=(32, 48, 64))
    p.add_argument("--samples-per-point", dest="samples_per_point", type=int, default=16)
    p.add_argument("--workers", type=_int_list, default=(),
                   help="comma-separated worker counts for throughput")
    p.add_argument("--throughput-modes", dest="throughput_modes", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scaling)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
