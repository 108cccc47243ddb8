"""Validation statistics comparing sample sets against a ground truth.

Estimated click cumulants, Pearson/Spearman coefficients and linear-fit
slopes, the total-click distribution, per-click-count XEB scores, total
variation distance, and bootstrap error bars.  All estimators are pure
functions of immutable sample arrays.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb
from pathlib import Path

import numpy as np

from .cumulants import (
    click_cumulants_from_cumulants,
    cumulant_tables,
    cumulants_from_correlators,
    empirical_correlator_table,
)
from .errors import ValidationError
from .gaussian import (
    BRUTE_FORCE_MAX_MODES,
    GaussianInstance,
    brute_force_distribution,
    outcome_codes,
)
from .subsets import dense_rank

DEFAULT_BOOTSTRAP = 100


@dataclass
class BenchmarkReport:
    """Per-order comparison statistics plus XEB and total-click data."""

    pearson: dict[int, float] = field(default_factory=dict)
    spearman: dict[int, float] = field(default_factory=dict)
    slope: dict[int, float] = field(default_factory=dict)
    intercept: dict[int, float] = field(default_factory=dict)
    xeb: list[dict] = field(default_factory=list)
    clicks: list[dict] = field(default_factory=list)
    tvd: float | None = None
    notes: list[str] = field(default_factory=list)
    # natural log is used in all XEB scores
    log_base: str = "e"


def _as_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValidationError("samples must be a 2-D (N, M) bit array")
    return arr


def estimate_correlator(samples, subset) -> float:
    """Sample mean of the parity over a subset of modes."""
    arr = _as_samples(samples)
    if arr.shape[0] == 0:
        raise ValidationError("empty sample set")
    subset = list(subset)
    par = 1 - 2 * (arr[:, subset].sum(axis=1, dtype=np.int64) & 1)
    return float(par.mean())


def estimate_click_cumulants(samples, K: int) -> np.ndarray:
    """Plug-in joint cumulants of the click variables, orders 1..K.

    The empirical parity correlators go through the same transform as the
    theory column, so the result is the joint cumulants of the empirical
    distribution (bias O(1/N)), in the dense subset layout of
    :mod:`gbsemu.subsets`.
    """
    arr = _as_samples(samples)
    if arr.shape[0] < 2:
        raise ValidationError("need at least two samples")
    return click_cumulants_from_cumulants(
        cumulants_from_correlators(empirical_correlator_table(arr, K))
    )


def pearson(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValidationError("need two equal-length vectors of size >= 2")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise ValidationError("zero variance: correlation undefined")
    return float(dx @ dy / np.sqrt(vx * vy))


def _ranks(xs: np.ndarray) -> np.ndarray:
    """Average ranks with ties (each NaN is its own run)."""
    order = np.argsort(xs, kind="stable")
    sorted_x = xs[order]
    new_run = np.ones(xs.size, dtype=bool)
    new_run[1:] = sorted_x[1:] != sorted_x[:-1]
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], xs.size) - 1
    ranks = np.empty(xs.size)
    ranks[order] = (0.5 * (starts + ends) + 1.0)[np.cumsum(new_run) - 1]
    return ranks


def spearman(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return pearson(_ranks(xs), _ranks(ys))


def linear_fit(xs, ys) -> tuple[float, float]:
    """Least-squares slope and intercept; exact on collinear input."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValidationError("need two equal-length vectors of size >= 2")
    dx = xs - xs.mean()
    vx = float(dx @ dx)
    if vx == 0.0:
        raise ValidationError("zero x-variance: fit undefined")
    slope = float(dx @ (ys - ys.mean()) / vx)
    return slope, float(ys.mean() - slope * xs.mean())


def total_click_histogram(samples) -> np.ndarray:
    """Empirical p(C) over C = 0..M; sums to 1."""
    arr = _as_samples(samples)
    if arr.shape[0] == 0:
        raise ValidationError("empty sample set")
    return _frequencies(arr.sum(axis=1, dtype=np.int64), arr.shape[1] + 1)


def _frequencies(values: np.ndarray, size: int) -> np.ndarray:
    """Share of each integer 0..size-1 among `values` (0 if there are none)."""
    return np.bincount(values, minlength=size) / max(values.size, 1)


def _index_clicks(M: int) -> np.ndarray:
    """Click count of each outcome index 0..2^M - 1: the set bits of its 4 bytes."""
    index_bytes = np.arange(2**M, dtype=">u4").view(np.uint8).reshape(2**M, 4)
    return np.unpackbits(index_bytes, axis=1).sum(axis=1, dtype=np.int64)


def exact_total_clicks(inst: GaussianInstance, dist: np.ndarray | None = None) -> np.ndarray:
    """Ground-truth p(C) by summing the brute-force distribution by weight."""
    M = inst.M
    if dist is None:
        dist = brute_force_distribution(inst)
    if np.shape(dist) != (2**M,):
        raise ValidationError(f"distribution must have 2^{M} entries, got shape {np.shape(dist)}")
    # bincount adds in index order, as a loop over the outcomes would
    return np.bincount(_index_clicks(M), weights=dist, minlength=M + 1)


def xeb(
    samples,
    inst: GaussianInstance,
    c_range=None,
    dist: np.ndarray | None = None,
    min_samples: int = 1,
) -> list[dict]:
    """Per-click-count XEB scores with standard errors.

    For every C in range with enough samples: the mean over samples of
    log(binom(M, C) * p(sample) / p(C)), p from the exact distribution.
    Samples with p = 0 are excluded and counted.
    """
    arr = _as_samples(samples)
    M = inst.M
    if dist is None:
        dist = brute_force_distribution(inst)
    pC = exact_total_clicks(inst, dist)
    crange = range(M + 1) if c_range is None else c_range
    return _xeb_rows(M, arr.sum(axis=1, dtype=np.int64), outcome_codes(arr), dist, pC, crange,
                     min_samples)


def _xeb_rows(M, clicks, codes, dist, pC, crange, min_samples=1) -> list[dict]:
    """The rows of :func:`xeb` from each sample's click count and outcome code."""
    out = []
    for C in crange:
        mask = clicks == C
        nC = int(np.count_nonzero(mask))
        if nC < min_samples or nC == 0:
            continue
        if pC[C] <= 0.0:
            raise ValidationError(f"exact p(C={C}) is zero but samples were seen there")
        probs = dist[codes[mask]]
        ok = probs > 0.0
        excluded = int(nC - ok.sum())
        if not ok.any():
            continue
        vals = np.log(comb(M, C) * probs[ok] / pC[C])
        se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        out.append(
            {"C": int(C), "xeb": float(vals.mean()), "se": se,
             "n": int(vals.size), "excluded": excluded}
        )
    return out


def xeb_expected(inst: GaussianInstance, C: int, dist: np.ndarray | None = None) -> float:
    """Population value of the XEB score at click count C under the exact law."""
    M = inst.M
    if dist is None:
        dist = brute_force_distribution(inst)
    pC = exact_total_clicks(inst, dist)[C]
    if pC <= 0:
        raise ValidationError(f"p(C={C}) is zero")
    total = 0.0
    for i, p in enumerate(dist):
        if p > 0 and bin(i).count("1") == C:
            total += (p / pC) * np.log(comb(M, C) * p / pC)
    return total


def tvd(p, q) -> float:
    """Total variation distance: half the L1 distance."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError("distributions must share an outcome space")
    return 0.5 * float(np.abs(p - q).sum())


def empirical_distribution(samples, M: int) -> np.ndarray:
    """Outcome frequencies over all 2^M lexicographic codes."""
    arr = _as_samples(samples)
    return _frequencies(outcome_codes(arr[:, :M]), 2**M)


def bootstrap(statistic, samples, B: int = DEFAULT_BOOTSTRAP, seed: int = 0) -> tuple[float, float]:
    """Resample-with-replacement mean and standard error of a statistic."""
    if B < 2:
        raise ValidationError("need at least two bootstrap resamples")
    arr = np.asarray(samples)
    n = arr.shape[0]
    rng = np.random.default_rng(seed)
    stats = np.empty(B)
    for b in range(B):
        idx = rng.integers(0, n, size=n)
        stats[b] = statistic(arr[idx])
    return float(stats.mean()), float(stats.std(ddof=1))


# ---------------------------------------------------------------------------
# Report generation
# ---------------------------------------------------------------------------


def cumulant_comparison(inst: GaussianInstance, samples, orders, times: dict | None = None):
    """The scatter data: {d: (subsets, theory, estimate)} for each order d.

    `subsets` holds the C(M, d) order-d subsets as rows, in lexicographic
    order; `theory` and `estimate` hold their click cumulants.  Both
    columns come from subset tables up to the highest order, through the
    same cumulant transform: the theory column from the correlator table
    of the instance, the estimate column from the empirical one.  The
    bootstrap is not run.  If `times` is given, its "theory_s" and
    "estimate_s" receive the seconds of the two columns.
    """
    arr = _as_samples(samples)
    M = inst.M
    if arr.shape[1] != M:
        raise ValidationError(f"samples M={arr.shape[1]} does not match instance M={M}")
    if not orders:
        return {}
    if min(orders) < 1:
        raise ValidationError(f"cumulant orders {orders} must be at least 1")
    for d in orders:
        if comb(M, d) < 2:
            raise ValidationError(
                f"report order {d} has {comb(M, d)} subset(s) of M={M} modes; "
                "a correlation needs at least 2"
            )
    K = max(orders)
    t0 = time.perf_counter()
    theory = click_cumulants_from_cumulants(cumulant_tables(inst, K)[1])
    t1 = time.perf_counter()
    estimate = estimate_click_cumulants(arr, K)
    if times is not None:
        times.update(theory_s=t1 - t0, estimate_s=time.perf_counter() - t1)
    scatter = {}
    for d in orders:
        subsets = np.fromiter(chain.from_iterable(combinations(range(M), d)), dtype=np.int64,
                              count=comb(M, d) * d).reshape(-1, d)
        ranks = dense_rank(subsets.T, M)
        scatter[d] = (subsets, theory[ranks], estimate[ranks])
    return scatter


def build_report(
    inst: GaussianInstance,
    samples,
    orders=(2, 3),
    xeb_range=None,
    times: dict | None = None,
) -> tuple[BenchmarkReport, dict]:
    """Full comparison suite; XEB/TVD are skipped (with a note) beyond desk scale.

    If `times` is given, it receives the seconds of the theory and
    estimate columns ("theory_s", "estimate_s") and, up to
    ``BRUTE_FORCE_MAX_MODES``, of the exact oracle ("oracle_s") and of
    the click histogram, XEB and TVD ("xeb_tvd_s").
    """
    arr = _as_samples(samples)
    M = inst.M
    report = BenchmarkReport()
    scatter = cumulant_comparison(inst, arr, orders, times)
    for d, (_, theory, est) in scatter.items():
        report.pearson[d] = pearson(theory, est)
        report.spearman[d] = spearman(theory, est)
        report.slope[d], report.intercept[d] = linear_fit(theory, est)
    if M <= BRUTE_FORCE_MAX_MODES:
        t0 = time.perf_counter()
        dist = brute_force_distribution(inst)
        t1 = time.perf_counter()
        # each sample's outcome code and click count, once for all three statistics
        codes = outcome_codes(arr)
        clicks = _index_clicks(M)[codes]
        hist = _frequencies(clicks, M + 1)
        exact_hist = exact_total_clicks(inst, dist)
        report.clicks = [
            {"C": C, "p_emp": float(hist[C]), "p_exact": float(exact_hist[C])}
            for C in range(M + 1)
        ]
        crange = range(M + 1) if xeb_range is None else xeb_range
        report.xeb = _xeb_rows(M, clicks, codes, dist, exact_hist, crange)
        report.tvd = tvd(_frequencies(codes, 2**M), dist)
        if times is not None:
            times.update(oracle_s=t1 - t0, xeb_tvd_s=time.perf_counter() - t1)
    else:
        hist = total_click_histogram(arr)
        report.clicks = [{"C": C, "p_emp": float(hist[C]), "p_exact": float("nan")}
                         for C in range(M + 1)]
        report.notes.append(
            f"M={M} > {BRUTE_FORCE_MAX_MODES}: XEB and TVD skipped (no exact oracle)"
        )
    return report, scatter


def write_report(outdir, report: BenchmarkReport, scatter: dict) -> list[str]:
    """Emit cumulants_scatter.csv, xeb.csv, clicks.csv and summary.json.

    Each CSV is built as one string and written once.  Floats appear as
    their ``repr``, and the bytes are those that ``csv.writer`` writes from
    these fields: none needs quoting, and every line ends in "\\r\\n".
    The scatter's se column is the constant 0.0 (no bootstrap is run).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    scatter_lines = (
        "".join(map(("+".join(["%d"] * d) + f",{d},%r,%r,0.0\r\n").__mod__,
                    zip(*subsets.T.tolist(), theory.tolist(), estimate.tolist())))
        for d, (subsets, theory, estimate) in scatter.items()
    )
    texts = {
        "cumulants_scatter.csv": "subset,order,theory,estimate,se\r\n" + "".join(scatter_lines),
        "xeb.csv": "C,xeb,se,n,excluded\r\n" + "".join(
            "%s,%r,%r,%s,%s\r\n" % (r["C"], r["xeb"], r["se"], r["n"], r["excluded"])
            for r in report.xeb),
        "clicks.csv": "C,p_emp,p_exact\r\n" + "".join(
            "%s,%r,%r\r\n" % (r["C"], r["p_emp"], r["p_exact"]) for r in report.clicks),
    }
    paths = []
    for name, text in texts.items():
        with open(outdir / name, "w", newline="") as fh:
            fh.write(text)
        paths.append(str(outdir / name))

    p = outdir / "summary.json"
    summary = {
        "pearson": report.pearson,
        "spearman": report.spearman,
        "slope": report.slope,
        "intercept": report.intercept,
        "tvd": report.tvd,
        "log_base": report.log_base,
        "notes": report.notes,
    }
    with open(p, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    paths.append(str(p))
    return paths
