"""Validation statistics comparing sample sets against a ground truth.

Estimated click cumulants, Pearson/Spearman coefficients and linear-fit
slopes, the total-click distribution, per-click-count XEB scores, total
variation distance, and bootstrap error bars.  All estimators are pure
functions of immutable sample arrays.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import combinations
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
    counts = np.bincount(arr.sum(axis=1, dtype=np.int64), minlength=arr.shape[1] + 1)
    return counts / arr.shape[0]


def exact_total_clicks(inst: GaussianInstance, dist: np.ndarray | None = None) -> np.ndarray:
    """Ground-truth p(C) by summing the brute-force distribution by weight."""
    M = inst.M
    if dist is None:
        dist = brute_force_distribution(inst)
    if np.shape(dist) != (2**M,):
        raise ValidationError(f"distribution must have 2^{M} entries, got shape {np.shape(dist)}")
    # click count of each outcome: the set bits of its index's 4 bytes
    index_bytes = np.arange(2**M, dtype=">u4").view(np.uint8).reshape(2**M, 4)
    clicks = np.unpackbits(index_bytes, axis=1).sum(axis=1, dtype=np.int64)
    # bincount adds in index order, as a loop over the outcomes would
    return np.bincount(clicks, weights=dist, minlength=M + 1)


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
    weights = arr.sum(axis=1, dtype=np.int64)
    codes = outcome_codes(arr)
    out = []
    crange = range(M + 1) if c_range is None else c_range
    for C in crange:
        mask = weights == C
        nC = int(mask.sum())
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
    return np.bincount(outcome_codes(arr[:, :M]), minlength=2**M) / max(arr.shape[0], 1)


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


def cumulant_comparison(inst: GaussianInstance, samples, orders):
    """Rows of (subset, order, theory, estimate, se) for the scatter data.

    Both columns come from subset tables up to the highest order, through
    the same cumulant transform: the theory column from the correlator
    table of the instance, the estimate column from the empirical one.
    The bootstrap is not run, so se is 0.  Rows run order by order, each
    in lexicographic subset order.
    """
    arr = _as_samples(samples)
    if arr.shape[1] != inst.M:
        raise ValidationError(f"samples M={arr.shape[1]} does not match instance M={inst.M}")
    if not orders:
        return []
    if min(orders) < 1:
        raise ValidationError(f"cumulant orders {orders} must be at least 1")
    K = max(orders)
    theory = click_cumulants_from_cumulants(cumulant_tables(inst, K)[1])
    estimate = estimate_click_cumulants(arr, K)
    rows = []
    for d in orders:
        subsets = list(combinations(range(inst.M), d))
        ranks = dense_rank(np.array(subsets, dtype=np.int64).T, inst.M)
        for S, i in zip(subsets, ranks.tolist()):
            rows.append({"subset": S, "order": d, "theory": float(theory[i]),
                         "estimate": float(estimate[i]), "se": 0.0})
    return rows


def build_report(
    inst: GaussianInstance,
    samples,
    orders=(2, 3),
    xeb_range=None,
) -> tuple[BenchmarkReport, list[dict]]:
    """Full comparison suite; XEB/TVD are skipped (with a note) beyond desk scale."""
    arr = _as_samples(samples)
    report = BenchmarkReport()
    scatter = cumulant_comparison(inst, arr, orders)
    for d in orders:
        theory = [r["theory"] for r in scatter if r["order"] == d]
        est = [r["estimate"] for r in scatter if r["order"] == d]
        report.pearson[d] = pearson(theory, est)
        report.spearman[d] = spearman(theory, est)
        report.slope[d], report.intercept[d] = linear_fit(theory, est)
    hist = total_click_histogram(arr)
    if inst.M <= BRUTE_FORCE_MAX_MODES:
        dist = brute_force_distribution(inst)
        exact_hist = exact_total_clicks(inst, dist)
        report.clicks = [
            {"C": C, "p_emp": float(hist[C]), "p_exact": float(exact_hist[C])}
            for C in range(inst.M + 1)
        ]
        report.xeb = xeb(arr, inst, c_range=xeb_range, dist=dist)
        report.tvd = tvd(empirical_distribution(arr, inst.M), dist)
    else:
        report.clicks = [{"C": C, "p_emp": float(hist[C]), "p_exact": float("nan")}
                         for C in range(inst.M + 1)]
        report.notes.append(
            f"M={inst.M} > {BRUTE_FORCE_MAX_MODES}: XEB and TVD skipped (no exact oracle)"
        )
    return report, scatter


def write_report(outdir, report: BenchmarkReport, scatter: list[dict]) -> list[str]:
    """Emit cumulants_scatter.csv, xeb.csv, clicks.csv and summary.json."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []

    p = outdir / "cumulants_scatter.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subset", "order", "theory", "estimate", "se"])
        for row in scatter:
            w.writerow(["+".join(map(str, row["subset"])), row["order"],
                        repr(row["theory"]), repr(row["estimate"]), repr(row["se"])])
    paths.append(str(p))

    p = outdir / "xeb.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["C", "xeb", "se", "n", "excluded"])
        for row in report.xeb:
            w.writerow([row["C"], repr(row["xeb"]), repr(row["se"]), row["n"], row["excluded"]])
    paths.append(str(p))

    p = outdir / "clicks.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["C", "p_emp", "p_exact"])
        for row in report.clicks:
            w.writerow([row["C"], repr(row["p_emp"]), repr(row["p_exact"])])
    paths.append(str(p))

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
