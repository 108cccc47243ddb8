"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities (or failing its assert).

Criteria 6 and 7 generate 10^6 samples and take a couple of minutes
combined; criterion 10 runs the scaling harness over M = 32..128.
Criterion 11 requires at least 8 physical cores and is expected to fail
on smaller hosts (it still runs and reports the measured rates).
"""

import json
import os
import time
from itertools import combinations

import numpy as np
import pytest

from gbsemu import benchmark as bm
from gbsemu import cli
from gbsemu import cumulants as cu
from gbsemu import gaussian as g
from gbsemu import sampler as sp
from gbsemu.subsets import table_size

from oracles import (
    correlator_from_dist,
    delta_bias_reference,
    exact_marginal,
    product_law,
    reference_step_probability,
)

WORKERS = min(2, os.cpu_count() or 1)


def report(n, ok, detail):
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# --- shared heavy fixtures ---------------------------------------------------


@pytest.fixture(scope="module")
def crit7_instance():
    """M=10, eta=0.5, all five squeezers at r=1, seeded Haar interferometer."""
    _, spec0 = g.random_instance(M=10, k=5, eta=0.5, r_max=1.0, seed=77)
    spec = g.JiuzhangSpec(r=np.ones(5), T=spec0.T)
    inst = g.instance_from_jiuzhang(spec)
    ktab = cu.cumulants_from_correlators(cu.correlator_table(inst, K=5))
    return inst, ktab


def test_criterion_1_normalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(20):
        M = int(rng.integers(3, 9))
        k = int(rng.integers(1, M // 2 + 1))
        eta = float(rng.uniform(0.3, 1.0))
        inst, _ = g.random_instance(M, k, eta=eta, r_max=1.2, seed=2000 + trial)
        total = g.brute_force_distribution(inst).sum()
        worst = max(worst, abs(total - 1.0))
    dt = time.perf_counter() - t0
    report(1, worst <= 1e-8 and dt < 60,
           f"max |sum p - 1| = {worst:.2e} over 20 instances (tol 1e-8), {dt:.1f}s")


def test_criterion_2_correlator_oracle(inst6, dist6):
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(1, 6):
        for S in combinations(range(6), d):
            diff = abs(cu.correlator(inst6, S) - correlator_from_dist(dist6, 6, S))
            worst = max(worst, diff)
    dt = time.perf_counter() - t0
    report(2, worst <= 1e-9 and dt < 120,
           f"max |c(S) - sum chi p| = {worst:.2e} over all orders <= 5 (tol 1e-9), {dt:.1f}s")


def test_criterion_3_cumulant_roundtrip(inst6, tables6):
    ctab, ktab = tables6
    back = cu.correlators_from_cumulants(ktab)
    worst_real = float(np.abs(back.values - ctab.values).max())
    rng = np.random.default_rng(3003)
    vals = rng.uniform(-1, 1, table_size(6, 5))
    rt = cu.correlators_from_cumulants(
        cu.cumulants_from_correlators(cu.SubsetTable(M=6, K=5, values=vals, kind="correlator"))
    )
    worst_rand = float(np.abs(rt.values - vals).max())
    worst = max(worst_real, worst_rand)
    report(3, worst <= 1e-12,
           f"roundtrip max err: instance {worst_real:.2e}, random {worst_rand:.2e} (tol 1e-12)")


def test_criterion_4_recursion_identity():
    inst, _ = g.random_instance(M=7, k=3, eta=0.5, r_max=1.0, seed=4004)
    ctab = cu.correlator_table(inst, K=5)
    ktab = cu.cumulants_from_correlators(ctab)
    worst = 0.0
    count = 0
    for size in range(5):
        for Sp in combinations(range(6), size):
            worst = max(worst, abs(cu.cumulant_recursion_residual(ctab, ktab, Sp, 6)))
            count += 1
    report(4, worst <= 1e-12,
           f"max residual {worst:.2e} over {count} prefixes |S'| <= 4 at M=7 (tol 1e-12)")


def test_criterion_5_full_order_exactness():
    worst_joint = 0.0
    for M, seed in ((4, 41), (5, 11)):
        inst, _ = g.random_instance(M=M, k=M // 2, eta=0.6, r_max=1.2, seed=seed)
        dist = g.brute_force_distribution(inst)
        ktab = cu.cumulants_from_correlators(cu.correlator_table(inst, K=M))
        cfg = sp.SamplerConfig(N=0, K=M, method="double_elision", aux_orders=(M, M, M))
        for i in range(2**M):
            bits = [(i >> (M - 1 - k)) & 1 for k in range(M)]
            pj = sp.chain_joint_probability(ktab, bits, cfg)
            worst_joint = max(worst_joint, abs(pj - dist[i]))
    # bias identity at M=6 with exact marginals
    inst6b, _ = g.random_instance(M=6, k=3, eta=0.6, r_max=1.0, seed=3)
    dist6b = g.brute_force_distribution(inst6b)
    ktab6 = cu.cumulants_from_correlators(cu.correlator_table(inst6b, K=6))
    rng = np.random.default_rng(5005)
    worst_delta = 0.0
    for _ in range(8):
        bits = rng.integers(0, 2, 6)
        for n in range(6):
            b0 = bits.copy()
            b0[n] = 0
            p0 = reference_step_probability(dist6b, ktab6, b0, n, 0)
            ppref = exact_marginal(dist6b, 6, list(range(n)), b0)
            delta_impl = p0 - (ppref - p0)
            delta_ref = delta_bias_reference(dist6b, ktab6, b0, n)
            worst_delta = max(worst_delta, abs(delta_impl - delta_ref))
    report(5, worst_joint <= 1e-9 and worst_delta <= 1e-9,
           f"untruncated joints max err {worst_joint:.2e} (M<=5), "
           f"bias identity max err {worst_delta:.2e} (M=6), tol 1e-9")


def test_criterion_6_independent_mode_exactness(thermal8):
    ktab = cu.cumulants_from_correlators(cu.correlator_table(thermal8, K=3))
    high_order = float(np.abs(ktab.values[8:]).max())
    assert high_order < 1e-14, f"instance not independent: max high-order kappa {high_order:.2e}"
    q = 0.5 * (1.0 - ktab.values[:8])
    cfg = sp.SamplerConfig(N=1_000_000, K=3, method="single_elision", seed=606, workers=WORKERS)
    batch = sp.batch_sample(cfg, kappa=ktab)
    emp = bm.empirical_distribution(batch.bitstrings, 8)
    dist = product_law(q)
    val = bm.tvd(emp, dist)
    report(6, batch.N == cfg.N and val <= 0.004,
           f"TVD(empirical, product law) = {val:.5f} at M=8, N=1e6 (tol 0.004)")


def test_criterion_7_approximation_quality(crit7_instance):
    inst, ktab = crit7_instance
    dist = g.brute_force_distribution(inst)
    q = [1 - g.vacuum_overlap(g.reduce_modes(inst, [k]).sigma, hbar=inst.hbar)
         for k in range(10)]
    baseline = bm.tvd(product_law(q), dist)
    cfg = sp.SamplerConfig(N=1_000_000, K=5, method="double_elision", seed=707, workers=WORKERS)
    batch = sp.batch_sample(cfg, kappa=ktab)
    emp = bm.empirical_distribution(batch.bitstrings, 10)
    sampler_tvd = bm.tvd(emp, dist)
    rows = bm.cumulant_comparison(inst, batch.bitstrings, orders=(2, 3))
    pearsons = {}
    for d in (2, 3):
        th = [r["theory"] for r in rows if r["order"] == d]
        es = [r["estimate"] for r in rows if r["order"] == d]
        pearsons[d] = bm.pearson(th, es)
    ok = sampler_tvd < baseline and pearsons[2] >= 0.9 and pearsons[3] >= 0.9
    report(7, ok,
           f"TVD sampler {sampler_tvd:.5f} < baseline {baseline:.5f}; "
           f"pearson order2 {pearsons[2]:.4f}, order3 {pearsons[3]:.4f} (>= 0.9)")


def test_criterion_8_xeb_sanity():
    inst, _ = g.random_instance(M=8, k=4, eta=0.8, r_max=1.2, seed=808)
    dist = g.brute_force_distribution(inst)
    cfg = sp.SamplerConfig(N=60_000, method="exact_reference", seed=88)
    batch = sp.exact_reference_sampler(inst, cfg)
    rows = bm.xeb(batch.bitstrings, inst, dist=dist, min_samples=500)
    assert len(rows) >= 3, "too few populated click sectors for the test"
    worst_z = 0.0
    ordering_ok = True
    details = []
    rng = np.random.default_rng(888)
    for row in rows:
        C = row["C"]
        expect = bm.xeb_expected(inst, C, dist=dist)
        z = abs(row["xeb"] - expect) / max(row["se"], 1e-12) if row["se"] > 0 else 0.0
        worst_z = max(worst_z, z)
        # uniform-over-weight-C samples score at most the exact sampler's
        patterns = list(combinations(range(8), C))
        picks = rng.integers(0, len(patterns), size=4000)
        unif = np.zeros((4000, 8), dtype=np.uint8)
        for t, pi in enumerate(picks):
            unif[t, list(patterns[pi])] = 1
        urow = bm.xeb(unif, inst, c_range=[C], dist=dist, min_samples=1)[0]
        margin = 3 * np.sqrt(urow["se"] ** 2 + row["se"] ** 2)
        if urow["xeb"] > row["xeb"] + margin:
            ordering_ok = False
        details.append(f"C={C}: z={z:.2f}, unif {urow['xeb']:.3f} <= exact {row['xeb']:.3f}")
    report(8, worst_z <= 3.0 and ordering_ok,
           f"max |XEB - expected|/SE = {worst_z:.2f} (<= 3); " + "; ".join(details))


def test_criterion_9_spot_values():
    ok_tor = (
        abs(g.torontonian(np.zeros((2, 2)))) < 1e-12
        and abs(g.torontonian(np.zeros((0, 0))) - 1.0) < 1e-12
        and abs(g.torontonian(np.diag([0.5, 0.5])) - (-1.0)) < 1e-12
    )
    worst = 0.0
    for s in (0.25, 0.5, 1.0):
        inst = g.build_input_covariance([2 * s])
        p00 = g.exact_probability(inst, [0, 0])
        worst = max(worst, abs(p00 - 1.0 / np.cosh(s) ** 2))
    report(9, ok_tor and worst <= 1e-10,
           f"tor spot values OK; TMSV p(0,0) max err {worst:.2e} (tol 1e-10)")


def test_criterion_10_scaling(tmp_path, capsys):
    t0 = time.perf_counter()
    code = cli.main([
        "scaling", "--orders", "3", "--modes", "32,48,64,96,128",
        "--samples-per-point", "2048", "--precompute-workers", str(WORKERS),
        "--out", str(tmp_path / "scaling"),
    ])
    out = capsys.readouterr().out
    man = json.loads(out)
    dt = time.perf_counter() - t0
    assert code == 0
    slopes = man["slopes"]["3"]
    ok = 2.0 <= slopes["per_sample"] <= 4.0 and 2.0 <= slopes["phase2"] <= 4.0 and dt < 1800
    report(10, ok,
           f"per-sample slope {slopes['per_sample']:.2f} in [2,4], "
           f"phase-II slope {slopes['phase2']:.2f} in [K-1,K+1]=[2,4], {dt:.0f}s (< 30 min)")


@pytest.mark.xfail(
    condition=(os.cpu_count() or 1) < 8,
    reason=f"criterion 11 requires >= 8 physical cores; host has {os.cpu_count()}",
    strict=False,
)
def test_criterion_11_parallel_throughput():
    inst, _ = g.random_instance(M=64, k=16, eta=0.5, r_max=1.0, seed=1111)
    ktab = cu.cumulants_from_correlators(cu.correlator_table(inst, K=3))
    rates = {}
    for workers in (1, 8):
        cfg = sp.SamplerConfig(N=8192, K=3, method="single_elision", seed=9, workers=workers)
        sp.batch_sample(sp.SamplerConfig(N=8, K=3, method="single_elision", seed=9), kappa=ktab)
        t0 = time.perf_counter()
        sp.batch_sample(cfg, kappa=ktab)
        rates[workers] = cfg.N / (time.perf_counter() - t0)
    speedup = rates[8] / rates[1]
    report(11, speedup >= 5.0,
           f"8-worker rate {rates[8]:.0f}/s vs 1-worker {rates[1]:.0f}/s: "
           f"speedup {speedup:.2f}x (need >= 5x; host cores: {os.cpu_count()})")


def test_criterion_12_determinism(tmp_path, crit7_instance):
    inst, ktab = crit7_instance
    kw = dict(N=500, K=5, method="double_elision", seed=1212)
    b1 = sp.batch_sample(sp.SamplerConfig(workers=1, **kw), kappa=ktab)
    b2 = sp.batch_sample(sp.SamplerConfig(workers=2, **kw), kappa=ktab)
    f1, f2 = tmp_path / "w1.txt", tmp_path / "w2.txt"
    sp.save_samples_text(f1, b1)
    sp.save_samples_text(f2, b2)
    samples_ok = f1.read_bytes() == f2.read_bytes()
    t1, t2 = tmp_path / "a.gbsk", tmp_path / "b.gbsk"
    cu.save_table(cu.cumulants_from_correlators(cu.correlator_table(inst, K=4)), t1)
    cu.save_table(cu.cumulants_from_correlators(cu.correlator_table(inst, K=4)), t2)
    tables_ok = t1.read_bytes() == t2.read_bytes()
    report(12, samples_ok and tables_ok,
           f"batches byte-identical across worker counts: {samples_ok}; "
           f"table files byte-identical across runs/workers: {tables_ok}")
