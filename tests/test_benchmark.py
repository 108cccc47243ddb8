import csv
import io
from itertools import combinations

import numpy as np
import pytest

from gbsemu import benchmark as bm
from gbsemu import cumulants as cu
from gbsemu import gaussian as g
from gbsemu import sampler as sp
from gbsemu.errors import ValidationError
from gbsemu.subsets import dense_rank, order_offset, subset_rank
from oracles import plugin_click_cumulant


@pytest.fixture(scope="module")
def exact_batch4():
    inst, _ = g.random_instance(M=4, k=2, eta=0.8, r_max=1.2, seed=19)
    cfg = sp.SamplerConfig(N=100_000, method="exact_reference", seed=8)
    return inst, sp.exact_reference_sampler(inst, cfg)


# --- correlator estimation ------------------------------------------------------


def test_estimate_correlator_all_zeros():
    arr = np.zeros((10, 4), dtype=np.uint8)
    for S in [(0,), (1, 2), (0, 1, 2, 3)]:
        assert bm.estimate_correlator(arr, S) == 1.0


def test_estimate_correlator_all_ones():
    arr = np.ones((10, 4), dtype=np.uint8)
    for S in [(0,), (1, 2), (0, 1, 3)]:
        assert bm.estimate_correlator(arr, S) == (-1.0) ** len(S)


def test_estimate_correlator_empty_rejected():
    with pytest.raises(ValidationError):
        bm.estimate_correlator(np.zeros((0, 3), dtype=np.uint8), (0,))


def test_estimate_correlator_converges(exact_batch4):
    inst, batch = exact_batch4
    N = batch.N
    for S in [(0,), (0, 2), (1, 2, 3)]:
        est = bm.estimate_correlator(batch.bitstrings, S)
        assert abs(est - cu.correlator(inst, S)) < 4 / np.sqrt(N)


# --- click cumulants -------------------------------------------------------------


def test_click_cumulant_order1_is_mean():
    rng = np.random.default_rng(0)
    arr = (rng.random((5000, 3)) < 0.3).astype(np.uint8)
    est = bm.estimate_click_cumulants(arr, K=1)
    for k in range(3):
        assert est[k] == pytest.approx(arr[:, k].mean())


def test_click_cumulant_independent_bits_vanish():
    rng = np.random.default_rng(1)
    arr = (rng.random((200_000, 4)) < 0.5).astype(np.uint8)
    est = bm.estimate_click_cumulants(arr, K=2)
    assert np.all(np.abs(est[order_offset(4, 2) :]) < 4 / np.sqrt(arr.shape[0]))


def test_click_cumulant_vacuum_samples():
    arr = np.zeros((100, 5), dtype=np.uint8)
    assert np.all(bm.estimate_click_cumulants(arr, K=3) == 0.0)


def test_click_cumulant_order_cap():
    arr = np.zeros((10, 8), dtype=np.uint8)
    with pytest.raises(ValidationError):
        bm.estimate_click_cumulants(arr, K=7)


def test_click_cumulants_match_plugin_oracle():
    # the table path agrees with the per-subset partition sum of joint moments
    rng = np.random.default_rng(3)
    arr = (rng.random((3000, 8)) < rng.uniform(0.1, 0.6, size=8)).astype(np.uint8)
    est = bm.estimate_click_cumulants(arr, K=4)
    for d in range(1, 5):
        for S in combinations(range(8), d):
            assert abs(est[subset_rank(S, 8, 4)] - plugin_click_cumulant(arr, S)) <= 1e-12
    vacuum = np.zeros((3000, 8), dtype=np.uint8)
    assert np.all(bm.estimate_click_cumulants(vacuum, K=4) == 0.0)


def test_click_cumulants_match_theory(exact_batch4):
    inst, batch = exact_batch4
    est = bm.estimate_click_cumulants(batch.bitstrings, K=2)
    for S in combinations(range(4), 2):
        theory = cu.click_cumulant(inst, S)
        assert abs(est[subset_rank(S, 4, 2)] - theory) < 5 / np.sqrt(batch.N)


# --- correlation statistics ---------------------------------------------------------


def test_pearson_identity_and_negation():
    xs = np.array([1.0, 2.0, 5.0, 7.0])
    assert bm.pearson(xs, xs) == pytest.approx(1.0)
    assert bm.pearson(xs, -xs) == pytest.approx(-1.0)


def test_spearman_monotone_nonlinearity():
    xs = np.linspace(0, 3, 20)
    ys = np.exp(xs)
    assert bm.spearman(xs, ys) == pytest.approx(1.0)
    assert bm.pearson(xs, ys) < 1.0


def test_spearman_tie_handling():
    xs = np.array([1.0, 1.0, 2.0, 3.0])
    ys = np.array([1.0, 1.0, 2.0, 3.0])
    assert bm.spearman(xs, ys) == pytest.approx(1.0)


def _ranks_reference(xs):
    """Average ranks one value at a time; NaNs rank last, each on its own, in input order."""
    finite = [x for x in xs if x == x]
    nans = iter(range(len(finite) + 1, len(xs) + 1))
    return [sum(y < x for y in finite) + (sum(y == x for y in finite) + 1) / 2
            if x == x else next(nans) for x in xs]


@pytest.mark.parametrize("xs", [
    [], [2.0], [3.0, 1.0, 3.0, 3.0, 0.0, 1.0],
    np.round(np.random.default_rng(5).random(200) * 9),
    [np.nan, 1.0, np.nan, 1.0, -0.0, 0.0, np.inf],
])
def test_ranks_match_scalar_reference(xs):
    xs = np.asarray(xs, dtype=float)
    assert bm._ranks(xs).tolist() == _ranks_reference(xs.tolist())


def test_spearman_permutation_invariance():
    rng = np.random.default_rng(3)
    xs, ys = rng.random(30), rng.random(30)
    rho = bm.spearman(xs, ys)
    perm = rng.permutation(30)
    assert bm.spearman(xs[perm], ys[perm]) == pytest.approx(rho)


def test_zero_variance_rejected():
    with pytest.raises(ValidationError):
        bm.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_linear_fit_exact():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    assert bm.linear_fit(xs, 2 * xs + 1) == pytest.approx((2.0, 1.0))
    assert bm.linear_fit(xs, xs) == pytest.approx((1.0, 0.0))


def test_linear_fit_recovers_noisy_slope():
    rng = np.random.default_rng(4)
    xs = np.linspace(0, 1, 400)
    ys = 3.0 * xs + 0.5 + rng.normal(0, 0.05, 400)
    slope, intercept = bm.linear_fit(xs, ys)
    assert abs(slope - 3.0) < 0.05
    assert abs(intercept - 0.5) < 0.03


# --- click histograms ------------------------------------------------------------------


def test_total_clicks_vacuum():
    arr = np.zeros((50, 6), dtype=np.uint8)
    hist = bm.total_click_histogram(arr)
    assert hist[0] == 1.0 and hist[1:].sum() == 0.0


def test_total_clicks_sum_to_one(exact_batch4):
    _, batch = exact_batch4
    hist = bm.total_click_histogram(batch.bitstrings)
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_total_clicks_match_empirical(inst6):
    cfg = sp.SamplerConfig(N=200_000, method="exact_reference", seed=13)
    batch = sp.exact_reference_sampler(inst6, cfg)
    emp = bm.total_click_histogram(batch.bitstrings)
    exact = bm.exact_total_clicks(inst6)
    assert exact.sum() == pytest.approx(1.0, abs=1e-10)
    for C in range(7):
        se = np.sqrt(max(exact[C] * (1 - exact[C]), 1e-12) / cfg.N)
        assert abs(emp[C] - exact[C]) <= 4 * se + 1e-9


# --- XEB ----------------------------------------------------------------------------------


def test_xeb_uniform_over_click_sector():
    # samples uniform over weight-C patterns of a law uniform within each
    # sector: p(x) = p(C)/binom(M, C) makes every log term vanish
    M, C = 5, 2
    patterns = list(combinations(range(M), C))
    dist = np.zeros(2**M)
    idx = []
    for S in patterns:
        code = sum(1 << (M - 1 - k) for k in S)
        idx.append(code)
        dist[code] = 0.4 / len(patterns)
    dist[0] = 0.6
    inst = None

    class FakeInst:
        pass

    samples = np.zeros((len(idx) * 3, M), dtype=np.uint8)
    for t, code in enumerate(np.tile(idx, 3)):
        for k in range(M):
            samples[t, k] = (code >> (M - 1 - k)) & 1
    fake = FakeInst()
    fake.M = M
    rows = bm.xeb(samples, fake, c_range=[C], dist=dist)
    assert rows[0]["xeb"] == pytest.approx(0.0, abs=1e-12)
    assert rows[0]["se"] == pytest.approx(0.0, abs=1e-12)


def test_xeb_full_click_single_pattern():
    M = 3
    dist = np.zeros(8)
    dist[7] = 0.25
    dist[0] = 0.75
    samples = np.ones((10, M), dtype=np.uint8)

    class FakeInst:
        M = 3

    rows = bm.xeb(samples, FakeInst(), c_range=[M], dist=dist)
    assert rows[0]["xeb"] == pytest.approx(0.0, abs=1e-12)


def test_xeb_scale_invariance(inst6):
    cfg = sp.SamplerConfig(N=20_000, method="exact_reference", seed=3)
    batch = sp.exact_reference_sampler(inst6, cfg)
    dist = g.brute_force_distribution(inst6)
    a = bm.xeb(batch.bitstrings, inst6, dist=dist, min_samples=100)
    b = bm.xeb(batch.bitstrings, inst6, dist=dist * 3.0, min_samples=100)
    for ra, rb in zip(a, b):
        assert ra["xeb"] == pytest.approx(rb["xeb"], abs=1e-12)


def test_xeb_matches_expected_value(inst6):
    cfg = sp.SamplerConfig(N=60_000, method="exact_reference", seed=21)
    batch = sp.exact_reference_sampler(inst6, cfg)
    dist = g.brute_force_distribution(inst6)
    rows = bm.xeb(batch.bitstrings, inst6, dist=dist, min_samples=500)
    assert rows
    for row in rows:
        expect = bm.xeb_expected(inst6, row["C"], dist=dist)
        assert abs(row["xeb"] - expect) <= 3 * max(row["se"], 1e-9)


# --- distances and bootstrap -------------------------------------------------------------


def test_tvd_spot_values():
    assert bm.tvd([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert bm.tvd([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert bm.tvd([0.5, 0.5], [1.0, 0.0]) == 0.5


def test_bootstrap_constant_statistic():
    arr = np.ones((50, 2))
    mean, se = bm.bootstrap(lambda rows: 7.0, arr, B=30, seed=0)
    assert mean == 7.0 and se == 0.0


def test_bootstrap_bernoulli_se():
    rng = np.random.default_rng(5)
    arr = (rng.random((4000, 1)) < 0.3).astype(float)
    mean, se = bm.bootstrap(lambda rows: rows.mean(), arr, B=100, seed=1)
    phat = arr.mean()
    closed = np.sqrt(phat * (1 - phat) / arr.shape[0])
    assert se / closed < 1.5 and closed / se < 1.5


def test_bootstrap_deterministic():
    rng = np.random.default_rng(6)
    arr = rng.random((100, 1))
    a = bm.bootstrap(lambda rows: rows.mean(), arr, B=50, seed=3)
    b = bm.bootstrap(lambda rows: rows.mean(), arr, B=50, seed=3)
    assert a == b


def test_bootstrap_default_is_100():
    assert bm.DEFAULT_BOOTSTRAP == 100


# --- report ---------------------------------------------------------------------------------


def test_comparison_rejects_mode_count_mismatch(inst6):
    with pytest.raises(ValidationError):
        bm.cumulant_comparison(inst6, np.zeros((10, 5), dtype=np.uint8), orders=(2,))


def test_comparison_rejects_order_below_one(inst6):
    with pytest.raises(ValidationError):
        bm.cumulant_comparison(inst6, np.zeros((10, 6), dtype=np.uint8), orders=(0, 2))


@pytest.mark.parametrize("orders", [(3, 4), (2, 5)])
def test_comparison_rejects_orders_without_two_subsets_first(exact_batch4, monkeypatch, orders):
    # at M=4, order 4 has one subset and order 5 none: no correlation to report
    inst, batch = exact_batch4

    def refuse(*args):
        raise AssertionError("theory column computed before the orders were checked")

    monkeypatch.setattr(bm, "cumulant_tables", refuse)
    monkeypatch.setattr(bm, "estimate_click_cumulants", refuse)
    with pytest.raises(ValidationError) as exc:
        bm.cumulant_comparison(inst, batch.bitstrings, orders=orders)
    assert f"order {orders[-1]}" in str(exc.value) and "M=4" in str(exc.value)


def test_scatter_columns_gather_the_tables(inst6):
    # rows in lexicographic subset order; each entry is table[dense_rank(S)]
    arr = sp.exact_reference_sampler(
        inst6, sp.SamplerConfig(N=5000, method="exact_reference", seed=12)).bitstrings
    scatter = bm.cumulant_comparison(inst6, arr, orders=(3, 2))
    assert list(scatter) == [3, 2]
    theory = cu.click_cumulants_from_cumulants(cu.cumulant_tables(inst6, 3)[1])
    estimate = bm.estimate_click_cumulants(arr, 3)
    for d, (subsets, th, es) in scatter.items():
        assert subsets.tolist() == [list(S) for S in combinations(range(6), d)]
        for S, t, e in zip(subsets.tolist(), th.tolist(), es.tolist()):
            rank = int(dense_rank(np.array(S)[:, None], 6)[0])
            assert t == theory[rank] and e == estimate[rank]


_AWKWARD = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e-05, 1e16, -2.5,
            -1.2345678901234567e-300, 0.1 + 0.2]


def test_write_report_bytes_match_csv_writer(tmp_path):
    # the one-string writer against csv.writer fed the repr of every float
    vals = np.array(_AWKWARD)
    n2, n3 = len(list(combinations(range(5), 2))), len(list(combinations(range(5), 3)))
    scatter = {
        3: (np.array(list(combinations(range(5), 3))), np.resize(vals, n3), -np.resize(vals, n3)),
        2: (np.array(list(combinations(range(5), 2))), np.resize(vals[::-1], n2),
            np.resize(vals, n2)),
    }
    report = bm.BenchmarkReport()
    report.xeb = [{"C": i, "xeb": v, "se": -v, "n": 7 * i, "excluded": i % 2}
                  for i, v in enumerate(_AWKWARD)]
    report.clicks = [{"C": i, "p_emp": v, "p_exact": _AWKWARD[-1 - i]}
                     for i, v in enumerate(_AWKWARD)]
    bm.write_report(tmp_path, report, scatter)

    def csv_bytes(header, rows):
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue().encode()

    scatter_rows = [["+".join(map(str, S)), d, repr(t), repr(e), repr(0.0)]
                    for d, (subsets, th, es) in scatter.items()
                    for S, t, e in zip(subsets.tolist(), th.tolist(), es.tolist())]
    assert (tmp_path / "cumulants_scatter.csv").read_bytes() == csv_bytes(
        ["subset", "order", "theory", "estimate", "se"], scatter_rows)
    assert (tmp_path / "xeb.csv").read_bytes() == csv_bytes(
        ["C", "xeb", "se", "n", "excluded"],
        [[r["C"], repr(r["xeb"]), repr(r["se"]), r["n"], r["excluded"]] for r in report.xeb])
    assert (tmp_path / "clicks.csv").read_bytes() == csv_bytes(
        ["C", "p_emp", "p_exact"],
        [[r["C"], repr(r["p_emp"]), repr(r["p_exact"])] for r in report.clicks])


def test_report_beyond_desk_scale_skips_xeb_tvd():
    # cumulant statistics still run when no exact oracle exists (M > 20)
    inst, _ = g.random_instance(M=22, k=11, eta=0.6, r_max=1.0, seed=22)
    ktab = cu.cumulants_from_correlators(cu.correlator_table(inst, K=2))
    batch = sp.batch_sample(
        sp.SamplerConfig(N=4000, K=2, method="double_elision", seed=1), kappa=ktab
    )
    report, scatter = bm.build_report(inst, batch.bitstrings, orders=(2,))
    assert report.tvd is None and not report.xeb
    assert report.notes and "skipped" in report.notes[0]
    subsets, theory, estimate = scatter[2]
    assert 2 in report.pearson and len(subsets) == len(theory) == len(estimate) == 231


def test_plugin_cumulants_within_bootstrap_error(inst6):
    # plugin estimates on exact-sampler output converge to the transform
    # values: |diff| <= 5 * bootstrap SE for >= 95% of subsets, orders <= 3
    N = 1_000_000
    batch = sp.exact_reference_sampler(inst6, sp.SamplerConfig(N=N, method="exact_reference", seed=55))
    arr = batch.bitstrings
    subsets = [S for d in (1, 2, 3) for S in combinations(range(6), d)]
    ranks = [subset_rank(S, 6, 3) for S in subsets]
    point = bm.estimate_click_cumulants(arr, K=3)[ranks]
    B = 30
    rng = np.random.default_rng(7)
    boots = np.empty((B, len(subsets)))
    for b in range(B):
        idx = rng.integers(0, N, size=N)
        boots[b] = bm.estimate_click_cumulants(arr[idx], K=3)[ranks]
    ok = 0
    for i, S in enumerate(subsets):
        theory = cu.click_cumulant(inst6, S)
        se = float(np.std(boots[:, i], ddof=1))
        if abs(point[i] - theory) <= 5 * max(se, 1e-12):
            ok += 1
    assert ok / len(subsets) >= 0.95


def test_build_and_write_report(tmp_path, inst6):
    cfg = sp.SamplerConfig(N=50_000, method="exact_reference", seed=30)
    batch = sp.exact_reference_sampler(inst6, cfg)
    report, scatter = build = bm.build_report(inst6, batch.bitstrings, orders=(2,))
    assert report.pearson[2] > 0.9
    assert report.tvd is not None and report.tvd < 0.05
    paths = bm.write_report(tmp_path / "rep", report, scatter)
    names = {p.split("/")[-1] for p in paths}
    assert names == {"cumulants_scatter.csv", "xeb.csv", "clicks.csv", "summary.json"}
    import json

    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert set(summary) == {"pearson", "spearman", "slope", "intercept", "tvd", "log_base", "notes"}
    assert summary["log_base"] == "e"
