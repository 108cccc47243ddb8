import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest

from gbsemu import benchmark as bm
from gbsemu import cumulants as cu
from gbsemu import gaussian as g
from gbsemu import sampler as sp
from gbsemu.errors import ResourceGuardError, ValidationError

from oracles import ExactTailChain, exact_marginal, per_outcome_distribution, product_law


def make_tables(inst, K):
    return cu.cumulants_from_correlators(cu.correlator_table(inst, K=K))


@pytest.fixture(scope="module")
def lossy5():
    inst, _ = g.random_instance(M=5, k=2, eta=0.6, r_max=1.2, seed=11)
    return inst, g.brute_force_distribution(inst), make_tables(inst, 5)


@pytest.fixture(scope="module")
def lossy7():
    inst, _ = g.random_instance(M=7, k=3, eta=0.5, r_max=1.0, seed=5)
    return inst, make_tables(inst, 5)


@pytest.fixture(scope="module")
def independent6():
    nbar = np.linspace(0.1, 0.4, 6)
    sigma = np.diag(np.tile(2 * nbar + 1, 2))
    inst = g.GaussianInstance(sigma=sigma, hbar=2.0)
    return inst, make_tables(inst, 3)


# --- step probability ---------------------------------------------------------


def test_step_zero_vacuum():
    ktab = make_tables(g.vacuum_instance(4), 3)
    cfg = sp.SamplerConfig(N=0, K=3, method="double_elision")
    tables = sp.MarginalTables(ktab, cfg, batch=1)
    for n in range(4):
        p0 = tables.step_probability_zero(n)
        assert p0[0] == pytest.approx(tables.pref[n][0])
        tables.advance(n, np.zeros(1, dtype=np.uint8), p0 / tables.pref[n])


def test_step_zero_independent_modes(independent6):
    _, ktab = independent6
    cfg = sp.SamplerConfig(N=0, K=3, method="double_elision")
    tables = sp.MarginalTables(ktab, cfg, batch=1)
    rng = np.random.default_rng(1)
    for n in range(6):
        p0 = tables.step_probability_zero(n)
        expect = 0.5 * (1 + ktab.value((n,))) * tables.pref[n][0]
        assert p0[0] == pytest.approx(expect, abs=1e-12)
        q0 = p0 / tables.pref[n]
        tables.advance(n, (rng.random(1) >= q0).astype(np.uint8), q0)


def test_step_zero_untruncated_matches_brute_force(lossy5):
    inst, dist, ktab = lossy5
    cfg = sp.SamplerConfig(N=0, K=5, method="double_elision", aux_orders=(5, 5, 5))
    rng = np.random.default_rng(3)
    for _ in range(6):
        bits = rng.integers(0, 2, 5)
        chain = sp.ScalarChain(ktab, cfg)
        for n in range(5):
            p0 = chain.step_probability_zero(n)
            b0 = bits.copy()
            b0[n] = 0
            joint = exact_marginal(dist, 5, list(range(n + 1)), b0)
            assert p0 == pytest.approx(joint, abs=1e-9)
            chain.advance(n, int(bits[n]), p0 / chain.pref[n] if chain.pref[n] > 0 else 0.5)


# --- table updates -------------------------------------------------------------


def test_tables_independent_modes_product(independent6):
    # with all cumulants of order >= 2 zero every entry is a product of
    # per-bit factors over its covered indices
    _, ktab = independent6
    cfg = sp.SamplerConfig(N=0, K=3, method="double_elision")
    tables = sp.MarginalTables(ktab, cfg, batch=1)
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 6).astype(np.uint8)
    tables.run(None, forced=bits[:, None])
    k1 = ktab.values[:6]
    factor = 0.5 * (1 + (1 - 2 * bits.astype(float)) * k1)
    for t in range(6):
        for l in range(t + 1):
            assert tables.pp[t, l][0] == pytest.approx(np.prod(factor[l : t + 1]), abs=1e-12)
        for e in range(t):
            kept = [k for k in range(t + 1) if k != e]
            assert tables.q1[t, e][0] == pytest.approx(np.prod(factor[kept]), abs=1e-12)
        for e in range(1, t):
            for d in range(e):
                kept = [k for k in range(t + 1) if k not in (d, e)]
                slot = d + tables.C[e, 2]
                assert tables.q2_row(t)[slot][0] == pytest.approx(np.prod(factor[kept]), abs=1e-12)


def test_tables_vacuum_all_zero_bits():
    ktab = make_tables(g.vacuum_instance(5), 3)
    cfg = sp.SamplerConfig(N=0, K=3, method="double_elision")
    tables = sp.MarginalTables(ktab, cfg, batch=1)
    tables.run(None, forced=np.zeros((5, 1), dtype=np.uint8))
    for t in range(5):
        assert np.allclose(tables.pp[t, : t + 1], 1.0)
        assert np.allclose(tables.q1[t, : t + 1], 1.0)


def test_q1_q2_full_order_match_brute_force(lossy5):
    inst, dist, ktab = lossy5
    cfg = sp.SamplerConfig(N=0, K=5, method="double_elision", aux_orders=(5, 5, 5))
    rng = np.random.default_rng(2)
    for _ in range(4):
        bits = rng.integers(0, 2, 5)
        chain = sp.ScalarChain(ktab, cfg)
        chain.run(forced=bits)
        for t in range(5):
            for e in range(t):
                kept = [k for k in range(t + 1) if k != e]
                ex = exact_marginal(dist, 5, kept, bits)
                assert chain.q1[(t, e)] == pytest.approx(ex, abs=1e-9)
            for e in range(t):
                for d in range(e):
                    kept = [k for k in range(t + 1) if k not in (d, e)]
                    ex = exact_marginal(dist, 5, kept, bits)
                    assert chain.q2[(t, d, e)] == pytest.approx(ex, abs=1e-9)


def test_pp_short_intervals_exact(lossy5):
    # one- and two-bit intervals carry no interior split and are exact
    inst, dist, ktab = lossy5
    cfg = sp.SamplerConfig(N=0, K=5, method="double_elision", aux_orders=(5, 5, 5))
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    chain = sp.ScalarChain(ktab, cfg)
    chain.run(forced=bits)
    for l in range(5):
        for t in range(l, min(l + 2, 5)):
            ex = exact_marginal(dist, 5, list(range(l, t + 1)), bits)
            assert chain.pp[(l, t)] == pytest.approx(ex, abs=1e-9)


# --- engine cross-checks ----------------------------------------------------------


# every (method, K, aux) the tables accept: single elision at K <= 3 with pp and
# q1 orders up to 2, double elision at K <= 5 with pp and q1 up to 3, q2 up to 2.
# The four listed first keep the test ids aux0..aux3 stable.
FIRST_CONFIGS = [("double_elision", 5, (3, 3, 2)), ("double_elision", 4, (3, 3, 2)),
                 ("double_elision", 5, (2, 2, 1)), ("single_elision", 3, (2, 2, 0))]
FAST_CONFIGS = FIRST_CONFIGS + [
    config for config in [
        ("single_elision", K, (pp, p1, 0))
        for K in (2, 3) for pp in (1, 2) for p1 in (1, 2)
    ] + [
        ("double_elision", K, (pp, p1, p2))
        for K in range(2, 6) for pp in range(1, min(K, 3) + 1)
        for p1 in range(1, min(K, 3) + 1) for p2 in range(1, 3)
    ] if config not in FIRST_CONFIGS
]


@pytest.mark.parametrize("method,K,aux", FAST_CONFIGS)
def test_fast_engine_matches_scalar(lossy7, method, K, aux):
    inst, ktab = lossy7
    cfg = sp.SamplerConfig(N=0, K=K, method=method, aux_orders=aux)
    assert sp._fast_supported(cfg, ktab.M)
    bits = np.random.default_rng(7).integers(0, 2, (6, 7)).astype(np.uint8)
    tables = sp.MarginalTables(ktab, cfg, batch=len(bits))
    col = tables.run(None, forced=bits.T)
    for i, row in enumerate(bits):
        chain = sp.ScalarChain(ktab, cfg)
        chain.run(forced=row)
        assert tables.pref[7][col[i]] == pytest.approx(chain.pref[7], abs=1e-14)


@pytest.mark.parametrize(
    "method,K,aux",
    [("double_elision", 6, None), ("double_elision", 5, (4, 4, 3)), ("single_elision", 4, None)],
)
def test_tables_refuse_configs_beyond_their_rules(method, K, aux):
    # the tables hold the order-5 double / order-3 single rules; a higher
    # config must not run truncated to them
    inst, _ = g.random_instance(M=7, k=3, eta=0.5, r_max=1.0, seed=5)
    ktab = make_tables(inst, 6)
    cfg = sp.SamplerConfig(N=0, K=K, method=method, aux_orders=aux)
    with pytest.raises(ValidationError):
        sp.MarginalTables(ktab, cfg, batch=1)
    bits = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
    chain = sp.ScalarChain(ktab, cfg)
    chain.run(forced=bits)
    assert sp.chain_joint_probability(ktab, bits, cfg) == chain.pref[7]


def test_full_order_joint_probabilities(lossy5):
    inst, dist, ktab = lossy5
    cfg = sp.SamplerConfig(N=0, K=5, method="double_elision", aux_orders=(5, 5, 5))
    for i in range(32):
        bits = [(i >> (4 - k)) & 1 for k in range(5)]
        pj = sp.chain_joint_probability(ktab, bits, cfg)
        assert pj == pytest.approx(dist[i], abs=1e-9)


@pytest.mark.parametrize("M, seed", [(4, 41), (5, 11)])
def test_full_order_joint_probabilities_displaced(M, seed):
    # criterion 5's setting on displaced states; the full-order chain is
    # exact only up to M = 5 (at M = 6 it is about 1e-8 off, displaced or not)
    base, _ = g.random_instance(M=M, k=M // 2, eta=0.6, r_max=1.2, seed=seed)
    mu = np.random.default_rng(seed).normal(0.0, 0.7, 2 * M)
    inst = g.GaussianInstance(sigma=base.sigma, mu=mu, hbar=2.0)
    dist = g.brute_force_distribution(inst)
    ktab = cu.cumulants_from_correlators(cu.correlator_table(inst, K=M))
    cfg = sp.SamplerConfig(N=0, K=M, method="double_elision", aux_orders=(M, M, M))
    for i, bits in enumerate(g.outcome_bits(np.arange(2**M), M)):
        assert sp.chain_joint_probability(ktab, bits, cfg) == pytest.approx(dist[i], abs=1e-9)


def test_joint_probability_order_above_modes_is_the_effective_order():
    # K = 6 on 4 modes runs the batched rules at min(K, M) = 4
    inst, _ = g.random_instance(M=4, k=2, eta=0.6, r_max=1.0, seed=2)
    ktab = make_tables(inst, 4)
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    p = {K: sp.chain_joint_probability(ktab, bits, sp.SamplerConfig(N=0, K=K)) for K in (4, 6)}
    assert p[6] == p[4]


@pytest.mark.xfail(strict=True, reason="the full-order chain is about 2e-9 off at M = 6")
def test_full_order_joint_probabilities_m6():
    # the Phase II table matches brute-force correlators here to 2e-14, so
    # the gap is the chain's; aux (5, 5, 5) gives the same error as (6, 6, 6)
    inst, _ = g.random_instance(M=6, k=3, eta=0.6, r_max=1.2, seed=3)
    dist = g.brute_force_distribution(inst)
    ktab = cu.cumulants_from_correlators(cu.correlator_table(inst, K=6))
    cfg = sp.SamplerConfig(N=0, K=6, method="double_elision", aux_orders=(6, 6, 6))
    for i, bits in enumerate(g.outcome_bits(np.arange(64), 6)):
        assert sp.chain_joint_probability(ktab, bits, cfg) == pytest.approx(dist[i], abs=1e-9)


def test_full_order_chain_with_exact_deep_tails_m6():
    # the setting of the strict xfail above: with the marginals of three or
    # more elided bits read exactly, the rest of the full-order chain is exact
    inst, _ = g.random_instance(M=6, k=3, eta=0.6, r_max=1.2, seed=3)
    dist = g.brute_force_distribution(inst)
    ktab = cu.cumulants_from_correlators(cu.correlator_table(inst, K=6))
    cfg = sp.SamplerConfig(N=0, K=6, method="double_elision", aux_orders=(6, 6, 6))
    for i, bits in enumerate(g.outcome_bits(np.arange(64), 6)):
        chain = ExactTailChain(ktab, cfg, dist)
        chain.run(forced=bits)
        assert abs(chain.pref[6] - dist[i]) <= 1e-14


# --- sampling --------------------------------------------------------------------


def test_sample_vacuum_all_zeros():
    ktab = make_tables(g.vacuum_instance(6), 3)
    for method in ("single_elision", "double_elision"):
        cfg = sp.SamplerConfig(N=40, K=3, method=method, seed=1)
        batch = sp.batch_sample(cfg, kappa=ktab)
        assert batch.N == 40
        assert not batch.bitstrings.any()


def test_single_mode_click_frequency():
    inst = g.GaussianInstance(sigma=1.9 * np.eye(2), hbar=2.0)
    q = 1 - g.vacuum_overlap(inst.sigma, hbar=2.0)
    ktab = make_tables(inst, 1)
    cfg = sp.SamplerConfig(N=100_000, K=2, method="double_elision", seed=3)
    batch = sp.batch_sample(cfg, kappa=ktab)
    freq = batch.bitstrings.mean()
    sigma_hat = np.sqrt(q * (1 - q) / cfg.N)
    assert abs(freq - q) < 4 * sigma_hat


def test_independent_modes_tvd(independent6):
    inst, ktab = independent6
    q = np.array([0.5 * (1 - k) for k in ktab.values[:6]])
    cfg = sp.SamplerConfig(N=200_000, K=3, method="single_elision", seed=5, workers=2)
    batch = sp.batch_sample(cfg, kappa=ktab)
    emp = bm.empirical_distribution(batch.bitstrings, 6)
    dist = product_law(q)
    assert bm.tvd(emp, dist) < 3 * np.sqrt(2**6 / cfg.N) / 2


def test_single_elision_beats_product_baseline():
    inst, _ = g.random_instance(M=8, k=4, eta=0.5, r_max=1.0, seed=5)
    ktab = make_tables(inst, 3)
    dist = g.brute_force_distribution(inst)
    q = [1 - g.vacuum_overlap(g.reduce_modes(inst, [k]).sigma, hbar=2.0) for k in range(8)]
    baseline = bm.tvd(product_law(q), dist)
    cfg = sp.SamplerConfig(N=1_000_000, K=3, method="single_elision", seed=2, workers=2)
    batch = sp.batch_sample(cfg, kappa=ktab)
    emp = bm.empirical_distribution(batch.bitstrings, 8)
    assert bm.tvd(emp, dist) < baseline


def test_exact_reference_sampler(lossy5):
    inst, dist, _ = lossy5
    cfg = sp.SamplerConfig(N=60_000, method="exact_reference", seed=4)
    batch = sp.exact_reference_sampler(inst, cfg)
    emp = bm.empirical_distribution(batch.bitstrings, 5)
    # per-outcome binomial sanity at 4-sigma plus determinism
    for i in range(32):
        se = np.sqrt(max(dist[i] * (1 - dist[i]), 1e-12) / cfg.N)
        assert abs(emp[i] - dist[i]) <= 5 * se + 1e-9
    again = sp.exact_reference_sampler(inst, cfg)
    assert np.array_equal(batch.bitstrings, again.bitstrings)


def test_exact_reference_sampler_inverts_per_outcome_cdf():
    inst, _ = g.random_instance(M=8, k=3, eta=0.7, r_max=1.0, seed=19)
    cfg = sp.SamplerConfig(N=5000, method="exact_reference", seed=6)
    cdf = np.cumsum(per_outcome_distribution(inst))
    cdf[-1] = 1.0
    u = sp._stream_uniforms(cfg.seed, 0, cfg.N, 1)[:, 0]
    codes = np.minimum(np.searchsorted(cdf, u, side="right"), 2**8 - 1)
    expect = (codes[:, None] >> np.arange(7, -1, -1)) & 1
    assert np.array_equal(sp.exact_reference_sampler(inst, cfg).bitstrings, expect)


def test_exact_reference_vacuum_and_guard():
    cfg = sp.SamplerConfig(N=10, method="exact_reference", seed=0)
    batch = sp.exact_reference_sampler(g.vacuum_instance(4), cfg)
    assert not batch.bitstrings.any()
    with pytest.raises(ResourceGuardError):
        sp.exact_reference_sampler(g.vacuum_instance(21), cfg)


def test_batch_empty():
    ktab = make_tables(g.vacuum_instance(3), 2)
    batch = sp.batch_sample(sp.SamplerConfig(N=0, K=2, method="double_elision"), kappa=ktab)
    assert batch.N == 0 and batch.bitstrings.shape == (0, 3)


@pytest.mark.parametrize("N,workers", [(300, 2), (300, 3), (3, 4)])
def test_worker_count_invariance(lossy7, N, workers):
    # uneven ranges, and more workers than samples
    _, ktab = lossy7
    kw = dict(N=N, K=5, method="double_elision", seed=9)
    b1 = sp.batch_sample(sp.SamplerConfig(workers=1, **kw), kappa=ktab)
    b2 = sp.batch_sample(sp.SamplerConfig(workers=workers, **kw), kappa=ktab)
    assert np.array_equal(b1.bitstrings, b2.bitstrings)


@pytest.mark.parametrize("method,K,engine", [("double_elision", 5, "batched"),
                                             ("single_elision", 3, "batched")])
def test_batch_reports_aux_values_of_engine_that_ran(lossy7, method, K, engine):
    inst, ktab = lossy7
    cfg = sp.SamplerConfig(N=4, K=K, method=method, seed=1)
    batch = sp.batch_sample(cfg, kappa=ktab)
    layout = sp._column_layout(7, K, method, cfg.aux_orders)
    held = sum(int(np.prod(shape)) for shape, _ in layout.values())
    assert batch.aux_values_per_sample == held
    exact = sp.batch_sample(sp.SamplerConfig(N=4, method="exact_reference"), inst=inst)
    assert exact.aux_values_per_sample == 0


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched chunk function reaches the workers only through fork",
)
def test_worker_error_message_recorded(lossy7, monkeypatch):
    _, ktab = lossy7
    original = sp._chunk_chain

    def failing(kappa, config, start, stop):
        if start == 0:
            raise FloatingPointError(f"chunk {start}..{stop} overflowed")
        return original(kappa, config, start, stop)

    monkeypatch.setattr(sp, "_chunk_chain", failing)
    cfg = sp.SamplerConfig(N=128, K=5, method="double_elision", seed=9, workers=2)
    batch = sp.batch_sample(cfg, kappa=ktab)
    assert batch.worker_errors == ["FloatingPointError: chunk 0..64 overflowed"]
    assert batch.n_failed == 64 and batch.N == 64


def test_one_worker_error_raises(lossy7, monkeypatch):
    _, ktab = lossy7

    def failing(kappa, config, start, stop):
        raise FloatingPointError("overflowed")

    monkeypatch.setattr(sp, "_chunk_chain", failing)
    with pytest.raises(FloatingPointError):
        sp.batch_sample(sp.SamplerConfig(N=16, K=5, seed=9), kappa=ktab)


def test_batch_size_invariance(lossy7, monkeypatch):
    _, ktab = lossy7
    cfg = sp.SamplerConfig(N=100, K=5, method="double_elision", seed=9)
    monkeypatch.setattr(sp, "_auto_batch", lambda M, config: 7)
    b1 = sp.batch_sample(cfg, kappa=ktab)
    monkeypatch.setattr(sp, "_auto_batch", lambda M, config: 64)
    b2 = sp.batch_sample(cfg, kappa=ktab)
    assert np.array_equal(b1.bitstrings, b2.bitstrings)


def test_sample_one_matches_batch(lossy7):
    _, ktab = lossy7
    cfg = sp.SamplerConfig(N=5, K=5, method="double_elision", seed=9)
    batch = sp.batch_sample(cfg, kappa=ktab)
    for i in range(5):
        bits, aborted, *_ = sp._chunk_chain(ktab, cfg, i, i + 1)
        assert not aborted[0] and np.array_equal(bits[0], batch.bitstrings[i])


def test_stream_calls_concatenate():
    parts = [sp._stream_uniforms(11, s, n, 7) for s, n in ((0, 1), (1, 70), (71, 229))]
    assert np.array_equal(np.concatenate(parts), sp._stream_uniforms(11, 0, 300, 7))


def test_stream_definition():
    # sample i: the first M doubles of Philox keyed seed mod 2**64 from counter i * ceil(M / 4)
    seed, M = -5, 7
    for i in (0, 1, 63, 64, 1000):
        gen = np.random.Generator(np.random.Philox(key=seed % 2**64, counter=i * 2))
        assert np.array_equal(sp._stream_uniforms(seed, i, 1, M)[0], gen.random(M))


def test_prefix_monotone_and_conditional_range(lossy7):
    _, ktab = lossy7
    cfg = sp.SamplerConfig(N=0, K=5, method="double_elision")
    tables = sp.MarginalTables(ktab, cfg, batch=16)
    u = np.empty((7, 16))
    for t in range(16):
        u[:, t] = sp._stream_uniforms(3, t, 1, 7)[0]
    tables.run(u)
    pref = tables.pref
    for n in range(7):
        assert (pref[n + 1] <= pref[n] + 1e-15).all()
        assert (pref[n + 1] >= -1e-15).all()


def test_config_validation():
    with pytest.raises(ValidationError):
        sp.SamplerConfig(N=1, method="bogus")
    with pytest.raises(ValidationError):
        sp.SamplerConfig(N=1, K=5, aux_orders=(6, 3, 2))
    with pytest.raises(ValidationError):
        sp.SamplerConfig(N=1, clamp_epsilon=0.7)
    with pytest.raises(ValidationError):
        sp.SamplerConfig(N=-1)
    for method in sp.METHODS:
        with pytest.raises(ValidationError, match=f"K=-3 must be at least 2 for {method}"):
            sp.SamplerConfig(N=5, K=-3, method=method)


def test_clamp_epsilon_keeps_conditionals_interior():
    ktab = make_tables(g.vacuum_instance(4), 2)
    cfg = sp.SamplerConfig(N=64, K=2, method="double_elision", seed=0, clamp_epsilon=0.25)
    batch = sp.batch_sample(cfg, kappa=ktab)
    # vacuum conditional is 1, clamped to 0.75 -> clicks now possible
    assert batch.bitstrings.any()


# --- sample files -------------------------------------------------------------------


def test_samples_text_roundtrip(tmp_path, lossy7):
    _, ktab = lossy7
    cfg = sp.SamplerConfig(N=20, K=5, method="double_elision", seed=1)
    batch = sp.batch_sample(cfg, kappa=ktab)
    path = tmp_path / "s.txt"
    sp.save_samples_text(path, batch)
    back = sp.load_samples(path)
    assert back.M == 7 and back.N == 20
    assert np.array_equal(back.bitstrings, batch.bitstrings)
    assert back.method == "double_elision" and back.K == 5 and back.seed == 1


@pytest.mark.parametrize("layout", [
    lambda b: b.replace(b"\n", b"\r\n"),
    lambda b: b"\n" + b.replace(b"\n", b"\n\n").replace(b"\n", b"\r\n", 3),
    lambda b: b.removesuffix(b"\n"),
], ids=["crlf", "blank_lines", "no_final_newline"])
def test_samples_text_line_ends(tmp_path, lossy7, layout):
    _, ktab = lossy7
    batch = sp.batch_sample(sp.SamplerConfig(N=20, K=5, method="double_elision", seed=1),
                            kappa=ktab)
    path = tmp_path / "s.txt"
    sp.save_samples_text(path, batch)
    header, _, body = path.read_bytes().partition(b"\n")
    path.write_bytes(header + b"\n" + layout(body))
    assert np.array_equal(sp.load_samples(path).bitstrings, batch.bitstrings)


def test_samples_packed_roundtrip(tmp_path, lossy7):
    _, ktab = lossy7
    cfg = sp.SamplerConfig(N=33, K=5, method="double_elision", seed=1)
    batch = sp.batch_sample(cfg, kappa=ktab)
    path = tmp_path / "s.gbss"
    sp.save_samples_packed(path, batch)
    back = sp.load_samples(path)
    assert np.array_equal(back.bitstrings, batch.bitstrings)


def test_samples_bad_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a samples file\n")
    with pytest.raises(ValidationError):
        sp.load_samples(path)


def test_samples_text_bytes(tmp_path):
    bits = np.array([[0, 1, 0], [1, 1, 2]], dtype=np.uint8)
    batch = sp.SampleBatch(M=3, N=2, bitstrings=bits, method="x", K=4, seed=9)
    path = tmp_path / "s.txt"
    sp.save_samples_text(path, batch)
    assert path.read_bytes() == b"# gbs-samples v1 M=3 N=2 method=x K=4 seed=9\n010\n111\n"


@pytest.mark.parametrize("body, line", [
    ("010\n01\n111\n", 2),
    ("010\n0a1\n111\n", 2),
    ("0x0\n01\n111\n", 1),
    ("010\n\n011\n11\n", 3),
    ("010\n011\n1\u00e91\n", 3),
    # N * (M + 1) bytes, the writer's size: one bad character, one misplaced "\n"
    ("010\n012\n111\n", 2),
    ("010\n01\n1111\n", 2),
])
def test_samples_text_bad_line_number(tmp_path, body, line):
    path = tmp_path / "bad.txt"
    path.write_text("# gbs-samples v1 M=3 N=3 method=x K=0 seed=0\n" + body)
    with pytest.raises(ValidationError, match=f"bad sample line {line}$"):
        sp.load_samples(path)


def test_packed_header_without_modes(tmp_path):
    import struct

    path = tmp_path / "zero.gbss"
    path.write_bytes(sp._PACKED_MAGIC + struct.pack("<IIQ", 1, 0, 3))
    with pytest.raises(ValidationError, match="M=0"):
        sp.load_samples(path)


def test_packed_bytes_lsb_first(tmp_path):
    batch = sp.SampleBatch(M=8, N=1, bitstrings=np.array([[1, 0, 0, 0, 0, 0, 1, 0]], dtype=np.uint8),
                           method="x", K=0, seed=0)
    path = tmp_path / "one.gbss"
    sp.save_samples_packed(path, batch)
    body = path.read_bytes()[20:]
    assert body == bytes([0b01000001])


def test_aux_memory_budget():
    # packed q2 rows plus the contraction store R, each O(M^3 / 6), at M=144
    from math import comb

    M = 144
    total = sp.aux_values_per_sample(M, "double_elision")
    q2_part = total - sp.aux_values_per_sample(M, "single_elision")
    packed_q2 = comb(M + 1, 3) + 1
    # T rows of orders 3, 4, 5 and V rows of orders 2, 3 (blocks h >= 2), zero slot
    R = (comb(M - 1, 2) + comb(M - 2, 2) + comb(M - 2, 3)
         + comb(M + 1, 3) - (M - 1) + comb(M, 3) - (M - 2) + 1)
    assert R == 1_472_044
    pair_signs_and_scratch = 2 * comb(M, 2)
    assert q2_part == packed_q2 + R + pair_signs_and_scratch
    assert sp.aux_values_per_sample(64, "single_elision") < 3 * 64 * 64


@pytest.mark.parametrize(
    "M,K,method",
    [(12, 5, "double_elision"), (48, 5, "double_elision"), (144, 5, "double_elision"),
     (400, 5, "double_elision"), (64, 3, "single_elision"), (128, 3, "single_elision")],
)
def test_auto_batch_fits_budget(M, K, method):
    # a power of two whose tables fit in _BATCH_VALUES, unless held at the floor of 8
    cfg = sp.SamplerConfig(N=0, K=K, method=method)
    width = sp._auto_batch(M, cfg)
    assert width >= 8 and width & (width - 1) == 0
    per_sample = sp.aux_values_per_sample(M, method, K)
    assert width == 8 or width * per_sample <= sp._BATCH_VALUES
    assert width * 2 * per_sample > sp._BATCH_VALUES or width in (1024, 4096)


@pytest.mark.parametrize(
    "method,K,aux",
    [("double_elision", 5, (3, 3, 2)), ("double_elision", 4, (2, 2, 1)),
     ("double_elision", 3, (3, 3, 2)), ("single_elision", 3, (2, 2, 0))],
)
def test_aux_values_count_engine_arrays(lossy7, method, K, aux):
    # every float table with a batch axis that the engine owns is counted
    _, ktab = lossy7
    tables = sp.MarginalTables(ktab, sp.SamplerConfig(N=0, K=K, method=method, aux_orders=aux), 5)
    held = sum(
        a.size // 5 for a in vars(tables).values()
        if isinstance(a, np.ndarray) and a.dtype == float and a.ndim >= 2
        and a.shape[-1] == 5 and a.base is None
    )
    assert held == sp.aux_values_per_sample(7, method, K, aux)


def _final_tables(ktab, cfg, width, count):
    """Bytes of the final pref/pp/q1/q2 columns of samples 0..count-1, `width` per run."""
    M = ktab.M
    out = []
    tables = sp.MarginalTables(ktab, cfg, batch=width)
    for s0 in range(0, count, width):
        b = min(width, count - s0)
        col = tables.run(np.ascontiguousarray(sp._stream_uniforms(cfg.seed, s0, b, M).T))
        arrays = [tables.pref, tables.pp, tables.q1] + ([tables.q2] if tables.double else [])
        for c in col:
            out.append(b"".join(np.ascontiguousarray(a[..., c]).tobytes() for a in arrays))
    return out


@pytest.mark.parametrize("method,K", [("double_elision", 5), ("single_elision", 3)])
def test_tables_independent_of_batch_width(method, K):
    inst, _ = g.random_instance(M=16, k=4, eta=0.6, r_max=1.0, seed=21)
    ktab = make_tables(inst, K)
    cfg = sp.SamplerConfig(N=0, K=K, method=method, seed=4)
    auto = sp._auto_batch(16, cfg)
    reference = _final_tables(ktab, cfg, auto, auto)[:70]
    for width in (1, 2, 3, 7, 64):
        assert _final_tables(ktab, cfg, width, 70) == reference, f"width {width}"
    # the width-1 entry points run at width 2 and agree with a wide batch
    bits = np.random.default_rng(5).integers(0, 2, (16, 8)).astype(np.uint8)
    tables = sp.MarginalTables(ktab, cfg, batch=8)
    col = tables.run(None, forced=bits)
    for c in range(8):
        assert sp.chain_joint_probability(ktab, bits[:, c], cfg) == tables.pref[16][col[c]]


@pytest.mark.parametrize("method,K", [("double_elision", 5), ("single_elision", 3)])
def test_forced_runs_share_prefixes(lossy7, method, K):
    # every third 7-bit string, plus repeats: one column per distinct prefix
    _, ktab = lossy7
    cfg = sp.SamplerConfig(N=0, K=K, method=method)
    codes = np.r_[np.arange(0, 128, 3), [0, 3, 126]]
    bits = ((codes[None, :] >> np.arange(6, -1, -1)[:, None]) & 1).astype(np.uint8)
    tables = sp.MarginalTables(ktab, cfg, batch=codes.size)
    col = tables.run(None, forced=bits)
    assert (col >= 0).all() and len(set(col)) == 43
    assert tables.table_columns < 7 * codes.size
    for i in range(codes.size):
        assert tables.pref[7][col[i]] == sp.chain_joint_probability(ktab, bits[:, i], cfg)


@pytest.mark.parametrize("method,K", [("double_elision", 5), ("single_elision", 3)])
def test_deferred_samples_match_wide_run(method, K, monkeypatch):
    # random cumulants clip many conditionals; at widths 2 and 3 most prefixes
    # find no free column, so their samples are deferred and restarted
    from math import comb

    M = 7
    values = np.random.default_rng(0).uniform(-0.3, 0.3, sum(comb(M, d) for d in range(1, 6)))
    kappa = cu.SubsetTable(M=M, K=5, values=values, kind="cumulant")
    cfg = sp.SamplerConfig(N=300, K=K, method=method, seed=1)
    wide = sp.batch_sample(cfg, kappa=kappa)
    assert wide.n_deferred == 0 and wide.n_clipped > 0
    for width in (2, 3):
        monkeypatch.setattr(sp, "_auto_batch", lambda M, config: width)
        narrow = sp.batch_sample(cfg, kappa=kappa)
        assert narrow.n_deferred > cfg.N
        assert np.array_equal(narrow.bitstrings, wide.bitstrings)
        for name in ("n_flagged", "n_clipped", "max_clip_excursion", "n_failed"):
            assert getattr(narrow, name) == getattr(wide, name), name


def _clipping_kappa(M=7):
    """Random cumulants of orders 1..5, which clip many conditionals."""
    from math import comb

    values = np.random.default_rng(0).uniform(-0.3, 0.3, sum(comb(M, d) for d in range(1, 6)))
    return cu.SubsetTable(M=M, K=5, values=values, kind="cumulant")


@pytest.mark.parametrize("method,K", [("double_elision", 5), ("single_elision", 3)])
def test_routed_batches_match_wide_run(method, K, monkeypatch):
    # at widths 4 and 16 a run takes 64 and 256 of the 2000 samples; the
    # rest are routed through the last run's trie or restarted
    kappa = _clipping_kappa()
    cfg = sp.SamplerConfig(N=2000, K=K, method=method, seed=2)
    wide = sp.batch_sample(cfg, kappa=kappa)
    assert wide.n_routed == 0 and wide.n_deferred == 0 and wide.n_clipped > 0
    for width in (4, 16):
        monkeypatch.setattr(sp, "_auto_batch", lambda M, config: width)
        narrow = sp.batch_sample(cfg, kappa=kappa)
        assert narrow.n_routed > 0 and narrow.n_deferred > 0
        assert np.array_equal(narrow.bitstrings, wide.bitstrings)
        for name in ("n_flagged", "n_clipped", "max_clip_excursion", "n_failed"):
            assert getattr(narrow, name) == getattr(wide, name), name


@pytest.mark.parametrize("method,K", [("double_elision", 5), ("single_elision", 3)])
def test_route_follows_finished_run(method, K):
    M = 7
    kappa = _clipping_kappa(M)
    cfg = sp.SamplerConfig(N=0, K=K, method=method)
    tables = sp.MarginalTables(kappa, cfg, batch=8)
    u = np.ascontiguousarray(sp._stream_uniforms(3, 0, 128, M).T)
    col = tables.run(u)
    assert (col < 0).any() and (col >= 0).any()
    # the run's own samples reach their columns, and the deferred ones leave
    assert np.array_equal(tables.route(u), col)
    # each column holds the conditional of every step of its prefix
    ends = np.unique(col[col >= 0])
    for c in ends:
        alone = sp.MarginalTables(kappa, cfg, batch=1)
        alone.run(None, forced=(tables.s[:, c : c + 1] < 0).astype(np.uint8))
        assert np.array_equal(tables.q0[:, c], alone.q0[:, 0])
    # a fresh sample reaches the column of its outcome, or -1 where the run
    # made no branch toward it
    fresh = np.ascontiguousarray(sp._stream_uniforms(3, 128, 256, M).T)
    routed = tables.route(fresh)
    wide = sp.MarginalTables(kappa, cfg, batch=256)
    wide_col = wide.run(fresh)
    bits = (wide.s[:, wide_col] < 0).T
    outcomes = {tuple(b) for b in (tables.s[:, ends] < 0).T}
    on = routed >= 0
    assert on.any() and not on.all()
    assert on.tolist() == [tuple(b) in outcomes for b in bits]
    assert np.array_equal((tables.s[:, routed[on]] < 0).T, bits[on])


def test_routed_chunk_with_no_sample_on_trie(lossy7, monkeypatch):
    _, ktab = lossy7
    cfg = sp.SamplerConfig(N=300, K=5, method="double_elision", seed=4)
    wide = sp.batch_sample(cfg, kappa=ktab)
    monkeypatch.setattr(sp, "_auto_batch", lambda M, config: 4)
    monkeypatch.setattr(sp.MarginalTables, "route", lambda self, u: np.full(u.shape[1], -1))
    narrow = sp.batch_sample(cfg, kappa=ktab)
    assert narrow.n_routed == 0 and narrow.n_deferred >= cfg.N - 64
    assert np.array_equal(narrow.bitstrings, wide.bitstrings)
    for name in ("n_flagged", "n_clipped", "max_clip_excursion", "n_failed"):
        assert getattr(narrow, name) == getattr(wide, name), name


def test_clip_counters():
    vacuum = make_tables(g.vacuum_instance(6), 3)
    batch = sp.batch_sample(sp.SamplerConfig(N=50, K=3, seed=1), kappa=vacuum)
    assert batch.n_clipped == 0 and batch.max_clip_excursion == 0.0
    # kappa({0}) = 1.5 puts the first conditional at 1.25: one clip of 0.25 per sample
    values = np.zeros(3)  # orders 1 and 2 of two modes
    values[0] = 1.5
    forced = cu.SubsetTable(M=2, K=2, values=values, kind="cumulant")
    for method in ("single_elision", "double_elision"):
        for workers in (1, 2):
            cfg = sp.SamplerConfig(N=40, K=2, method=method, seed=1, workers=workers)
            batch = sp.batch_sample(cfg, kappa=forced)
            assert batch.n_clipped == 40 and batch.max_clip_excursion == 0.25
    # four modes count the same way
    values = np.zeros(10)  # orders 1 and 2 of four modes
    values[0] = 1.5
    clipping = cu.SubsetTable(M=4, K=2, values=values, kind="cumulant")
    # a non-finite kappa({1}) aborts every sample at step 1
    values = values.copy()
    values[1] = np.nan
    broken = cu.SubsetTable(M=4, K=2, values=values, kind="cumulant")
    for method in ("single_elision", "double_elision"):
        for workers in (1, 2):
            cfg = sp.SamplerConfig(N=40, K=2, method=method, seed=1, workers=workers)
            batch = sp.batch_sample(cfg, kappa=clipping)
            assert batch.N == 40 and batch.n_failed == 0
            assert batch.n_clipped == 40 and batch.max_clip_excursion == 0.25
            batch = sp.batch_sample(cfg, kappa=broken)
            assert batch.N == 0 and batch.n_failed == 40 and batch.worker_errors == []


def test_conditional_rule():
    # columns: non-finite p0, pref <= 0, ratio > 1, ratio < 0, ratio inside
    p0 = np.array([np.nan, 0.3, 0.6, -0.1, 0.2])
    pref = np.array([0.8, 0.0, 0.5, 0.5, 0.5])
    for eps, expect in ((0.0, [0.5, 0.6, 1.0, 0.0, 0.4]), (0.25, [0.5, 0.6, 0.75, 0.25, 0.4])):
        state = SimpleNamespace(**{name: np.zeros(5, dtype)
                                   for name, dtype in sp._SAMPLE_STATE.items()})
        q0 = sp._conditional(p0, pref, 0.2, eps, state)
        assert q0 == pytest.approx(expect, abs=1e-15)
        assert state.aborted.tolist() == [True, False, False, False, False]
        assert state.flagged.tolist() == [False, True, False, False, False]
        assert state.n_clipped.tolist() == [0, 0, 1, 1, 0]
        assert state.max_clip_excursion == pytest.approx([0, 0, 0.2, 0.2, 0], abs=1e-15)
    # ScalarChain passes floats and one-column state
    state = SimpleNamespace(**{name: np.zeros(1, dtype) for name, dtype in sp._SAMPLE_STATE.items()})
    assert float(sp._conditional(0.75, 0.5, 0.2, 0.0, state)) == 1.0
    assert state.n_clipped[0] == 1 and state.max_clip_excursion[0] == 0.5
