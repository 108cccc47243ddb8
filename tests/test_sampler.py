import multiprocessing

import numpy as np
import pytest

from gbsemu import benchmark as bm
from gbsemu import cumulants as cu
from gbsemu import gaussian as g
from gbsemu import sampler as sp
from gbsemu.errors import ResourceGuardError, ValidationError

from oracles import exact_marginal, product_law


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


# --- gamma ------------------------------------------------------------------


def test_gamma_zero_cumulant(independent6):
    _, ktab = independent6
    assert sp.gamma(ktab, (0, 2), [0] * 6) == pytest.approx(0.0, abs=1e-14)


def test_gamma_all_zero_bits(lossy7):
    _, ktab = lossy7
    assert sp.gamma(ktab, (1, 3), [0] * 7) == pytest.approx(ktab.value((1, 3)))


def test_gamma_flip_negates(lossy7):
    _, ktab = lossy7
    bits = [0] * 7
    v0 = sp.gamma(ktab, (1, 3), bits)
    bits[3] = 1
    assert sp.gamma(ktab, (1, 3), bits) == pytest.approx(-v0)


# --- step probability ---------------------------------------------------------


def test_step_zero_vacuum():
    ktab = make_tables(g.vacuum_instance(4), 3)
    cfg = sp.SamplerConfig(N=0, K=3, method="double_elision")
    tables = sp.MarginalTables(ktab, cfg, batch=1)
    for n in range(4):
        p0 = sp.step_probability_zero(tables, n)
        assert p0[0] == pytest.approx(tables.pref[n][0])
        tables.advance(n, np.zeros(1, dtype=np.uint8), p0 / tables.pref[n])


def test_step_zero_independent_modes(independent6):
    _, ktab = independent6
    cfg = sp.SamplerConfig(N=0, K=3, method="double_elision")
    tables = sp.MarginalTables(ktab, cfg, batch=1)
    rng = np.random.default_rng(1)
    for n in range(6):
        p0 = sp.step_probability_zero(tables, n)
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
                assert tables.q2[t, slot][0] == pytest.approx(np.prod(factor[kept]), abs=1e-12)


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


@pytest.mark.parametrize(
    "method,K,aux",
    [("double_elision", 5, (3, 3, 2)), ("double_elision", 4, (3, 3, 2)),
     ("double_elision", 5, (2, 2, 1)), ("single_elision", 3, (2, 2, 0))],
)
def test_fast_engine_matches_scalar(lossy7, method, K, aux):
    inst, ktab = lossy7
    cfg = sp.SamplerConfig(N=0, K=K, method=method, aux_orders=aux)
    rng = np.random.default_rng(7)
    for _ in range(25):
        bits = rng.integers(0, 2, 7).astype(np.uint8)
        tables = sp.MarginalTables(ktab, cfg, batch=1)
        tables.run(None, forced=bits[:, None])
        chain = sp.ScalarChain(ktab, cfg)
        chain.run(forced=bits)
        assert tables.pref[7][0] == pytest.approx(chain.pref[7], abs=1e-14)


def test_full_order_joint_probabilities(lossy5):
    inst, dist, ktab = lossy5
    cfg = sp.SamplerConfig(N=0, K=5, method="double_elision", aux_orders=(5, 5, 5))
    for i in range(32):
        bits = [(i >> (4 - k)) & 1 for k in range(5)]
        pj = sp.chain_joint_probability(ktab, bits, cfg)
        assert pj == pytest.approx(dist[i], abs=1e-9)


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


def test_worker_count_invariance(lossy7):
    _, ktab = lossy7
    kw = dict(N=300, K=5, method="double_elision", seed=9)
    b1 = sp.batch_sample(sp.SamplerConfig(workers=1, **kw), kappa=ktab)
    b2 = sp.batch_sample(sp.SamplerConfig(workers=2, **kw), kappa=ktab)
    assert np.array_equal(b1.bitstrings, b2.bitstrings)


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
    assert batch.worker_errors == ["FloatingPointError: chunk 0..32 overflowed"]
    assert batch.n_failed == 32 and batch.N == 96


def test_batch_size_invariance(lossy7):
    _, ktab = lossy7
    kw = dict(N=100, K=5, method="double_elision", seed=9)
    b1 = sp.batch_sample(sp.SamplerConfig(batch_size=7, **kw), kappa=ktab)
    b2 = sp.batch_sample(sp.SamplerConfig(batch_size=64, **kw), kappa=ktab)
    assert np.array_equal(b1.bitstrings, b2.bitstrings)


def test_sample_one_matches_batch(lossy7):
    _, ktab = lossy7
    cfg = sp.SamplerConfig(N=5, K=5, method="double_elision", seed=9)
    batch = sp.batch_sample(cfg, kappa=ktab)
    for i in range(5):
        assert np.array_equal(sp.sample_one(ktab, cfg, index=i), batch.bitstrings[i])


def test_sample_single_elision_wrapper(lossy7):
    # forces the order-3 recursion set regardless of the configured method
    _, ktab = lossy7
    k3 = cu.cumulants_from_correlators(cu.correlator_table(g.vacuum_instance(7), K=3))
    cfg = sp.SamplerConfig(N=1, K=5, method="double_elision", seed=9)
    bits = sp.sample_single_elision(k3, cfg, index=0)
    assert not bits.any()
    direct = sp.sample_one(
        ktab, sp.SamplerConfig(N=1, K=3, method="single_elision", seed=9), index=0
    )
    via_wrapper = sp.sample_single_elision(ktab, sp.SamplerConfig(N=1, K=3, seed=9), index=0)
    assert np.array_equal(direct, via_wrapper)


def test_prefix_monotone_and_conditional_range(lossy7):
    _, ktab = lossy7
    cfg = sp.SamplerConfig(N=0, K=5, method="double_elision")
    tables = sp.MarginalTables(ktab, cfg, batch=16)
    u = np.empty((7, 16))
    for t in range(16):
        u[:, t] = sp._sample_uniforms(3, t, 7)
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


def test_packed_bytes_lsb_first(tmp_path):
    batch = sp.SampleBatch(M=8, N=1, bitstrings=np.array([[1, 0, 0, 0, 0, 0, 1, 0]], dtype=np.uint8),
                           method="x", K=0, seed=0)
    path = tmp_path / "one.gbss"
    sp.save_samples_packed(path, batch)
    body = path.read_bytes()[20:]
    assert body == bytes([0b01000001])


def test_aux_memory_budget():
    # pair-elision history stays within choose(M+1, 3) values at M=144
    from math import comb

    total = sp.aux_values_per_sample(144, "double_elision")
    q2_part = total - sp.aux_values_per_sample(144, "single_elision")
    assert q2_part == comb(145, 3)
    assert sp.aux_values_per_sample(64, "single_elision") < 3 * 64 * 64
