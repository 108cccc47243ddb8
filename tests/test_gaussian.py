import json

import numpy as np
import pytest

from gbsemu import gaussian as g
from gbsemu.errors import NumericalError, ResourceGuardError, ValidationError

from oracles import exact_marginal, per_outcome_distribution

HBAR = 2.0


# --- input covariance --------------------------------------------------------


def test_zero_squeezing_is_vacuum():
    inst = g.build_input_covariance([0.0], hbar=HBAR)
    assert np.allclose(inst.sigma, np.eye(4))


def test_single_pair_blocks():
    s = 0.7
    inst = g.build_input_covariance([s], hbar=HBAR)
    c, sh = np.cosh(s), np.sinh(s)
    x = inst.sigma[:2, :2]
    p = inst.sigma[2:, 2:]
    assert np.allclose(x, [[c, sh], [sh, c]])
    assert np.allclose(p, [[c, -sh], [-sh, c]])
    assert np.allclose(inst.sigma[:2, 2:], 0.0)


def test_two_pairs_assemble_from_singles():
    r = [0.5, 1.0]
    inst = g.build_input_covariance(r, hbar=HBAR)
    for j, rj in enumerate(r):
        single = g.build_input_covariance([rj], hbar=HBAR)
        sub = g.reduce_modes(inst, [2 * j, 2 * j + 1])
        assert np.allclose(sub.sigma, single.sigma)


def test_negative_squeezing_rejected():
    with pytest.raises(ValidationError):
        g.build_input_covariance([-0.1])


# --- transmission embedding ---------------------------------------------------


def test_embed_identity():
    assert np.allclose(g.embed_transmission(np.eye(3)), np.eye(6))


def test_embed_imaginary_identity():
    V = g.embed_transmission(1j * np.eye(2))
    eye = np.eye(2)
    expect = np.block([[0 * eye, -eye], [eye, 0 * eye]])
    assert np.allclose(V, expect)


def test_embed_unitary_is_orthogonal():
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    U, _ = np.linalg.qr(Z)
    V = g.embed_transmission(U)
    assert np.abs(V @ V.T - np.eye(10)).max() < 1e-10


def test_embed_bad_shape():
    with pytest.raises(ValidationError):
        g.embed_transmission(np.zeros(3))


# --- ground truth covariance ---------------------------------------------------


def test_loss_on_vacuum_is_vacuum():
    vac = g.vacuum_instance(4, HBAR)
    T = 0.6 * np.eye(4)
    out = g.ground_truth_covariance(vac, g.embed_transmission(T))
    assert np.allclose(out.sigma, np.eye(8))


def test_full_loss_gives_vacuum():
    inst = g.build_input_covariance([1.0], hbar=HBAR)
    out = g.ground_truth_covariance(inst, g.embed_transmission(np.zeros((2, 2))))
    assert np.allclose(out.sigma, np.eye(4))


def test_tmsv_through_identity_vacuum_probability():
    # conventional squeezing s corresponds to builder parameter 2s
    for s in (0.3, 0.8):
        inst = g.build_input_covariance([2 * s], hbar=HBAR)
        out = g.ground_truth_covariance(inst, g.embed_transmission(np.eye(2)))
        p00 = g.exact_probability(out, [0, 0])
        assert p00 == pytest.approx(1.0 / np.cosh(s) ** 2, abs=1e-12)


# --- reduction -----------------------------------------------------------------


def test_reduce_full_set_identity(inst6):
    red = g.reduce_modes(inst6, range(6))
    assert np.allclose(red.sigma, inst6.sigma)


def test_reduce_vacuum():
    red = g.reduce_modes(g.vacuum_instance(5), [1, 3])
    assert np.allclose(red.sigma, np.eye(4))


def test_reduce_tmsv_is_thermal():
    s = 0.6
    inst = g.build_input_covariance([2 * s], hbar=HBAR)
    red = g.reduce_modes(inst, [0])
    assert np.allclose(red.sigma, np.cosh(2 * s) * np.eye(2))


def test_reduce_out_of_range():
    with pytest.raises(ValidationError):
        g.reduce_modes(g.vacuum_instance(3), [3])
    with pytest.raises(ValidationError):
        g.reduce_modes(g.vacuum_instance(3), [])


# --- vacuum overlap -------------------------------------------------------------


def test_overlap_vacuum_is_one():
    assert g.vacuum_overlap(np.eye(4), hbar=HBAR) == pytest.approx(1.0)


def test_overlap_single_mode_squeezed():
    r = 0.8
    sigma = np.diag([np.exp(2 * r), np.exp(-2 * r)])
    assert g.vacuum_overlap(sigma, hbar=HBAR) == pytest.approx(1 / np.cosh(r), abs=1e-12)


def test_overlap_coherent():
    alpha = 0.3 + 0.4j
    mu = np.sqrt(2 * HBAR) * np.array([alpha.real, alpha.imag])
    val = g.vacuum_overlap(np.eye(2), mu, hbar=HBAR)
    assert val == pytest.approx(np.exp(-abs(alpha) ** 2), abs=1e-12)


def test_overlap_in_unit_interval(inst6):
    rng = np.random.default_rng(0)
    for _ in range(20):
        size = rng.integers(1, 6)
        S = sorted(rng.choice(6, size=size, replace=False))
        red = g.reduce_modes(inst6, S)
        val = g.vacuum_overlap(red.sigma, red.mu, red.hbar)
        assert 0.0 <= val <= 1.0


# --- Husimi form ----------------------------------------------------------------


def test_husimi_vacuum():
    form = g.husimi_form(g.vacuum_instance(3))
    assert np.abs(form.Sigma - np.eye(6)).max() < 1e-12
    assert np.abs(form.O).max() < 1e-12
    assert form.det_sigma == pytest.approx(1.0)


def test_husimi_thermal_mode():
    nbar = 0.7
    inst = g.GaussianInstance(sigma=(2 * nbar + 1) * np.eye(2), hbar=HBAR)
    form = g.husimi_form(inst)
    assert np.allclose(form.O, (nbar / (nbar + 1)) * np.eye(2))


def test_husimi_inverse_residual():
    for seed in range(4):
        inst, _ = g.random_instance(M=5, k=2, eta=0.8, r_max=1.2, seed=seed)
        form = g.husimi_form(inst)
        resid = np.abs(form.Sigma @ (np.eye(10) - form.O) - np.eye(10)).max()
        assert resid < 1e-9


# --- torontonian ----------------------------------------------------------------


def test_torontonian_empty():
    assert g.torontonian(np.zeros((0, 0))) == pytest.approx(1.0)


def test_torontonian_vacuum_never_clicks():
    assert g.torontonian(np.zeros((2, 2))) == pytest.approx(0.0)


def test_torontonian_half_diagonal():
    assert g.torontonian(np.diag([0.5, 0.5])) == pytest.approx(-1.0)


def test_torontonian_hermitian_real(inst6):
    form = g.husimi_form(inst6)
    val = g.torontonian(form.O)
    assert abs(val.imag) < 1e-10


def test_torontonian_bad_shape():
    with pytest.raises(ValidationError):
        g.torontonian(np.zeros((3, 3)))


# --- exact probabilities ---------------------------------------------------------


def test_vacuum_outcomes():
    vac = g.vacuum_instance(3)
    assert g.exact_probability(vac, [0, 0, 0]) == pytest.approx(1.0)
    assert g.exact_probability(vac, [0, 1, 0]) == pytest.approx(0.0)


def test_normalization_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(5):
        M = int(rng.integers(2, 7))
        k = int(rng.integers(1, M // 2 + 1))
        inst, _ = g.random_instance(M, k, eta=float(rng.uniform(0.3, 1.0)),
                                    r_max=1.2, seed=100 + trial)
        dist = g.brute_force_distribution(inst)
        assert abs(dist.sum() - 1.0) < 1e-8
        assert dist.min() > -1e-10


def test_brute_force_vacuum():
    dist = g.brute_force_distribution(g.vacuum_instance(3))
    expect = np.zeros(8)
    expect[0] = 1.0
    assert np.allclose(dist, expect)


def test_brute_force_matches_pointwise(inst6):
    dist = g.brute_force_distribution(inst6)
    for i in (0, 5, 21, 63):
        bits = [(i >> (5 - k)) & 1 for k in range(6)]
        assert dist[i] == g.exact_probability(inst6, bits)


@pytest.fixture(scope="module")
def per_outcome10():
    inst, _ = g.random_instance(10, 4, eta=0.6, r_max=1.2, seed=17)
    return inst, per_outcome_distribution(inst)


def test_brute_force_equals_per_outcome_m10(per_outcome10):
    inst, expect = per_outcome10
    assert np.array_equal(g.brute_force_distribution(inst), expect)


def test_brute_force_independent_of_chunk_size(per_outcome10, monkeypatch):
    inst, expect = per_outcome10
    monkeypatch.setattr(g, "_CHUNK_ENTRIES", 7)
    assert np.array_equal(g.brute_force_distribution(inst), expect)


def test_brute_force_matches_scalar_torontonian(per_outcome10):
    # the torontonian's alternating sum over the Husimi matrix, one outcome at a time
    inst, _ = per_outcome10
    form = g.husimi_form(inst)
    dist = g.brute_force_distribution(inst)
    for i, bits in enumerate(g.outcome_bits(np.arange(2**10), 10)):
        clicked = np.flatnonzero(bits)
        idx = np.concatenate([clicked, clicked + 10])
        val = (-1) ** clicked.size * g.torontonian(form.O[np.ix_(idx, idx)]) / form.sqrt_det
        assert abs(dist[i] - val.real) <= 1e-11


def test_brute_force_m16_before_clamp():
    inst, _ = g.random_instance(16, 4, 0.5, 1.0, seed=1)
    raw = g._click_table(inst, np.arange(0), np.arange(16))
    assert raw.min() >= -1e-12
    assert abs(g.brute_force_distribution(inst).sum() - 1.0) <= 1e-8


@pytest.mark.parametrize("entry, value", [((0, 1), 1.0), ((0, 0), 2.0)])
def test_brute_force_rejects_bad_determinant(entry, value):
    # sigma = 0 apart from the x-block entries set here, so the shifted
    # covariance sigma + hbar/2 is singular for the modes {0, 1}
    # (sigma[0, 1] = sigma[1, 0] = -1), or has a negative determinant for
    # {0} and {0, 1} (sigma[0, 0] = -2); every other subset is regular
    inst = g.vacuum_instance(2)
    sigma = np.zeros((4, 4))
    sigma[entry] = sigma[entry[::-1]] = -value
    object.__setattr__(inst, "sigma", sigma)
    with pytest.raises(NumericalError, match=r"modes \(0,"):
        g.brute_force_distribution(inst)
    with pytest.raises(NumericalError, match=r"modes \(0,"):
        g.exact_probability(inst, [1, 1])


def test_displaced_pointwise_matches_distribution():
    base, _ = g.random_instance(6, 2, 0.5, 1.0, seed=1)
    mu = np.random.default_rng(3).normal(0.0, 0.7, 12)
    inst = g.GaussianInstance(sigma=base.sigma, mu=mu, hbar=HBAR)
    dist = g.brute_force_distribution(inst)
    for i, bits in enumerate(g.outcome_bits(np.arange(64), 6)):
        assert dist[i] == g.exact_probability(inst, bits)


def test_coherent_product_law():
    # coherent states |alpha_k> (vacuum covariance, mean sqrt(2 hbar) (Re, Im)):
    # mode k stays dark with probability exp(-|alpha_k|^2), independently
    alpha = np.array([0.4 + 0.2j, -0.7j, 1.1, 0.25 - 0.5j])
    mu = np.sqrt(2 * HBAR) * np.concatenate([alpha.real, alpha.imag])
    inst = g.GaussianInstance(sigma=np.eye(8), mu=mu, hbar=HBAR)
    p0 = np.exp(-np.abs(alpha) ** 2)
    bits = g.outcome_bits(np.arange(16), 4)
    expect = np.prod(np.where(bits == 1, 1.0 - p0, p0), axis=1)
    assert np.abs(g.brute_force_distribution(inst) - expect).max() <= 1e-14


def test_brute_force_guard():
    with pytest.raises(ResourceGuardError):
        g.brute_force_distribution(g.vacuum_instance(21))


def test_monotone_loss():
    # more loss -> higher probability of the all-zeros outcome
    rng = np.random.default_rng(21)
    for trial in range(20):
        M = int(rng.integers(2, 6))
        k = int(rng.integers(1, M // 2 + 1))
        eta = float(rng.uniform(0.3, 0.9))
        seed = 500 + trial
        lo, _ = g.random_instance(M, k, eta=eta * 0.5, r_max=1.0, seed=seed)
        hi, _ = g.random_instance(M, k, eta=eta, r_max=1.0, seed=seed)
        p_lo = g.exact_probability(lo, [0] * M)
        p_hi = g.exact_probability(hi, [0] * M)
        assert p_lo >= p_hi - 1e-12


def test_reduce_matches_marginal(inst6, dist6):
    rng = np.random.default_rng(4)
    for _ in range(6):
        size = int(rng.integers(1, 5))
        S = sorted(int(x) for x in rng.choice(6, size=size, replace=False))
        red = g.reduce_modes(inst6, S)
        bits_red = rng.integers(0, 2, size=size)
        p_red = g.exact_probability(red, bits_red)
        full_bits = np.zeros(6, dtype=int)
        for pos, k in enumerate(S):
            full_bits[k] = bits_red[pos]
        marg = exact_marginal(dist6, 6, S, full_bits)
        assert p_red == pytest.approx(marg, abs=1e-8)


# --- random instances and files ---------------------------------------------------


def test_random_instance_low_eta_is_near_vacuum():
    inst, _ = g.random_instance(M=4, k=2, eta=1e-9, r_max=1.0, seed=0)
    assert np.abs(inst.sigma - np.eye(8)).max() < 1e-6


def test_random_instance_deterministic():
    a, sa = g.random_instance(M=5, k=2, eta=0.5, r_max=1.0, seed=9)
    b, sb = g.random_instance(M=5, k=2, eta=0.5, r_max=1.0, seed=9)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(sa.T, sb.T)
    assert np.array_equal(sa.r, sb.r)


def test_random_instance_full_transmission_orthogonal():
    _, spec = g.random_instance(M=6, k=3, eta=1.0, r_max=1.0, seed=2)
    V = g.embed_transmission(spec.T)
    assert np.abs(V @ V.T - np.eye(12)).max() < 1e-9


def test_random_instance_guards():
    with pytest.raises(ValidationError):
        g.random_instance(M=3, k=2, eta=0.5, r_max=1.0, seed=0)
    with pytest.raises(ValidationError):
        g.random_instance(M=4, k=1, eta=0.0, r_max=1.0, seed=0)
    with pytest.raises(ValidationError):
        g.random_instance(M=4, k=0, eta=0.5, r_max=1.0, seed=0)
    with pytest.raises(ValidationError):
        g.vacuum_instance(0)


def test_instance_file_roundtrip(tmp_path, inst6):
    path = tmp_path / "cov.json"
    g.save_instance(path, inst=inst6)
    back = g.load_instance(path)
    assert np.allclose(back.sigma, inst6.sigma)

    _, spec = g.random_instance(M=4, k=2, eta=0.7, r_max=0.9, seed=5)
    path2 = tmp_path / "jz.json"
    g.save_instance(path2, spec=spec)
    back2 = g.load_instance(path2)
    direct = g.instance_from_jiuzhang(spec)
    assert np.allclose(back2.sigma, direct.sigma)


def test_instance_file_exactly_one_form(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"hbar": 2.0, "M": 1, "sigma": [[1, 0], [0, 1]],
                                "r": [0.1], "T_re": [[1]], "T_im": [[0]]}))
    with pytest.raises(ValidationError):
        g.load_instance(path)


def test_overlap_above_one_rejected():
    # tighter-than-vacuum diagonal drives the overlap above 1
    with pytest.raises(NumericalError):
        g.vacuum_overlap(0.5 * np.eye(2), hbar=2.0)


def test_overlap_singular_input_rejected():
    sigma = np.diag([-1.0, 1.0])  # sigma + (hbar/2) I singular
    with pytest.raises(NumericalError):
        g.vacuum_overlap(sigma, hbar=2.0)


def test_overlap_rejects_non_2n_square_input():
    for sigma in (np.eye(3), np.ones((2, 4)), np.ones(4)):
        with pytest.raises(ValidationError):
            g.vacuum_overlap(sigma, hbar=2.0)


def test_torontonian_singular_block_rejected():
    with pytest.raises(NumericalError):
        g.torontonian(np.eye(2))


def test_unphysical_covariance_rejected():
    with pytest.raises(ValidationError):
        g.GaussianInstance(sigma=0.1 * np.eye(4), hbar=HBAR)
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(ValidationError):
        g.GaussianInstance(sigma=bad, hbar=HBAR)


def test_outcome_codes_roundtrip():
    # mode 0 is the most significant bit of the outcome index
    bits = np.array([[1, 0, 0], [0, 0, 1], [1, 1, 0]], dtype=np.uint8)
    codes = g.outcome_codes(bits)
    assert codes.tolist() == [4, 1, 6]
    assert np.array_equal(g.outcome_bits(codes, 3), bits)
    every = np.arange(2**5)
    assert np.array_equal(g.outcome_codes(g.outcome_bits(every, 5)), every)
