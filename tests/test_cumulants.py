import pickle
from itertools import combinations
from math import comb

import numpy as np
import pytest

from gbsemu import cumulants as cu
from gbsemu import gaussian as g
from gbsemu.benchmark import estimate_correlator
from gbsemu.errors import NumericalError, ResourceGuardError, ValidationError
from gbsemu.subsets import subset_rank, table_size

from oracles import correlator_from_dist, exact_marginal, partition_transform_reference


# --- correlators -----------------------------------------------------------------


def test_vacuum_correlators_are_one():
    vac = g.vacuum_instance(5)
    for S in [(0,), (1, 3), (0, 2, 4)]:
        assert cu.correlator(vac, S) == pytest.approx(1.0)


def test_single_mode_correlator_is_one_minus_2q():
    inst = g.GaussianInstance(sigma=1.8 * np.eye(2), hbar=2.0)
    q = 1.0 - g.vacuum_overlap(inst.sigma, hbar=2.0)
    assert cu.correlator(inst, (0,)) == pytest.approx(1 - 2 * q, abs=1e-12)


def test_correlators_match_brute_force(inst6, dist6):
    for d in range(1, 6):
        for S in combinations(range(6), d):
            oracle = correlator_from_dist(dist6, 6, S)
            assert cu.correlator(inst6, S) == pytest.approx(oracle, abs=1e-9)


def test_correlator_bounded(inst6):
    for d in (1, 3, 5):
        for S in combinations(range(6), d):
            assert abs(cu.correlator(inst6, S)) <= 1 + 1e-10


def test_displaced_correlator_matches_brute_force_single_mode():
    # displaced single-mode: exact click probability via coherent overlap
    alpha = 0.4 + 0.2j
    mu = np.sqrt(2 * 2.0) * np.array([alpha.real, alpha.imag])
    inst = g.GaussianInstance(sigma=np.eye(2), mu=mu, hbar=2.0)
    q = 1.0 - np.exp(-abs(alpha) ** 2)
    assert cu.correlator(inst, (0,)) == pytest.approx(1 - 2 * q, abs=1e-12)


def test_displaced_references_match_exact_law():
    base, _ = g.random_instance(M=5, k=2, eta=0.6, r_max=1.0, seed=5)
    mu = np.random.default_rng(8).normal(0.0, 0.7, 10)
    inst = g.GaussianInstance(sigma=base.sigma, mu=mu, hbar=base.hbar)
    dist = g.brute_force_distribution(inst)
    for d in range(1, 6):
        for S in combinations(range(5), d):
            assert abs(cu.correlator(inst, S) - correlator_from_dist(dist, 5, S)) <= 1e-12
            want = exact_marginal(dist, 5, S, [1] * 5)
            assert abs(cu.moments_from_click_marginals(inst, S) - want) <= 1e-12


@pytest.mark.parametrize("subset", [(0, 6), (-1, 2), (1, 1)])
def test_references_reject_invalid_modes(inst6, subset):
    # a mode >= M, a negative mode and a repeated mode
    with pytest.raises(ValidationError):
        cu.correlator(inst6, subset)
    with pytest.raises(ValidationError):
        cu.moments_from_click_marginals(inst6, subset)


def test_references_of_empty_subset_are_one(inst6):
    assert cu.correlator(inst6, ()) == 1.0
    assert cu.moments_from_click_marginals(inst6, ()) == 1.0


# --- tables ------------------------------------------------------------------------


def test_vacuum_table_and_cumulants():
    ctab = cu.correlator_table(g.vacuum_instance(5), K=3)
    assert np.allclose(ctab.values, 1.0)
    ktab = cu.cumulants_from_correlators(ctab)
    assert np.allclose(ktab.values[:5], 1.0)
    assert np.abs(ktab.values[5:]).max() == 0.0


def test_table_matches_per_subset_calls(inst6, tables6):
    ctab, _ = tables6
    for d in range(1, 6):
        for S in combinations(range(6), d):
            assert abs(ctab.value(S) - cu.correlator(inst6, S)) <= 1e-13


def test_table_worker_determinism(inst6):
    # Phase II runs in one process; repeated runs must agree bit for bit
    t1 = cu.correlator_table(inst6, K=4)
    t2 = cu.correlator_table(inst6, K=4)
    assert np.array_equal(t1.values, t2.values)


def test_memory_guard(inst6, monkeypatch):
    monkeypatch.setenv("GBS_MEM_CAP_BYTES", "16")
    with pytest.raises(ResourceGuardError):
        cu.correlator_table(inst6, K=4)


def test_memory_guard_counts_table_and_inverses(inst6, monkeypatch):
    # P0 values are written into the correlator table itself; beside it the
    # lattice keeps the (2d x 2d) inverses of every subset of order d <= K - 2
    need = 8 * (table_size(6, 4) + 6 * 2**2 + comb(6, 2) * 4**2)
    monkeypatch.setenv("GBS_MEM_CAP_BYTES", str(need - 1))
    with pytest.raises(ResourceGuardError):
        cu.correlator_table(inst6, K=4)
    monkeypatch.setenv("GBS_MEM_CAP_BYTES", str(need))
    assert cu.correlator_table(inst6, K=4).K == 4


def test_table_matches_per_subset_calls_m9_k4():
    inst, _ = g.random_instance(M=9, k=4, eta=0.6, r_max=1.0, seed=21)
    ctab = cu.correlator_table(inst, K=4)
    for d in range(1, 5):
        for S in combinations(range(9), d):
            assert abs(ctab.values[subset_rank(S, 9, 4)] - cu.correlator(inst, S)) <= 1e-13


def test_table_independent_of_chunk_size(monkeypatch):
    inst, _ = g.random_instance(M=9, k=4, eta=0.6, r_max=1.0, seed=21)
    ref = cu.correlator_table(inst, K=4)
    kref = cu.cumulants_from_correlators(ref)
    caps = []
    chunks = cu.colex_chunks

    def spy(M, d, chunk_rows):
        caps.append(chunk_rows)
        return chunks(M, d, chunk_rows)

    monkeypatch.setattr(cu, "colex_chunks", spy)
    monkeypatch.setattr(cu, "_CHUNK_ROWS", 7)
    small = cu.correlator_table(inst, K=4)
    assert np.array_equal(small.values, ref.values)
    assert np.array_equal(cu.cumulants_from_correlators(small).values, kref.values)
    # the lattice's single steps (parents of orders 0 and 1) run 7-row chunks
    # and its two-mode steps 4 * 7 // 9 = 3 parents per chunk; the conversion
    # to correlators and the transform (4 calls each, orders 4..1) ran at the
    # patched size
    assert caps == [7, 7, 3] + [7] * 8


def test_table_matches_per_subset_calls_k5_small_chunks(monkeypatch):
    # 7-row chunks split every order-5 group over many chunks
    monkeypatch.setattr(cu, "_CHUNK_ROWS", 7)
    inst, _ = g.random_instance(M=9, k=4, eta=0.6, r_max=1.0, seed=21)
    ctab = cu.correlator_table(inst, K=5)
    for d in range(1, 6):
        for S in combinations(range(9), d):
            assert abs(ctab.values[subset_rank(S, 9, 5)] - cu.correlator(inst, S)) <= 1e-13


def test_displaced_table_matches_per_subset_calls():
    rng = np.random.default_rng(4)
    base, _ = g.random_instance(M=6, k=3, eta=0.6, r_max=1.0, seed=3)
    inst = g.GaussianInstance(sigma=base.sigma, mu=rng.normal(0.0, 0.7, 12), hbar=2.0)
    ctab = cu.correlator_table(inst, K=4)
    for d in range(1, 5):
        for S in combinations(range(6), d):
            assert abs(ctab.value(S) - cu.correlator(inst, S)) < 1e-12


def _unphysical_pair_instance():
    """Every single-mode block is valid; the shifted block of modes {0, 1} is not positive."""
    inst = g.vacuum_instance(3)
    sigma = np.eye(6)
    sigma[0, 1] = sigma[1, 0] = 3.0  # x0-x1 block of (sigma + hbar/2)/hbar: [[1, 1.5], [1.5, 1]]
    object.__setattr__(inst, "sigma", sigma)
    return inst


@pytest.mark.parametrize("K", [2, 3])
def test_table_rejects_nonpositive_pair_block(K):
    # order 2 comes from a two-mode step at K = 2 and from a one-mode step at K = 3
    inst = _unphysical_pair_instance()
    assert all(g.vacuum_overlap(inst.sigma[np.ix_([k, k + 3], [k, k + 3])]) > 0 for k in range(3))
    with pytest.raises(NumericalError, match=r"modes \(0, 1\)"):
        cu.correlator_table(inst, K=K)


@pytest.mark.parametrize("displaced", [False, True])
def test_lattice_matches_determinants(displaced):
    inst, _ = g.random_instance(M=9, k=4, eta=0.6, r_max=1.0, seed=21)
    if displaced:
        mu = np.random.default_rng(4).normal(0.0, 0.7, 18)
        inst = g.GaussianInstance(sigma=inst.sigma, mu=mu, hbar=inst.hbar)
    got = np.empty(table_size(9, 4))
    cu._no_click_lattice(inst, 4, got)
    for d in range(1, 5):
        rows = np.array(list(combinations(range(9), d)))
        want = g._no_click_probabilities(inst.sigma, inst.mu, inst.hbar, rows)
        ranks = [subset_rank(tuple(r), 9, 4) for r in rows]
        assert np.all(np.abs(got[ranks] - want) <= 1e-13 * want)


def test_table_rejects_nonpositive_determinant():
    inst = g.vacuum_instance(3)
    sigma = np.eye(6)
    sigma[1, 1] = -3.0  # unphysical: (sigma_1 + hbar/2) has a negative determinant
    object.__setattr__(inst, "sigma", sigma)
    with pytest.raises(NumericalError):
        cu.correlator_table(inst, K=2)


# --- empirical correlators ------------------------------------------------------------


def _bit_arrays():
    rng = np.random.default_rng(12)
    arrays = {
        "random": (rng.random((1003, 7)) < rng.uniform(0.1, 0.7, size=7)).astype(np.uint8),
        "zeros": np.zeros((1003, 7), dtype=np.uint8),
        "ones": np.ones((1003, 7), dtype=np.uint8),
    }
    # sample counts around whole 64-bit words, where the last word's padding matters
    for N in (1, 63, 64, 65, 129):
        arrays[f"n{N}"] = (rng.random((N, 7)) < 0.5).astype(np.uint8)
    return arrays


@pytest.mark.parametrize("name", ["random", "zeros", "ones", "n1", "n63", "n64", "n65", "n129"])
def test_empirical_table_matches_estimate_correlator(name):
    arr = _bit_arrays()[name]
    tab = cu.empirical_correlator_table(arr, K=4)
    assert tab.kind == "correlator" and tab.K == 4
    for d in range(1, 5):
        for S in combinations(range(7), d):
            assert tab.values[subset_rank(S, 7, 4)] == estimate_correlator(arr, S)


def test_empirical_table_independent_of_chunk_size(monkeypatch):
    arr = _bit_arrays()["random"]
    ref = cu.empirical_correlator_table(arr, K=4)
    caps = []
    chunks = cu.colex_chunks

    def spy(M, d, chunk_rows):
        caps.append(chunk_rows)
        return chunks(M, d, chunk_rows)

    monkeypatch.setattr(cu, "colex_chunks", spy)
    for limit in (1, 300, 1000):
        monkeypatch.setattr(cu, "_PACKED_CHUNK_BYTES", limit)
        caps.clear()
        assert np.array_equal(cu.empirical_correlator_table(arr, K=4).values, ref.values)
        # packed bits per chunk: rows times ceil(N / 64) 8-byte words, one call per order
        assert len(caps) == 4 and all(cap * 128 <= max(limit, 128) for cap in caps)


def test_empirical_table_rejects_bad_input():
    with pytest.raises(ValidationError):
        cu.empirical_correlator_table(np.zeros(5, dtype=np.uint8), K=1)
    with pytest.raises(ValidationError):
        cu.empirical_correlator_table(np.zeros((0, 3), dtype=np.uint8), K=1)
    with pytest.raises(ValidationError):
        cu.empirical_correlator_table(np.zeros((4, 3), dtype=np.uint8), K=4)


# --- cumulant transforms --------------------------------------------------------------


def test_order2_cumulant_identity(tables6):
    ctab, ktab = tables6
    for S in combinations(range(6), 2):
        expect = ctab.value(S) - ctab.value((S[0],)) * ctab.value((S[1],))
        assert ktab.value(S) == pytest.approx(expect, abs=1e-14)


def test_roundtrip_real_instance(tables6):
    ctab, ktab = tables6
    back = cu.correlators_from_cumulants(ktab)
    assert np.abs(back.values - ctab.values).max() < 1e-12


def test_transform_matches_per_subset_reference_k5():
    inst, _ = g.random_instance(M=9, k=4, eta=0.6, r_max=1.0, seed=21)
    ctab = cu.correlator_table(inst, K=5)
    ktab = cu.cumulants_from_correlators(ctab)
    back = cu.correlators_from_cumulants(ktab)
    for d in range(1, 6):
        for S in combinations(range(9), d):
            assert ktab.value(S) == partition_transform_reference(ctab, S, use_weights=True)
            assert back.value(S) == partition_transform_reference(ktab, S, use_weights=False)


def test_roundtrip_random_tables():
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1, 1, table_size(6, 5))
    ctab = cu.SubsetTable(M=6, K=5, values=vals, kind="correlator")
    rt = cu.correlators_from_cumulants(cu.cumulants_from_correlators(ctab))
    assert np.abs(rt.values - vals).max() < 1e-12
    ktab = cu.SubsetTable(M=6, K=5, values=vals, kind="cumulant")
    rt2 = cu.cumulants_from_correlators(cu.correlators_from_cumulants(ktab))
    assert np.abs(rt2.values - vals).max() < 1e-12


def test_independent_modes_product_form():
    rng = np.random.default_rng(5)
    M = 5
    k1 = rng.uniform(-0.9, 0.9, M)
    vals = np.zeros(table_size(M, 3))
    vals[:M] = k1
    ktab = cu.SubsetTable(M=M, K=3, values=vals, kind="cumulant")
    ctab = cu.correlators_from_cumulants(ktab)
    for d in (2, 3):
        for S in combinations(range(M), d):
            assert ctab.value(S) == pytest.approx(np.prod(k1[list(S)]), abs=1e-14)


def test_order3_hand_expansion():
    rng = np.random.default_rng(8)
    vals = rng.uniform(-1, 1, table_size(3, 3))
    ktab = cu.SubsetTable(M=3, K=3, values=vals, kind="cumulant")
    ctab = cu.correlators_from_cumulants(ktab)
    k = ktab.value
    expect = (
        k((0, 1, 2))
        + k((0,)) * k((1, 2))
        + k((1,)) * k((0, 2))
        + k((2,)) * k((0, 1))
        + k((0,)) * k((1,)) * k((2,))
    )
    assert ctab.value((0, 1, 2)) == pytest.approx(expect, abs=1e-14)


# --- recursion residual -----------------------------------------------------------------


def test_residual_empty_prefix(tables6):
    ctab, ktab = tables6
    assert cu.cumulant_recursion_residual(ctab, ktab, (), 4) == pytest.approx(0.0, abs=1e-14)


def test_residual_vacuum():
    ctab = cu.correlator_table(g.vacuum_instance(5), K=4)
    ktab = cu.cumulants_from_correlators(ctab)
    for Sp in [(0,), (1, 2), (0, 2, 3)]:
        assert cu.cumulant_recursion_residual(ctab, ktab, Sp, 4) == pytest.approx(0.0, abs=1e-14)


def test_residual_random_instance():
    inst, _ = g.random_instance(M=7, k=3, eta=0.5, r_max=1.0, seed=13)
    ctab = cu.correlator_table(inst, K=5)
    ktab = cu.cumulants_from_correlators(ctab)
    for size in range(5):
        for Sp in combinations(range(6), size):
            res = cu.cumulant_recursion_residual(ctab, ktab, Sp, 6)
            assert abs(res) < 1e-12


def test_residual_requires_new_index(tables6):
    ctab, ktab = tables6
    with pytest.raises(ValidationError):
        cu.cumulant_recursion_residual(ctab, ktab, (1, 2), 2)


# --- click moments -----------------------------------------------------------------------


def test_moments_vacuum():
    vac = g.vacuum_instance(4)
    for S in [(0,), (1, 2)]:
        assert cu.moments_from_click_marginals(vac, S) == pytest.approx(0.0, abs=1e-12)


def test_moment_single_mode_click_probability():
    inst = g.GaussianInstance(sigma=1.6 * np.eye(2), hbar=2.0)
    q = 1.0 - g.vacuum_overlap(inst.sigma, hbar=2.0)
    assert cu.moments_from_click_marginals(inst, (0,)) == pytest.approx(q, abs=1e-12)


def test_moment_guard(inst6):
    with pytest.raises(ResourceGuardError):
        cu.moments_from_click_marginals(g.vacuum_instance(13), range(13))


def test_correlator_from_moments_expansion(inst6):
    # c(S) = sum over R of (-2)^|R| * E[prod_{k in R} X_k]
    for S in [(0, 2), (1, 3, 5), (0, 1, 2, 4)]:
        total = 1.0
        for r in range(1, len(S) + 1):
            for R in combinations(S, r):
                total += (-2.0) ** r * cu.moments_from_click_marginals(inst6, R)
        assert total == pytest.approx(cu.correlator(inst6, S), abs=1e-10)


def test_click_cumulant_order1_and_2(inst6):
    q0 = cu.moments_from_click_marginals(inst6, (0,))
    assert cu.click_cumulant(inst6, (0,)) == pytest.approx(q0)
    m01 = cu.moments_from_click_marginals(inst6, (0, 1))
    q1 = cu.moments_from_click_marginals(inst6, (1,))
    assert cu.click_cumulant(inst6, (0, 1)) == pytest.approx(m01 - q0 * q1, abs=1e-12)


def test_click_cumulants_from_table_match_oracle():
    M, K = 8, 4
    inst, _ = g.random_instance(M=M, k=4, eta=0.6, r_max=1.0, seed=17)
    click = cu.click_cumulants_from_cumulants(
        cu.cumulants_from_correlators(cu.correlator_table(inst, K=K))
    )
    for d in range(1, K + 1):
        for S in combinations(range(M), d):
            assert abs(click[subset_rank(S, M, K)] - cu.click_cumulant(inst, S)) < 1e-12


# --- binary container ------------------------------------------------------------------------


def test_table_io_roundtrip(tmp_path, tables6):
    ctab, ktab = tables6
    for tab, name in ((ctab, "t.gbsc"), (ktab, "t.gbsk")):
        path = tmp_path / name
        cu.save_table(tab, path)
        back = cu.load_table(path)
        assert back.kind == tab.kind
        assert back.M == tab.M and back.K == tab.K
        assert np.array_equal(back.values, tab.values)


def test_unpickled_table_is_read_only(tmp_path, tables6):
    _, ktab = tables6
    cu.save_table(ktab, tmp_path / "t.gbsk")
    back = pickle.loads(pickle.dumps(cu.load_table(tmp_path / "t.gbsk")))
    assert (back.M, back.K, back.kind) == (ktab.M, ktab.K, ktab.kind)
    assert np.array_equal(back.values, ktab.values)
    assert not back.values.flags.writeable
    with pytest.raises(ValueError):
        back.values[0] = 1.0


def test_table_io_checksum_detects_corruption(tmp_path, tables6):
    _, ktab = tables6
    path = tmp_path / "t.gbsk"
    cu.save_table(ktab, path)
    data = bytearray(path.read_bytes())
    data[40] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ValidationError):
        cu.load_table(path)


def test_table_io_bad_magic(tmp_path):
    path = tmp_path / "bad.gbsk"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValidationError):
        cu.load_table(path)


def test_table_resave_byte_identical(tmp_path, tables6):
    _, ktab = tables6
    p1, p2 = tmp_path / "a.gbsk", tmp_path / "b.gbsk"
    cu.save_table(ktab, p1)
    cu.save_table(cu.load_table(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
