import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbsemu import cli
from gbsemu import cumulants as cu
from gbsemu import gaussian as g
from gbsemu.sampler import load_samples
from gbsemu.subsets import table_size


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    manifest = json.loads(out.out) if out.out.strip() else None
    return code, manifest, out.err


def test_gen_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, man, _ = run_cli(
        capsys, "gen-instance", "--modes", "8", "--squeezers", "4",
        "--eta", "0.5", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    inst = g.load_instance(out)
    assert inst.M == 8
    assert str(out) in man["outputs"]


@pytest.mark.parametrize("eta", ["0", "-0.5", "1.5"])
def test_gen_instance_eta_zero_rejected(tmp_path, capsys, eta):
    # random_instance rejects eta outside (0, 1], naming it
    code, _, err = run_cli(
        capsys, "gen-instance", "--modes", "4", "--squeezers", "2",
        "--eta", eta, "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "eta" in err


def test_gen_instance_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run_cli(capsys, "gen-instance", "--modes", "6", "--squeezers", "3",
                "--eta", "0.7", "--seed", "3", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture()
def instance_file(tmp_path, capsys):
    out = tmp_path / "inst.json"
    run_cli(capsys, "gen-instance", "--modes", "6", "--squeezers", "3",
            "--eta", "0.6", "--seed", "11", "--out", str(out))
    return out


def test_precompute(tmp_path, capsys, instance_file):
    table = tmp_path / "table.gbsk"
    code, man, _ = run_cli(
        capsys, "precompute", "--instance", str(instance_file),
        "--order", "4", "--out", str(table),
    )
    assert code == 0
    assert man["phase1_s"] >= 0 and man["phase2_s"] > 0
    assert man["transform_s"] > 0 and man["save_s"] > 0
    ktab = cu.load_table(table)
    assert ktab.kind == "cumulant" and ktab.K == 4
    ctab = cu.load_table(table.with_suffix(".gbsc"))
    assert ctab.kind == "correlator"


def _set_first(payload, key, value):
    payload[key][0][0] = value


_NON_FINITE_INSTANCES = {
    "nan_sigma": lambda p: _set_first(p, "sigma", float("nan")),
    "inf_sigma": lambda p: _set_first(p, "sigma", float("inf")),
    "nan_mu": lambda p: p.update(mu=[float("nan")] + [0.0] * (2 * p["M"] - 1)),
    "nan_hbar": lambda p: p.update(hbar=float("nan")),
    "inf_hbar": lambda p: p.update(hbar=float("inf")),
}


def _precompute_edited_instance(tmp_path, capsys, edit):
    """precompute on a 4-mode covariance file whose payload `edit` changed; no table may appear."""
    inst, _ = g.random_instance(4, 2, eta=0.5, r_max=1.0, seed=1)
    payload = {"hbar": inst.hbar, "M": inst.M, "sigma": inst.sigma.tolist()}
    edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "precompute", "--instance", str(path),
                           "--order", "2", "--out", str(tmp_path / "t.gbsk"))
    assert not (tmp_path / "t.gbsk").exists()
    return code, err


@pytest.mark.parametrize("name", list(_NON_FINITE_INSTANCES))
def test_precompute_non_finite_instance_exit_2(tmp_path, capsys, name):
    code, err = _precompute_edited_instance(tmp_path, capsys, _NON_FINITE_INSTANCES[name])
    assert code == 2
    assert "finite" in err


def test_precompute_non_finite_transmission_exit_2(tmp_path, capsys, instance_file):
    payload = json.loads(instance_file.read_text())
    payload["T_re"][0][0] = float("nan")
    path = tmp_path / "nan_t.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "precompute", "--instance", str(path),
                           "--order", "2", "--out", str(tmp_path / "t.gbsk"))
    assert code == 2
    assert "finite" in err


def _squeezer_form(p):
    _, spec = g.random_instance(4, 2, eta=0.5, r_max=1.0, seed=1)
    del p["sigma"]
    p.update(r=spec.r.tolist(), T_re=spec.T.real.tolist(), T_im=spec.T.imag.tolist())
    return p


_MALFORMED_INSTANCES = {
    "M_string": lambda p: p.update(M="abc"),
    "M_fraction": lambda p: p.update(M=p["M"] + 0.7),
    "hbar_string": lambda p: p.update(hbar="x"),
    "sigma_string": lambda p: p.update(sigma="abc"),
    "sigma_ragged": lambda p: p["sigma"][0].pop(),
    "mu_string": lambda p: p.update(mu=["a"] + [0.0] * (2 * p["M"] - 1)),
    "T_im_missing": lambda p: _squeezer_form(p).pop("T_im"),
    "T_im_one_row": lambda p: _squeezer_form(p).update(T_im=[[0.0] * p["M"]]),
    # JSON booleans are not numbers, though numpy reads true as 1.0
    "hbar_true": lambda p: p.update(hbar=True),
    "sigma_bool": lambda p: p.update(sigma=np.eye(2 * p["M"], dtype=bool).tolist()),
    "mu_bool": lambda p: p.update(mu=[True] + [0.0] * (2 * p["M"] - 1)),
    "r_bool": lambda p: _squeezer_form(p).update(r=[True] * len(p["r"])),
    "T_re_bool": lambda p: _set_first(_squeezer_form(p), "T_re", False),
    "T_im_bool": lambda p: _set_first(_squeezer_form(p), "T_im", False),
}


@pytest.mark.parametrize("name", list(_MALFORMED_INSTANCES))
def test_precompute_malformed_instance_exit_2(tmp_path, capsys, name):
    code, err = _precompute_edited_instance(tmp_path, capsys, _MALFORMED_INSTANCES[name])
    assert code == 2
    assert err.startswith("error: ")


def test_precompute_count_field(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    run_cli(capsys, "gen-instance", "--modes", "10", "--squeezers", "5",
            "--eta", "0.5", "--seed", "1", "--out", str(inst_path))
    table = tmp_path / "t.gbsk"
    code, man, _ = run_cli(capsys, "precompute", "--instance", str(inst_path),
                           "--order", "4", "--out", str(table))
    assert code == 0
    assert man["entries"] == 385


def test_precompute_vacuum_cumulants(tmp_path, capsys):
    inst_path = tmp_path / "v.json"
    g.save_instance(inst_path, inst=g.vacuum_instance(5))
    table = tmp_path / "v.gbsk"
    code, _, _ = run_cli(capsys, "precompute", "--instance", str(inst_path),
                         "--order", "3", "--out", str(table))
    assert code == 0
    ktab = cu.load_table(table)
    assert np.abs(ktab.values[5:]).max() == 0.0


def test_precompute_reload_resave_identical(tmp_path, capsys, instance_file):
    t1, t2 = tmp_path / "t1.gbsk", tmp_path / "t2.gbsk"
    run_cli(capsys, "precompute", "--instance", str(instance_file), "--order", "3", "--out", str(t1))
    run_cli(capsys, "precompute", "--instance", str(instance_file), "--order", "3", "--out", str(t2))
    assert t1.read_bytes() == t2.read_bytes()
    cu.save_table(cu.load_table(t1), t2)
    assert t1.read_bytes() == t2.read_bytes()


def test_precompute_memory_guard(tmp_path, capsys, instance_file, monkeypatch):
    monkeypatch.setenv("GBS_MEM_CAP_BYTES", "64")
    code, _, err = run_cli(capsys, "precompute", "--instance", str(instance_file),
                           "--order", "4", "--out", str(tmp_path / "t.gbsk"))
    assert code == 3
    assert "cap" in err


def test_precompute_memory_guard_counts_three_tables(tmp_path, capsys, monkeypatch):
    # the one pass holds P0, the correlators and the cumulants at once; at
    # M=12, K=3 those three tables outweigh P0 beside the lattice's inverses
    inst = tmp_path / "inst.json"
    run_cli(capsys, "gen-instance", "--modes", "12", "--squeezers", "3", "--eta", "0.6",
            "--out", str(inst))
    need = 8 * 3 * table_size(12, 3)
    for cap, code in ((need - 1, 3), (need, 0)):
        monkeypatch.setenv("GBS_MEM_CAP_BYTES", str(cap))
        got, _, err = run_cli(capsys, "precompute", "--instance", str(inst), "--order", "3",
                              "--out", str(tmp_path / "t.gbsk"))
        assert got == code, err


def test_precompute_nonpositive_pair_block_exit_4(tmp_path, capsys, monkeypatch):
    # every single-mode block is valid, the shifted block of modes {0, 1} is not;
    # the uncertainty check is switched off so that the instance reaches Phase II
    monkeypatch.setattr(g, "UNCERTAINTY_TOL", np.inf)
    sigma = np.eye(6)
    sigma[0, 1] = sigma[1, 0] = 3.0
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"hbar": 2.0, "M": 3, "sigma": sigma.tolist()}))
    code, _, err = run_cli(capsys, "precompute", "--instance", str(path),
                           "--order", "2", "--out", str(tmp_path / "t.gbsk"))
    assert code == 4
    assert "modes (0, 1)" in err
    assert not (tmp_path / "t.gbsk").exists()


@pytest.fixture()
def table_file(tmp_path, capsys, instance_file):
    table = tmp_path / "table.gbsk"
    run_cli(capsys, "precompute", "--instance", str(instance_file),
            "--order", "5", "--out", str(table))
    return table


def test_sample_roundtrip(tmp_path, capsys, instance_file, table_file):
    out = tmp_path / "s.txt"
    code, man, _ = run_cli(
        capsys, "sample", "--table", str(table_file), "--instance", str(instance_file),
        "--method", "double_elision", "--order", "5", "--samples", "500",
        "--seed", "2", "--out", str(out),
    )
    assert code == 0
    assert man["n_generated"] == 500
    assert man["n_failed"] == 0 and man["worker_errors"] == []
    # this instance clips no conditional; test_clip_counters covers clipping
    assert type(man["n_clipped"]) is int and type(man["max_clip_excursion"]) is float
    assert man["n_clipped"] == 0 and man["max_clip_excursion"] == 0.0
    assert man["throughput_per_s"] > 0
    # one table column per distinct prefix: fewer column-steps than N * M
    assert man["sample_steps"] == 500 * 6
    assert 0 < man["table_columns"] < man["sample_steps"] and man["n_deferred"] == 0
    assert man["n_routed"] == 0  # all 500 samples fit one table run
    batch = load_samples(out)
    assert batch.N == 500 and batch.M == 6


@pytest.mark.parametrize("method,order,engine", [
    ("single_elision", "3", "batched"),
    ("double_elision", "5", "batched"), ("exact_reference", "5", "exact"),
])
def test_sample_manifest_names_engine(tmp_path, capsys, instance_file, table_file,
                                      method, order, engine):
    table = [] if method == "exact_reference" else ["--table", str(table_file)]
    code, man, _ = run_cli(capsys, "sample", *table,
                           "--instance", str(instance_file), "--method", method,
                           "--order", order, "--samples", "3", "--out", str(tmp_path / "s.txt"))
    # each method has one engine: only MarginalTables holds aux values
    assert code == 0 and "engine" not in man
    assert (man["aux_values_per_sample"] > 0) == (engine == "batched")


def test_sample_vacuum_lines(tmp_path, capsys):
    inst_path = tmp_path / "v.json"
    g.save_instance(inst_path, inst=g.vacuum_instance(4))
    table = tmp_path / "v.gbsk"
    run_cli(capsys, "precompute", "--instance", str(inst_path), "--order", "3", "--out", str(table))
    out = tmp_path / "s.txt"
    code, _, _ = run_cli(capsys, "sample", "--table", str(table), "--instance", str(inst_path),
                         "--method", "single_elision", "--order", "3",
                         "--samples", "20", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    assert all(line == "0000" for line in lines)


def test_sample_deterministic_files(tmp_path, capsys, instance_file, table_file):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        run_cli(capsys, "sample", "--table", str(table_file), "--instance", str(instance_file),
                "--samples", "200", "--seed", "5", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


def test_sample_exact_reference_guard(tmp_path, capsys):
    inst_path = tmp_path / "big.json"
    g.save_instance(inst_path, inst=g.vacuum_instance(25))
    code, _, _ = run_cli(capsys, "sample", "--instance", str(inst_path),
                         "--method", "exact_reference", "--samples", "5",
                         "--out", str(tmp_path / "s.txt"))
    assert code == 3


@pytest.mark.parametrize("flags", [
    ["--aux-orders=9,9,9"], ["--clamp-epsilon", "0.3"], ["--workers", "3"],
    ["--table", "never-read.gbsk"], ["--order", "-3"],
])
def test_sample_exact_reference_refuses_chain_flags(tmp_path, capsys, instance_file, flags):
    out = tmp_path / "s.txt"
    code, man, err = run_cli(capsys, "sample", "--instance", str(instance_file),
                             "--method", "exact_reference", "--samples", "5", *flags,
                             "--out", str(out))
    assert code == 2 and man is None and not out.exists()
    assert "exact_reference" in err


def test_sample_chain_method_requires_table(tmp_path, capsys, instance_file):
    code, _, err = run_cli(capsys, "sample", "--instance", str(instance_file),
                           "--method", "double_elision", "--samples", "5",
                           "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert "--table" in err


def test_sample_table_instance_mismatch(tmp_path, capsys, table_file):
    other = tmp_path / "other.json"
    g.save_instance(other, inst=g.vacuum_instance(4))
    code, _, err = run_cli(capsys, "sample", "--table", str(table_file),
                           "--instance", str(other), "--samples", "5",
                           "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert "does not match" in err


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("kind,order,message", [
    ("cumulant", 3, "exceeds table order 3"), ("correlator", 5, "not a correlator table"),
])
def test_sample_table_unfit_for_config_exit_2(tmp_path, capsys, instance_file, workers,
                                              kind, order, message):
    # a table of too low an order, or of correlators, for --order 5
    table = tmp_path / "t.gbsk"
    ctab = cu.correlator_table(g.load_instance(instance_file), K=order)
    cu.save_table(cu.cumulants_from_correlators(ctab) if kind == "cumulant" else ctab, table)
    out = tmp_path / "s.txt"
    code, man, err = run_cli(capsys, "sample", "--table", str(table),
                             "--instance", str(instance_file), "--order", "5",
                             "--samples", "64", "--workers", workers, "--out", str(out))
    assert code == 2 and man is None and not out.exists()
    assert message in err


@pytest.mark.parametrize("method", ["single_elision", "double_elision"])
def test_sample_negative_aux_orders_exit_2(tmp_path, capsys, instance_file, table_file, method):
    out = tmp_path / "s.txt"
    code, _, err = run_cli(capsys, "sample", "--instance", str(instance_file),
                           "--table", str(table_file), "--method", method, "--samples", "5",
                           "--aux-orders=-1,-5,0", "--out", str(out))
    assert code == 2
    assert "aux orders" in err
    assert not out.exists()


def test_cli_import_leaves_out_process_pool():
    code = ("import sys, gbsemu.cli; "
            "assert 'concurrent.futures.process' not in sys.modules, 'process pool imported'")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_benchmark_exact_sampler(tmp_path, capsys, instance_file):
    out = tmp_path / "s.txt"
    run_cli(capsys, "sample", "--instance", str(instance_file),
            "--method", "exact_reference", "--samples", "60000",
            "--seed", "3", "--out", str(out))
    rep = tmp_path / "rep"
    code, man, _ = run_cli(capsys, "benchmark", "--samples", str(out),
                           "--instance", str(instance_file), "--orders", "2",
                           "--out", str(rep))
    assert code == 0
    summary = man["summaries"][str(out)]
    assert summary["pearson"]["2"] >= 0.99
    assert (rep / out.stem / "summary.json").exists()


def test_benchmark_xeb_range_flag(tmp_path, capsys, instance_file):
    out = tmp_path / "s.txt"
    run_cli(capsys, "sample", "--instance", str(instance_file),
            "--method", "exact_reference", "--samples", "20000",
            "--seed", "4", "--out", str(out))
    rep = tmp_path / "rep"
    code, _, _ = run_cli(capsys, "benchmark", "--samples", str(out),
                         "--instance", str(instance_file), "--orders", "2",
                         "--xeb-range", "0,2", "--out", str(rep))
    assert code == 0
    lines = (rep / out.stem / "xeb.csv").read_text().splitlines()
    cs = [int(line.split(",")[0]) for line in lines[1:]]
    assert cs and all(0 <= c <= 2 for c in cs)


def test_sample_manifest_reports_aux_memory(tmp_path, capsys, instance_file, table_file):
    out = tmp_path / "s.txt"
    _, man, _ = run_cli(capsys, "sample", "--table", str(table_file),
                        "--instance", str(instance_file), "--samples", "10",
                        "--out", str(out))
    assert man["aux_values_per_sample"] > 0


# chain configs beyond the rules MarginalTables holds, and the limit each breaks
_BEYOND_TABLES = {
    "single_k4": (["--method", "single_elision", "--order", "4"], "single_elision K <= 3"),
    "single_default_order": (["--method", "single_elision"], "single_elision K <= 3"),
    "double_k6": (["--order", "6"], "double_elision K <= 5"),
    "double_aux_443": (["--aux-orders", "4,4,3"], "aux up to 3,3,2"),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", list(_BEYOND_TABLES))
def test_sample_refuses_configs_beyond_the_tables(tmp_path, capsys, instance_file, name, workers):
    flags, limit = _BEYOND_TABLES[name]
    table = tmp_path / "k6.gbsk"  # of order 6, so no config exceeds the table
    run_cli(capsys, "precompute", "--instance", str(instance_file), "--order", "6",
            "--out", str(table))
    out = tmp_path / "s.txt"
    code, man, err = run_cli(capsys, "sample", "--table", str(table),
                             "--instance", str(instance_file), "--samples", "10",
                             "--workers", workers, *flags, "--out", str(out))
    assert code == 2 and man is None
    assert limit in err and "exact_reference" in err and "chain_joint_probability" in err
    assert not out.exists()


def test_benchmark_displaced_instance(tmp_path, capsys, instance_file):
    inst = g.load_instance(instance_file)
    mu = np.random.default_rng(2).normal(0.0, 0.7, 2 * inst.M)
    inst_path = tmp_path / "displaced.json"
    g.save_instance(inst_path, inst=g.GaussianInstance(sigma=inst.sigma, mu=mu, hbar=inst.hbar))
    out = tmp_path / "s.txt"
    run_cli(capsys, "sample", "--instance", str(inst_path), "--method", "exact_reference",
            "--samples", "2000", "--seed", "3", "--out", str(out))
    rep = tmp_path / "rep"
    code, man, _ = run_cli(capsys, "benchmark", "--samples", str(out),
                           "--instance", str(inst_path), "--orders", "2", "--out", str(rep))
    assert code == 0
    assert 0.0 <= man["summaries"][str(out)]["tvd"] < 1.0
    assert len((rep / out.stem / "xeb.csv").read_text().splitlines()) > 1


def test_benchmark_empty_samples(tmp_path, capsys, instance_file):
    empty = tmp_path / "empty.txt"
    empty.write_text("# gbs-samples v1 M=6 N=0 method=x K=0 seed=0\n")
    code, _, _ = run_cli(capsys, "benchmark", "--samples", str(empty),
                         "--instance", str(instance_file), "--out", str(tmp_path / "rep"))
    assert code == 2


def _packed_samples(path, n_rows=3, M=6, truncate=0):
    from gbsemu.sampler import SampleBatch, save_samples_packed

    bits = np.zeros((n_rows, M), dtype=np.uint8)
    save_samples_packed(path, SampleBatch(M=M, N=n_rows, bitstrings=bits, method="x", K=0, seed=0))
    if truncate:
        path.write_bytes(path.read_bytes()[:-truncate])


_MALFORMED_SAMPLES = {
    "truncated_packed": lambda p: _packed_samples(p, truncate=1),
    "short_packed_header": lambda p: p.write_bytes(b"GBSS" + b"\x01\x00\x00\x00"),
    "packed_zero_modes": lambda p: _packed_samples(p, M=0),
    "header_token_without_equals":
        lambda p: p.write_text("# gbs-samples v1 M=6 N=1 oops\n000000\n"),
    "header_without_modes":
        lambda p: p.write_text("# gbs-samples v1 N=1 method=x K=0 seed=0\n000000\n"),
    "non_utf8_sample_byte":
        lambda p: p.write_bytes(b"# gbs-samples v1 M=6 N=1 method=x K=0 seed=0\n00\xff001\n"),
    "non_utf8_header_byte":
        lambda p: p.write_bytes(b"# gbs-samples v1 M=6 N=1 method=\xff K=0 seed=0\n000000\n"),
    # line ends other than "\n" and "\r\n"
    "lone_carriage_return":
        lambda p: p.write_bytes(b"# gbs-samples v1 M=6 N=2 method=x K=0 seed=0\n000000\r010000\n"),
    "form_feed_separator":
        lambda p: p.write_bytes(b"# gbs-samples v1 M=6 N=2 method=x K=0 seed=0\n000000\x0c010000\n"),
    "carriage_return_last":
        lambda p: p.write_bytes(b"# gbs-samples v1 M=6 N=1 method=x K=0 seed=0\n000000\r"),
}


@pytest.mark.parametrize("name", list(_MALFORMED_SAMPLES))
def test_benchmark_malformed_samples_exit_2(tmp_path, capsys, instance_file, name):
    bad = tmp_path / f"{name}.bin"
    _MALFORMED_SAMPLES[name](bad)
    code, _, err = run_cli(capsys, "benchmark", "--samples", str(bad),
                           "--instance", str(instance_file), "--out", str(tmp_path / "rep"))
    assert code == 2
    assert str(bad) in err


def test_benchmark_two_sample_files(tmp_path, capsys, instance_file):
    files = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}.txt"
        run_cli(capsys, "sample", "--instance", str(instance_file),
                "--method", "exact_reference", "--samples", "2000",
                "--seed", str(seed), "--out", str(out))
        files.append(str(out))
    code, man, _ = run_cli(capsys, "benchmark", "--samples", *files,
                           "--instance", str(instance_file), "--orders", "2",
                           "--out", str(tmp_path / "rep"))
    assert code == 0
    assert set(man["summaries"]) == set(files)


_LAYER_TIMES = ("load_s", "estimate_s", "theory_s", "oracle_s", "xeb_tvd_s", "write_s")


@pytest.mark.parametrize("M", [6, 22])
def test_benchmark_manifest_layer_times(tmp_path, capsys, M):
    # the oracle and XEB+TVD layers exist only up to the exact oracle's 20 modes
    inst = tmp_path / "inst.json"
    run_cli(capsys, "gen-instance", "--modes", str(M), "--squeezers", "3",
            "--eta", "0.6", "--seed", "11", "--out", str(inst))
    samples = tmp_path / "s.txt"
    bits = np.random.default_rng(M).integers(0, 2, size=(500, M))
    samples.write_text(f"# gbs-samples v1 M={M} N=500 method=x K=0 seed=0\n"
                       + "".join("".join(map(str, row)) + "\n" for row in bits))
    code, man, _ = run_cli(capsys, "benchmark", "--samples", str(samples), "--instance",
                           str(inst), "--orders", "2", "--out", str(tmp_path / "rep"))
    assert code == 0
    summary = man["summaries"][str(samples)]
    names = _LAYER_TIMES if M <= g.BRUTE_FORCE_MAX_MODES else (
        "load_s", "estimate_s", "theory_s", "write_s")
    assert {k for k in summary if k.endswith("_s")} == set(names)
    assert all(summary[k] >= 0.0 for k in names)
    assert sum(summary[k] for k in names) <= man["wall_time_s"]


@pytest.mark.parametrize("orders", ["4", "2,5"])
def test_benchmark_order_without_two_subsets_exit_2(tmp_path, capsys, orders):
    inst = tmp_path / "inst.json"
    run_cli(capsys, "gen-instance", "--modes", "4", "--squeezers", "2",
            "--eta", "0.6", "--seed", "11", "--out", str(inst))
    samples = tmp_path / "s.txt"
    run_cli(capsys, "sample", "--instance", str(inst), "--method", "exact_reference",
            "--samples", "200", "--seed", "1", "--out", str(samples))
    rep = tmp_path / "rep"
    code, man, err = run_cli(capsys, "benchmark", "--samples", str(samples),
                             "--instance", str(inst), "--orders", orders, "--out", str(rep))
    bad = orders.split(",")[-1]
    assert code == 2 and man is None
    assert f"order {bad}" in err and "M=4" in err
    assert not rep.exists()


_BENCHMARK = ["benchmark", "--samples", "{tmp}/s.txt", "--instance", "{inst}",
              "--out", "{tmp}/r"]
_SCALING = ["scaling", "--modes", "8", "--out", "{tmp}/sc"]
_GEN = ["gen-instance", "--eta", "0.5", "--out", "{tmp}/i.json"]

# (argv, text expected on stderr): each exits 2 before any output is written
_BAD_ARGV = {
    "xeb_range_one_value": (_BENCHMARK + ["--xeb-range", "5"], "--xeb-range"),
    "xeb_range_reversed": (_BENCHMARK + ["--xeb-range", "3,1"], "--xeb-range"),
    "orders_not_integer": (_BENCHMARK + ["--orders", "2,x"], "--orders"),
    "orders_repeated": (_BENCHMARK + ["--orders", "2,2"], "--orders"),
    "benchmark_bootstrap_removed": (_BENCHMARK + ["--bootstrap", "5"], "--bootstrap"),
    "aux_orders_not_integer": (["sample", "--instance", "{inst}", "--samples", "5",
                                "--out", "{tmp}/s.txt", "--aux-orders", "2,x"], "--aux-orders"),
    "aux_orders_two_values": (["sample", "--instance", "{inst}", "--samples", "5",
                               "--out", "{tmp}/s.txt", "--aux-orders", "2,2"], "--aux-orders"),
    "modes_not_integer": (["scaling", "--modes", "8,x", "--out", "{tmp}/sc"], "--modes"),
    "workers_repeated": (_SCALING + ["--workers", "1,1"], "--workers"),
    "zero_samples_per_point": (_SCALING + ["--samples-per-point", "0"], "--samples-per-point"),
    "precompute_workers_removed": (["precompute", "--instance", "{inst}", "--order", "2",
                                    "--out", "{tmp}/t.gbsk", "--workers", "2"], "--workers"),
    "scaling_precompute_workers_removed": (_SCALING + ["--precompute-workers", "2"],
                                           "--precompute-workers"),
    "no_squeezers": (_GEN + ["--modes", "4", "--squeezers", "0"], "k=0"),
    "negative_squeezers": (_GEN + ["--modes", "4", "--squeezers", "-1"], "k=-1"),
    "no_modes": (_GEN + ["--modes", "0", "--squeezers", "0"], "M=0"),
    "rmax_nan": (_GEN + ["--modes", "4", "--squeezers", "2", "--rmax", "nan"], "r_max"),
    "rmax_inf": (_GEN + ["--modes", "4", "--squeezers", "2", "--rmax", "inf"], "r_max"),
}


@pytest.mark.parametrize("name", list(_BAD_ARGV))
def test_bad_arguments_exit_2(tmp_path, capsys, instance_file, name):
    argv, expected = _BAD_ARGV[name]
    argv = [a.format(tmp=tmp_path, inst=instance_file) for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert expected in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


def test_scaling_single_point_nan_slope(tmp_path, capsys):
    code, man, _ = run_cli(capsys, "scaling", "--orders", "3", "--modes", "12",
                           "--samples-per-point", "4", "--out", str(tmp_path / "sc"))
    assert code == 0
    slope = man["slopes"]["3"]
    assert np.isnan(slope["per_sample"]) and "note" in slope
    assert (tmp_path / "sc" / "times.csv").exists()


def test_scaling_two_points(tmp_path, capsys):
    code, man, _ = run_cli(capsys, "scaling", "--orders", "3", "--modes", "10,16",
                           "--samples-per-point", "8", "--workers", "1,2",
                           "--throughput-modes", "16", "--out", str(tmp_path / "sc"))
    assert code == 0
    assert np.isfinite(man["slopes"]["3"]["per_sample"])
    assert len(man["throughput"]) == 2
    assert (tmp_path / "sc" / "throughput.csv").exists()


def test_manifest_lists_inputs_and_versions(tmp_path, capsys, instance_file, table_file):
    out = tmp_path / "s.txt"
    code, man, _ = run_cli(capsys, "sample", "--table", str(table_file),
                           "--instance", str(instance_file), "--samples", "10",
                           "--out", str(out))
    assert code == 0
    assert str(instance_file) in man["inputs"] and str(table_file) in man["inputs"]
    assert all(len(h) == 64 for h in man["inputs"].values())
    assert man["versions"]["gbsemu"]
    assert man["peak_rss_kb"] > 0


def _echo_argv(tmp_path, instance_file, table_file):
    """argv of each command, with every sample flag and the ignored flag set."""
    samples = tmp_path / "s.txt"
    return {
        "sample": ["sample", "--table", str(table_file), "--instance", str(instance_file),
                   "--method", "double_elision", "--order", "4", "--samples", "6",
                   "--seed", "5", "--workers", "1", "--aux-orders", "3,2,1",
                   "--clamp-epsilon", "0.01", "--out", str(samples)],
        "benchmark": ["benchmark", "--samples", str(samples), "--instance", str(instance_file),
                      "--orders", "2", "--xeb-range", "0,3", "--seed", "7",
                      "--out", str(tmp_path / "rep")],
        "scaling": ["scaling", "--orders", "2", "--modes", "6", "--samples-per-point", "2",
                    "--out", str(tmp_path / "sc")],
    }


def test_manifest_config_echoes_every_parsed_flag(tmp_path, capsys, instance_file, table_file):
    # the ignored benchmark --seed included
    argv = _echo_argv(tmp_path, instance_file, table_file)
    config = {}
    for cmd in ("sample", "benchmark", "scaling"):
        code, man, _ = run_cli(capsys, *argv[cmd])
        assert code == 0 and man["command"] == cmd
        config[cmd] = man["config"]
        parsed = vars(cli.build_parser().parse_args(argv[cmd]))
        expect = {k: v for k, v in parsed.items() if k not in ("cmd", "func")}
        assert config[cmd] == json.loads(json.dumps(expect)), cmd
    assert config["benchmark"]["seed"] == 7
    assert config["sample"]["aux_orders"] == [3, 2, 1]
    assert config["sample"]["clamp_epsilon"] == 0.01


def test_sample_order_above_modes_runs_the_effective_order(tmp_path, capsys):
    # on 4 modes --order 6 is the order-4 model, which the tables hold
    inst, table = tmp_path / "inst.json", tmp_path / "k4.gbsk"
    run_cli(capsys, "gen-instance", "--modes", "4", "--squeezers", "2", "--eta", "0.6",
            "--seed", "2", "--out", str(inst))
    run_cli(capsys, "precompute", "--instance", str(inst), "--order", "4", "--out", str(table))
    bits = {}
    for order in ("4", "6"):
        out = tmp_path / f"k{order}.txt"
        code, _, err = run_cli(capsys, "sample", "--table", str(table), "--instance", str(inst),
                               "--order", order, "--samples", "200", "--seed", "5",
                               "--out", str(out))
        assert code == 0, err
        bits[order] = load_samples(out).bitstrings
    assert np.array_equal(bits["6"], bits["4"])
