import json

import numpy as np
import pytest

from gbsemu import cli
from gbsemu import cumulants as cu
from gbsemu import gaussian as g
from gbsemu.sampler import load_samples


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


def test_gen_instance_eta_zero_rejected(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen-instance", "--modes", "4", "--squeezers", "2",
        "--eta", "0", "--out", str(tmp_path / "x.json"),
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


@pytest.mark.parametrize("name", list(_NON_FINITE_INSTANCES))
def test_precompute_non_finite_instance_exit_2(tmp_path, capsys, name):
    inst, _ = g.random_instance(4, 2, eta=0.5, r_max=1.0, seed=1)
    payload = {"hbar": inst.hbar, "M": inst.M, "sigma": inst.sigma.tolist()}
    _NON_FINITE_INSTANCES[name](payload)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "precompute", "--instance", str(path),
                           "--order", "2", "--out", str(tmp_path / "t.gbsk"))
    assert code == 2
    assert "finite" in err
    assert not (tmp_path / "t.gbsk").exists()


def test_precompute_non_finite_transmission_exit_2(tmp_path, capsys, instance_file):
    payload = json.loads(instance_file.read_text())
    payload["T_re"][0][0] = float("nan")
    path = tmp_path / "nan_t.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "precompute", "--instance", str(path),
                           "--order", "2", "--out", str(tmp_path / "t.gbsk"))
    assert code == 2
    assert "finite" in err


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
    assert man["throughput_per_s"] > 0
    batch = load_samples(out)
    assert batch.N == 500 and batch.M == 6


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


def test_benchmark_exact_sampler(tmp_path, capsys, instance_file):
    out = tmp_path / "s.txt"
    run_cli(capsys, "sample", "--instance", str(instance_file),
            "--method", "exact_reference", "--samples", "60000",
            "--seed", "3", "--out", str(out))
    rep = tmp_path / "rep"
    code, man, _ = run_cli(capsys, "benchmark", "--samples", str(out),
                           "--instance", str(instance_file), "--orders", "2",
                           "--bootstrap", "10", "--out", str(rep))
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
                         "--xeb-range", "0,2", "--bootstrap", "5", "--out", str(rep))
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
    "header_token_without_equals":
        lambda p: p.write_text("# gbs-samples v1 M=6 N=1 oops\n000000\n"),
    "header_without_modes":
        lambda p: p.write_text("# gbs-samples v1 N=1 method=x K=0 seed=0\n000000\n"),
    "non_utf8_sample_byte":
        lambda p: p.write_bytes(b"# gbs-samples v1 M=6 N=1 method=x K=0 seed=0\n00\xff001\n"),
    "non_utf8_header_byte":
        lambda p: p.write_bytes(b"# gbs-samples v1 M=6 N=1 method=\xff K=0 seed=0\n000000\n"),
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
                           "--bootstrap", "5", "--out", str(tmp_path / "rep"))
    assert code == 0
    assert set(man["summaries"]) == set(files)


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
