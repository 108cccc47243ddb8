"""The shared harness of the parent-against-change scripts (scripts/pairs.py)."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import pairs  # noqa: E402


def test_pairs_alternate_parent_first():
    order = []
    runs = pairs.run_pairs({"parent": "p", "change": "c"}, 4,
                           lambda src: order.append(src) or len(order), "t")
    assert order == ["p", "c", "c", "p", "p", "c", "c", "p"]
    assert runs == {"parent": [1, 4, 5, 8], "change": [2, 3, 6, 7]}


def test_wins_both_directions():
    runs = {"parent": [{"s": 1.0}, {"s": 2.0}, {"s": 3.0}],
            "change": [{"s": 0.5}, {"s": 2.0}, {"s": 4.0}]}
    assert pairs.wins(runs, "s") == 1
    assert pairs.wins(runs, "s", higher=True) == 1
    runs["change"][1]["s"] = 2.5
    assert pairs.wins(runs, "s") == 1
    assert pairs.wins(runs, "s", higher=True) == 2


def test_identical_needs_every_hash_equal():
    runs = {"parent": [{"sha256": "a"}, {"sha256": "a"}], "change": [{"sha256": "a"}]}
    assert pairs.identical(runs)
    runs["change"].append({"sha256": "b"})
    assert not pairs.identical(runs)


def test_summary_of_one_value_and_several():
    assert pairs.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}
    assert pairs.summary([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}


def test_child_runs_with_src_and_one_blas_thread(tmp_path):
    code = "import os\nemit(path=sys.path[0], threads=os.environ['OPENBLAS_NUM_THREADS'])\n"
    fields = pairs.measure(code, tmp_path)
    assert fields["path"] == str(tmp_path) and fields["threads"] == "1"
    assert fields["peak_rss_mb"] > 0


def test_failing_child_raises_with_stderr_tail(tmp_path):
    code = "sys.stderr.write('x' * 5000 + 'the last words')\nsys.exit(3)\n"
    with pytest.raises(SystemExit, match="exited 3") as exc:
        pairs.run_child(code, tmp_path, "arg")
    assert str(exc.value).endswith("the last words")
    assert "arg" in str(exc.value) and len(str(exc.value)) < 2200


@pytest.mark.parametrize("script", ["bench_phase2", "bench_oracle", "bench_sampler",
                                    "bench_report", "compare_outputs"])
def test_script_help(script):
    proc = subprocess.run([sys.executable, f"scripts/{script}.py", "--help"], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "--parent-src" in proc.stdout
