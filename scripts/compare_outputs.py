"""Pipeline outputs of a parent tree against this one, byte for byte.

    python scripts/compare_outputs.py --parent-src ../parent/src --seeds 1,2,3

Each tree runs gen-instance -> precompute -> sample (1 and 2 workers) ->
benchmark on every input, each command in a fresh interpreter with one
BLAS thread, and writes under its own directory in
``.bench_build/compare/``.  The inputs are perfbench's ``deep-k5`` and
``exact-m12`` workloads (M/4 squeezers, eta 0.5, r_max 1.0, instance seed
1), double-elision inputs at K=3 (M=16) and K=4 (M=20), which fill only
some parts of the sampler's row contractions, and an M=64, K=3
single-elision input.  Every sampling seed gets its own
samples, the deterministic fields of each sample manifest (``MANIFEST``,
written as JSON next to the samples, null where a tree has no such field) and its report (or, where the
report is refused, its exit code and error).  The script prints the
SHA-256 of every output file in both trees and exits 1 if any file
differs or exists in one tree only.  Beside each differing table
(``.gbsk``, ``.gbsc``), report CSV or JSON file it prints the largest
absolute difference between the two files' numbers, and for a JSON file
the key paths of the numbers that differ, e.g.
``max |diff| 7.08e-11 (max_clip_excursion)``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import pairs

sys.path.insert(0, str(pairs.ROOT / "src"))
from gbsemu.cumulants import load_table  # noqa: E402

WORK = pairs.ROOT / ".bench_build" / "compare"
ETA, RMAX, INSTANCE_SEED = 0.5, 1.0, 1
# (name, M, K, method, N, report orders)
INPUTS = (
    ("deep-k5", 24, 5, "double_elision", 8000, "2,3"),
    ("exact-m12", 12, 5, "double_elision", 100_000, "2,3"),
    ("double-k3", 16, 3, "double_elision", 4000, "2,3"),
    ("double-k4", 20, 4, "double_elision", 4000, "2,3"),
    ("single-m64", 64, 3, "single_elision", 4096, "2"),
)
# the sample manifest fields that do not depend on timing or on the host
MANIFEST = ("n_generated", "n_failed", "n_flagged", "n_clipped", "max_clip_excursion",
            "table_columns", "n_deferred", "n_routed",
            "aux_values_per_sample", "worker_errors")

_CHILD = """
from gbsemu.cli import main
sys.exit(main(sys.argv[2:]))
"""


def cli(src: Path, *argv) -> dict:
    """One gbsemu command in a fresh interpreter; returns its manifest."""
    return json.loads(pairs.run_child(_CHILD, src, *argv))


def run_tree(src: Path, work: Path, seeds: list[int]) -> dict[str, str]:
    """Run every input through one tree; SHA-256 of each output by relative path."""
    shutil.rmtree(work, ignore_errors=True)
    for name, M, K, method, N, orders in INPUTS:
        d = work / name
        d.mkdir(parents=True)
        inst, table = d / "inst.json", d / "table.gbsk"
        cli(src, "gen-instance", "--modes", M, "--squeezers", M // 4, "--eta", ETA,
            "--rmax", RMAX, "--seed", INSTANCE_SEED, "--out", inst)
        cli(src, "precompute", "--instance", inst, "--order", K, "--out", table)
        for seed in seeds:
            for workers in (1, 2):
                man = cli(src, "sample", "--table", table, "--instance", inst,
                          "--method", method, "--order", K, "--samples", N, "--seed", seed,
                          "--workers", workers, "--out", d / f"samples_s{seed}_w{workers}.txt")
                (d / f"manifest_s{seed}_w{workers}.json").write_text(
                    json.dumps({key: man.get(key) for key in MANIFEST}, indent=1, sort_keys=True))
            try:
                cli(src, "benchmark", "--samples", d / f"samples_s{seed}_w1.txt",
                    "--instance", inst, "--orders", orders, "--seed", seed,
                    "--out", d / f"report_s{seed}")
            except SystemExit as exc:
                # the exact oracle can refuse a valid M = 20 instance (exit 4,
                # a probability just below its window): compare the refusal,
                # its exit code and error, as the report's output
                refusal = str(exc).split(": exited ", 1)[1]
                (d / f"report_s{seed}.refused").write_text(refusal)
        print(f"{src}: {name} done", file=sys.stderr)
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file()}


def value_diff(a: Path, b: Path) -> tuple[float, list[str]] | None:
    """Largest absolute difference between the numbers of two tables, CSV or
    JSON files, with the sorted dotted key paths (``slope.3``) of the JSON
    numbers that differ; None for other files, or where anything but a
    number differs."""
    if a.suffix in (".gbsk", ".gbsc"):
        x, y = load_table(a).values, load_table(b).values
        return (float(np.abs(x - y).max()), []) if x.shape == y.shape and x.size else None
    keys: set[str] = set()
    if a.suffix == ".csv":
        with open(a, newline="") as fa, open(b, newline="") as fb:
            diff = _numbers_diff(list(csv.reader(fa)), list(csv.reader(fb)), None, keys)
    elif a.suffix == ".json":
        diff = _numbers_diff(json.loads(a.read_text()), json.loads(b.read_text()), None, keys)
    else:
        return None
    return None if diff is None else (diff, sorted(keys))


def diff_note(a: Path, b: Path) -> str:
    """The max |diff| note printed beside two differing files, with the
    differing JSON keys in brackets; empty where :func:`value_diff` is None."""
    diff = value_diff(a, b)
    if diff is None:
        return ""
    return f"  max |diff| {diff[0]:.3g}" + (f" ({', '.join(diff[1])})" if diff[1] else "")


def _numbers_diff(x, y, key, keys: set) -> float | None:
    """max |x - y| over the numbers (or numeric strings) of two nests of dicts
    and lists of the same shape; None where anything else differs.  Adds to
    keys the dotted dict-key path of each number that differs."""
    if isinstance(x, dict) and isinstance(y, dict):
        if x.keys() != y.keys():
            return None
        diffs = [_numbers_diff(x[k], y[k], f"{key}.{k}" if key else k, keys) for k in sorted(x)]
        return None if None in diffs else max(diffs, default=0.0)
    if isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            return None
        diffs = [_numbers_diff(u, v, key, keys) for u, v in zip(x, y)]
        return None if None in diffs else max(diffs, default=0.0)
    if x == y:
        return 0.0
    try:
        u, v = float(x), float(y)
    except (TypeError, ValueError):
        return None
    if isinstance(x, bool) or isinstance(y, bool):
        return None
    if u != u or v != v:  # NaN
        return 0.0 if u != u and v != v else None
    if key is not None:
        keys.add(key)
    return abs(u - v)


def main() -> int:
    ap = pairs.parser(__doc__, out=False)
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated sampling seeds")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    parent, change = (run_tree(src, WORK / label, seeds)
                      for label, src in pairs.trees(args).items())
    differ = 0
    for rel in sorted(parent.keys() | change.keys()):
        a, b = parent.get(rel, "-"), change.get(rel, "-")
        differ += a != b
        note = ""
        if a != b and "-" not in (a, b):
            note = diff_note(WORK / "parent" / rel, WORK / "change" / rel)
        print(f"{'same' if a == b else 'DIFFERS'}  {a}  {b}  {rel}{note}")
    print(f"{len(parent.keys() | change.keys())} files, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
