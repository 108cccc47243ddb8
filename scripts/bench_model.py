"""How far the chain model is from the exact law: model TVD and its cost.

    python scripts/bench_model.py --out BENCH_model.json

For each M in ``MODES`` and instance seed in ``SEEDS`` the instance is
``random_instance(M, 3, 0.5, 1.0, seed)``, with one order-6 cumulant table
and the exact distribution from ``brute_force_distribution``.  Each point
(method, K, default aux orders) computes the model's probability of all
2^M outcomes and records TVD(model, exact), the sum of the model's
probabilities and the seconds that took, with one BLAS thread.  Where
MarginalTables holds the config, forced ``MarginalTables.run`` calls give
the probabilities, one call per block of at most 2^11 outcomes that share
their leading bits; elsewhere ``chain_joint_probability`` runs
``ScalarChain`` once per outcome, which takes about a minute per point at
M = 12, so such points are refused above M = 12.  The full grid takes
about 25 minutes on a 2-core x86-64 host.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

if __name__ == "__main__":  # one BLAS thread, set before numpy loads
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

import pairs  # noqa: E402

sys.path.insert(0, str(pairs.ROOT / "src"))
from gbsemu import cumulants, gaussian, sampler  # noqa: E402

MODES = (10, 12)
SEEDS = (1, 2, 3, 4, 5)
CONFIGS = [("single_elision", K) for K in (3, 4, 5)] + [("double_elision", K) for K in (3, 4, 5, 6)]
TABLE_ORDER = 6
CHUNK_BITS = 11  # forced outcomes per MarginalTables run: 2^11
SCALAR_MAX_MODES = 12


def model_distribution(ktab, config: sampler.SamplerConfig) -> np.ndarray:
    """The chain model's probability of each of the 2^M outcomes, in the
    order of ``brute_force_distribution``."""
    M = ktab.M
    bits = gaussian.outcome_bits(np.arange(2**M), M)
    if not sampler._fast_supported(config, M):
        if M > SCALAR_MAX_MODES:
            raise SystemExit(f"{config.method} at K={config.K} runs on ScalarChain, "
                             f"one outcome at a time: refused at M={M} > {SCALAR_MAX_MODES}")
        return np.array([sampler.chain_joint_probability(ktab, b, config) for b in bits])
    chunk = 1 << min(CHUNK_BITS, M)
    tables = sampler.MarginalTables(ktab, config, batch=chunk)
    model = np.empty(2**M)
    for first in range(0, 2**M, chunk):
        col = tables.run(None, forced=bits[first : first + chunk].T)
        model[first : first + chunk] = tables.pref[M][col]
    return model


def point(ktab, truth: np.ndarray, method: str, K: int) -> dict:
    config = sampler.SamplerConfig(N=0, K=K, method=method)
    t0 = time.perf_counter()
    model = model_distribution(ktab, config)
    seconds = time.perf_counter() - t0
    return {"method": method, "K": K, "aux_orders": list(config.aux_orders),
            "via": "MarginalTables.run" if sampler._fast_supported(config, ktab.M)
            else "chain_joint_probability",
            "tvd": 0.5 * float(np.abs(model - truth).sum()), "sum": float(model.sum()),
            "seconds": seconds}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    points = []
    for M in MODES:
        for seed in SEEDS:
            inst, _ = gaussian.random_instance(M, 3, 0.5, 1.0, seed)
            _, ktab = cumulants.cumulant_tables(inst, TABLE_ORDER)
            truth = gaussian.brute_force_distribution(inst)
            for method, K in CONFIGS:
                row = {"M": M, "seed": seed, **point(ktab, truth, method, K)}
                print(row, file=sys.stderr)
                points.append(row)
    pairs.write(args.out, "TVD between the chain model and the exact distribution over all "
                f"2^M outcomes, random_instance(M, 3, 0.5, 1.0, seed), order-{TABLE_ORDER} table, "
                "default aux orders, one BLAS thread; seconds to compute the model", points)
    return 0


if __name__ == "__main__":
    sys.exit(main())
