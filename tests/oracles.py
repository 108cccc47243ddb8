"""Brute-force reference evaluators used as independent oracles in tests.

Everything here works directly from the exact 2^M outcome distribution,
never through the sampler's dynamic program, except ExactTailChain: the
scalar chain with its deepest marginals taken from that distribution.
"""

from itertools import combinations

import numpy as np

from gbsemu import gaussian as g
from gbsemu.sampler import ScalarChain
from gbsemu.subsets import partition_patterns


def per_outcome_distribution(inst) -> np.ndarray:
    """All 2^M outcome probabilities, one exact_probability call per outcome."""
    M = inst.M
    return np.array([
        g.exact_probability(inst, [(i >> (M - 1 - k)) & 1 for k in range(M)])
        for i in range(2**M)
    ])


def exact_marginal(dist: np.ndarray, M: int, kept, bits) -> float:
    """Probability that the modes in `kept` equal the given realized bits."""
    kept = list(kept)
    total = 0.0
    for i in range(2**M):
        if all(((i >> (M - 1 - k)) & 1) == int(bits[k]) for k in kept):
            total += dist[i]
    return total


class ExactTailChain(ScalarChain):
    """ScalarChain whose marginals with more than ``bottom`` elided bits are exact.

    The chain factorizes such a marginal over bits 0..top minus the
    elisions into intervals times a pref / q1 / q2 entry; this one reads
    it from the exact distribution `dist` instead.  Everything else, the
    truncated expansion included, is the chain's own.
    """

    def __init__(self, kappa, config, dist):
        super().__init__(kappa, config)
        self.dist = dist

    def _tail(self, top, D, lo):
        if lo is None and len(D) > self.bottom:
            kept = [k for k in range(top + 1) if k not in D]
            return exact_marginal(self.dist, self.M, kept, self.sign < 0)
        return super()._tail(top, D, lo)


def parity(bits, subset) -> int:
    return 1 - 2 * (sum(int(bits[k]) for k in subset) & 1)


def correlator_from_dist(dist: np.ndarray, M: int, subset) -> float:
    """c(S) as the parity expectation under the exact distribution."""
    total = 0.0
    for i in range(2**M):
        bits = [(i >> (M - 1 - k)) & 1 for k in range(M)]
        total += parity(bits, subset) * dist[i]
    return total


def plugin_click_cumulant(samples, subset) -> float:
    """Plug-in joint cumulant of the click variables on one subset.

    The partition sum of sample joint click moments (fractions of samples
    in which every mode of a block clicks), one subset at a time.
    """
    subset = tuple(subset)
    total = 0.0
    for pat in partition_patterns(len(subset)):
        prod = 1.0
        for block in pat.blocks:
            prod *= float(samples[:, [subset[p] for p in block]].all(axis=1).mean())
        total += pat.weight * prod
    return total


def partition_transform_reference(table, subset, use_weights: bool) -> float:
    """One subset's entry of the partition transform, one scalar at a time.

    Order 1 passes through.  Otherwise, for each pattern of
    partition_patterns(d), the product of the table's values on its blocks
    in block order, then acc += w * prod; w is the pattern's weight for
    correlators -> cumulants and 1 for cumulants -> correlators.
    """
    subset = tuple(subset)
    if len(subset) == 1:
        return table.value(subset)
    acc = 0.0
    for pat in partition_patterns(len(subset)):
        prod = 1.0
        for block in pat.blocks:
            prod *= table.value(tuple(subset[p] for p in block))
        acc += (pat.weight if use_weights else 1.0) * prod
    return acc


def reference_step_probability(dist, kappa, bits, n: int, x_n: int) -> float:
    """Untruncated chain-rule step with exact marginals.

    p(x_n, x_{n-1}..x_0) = (1/2)(1 + chi kappa_n) p(prefix)
      + sum over nonempty R of 2^-(|R|+1) chi(R+{n}) kappa(R+{n}) p(marginal w/o R),
    all marginals taken from the exact distribution.
    """
    M = kappa.M
    sign_n = 1 - 2 * x_n
    prefix = list(range(n))
    out = 0.5 * (1.0 + sign_n * kappa.value((n,))) * exact_marginal(dist, M, prefix, bits)
    for m in range(1, n + 1):
        coef = 0.5 ** (m + 1)
        for R in combinations(range(n), m):
            kept = [k for k in prefix if k not in R]
            chi = sign_n * parity(bits, R)
            out += coef * chi * kappa.value(tuple(sorted(R + (n,)))) * exact_marginal(
                dist, M, kept, bits
            )
    return out


def delta_bias_reference(dist, kappa, bits, n: int) -> float:
    """Bias between the 0 and 1 branch of bit n, from exact marginals.

    sum over R of 2^-|R| chi(R+{n}) kappa(R+{n}) p(marginal w/o R),
    evaluated with the realized value of bit n.
    """
    M = kappa.M
    sign_n = 1 - 2 * int(bits[n])
    out = 0.0
    for m in range(0, n + 1):
        coef = 0.5**m
        for R in combinations(range(n), m):
            kept = [k for k in range(n) if k not in R]
            chi = sign_n * parity(bits, R)
            out += coef * chi * kappa.value(tuple(sorted(R + (n,)))) * exact_marginal(
                dist, M, kept, bits
            )
    return out


def product_law(click_probs) -> np.ndarray:
    """Joint distribution of independent clicks, mode 0 most significant."""
    out = np.ones(1)
    for q in click_probs:
        out = np.kron(out, np.array([1.0 - q, q]))
    return out
