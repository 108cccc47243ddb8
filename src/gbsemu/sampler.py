"""Chain-rule samplers driven by the precomputed cumulant table.

Bits are drawn one mode at a time; the joint probability of the realized
prefix and a family of approximated marginals are maintained as a dynamic
program.  Four kinds of values are tracked per in-flight sample:

* ``pref[t]``    joint probability of realized bits 0..t-1,
* ``pp[t, l]``   marginal over the contiguous bits l..t,
* ``q1[t][e]``   marginal over bits 0..t with bit e summed out,
* ``q2[t][d,e]`` marginal over bits 0..t with bits d and e summed out.

Every update is a weighted sum of products of previously filled entries,
with weights kappa(subset) * parity(subset).  Two update-rule sets are
provided: ``single_elision`` (order-3 expansion, no q2 table) and
``double_elision`` (order-K expansion, K up to 5, with q2).  Marginals
whose top index coincides with an elision degrade to the next shorter
table (q2 -> q1 -> pref); the tables store these degenerate entries
directly so lookups never branch.

The fast engine processes a batch of samples at once (tables carry a
trailing batch axis) so the per-sample Python overhead is amortized; a
scalar engine with the same update schedule supports arbitrary expansion
orders and doubles as a cross-check oracle in the tests.

Randomness is counter-based: the uniforms of sample i are a pure function
of (seed, i), so batches are reproducible and independent of worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from .errors import ResourceGuardError, ValidationError
from .cumulants import SubsetTable
from .gaussian import GaussianInstance, brute_force_distribution
from .subsets import pair_rank, subset_rank

METHODS = ("single_elision", "double_elision", "exact_reference")
EXACT_REFERENCE_MAX_MODES = 20

_DEFAULT_AUX = {"single_elision": (2, 2, 0), "double_elision": (3, 3, 2)}


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling parameters; aux_orders are the expansion orders of (pp, q1, q2)."""

    N: int
    K: int = 5
    method: str = "double_elision"
    aux_orders: tuple[int, int, int] | None = None
    seed: int = 0
    workers: int = 1
    clamp_epsilon: float = 0.0
    batch_size: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.N < 0 or self.workers < 1:
            raise ValidationError("N must be >= 0 and workers >= 1")
        if self.method != "exact_reference":
            if self.K < 2:
                raise ValidationError("truncation order must be at least 2")
            aux = self.aux_orders
            if aux is None:
                aux = tuple(min(a, self.K) for a in _DEFAULT_AUX[self.method])
            if len(aux) != 3 or any(a > self.K for a in aux):
                raise ValidationError(f"aux orders {aux} must be three values <= K")
            object.__setattr__(self, "aux_orders", tuple(aux))
        if not 0.0 <= self.clamp_epsilon < 0.5:
            raise ValidationError("clamp_epsilon must lie in [0, 0.5)")


@dataclass
class SampleBatch:
    """Generated bitstrings plus provenance and per-sample timing."""

    M: int
    N: int
    bitstrings: np.ndarray
    method: str
    K: int
    seed: int
    wall_time: float = 0.0
    per_sample_mean: float = 0.0
    n_failed: int = 0
    n_flagged: int = 0
    # "<exception type>: <message>" of each worker chunk that raised
    worker_errors: list[str] = field(default_factory=list)


def gamma(kappa: SubsetTable, subset, bits) -> float:
    """kappa(subset) times the parity of the realized bits over the subset."""
    subset = tuple(sorted(int(k) for k in subset))
    bits = np.asarray(bits, dtype=int)
    sign = 1 - 2 * (int(bits[list(subset)].sum()) & 1)
    return kappa.value(subset) * sign


_STREAM_BLOCK = 64


def _stream_uniforms(seed: int, start: int, count: int, M: int) -> np.ndarray:
    """Uniforms for samples start..start+count-1, shape (count, M).

    Sample i reads row i mod 64 of the Philox stream keyed (seed, i // 64):
    a pure function of (seed, i, M), so output never depends on how samples
    are chunked over batches or workers.
    """
    out = np.empty((count, M))
    first = start // _STREAM_BLOCK
    last = (start + count - 1) // _STREAM_BLOCK
    for blk in range(first, last + 1):
        gen = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), blk]))
        rows = gen.random((_STREAM_BLOCK, M))
        lo = max(start, blk * _STREAM_BLOCK)
        hi = min(start + count, (blk + 1) * _STREAM_BLOCK)
        out[lo - start : hi - start] = rows[lo - blk * _STREAM_BLOCK : hi - blk * _STREAM_BLOCK]
    return out


def _sample_uniforms(seed: int, index: int, M: int) -> np.ndarray:
    """The M uniforms of sample `index`."""
    return _stream_uniforms(seed, index, 1, M)[0]


# ---------------------------------------------------------------------------
# Fast batched engine
# ---------------------------------------------------------------------------


class MarginalTables:
    """Dynamic-program arena for a batch of B in-flight samples.

    Arrays are laid out (length, slot, batch) so that the per-step sums
    reduce to dot products over contiguous slices: within an order the
    cumulant table is colexicographic, so all subsets contained in a
    prefix of the modes, or sharing a fixed top element, occupy
    contiguous runs.
    """

    def __init__(self, kappa: SubsetTable, config: SamplerConfig, batch: int):
        if config.method not in ("single_elision", "double_elision"):
            raise ValidationError("tables are only used by the chain methods")
        self.M = kappa.M
        self.K = min(config.K, self.M)
        if self.K > kappa.K:
            raise ValidationError(f"config K={config.K} exceeds table order {kappa.K}")
        self.cfg = config
        self.B = batch
        self.kv = kappa.values
        M, B = self.M, batch
        self.double = config.method == "double_elision"
        # binomials and pair-rank lookup tables
        self.C = np.zeros((M + 2, 7), dtype=np.int64)
        for n in range(M + 2):
            for k in range(7):
                self.C[n, k] = comb(n, k)
        self.off = {d: sum(comb(M, j) for j in range(1, d)) for d in range(1, self.K + 1)}
        self.IDX2 = np.zeros((M, M), dtype=np.int64)
        for i in range(M):
            for j in range(M):
                if i != j:
                    self.IDX2[i, j] = pair_rank(i, j)
        self.reset()

    def reset(self):
        M, B = self.M, self.B
        self.s = np.ones((M, B))
        self.bits = np.zeros((M, B), dtype=np.uint8)
        self.pref = np.ones((M + 1, B))
        self.pp = np.zeros((M, M, B))
        self.q1 = np.zeros((M, M, B))
        self.par2 = np.ones((self.C[M, 2], B)) if self.double else None
        self.q2 = np.zeros((M, self.C[M, 2], B)) if self.double else None
        self.flagged = np.zeros(B, dtype=bool)
        self.aborted = np.zeros(B, dtype=bool)

    # -- cumulant block views ------------------------------------------------

    def _k1(self, n: int) -> float:
        return float(self.kv[n])

    def _kblk(self, d: int, n: int) -> np.ndarray:
        """Order-d values of all subsets {... , n} with n as top element."""
        start = self.off[d] + self.C[n, d]
        return self.kv[start : start + self.C[n, d - 1]]

    # -- interval helpers ----------------------------------------------------

    def _upper(self, n: int) -> np.ndarray:
        """upper[i] = marginal over bits i+1..n-1 (1 when empty), i in [0, n-1]."""
        up = np.empty((n, self.B))
        if n >= 2:
            up[: n - 1] = self.pp[n - 1, 1:n]
        up[n - 1] = 1.0
        return up

    def _lower(self, l: int, n: int) -> np.ndarray:
        """lower[i - l] = marginal over bits l..i-1 for i in [l, n-1]."""
        lo = np.empty((n - l, self.B))
        lo[0] = 1.0
        if n - l > 1:
            lo[1:] = self.pp[l : n - 1, l]
        return lo

    # -- p-step --------------------------------------------------------------

    def step_probability_zero(self, n: int) -> np.ndarray:
        """Joint probability of (bit n = 0, realized prefix), order-K expansion."""
        s, B = self.s, self.B
        out = 0.5 * (1.0 + self._k1(n)) * self.pref[n]
        if n == 0 or self.K < 2:
            return out
        up = self._upper(n)
        g2 = self._kblk(2, n)[:, None] * s[:n]
        out += 0.25 * np.einsum("ib,ib->b", g2, self.q1[n - 1, :n])
        if self.K >= 3 and n >= 2:
            if self.double:
                np2 = self.C[n, 2]
                g3 = self._kblk(3, n)[:, None] * self.par2[:np2]
                out += 0.125 * np.einsum("ib,ib->b", g3, self.q2[n - 1, :np2])
            else:
                k3 = self._kblk(3, n)
                acc = np.zeros(B)
                for i in range(1, n):
                    w = (k3[self.C[i, 2] : self.C[i, 2] + i, None] * s[:i]) * s[i]
                    acc += up[i] * np.einsum("ib,ib->b", w, self.q1[i - 1, :i])
                out += 0.125 * acc
        if self.double and self.K >= 4 and n >= 3:
            k4 = self._kblk(4, n)
            acc = np.zeros(B)
            for i in range(2, n):
                w = k4[self.C[i, 3] : self.C[i, 3] + self.C[i, 2], None] * self.par2[: self.C[i, 2]]
                acc += up[i] * s[i] * np.einsum("ib,ib->b", w, self.q2[i - 1, : self.C[i, 2]])
            out += 0.0625 * acc
        if self.double and self.K >= 5 and n >= 4:
            k5 = self._kblk(5, n)
            acc = np.zeros(B)
            for i in range(3, n):
                base_i = self.C[i, 4]
                for j in range(2, i):
                    w = (
                        k5[base_i + self.C[j, 3] : base_i + self.C[j, 3] + self.C[j, 2], None]
                        * self.par2[: self.C[j, 2]]
                    )
                    mid = self.pp[i - 1, j + 1] if j + 1 <= i - 1 else 1.0
                    acc += (
                        up[i]
                        * mid
                        * s[i]
                        * s[j]
                        * np.einsum("ib,ib->b", w, self.q2[j - 1, : self.C[j, 2]])
                    )
            out += 0.03125 * acc
        return out

    # -- table updates (run after bit n is realized) ---------------------------

    def update_p_plus(self, n: int) -> None:
        s = self.s
        g1 = self._k1(n) * s[n]
        self.pp[n, n] = 0.5 * (1.0 + g1)
        if n == 0:
            return
        order = self.cfg.aux_orders[0]
        up = self._upper(n)
        g2 = (self._kblk(2, n)[:, None] * s[:n]) * s[n] if order >= 2 else None
        wj = None
        if order >= 3 and n >= 2:
            # wj[j] = sum_{i > j} gamma(j, i, n) * upper[i] * marginal(j+1 .. i-1)
            k3 = self._kblk(3, n)
            wj = np.zeros((n, self.B))
            for j in range(n - 1):
                idx = j + self.C[j + 1 : n, 2]
                mids = np.empty((n - 1 - j, self.B))
                mids[0] = 1.0
                if n - 2 - j > 0:
                    mids[1:] = self.pp[j + 1 : n - 1, j + 1]
                wj[j] = (
                    np.einsum("ib,ib->b", k3[idx, None] * s[j + 1 : n] * mids, up[j + 1 :])
                    * s[j]
                    * s[n]
                )
        for l in range(n):
            val = 0.5 * (1.0 + g1) * self.pp[n - 1, l]
            if order >= 2:
                lo = self._lower(l, n)
                val += 0.25 * np.einsum("ib,ib->b", g2[l:n], up[l:n] * lo)
                if wj is not None:
                    val += 0.125 * np.einsum("ib,ib->b", wj[l:n], lo)
            self.pp[n, l] = val

    def update_p1(self, n: int) -> None:
        s = self.s
        g1 = self._k1(n) * s[n]
        self.q1[n, n] = self.pref[n]
        if n == 0:
            return
        order = self.cfg.aux_orders[1]
        up = self._upper(n)
        g2 = (self._kblk(2, n)[:, None] * s[:n]) * s[n]
        if self.double:
            for e in range(n):
                val = 0.5 * (1.0 + g1) * self.q1[n - 1, e]
                if order >= 2:
                    gath = self.q2[n - 1, self.IDX2[e, :n]]
                    gath[e] = 0.0
                    val += 0.25 * np.einsum("ib,ib->b", g2, gath)
                if order >= 3 and n >= 2:
                    k3 = self._kblk(3, n)
                    if e >= 2:
                        w = k3[: self.C[e, 2], None] * self.par2[: self.C[e, 2]] * s[n]
                        val += (
                            0.125
                            * up[e]
                            * np.einsum("ib,ib->b", w, self.q2[e - 1, : self.C[e, 2]])
                        )
                    for i in range(e + 1, n):
                        w = (k3[self.C[i, 2] : self.C[i, 2] + i, None] * s[:i]) * (s[i] * s[n])
                        gath = self.q2[i - 1, self.IDX2[e, :i]]
                        gath[e] = 0.0
                        val += 0.125 * up[i] * np.einsum("ib,ib->b", w, gath)
                self.q1[n, e] = val
        else:
            for e in range(n):
                val = 0.5 * (1.0 + g1) * self.q1[n - 1, e]
                if order >= 2:
                    if e >= 1:
                        val += 0.25 * up[e] * np.einsum(
                            "ib,ib->b", g2[:e], self.q1[e - 1, :e]
                        )
                    if e + 1 < n:
                        val += 0.25 * np.einsum(
                            "ib,ib->b", g2[e + 1 :], up[e + 1 :] * self.q1[e : n - 1, e]
                        )
                self.q1[n, e] = val

    def update_p2(self, n: int) -> None:
        if not self.double:
            return
        s = self.s
        g1 = self._k1(n) * s[n]
        np2 = self.C[n, 2]
        # pairs whose top elision is n degrade to the single-elision row
        self.q2[n, np2 : np2 + n] = self.q1[n - 1, :n]
        if n == 0:
            return
        order = self.cfg.aux_orders[2]
        self.q2[n, :np2] = 0.5 * (1.0 + g1) * self.q2[n - 1, :np2]
        if order < 2:
            return
        up = self._upper(n)
        g2full = (self._kblk(2, n)[:, None] * s[:n]) * s[n]
        for e in range(1, n):
            for d in range(e):
                slot = d + self.C[e, 2]
                val = np.zeros(self.B)
                if e + 1 < n:  # i > e: split above i, pair {d, e} survives
                    val += np.einsum(
                        "ib,ib->b", g2full[e + 1 :], up[e + 1 :] * self.q2[e : n - 1, slot]
                    )
                if d >= 1:  # i < d: split above e, pair {i, d}
                    val += up[e] * np.einsum(
                        "ib,ib->b",
                        g2full[:d],
                        self.q2[e - 1, self.C[d, 2] : self.C[d, 2] + d],
                    )
                if e - d > 1:  # d < i < e: split above e, pair {d, i}
                    idx = d + self.C[d + 1 : e, 2]
                    val += up[e] * np.einsum(
                        "ib,ib->b", g2full[d + 1 : e], self.q2[e - 1, idx]
                    )
                self.q2[n, slot] += 0.25 * val

    def advance(self, n: int, bits_n: np.ndarray, q0: np.ndarray) -> None:
        """Record the realized bit, update the prefix and all tables."""
        self.bits[n] = bits_n
        self.s[n] = 1.0 - 2.0 * bits_n
        self.pref[n + 1] = np.where(bits_n == 0, q0, 1.0 - q0) * self.pref[n]
        if self.double:
            np2 = self.C[n, 2]
            self.par2[np2 : np2 + n] = self.s[:n] * self.s[n]
        self.update_p1(n)
        self.update_p2(n)
        self.update_p_plus(n)

    def run(self, uniforms: np.ndarray | None, forced: np.ndarray | None = None) -> None:
        """Run the chain for all M bits; draws from uniforms unless forced."""
        cfg = self.cfg
        for n in range(self.M):
            p0 = self.step_probability_zero(n)
            bad = ~np.isfinite(p0)
            if bad.any():
                self.aborted |= bad
                p0 = np.where(bad, 0.5 * self.pref[n], p0)
            denom = self.pref[n]
            dead = denom <= 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                q0 = np.clip(p0 / denom, 0.0, 1.0)
            if dead.any():
                self.flagged |= dead
                q0 = np.where(dead, 0.5 * (1.0 + self._k1(n)), q0)
            if cfg.clamp_epsilon > 0.0:
                q0 = np.clip(q0, cfg.clamp_epsilon, 1.0 - cfg.clamp_epsilon)
            if forced is not None:
                bits_n = forced[n].astype(np.uint8)
            else:
                bits_n = (uniforms[n] >= q0).astype(np.uint8)
            self.advance(n, bits_n, q0)


# ---------------------------------------------------------------------------
# Generic scalar engine (arbitrary expansion orders; cross-check oracle)
# ---------------------------------------------------------------------------


class ScalarChain:
    """Reference implementation supporting any K and aux orders up to M.

    Same update schedule and degenerate-elision conventions as the fast
    engine, written with plain dictionaries and loops.  At aux orders
    equal to M every update reduces to the untruncated expansion.
    """

    def __init__(self, kappa: SubsetTable, config: SamplerConfig):
        self.M = kappa.M
        self.K = min(config.K, self.M)
        if self.K > kappa.K:
            raise ValidationError(f"config K={config.K} exceeds table order {kappa.K}")
        self.cfg = config
        self.kappa = kappa
        self.double = config.method == "double_elision"
        self.bottom = 2 if self.double else 1
        self.reset()

    def reset(self):
        self.bits = np.zeros(self.M, dtype=np.uint8)
        self.sign = np.ones(self.M)
        self.pref = [1.0]
        self.pp = {}
        self.q1 = {}
        self.q2 = {}
        self.flagged = False

    def _gamma(self, members, n, virtual_zero: bool) -> float:
        subset = tuple(sorted(members + (n,)))
        sgn = 1.0 if virtual_zero else self.sign[n]
        for i in members:
            sgn *= self.sign[i]
        return float(self.kappa.values[subset_rank(subset, self.M, self.kappa.K)]) * sgn

    def _interval(self, a: int, b: int) -> float:
        return 1.0 if a > b else self.pp[(a, b)]

    def _resolve(self, t: int, elis: tuple[int, ...]) -> float:
        elis = tuple(sorted(elis, reverse=True))
        while elis and t >= 0 and elis[0] == t:
            elis = elis[1:]
            t -= 1
        if t < 0:
            return 1.0
        if not elis:
            return self.pref[t + 1]
        if len(elis) == 1:
            return self.q1[(t, elis[0])]
        return self.q2[(t, elis[1], elis[0])]

    def _anchored(self, top: int, D: tuple[int, ...]) -> float:
        """Approximate marginal over [0..top] minus the descending index set D."""
        q = len(D)
        if q <= self.bottom:
            return self._resolve(top, D)
        val = self._interval(D[0] + 1, top)
        for w in range(q - self.bottom - 1):
            val *= self._interval(D[w + 1] + 1, D[w] - 1)
        anchor = D[q - self.bottom - 1]
        val *= self._resolve(anchor - 1, D[q - self.bottom :])
        return val

    def step_probability_zero(self, n: int) -> float:
        out = 0.5 * (1.0 + self._gamma((), n, True)) * self.pref[n]
        for m in range(1, self.K):
            coef = 0.5 ** (m + 1)
            for comb_ in combinations(range(n), m):
                D = tuple(sorted(comb_, reverse=True))
                out += coef * self._gamma(comb_, n, True) * self._anchored(n - 1, D)
        return out

    def _update_pp(self, n: int) -> None:
        self.pp[(n, n)] = 0.5 * (1.0 + self._gamma((), n, False))
        order = self.cfg.aux_orders[0]
        for l in range(n):
            val = 0.5 * (1.0 + self._gamma((), n, False)) * self._interval(l, n - 1)
            for m in range(1, order):
                coef = 0.5 ** (m + 1)
                for comb_ in combinations(range(l, n), m):
                    D = tuple(sorted(comb_, reverse=True))
                    piece = self._interval(D[0] + 1, n - 1)
                    for w in range(m - 1):
                        piece *= self._interval(D[w + 1] + 1, D[w] - 1)
                    piece *= self._interval(l, D[m - 1] - 1)
                    val += coef * self._gamma(comb_, n, False) * piece
            self.pp[(l, n)] = val

    def _update_q1(self, n: int) -> None:
        self.q1[(n, n)] = self.pref[n]
        order = self.cfg.aux_orders[1]
        for e in range(n):
            val = 0.5 * (1.0 + self._gamma((), n, False)) * self._resolve(n - 1, (e,))
            for m in range(1, order):
                coef = 0.5 ** (m + 1)
                for comb_ in combinations([i for i in range(n) if i != e], m):
                    D = tuple(sorted(comb_ + (e,), reverse=True))
                    val += coef * self._gamma(comb_, n, False) * self._anchored(n - 1, D)
            self.q1[(n, e)] = val

    def _update_q2(self, n: int) -> None:
        if not self.double:
            return
        for d in range(n):
            self.q2[(n, d, n)] = self._resolve(n - 1, (d,))
        order = self.cfg.aux_orders[2]
        for e in range(1, n):
            for d in range(e):
                val = 0.5 * (1.0 + self._gamma((), n, False)) * self._resolve(n - 1, (d, e))
                for m in range(1, order):
                    coef = 0.5 ** (m + 1)
                    pool = [i for i in range(n) if i not in (d, e)]
                    for comb_ in combinations(pool, m):
                        D = tuple(sorted(comb_ + (d, e), reverse=True))
                        val += coef * self._gamma(comb_, n, False) * self._anchored(n - 1, D)
                self.q2[(n, d, e)] = val

    def advance(self, n: int, bit: int, q0: float) -> None:
        self.bits[n] = bit
        self.sign[n] = 1.0 - 2.0 * bit
        self.pref.append((q0 if bit == 0 else 1.0 - q0) * self.pref[n])
        self._update_q1(n)
        self._update_q2(n)
        self._update_pp(n)

    def run(self, uniforms=None, forced=None) -> None:
        for n in range(self.M):
            p0 = self.step_probability_zero(n)
            denom = self.pref[n]
            if denom <= 0.0:
                self.flagged = True
                q0 = 0.5 * (1.0 + float(self.kappa.values[n]))
            else:
                q0 = min(max(p0 / denom, 0.0), 1.0)
            eps = self.cfg.clamp_epsilon
            if eps > 0.0:
                q0 = min(max(q0, eps), 1.0 - eps)
            bit = int(forced[n]) if forced is not None else int(uniforms[n] >= q0)
            self.advance(n, bit, q0)


def _fast_supported(config: SamplerConfig) -> bool:
    if config.method == "single_elision":
        pp, p1, _ = config.aux_orders
        return config.K <= 3 and pp <= 2 and p1 <= 2
    pp, p1, p2 = config.aux_orders
    return config.K <= 5 and pp <= 3 and p1 <= 3 and p2 <= 2


def chain_joint_probability(kappa: SubsetTable, bits, config: SamplerConfig) -> float:
    """Model joint probability of a fixed bitstring under the chain rule."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape != (kappa.M,):
        raise ValidationError(f"bitstring must have length {kappa.M}")
    if _fast_supported(config):
        tables = MarginalTables(kappa, config, batch=1)
        tables.run(None, forced=bits[:, None])
        return float(tables.pref[kappa.M][0])
    chain = ScalarChain(kappa, config)
    chain.run(forced=bits)
    return float(chain.pref[kappa.M])


# ---------------------------------------------------------------------------
# Batch generation
# ---------------------------------------------------------------------------


def aux_values_per_sample(M: int, method: str) -> int:
    """Marginal-table values held per in-flight sample.

    Prefix + interval + single-elision tables are O(M^2); the pair-elision
    history adds choose(M+1, 3) values for the double method.
    """
    base = (M + 1) + 2 * (M * (M + 1) // 2)
    if method == "double_elision":
        base += comb(M + 1, 3)
    return base


def _auto_batch(M: int, double: bool) -> int:
    budget = 1 << 25
    if double:
        return int(min(1024, max(8, budget // max(M * M * (M + 4), 1))))
    return int(min(4096, max(8, budget // max(2 * M * M, 1))))


def _chunk_chain(kappa: SubsetTable, config: SamplerConfig, start: int, stop: int):
    """Generate samples start..stop-1; returns bits plus flag/abort counts."""
    M = kappa.M
    n = stop - start
    out = np.empty((n, M), dtype=np.uint8)
    flagged = 0
    aborted = np.zeros(n, dtype=bool)
    if _fast_supported(config):
        B = config.batch_size or _auto_batch(M, config.method == "double_elision")
        tables = None
        for s0 in range(0, n, B):
            b = min(B, n - s0)
            if tables is None or tables.B != b:
                tables = MarginalTables(kappa, config, batch=b)
            else:
                tables.reset()
            u = np.ascontiguousarray(_stream_uniforms(config.seed, start + s0, b, M).T)
            tables.run(u)
            out[s0 : s0 + b] = tables.bits.T
            flagged += int(tables.flagged.sum())
            aborted[s0 : s0 + b] = tables.aborted
    else:
        for t in range(n):
            chain = ScalarChain(kappa, config)
            chain.run(uniforms=_sample_uniforms(config.seed, start + t, M))
            out[t] = chain.bits
            flagged += int(chain.flagged)
    return out, flagged, aborted


_POOL_STATE: dict = {}


def _pool_init(kappa_values, M, K, config):
    _POOL_STATE["kappa"] = SubsetTable(M=M, K=K, values=kappa_values, kind="cumulant")
    _POOL_STATE["config"] = config


def _pool_chunk(args):
    start, stop = args
    out, flagged, aborted = _chunk_chain(_POOL_STATE["kappa"], _POOL_STATE["config"], start, stop)
    return start, out, flagged, aborted


def sample_one(kappa: SubsetTable, config: SamplerConfig, index: int = 0) -> np.ndarray:
    """Generate the bitstring of sample `index` of the configured stream."""
    bits, _, aborted = _chunk_chain(kappa, config, index, index + 1)
    if aborted[0]:
        raise ValidationError("sample aborted: non-finite table values")
    return bits[0]


def sample_single_elision(kappa: SubsetTable, config: SamplerConfig, index: int = 0) -> np.ndarray:
    """Single-elision variant of :func:`sample_one` (order-3 recursion set)."""
    cfg = replace(config, method="single_elision", K=min(config.K, 3), aux_orders=(2, 2, 0))
    return sample_one(kappa, cfg, index)


def exact_reference_sampler(inst: GaussianInstance, config: SamplerConfig) -> SampleBatch:
    """Inverse-CDF draws from the exact distribution (M <= 20)."""
    M = inst.M
    if M > EXACT_REFERENCE_MAX_MODES:
        raise ResourceGuardError(f"exact reference sampler refused for M={M}")
    t0 = time.perf_counter()
    cdf = np.cumsum(brute_force_distribution(inst))
    cdf[-1] = 1.0
    u = _stream_uniforms(config.seed, 0, config.N, 1)[:, 0] if config.N else np.empty(0)
    codes = np.minimum(np.searchsorted(cdf, u, side="right"), 2**M - 1)
    shifts = np.arange(M - 1, -1, -1, dtype=np.int64)
    bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    wall = time.perf_counter() - t0
    return SampleBatch(
        M=M, N=config.N, bitstrings=bits, method="exact_reference", K=0,
        seed=config.seed, wall_time=wall,
        per_sample_mean=wall / config.N if config.N else 0.0,
    )


def batch_sample(
    config: SamplerConfig,
    kappa: SubsetTable | None = None,
    inst: GaussianInstance | None = None,
) -> SampleBatch:
    """Generate N samples; chain methods need the cumulant table.

    Sample i is drawn from stream (seed, i) regardless of how samples are
    chunked over workers, so the output is byte-identical for any worker
    count.  Aborted samples (non-finite table values) are dropped and
    counted; the batch is then partial.
    """
    if config.method == "exact_reference":
        if inst is None:
            raise ValidationError("exact_reference needs the instance")
        return exact_reference_sampler(inst, config)
    if kappa is None:
        raise ValidationError("chain methods need the cumulant table")
    M = kappa.M
    t0 = time.perf_counter()
    bits = np.empty((config.N, M), dtype=np.uint8)
    aborted = np.zeros(config.N, dtype=bool)
    flagged = 0
    worker_errors = []
    if config.N > 0:
        if config.workers <= 1:
            bits, flagged, aborted = _chunk_chain(kappa, config, 0, config.N)
        else:
            # two chunks per worker (samples cost the same); chunks batch internally
            chunk = max(32, -(-config.N // (config.workers * 2)))
            tasks = [(s, min(s + chunk, config.N)) for s in range(0, config.N, chunk)]
            with ProcessPoolExecutor(
                max_workers=config.workers,
                initializer=_pool_init,
                initargs=(kappa.values, kappa.M, kappa.K, config),
            ) as ex:
                futures = {ex.submit(_pool_chunk, t): t for t in tasks}
                for fut, (s, e) in futures.items():
                    try:
                        start, out, fl, ab = fut.result()
                        bits[start : start + out.shape[0]] = out
                        flagged += fl
                        aborted[start : start + out.shape[0]] = ab
                    except Exception as exc:
                        worker_errors.append(f"{type(exc).__name__}: {exc}")
                        aborted[s:e] = True
    keep = ~aborted
    bits = bits[keep]
    wall = time.perf_counter() - t0
    n_ok = int(keep.sum())
    return SampleBatch(
        M=M, N=n_ok, bitstrings=bits, method=config.method, K=config.K,
        seed=config.seed, wall_time=wall,
        per_sample_mean=wall / max(n_ok, 1),
        n_failed=int(config.N - n_ok), n_flagged=flagged, worker_errors=worker_errors,
    )


# ---------------------------------------------------------------------------
# Sample file formats
# ---------------------------------------------------------------------------

_TEXT_HEADER = "# gbs-samples v1"
_PACKED_MAGIC = b"GBSS"


def save_samples_text(path, batch: SampleBatch) -> None:
    header = (
        f"{_TEXT_HEADER} M={batch.M} N={batch.N} method={batch.method} "
        f"K={batch.K} seed={batch.seed}\n"
    )
    bits = batch.bitstrings
    body = np.full((bits.shape[0], bits.shape[1] + 1), ord("\n"), dtype=np.uint8)
    body[:, :-1] = bits != 0
    body[:, :-1] += ord("0")
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(body)


def load_samples_text(path) -> SampleBatch:
    # a byte that is not UTF-8 decodes to one lone surrogate character, which
    # fails the header check or the 0/1 check of its sample line
    text = Path(path).read_bytes().decode("utf-8", "surrogateescape").splitlines()
    if (not text or not text[0].startswith(_TEXT_HEADER)
            or any("\udc80" <= ch <= "\udcff" for ch in text[0])):
        raise ValidationError(f"{path} is not a samples file")
    meta = {}
    for kv in text[0][len(_TEXT_HEADER) :].split():
        key, sep, val = kv.partition("=")
        if not sep:
            raise ValidationError(f"{path}: header token {kv!r} is not key=value")
        meta[key] = val
    try:
        M, N = int(meta["M"]), int(meta["N"])
        K, seed = int(meta.get("K", 0)), int(meta.get("seed", 0))
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"{path}: header needs integer M=, N=, K=, seed=: {exc}") from exc
    if M < 1 or N < 0:
        raise ValidationError(f"{path}: header has M={M}, N={N}")
    rows = [line for line in text[1:] if line]
    if len(rows) != N:
        raise ValidationError(f"{path}: expected {N} samples, found {len(rows)}")
    # rows before the first one of the wrong length are parsed in one piece;
    # latin-1 with replacement keeps one byte per character
    wrong_length = np.fromiter(map(len, rows), dtype=np.int64, count=N) != M
    n_ok = int(np.argmax(wrong_length)) if wrong_length.any() else N
    chars = np.frombuffer(
        "".join(rows[:n_ok]).encode("latin-1", "replace"), dtype=np.uint8
    ).reshape(n_ok, M)
    bits = chars - ord("0")  # uint8: every character but 0 and 1 maps above 1
    bad = (bits > 1).any(axis=1)
    if bad.any() or n_ok < N:
        i = int(np.argmax(bad)) if bad.any() else n_ok
        raise ValidationError(f"{path}: bad sample line {i + 1}")
    return SampleBatch(
        M=M, N=N, bitstrings=bits, method=meta.get("method", "?"), K=K, seed=seed,
    )


def save_samples_packed(path, batch: SampleBatch) -> None:
    import struct

    header = _PACKED_MAGIC + struct.pack("<IIQ", 1, batch.M, batch.N)
    packed = np.packbits(batch.bitstrings, axis=1, bitorder="little")
    Path(path).write_bytes(header + packed.tobytes())


def load_samples_packed(path) -> SampleBatch:
    import struct

    data = Path(path).read_bytes()
    if data[:4] != _PACKED_MAGIC:
        raise ValidationError(f"{path} is not a packed samples file")
    if len(data) < 20:
        raise ValidationError(f"{path}: packed header truncated ({len(data)} of 20 bytes)")
    version, M, N = struct.unpack("<IIQ", data[4:20])
    if version != 1:
        raise ValidationError(f"unsupported packed samples version {version}")
    width = -(-M // 8)
    if len(data) - 20 != N * width:
        raise ValidationError(
            f"{path}: expected {N * width} payload bytes for N={N}, M={M}, "
            f"found {len(data) - 20}"
        )
    body = np.frombuffer(data[20:], dtype=np.uint8).reshape(N, width)
    bits = np.unpackbits(body, axis=1, bitorder="little")[:, :M]
    return SampleBatch(M=int(M), N=int(N), bitstrings=bits, method="?", K=0, seed=0)


def load_samples(path) -> SampleBatch:
    """Dispatch on file content: packed magic or text header."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    return load_samples_packed(path) if magic == _PACKED_MAGIC else load_samples_text(path)
