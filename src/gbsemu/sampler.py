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

``MarginalTables``, the one engine ``batch_sample`` runs, draws a batch of
samples at once (its tables carry a trailing column axis), so the
per-sample Python overhead is amortized; it holds only the rules above.
``ScalarChain`` follows the same schedule at any order, one sample at a
time: it is the tests' oracle and ``chain_joint_probability``'s fallback.

Randomness is counter-based: the uniforms of sample i are the first M doubles
of ``Generator(Philox(key=seed mod 2**64, counter=i * ceil(M / 4)))``, so
batches are reproducible and independent of worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from .errors import ResourceGuardError, ValidationError
from .cumulants import SubsetTable
from .gaussian import (
    BRUTE_FORCE_MAX_MODES,
    GaussianInstance,
    brute_force_distribution,
    outcome_bits,
)
from .subsets import binomials, dense_rank, order_offset, subset_rank

METHODS = ("single_elision", "double_elision", "exact_reference")

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

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.N < 0 or self.workers < 1:
            raise ValidationError("N must be >= 0 and workers >= 1")
        if self.K < 2:
            raise ValidationError(
                f"truncation order K={self.K} must be at least 2 for {self.method}")
        if self.method == "exact_reference":
            if self.aux_orders is not None or self.clamp_epsilon or self.workers > 1:
                raise ValidationError(
                    "exact_reference takes no aux orders or clamp epsilon, and one worker")
        else:
            aux = self.aux_orders
            if aux is None:
                aux = tuple(min(a, self.K) for a in _DEFAULT_AUX[self.method])
            if len(aux) != 3 or any(not 0 <= a <= self.K for a in aux):
                raise ValidationError(f"aux orders {aux} must be three values in [0, K]")
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
    # conditionals p0 / pref clipped into [0, 1], and the largest distance clipped
    n_clipped: int = 0
    max_clip_excursion: float = 0.0
    # "<exception type>: <message>" of each worker range that raised
    worker_errors: list[str] = field(default_factory=list)
    # column-steps the chain computed (N * M without prefix sharing);
    # samples restarted in a later table run, for want of a free column or
    # because they left the previous run's trie; and samples whose bits came
    # from a finished run's trie
    table_columns: int = 0
    n_deferred: int = 0
    n_routed: int = 0
    # float64 values MarginalTables held per column (:func:`aux_values_per_sample`);
    # 0 for exact_reference
    aux_values_per_sample: int = 0


def _stream_uniforms(seed: int, start: int, count: int, M: int) -> np.ndarray:
    """Uniforms for samples start..start+count-1, shape (count, M), from one generator.

    Sample i reads the first M doubles from Philox counter i * ceil(M / 4):
    a pure function of (seed, i, M), so output never depends on how samples
    are chunked over batches or workers.
    """
    words = -(-M // 4)  # Philox counter steps per sample, 4 doubles each
    gen = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1), counter=start * words))
    return gen.random((count, 4 * words))[:, :M]


# per-column outcomes of a chain run besides its tables, and their dtypes
_SAMPLE_STATE = {"flagged": bool, "aborted": bool, "n_clipped": np.int64,
                 "max_clip_excursion": float}


def _conditional(p0, pref, kappa_n: float, eps: float, state) -> np.ndarray:
    """q0 = p0 / pref, the probability that the next bit is 0, as both engines draw it.

    `p0` and `pref` are per column; `state` holds the _SAMPLE_STATE arrays
    of those columns, updated in place.  A non-finite p0 aborts its column,
    which goes on from p0 = pref / 2.  pref <= 0 flags the column, whose q0
    is then (1 + kappa_n) / 2.  Otherwise a ratio outside [0, 1] is clipped,
    counted in ``n_clipped`` and its distance kept in
    ``max_clip_excursion``.  Last, q0 is clamped into [eps, 1 - eps].
    """
    bad = ~np.isfinite(p0)
    if bad.any():
        state.aborted |= bad
        p0 = np.where(bad, 0.5 * pref, p0)
    dead = np.asarray(pref) <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(p0, pref)
    q0 = np.clip(ratio, 0.0, 1.0)
    excursion = np.where(dead, 0.0, np.maximum(ratio - 1.0, -ratio))
    clipped = excursion > 0.0
    if clipped.any():
        state.n_clipped += clipped
        np.maximum(state.max_clip_excursion, np.where(clipped, excursion, 0.0),
                   out=state.max_clip_excursion)
    if dead.any():
        state.flagged |= dead
        q0 = np.where(dead, 0.5 * (1.0 + kappa_n), q0)
    if eps > 0.0:
        q0 = np.clip(q0, eps, 1.0 - eps)
    return q0


# ---------------------------------------------------------------------------
# Batched engine
# ---------------------------------------------------------------------------


def _row_blocks(M: int, K: int, aux):
    """Sizes and starts of the parts of block h of ``R``, and the end of each block.

    Returns ``(size, start, end)``: ``size[part][h]`` and ``start[part][h]``
    for the parts T1, T2, T3, V1, V2 in that order, and ``end[h]``, where
    block h ends and block h+1 starts.  Block h (2 <= h < M) holds the
    contractions of the finished q2 row h-1 (see MarginalTables): the T rows
    of uppers {n} for n >= h, {h, n} for n > h and {h, i, n} for
    h < i < n, ordered by n and then i, so (i, n) sits at
    C(n-h-1, 2) + i-h-1 in its part; then the V rows of uppers {n} and
    {h, n}, with h values each.  A part is empty where K or the aux orders
    never read it, and blocks 0 and 1 are empty.
    """
    h = np.arange(M)
    ones = np.where(h >= 2, M - h, 0)  # uppers {n}, n >= h
    pairs = np.maximum(ones - 1, 0)  # uppers {h, n}, n > h
    size = {
        "T1": ones * (K >= 3),
        "T2": pairs * (K >= 4),
        "T3": binomials(M)[2][pairs] * (K >= 5),
        "V1": ones * h * (aux[1] >= 2 or aux[2] >= 2),
        "V2": pairs * h * (aux[1] >= 3),
    }
    ends = np.cumsum(np.stack(list(size.values()), axis=1)).reshape(M, len(size))
    start = {part: ends[:, k] - size[part] for k, part in enumerate(size)}
    return size, start, ends[:, -1]


def _column_layout(M: int, K: int, method: str, aux) -> dict[str, tuple[tuple, np.ndarray]]:
    """Every float column array MarginalTables holds: its shape and written rows.

    Maps each name to its shape without the column axis and to the number
    of leading rows written before step n, indexed by n; the rows past them
    are written before they are read, so a new column copies only these
    from its parent.  Some of these ranges also cover rows that are never
    written; those hold the same value in every column.

    ``q0[n]`` is the conditional the column drew bit n with, and ``P[a, b]``
    the interval marginal over bits b..a-1 (``pp`` is ``P[1:]``).  The
    double method adds the pair signs, the packed q2 rows
    (row t starts at C(t+1, 3)) and ``R``, the blocks of ``_row_blocks``
    (block h is written at step h-1); ``q2`` and ``R`` end in one
    always-zero slot that gathers use for absent pairs.
    """
    n = np.arange(M)
    layout = {"s": ((M,), n), "q0": ((M,), n), "pref": ((M + 1,), n + 1),
              "P": ((M + 1, M + 1), n + 1), "q1": ((M, M), n)}
    if method != "double_elision":
        return layout
    C = binomials(M).T
    end = _row_blocks(M, K, aux)[2]
    layout.update(par2=((comb(M, 2),), C[n, 2]), q2=((comb(M + 1, 3) + 1,), C[n + 1, 3]),
                  R=((end[-1] + 1,), end))
    if aux[2] >= 2:
        layout["work"] = ((comb(M, 2),), 0 * n)  # scratch of q2's row loop
    return layout


class MarginalTables:
    """Dynamic-program arena whose columns are distinct realized prefixes.

    The conditional at step n and every table entry it reads depend only on
    the realized prefix s_0..s_{n-1}; the uniforms only choose the next bit.
    So ``run`` keeps one column per distinct prefix, not one per sample: all
    samples start in column 0, and when a column's samples draw both bits
    at step n, the bit-0 samples keep the column and the bit-1 samples move
    to a new column, a copy of the rows written before step n.  A sample
    whose new prefix finds no free column (the width ``batch`` is full) is
    deferred: ``run`` marks it -1, and the caller restarts it later.

    A finished run is a read-only prefix trie: each column keeps the
    conditional it drew every bit with (``q0``), and ``succ[b, n, c]``
    names the column that a sample of column c moves to on drawing bit b at
    step n: c itself, the column that forked from c, or -1 where no sample
    of the run went that way.  Its last column is a sink whose successors
    are all -1, so index -1 reaches it.  ``route`` walks fresh samples down
    the trie, so only the samples that leave it need a run of their own.

    Every array carries a trailing column axis allocated once at the full
    width; the updates run on views of the live columns, and every
    contraction runs through ``np.einsum`` or elementwise ufuncs with that
    axis innermost, so each column's values do not depend on the width, on
    its position or on the other columns.  At least two columns are
    computed: with one live prefix the second column follows the all-zero
    prefix, because at width 1 einsum's reductions take a different
    summation order.  No BLAS call is made: matmul results depend on the
    width.

    Double elision: the q2 row of step h-1 is final once ``update_p2(h-1)``
    ends, and that call contracts it once with kappa for every later step,
    by two relayouts per finished row, into block h of ``R``:

    * T rows, with uppers U = {n}, {h, n} or {h, i, n}:
      sum_p kappa(p+U) par2[p] q2[h-1, p]
    * V rows, with uppers U = {n} or {h, n}, one value per x < h:
      sum_o kappa({o}+U) s_o q2[h-1, {x, o}]

    Later p-steps and q1/q2 updates read O(n^2) of these values through
    gathers planned once per table; gathers for h < 2 read ``R``'s zero
    slot.  Only q2's split-above-i term still walks the stored rows,
    because its weight changes with n.
    """

    def __init__(self, kappa: SubsetTable, config: SamplerConfig, batch: int):
        if config.method not in ("single_elision", "double_elision"):
            raise ValidationError("tables are only used by the chain methods")
        if not _fast_supported(config, kappa.M):
            raise ValidationError(
                f"{config.method} at K={config.K}, aux orders {config.aux_orders} "
                "is beyond the rules these tables hold"
            )
        _check_table(kappa, config)
        self.M = kappa.M
        self.K = min(config.K, self.M)
        self.cfg = config
        self.kv = kappa.values
        M = self.M
        self.double = config.method == "double_elision"
        self.C = binomials(M).T  # C[n, k] = comb(n, k)
        # k2[n][j] = kappa({j, n}) for j < n
        bounds = dense_rank([np.arange(M + 1)], M, start=1).tolist()
        self.k2 = [self.kv[bounds[n] : bounds[n + 1]] for n in range(M)]
        self.layout = _column_layout(M, self.K, config.method, config.aux_orders)
        # K3sq[n][j, i] = kappa({j, i, n}) for j < i < n, 0 elsewhere
        self.K3sq = {}
        if self.K >= 3:
            for n in range(2, M):
                j, i = np.triu_indices(n, 1)
                sq = np.zeros((n, n))
                sq[j, i] = self.kv[dense_rank((j, i, n), M)]
                self.K3sq[n] = sq
        if self.double:
            self._plan_double()
        # full-width arrays are held as _<name>; <name> is the view of the live columns
        self.W = max(batch, 2)
        arrays = {name: np.zeros(shape + (self.W,)) for name, (shape, _) in self.layout.items()}
        arrays.update({name: np.zeros(self.W, dtype) for name, dtype in _SAMPLE_STATE.items()})
        for name, full in arrays.items():
            setattr(self, "_" + name, full)
        self._columns = tuple(arrays)
        self.succ = np.full((2, M, self.W + 1), -1, dtype=np.int64)
        diag = np.arange(M + 1)
        self._P[diag, diag] = 1.0  # empty intervals
        self._pref[0] = 1.0
        self.B = 0
        self._set_width(2)

    def _kmat(self, uppers, r: int, ncols: int) -> np.ndarray:
        """kappa({lower r-subset of colex rank c} + uppers[row]) as a (rows, ncols) array."""
        up = np.asarray(uppers, dtype=np.int64)
        return self.kv[dense_rank(up.T, self.M, start=r)[:, None] + np.arange(ncols)]

    def _plan_double(self) -> None:
        """kappa relayouts for the row contractions and the per-step gathers."""
        M, C, aux = self.M, self.C, self.cfg.aux_orders
        size, start, end = _row_blocks(M, self.K, aux)
        zero = end[-1]  # R's always-zero slot
        self.t_rows, self.v_rows, self.sidx = {}, {}, {}
        for h in range(2, M):
            ones = [(n,) for n in range(h, M)]
            pairs = [(h, n) for n in range(h + 1, M)]
            triples = [(h, i, n) for n in range(h + 2, M) for i in range(h + 1, n)]
            t = [self._kmat(up, 2, C[h, 2])
                 for part, up in (("T1", ones), ("T2", pairs), ("T3", triples)) if size[part][h]]
            if t:
                self.t_rows[h] = (start["T1"][h], np.concatenate(t))
            v = [self._kmat(up, 1, h)
                 for part, up in (("V1", ones), ("V2", pairs)) if size[part][h]]
            if v:
                self.v_rows[h] = (start["V1"][h], np.concatenate(v))
                # q2 row h-1 holds the pair {x, o} at the colex rank of {x, o, h}
                x = np.arange(h)
                pair = (np.minimum.outer(x, x), np.maximum.outer(x, x), h)
                sq = dense_rank(pair, M) - order_offset(M, 3)
                sq[np.diag_indices(h)] = comb(M + 1, 3)  # q2's zero slot
                self.sidx[h] = sq
        # per-step gathers, in closed form from the block starts
        self.t1 = start["T1"]
        self.t1col, self.p4, self.p5, self.sq2, self.v1pairs = {}, {}, {}, {}, {}
        for n in range(2, M):
            h = np.arange(n)
            if self.K >= 4 and n >= 3:
                self.p4[n] = start["T2"][2:n] + n - h[2:] - 1
            if self.K >= 5 and n >= 4:
                i, j = np.tril_indices(n - 2, -1)
                i, j = i + 2, j + 2
                t3 = start["T3"][j] + C[n - j - 1, 2] + i - j - 1
                self.p5[n] = (i + 1, i * (M + 1) + j + 1, j + C[i, 2], t3)
            if aux[1] >= 3:
                self.t1col[n] = np.where(h >= 2, start["T1"][h] + n - h, zero)
                e, i = np.ogrid[:n, :n]
                sq = start["V2"][h] + (n - i - 1) * i + e
                self.sq2[n] = np.where((e < i) & (i >= 2), sq, zero)
            if aux[2] >= 2:
                e, d = np.tril_indices(n, -1)
                v1 = start["V1"][e] + (n - e) * e + d
                self.v1pairs[n] = (np.where(e >= 2, v1, zero), e + 1)

    def _set_width(self, width: int) -> None:
        """Point every column array at its first `width` columns."""
        if width == self.B:
            return
        self.B = width
        for name in self._columns:
            setattr(self, name, getattr(self, "_" + name)[..., :width])
        self.pp = self.P[1:]

    def _fork(self, n: int, parents: np.ndarray, first: int) -> None:
        """Copy columns `parents`, as they stand before step n, to columns first, first+1, ..."""
        new = slice(first, first + parents.size)
        for name, (_, rows) in self.layout.items():
            full = getattr(self, "_" + name)
            full[: rows[n], ..., new] = full[: rows[n], ..., parents]
        for name in _SAMPLE_STATE:
            full = getattr(self, "_" + name)
            full[new] = full[parents]

    def q2_row(self, t: int) -> np.ndarray:
        """q2[t] as a (C(t+1, 2), B) view: pair {d, e}, d < e <= t, at d + C(e, 2)."""
        start = self.C[t + 1, 3]
        return self.q2[start : start + self.C[t + 1, 2]]

    # -- cumulant block views ------------------------------------------------

    def _k1(self, n: int) -> float:
        return float(self.kv[n])

    # -- p-step --------------------------------------------------------------

    def step_probability_zero(self, n: int) -> np.ndarray:
        """Joint probability of (bit n = 0, realized prefix), order-K expansion."""
        s = self.s
        out = 0.5 * (1.0 + self._k1(n)) * self.pref[n]
        if n == 0 or self.K < 2:
            return out
        g2 = self.k2[n][:, None] * s[:n]
        out += 0.25 * np.einsum("ib,ib->b", g2, self.q1[n - 1, :n])
        if self.K < 3 or n < 2:
            return out
        up = self.P[n, 1 : n + 1]  # up[i]: marginal over bits i+1..n-1
        if not self.double:
            # sum_{j < i < n} kappa(j, i, n) s_j s_i q1[i-1, j] up[i]
            sq1 = self.q1[: n - 1, : n - 1] * s[: n - 1]
            y = np.einsum("ji,ijb->ib", self.K3sq[n][: n - 1, 1:n], sq1)
            return out + 0.125 * np.einsum("ib,ib,ib->b", y, up[1:], s[1:n])
        out += 0.125 * self.R[self.t1[n]]
        if self.K >= 4 and n >= 3:
            out += 0.0625 * np.einsum("ib,ib,ib->b", up[2:], s[2:n], self.R[self.p4[n]])
        if self.K >= 5 and n >= 4:
            upi, mid, par, t3 = self.p5[n]
            w = self.P[n][upi] * self.P.reshape(-1, self.B)[mid] * self.par2[par]
            out += 0.03125 * np.einsum("qb,qb->b", w, self.R[t3])
        return out

    # -- table updates (run after bit n is realized) ---------------------------

    def update_p_plus(self, n: int) -> None:
        s, P = self.s, self.P
        a = 0.5 * (1.0 + self._k1(n) * s[n])
        P[n + 1, n] = a
        if n == 0:
            return
        order = self.cfg.aux_orders[0]
        val = a * P[n, :n]
        if order >= 2:
            up = P[n, 1 : n + 1]
            c = 0.25 * (self.k2[n][:, None] * s[:n] * s[n]) * up
            if order >= 3 and n >= 2:
                # w[j] = sum_{i > j} gamma(j, i, n) * up[i] * marginal(j+1 .. i-1)
                w = np.einsum("ji,ib,ijb->jb", self.K3sq[n], s[:n] * up, P[:n, 1 : n + 1])
                c += 0.125 * w * s[:n] * s[n]
            # P[i, l] (bits l..i-1) is 0 for l > i, so each l sums over i >= l
            val += np.einsum("ilb,ib->lb", P[:n, :n], c)
        P[n + 1, :n] = val

    def update_p1(self, n: int) -> None:
        s = self.s
        self.q1[n, n] = self.pref[n]
        if n == 0:
            return
        order = self.cfg.aux_orders[1]
        val = 0.5 * (1.0 + self._k1(n) * s[n]) * self.q1[n - 1, :n]
        up = self.P[n, 1 : n + 1]
        if self.double:
            # R has no block 1: at n = 1 the V1 term is zero
            if order >= 2 and n >= 2:
                start = self.v_rows[n][0]
                val += 0.25 * s[n] * self.R[start : start + n]
            if order >= 3 and n >= 2:
                acc = up * self.R[self.t1col[n]]
                acc += np.einsum("eib,ib->eb", self.R[self.sq2[n]], up * s[:n])
                val += 0.125 * s[n] * acc
        elif order >= 2:
            # q1[t, i] is 0 for i > t, which bounds both sums
            g2 = (self.k2[n][:, None] * s[:n]) * s[n]
            q1 = self.q1[: n - 1, : n - 1]
            val[1:] += 0.25 * up[1:] * np.einsum("ib,eib->eb", g2[: n - 1], q1)
            val[: n - 1] += 0.25 * np.einsum("ib,ieb->eb", (g2 * up)[1:], q1)
        self.q1[n, :n] = val

    def update_p2(self, n: int) -> None:
        if not self.double:
            return
        s, C = self.s, self.C
        row = self.q2_row(n)
        np2 = C[n, 2]
        # pairs whose top elision is n degrade to the single-elision row
        row[np2:] = self.q1[n - 1, :n]
        if n >= 2:
            decay = 0.5 * (1.0 + self._k1(n) * s[n]) * self.q2_row(n - 1)
            if self.cfg.aux_orders[2] < 2:
                row[:np2] = decay
            else:
                up = self.P[n, 1 : n + 1]
                # o != d below e: split above e, the pair {d, o} of row e-1
                v1, e1 = self.v1pairs[n]
                acc = self.P[n][e1] * s[n] * self.R[v1]
                # i > e: split above i, pair {d, e} survives in row i-1
                w = (self.k2[n][:, None] * s[:n]) * s[n] * up
                for i in range(2, n):
                    m = C[i, 2]
                    np.multiply(self.q2_row(i - 1), w[i], out=self.work[:m])
                    acc[:m] += self.work[:m]
                acc *= 0.25
                np.add(decay, acc, out=row[:np2])
        self._contract_row(n)

    def _contract_row(self, t: int) -> None:
        """Contract the finished q2 row t with kappa into block t+1 of R."""
        h = t + 1
        if h in self.t_rows:
            start, kmat = self.t_rows[h]
            z = self.par2[: self.C[h, 2]] * self.q2_row(t)
            np.einsum("np,pb->nb", kmat, z, out=self.R[start : start + len(kmat)])
        if h in self.v_rows:
            # S[x, o] = s_o q2[t, {x, o}], 0 at o = x
            S = self.q2[self.sidx[h]] * self.s[:h]
            start, kmat = self.v_rows[h]
            out = self.R[start : start + len(kmat) * h].reshape(len(kmat), h, self.B)
            np.einsum("no,xob->nxb", kmat, S, out=out)

    def advance(self, n: int, bits_n: np.ndarray, q0: np.ndarray) -> None:
        """Record the realized bit as its sign s[n], update the prefix and all tables."""
        self.s[n] = 1.0 - 2.0 * bits_n
        self.q0[n] = q0
        self.pref[n + 1] = np.where(bits_n == 0, q0, 1.0 - q0) * self.pref[n]
        if self.double:
            np2 = self.C[n, 2]
            self.par2[np2 : np2 + n] = self.s[:n] * self.s[n]
        self.update_p1(n)
        self.update_p2(n)
        self.update_p_plus(n)

    def run(self, uniforms: np.ndarray | None, forced: np.ndarray | None = None) -> np.ndarray:
        """Run the chain for all M bits of S samples; returns each sample's column.

        Sample i draws bit n as ``uniforms[n, i] >= q0`` of its column, or
        takes ``forced[n, i]``; both have shape (M, S).  After the run,
        column c of every table, of ``flagged``, ``aborted``, ``n_clipped``
        and ``max_clip_excursion`` holds the results of the samples mapped
        to c; ``s[n]`` is 1 - 2 * bit n.  A deferred sample maps to -1.
        ``table_columns`` counts the column-steps computed: the live
        prefixes summed over the steps.  ``succ`` records where each live
        column's samples went, for ``route``.

        Each conditional q0 comes from ``_conditional``.
        """
        draws = uniforms if forced is None else forced
        sample = np.arange(draws.shape[1])  # samples not deferred
        col = np.zeros(sample.size, dtype=np.int64)
        self._pref[0] = 1.0
        for name in _SAMPLE_STATE:
            getattr(self, "_" + name)[:] = 0
        self._set_width(2)
        self.table_columns = 0
        live = 1
        for n in range(self.M):
            q0 = _conditional(self.step_probability_zero(n), self.pref[n], self._k1(n),
                              self.cfg.clamp_epsilon, self)
            drawn = draws[n, sample]
            one = drawn != 0 if forced is not None else drawn >= q0[col]
            # drew[b, c]: some sample of column c drew bit b
            drew = np.zeros((2, live), dtype=bool)
            drew[one.view(np.uint8), col] = True
            forks = np.flatnonzero(drew[0] & drew[1])
            grown = 0
            succ = self.succ[:, n, :live]
            succ[:] = np.where(drew, np.arange(live), -1)
            if forks.size:
                # bit-1 samples of a forking column move to a new column, or wait
                parents = forks[: self.W - live]
                succ[1, forks] = -1
                succ[1, parents] = np.arange(live, live + parents.size)
                col = succ[one.view(np.uint8), col]
                if parents.size < forks.size:
                    stay = col >= 0
                    sample, col = sample[stay], col[stay]
                self._fork(n, parents, live)
                q0 = np.concatenate([q0[:live], q0[parents]])
                grown = parents.size
            bits_n = np.zeros(max(live + grown, 2), dtype=np.uint8)
            bits_n[:live] = drew[1] & ~drew[0]
            bits_n[live : live + grown] = 1
            live += grown
            self._set_width(max(live, 2))
            self.table_columns += live
            self.advance(n, bits_n, q0)
        result = np.full(draws.shape[1], -1, dtype=np.int64)
        result[sample] = col
        return result

    def route(self, uniforms: np.ndarray) -> np.ndarray:
        """The column of the finished run that each fresh sample reaches, or -1.

        Sample i in column c draws bit n as ``uniforms[n, i] >= q0[n, c]``,
        as ``run`` draws it, and moves to ``succ[bit, n, c]``; a sample that
        left the trie stays in the sink.  A column's values do not depend on
        the other columns, so the column a sample reaches holds what a run
        of it would compute.
        """
        col = np.zeros(uniforms.shape[1], dtype=np.int64)
        for n in range(self.M):
            one = uniforms[n] >= self.q0[n][col]
            col = np.where(one, self.succ[1, n][col], self.succ[0, n][col])
        return col


# ---------------------------------------------------------------------------
# Scalar oracle (arbitrary expansion orders)
# ---------------------------------------------------------------------------


class ScalarChain:
    """Reference chain supporting any K and aux orders up to M; batch_sample never runs it.

    Same update schedule and degenerate-elision conventions as
    MarginalTables, written with plain dictionaries and loops.  With K and the
    aux orders equal to M, its joint probabilities match the exact
    distribution for M <= 5; at M = 6 they are about 2e-9 off.  One
    run draws one sample: bit n is ``sign[n] < 0``, and ``flagged``,
    ``aborted``, ``n_clipped`` and ``max_clip_excursion`` are arrays of
    one column, as in MarginalTables.
    """

    def __init__(self, kappa: SubsetTable, config: SamplerConfig):
        _check_table(kappa, config)
        self.M = kappa.M
        self.K = min(config.K, self.M)
        self.cfg = config
        self.kappa = kappa
        self.double = config.method == "double_elision"
        self.bottom = 2 if self.double else 1
        self.sign = np.ones(self.M)
        self.pref = [1.0]
        self.pp = {}
        self.q1 = {}
        self.q2 = {}
        for name, dtype in _SAMPLE_STATE.items():
            setattr(self, name, np.zeros(1, dtype))

    def _gamma(self, members, n) -> float:
        # sign[n] is still +1 before bit n is drawn, so the p-step reads the
        # gammas of bit n = 0
        subset = tuple(sorted(members + (n,)))
        sgn = self.sign[n]
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

    def _tail(self, top: int, D: tuple[int, ...], lo: int | None) -> float:
        """Approximate marginal over [lo..top] ([0..top] if `lo` is None) minus D.

        D is descending.  The product of the intervals between the elisions:
        all of them down to `lo` (the pp update), or, with `lo` None, those
        above the lowest ``bottom`` elisions times the pref / q1 / q2 entry
        below them.
        """
        cut = len(D) if lo is not None else max(len(D) - self.bottom, 0)
        val, hi = 1.0, top
        for d in D[:cut]:
            val *= self._interval(d + 1, hi)
            hi = d - 1
        return val * (self._interval(lo, hi) if lo is not None else self._resolve(hi, D[cut:]))

    def _expand(self, n: int, order: int, pool, fixed: tuple[int, ...] = (),
                lo: int | None = None) -> float:
        """The order-`order` expansion of one entry at step n.

        (1 + gamma_n) / 2 * tail(fixed), plus 2^-(m+1) gamma(comb, n)
        tail(comb + fixed) summed over the m-subsets comb of `pool` for
        0 < m < order; `fixed` is descending.
        """
        out = 0.5 * (1.0 + self._gamma((), n)) * self._tail(n - 1, fixed, lo)
        for m in range(1, order):
            coef = 0.5 ** (m + 1)
            for comb_ in combinations(pool, m):
                D = tuple(sorted(comb_ + fixed, reverse=True))
                out += coef * self._gamma(comb_, n) * self._tail(n - 1, D, lo)
        return out

    def step_probability_zero(self, n: int) -> float:
        return self._expand(n, self.K, range(n))

    def advance(self, n: int, bit: int, q0: float) -> None:
        self.sign[n] = 1.0 - 2.0 * bit
        self.pref.append((q0 if bit == 0 else 1.0 - q0) * self.pref[n])
        order_pp, order_q1, order_q2 = self.cfg.aux_orders
        self.q1[(n, n)] = self.pref[n]
        for e in range(n):
            pool = [i for i in range(n) if i != e]
            self.q1[(n, e)] = self._expand(n, order_q1, pool, (e,))
        if self.double:
            for d in range(n):
                self.q2[(n, d, n)] = self._resolve(n - 1, (d,))
            for e in range(1, n):
                for d in range(e):
                    pool = [i for i in range(n) if i not in (d, e)]
                    self.q2[(n, d, e)] = self._expand(n, order_q2, pool, (e, d))
        for l in range(n + 1):
            self.pp[(l, n)] = self._expand(n, order_pp, range(l, n), lo=l)

    def run(self, uniforms=None, forced=None) -> None:
        for n in range(self.M):
            q0 = float(_conditional(self.step_probability_zero(n), self.pref[n],
                                    float(self.kappa.values[n]), self.cfg.clamp_epsilon, self))
            bit = int(forced[n]) if forced is not None else int(uniforms[n] >= q0)
            self.advance(n, bit, q0)


def _check_table(kappa: SubsetTable, config: SamplerConfig,
                 inst: GaussianInstance | None = None) -> None:
    """Refuse a table that is not a cumulant table, of order below K, or not of `inst`'s M."""
    if kappa.kind != "cumulant":
        raise ValidationError(f"the chain methods need a cumulant table, not a {kappa.kind} table")
    if min(config.K, kappa.M) > kappa.K:
        raise ValidationError(f"config K={config.K} exceeds table order {kappa.K}")
    if inst is not None and inst.M != kappa.M:
        raise ValidationError(f"table M={kappa.M} does not match instance M={inst.M}")


def _fast_supported(config: SamplerConfig, M: int) -> bool:
    """Whether MarginalTables holds the rules of `config` at its effective order min(K, M)."""
    K = min(config.K, M)
    if config.method == "single_elision":
        pp, p1, _ = config.aux_orders
        return K <= 3 and pp <= 2 and p1 <= 2
    pp, p1, p2 = config.aux_orders
    return K <= 5 and pp <= 3 and p1 <= 3 and p2 <= 2


def chain_joint_probability(kappa: SubsetTable, bits, config: SamplerConfig) -> float:
    """Model joint probability of a fixed bitstring under the chain rule."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape != (kappa.M,):
        raise ValidationError(f"bitstring must have length {kappa.M}")
    if _fast_supported(config, kappa.M):
        tables = MarginalTables(kappa, config, batch=1)
        tables.run(None, forced=bits[:, None])
        return float(tables.pref[kappa.M][0])
    chain = ScalarChain(kappa, config)
    chain.run(forced=bits)
    return float(chain.pref[kappa.M])


# ---------------------------------------------------------------------------
# Batch generation
# ---------------------------------------------------------------------------


def aux_values_per_sample(M: int, method: str, K: int = 5, aux_orders=None) -> int:
    """Float64 values MarginalTables holds per in-flight sample.

    The sum of the shapes of ``_column_layout``.  Prefix, sign, conditional,
    interval and single-elision tables are O(M^2); the double method adds
    the packed q2 rows, choose(M+1, 3) + 1 values, and ``R``: block h holds
    M-h T rows of order 3, M-h-1 of order 4 and choose(M-h-1, 2) of order 5,
    and h values for each of its M-h order-2 and M-h-1 order-3 V rows; one
    zero slot ends it.  At K = 5 with the default aux orders that makes 1,475
    values at M = 12 and 10,431 at M = 24.  The kappa relayouts, shared by
    the batch, and the int64 successor table ``succ`` are not counted.
    """
    K = min(K, M)
    aux = aux_orders or tuple(min(a, K) for a in _DEFAULT_AUX[method])
    layout = _column_layout(M, K, method, aux)
    return sum(int(np.prod(shape)) for shape, _ in layout.values())


# float64 table values of one batch (32 MiB).  Measured on a 2-core host
# (scripts/bench_sampler.py, one BLAS thread), the widths it gives are
# within noise of the best width at M = 12 and 24 (K = 5, double elision)
# and at M = 64 and 128 (K = 3, single elision).  At M = 48, K = 5 it
# gives 32, where width 128 runs 1.4x faster with 60 MB more memory.
_BATCH_VALUES = 1 << 22


# samples per table run and column, and the size of the uniforms buffer that
# fresh samples are routed through between runs.  More samples share more
# prefixes while the columns last; the deferred rest waits for the next run.
# On a 2-core host (one worker), 4, 8 and 16 gave 28, 40 and 50 k samples/s
# at M = 24, K = 5, before routing; at M = 48 (K = 5), 64 and 128 (K = 3,
# single elision), 16 was within noise of the best value tried from 4 to 32.
# The buffer holds M x 16 x width uniforms.
_RUN_SAMPLES_PER_COLUMN = 16


def _auto_batch(M: int, config: SamplerConfig) -> int:
    """Widest power-of-two batch whose tables fit in _BATCH_VALUES values.

    The width is at least 8, so from M = 73 at K = 5 the tables of one
    batch exceed _BATCH_VALUES.
    """
    per_sample = aux_values_per_sample(M, config.method, config.K, config.aux_orders)
    width = 1 << (max(1, _BATCH_VALUES // per_sample).bit_length() - 1)
    return min(1024 if config.method == "double_elision" else 4096, max(8, width))


# the SampleBatch counters a chunk returns, in order
_COUNTS = ("n_flagged", "n_clipped", "table_columns", "n_deferred", "n_routed")


def _chunk_chain(kappa: SubsetTable, config: SamplerConfig, start: int, stop: int):
    """Generate samples start..stop-1; returns bits, abort flags, counts, excursion.

    The counts follow _COUNTS; the excursion is the largest clip excursion.
    After the first table run, fresh samples are routed through the last
    run's trie (``MarginalTables.route``); the samples that leave it wait
    at the front of the uniforms buffer with those the run deferred.  The
    next run starts when they fill the buffer, _RUN_SAMPLES_PER_COLUMN per
    column, or when no fresh sample is left.
    """
    M = kappa.M
    n = stop - start
    out = np.empty((n, M), dtype=np.uint8)
    counts = np.zeros(len(_COUNTS), dtype=np.int64)
    excursion = 0.0
    aborted = np.zeros(n, dtype=bool)
    tables = MarginalTables(kappa, config, batch=min(_auto_batch(M, config), n))

    def settle(first, offsets, col):
        """Record the samples of u[:, first:] that reached a column, move the
        rest to u[:, first:] in order, and return the offsets of the rest."""
        nonlocal counts, excursion
        done = col >= 0
        samples, col = offsets[done], col[done]
        out[samples] = np.ascontiguousarray((tables.s < 0).T)[col]
        aborted[samples] = tables.aborted[col]
        counts += (tables.flagged[col].sum(), tables.n_clipped[col].sum(), 0, 0, 0)
        excursion = max(excursion, float(tables.max_clip_excursion[col].max(initial=0.0)))
        rest = offsets[~done]
        u[:, first : first + rest.size] = u[:, first : first + offsets.size][:, ~done]
        return rest

    # uniforms of the samples waiting for a run, then fresh ones
    u = np.empty((M, min(_RUN_SAMPLES_PER_COLUMN * tables.W, n)))
    idx = np.empty(0, dtype=np.int64)  # offset of the sample in each column of u
    fresh = 0
    trie = False  # whether the tables hold a finished run
    while fresh < n or idx.size:
        take = min(u.shape[1] - idx.size, n - fresh)
        new = slice(idx.size, idx.size + take)
        u[:, new] = _stream_uniforms(config.seed, start + fresh, take, M).T
        offsets = np.arange(fresh, fresh + take)
        fresh += take
        if trie and take:
            offsets = settle(idx.size, offsets, tables.route(u[:, new]))
            counts += (0, 0, 0, offsets.size, take - offsets.size)
        idx = np.concatenate([idx, offsets])
        if not idx.size or (fresh < n and idx.size < u.shape[1]):
            continue
        idx = settle(0, idx, tables.run(u[:, : idx.size]))
        trie = True
        counts += (0, 0, tables.table_columns, idx.size, 0)
    return out, aborted, counts, excursion


def _pool_chunk(kappa: SubsetTable, config: SamplerConfig, start: int, stop: int):
    """One pool task: a sample range, run by whatever the module global _chunk_chain is."""
    return _chunk_chain(kappa, config, start, stop)


def exact_reference_sampler(inst: GaussianInstance, config: SamplerConfig) -> SampleBatch:
    """Inverse-CDF draws from the exact distribution (M <= 20)."""
    M = inst.M
    if M > BRUTE_FORCE_MAX_MODES:
        raise ResourceGuardError(f"exact reference sampler refused for M={M}")
    t0 = time.perf_counter()
    cdf = np.cumsum(brute_force_distribution(inst))
    cdf[-1] = 1.0
    u = _stream_uniforms(config.seed, 0, config.N, 1)[:, 0]
    codes = np.minimum(np.searchsorted(cdf, u, side="right"), 2**M - 1)
    bits = outcome_bits(codes, M)
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
    """Generate N samples; chain configs need the cumulant table and must fit MarginalTables.

    N is split into one contiguous range of ceil(N / workers) samples per
    worker; one worker runs its range in-process, more run one pool task
    each.  Sample i is drawn from stream (seed, i) whatever its range, so
    the output is byte-identical for any worker count.  Aborted samples
    (non-finite table values) and the ranges of tasks that raised are
    dropped and counted; the batch is then partial.
    """
    if config.method == "exact_reference":
        if inst is None:
            raise ValidationError("exact_reference needs the instance")
        return exact_reference_sampler(inst, config)
    if kappa is None:
        raise ValidationError("chain methods need the cumulant table")
    _check_table(kappa, config, inst)
    if not _fast_supported(config, kappa.M):
        raise ValidationError(
            f"{config.method} at K={config.K}, aux orders {config.aux_orders} is beyond the "
            "batched rules (single_elision K <= 3, aux up to 2,2,0; double_elision K <= 5, aux "
            "up to 3,3,2); use exact_reference (M <= 20) or chain_joint_probability")
    M = kappa.M
    t0 = time.perf_counter()
    bits = np.empty((config.N, M), dtype=np.uint8)
    aborted = np.zeros(config.N, dtype=bool)
    counts = np.zeros(len(_COUNTS), dtype=np.int64)
    excursion = 0.0
    worker_errors = []
    size = max(1, -(-config.N // config.workers))
    ranges = [(s, min(s + size, config.N)) for s in range(0, config.N, size)]
    if config.workers > 1 and ranges:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            tasks = [pool.submit(_pool_chunk, kappa, config, s, e) for s, e in ranges]
        # a task that raised yields its exception in place of its result
        results = [task.exception() or task.result() for task in tasks]
    else:
        results = [_chunk_chain(kappa, config, s, e) for s, e in ranges]
    for (s, e), result in zip(ranges, results):
        if isinstance(result, BaseException):
            worker_errors.append(f"{type(result).__name__}: {result}")
            aborted[s:e] = True
            continue
        bits[s:e], aborted[s:e], range_counts, range_excursion = result
        counts += range_counts
        excursion = max(excursion, range_excursion)
    keep = ~aborted
    bits = bits[keep]
    wall = time.perf_counter() - t0
    n_ok = int(keep.sum())
    return SampleBatch(
        M=M, N=n_ok, bitstrings=bits, method=config.method, K=config.K,
        seed=config.seed, wall_time=wall,
        per_sample_mean=wall / max(n_ok, 1),
        n_failed=int(config.N - n_ok), max_clip_excursion=excursion,
        worker_errors=worker_errors,
        aux_values_per_sample=aux_values_per_sample(M, config.method, config.K, config.aux_orders),
        **dict(zip(_COUNTS, map(int, counts))),
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
    """Read a text samples file: a header line, then one line of M 0/1 characters per sample.

    Lines end in "\\n" or "\\r\\n" and blank lines are skipped.  Only the header
    is decoded; the body is parsed as one byte array (:func:`_text_rows`).
    """
    data = Path(path).read_bytes()
    end = data.find(b"\n")
    end = len(data) if end < 0 else end
    # a byte that is not UTF-8 decodes to one lone surrogate character
    header = data[:end].removesuffix(b"\r").decode("utf-8", "surrogateescape")
    if (not header.startswith(_TEXT_HEADER)
            or any("\udc80" <= ch <= "\udcff" for ch in header)):
        raise ValidationError(f"{path} is not a samples file")
    meta = {}
    for kv in header[len(_TEXT_HEADER) :].split():
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
    body = np.frombuffer(data, dtype=np.uint8, offset=min(end + 1, len(data)))
    return SampleBatch(
        M=M, N=N, bitstrings=_text_rows(path, body, N, M), method=meta.get("method", "?"),
        K=K, seed=seed,
    )


def _text_rows(path, body: np.ndarray, N: int, M: int) -> np.ndarray:
    """The (N, M) uint8 bits of a samples body, one sample per non-blank line.

    A body in the writer's layout is reshaped as it is; any other is first
    brought to that layout (:func:`_canonical_lines`).  A body that still
    does not fit raises ValidationError with the count of its non-blank
    lines or the number of the first of them that is not M bits.
    """
    bits = _fixed_width_rows(body, N, M)
    if bits is None:
        body = _canonical_lines(body)
        bits = _fixed_width_rows(body, N, M)
    if bits is not None:
        return bits
    ends = np.flatnonzero(body == ord("\n"))
    if ends.size != N:
        raise ValidationError(f"{path}: expected {N} samples, found {ends.size}")
    bad = np.diff(ends, prepend=-1) != M + 1
    # a byte other than 0, 1 and "\n" marks the line that holds it
    stray = np.flatnonzero((body - ord("0") > 1) & (body != ord("\n")))
    bad[np.searchsorted(ends, stray)] = True
    raise ValidationError(f"{path}: bad sample line {int(np.argmax(bad)) + 1}")


def _fixed_width_rows(body: np.ndarray, N: int, M: int) -> np.ndarray | None:
    """The bits of a body of N lines of M 0/1 bytes and "\\n" each, else None."""
    if body.size != N * (M + 1):
        return None
    rows = body.reshape(N, M + 1)
    bits = rows[:, :M] - ord("0")  # uint8: every byte but 0 and 1 maps above 1
    if N and ((rows[:, M] != ord("\n")).any() or bits.max() > 1):
        return None
    return bits


def _canonical_lines(body: np.ndarray) -> np.ndarray:
    """The body with "\\r\\n" made "\\n", blank lines dropped and a last "\\n" added."""
    newline = body == ord("\n")
    cr = np.zeros_like(newline)
    cr[:-1] = newline[1:] & (body[:-1] == ord("\r"))
    body, newline = body[~cr], newline[~cr]
    blank = newline.copy()  # a "\n" first or right after another ends a blank line
    blank[1:] &= newline[:-1]
    body = body[~blank]
    if body.size and body[-1] != ord("\n"):
        body = np.append(body, np.uint8(ord("\n")))
    return body


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
    if M < 1:
        raise ValidationError(f"{path}: header has M={M}, N={N}")
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
