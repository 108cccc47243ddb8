"""Correlator and cumulant tables over mode subsets of order 1..K.

The correlator of a subset is the expectation of its parity; it is
computed from the covariance matrix as an alternating sum over
sub-subsets of vacuum overlaps, or estimated as a sample mean.
Cumulants are the partition-weighted transform of correlators.  Both
live in dense arrays indexed by the order-then-colex layout of
:mod:`gbsemu.subsets`, which the sampler reads directly.  One chunked
pass over that layout, :func:`_subset_transform`, turns no-click
probabilities into correlators and correlators into cumulants and back;
:func:`cumulant_tables` does the first two steps in one pass.
The scalar references :func:`correlator` and
:func:`moments_from_click_marginals` take each vacuum overlap from
:func:`gbsemu.gaussian._no_click_probabilities` instead.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from .errors import NumericalError, ResourceGuardError, ValidationError
from .gaussian import GaussianInstance, _no_click_probabilities
from .subsets import (
    colex_chunks,
    dense_rank,
    order_offset,
    partition_patterns,
    sub_subset_ranks,
    subset_rank,
    table_size,
)

MAX_ORDER = 6
DEFAULT_MEM_CAP_BYTES = 8 << 30
MOMENT_MAX_ORDER = 12
# Subsets (or parents) per batched step; bounds the kernels' scratch memory.
_CHUNK_ROWS = 4096
# Bytes of packed parity bits per chunk of the empirical kernel, whatever N is.
_PACKED_CHUNK_BYTES = 1 << 20
# SWAR popcount masks: alternate bits, bit pairs, nibbles; and the byte-sum multiplier
_M1, _M2, _M4, _H01 = (np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101))

_MAGIC = {"correlator": b"GBSC", "cumulant": b"GBSK"}
_FILE_VERSION = 1


@dataclass(frozen=True)
class SubsetTable:
    """Dense per-subset values for orders 1..K (correlators or cumulants)."""

    M: int
    K: int
    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in _MAGIC:
            raise ValidationError(f"unknown table kind {self.kind!r}")
        if not 1 <= self.K <= MAX_ORDER or self.K > self.M:
            raise ValidationError(f"order K={self.K} invalid for M={self.M}")
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != (table_size(self.M, self.K),):
            raise ValidationError(
                f"table must hold {table_size(self.M, self.K)} values, got {values.shape}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def value(self, subset) -> float:
        return float(self.values[subset_rank(tuple(subset), self.M, self.K)])

    def __reduce__(self):
        # unpickling runs the constructor, so a copy in a worker is read-only too
        return (SubsetTable, (self.M, self.K, self.values, self.kind))


def correlator(inst: GaussianInstance, subset) -> float:
    """Parity expectation over a mode subset.

    (-1)^d times the sum over R of (-2)^|R| times the no-click probability
    P0(R) of the reduced state on R, the empty R contributing 1.  Each P0
    is its own determinant (:func:`_no_click_sum`), so this checks
    :func:`correlator_table` independently.
    """
    subset = tuple(sorted(int(k) for k in subset))
    return (-1.0) ** len(subset) * _no_click_sum(inst, subset, -2.0)


def _no_click_sum(inst: GaussianInstance, subset: tuple, w: float) -> float:
    """1 + sum over non-empty R of the sorted subset of w^|R| P0(R).

    One :func:`gbsemu.gaussian._no_click_probabilities` batch per |R|.
    Raises ValidationError for a mode out of range or repeated.
    """
    if subset and (subset[0] < 0 or subset[-1] >= inst.M or len(set(subset)) != len(subset)):
        raise ValidationError(f"mode subset {list(subset)} invalid for M={inst.M}")
    total = 1.0
    for r in range(1, len(subset) + 1):
        rows = np.array(list(combinations(subset, r)))
        total += w**r * float(_no_click_probabilities(inst.sigma, inst.mu, inst.hbar, rows).sum())
    return total


def correlator_table(inst: GaussianInstance, K: int) -> SubsetTable:
    """Correlators of every subset of order 1..K.

    :func:`_no_click_lattice` computes the no-click probability P0 of
    every subset once, and one :func:`_subset_transform` stage turns it
    into correlators with the terms of :func:`correlator`.  The table
    agrees with per-subset calls to 1e-13 and does not depend on the
    chunk size.  Refuses past the memory cap, and raises NumericalError
    naming the modes of a subset whose shifted covariance is not
    positive definite (both in :func:`_no_click_lattice`).
    """
    (values,) = _subset_transform(inst.M, K, _no_click_lattice(inst, K, tables=2),
                                  _correlator_terms)
    return SubsetTable(M=inst.M, K=K, values=values, kind="correlator")


def cumulant_tables(inst: GaussianInstance, K: int, times: dict | None = None):
    """(correlator table, cumulant table) of every subset of order 1..K.

    The tables of :func:`correlator_table` and
    :func:`cumulants_from_correlators`, byte for byte, from one
    :func:`_subset_transform` pass with two stages: P0 -> correlators,
    then correlators -> cumulants.  If `times` is given, its "phase2_s"
    and "transform_s" receive the seconds of the lattice and of the pass.
    """
    t0 = time.perf_counter()
    p0 = _no_click_lattice(inst, K, tables=3)
    t1 = time.perf_counter()
    corr, kappa = _subset_transform(inst.M, K, p0, _correlator_terms, _partition_terms(True))
    if times is not None:
        times.update(phase2_s=t1 - t0, transform_s=time.perf_counter() - t1)
    return (SubsetTable(M=inst.M, K=K, values=corr, kind="correlator"),
            SubsetTable(M=inst.M, K=K, values=kappa, kind="cumulant"))


def _no_click_lattice(inst: GaussianInstance, K: int, tables: int) -> np.ndarray:
    """P0 of every subset of order 1..K, in the dense layout.

    Refuses unless the arrays live at the peak fit the memory cap
    (GBS_MEM_CAP_BYTES or 8 GiB): P0 beside the (2d x 2d) inverses of the
    two highest orders d <= K - 2 (the largest two), or `tables`
    table-sized arrays in the pass that turns P0 into tables.

    A = (sigma + hbar/2)/hbar is read in mode-major order: G[s, k] is the
    2x2 block of modes s and k.  A subset S with largest mode k extends
    its parent S' = S - {k}.  With B = A[S', k], X = A_S'^-1 B and the
    Schur complement Sc = G[k, k] - B^T X, det A_S = det A_S' * det Sc,
    and for a displaced state mu_S^T A_S^-1 mu_S grows by r^T Sc^-1 r,
    with r = mu_k - X^T mu_S'.  So W(S) = P0(S)^-2 = det A_S *
    exp(mu_S^T A_S^-1 mu_S / hbar) is a product of one factor per step;
    the empty parent has W = 1.  `values` holds W until every order is
    done and then P0 = W^-1/2, one square root per subset.  In colex order
    the order-d subsets with largest mode k are contiguous from
    ``dense_rank([k], M, start=d-1)``, in the order of their parents, the
    order-(d-1) subsets of {0..k-1}, which lead their own block; so every
    step reads and writes contiguous slices.  The pairs {j, k} added to a
    parent start at ``dense_rank([j, k], M, start=d-2)``.

    A_S^-1 follows from A_S'^-1 and Sc^-1 by the block inverse, and is
    kept for orders up to K - 2 only.  Each order-(K-2) subset then takes
    two modes j < k at once: the 4x4 complement of {j, k} is taken as Sc_j
    and the complement of k given j, S2 = Sc_k - C Sc_j^-1 C^T with
    C = G[k, j] - B_k^T X_j, so W(S + j + k) = W(S + j) * det S2, and
    t = r_k - C Sc_j^-1 r_j takes the place of r.  One-mode steps take
    their parents in chunks of _CHUNK_ROWS.  Two-mode steps take
    4 * _CHUNK_ROWS // M parents at a time, so that a chunk's pairs and
    its kept (B_j, Sc_j, r_j), one set per mode j, stay near 4 *
    _CHUNK_ROWS rows; within a chunk j runs downwards, each j in one batch
    with all its k > j.  No value depends on the chunk sizes.
    """
    M, hbar = inst.M, inst.hbar
    if not 1 <= K <= min(MAX_ORDER, M):
        raise ValidationError(f"order K={K} invalid for M={M}")
    count = table_size(M, K)
    inverses = sum(comb(M, d) * (2 * d) ** 2 for d in range(max(1, K - 3), K - 1))
    need = 8 * max(count + inverses, tables * count)
    cap = int(os.environ.get("GBS_MEM_CAP_BYTES") or DEFAULT_MEM_CAP_BYTES)
    if need > cap:
        raise ResourceGuardError(f"subset tables and inverses need {need} bytes, cap is {cap}; "
                                 "raise GBS_MEM_CAP_BYTES to proceed")
    values = np.empty(count)
    A = (inst.sigma + (hbar / 2.0) * np.eye(2 * M)) / hbar
    G = np.ascontiguousarray(A.reshape(2, M, 2, M).transpose(1, 3, 0, 2))
    mu = np.ascontiguousarray(inst.mu.reshape(2, M).T) if inst.is_displaced else None

    def extend(inv, w, rows, k):
        """Add mode k to every parent row: (B, X, Sc, Sc^-1, r, W)."""
        n, m = rows.shape[0], 2 * rows.shape[1]
        B = G[rows, k].reshape(n, m, 2)
        X = inv @ B
        Sc = G[k, k] - B.transpose(0, 2, 1) @ X
        det, Si = _inverse_2x2(Sc, lambda t: (*rows[t], k))
        out = w * det
        r = None
        if mu is not None:
            r = mu[k] - (X.transpose(0, 2, 1) @ mu[rows].reshape(n, m, 1))[:, :, 0]
            out *= np.exp(_quadratic_2(r, Si) / hbar)
        return B, X, Sc, Si, r, out

    def chunks(d, inv, rows_cap):
        """(start, inverses, W, rows, smallest mode to add) per chunk of order-d parents."""
        w = values[order_offset(M, d) :] if d else np.ones(1)
        for start, rows in colex_chunks(M, d, rows_cap):
            stop = start + rows.shape[0]
            lo = int(rows[0, -1]) + 1 if d else 0
            yield start, inv[start:stop], w[start:stop], rows, lo

    # order 0: the empty subset and its empty inverse
    inv = np.empty((1, 0, 0))
    modes = np.arange(M)
    for d in range(1, K - 1):
        new = np.empty((comb(M, d), 2 * d, 2 * d))
        base = order_offset(M, d)
        first = dense_rank([modes], M, start=d - 1)  # by largest mode k
        m = 2 * d - 2
        for start, inv_c, w_c, rows, lo in chunks(d - 1, inv, _CHUNK_ROWS):
            for k in range(lo, M):
                n = int(np.searchsorted(rows[:, -1], k)) if d > 1 else 1
                _, X, _, Si, _, out = extend(inv_c[:n], w_c[:n], rows[:n], k)
                dst = first[k] + start
                values[dst : dst + n] = out
                XSi = X @ Si
                blk = new[dst - base : dst - base + n]
                blk[:, :m, :m] = inv_c[:n] + XSi @ X.transpose(0, 2, 1)
                blk[:, :m, m:] = -XSi
                blk[:, m:, :m] = -(Si @ X.transpose(0, 2, 1))
                blk[:, m:, m:] = Si
        inv = new

    L = max(K - 2, 0)
    one, two = dense_rank([modes], M, start=L), dense_rank([modes[:, None], modes], M, start=L)
    for start, inv_c, w_c, rows, lo in chunks(L, inv, max(1, 4 * _CHUNK_ROWS // M)):
        # B, Sc and r of each mode k added to this chunk's parents
        nc = rows.shape[0]
        kB, kSc, kr = np.empty((M, nc, 2 * L, 2)), np.empty((M, nc, 2, 2)), np.empty((M, nc, 2))
        for j in range(M - 1, lo - 1, -1):
            n = int(np.searchsorted(rows[:, -1], j)) if L else 1
            kB[j, :n], Xj, kSc[j, :n], Sij, rj, out = extend(inv_c[:n], w_c[:n], rows[:n], j)
            dst = one[j] + start
            values[dst : dst + n] = out
            if K == 1:
                continue
            # every pair (j, k > j) at once: the leading axis runs over k
            C = G[j + 1 :, j, None] - kB[j + 1 :, :n].swapaxes(2, 3) @ Xj
            S2 = kSc[j + 1 :, :n] - (C @ Sij) @ C.swapaxes(2, 3)
            det, S2i = _inverse_2x2(S2, lambda i, t: (*rows[t], j, j + 1 + i))
            wk = out * det
            if mu is not None:
                kr[j, :n] = rj
                t = kr[j + 1 :, :n] - (C @ (Sij @ rj[:, :, None]))[..., 0]
                wk *= np.exp(_quadratic_2(t, S2i) / hbar)
            dst = two[j, j + 1 :] + start
            values[dst[:, None] + np.arange(n)] = wk
    np.sqrt(values, out=values)
    return np.divide(1.0, values, out=values)


def _inverse_2x2(S: np.ndarray, modes) -> tuple[np.ndarray, np.ndarray]:
    """det and inverse of each 2x2 Schur complement in a stack.

    Raises unless every det is finite and positive, naming modes(*i), the
    subset whose complement sits at index i of the leading axes.
    """
    a, b, c, e = S[..., 0, 0], S[..., 0, 1], S[..., 1, 0], S[..., 1, 1]
    det = a * e - b * c
    bad = ~(np.isfinite(det) & (det > 0.0))
    if bad.any():
        i = np.unravel_index(int(np.argmax(bad)), det.shape)
        raise NumericalError(
            f"shifted covariance of modes {tuple(int(m) for m in modes(*i))} has Schur "
            f"determinant {det[i]!r} for its last mode: input state is invalid"
        )
    inv = np.empty_like(S)
    inv[..., 0, 0] = e / det
    inv[..., 0, 1] = -b / det
    inv[..., 1, 0] = -c / det
    inv[..., 1, 1] = a / det
    return det, inv


def _quadratic_2(r: np.ndarray, S: np.ndarray) -> np.ndarray:
    """r^T S r for each 2-vector r and 2x2 matrix S."""
    r0, r1 = r[..., 0], r[..., 1]
    return r0 * (S[..., 0, 0] * r0 + S[..., 0, 1] * r1) + r1 * (S[..., 1, 0] * r0 + S[..., 1, 1] * r1)


def empirical_correlator_table(samples, K: int) -> SubsetTable:
    """Sample-mean parity of every subset of order 1..K of an (N, M) 0/1 array.

    Each entry is (N - 2*odd)/N, odd being the number of samples with an
    odd click count on the subset, so it equals
    :func:`gbsemu.benchmark.estimate_correlator`.  Each mode's column is
    bit-packed along the samples into ceil(N/64) 64-bit words, zero-padded
    past N.  A subset's parities are the XOR of its columns' words, and odd
    is their total SWAR popcount (:func:`_popcount64`), so the padding adds
    nothing.  Chunks hold at most _PACKED_CHUNK_BYTES of packed words.
    """
    arr = np.asarray(samples, dtype=np.uint8)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValidationError("samples must be a non-empty 2-D (N, M) bit array")
    N, M = arr.shape
    if not 1 <= K <= min(MAX_ORDER, M):
        raise ValidationError(f"order K={K} invalid for M={M}")
    words = -(-N // 64)
    packed = np.zeros((M, 8 * words), dtype=np.uint8)
    packed[:, : -(-N // 8)] = np.packbits(arr.T, axis=1)
    packed = packed.view(np.uint64)
    rows_cap = max(1, min(_CHUNK_ROWS, _PACKED_CHUNK_BYTES // (8 * words)))
    values = np.empty(table_size(M, K))
    for d in range(1, K + 1):
        base = order_offset(M, d)
        for start, rows in colex_chunks(M, d, rows_cap):
            bits = packed[rows[:, 0]]
            for j in range(1, d):
                bits ^= packed[rows[:, j]]
            odd = _popcount64(bits).sum(axis=1, dtype=np.int64)
            values[base + start : base + start + rows.shape[0]] = (N - 2 * odd) / N
    return SubsetTable(M=M, K=K, values=values, kind="correlator")


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 word of x, computed in place in x and returned."""
    t = np.empty_like(x)
    np.right_shift(x, np.uint64(1), out=t)
    t &= _M1
    x -= t  # 2-bit counts
    np.right_shift(x, np.uint64(2), out=t)
    t &= _M2
    x &= _M2
    x += t  # 4-bit counts
    np.right_shift(x, np.uint64(4), out=t)
    x += t
    x &= _M4  # byte counts
    x *= _H01  # the top byte sums them
    x >>= np.uint64(56)
    return x


def _column(positions) -> int:
    """Column of :func:`sub_subset_ranks` holding the sub-subset at these row positions."""
    return sum(1 << p for p in positions) - 1


def _correlator_terms(d: int) -> list:
    """The terms of :func:`correlator` over P0: (-1)^d for the empty
    sub-subset, (-1)^d (-2)^|R| P0(R) for each other one."""
    sign = (-1.0) ** d
    return [(sign, [])] + [
        (sign * (-2.0) ** r, [_column(R)])
        for r in range(1, d + 1)
        for R in combinations(range(d), r)
    ]


def _partition_terms(use_weights: bool):
    """terms(d) of the partition transform: one product per set partition
    of the d positions, weighted by its cumulant weight or by 1."""
    return lambda d: [(pat.weight if use_weights else 1.0, [_column(b) for b in pat.blocks])
                      for pat in partition_patterns(d)]


def _subset_transform(M: int, K: int, src: np.ndarray, *stages) -> list[np.ndarray]:
    """One new table per stage, a terms function: out[S] = sum over (w, cols)
    in terms(d) of w times the product of the stage's input at the
    sub-subsets of S in cols, for every subset S of order d = 1..K.  The
    first stage reads src, each later one the table of the stage before.

    cols are columns of :func:`gbsemu.subsets.sub_subset_ranks`
    (:func:`_column`); empty cols are the empty product, 1.  Orders run
    upwards, and each chunk is unranked and ranked once for all stages,
    which run in turn on it: a stage's input is final by then at lower
    orders and at the chunk's own entries.
    """
    outs = [np.empty_like(src) for _ in stages]
    for d in range(1, K + 1):
        base = order_offset(M, d)
        weighted = list(zip([src] + outs, [terms(d) for terms in stages], outs))
        for start, rows in colex_chunks(M, d, _CHUNK_ROWS):
            ranks = sub_subset_ranks(rows, M)
            for inp, terms, out in weighted:
                gathered = inp[ranks]
                acc = np.zeros(rows.shape[0])
                for weight, cols in terms:
                    prod = gathered[:, cols[0]] if cols else 1.0
                    for col in cols[1:]:
                        prod = prod * gathered[:, col]
                    acc += weight * prod
                out[base + start : base + start + rows.shape[0]] = acc
    return outs


def _partition_transform(table: SubsetTable, use_weights: bool, kind: str) -> SubsetTable:
    (out,) = _subset_transform(table.M, table.K, table.values, _partition_terms(use_weights))
    return SubsetTable(M=table.M, K=table.K, values=out, kind=kind)


def cumulants_from_correlators(table: SubsetTable) -> SubsetTable:
    """Partition-weighted transform; order-1 entries pass through."""
    if table.kind != "correlator":
        raise ValidationError("expected a correlator table")
    return _partition_transform(table, use_weights=True, kind="cumulant")


def correlators_from_cumulants(table: SubsetTable) -> SubsetTable:
    """Exact inverse of :func:`cumulants_from_correlators`."""
    if table.kind != "cumulant":
        raise ValidationError("expected a cumulant table")
    return _partition_transform(table, use_weights=False, kind="correlator")


def cumulant_recursion_residual(
    correlators: SubsetTable, cumulants: SubsetTable, s_prime, n: int
) -> float:
    """Residual of the correlator split over the block containing n.

    c(S' + {n}) - sum over R of kappa(R + {n}) c(S' - R); identically zero
    for consistent tables.
    """
    s_prime = tuple(sorted(int(k) for k in s_prime))
    if n in s_prime:
        raise ValidationError("n must not belong to S'")
    d = len(s_prime) + 1
    if d > correlators.K or d > cumulants.K:
        raise ValidationError(f"tables must cover order {d}")
    lhs = correlators.value(tuple(sorted(s_prime + (n,))))
    rhs = 0.0
    for r in range(len(s_prime) + 1):
        for R in combinations(s_prime, r):
            rest = tuple(k for k in s_prime if k not in R)
            c_rest = correlators.value(rest) if rest else 1.0
            rhs += cumulants.value(tuple(sorted(R + (n,)))) * c_rest
    return lhs - rhs


def moments_from_click_marginals(inst: GaussianInstance, subset) -> float:
    """Probability that every mode in the subset clicks.

    Inclusion-exclusion over no-click events: the sum over R of (-1)^|R|
    times the no-click probability of the reduced state on R
    (:func:`_no_click_sum`).
    """
    subset = tuple(sorted(int(k) for k in subset))
    if len(subset) > MOMENT_MAX_ORDER:
        raise ResourceGuardError(f"joint click moment refused beyond order {MOMENT_MAX_ORDER}")
    return _no_click_sum(inst, subset, -1.0)


def click_cumulant(inst: GaussianInstance, subset) -> float:
    """Theoretical joint cumulant of the 0/1 click variables on a subset."""
    subset = tuple(sorted(int(k) for k in subset))
    d = len(subset)
    if d == 1:
        return moments_from_click_marginals(inst, subset)
    total = 0.0
    for pat in partition_patterns(d):
        prod = 1.0
        for block in pat.blocks:
            prod *= moments_from_click_marginals(inst, tuple(subset[p] for p in block))
        total += pat.weight * prod
    return total


def click_cumulants_from_cumulants(table: SubsetTable) -> np.ndarray:
    """Joint cumulants of the 0/1 click variables, in the table's dense layout.

    A click is (1 - parity)/2, so order 1 gives (1 - c(S))/2 and order
    d >= 2 gives (-1/2)^d kappa(S).  Agrees with :func:`click_cumulant`.
    """
    if table.kind != "cumulant":
        raise ValidationError("expected a cumulant table")
    M = table.M
    out = table.values.copy()
    out[:M] = (1.0 - out[:M]) / 2.0
    for d in range(2, table.K + 1):
        out[order_offset(M, d) : order_offset(M, d + 1)] *= (-0.5) ** d
    return out


def save_table(table: SubsetTable, path) -> None:
    """Write the little-endian binary container with trailing byte-sum checksum."""
    header = _MAGIC[table.kind] + struct.pack(
        "<IIIQ", _FILE_VERSION, table.M, table.K, table.values.size
    )
    payload = header + table.values.astype("<f8").tobytes()
    checksum = int(np.frombuffer(payload, dtype=np.uint8).sum(dtype=np.uint64))
    Path(path).write_bytes(payload + struct.pack("<Q", checksum))


def load_table(path) -> SubsetTable:
    """Read a table container, verifying magic, version and checksum."""
    data = Path(path).read_bytes()
    if len(data) < 28:
        raise ValidationError(f"table file {path} truncated")
    magic = data[:4]
    kinds = {v: k for k, v in _MAGIC.items()}
    if magic not in kinds:
        raise ValidationError(f"table file {path} has unknown magic {magic!r}")
    version, M, K, count = struct.unpack("<IIIQ", data[4:24])
    if version != _FILE_VERSION:
        raise ValidationError(f"unsupported table version {version}")
    end = 24 + 8 * count
    if len(data) != end + 8:
        raise ValidationError(f"table file {path} has wrong length")
    (checksum,) = struct.unpack("<Q", data[end:])
    actual = int(np.frombuffer(data[:end], dtype=np.uint8).sum(dtype=np.uint64))
    if actual != checksum:
        raise ValidationError(f"table file {path} checksum mismatch")
    values = np.frombuffer(data[24:end], dtype="<f8").astype(float)
    return SubsetTable(M=int(M), K=int(K), values=values, kind=kinds[magic])
