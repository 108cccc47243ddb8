"""Correlator and cumulant tables over mode subsets of order 1..K.

The correlator of a subset is the expectation of its parity; it is
computed from the covariance matrix as an alternating sum over
sub-subsets of vacuum overlaps, or estimated as a sample mean.
Cumulants are the partition-weighted transform of correlators.  Both
live in dense arrays indexed by the order-then-colex layout of
:mod:`gbsemu.subsets`, which the sampler reads directly.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import ResourceGuardError, ValidationError
from .gaussian import GaussianInstance, _no_click_probabilities, reduce_modes, vacuum_overlap
from .subsets import (
    colex_chunks,
    order_offset,
    partition_patterns,
    sub_subset_ranks,
    subset_rank,
    table_size,
)

MAX_ORDER = 6
DEFAULT_MEM_CAP_BYTES = 8 << 30
MOMENT_MAX_ORDER = 12
# Subsets per batched determinant / gather step; bounds the kernel's scratch memory.
_CHUNK_ROWS = 4096
# Bytes of packed parity bits per chunk of the empirical kernel, whatever N is.
_PACKED_CHUNK_BYTES = 1 << 20
# Set bits of every byte value.
_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)

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


@lru_cache(maxsize=64)
def _sub_index_arrays(d: int):
    """For each r, the doubled (rows ++ rows+d) index arrays of all r-subsets."""
    out = []
    for r in range(1, d + 1):
        combs = list(combinations(range(d), r))
        idx = np.array([R + tuple(k + d for k in R) for R in combs], dtype=int)
        out.append(idx)
    return out


def correlator(inst: GaussianInstance, subset) -> float:
    """Parity expectation over a mode subset.

    (-1)^d * sum over R of (-2)^|R| times the no-click probability of the
    reduced state on R; the empty R contributes 1.  Uses the mean vector
    when the instance is displaced.
    """
    subset = tuple(sorted(int(k) for k in subset))
    d = len(subset)
    if d == 0:
        return 1.0
    red = reduce_modes(inst, subset)
    sig, hbar = red.sigma, red.hbar
    displaced = red.is_displaced
    total = 1.0
    for r, idx in enumerate(_sub_index_arrays(d), start=1):
        mats = sig[idx[:, :, None], idx[:, None, :]]
        A = (mats + (hbar / 2.0) * np.eye(2 * r)) / hbar
        vals = 1.0 / np.sqrt(np.linalg.det(A))
        if displaced:
            for t in range(idx.shape[0]):
                mu_r = red.mu[idx[t]]
                shifted = mats[t] + (hbar / 2.0) * np.eye(2 * r)
                vals[t] *= np.exp(-0.5 * float(mu_r @ np.linalg.solve(shifted, mu_r)))
        total += (-2.0) ** r * float(vals.sum())
    return (-1.0) ** d * total


def correlator_table(
    inst: GaussianInstance,
    K: int,
    mem_cap_bytes: int | None = None,
) -> SubsetTable:
    """Correlators of every subset of order 1..K.

    The no-click probability P0 of every subset is computed once, one
    determinant each, into the table itself, order by order.  Each order
    is then turned into correlators in place, from K down to 1: a
    correlator of order d gathers the P0 values of its sub-subsets, which
    are of lower order (not yet converted) or its own slot.  Each chunk of
    order-d subsets ranks its 2^d - 1 sub-subsets once
    (:func:`gbsemu.subsets.sub_subset_ranks`).  Every entry repeats the
    arithmetic of :func:`correlator`, so the table is bit-identical to
    per-subset calls.  Refuses when the table would exceed the memory cap
    (GBS_MEM_CAP_BYTES or 8 GiB).
    """
    M = inst.M
    if not 1 <= K <= min(MAX_ORDER, M):
        raise ValidationError(f"order K={K} invalid for M={M}")
    count = table_size(M, K)
    cap = _mem_cap(mem_cap_bytes)
    if 8 * count > cap:
        raise ResourceGuardError(
            f"correlator table needs {8 * count} bytes, cap is {cap}; "
            "raise GBS_MEM_CAP_BYTES to proceed"
        )
    values = np.empty(count)
    for d in range(1, K + 1):
        base = order_offset(M, d)
        for start, rows in colex_chunks(M, d, _CHUNK_ROWS):
            values[base + start : base + start + rows.shape[0]] = _no_click_probabilities(inst, rows)
    for d in range(K, 0, -1):
        base = order_offset(M, d)
        groups = [[_column(R) for R in combinations(range(d), r)] for r in range(1, d + 1)]
        for start, rows in colex_chunks(M, d, _CHUNK_ROWS):
            sub = sub_subset_ranks(rows, M)
            # every gather, own span included, happens before the span is overwritten
            total = np.ones(rows.shape[0])
            for r, cols in enumerate(groups, start=1):
                # C-ordered, so each row sums its terms in the order of correlator()
                total += (-2.0) ** r * values[np.ascontiguousarray(sub[:, cols])].sum(axis=1)
            values[base + start : base + start + rows.shape[0]] = (-1.0) ** d * total
    return SubsetTable(M=M, K=K, values=values, kind="correlator")


def empirical_correlator_table(samples, K: int) -> SubsetTable:
    """Sample-mean parity of every subset of order 1..K of an (N, M) 0/1 array.

    Each entry is (N - 2*odd)/N, odd being the number of samples with an
    odd click count on the subset, so it equals
    :func:`gbsemu.benchmark.estimate_correlator`.  The mode columns are
    bit-packed along the samples; a subset's parities are the XOR of its
    columns, counted with a byte popcount table.  Chunks hold at most
    _PACKED_CHUNK_BYTES of packed bits.
    """
    arr = np.asarray(samples, dtype=np.uint8)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValidationError("samples must be a non-empty 2-D (N, M) bit array")
    N, M = arr.shape
    if not 1 <= K <= min(MAX_ORDER, M):
        raise ValidationError(f"order K={K} invalid for M={M}")
    packed = np.packbits(arr.T, axis=1)  # padding bits are 0 in every column
    rows_cap = max(1, min(_CHUNK_ROWS, _PACKED_CHUNK_BYTES // packed.shape[1]))
    values = np.empty(table_size(M, K))
    for d in range(1, K + 1):
        base = order_offset(M, d)
        for start, rows in colex_chunks(M, d, rows_cap):
            bits = packed[rows[:, 0]]
            for j in range(1, d):
                bits ^= packed[rows[:, j]]
            odd = _BYTE_POPCOUNT[bits].sum(axis=1, dtype=np.int64)
            values[base + start : base + start + rows.shape[0]] = (N - 2 * odd) / N
    return SubsetTable(M=M, K=K, values=values, kind="correlator")


def _mem_cap(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("GBS_MEM_CAP_BYTES")
    return int(env) if env else DEFAULT_MEM_CAP_BYTES


def _column(positions) -> int:
    """Column of :func:`sub_subset_ranks` holding the sub-subset at these row positions."""
    return sum(1 << p for p in positions) - 1


def _partition_transform(table: SubsetTable, use_weights: bool, kind: str) -> SubsetTable:
    M, K = table.M, table.K
    src = table.values
    out = np.empty_like(src)
    out[:M] = src[:M]
    for d in range(2, K + 1):
        base = order_offset(M, d)
        terms = [
            (pat.weight if use_weights else 1.0, [_column(block) for block in pat.blocks])
            for pat in partition_patterns(d)
        ]
        for start, rows in colex_chunks(M, d, _CHUNK_ROWS):
            gathered = src[sub_subset_ranks(rows, M)]
            acc = np.zeros(rows.shape[0])
            for weight, cols in terms:
                prod = np.ones(rows.shape[0])
                for col in cols:
                    prod *= gathered[:, col]
                acc += weight * prod
            out[base + start : base + start + rows.shape[0]] = acc
    return SubsetTable(M=M, K=K, values=out, kind=kind)


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

    Inclusion-exclusion over no-click events: sum over R of (-1)^|R|
    times the no-click probability of the reduced state on R.
    """
    subset = tuple(sorted(int(k) for k in subset))
    if len(subset) > MOMENT_MAX_ORDER:
        raise ResourceGuardError(f"joint click moment refused beyond order {MOMENT_MAX_ORDER}")
    if not subset:
        return 1.0
    total = 1.0
    for r in range(1, len(subset) + 1):
        for R in combinations(subset, r):
            red = reduce_modes(inst, R)
            total += (-1.0) ** r * vacuum_overlap(red.sigma, red.mu, red.hbar)
    return total


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
