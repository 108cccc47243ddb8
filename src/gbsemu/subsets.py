"""Subset indexing and set-partition patterns.

Mode subsets are strictly increasing tuples of 0-based mode indices.
Tables over all subsets of order 1..K use a dense layout: orders are
concatenated (order 1 first), and within an order subsets are ranked
colexicographically (combinatorial number system).  Colex ranking has the
property that subsets drawn from {0..m-1} occupy a contiguous prefix of the
order-d block, and subsets sharing a fixed largest element are contiguous;
both properties are relied on heavily by the sampler's inner loops.  This
module is the only one that ranks or unranks subsets in that layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import ValidationError

# Bell numbers B_1..B_6; partition enumeration is capped at d = 6.
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
MAX_PARTITION_ORDER = 6


@lru_cache(maxsize=16)
def binomials(n: int) -> np.ndarray:
    """comb(c, j) as a read-only int64 array indexed [j, c], for j <= 6 and c <= n."""
    out = np.array(
        [[comb(c, j) for c in range(n + 1)] for j in range(MAX_PARTITION_ORDER + 1)],
        dtype=np.int64,
    )
    out.setflags(write=False)
    return out


def order_offset(M: int, d: int) -> int:
    """Start of the order-d block in the dense order-1..K layout."""
    return sum(comb(M, j) for j in range(1, d))


def table_size(M: int, K: int) -> int:
    """Number of subsets of order 1..K over M modes."""
    return sum(comb(M, d) for d in range(1, K + 1))


def dense_rank(cols, M: int, start: int = 0):
    """Dense offsets of subsets given column by column; columns broadcast.

    cols[k] holds element start + k of each strictly increasing subset, so
    the order is start + len(cols).  The first start elements are taken to
    be {0..start-1}, of colex rank 0: adding c < comb(cols[0], start) gives
    the subset whose first start elements have colex rank c.
    """
    binom = binomials(M)
    rank = order_offset(M, start + len(cols))
    for j, col in enumerate(cols, start + 1):
        rank = rank + binom[j][col]
    return rank


def sub_subset_ranks(rows: np.ndarray, M: int) -> np.ndarray:
    """Dense offsets of every non-empty sub-subset of each order-d row.

    Column mask - 1 holds the sub-subset {rows[:, p] : bit p of mask set},
    for mask = 1 .. 2^d - 1, so the result is a (rows, 2^d - 1) int64
    array; it is the transpose of a C-ordered array, so each column is
    contiguous.  A mask's rank is the rank of the mask without its top
    bit, plus one binomial gather and the step between the two orders'
    offsets; that term depends only on the mask's popcount and top bit,
    so it is built once per pair (15 at d = 5, for 31 masks).
    """
    binom = binomials(M)
    n, d = rows.shape
    cols = np.ascontiguousarray(rows.T)
    offset = [order_offset(M, r) for r in range(d + 1)]
    out = np.empty(((1 << d) - 1, n), dtype=np.int64)
    step = {}
    for mask in range(1, 1 << d):
        top, r = mask.bit_length() - 1, bin(mask).count("1")
        if (r, top) not in step:
            step[r, top] = binom[r][cols[top]] + (offset[r] - offset[r - 1])
        rest = mask ^ (1 << top)
        np.add(step[r, top], out[rest - 1] if rest else 0, out=out[mask - 1])
    return out.T


def colex_chunks(M: int, d: int, chunk_rows: int):
    """Yield (colex start, rows) over all order-d subsets of range(M).

    Each rows array holds up to chunk_rows consecutive subsets in colex
    order, one strictly increasing row per subset.
    """
    binom = binomials(M)
    n = comb(M, d)
    for start in range(0, n, chunk_rows):
        rank = np.arange(start, min(start + chunk_rows, n), dtype=np.int64)
        rows = np.empty((rank.size, d), dtype=np.int64)
        for j in range(d - 1, -1, -1):
            # largest c with comb(c, j + 1) <= rank
            rows[:, j] = np.searchsorted(binom[j + 1], rank, side="right") - 1
            rank -= binom[j + 1][rows[:, j]]
        yield start, rows


def subset_rank(subset, M: int, K: int) -> int:
    """Dense offset of a subset in the order-then-colex layout."""
    d = len(subset)
    if not 1 <= d <= K:
        raise ValidationError(f"subset order {d} outside 1..{K}")
    prev = -1
    for i in subset:
        if not prev < i < M:
            raise ValidationError(f"subset {subset!r} not strictly increasing in [0, {M})")
        prev = i
    return int(dense_rank(subset, M))


@dataclass(frozen=True)
class PartitionPattern:
    """A set partition of {0..d-1} with its cumulant weight.

    The weight is (-1)^(len(blocks)-1) * (len(blocks)-1)!; summed over all
    patterns of a given order d >= 2 the weights cancel exactly.
    """

    blocks: tuple[tuple[int, ...], ...]
    weight: float


@lru_cache(maxsize=None)
def partition_patterns(d: int) -> tuple[PartitionPattern, ...]:
    """All set partitions of {0..d-1}, each with its weight.

    The list has Bell-number length (1, 2, 5, 15, 52, 203 for d = 1..6).
    Blocks are sorted by smallest element; patterns are emitted in a fixed
    deterministic order.
    """
    if not 1 <= d <= MAX_PARTITION_ORDER:
        raise ValidationError(f"partition order {d} outside 1..{MAX_PARTITION_ORDER}")
    out = []
    for blocks in _partitions(tuple(range(d))):
        k = len(blocks)
        w = float((-1) ** (k - 1) * factorial(k - 1))
        out.append(PartitionPattern(blocks=blocks, weight=w))
    assert len(out) == BELL[d]
    return tuple(out)


def _partitions(items: tuple[int, ...]):
    """Yield all set partitions of items as tuples of sorted blocks."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        # first as its own block
        yield ((first,),) + sub
        # first joined to each existing block
        for k, block in enumerate(sub):
            yield sub[:k] + ((first,) + block,) + sub[k + 1 :]
