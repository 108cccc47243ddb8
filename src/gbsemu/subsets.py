"""Subset indexing and set-partition patterns.

Mode subsets are strictly increasing tuples of 0-based mode indices.
Tables over all subsets of order 1..K use a dense layout: orders are
concatenated (order 1 first), and within an order subsets are ranked
colexicographically (combinatorial number system).  Colex ranking has the
property that subsets drawn from {0..m-1} occupy a contiguous prefix of the
order-d block, and subsets sharing a fixed largest element are contiguous;
both properties are relied on heavily by the sampler's inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import ValidationError

# Bell numbers B_1..B_6; partition enumeration is capped at d = 6.
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
MAX_PARTITION_ORDER = 6


def colex_rank(subset) -> int:
    """Colex rank of a strictly increasing index tuple."""
    return sum(comb(c, j + 1) for j, c in enumerate(subset))


def colex_unrank(rank: int, d: int) -> tuple[int, ...]:
    """Inverse of :func:`colex_rank` for subsets of size d."""
    out = [0] * d
    r = rank
    while d > 0:
        # Largest n with comb(n, d) <= r.
        n = d - 1
        while comb(n + 1, d) <= r:
            n += 1
        r -= comb(n, d)
        d -= 1
        out[d] = n
    return tuple(out)


def order_offset(M: int, d: int) -> int:
    """Start of the order-d block in the dense order-1..K layout."""
    return sum(comb(M, j) for j in range(1, d))


def table_size(M: int, K: int) -> int:
    """Number of subsets of order 1..K over M modes."""
    return sum(comb(M, d) for d in range(1, K + 1))


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
    return order_offset(M, d) + colex_rank(subset)


def subset_unrank(offset: int, M: int, K: int) -> tuple[int, ...]:
    """Inverse of :func:`subset_rank`."""
    if offset < 0 or offset >= table_size(M, K):
        raise ValidationError(f"offset {offset} out of range for M={M}, K={K}")
    for d in range(1, K + 1):
        block = comb(M, d)
        start = order_offset(M, d)
        if offset < start + block:
            return colex_unrank(offset - start, d)
    raise AssertionError("unreachable")


def pair_rank(i: int, j: int) -> int:
    """Colex rank of the pair {i, j}, i != j."""
    if i > j:
        i, j = j, i
    return i + comb(j, 2)


@dataclass(frozen=True)
class PartitionPattern:
    """A set partition of {0..d-1} with its cumulant weight.

    The weight is (-1)^(len(blocks)-1) * (len(blocks)-1)!; summed over all
    patterns of a given order d >= 2 the weights cancel exactly.
    """

    blocks: tuple[tuple[int, ...], ...]
    weight: float

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


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
        w = float((-1) ** (k - 1)) * _factorial(k - 1)
        out.append(PartitionPattern(blocks=blocks, weight=w))
    assert len(out) == BELL[d]
    return tuple(out)


def _factorial(n: int) -> float:
    out = 1.0
    for i in range(2, n + 1):
        out *= i
    return out


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
