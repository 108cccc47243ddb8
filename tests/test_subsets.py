import math
from itertools import combinations, islice

import numpy as np
import pytest

from gbsemu.errors import ValidationError
from gbsemu.subsets import (
    BELL,
    colex_chunks,
    dense_rank,
    order_offset,
    partition_patterns,
    sub_subset_ranks,
    subset_rank,
    table_size,
)


def test_order1_offsets():
    M = 9
    for i in range(M):
        assert subset_rank((i,), M, 3) == i


def test_first_pair_offset():
    # colex enumeration of pairs starts right after the M singletons
    M = 4
    pairs = sorted(
        ((i, j) for j in range(M) for i in range(j)),
        key=lambda s: s[::-1],  # colex order: compare the largest elements first
    )
    assert pairs[0] == (0, 1)
    assert subset_rank((0, 1), M, 2) == M
    for r, S in enumerate(pairs):
        assert subset_rank(S, M, 2) == M + r


def test_rank_unrank_roundtrip():
    # at most 300 chunks per block: the smaller chunk sizes cover a prefix of the larger blocks
    for chunk_rows in (1, 7, 4096):
        for M in (1, 6, 13, 40):
            for d in range(1, min(6, M) + 1):
                seen = 0
                for start, rows in islice(colex_chunks(M, d, chunk_rows), 300):
                    assert start == seen
                    assert rows.shape == (min(chunk_rows, math.comb(M, d) - start), d)
                    assert (rows[:, 0] >= 0).all() and (np.diff(rows, axis=1) > 0).all()
                    assert (rows[:, -1] < M).all()
                    ranks = dense_rank(rows.T, M)
                    assert np.array_equal(ranks, order_offset(M, d) + start + np.arange(len(rows)))
                    assert subset_rank(tuple(rows[-1].tolist()), M, d) == ranks[-1]
                    # ranked from element position p: the first p elements add their colex rank
                    for p in range(1, d):
                        lower = dense_rank(rows[:, :p].T, M) - order_offset(M, p)
                        assert np.array_equal(dense_rank(rows[:, p:].T, M, start=p) + lower, ranks)
                    seen += len(rows)
                assert seen == min(math.comb(M, d), 300 * chunk_rows)
    # the unranked rows against an independent colex enumeration
    for d in range(1, 7):
        colex = sorted(combinations(range(6), d), key=lambda s: s[::-1])
        rows = np.concatenate([r for _, r in colex_chunks(6, d, 7)])
        assert rows.tolist() == [list(S) for S in colex]


def test_sub_subset_ranks_match_dense_rank():
    for M in (6, 13):
        for d in range(1, 7):
            for _, rows in islice(colex_chunks(M, d, 50), 3):
                sub = sub_subset_ranks(rows, M)
                assert sub.shape == (len(rows), 2**d - 1)
                for mask in range(1, 2**d):
                    cols = [rows[:, p] for p in range(d) if mask >> p & 1]
                    assert np.array_equal(sub[:, mask - 1], dense_rank(cols, M))


def test_rank_errors():
    with pytest.raises(ValidationError):
        subset_rank((2, 1), 5, 3)
    with pytest.raises(ValidationError):
        subset_rank((0, 5), 5, 3)
    with pytest.raises(ValidationError):
        subset_rank((0, 1, 2, 3), 5, 3)


def test_bell_counts():
    for d, b in BELL.items():
        assert len(partition_patterns(d)) == b


def test_pattern_weights_d1_d2():
    (p1,) = partition_patterns(1)
    assert p1.blocks == ((0,),) and p1.weight == 1.0
    pats = {pat.blocks: pat.weight for pat in partition_patterns(2)}
    assert pats[((0, 1),)] == 1.0
    assert pats[((0,), (1,))] == -1.0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_weights_sum_to_zero(d):
    # the cumulant of a deterministic variable vanishes for d >= 2
    total = sum(pat.weight for pat in partition_patterns(d))
    assert total == pytest.approx(0.0, abs=1e-12)


def test_patterns_cover_and_disjoint():
    for d in (3, 5):
        for pat in partition_patterns(d):
            flat = [i for b in pat.blocks for i in b]
            assert sorted(flat) == list(range(d))
            assert all(b for b in pat.blocks)


def test_partition_order_range():
    with pytest.raises(ValidationError):
        partition_patterns(0)
    with pytest.raises(ValidationError):
        partition_patterns(7)


def test_table_size():
    assert table_size(10, 4) == sum(math.comb(10, d) for d in (1, 2, 3, 4)) == 385
