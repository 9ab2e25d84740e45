import pytest

from davlab.bounds import (
    construct_witness_1,
    construct_witness_2,
    floor_log2,
    lower_bound,
    multidim_bounds,
    table_row,
    upper_bound,
)
from davlab.errors import HypothesisNotMetError, NoValidSplitError
from davlab.modring import WeightSet, crt_split, involutions
from davlab.zsfree import brute_force_oracle, has_weighted_zero_sum

# the published bracket table: (n, s) -> (n1, n2, lower, upper)
TABLE = {
    (12, 5): (3, 4, 5, 8),
    (12, 7): (4, 3, 6, 8),
    (15, 11): (3, 5, 6, 10),
    (15, 4): (5, 3, 6, 8),
    (20, 9): (5, 4, 6, 10),
    (20, 11): (4, 5, 7, 12),
    (21, 8): (3, 7, 8, 14),
    (21, 13): (7, 3, 6, 7),
    (24, 17): (3, 8, 9, 16),
    (24, 7): (8, 3, 6, 8),
    (28, 13): (7, 4, 6, 9),
    (28, 15): (4, 7, 9, 16),
    (30, 11): (6, 5, 10, 11),
    (30, 19): (10, 3, 6, 9),
}


def all_splits(n_max):
    for n in range(2, n_max + 1):
        for s in involutions(n):
            try:
                yield crt_split(n, s)
            except NoValidSplitError:
                continue


def test_floor_log2():
    assert floor_log2(1) == 0
    assert floor_log2(2) == 1
    assert floor_log2(3) == 1
    assert floor_log2(4) == 2
    assert floor_log2(1023) == 9
    assert floor_log2(1024) == 10
    assert floor_log2(2**60) == 60
    with pytest.raises(ValueError):
        floor_log2(0)


def test_lower_bound_cases():
    assert lower_bound(crt_split(12, 5)) == 5  # n2 + floor(log2 n1)
    assert lower_bound(crt_split(21, 13)) == 6  # 2*n2 fires: 3 odd, 7 > 3
    assert lower_bound(crt_split(28, 15)) == 9  # 2*n2 silent: 4 < 7


def test_upper_bound_cases():
    assert upper_bound(crt_split(12, 7)) == 8
    assert upper_bound(crt_split(21, 13)) == 7  # second branch: 6 + 3 - 2
    assert upper_bound(crt_split(30, 11)) == 11


def test_table_rows_reproduced():
    for (n, s), (n1, n2, lo, hi) in TABLE.items():
        row = table_row(n, s)
        assert (row.n, row.s) == (n, s)
        assert (row.n1, row.n2) == (n1, n2)
        assert (row.lower, row.upper) == (lo, hi)


def test_table_row_rejects_unsplittable():
    with pytest.raises(NoValidSplitError):
        table_row(24, 11)


def test_bounds_ordered_up_to_60():
    for split in all_splits(60):
        assert lower_bound(split) <= upper_bound(split)


def test_multidim_example():
    mb = multidim_bounds(crt_split(12, 5), 2, 6)
    assert (mb.n1, mb.n2, mb.k, mb.d2k) == (3, 4, 2, 6)
    assert mb.lower == 9
    assert mb.upper == 16


def test_multidim_default_d2k():
    mb = multidim_bounds(crt_split(12, 5), 3)
    assert mb.d2k == 3 * (4 - 1)
    with pytest.raises(ValueError):
        multidim_bounds(crt_split(12, 5), 2, 5)  # below k*(n2-1)
    with pytest.raises(ValueError):
        multidim_bounds(crt_split(12, 5), 0)
    for k, d2k in ((1, 7.5), (1.0, None), (True, None)):
        with pytest.raises(ValueError):
            multidim_bounds(crt_split(12, 5), k, d2k)


def test_multidim_k1_collapses_to_scalar_case():
    # at k=1 the rank-k first branch equals n2*(floor(log2 n1)+1) and the
    # whole bracket must match the scalar calculators, except that the
    # doubled-n2 lower-bound case has no rank-k analogue
    for split in all_splits(60):
        mb = multidim_bounds(split, 1)
        assert mb.upper == upper_bound(split)
        assert mb.lower == split.n2 + floor_log2(split.n1)
        assert mb.lower <= lower_bound(split)


def test_multidim_handles_big_powers_exactly():
    mb = multidim_bounds(crt_split(12, 5), 40)
    assert mb.lower == 40 * 3 + 1 + 40 * 1
    # floor(40 * log2(3)) = floor(63.39...) = 63 via integer bit length
    assert (3**40).bit_length() - 1 == 63
    first = (40 * 3 + 1) * 64
    half = 3**40 // 2
    second = 2 * (40 * 3 + 1) + half - 2 * (half // 64)
    assert mb.upper == min(first, second)


def test_witness_1_instances():
    w = construct_witness_1(crt_split(12, 5))
    assert w.elements == (4, 9, 9, 9)
    assert len(construct_witness_1(crt_split(21, 13))) == 4
    assert len(construct_witness_1(crt_split(24, 17))) == 8


def test_witness_1_free_and_sized_up_to_60():
    for split in all_splits(60):
        w = construct_witness_1(split)
        A = WeightSet(split.n, (1, split.s))
        assert len(w) == split.n2 + floor_log2(split.n1) - 1
        assert not has_weighted_zero_sum(w, A)
        if len(w) <= 16:
            assert not brute_force_oracle(w, A)


def test_witness_2_instances():
    assert construct_witness_2(crt_split(21, 13)).elements == (1,) * 5
    assert construct_witness_2(crt_split(15, 4)).elements == (1,) * 5
    with pytest.raises(HypothesisNotMetError):
        construct_witness_2(crt_split(12, 5))  # n2 = 4 even
    with pytest.raises(HypothesisNotMetError):
        construct_witness_2(crt_split(20, 11))  # n1 = 4 < n2 = 5


def test_witness_2_free_and_sized_up_to_60():
    hit = 0
    for split in all_splits(60):
        if split.n2 % 2 == 0 or split.n1 <= split.n2:
            continue
        w = construct_witness_2(split)
        A = WeightSet(split.n, (1, split.s))
        assert len(w) == 2 * split.n2 - 1
        assert not has_weighted_zero_sum(w, A)
        if len(w) <= 16:
            assert not brute_force_oracle(w, A)
        hit += 1
    assert hit > 0
