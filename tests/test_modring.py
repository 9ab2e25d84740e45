import random
from math import gcd

import pytest

from davlab.errors import InvalidSError, NoValidSplitError
from davlab.modring import (
    CrtSplit,
    WeightSet,
    crt_split,
    distinct_prime_factors,
    divisors,
    involutions,
    is_squarefree,
    psi,
    psi_inv,
    quadratic_residue_weights,
    units,
)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(13) == [1, 13]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    with pytest.raises(ValueError):
        divisors(0)
    with pytest.raises(ValueError):
        divisors(-4)


def test_units():
    assert units(12) == [1, 5, 7, 11]
    assert units(7) == [1, 2, 3, 4, 5, 6]
    for n in range(2, 60):
        us = units(n)
        assert all(gcd(u, n) == 1 for u in us)
        assert all(any((u * v) % n == 1 for v in us) for u in us)


def test_distinct_prime_factors():
    assert distinct_prime_factors(60) == [2, 3, 5]
    assert distinct_prime_factors(8) == [2]
    assert distinct_prime_factors(97) == [97]
    assert distinct_prime_factors(15) == [3, 5]


def test_is_squarefree():
    assert is_squarefree(15)
    assert is_squarefree(30)
    assert not is_squarefree(12)
    assert not is_squarefree(9)
    assert [n for n in range(2, 20) if is_squarefree(n)] == [
        2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19,
    ]


def test_involutions_known_moduli():
    assert involutions(12) == [5, 7]
    assert involutions(7) == []
    assert involutions(24) == [5, 7, 11, 13, 17, 19]


def test_involutions_definition():
    for n in range(2, 201):
        got = involutions(n)
        want = [s for s in range(2, n - 1) if (s * s) % n == 1]
        assert got == want
        assert all(2 <= s <= n - 2 for s in got)


def test_crt_split_table_rows():
    for (n, s), (n1, n2) in {
        (12, 5): (3, 4),
        (12, 7): (4, 3),
        (15, 4): (5, 3),
        (15, 11): (3, 5),
        (30, 11): (6, 5),
        (30, 19): (10, 3),
        (24, 7): (8, 3),
        (24, 17): (3, 8),
    }.items():
        split = crt_split(n, s)
        assert (split.n1, split.n2) == (n1, n2)


def test_crt_split_rejections():
    with pytest.raises(NoValidSplitError):
        crt_split(24, 11)
    with pytest.raises(NoValidSplitError):
        crt_split(24, 13)
    with pytest.raises(InvalidSError):
        crt_split(12, 3)
    with pytest.raises(InvalidSError):
        crt_split(12, 1)
    with pytest.raises(InvalidSError):
        crt_split(12, 11)
    for n, s in ((12, 5.0), (12, True), (12.0, 5)):
        with pytest.raises(ValueError):
            crt_split(n, s)
    with pytest.raises(ValueError):
        CrtSplit(12, 5.0, 3, 4)


def test_crt_split_postconditions():
    # every nontrivial involution either splits cleanly or is rejected, and
    # both outcomes occur in this range
    succeeded = failed = 0
    for n in range(2, 101):
        for s in involutions(n):
            try:
                split = crt_split(n, s)
            except NoValidSplitError:
                failed += 1
                continue
            succeeded += 1
            assert split.n1 * split.n2 == n
            assert gcd(split.n1, split.n2) == 1
            assert split.n1 >= 3 and split.n2 >= 3
            assert s % split.n1 == split.n1 - 1
            assert s % split.n2 == 1
            assert not is_prime(n)


def is_prime(n):
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


def test_crt_split_prefers_even_n1():
    # when the free factor 2 can sit on either side, it lands on n1
    split = crt_split(30, 11)
    assert (split.n1, split.n2) == (6, 5)
    assert 11 % 3 == 2 and 11 % 10 == 1  # (3, 10) would also qualify
    split = crt_split(30, 19)
    assert (split.n1, split.n2) == (10, 3)
    assert 19 % 5 == 4 and 19 % 6 == 1  # (5, 6) would also qualify


def test_crt_split_direct_construction_validates():
    with pytest.raises(ValueError):
        CrtSplit(12, 5, 6, 2)
    with pytest.raises(ValueError):
        CrtSplit(12, 5, 4, 3)
    with pytest.raises(InvalidSError):
        CrtSplit(12, 3, 3, 4)
    CrtSplit(12, 5, 3, 4)


def test_psi_sign_convention():
    for n in range(2, 101):
        for s in involutions(n):
            try:
                split = crt_split(n, s)
            except NoValidSplitError:
                continue
            assert psi(0, split) == (0, 0)
            assert psi(1, split) == (1, 1)
            assert psi(s, split) == (split.n1 - 1, 1)


def test_psi_bijection_and_ring_homomorphism():
    rng = random.Random(0x5A11)
    for n in range(2, 201):
        for s in involutions(n):
            try:
                split = crt_split(n, s)
            except NoValidSplitError:
                continue
            images = {psi(a, split) for a in range(n)}
            assert len(images) == n
            for _ in range(20):
                a, b = rng.randrange(n), rng.randrange(n)
                pa, pb = psi(a, split), psi(b, split)
                assert psi((a + b) % n, split) == (
                    (pa[0] + pb[0]) % split.n1,
                    (pa[1] + pb[1]) % split.n2,
                )
                assert psi((a * b) % n, split) == (
                    (pa[0] * pb[0]) % split.n1,
                    (pa[1] * pb[1]) % split.n2,
                )


def test_psi_inv_examples():
    split = crt_split(12, 5)
    assert psi_inv((1, 0), split) == 4
    assert psi_inv((0, 1), split) == 9
    assert psi_inv((0, 0), split) == 0
    for pair in ((1.5, 0), (0, 1.0), (True, 0)):
        with pytest.raises(ValueError):
            psi_inv(pair, split)
    with pytest.raises(ValueError):
        psi(5.0, split)


def test_psi_roundtrip():
    for n in range(2, 61):
        for s in involutions(n):
            try:
                split = crt_split(n, s)
            except NoValidSplitError:
                continue
            for a in range(n):
                assert psi_inv(psi(a, split), split) == a
            for a1 in range(split.n1):
                for a2 in range(split.n2):
                    assert psi(psi_inv((a1, a2), split), split) == (a1, a2)


def test_quadratic_residue_weights_values():
    assert quadratic_residue_weights(15).weights == (1, 4)
    assert quadratic_residue_weights(5).weights == (1, 4)
    assert quadratic_residue_weights(3).weights == (1,)


def test_quadratic_residue_weights_are_a_unit_subgroup():
    for n in range(3, 60):
        ws = set(quadratic_residue_weights(n))
        assert 1 in ws
        assert ws <= set(units(n))
        assert all((a * b) % n in ws for a in ws for b in ws)
    with pytest.raises(ValueError):
        quadratic_residue_weights(2)


def test_weightset_normalization():
    ws = WeightSet(12, [13, 5, 17, 1])
    assert ws.weights == (1, 5)
    assert len(ws) == 2
    assert 5 in ws and 17 in ws and 7 not in ws
    assert list(ws) == [1, 5]
    with pytest.raises(ValueError):
        WeightSet(12, [])
    with pytest.raises(ValueError):
        WeightSet(12, [12, 24])
    with pytest.raises(ValueError):
        WeightSet(12, [0])
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError):
            WeightSet(12, [1, bad])
