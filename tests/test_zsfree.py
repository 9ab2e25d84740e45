import inspect
import random
import sys
from itertools import product

import pytest

from davlab.errors import TooLargeError
from davlab.modring import WeightSet, crt_split, involutions, psi, units
from davlab.errors import NoValidSplitError
from davlab.zsfree import (
    Certificate,
    ZSequence,
    brute_force_oracle,
    extract_certificate,
    has_weighted_zero_sum,
    reachable_sums,
)
from _oracles import lexmin_certificate


def test_zsequence_canonical_storage():
    S = ZSequence(12, [14, 3, -1, 3])
    assert S.moduli == (12,)
    assert S.elements == (2, 3, 3, 11)
    assert S.n == 12
    assert len(S) == 4
    assert list(S) == [2, 3, 3, 11]
    for moduli, bad in ((12, 1.5), (12, True), ((3, 4), (1, 1.5))):
        with pytest.raises(ValueError):
            ZSequence(moduli, [bad])
    for weights in ([1.5], [True], [(0.5,)]):
        with pytest.raises(ValueError):
            has_weighted_zero_sum(ZSequence(12, [5]), weights)


def test_zsequence_product_group():
    S = ZSequence((3, 4), [(2, 5), (4, 0)])
    assert S.elements == ((1, 0), (2, 1))
    with pytest.raises(ValueError):
        S.n
    with pytest.raises(ValueError):
        ZSequence((3, 4), [5])
    with pytest.raises(ValueError):
        ZSequence((3, 4), [(1, 2, 3)])
    with pytest.raises(ValueError):
        ZSequence((), [])
    with pytest.raises(ValueError):
        ZSequence(1, [0])


def test_weights_must_act_nontrivially():
    S = ZSequence(12, [1])
    with pytest.raises(ValueError):
        reachable_sums(S, [12])
    with pytest.raises(ValueError):
        reachable_sums(S, [])
    S2 = ZSequence((3, 4), [(1, 1)])
    with pytest.raises(ValueError):
        reachable_sums(S2, [(3, 4)])
    # nonzero on one coordinate is fine
    assert not has_weighted_zero_sum(S2, [(3, 1)])


def test_reachable_sums_empty():
    R = reachable_sums(ZSequence(8, []), {1})
    assert len(R) == 0
    assert not R.has_zero
    assert R.values() == []


def test_reachable_sums_signed_example():
    R = reachable_sums(ZSequence(8, [1, 2, 4]), WeightSet(8, [1, 7]))
    assert sorted(R.values()) == [1, 2, 3, 4, 5, 6, 7]
    assert not R.has_zero
    assert 0 not in R
    assert 5 in R


def test_reachable_sums_matches_direct_enumeration():
    rng = random.Random(0x2EAC)
    for _ in range(150):
        n = rng.randint(2, 14)
        m = rng.randint(0, 6)
        S = ZSequence(n, [rng.randrange(n) for _ in range(m)])
        ws = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
        want = set()
        for picks in product([None] + ws, repeat=m):
            if all(p is None for p in picks):
                continue
            want.add(
                sum(a * x for a, x in zip(picks, S.elements) if a is not None)
                % n
            )
        R = reachable_sums(S, ws)
        assert set(R.values()) == want


def test_reachable_sums_monotone_under_extension():
    rng = random.Random(0xAB1E)
    for _ in range(100):
        n = rng.randint(2, 16)
        S = ZSequence(n, [rng.randrange(n) for _ in range(rng.randint(0, 6))])
        ws = [rng.randint(1, n - 1)]
        extended = ZSequence(n, S.elements + (rng.randrange(n),))
        before = reachable_sums(S, ws).bits
        after = reachable_sums(extended, ws).bits
        assert before & after == before


def test_unit_scaling_equivariance():
    rng = random.Random(0x5CA1E)
    for _ in range(100):
        n = rng.randint(3, 16)
        S = ZSequence(n, [rng.randrange(n) for _ in range(rng.randint(1, 6))])
        ws = sorted(rng.sample(range(1, n), rng.randint(1, 2)))
        u = rng.choice(units(n))
        scaled = ZSequence(n, [(u * x) % n for x in S.elements])
        base = set(reachable_sums(S, ws).values())
        assert set(reachable_sums(scaled, ws).values()) == {
            (u * v) % n for v in base
        }


def test_has_weighted_zero_sum_basics():
    assert has_weighted_zero_sum(ZSequence(9, [0, 4]), {2})
    for n in range(3, 13):
        for g in units(n):
            assert not has_weighted_zero_sum(
                ZSequence(n, [g] * (n - 1)), {1}
            )
        assert has_weighted_zero_sum(ZSequence(n, [1] * n), {1})


def test_zero_sum_free_construction_example():
    S = ZSequence(12, [4, 9, 9, 9])
    A = WeightSet(12, [1, 5])
    assert not has_weighted_zero_sum(S, A)
    assert not reachable_sums(S, A).has_zero


def test_hereditary_freeness():
    rng = random.Random(0xED)
    checked = 0
    while checked < 60:
        n = rng.randint(3, 16)
        m = rng.randint(2, 7)
        S = ZSequence(n, [rng.randrange(n) for _ in range(m)])
        ws = sorted(rng.sample(range(1, n), rng.randint(1, 2)))
        if has_weighted_zero_sum(S, ws):
            continue
        keep = rng.sample(range(m), rng.randint(1, m))
        sub = ZSequence(n, [S.elements[i] for i in keep])
        assert not has_weighted_zero_sum(sub, ws)
        checked += 1


def test_psi_transport():
    # a {1, s}-weighted zero sum over Z_n is the same thing as a
    # {(1,1), (-1,1)}-weighted zero sum of the CRT images
    rng = random.Random(0x7AB5)
    for n in range(2, 41):
        for s in involutions(n):
            try:
                split = crt_split(n, s)
            except NoValidSplitError:
                continue
            pm = [(1, 1), (split.n1 - 1, 1)]
            for _ in range(25):
                elems = [rng.randrange(n) for _ in range(rng.randint(1, 7))]
                S = ZSequence(n, elems)
                image = ZSequence(
                    (split.n1, split.n2), [psi(x, split) for x in elems]
                )
                assert has_weighted_zero_sum(S, {1, s}) == (
                    has_weighted_zero_sum(image, pm)
                )


def test_brute_force_oracle_edges():
    assert not brute_force_oracle(ZSequence(12, []), {1})
    assert not brute_force_oracle(ZSequence(12, [6]), WeightSet(12, [1, 5]))
    assert brute_force_oracle(ZSequence(12, [6]), {2})
    with pytest.raises(TooLargeError):
        brute_force_oracle(ZSequence(5, [1] * 17), {1})


def test_oracle_equivalence_random():
    rng = random.Random(0x0AC1E)
    for _ in range(400):
        n = rng.randint(2, 20)
        m = rng.randint(0, 8)
        S = ZSequence(n, [rng.randrange(n) for _ in range(m)])
        ws = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
        assert brute_force_oracle(S, ws) == has_weighted_zero_sum(S, ws)


def test_oracle_equivalence_product_groups():
    rng = random.Random(0xCA7)
    for _ in range(120):
        moduli = tuple(
            rng.randint(2, 5) for _ in range(rng.randint(2, 3))
        )
        m = rng.randint(0, 5)
        S = ZSequence(
            moduli,
            [
                tuple(rng.randrange(q) for q in moduli)
                for _ in range(m)
            ],
        )
        ws = [rng.randint(1, min(moduli) - 1) for _ in range(rng.randint(1, 2))]
        assert brute_force_oracle(S, ws) == has_weighted_zero_sum(S, ws)


def test_certificate_examples():
    cert = extract_certificate(ZSequence(12, [0, 3, 5]), {1, 5})
    assert cert.indices == (1,)
    assert len(cert.weights) == 1
    assert cert.holds_for(ZSequence(12, [0, 3, 5]), {1, 5})

    assert extract_certificate(ZSequence(12, [1, 1]), WeightSet(12, [1, 5])) is None

    S = ZSequence(12, [2, 10])
    cert = extract_certificate(S, {1, 11})
    assert cert is not None
    assert cert.indices == (1, 2)
    assert cert.weights == (1, 1)
    assert cert.holds_for(S, {1, 11})


def test_certificate_none_iff_free():
    rng = random.Random(0xF1EE)
    for _ in range(200):
        n = rng.randint(2, 15)
        m = rng.randint(0, 6)
        S = ZSequence(n, [rng.randrange(n) for _ in range(m)])
        ws = sorted(rng.sample(range(1, n), rng.randint(1, min(2, n - 1))))
        cert = extract_certificate(S, ws)
        assert (cert is None) == (not has_weighted_zero_sum(S, ws))
        if cert is not None:
            assert cert.holds_for(S, ws)


def test_certificate_minimality_and_tiebreak():
    # fewest picks, then the lexicographically smallest index tuple, then
    # the smallest weight tuple
    rng = random.Random(0x311)
    for _ in range(150):
        n = rng.randint(2, 12)
        m = rng.randint(1, 6)
        S = ZSequence(n, [rng.randrange(n) for _ in range(m)])
        ws = sorted(rng.sample(range(1, n), rng.randint(1, min(2, n - 1))))
        assert extract_certificate(S, ws) == lexmin_certificate(S, ws)


def test_certificate_deeper_than_recursion_limit():
    # the only zero sum of 400 copies of 1 in Z_400 takes every element;
    # extraction must not recurse once per pick
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 250)
    try:
        cert = extract_certificate(ZSequence(400, [1] * 400), {1})
    finally:
        sys.setrecursionlimit(old)
    assert cert.indices == tuple(range(1, 401))
    assert cert.weights == (1,) * 400


def test_certificate_holds_for_rejects_malformed():
    S = ZSequence(12, [2, 10])
    assert not Certificate((), ()).holds_for(S)
    assert not Certificate((2, 1), (1, 1)).holds_for(S)
    assert not Certificate((1, 1), (1, 1)).holds_for(S)
    assert not Certificate((1, 3), (1, 1)).holds_for(S)
    assert not Certificate((1, 2), (1,)).holds_for(S)
    assert not Certificate((1, 2), (1, 2)).holds_for(S, {1, 11})
    assert not Certificate((1.0, 2), (1, 1)).holds_for(S)
    assert not Certificate((1,), (2.4,)).holds_for(ZSequence(12, [5]))
    assert not Certificate((1,), (True,)).holds_for(ZSequence(12, [0]))
    assert Certificate((1, 2), (1, 1)).holds_for(S)


def test_certificates_in_product_groups():
    rng = random.Random(0x9B0D)
    for _ in range(80):
        moduli = (rng.randint(2, 4), rng.randint(2, 5))
        m = rng.randint(1, 5)
        S = ZSequence(
            moduli,
            [tuple(rng.randrange(q) for q in moduli) for _ in range(m)],
        )
        ws = [(1, 1), (moduli[0] - 1, 1)]
        cert = extract_certificate(S, ws)
        assert (cert is None) == (not has_weighted_zero_sum(S, ws))
        if cert is not None:
            assert cert.holds_for(S, ws)
        assert cert == lexmin_certificate(S, ws)


def test_extraction_is_deterministic():
    S = ZSequence(15, [2, 3, 7, 7, 11])
    a = extract_certificate(S, {1, 4})
    b = extract_certificate(ZSequence(15, [2, 3, 7, 7, 11]), {1, 4})
    assert a == b
