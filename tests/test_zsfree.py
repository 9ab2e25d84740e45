import inspect
import random
import sys
from itertools import product
from math import prod

import pytest

from davlab.errors import TooLargeError
from davlab.modring import WeightSet, crt_split, involutions, psi, units
from davlab.errors import NoValidSplitError
from davlab.zsfree import (
    Certificate,
    ZSequence,
    brute_force_oracle,
    extract_certificate,
    _Grid,
    _grid,
    _weight_entries,
    has_weighted_zero_sum,
    reachable_sums,
)
from _oracles import lexmin_certificate, naive_certificate, weighted_sums


def test_zsequence_canonical_storage():
    S = ZSequence(12, [14, 3, -1, 3])
    assert S.moduli == (12,)
    assert S.elements == (2, 3, 3, 11)
    assert S.n == 12
    assert len(S) == 4
    assert list(S) == [2, 3, 3, 11]
    for moduli, bad in ((12, 1.5), (12, True), ((3, 4), (1, 1.5)),
                        (12, "1"), (12, (True,)), (12, (1, 2)), (12, ()),
                        ((3, 4), 5), ((3, 4), (1,)), ((3, 4), (1, True)),
                        ((3, 4), [1, 2]), ((3, 4), (1, 2, 3))):
        with pytest.raises(ValueError):
            ZSequence(moduli, [bad])
    for weights in ([1.5], [True], [(0.5,)], ["1"], [(1, 2)], [12], [(24,)],
                    [1, 0]):
        with pytest.raises(ValueError):
            has_weighted_zero_sum(ZSequence(12, [5]), weights)
    for weights in ([(1, 2, 3)], [(1,)], [(1, False)], [2.0], [12], [(3, 8)]):
        with pytest.raises(ValueError):
            has_weighted_zero_sum(ZSequence((3, 4), [(1, 1)]), weights)
    with pytest.raises(ValueError, match=r"does not fit moduli \(12,\)"):
        ZSequence(12, [(1, 2)])


def _naive_element(x, moduli):
    if len(moduli) == 1:
        return (x[0] if isinstance(x, tuple) else x) % moduli[0]
    return tuple(v % m for v, m in zip(x, moduli))


def _naive_entries(weights, moduli):
    vecs = {tuple(v % m for v, m in zip(w if isinstance(w, tuple)
                                         else [w] * len(moduli), moduli))
            for w in weights}
    return tuple(sorted(v[0] if len(moduli) == 1 else v for v in vecs))


def test_element_and_weight_reduction_matches_naive():
    # ints, 1-tuples, negative and large coordinates over Z_n, and
    # coordinate tuples over products: stored elements and weight entries
    # are the coordinates reduced, elements sorted, entries deduplicated
    rng = random.Random(0xE1E7)

    def coordinate():
        return rng.choice((rng.randint(-200, 200),
                           rng.randint(-10 ** 30, 10 ** 30)))

    def draw(moduli):
        if len(moduli) == 1:
            return rng.choice((coordinate(), (coordinate(),)))
        return tuple(coordinate() for _ in moduli)

    groups = [(n,) for n in range(2, 61)] + [(3, 3), (2, 4), (4, 6)] * 10
    inputs = 0
    for moduli in groups:
        zero = _naive_entries([0], moduli)
        for _ in range(8):
            elems = [draw(moduli) for _ in range(rng.randint(0, 6))]
            S = ZSequence(moduli, elems)
            assert S.elements == tuple(sorted(
                _naive_element(x, moduli) for x in elems))
            # a weight acting as zero is rejected, which the test above
            # checks
            weights = [rng.choice((coordinate(), draw(moduli)))
                       for _ in range(rng.randint(1, 4))]
            weights = [w for w in weights
                       if _naive_entries([w], moduli) != zero]
            if weights:
                assert _weight_entries(weights, moduli) == _naive_entries(
                    weights, moduli)
            inputs += len(elems) + len(weights)
    assert inputs >= 2000


def test_reachable_set_membership_reduces_its_value():
    R = reachable_sums(ZSequence((3, 3), [(1, 1), (0, 2)]), {1})
    assert (1, 1) in R and (4, -2) in R and (0, 0) not in R
    for bad in ((1,), (1, 1, 1), 1, [1, 1], (1, True)):
        with pytest.raises(ValueError):
            bad in R
    R = reachable_sums(ZSequence(12, [1, 2]), {1})
    for y in range(-30, 31):
        assert (y in R) == ((y,) in R) == (y % 12 in (1, 2, 3))
    assert ((3,) in R) == (15 in R) == (3 in R)
    for bad in (True, 2.0, (1, 2), "3", (False,)):
        with pytest.raises(ValueError):
            bad in R


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
    # unreduced values name their residues
    assert -1 in R and 13 in R
    assert 8 not in R and -8 not in R


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


def test_reachable_set_values_and_membership_over_products():
    rng = random.Random(0x5E75)
    for _ in range(60):
        moduli = (rng.randint(2, 4), rng.randint(2, 5))
        elems = [tuple(rng.randrange(q) for q in moduli)
                 for _ in range(rng.randint(1, 4))]
        ws = [(1, 1), (moduli[0] - 1, 1)]
        R = reachable_sums(ZSequence(moduli, elems), ws)
        want = weighted_sums(moduli, ws, elems)
        assert sorted(R.values()) == sorted(want)
        assert len(R) == len(want)
        for y in product(*map(range, moduli)):
            assert (y in R) == (y in want)
            # unreduced coordinates name the same element
            assert ((y[0] + moduli[0], y[1] - moduli[1]) in R) == (y in want)


@pytest.mark.parametrize("moduli", [(12,), (6, 6), (2, 4)])
def test_grid_element_format_against_coordinates(moduli):
    grid = _grid(moduli)
    vecs = list(product(*map(range, moduli)))
    as_elem = (lambda v: v[0]) if len(moduli) == 1 else (lambda v: v)

    def mul(a, v):
        return tuple(ai * vi % m for ai, vi, m in zip(a, v, moduli))

    codes = [grid.code(as_elem(v)) for v in vecs]
    # mixed radix, first coordinate least significant
    assert codes == [sum(vi * prod(moduli[:i]) for i, vi in enumerate(v))
                     for v in vecs]
    assert sorted(codes) == list(range(grid.size))
    for v, c in zip(vecs, codes):
        assert grid.element(c) == as_elem(v)
        assert grid.code(grid.element(c)) == c
    weights = [tuple(k % m for m in moduli) for k in (1, 5, 7)]
    weights.append(tuple(range(1, len(moduli) + 1)))
    for v in vecs:
        x = as_elem(v)
        for u in (1, 5, -1):
            want = mul((u,) * len(moduli), v)
            assert grid.times(u, x) == grid.code(as_elem(want))
        for w in weights:
            assert grid.times(as_elem(w), x) == grid.code(as_elem(mul(w, v)))
        entries = [as_elem(w) for w in weights]
        # the distinct image elements, an int or a coordinate tuple each,
        # in mixed-radix code order
        naive = sorted({mul(w, v) for w in weights}, key=lambda u: sum(
            ui * prod(moduli[:i]) for i, ui in enumerate(u)))
        assert grid.images(x, entries) == tuple(map(as_elem, naive))


@pytest.mark.parametrize(
    "moduli", [(3, 5), (4, 4), (2, 3, 4), (6, 6), (12, 2)])
def test_shift_vec_rotates_every_coordinate(moduli):
    # reference: decode every set code, add the shift, encode again
    grid = _grid(moduli)
    rng = random.Random(sum(moduli))
    samples = [0, grid.mask, 1, 1 << (grid.size - 1)]
    samples += [rng.getrandbits(grid.size) for _ in range(6)]
    for vec in product(*map(range, moduli)):
        for bits in samples:
            want = 0
            for c in range(grid.size):
                if bits >> c & 1:
                    x = grid.decode(c)
                    want |= 1 << grid.encode([a + t for a, t in zip(x, vec)])
            assert grid.shift_vec(bits, vec) == want, (moduli, vec, bits)


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
    # indices and weights must be sequences, not bare ints
    assert not Certificate(5, (1,)).holds_for(S)
    assert not Certificate((1,), 1).holds_for(S)
    assert Certificate((1, 2), (1, 1)).holds_for(S)
    # indices are read as modring._positions reads them: any sequence of
    # positions will do, and a set or generator, which fixes no order, is
    # malformed
    assert Certificate([1, 2], [1, 1]).holds_for(S)
    assert Certificate(range(1, 3), (1, 1)).holds_for(S)
    assert not Certificate({1, 2}, (1, 1)).holds_for(S)
    assert not Certificate((i for i in (1, 2)), (1, 1)).holds_for(S)
    # a weight zero on every coordinate makes any single pick a zero sum
    for bad in (0, 5, (0,)):
        assert not Certificate((1,), (bad,)).holds_for(ZSequence(5, [1, 2]))
    for bad in ((0, 0), (3, 6), 3):
        assert not Certificate((1,), (bad,)).holds_for(
            ZSequence((3, 3), [(1, 1)]))
    # one zero on some coordinates only is a weight like any other
    assert Certificate((1,), ((1, 0),)).holds_for(ZSequence((3, 3), [(0, 1)]))


def _certificate_case(rng, moduli):
    """A random certificate over moduli, well formed or not, as (S, indices,
    weights, allowed)."""
    rank = len(moduli)
    vectors = list(product(*map(range, moduli)))
    S = ZSequence(moduli,
                  [rng.choice(vectors) for _ in range(rng.randint(0, 5))])

    def weight():
        kind = rng.randrange(5)
        if kind == 0:  # an int zero everywhere
            return rng.choice((0, moduli[0], -prod(moduli), 2 * prod(moduli)))
        if kind == 1:  # a tuple zero everywhere
            return tuple(q * rng.randint(-1, 2) for q in moduli)
        if kind == 2 and rank > 1:  # a tuple zero on one coordinate only
            w = [rng.randrange(1, q) for q in moduli]
            w[rng.randrange(rank)] = 0
            return tuple(w)
        if kind == 3:
            return rng.randrange(-2 * moduli[0], 2 * moduli[0])
        return tuple(rng.randrange(-q, 2 * q) for q in moduli)

    m = len(S)
    indices = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))) \
        if m else ()
    flaw = rng.randrange(12)
    if flaw == 0 and len(indices) > 1:
        indices = indices[::-1]
    elif flaw == 1 and indices:
        indices += (indices[-1],)
    elif flaw == 2:
        indices = (rng.choice((0, -1, m + 1)),) + indices
    elif flaw == 3 and indices:
        indices = (rng.choice((1.0, True)),) + indices[1:]
    elif flaw == 4:
        indices = ()
    weights = [weight() for _ in range(len(indices) + (flaw == 5))]
    zero = _naive_entries([0], moduli)
    if weights and rng.random() < 0.5:
        # nonzero weights and a last weight that closes a zero sum, where
        # one does
        weights = [w if _naive_entries([w], moduli) != zero
                   else rng.choice(vectors[1:]) for w in weights]
        for w in rng.sample(vectors, len(vectors)):
            if naive_certificate(S, indices, (*weights[:-1], w)):
                weights[-1] = w
                break
    allowed = [w for w in rng.sample(vectors, 2) + weights
               if _naive_entries([w], moduli) != zero and rng.random() < 0.7]
    return S, indices, tuple(weights), rng.choice((None, allowed or None))


def test_certificate_check_agrees_with_naive_checker():
    # a seeded corpus over Z_n (n <= 9), (3, 3) and (2, 4), with weights
    # that are 0, multiples of n, tuples zero everywhere and tuples zero on
    # one coordinate
    rng = random.Random(0xCE27)
    groups = [(n,) for n in range(2, 10)] + [(3, 3), (2, 4)]
    held = with_zero = 0
    for _ in range(3000):
        moduli = rng.choice(groups)
        S, indices, weights, allowed = _certificate_case(rng, moduli)
        expected = naive_certificate(S, indices, weights, allowed)
        assert Certificate(indices, weights).holds_for(S, allowed) == expected
        held += expected
        zero = _naive_entries([0], moduli)
        with_zero += any(_naive_entries([w], moduli) == zero for w in weights)
    assert held >= 300 and with_zero >= 500


def test_certificate_holds_for_sums_coordinates_over_products():
    # codes 1 + 5 sum to |G| = 6, yet the element sum is (0, 2)
    S = ZSequence((2, 3), [(1, 0), (1, 2)])
    assert not Certificate((1, 2), ((1, 1), (1, 1))).holds_for(S)
    # the sum (1, 0) misses in the first coordinate only
    S = ZSequence((2, 3), [(0, 1), (1, 2)])
    assert not Certificate((1, 2), ((1, 1), (1, 1))).holds_for(S)
    S = ZSequence((2, 3), [(1, 1), (1, 2)])
    assert Certificate((1, 2), ((1, 1), (1, 1))).holds_for(S)


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


def test_rotation_masks_are_built_on_first_use():
    assert all(t is None for row in _Grid((2100, 8)).rot for t in row)
    for n, span in [(5, 8), (12, 16), (30, 8)]:
        grid = _Grid((n, span))
        ones = sum(1 << lane * n for lane in range(span))
        for a in range(n + 1):
            want = ((ones << (n - a)) - ones, (ones << a) - ones)
            assert grid.rotation(0, a) == want, (n, span, a)
            assert grid.rot[0][a] == want


@pytest.mark.parametrize("moduli, weights", [
    ((12,), ((1,), (5,), (6,))), ((52,), ((1,), (25,))),
    ((6, 6), ((1, 1), (5, 5), (3, 2))), ((2, 4), ((1, 1), (1, 3))),
    ((3, 5), ((1, 1), (2, 4)))])
def test_lift_and_step_match_naive_sums(moduli, weights):
    # along random chains, zero sums included, step(R, lift(R), images)
    # gives the reachable sums that the naive oracle adds up outright, and
    # stepping onto another base B, as the certificate rows do, gives B
    # plus them.  Some appends have an image 0: the element 0, which
    # reachable_sums folds and the search never does, and for (12,) and
    # (6, 6) the elements a weight sends to 0
    grid = _grid(moduli)
    entries = _weight_entries(weights, moduli)
    vecs = list(product(*map(range, moduli)))
    rng = random.Random(len(vecs) * 7 + len(weights))
    bases = random.Random(len(vecs))  # apart, so the chains stay as drawn
    zero_images = 0
    for _ in range(20):
        bits, sums = 0, set()
        for _ in range(rng.randint(1, 9)):
            v = rng.choice(vecs)
            x = grid.element(grid.encode(v))
            images = grid.images(x, entries)
            zero_images += grid.code(images[0]) == 0
            sums = weighted_sums(moduli, weights, [v], sums)
            want = sum(1 << grid.encode(y) for y in sums)
            lifted = grid.lift(bits)
            assert grid.step(bits, lifted, images) == want, (v, sums)
            base = bases.getrandbits(grid.size)
            assert (grid.step(base, lifted, images)
                    == base | grid.step(0, lifted, images)), (v, base)
            bits = want
    assert zero_images > 0
