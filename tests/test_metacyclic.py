import inspect
import random
import sys
import time
from collections import Counter
from itertools import combinations_with_replacement, permutations
from math import gcd

import pytest

from davlab import davenport
from davlab.davenport import exact_davenport
from davlab.errors import BudgetExceededError, WrongLengthError
from davlab.metacyclic import (
    IDENTITY,
    GroupSpec,
    GSequence,
    MetaElem,
    OrderedCertificate,
    _slot_space,
    _slot_sums,
    claimed_extremal_sequence,
    classify_extremal,
    format_element,
    format_sequence,
    has_product_one_subsequence,
    inverse,
    is_claimed_extremal_form,
    mul,
    small_davenport,
)
from davlab.davenport import SearchBudget
from davlab.modring import crt_split, involutions, units
from davlab.zsfree import ZSequence, has_weighted_zero_sum
from _oracles import (
    automorphisms,
    naive_ordered_certificate,
    product_one_oracle,
    realized_products,
    slot_sums,
)


def some_specs(n_max):
    for n in range(3, n_max + 1):
        yield GroupSpec.dihedral(n)
        for s in involutions(n):
            yield GroupSpec(n, s)


def test_group_spec_validation():
    spec = GroupSpec(12, 5)
    assert (spec.n, spec.s) == (12, 5)
    assert spec.order == 24
    assert GroupSpec.dihedral(6).s == 5
    assert GroupSpec(12, -1).s == 11
    with pytest.raises(ValueError):
        GroupSpec(12, 3)
    with pytest.raises(ValueError):
        GroupSpec(2, 1)
    with pytest.raises(ValueError):
        GroupSpec(12, 5.0)
    assert spec.element(3, 14) == MetaElem(1, 2)
    assert len(spec.all_elements()) == 24


def test_group_axioms_small_exhaustive():
    for spec in some_specs(12):
        els = spec.all_elements()
        for g in els:
            assert mul(g, IDENTITY, spec) == g
            assert mul(IDENTITY, g, spec) == g
            assert mul(g, inverse(g, spec), spec) == IDENTITY
            assert mul(inverse(g, spec), g, spec) == IDENTITY
        assert all(
            mul(mul(a, b, spec), c, spec) == mul(a, mul(b, c, spec), spec)
            for a in els
            for b in els
            for c in els
        )


def test_group_axioms_order_100_exhaustive():
    spec = GroupSpec.dihedral(50)
    els = spec.all_elements()
    for g in els:
        assert mul(g, inverse(g, spec), spec) == IDENTITY
    assert all(
        mul(mul(a, b, spec), c, spec) == mul(a, mul(b, c, spec), spec)
        for a in els
        for b in els
        for c in els
    )


def test_mul_relations():
    # x^2 = 1, y^n = 1, y x = x y^s
    for spec in (GroupSpec(12, 5), GroupSpec.dihedral(7)):
        x = MetaElem(1, 0)
        y = MetaElem(0, 1)
        assert mul(x, x, spec) == IDENTITY
        acc = IDENTITY
        for _ in range(spec.n):
            acc = mul(acc, y, spec)
        assert acc == IDENTITY
        assert mul(y, x, spec) == mul(x, MetaElem(0, spec.s), spec)


def test_crt_image_respects_multiplication():
    for n in range(3, 31):
        for s in involutions(n):
            try:
                split = crt_split(n, s)
            except Exception:
                continue
            spec = GroupSpec(n, s)
            spec1 = GroupSpec(split.n1, split.n1 - 1) if split.n1 >= 3 else None
            spec2 = GroupSpec(split.n2, 1) if split.n2 >= 3 else None
            if spec1 is None or spec2 is None:
                continue

            def img(g):
                return (g.eps, g.a % split.n1, g.a % split.n2)

            for g in spec.all_elements():
                for h in spec.all_elements():
                    e, a1, a2 = img(mul(g, h, spec))
                    p1 = mul(
                        MetaElem(g.eps, g.a % split.n1),
                        MetaElem(h.eps, h.a % split.n1),
                        spec1,
                    )
                    p2 = mul(
                        MetaElem(g.eps, g.a % split.n2),
                        MetaElem(h.eps, h.a % split.n2),
                        spec2,
                    )
                    assert (e, a1, a2) == (p1.eps, p1.a, p2.a)


def test_gsequence_storage():
    spec = GroupSpec(12, 5)
    S = GSequence(spec, [(1, 14), MetaElem(0, 3), (0, 1)])
    assert S.elements == (MetaElem(0, 1), MetaElem(0, 3), MetaElem(1, 2))
    assert len(S) == 3
    assert list(S)[0] == MetaElem(0, 1)
    for bad in ((0, 1.5), (1.0, 2), (True, 2), MetaElem(0, 2.0),
                5, None, (0, 1, 2), (0,)):
        with pytest.raises(ValueError):
            GSequence(spec, [(0, 1), bad])
    with pytest.raises(ValueError):
        claimed_extremal_sequence(spec, 1.0, 0)
    with pytest.raises(ValueError):
        claimed_extremal_sequence(spec, 1, 0.5)


def test_claimed_form_predicates():
    spec = GroupSpec(12, 5)
    S = claimed_extremal_sequence(spec, 5, 3)
    assert is_claimed_extremal_form(S)
    assert Counter(g.eps for g in S.elements) == {0: 11, 1: 1}

    with pytest.raises(ValueError):
        claimed_extremal_sequence(spec, 2, 3)

    bad_unit = GSequence(spec, [(0, 2)] * 11 + [(1, 3)])
    assert not is_claimed_extremal_form(bad_unit)

    mixed = GSequence(spec, [(0, 1)] * 10 + [(0, 2), (1, 0)])
    assert not is_claimed_extremal_form(mixed)

    with pytest.raises(WrongLengthError):
        is_claimed_extremal_form(GSequence(spec, [(0, 1)]))


def test_product_one_matches_ordered_bruteforce():
    rng = random.Random(0xD1CE)
    for _ in range(200):
        n = rng.randint(3, 12)
        roots = [1, n - 1] + involutions(n)
        spec = GroupSpec(n, rng.choice(roots))
        m = rng.randint(0, 7)
        S = GSequence(
            spec,
            [
                MetaElem(rng.randint(0, 1), rng.randrange(n))
                for _ in range(m)
            ],
        )
        cert = has_product_one_subsequence(S)
        assert (cert is not None) == product_one_oracle(S)
        if cert is not None:
            assert cert.holds_for(S)
    # large groups, whose lane masks are built only for the rotation amounts
    # in use; exponents from a few cosets make product-one likely
    for s in (1, 2099):
        spec = GroupSpec(2100, s)
        for _ in range(40):
            S = GSequence(spec, [
                MetaElem(rng.randint(0, 1), rng.choice((0, 1, 700, 1050, 1400, 2099)))
                for _ in range(rng.randint(1, 6))
            ])
            cert = has_product_one_subsequence(S)
            assert (cert is not None) == product_one_oracle(S)
            assert cert is None or cert.holds_for(S)


def test_product_one_matches_oracle_on_every_small_multiset():
    # every multiset of length 1..4 in every C_n x|_s C_2 with n <= 6
    cases = 0
    for n in range(3, 7):
        for s in [s for s in range(1, n) if s * s % n == 1]:
            spec = GroupSpec(n, s)
            for length in range(1, 5):
                for tup in combinations_with_replacement(spec.all_elements(), length):
                    S = GSequence(spec, tup)
                    cert = has_product_one_subsequence(S)
                    assert (cert is not None) == product_one_oracle(S)
                    assert cert is None or cert.holds_for(S)
                    cases += 1
    assert cases == 7044


def test_product_one_has_no_length_cap():
    d30 = GroupSpec.dihedral(30)
    S = GSequence(d30, [(0, 1)] * 30)
    cert = has_product_one_subsequence(S)
    assert cert.positions == tuple(range(1, 31))
    assert cert.holds_for(S)
    assert has_product_one_subsequence(GSequence(d30, [(0, 1)] * 29)) is None
    d100 = GroupSpec.dihedral(100)
    assert has_product_one_subsequence(GSequence(d100, [(0, 1)] * 40)) is None


def test_product_one_certificate_is_minimal():
    rng = random.Random(0x717E)
    for _ in range(120):
        n = rng.randint(3, 10)
        spec = GroupSpec(n, rng.choice([1, n - 1] + involutions(n)))
        m = rng.randint(1, 6)
        S = GSequence(
            spec,
            [MetaElem(rng.randint(0, 1), rng.randrange(n)) for _ in range(m)],
        )
        cert = has_product_one_subsequence(S)
        if cert is None:
            continue
        k = len(cert.positions)
        # no smaller sub-multiset may reach the identity
        from itertools import combinations

        for size in range(1, k):
            for idxs in combinations(range(len(S.elements)), size):
                T = GSequence(spec, [S.elements[i] for i in idxs])
                assert not product_one_oracle(T)


def test_product_one_is_storage_order_invariant():
    spec = GroupSpec(12, 7)
    elems = [(0, 3), (1, 5), (1, 1), (0, 9)]
    a = has_product_one_subsequence(GSequence(spec, elems))
    b = has_product_one_subsequence(GSequence(spec, list(reversed(elems))))
    assert (a is None) == (b is None)
    if a is not None:
        assert a == b


def test_abelian_embedding_matches_weighted_engine():
    rng = random.Random(0xABE1)
    for _ in range(150):
        n = rng.randint(3, 14)
        spec = GroupSpec(n, rng.choice([1, n - 1] + involutions(n)))
        m = rng.randint(1, 7)
        vals = [rng.randrange(n) for _ in range(m)]
        S = GSequence(spec, [(0, v) for v in vals])
        assert (has_product_one_subsequence(S) is not None) == (
            has_weighted_zero_sum(ZSequence(n, vals), {1})
        )


def test_ordered_certificate_rejects_malformed():
    spec = GroupSpec(12, 5)
    S = GSequence(spec, [(1, 0), (1, 0)])
    good = OrderedCertificate((1, 2), (2, 1))
    assert good.holds_for(S)
    assert not OrderedCertificate((), ()).holds_for(S)
    assert not OrderedCertificate((1, 2), (1, 1)).holds_for(S)
    assert not OrderedCertificate((1, 3), (3, 1)).holds_for(S)
    assert not OrderedCertificate((0, 1), (1, 0)).holds_for(S)
    # positions must be ints: a float or bool equal to one is malformed
    assert not OrderedCertificate((1.0, 2), (1.0, 2)).holds_for(S)
    assert not OrderedCertificate((1, 2), (2.0, 1)).holds_for(S)
    assert not OrderedCertificate((True, 2), (2, True)).holds_for(S)
    # positions and order must be sequences, not bare ints
    assert not OrderedCertificate(5, (1,)).holds_for(S)
    assert not OrderedCertificate((1,), 1).holds_for(S)
    # positions and order are read as modring._positions reads them: lists
    # hold as tuples do, and a set, which fixes no order, is malformed
    assert OrderedCertificate([1, 2], [2, 1]).holds_for(S)
    assert OrderedCertificate(range(1, 3), [2, 1]).holds_for(S)
    assert not OrderedCertificate((1, 2), {1, 2}).holds_for(S)
    assert not OrderedCertificate({1, 2}, (2, 1)).holds_for(S)


def _ordered_case(rng, spec):
    """A random ordered certificate over spec, well formed or not, as (S,
    positions, order).  order names the positions of a random chain in S,
    in chain order half the time and shuffled otherwise; half the chains
    end in the inverse of their product."""
    elements = spec.all_elements()
    chain = [rng.choice(elements) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        acc = IDENTITY
        for g in chain:
            acc = mul(acc, g, spec)
        chain.append(inverse(acc, spec))
    S = GSequence(spec, chain + [rng.choice(elements)
                                 for _ in range(rng.randint(1, 3))])
    m = len(S.elements)
    free = list(range(1, m + 1))
    order = []
    for g in chain or [S.elements[0]]:
        order.append(next(p for p in free if S.elements[p - 1] == g))
        free.remove(order[-1])
    if rng.random() < 0.5:
        rng.shuffle(order)
    positions = sorted(order)
    flaw = rng.randrange(10)
    if flaw == 0:
        positions, order = [], []
    elif flaw == 1:
        order[rng.randrange(len(order))] = rng.randint(1, m)
    elif flaw == 2:
        order[rng.randrange(len(order))] = rng.choice((0, -1, m + 1))
        positions = sorted(order)
    elif flaw == 3:
        positions.reverse()
    elif flaw == 4:
        positions = positions[1:]
    elif flaw == 5:
        k = rng.randrange(len(order))
        order[k] = rng.choice((float(order[k]), True))
        positions = sorted(order)
    return S, tuple(positions), tuple(order)


def test_ordered_certificate_check_agrees_with_naive_checker():
    # a seeded corpus over C_n : C_2, n <= 8, every s with s^2 = 1
    rng = random.Random(0x0DE5)
    specs = [GroupSpec(n, s) for n in range(3, 9) for s in range(n)
             if s * s % n == 1]
    held = 0
    for _ in range(2500):
        S, positions, order = _ordered_case(rng, rng.choice(specs))
        expected = naive_ordered_certificate(S, positions, order)
        assert OrderedCertificate(positions, order).holds_for(S) == expected
        held += expected
    assert 500 <= held <= 2000


def test_paired_reflections_force_product_one():
    # enough reflections, paired through the cyclic-part engine, always
    # produce an identity product
    rng = random.Random(0xFACE)
    for n, s in ((12, 5), (12, 7)):
        spec = GroupSpec(n, s)
        need = 2 * exact_davenport(n, {1, s}).constant
        for _ in range(40):
            refl = [MetaElem(1, rng.randrange(n)) for _ in range(need)]
            plain = [
                MetaElem(0, rng.randrange(n))
                for _ in range(rng.randint(0, 3))
            ]
            S = GSequence(spec, refl + plain)
            assert has_product_one_subsequence(S) is not None


def test_dihedral_classification_small():
    for n in (3, 4, 5, 6):
        spec = GroupSpec.dihedral(n)
        rep = classify_extremal(spec, n)
        assert rep.exhaustive
        want_claimed = {
            claimed_extremal_sequence(spec, t, r).elements
            for t in units(n)
            for r in range(n)
        }
        assert {S.elements for S in rep.claimed} == want_claimed
        if n == 3:
            assert [S.elements for S in rep.other] == [
                (MetaElem(1, 0), MetaElem(1, 1), MetaElem(1, 2))
            ]
        else:
            assert rep.other == ()


def test_classification_is_exhaustive_against_oracle():
    # every free multiset of every length up to one past the maximum must be
    # reported: lengths below the branch maximum, at it, and above it
    cases = 0
    for n, s in ((3, 2), (4, 3), (4, 1), (5, 4)):
        spec = GroupSpec(n, s)
        for length in range(1, n + 2):
            rep = classify_extremal(spec, length)
            # the unchecked build gives what the checked one would
            assert all(S == GSequence(spec, S.elements)
                       for S in rep.claimed + rep.other)
            reported = {S.elements for S in rep.claimed} | {
                S.elements for S in rep.other
            }
            for tup in combinations_with_replacement(spec.all_elements(), length):
                hits = product_one_oracle(GSequence(spec, tup))
                assert (tuple(sorted(tup)) in reported) == (not hits)
                cases += 1
    assert cases == 10788


def test_semidirect_classification():
    for n, s in ((12, 5), (12, 7)):
        spec = GroupSpec(n, s)
        rep = classify_extremal(spec, 12)
        assert rep.exhaustive
        assert len(rep.claimed) == 48
        assert rep.other == ()
        assert all(is_claimed_extremal_form(S) for S in rep.claimed)
        longer = classify_extremal(spec, 13)
        assert longer.exhaustive
        assert longer.claimed == () and longer.other == ()


def _apply(g, spec, u, c):
    return MetaElem(g.eps, (u * g.a + g.eps * c) % spec.n)


def test_unit_action_roots_are_the_divisor_powers(monkeypatch):
    # the roots are the candidates least in their orbit under every
    # automorphism (u, c), found here by brute force; y^a is candidate a - 1
    # and x y^b candidate n - 1 + b.  The plain roots stay y^d for the proper
    # divisors d of n; the reflection roots are x and x y^d for the proper
    # divisors d of the least translation step
    roots = []

    def record(args):
        roots.append(args[2])
        return 0, (), 0, True

    monkeypatch.setattr(davenport, "_run_branch", record)
    for n in range(3, 31):
        divs = [d for d in range(1, n) if n % d == 0]
        cands = [(0, a) for a in range(1, n)] + [(1, b) for b in range(n)]
        index = {g: i for i, g in enumerate(cands)}
        for s in range(n):
            if s * s % n != 1:
                continue
            maps = automorphisms(n, s)
            want = [i for i, (eps, a) in enumerate(cands)
                    if all(index[(eps, (u * a + eps * c) % n)] >= i
                           for u, c in maps)]
            step = min([c for _, c in maps if c], default=n)
            assert [i for i in want if i < n - 1] == [d - 1 for d in divs]
            assert [i - n + 1 for i in want if i >= n - 1] == [0] + [
                d for d in range(1, step) if step % d == 0]
            roots.clear()
            small_davenport(GroupSpec(n, s))
            assert roots == want, (n, s)


def test_automorphisms_preserve_products_and_classifications():
    # every (u, c) map is an automorphism, and the classify list at length n
    # is closed under each of them, for every s with n <= 12
    for n in range(3, 13):
        for s in [s for s in range(n) if s * s % n == 1]:
            spec = GroupSpec(n, s)
            els = spec.all_elements()
            found = classify_extremal(spec, n)
            listed = {S.elements for S in found.claimed + found.other}
            assert listed
            for u, c in automorphisms(n, s):
                assert all(
                    _apply(mul(g, h, spec), spec, u, c)
                    == mul(_apply(g, spec, u, c), _apply(h, spec, u, c), spec)
                    for g in els for h in els
                )
                images = {tuple(sorted(_apply(g, spec, u, c) for g in seq))
                          for seq in listed}
                assert images == listed, (n, s, u, c)


def test_classification_16_9_other_family():
    # s = n/2 + 1: besides the 128 claimed sequences, 128 others, each 15
    # copies of a reflection x y^b with b odd plus one y^t or one x y^(b+t),
    # t odd, 64 of either kind
    rep = classify_extremal(GroupSpec(16, 9), 16)
    assert rep.exhaustive
    assert (len(rep.claimed), len(rep.other)) == (128, 128)
    kinds = Counter()
    for S in rep.other:
        count = Counter(S.elements)
        assert sorted(count.values()) == [1, 15]
        refl = next(g for g, k in count.items() if k == 15)
        extra = next(g for g, k in count.items() if k == 1)
        assert refl.eps == 1 and refl.a % 2 == 1
        assert (extra.a - extra.eps * refl.a) % 2 == 1
        kinds[extra.eps] += 1
    assert kinds == {0: 64, 1: 64}


def test_classification_matches_oracle_with_translations():
    # (8, 3) has gcd(n, 1 + s) = 4: translations by multiples of 2 join the
    # units in the reduction, so the oracle must still see every free
    # multiset of lengths 1-4 reported, and nothing else
    spec = GroupSpec(8, 3)
    cases = 0
    for length in range(1, 5):
        rep = classify_extremal(spec, length)
        reported = {S.elements for S in rep.claimed + rep.other}
        for tup in combinations_with_replacement(spec.all_elements(), length):
            hits = product_one_oracle(GSequence(spec, tup))
            assert (tuple(sorted(tup)) in reported) == (not hits)
            cases += 1
    assert cases == 4844


def test_classification_nodes_on_the_bench_specs():
    # the slot space's capacity counts the products a chain already
    # realizes, so the search stops a branch once fewer appends are left
    # than it must beat; the search is deterministic, so this count pins
    # that prune exactly
    specs = ((12, 5), (12, 7), (14, 13), (15, 4), (16, 7))
    nodes = sum(classify_extremal(GroupSpec(n, s), n).nodes for n, s in specs)
    assert nodes == 8_669


def test_classification_20_11_stays_pruned():
    # a capacity that never prunes takes 257,119 nodes here, the
    # realized-product capacity 44,734
    rep = classify_extremal(GroupSpec(20, 11), 20)
    assert (len(rep.claimed), len(rep.other)) == (160, 0)
    assert rep.nodes < 100_000


def test_classification_report_fields():
    spec = GroupSpec.dihedral(4)
    rep = classify_extremal(spec, 4)
    assert rep.spec == spec
    assert rep.length == 4
    assert rep.nodes > 0
    assert "automorphism" in rep.reduction
    with pytest.raises(ValueError):
        classify_extremal(spec, 0)
    with pytest.raises(ValueError):
        classify_extremal(spec, 9)


def test_classification_budget_exhaustion():
    spec = GroupSpec(12, 5)
    with pytest.raises(BudgetExceededError) as err:
        classify_extremal(spec, 12, SearchBudget(max_nodes=20))
    partial = err.value.partial
    assert not partial.exhaustive


def test_short_classification_stops_at_its_length():
    # a length below the maximum costs about one node per listed chain, not
    # a search for the branch maximum.  In the dihedral group of order 60,
    # 1770 two-element multisets avoid the identity; 14 pair a rotation with
    # its inverse and 31 repeat an involution.
    rep = classify_extremal(GroupSpec(30, 29), 2, SearchBudget(max_nodes=100))
    assert rep.exhaustive
    assert rep.claimed == () and len(rep.other) == 1770 - 14 - 31


def test_truncated_classification_keeps_what_it_found():
    spec = GroupSpec(12, 5)
    full = {S.elements for S in classify_extremal(spec, 6).other}
    with pytest.raises(BudgetExceededError) as err:
        classify_extremal(spec, 6, SearchBudget(max_nodes=500))
    found = {S.elements for S in err.value.partial.other}
    assert found and found < full


def test_small_davenport_values():
    assert small_davenport(GroupSpec.dihedral(3)) == 3
    assert small_davenport(GroupSpec.dihedral(4)) == 4
    assert small_davenport(GroupSpec(12, 5)) == 12
    assert small_davenport(GroupSpec(12, 7)) == 12


def test_small_davenport_direct_product():
    # s = 1 gives C_n x C_2: cyclic of order 2n for odd n, else D(C_n x C_2)
    for n in range(3, 10):
        assert small_davenport(GroupSpec(n, 1)) == (2 * n - 1 if n % 2 else n)


def test_small_davenport_deep_chain_ends_as_truncation():
    # a chain deeper than the recursion limit ends the search as a
    # truncation; the dihedral group of order 802 has small Davenport 401
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 250)
    try:
        with pytest.raises(BudgetExceededError) as err:
            small_davenport(GroupSpec.dihedral(401), SearchBudget(max_nodes=2000))
    finally:
        sys.setrecursionlimit(old)
    assert 100 < err.value.partial <= 401


@pytest.mark.parametrize("n, s", [(12, 5), (8, 3), (7, 6)])
def test_slot_probe_matches_oracle_on_random_chains(n, s):
    # on product-one-free chains nondecreasing in candidate order, the order
    # _run_branch builds them in, a candidate at or after the last one must
    # be blocked by its probe exactly when appending it makes a product-one
    # subsequence, or when it is x y^b with b >= stride and the chain is plain
    # and nonempty (only b < stride may start the reflections after a plain
    # prefix).  pairs is what the check covered when chains were drawn in
    # any order.
    pairs = {(12, 5): 5911, (8, 3): 3360, (7, 6): 2834}[n, s]
    spec = GroupSpec(n, s)
    stride = min(c for c in range(1, n + 1) if c * (1 + s) % n == 0)
    lift, step, forms, _, _ = _slot_space(n, s)
    rng = random.Random(n * 1000 + s)
    checked = gates = 0
    for _ in range(120):
        chain, state, last = [], 0, 0
        while True:
            free = []
            for i in range(last, len(forms)):
                probe, (eps, b) = forms[i]
                hit = has_product_one_subsequence(GSequence(spec, chain + [(eps, b)]))
                gated = eps == 1 and b >= stride and len(chain) > 0 and not any(
                    e for e, _ in chain)
                assert bool(state & probe) == (hit is not None or gated)
                checked += 1
                gates += gated and hit is None
                if hit is None:
                    free.append(i)
            if not free:
                break
            last = rng.choice(free)
            chain.append(forms[last][1])
            state = step(state, lift(state), forms[last][1])
    assert checked >= pairs and gates > 0


def test_slot_capacity_counts_realized_products():
    # along random product-one-free chains in candidate order, every s with
    # s*s = 1 and n <= 10: each append realizes at least one more
    # non-identity product, and the state bits the capacity counts are at
    # most the products realized, counted over all orderings of all
    # sub-multisets, out of at most 2n - 1
    checked = 0
    for n in range(3, 11):
        for s in [s for s in range(n) if s * s % n == 1]:
            spec = GroupSpec(n, s)
            lift, step, forms, cap_base, rep = _slot_space(n, s)
            assert cap_base == 2 * n - 1
            rng = random.Random(n * 100 + s)
            for _ in range(100):
                chain, state, last, realized = [], 0, 0, 0
                while True:
                    free = [i for i in range(last, len(forms))
                            if not state & forms[i][0]]
                    if not free:
                        break
                    last = rng.choice(free)
                    chain.append(MetaElem(*forms[last][1]))
                    state = step(state, lift(state), forms[last][1])
                    grown = len(realized_products(spec, chain))
                    assert realized < grown <= cap_base
                    realized = grown
                    assert (state & rep).bit_count() <= realized, (n, s, chain)
                    checked += 1
    assert checked > 7000


def test_slot_capacity_keeps_plain_products_past_a_reflection():
    # the nonzero y^v counted in lanes 0 and 2 only grow along a chain: the
    # first reflection after a plain prefix clears lane 0, and its sums must
    # move to lane 2, as the chain still realizes them.  Lane 0 stays empty
    # from then on, so later reflections need not move it
    crossings = after = 0
    for n in range(3, 13):
        for s in [s for s in range(n) if s * s % n == 1]:
            lift, step, forms, _, _ = _slot_space(n, s)
            nonzero = (1 << n) - 2
            lane2 = _slot_sums(n, s).lane(2, 0)
            rng = random.Random(n * 10 + s)
            for _ in range(100):
                state, last, powers, reflected = 0, 0, 0, False
                while True:
                    free = [i for i in range(last, len(forms))
                            if not state & forms[i][0]]
                    if not free:
                        break
                    last = rng.choice(free)
                    eps = forms[last][1][0]
                    crossings += eps and state & nonzero != 0
                    state = step(state, lift(state), forms[last][1])
                    grown = (state | state >> lane2) & nonzero
                    assert grown & powers == powers, (n, s)
                    powers = grown
                    reflected = reflected or eps
                    if reflected:
                        assert state & (1 << n) - 1 == 0, (n, s)
                        after += 1
    assert crossings > 300
    assert after > 5000


def test_slot_fold_matches_naive_slot_sums():
    # folding a sequence from the empty state with lanes then rotate gives
    # exactly the naive slot sums: has reports the model's triples and no
    # others, and the state holds one bit per triple, so no stray bit sits
    # in the upper half of a lane.  Five or more reflections reach lanes
    # past the first span of 8 that _widen builds
    rng = random.Random(0x5107)
    specs = [GroupSpec(n, s) for n in range(3, 13) for s in range(n)
             if s * s % n == 1]
    wide = 0
    for _ in range(300):
        spec = rng.choice(specs)
        n, p = spec.n, rng.choice((0.2, 0.5, 0.9))
        elems = [spec.element(int(rng.random() < p), rng.randrange(n))
                 for _ in range(rng.randint(0, 8))]
        slots = _slot_sums(n, spec.s)
        state = slots.empty
        for eps, a in elems:
            state = slots.rotate(state, slots.lanes(state, eps), a)
        model = slot_sums(spec, elems)
        m = len(elems)
        lanes = [(0, 0), (1, 0)] + [(2, b) for b in range(-m, m + 1)]
        assert {(kind, bal, v) for kind, bal in lanes for v in range(n)
                if slots.has(state, kind, bal, v)} == model
        assert state.bit_count() == len(model)
        wide += sum(eps for eps, _ in elems) >= 5
    assert wide >= 20


def test_small_davenport_budget_exhaustion():
    with pytest.raises(BudgetExceededError) as err:
        small_davenport(GroupSpec(12, 5), SearchBudget(max_nodes=10))
    assert isinstance(err.value.partial, int)
    assert err.value.partial <= 12


@pytest.mark.parametrize("width", [1, 2])
def test_small_davenport_wall_clock_budget(width):
    # C_30 x| C_2 takes seconds to exhaust, far more than 0.3 s; every root
    # and worker stops at the same deadline, and the partial length stays at
    # most n = 30
    budget = SearchBudget(max_seconds=0.3, parallel_width=width)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError) as err:
        small_davenport(GroupSpec(30, 11), budget)
    assert time.monotonic() - start < 0.45
    assert err.value.partial <= 30


def test_root_choice_scales_with_the_generators():
    # choosing the roots of C_2000 x| C_2 costs about (2n - 1) times the
    # few generators of its automorphisms, not n * phi(n) maps per
    # candidate: with one node per root the search ends in well under 2 s
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        small_davenport(GroupSpec.dihedral(2000), SearchBudget(max_nodes=1))
    assert time.monotonic() - start < 2


def test_classification_determinism_across_width():
    spec = GroupSpec(12, 7)
    a = classify_extremal(spec, 12, SearchBudget(parallel_width=1))
    b = classify_extremal(spec, 12, SearchBudget(parallel_width=8))
    assert [S.elements for S in a.claimed] == [S.elements for S in b.claimed]
    assert [S.elements for S in a.other] == [S.elements for S in b.other]
    assert a.nodes == b.nodes


def test_cyclic_inverse_multiplicity_property():
    # free sequences over the plain cyclic part, length at least (n+1)/2:
    # some element repeats at least 2|S| - n + 1 times
    from davlab.davenport import zero_sum_free_sequences

    for n in range(3, 9):
        for length in range((n + 1 + 1) // 2, n):
            for S in zero_sum_free_sequences(n, {1}, length):
                top = max(Counter(S.elements).values())
                assert top >= 2 * length - n + 1


def test_formatting():
    assert format_element(MetaElem(0, 0)) == "1"
    assert format_element(MetaElem(0, 1)) == "y"
    assert format_element(MetaElem(0, 3)) == "y^3"
    assert format_element(MetaElem(1, 0)) == "x"
    assert format_element(MetaElem(1, 1)) == "xy"
    assert format_element(MetaElem(1, 3)) == "xy^3"
    spec = GroupSpec.dihedral(5)
    S = GSequence(spec, [(0, 1), (0, 1), (1, 3)])
    assert format_sequence(S) == "y y xy^3"


def test_meta_elem_is_its_pair():
    g = MetaElem(1, 14)
    assert g == (1, 14) and (1, 14) == g
    eps, a = g
    assert (eps, a, g[0], g[1], g.eps, g.a) == (1, 14, 1, 14, 1, 14)
    assert hash(g) == hash((1, 14))
    pairs = [(1, 0), (0, 5), (1, 3), (0, 2)]
    assert sorted(MetaElem(*p) for p in pairs) == sorted(pairs)
    assert {MetaElem(*p) for p in pairs} == set(pairs)
    assert repr(MetaElem(0, 3)) == "MetaElem(eps=0, a=3)"
    spec = GroupSpec(12, 5)
    mixed = GSequence(spec, [(1, 14), MetaElem(0, 3)])
    assert mixed == GSequence(spec, [(1, 14), (0, 3)])
    assert mixed.elements == ((0, 3), (1, 2))
    assert all(type(g) is MetaElem for g in mixed.elements)


def test_certificate_refuses_a_repeated_position():
    # x * x = 1, so only the repeat check refuses the doubled position 1
    S = GSequence(GroupSpec.dihedral(5), [(1, 0), (1, 0)])
    assert OrderedCertificate((1, 2), (1, 2)).holds_for(S)
    assert not OrderedCertificate((1, 1), (1, 1)).holds_for(S)
