import inspect
import random
import sys
import time
from itertools import combinations, combinations_with_replacement, product
from math import gcd

import pytest

from davlab import davenport, metacyclic
from davlab.bounds import floor_log2
from davlab.davenport import (
    SearchBudget,
    _prepare_candidates,
    _run_branch,
    _generators,
    _orbit_reps,
    _run_roots,
    _scalings,
    _zero_sum_space,
    enumerate_extremal,
    exact_davenport,
    exact_davenport_k,
    verify_sandwich,
    zero_sum_free_sequences,
)
from davlab.errors import (
    BoundViolationError,
    BudgetExceededError,
    NoValidSplitError,
    TooLargeError,
)
from davlab.modring import (
    WeightSet,
    crt_split,
    involutions,
    quadratic_residue_weights,
    units,
)
from davlab.zsfree import (
    ZSequence,
    _as_moduli,
    _grid,
    _weight_entries,
    brute_force_oracle,
    has_weighted_zero_sum,
    reachable_sums,
)
from _oracles import (
    automorphisms,
    max_zsf_length_bruteforce,
    unreachable_orbits,
    weighted_sums,
)


def test_search_budget_validation():
    SearchBudget()
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_seconds=0)
    with pytest.raises(ValueError):
        SearchBudget(parallel_width=0)
    for bad in ({"parallel_width": 1.5}, {"parallel_width": True},
                {"max_nodes": 2.5}, {"max_nodes": True},
                {"max_seconds": "1"}, {"max_seconds": True},
                {"max_seconds": None}, {"max_seconds": float("nan")},
                {"max_seconds": -0.5}):
        with pytest.raises(ValueError):
            SearchBudget(**bad)
    assert SearchBudget(max_seconds=2).max_seconds == 2
    assert SearchBudget(max_seconds=0.25).max_seconds == 0.25
    with pytest.raises(ValueError):
        exact_davenport(12, {1.5})


def test_known_instances():
    assert exact_davenport(8, {1, 7}).constant == 4
    assert exact_davenport(12, {1}).constant == 12
    assert exact_davenport(12, {1, 2, 3}).constant == 4
    r = exact_davenport(12, {1, 5})
    assert r.constant == 5
    assert 5 <= r.constant <= 8
    assert r.exhaustive


def test_result_shape():
    r = exact_davenport(8, WeightSet(8, [1, 7]))
    assert r.constant == r.max_zsf_length + 1
    assert r.exhaustive
    assert r.nodes > 0
    for w in r.witnesses:
        assert len(w) == r.max_zsf_length
        assert not has_weighted_zero_sum(w, {1, 7})
    # results compare and hash by value, witness lists included
    again = exact_davenport(8, {1, 7})
    assert again == r and hash(again) == hash(r)
    assert exact_davenport(8, {1, 3}) != r


def test_witness_maximality():
    for n, A in ((8, {1, 7}), (12, {1, 5}), (10, {1})):
        r = exact_davenport(n, A)
        for w in r.witnesses:
            for x in range(n):
                grown = ZSequence(n, w.elements + (x,))
                assert has_weighted_zero_sum(grown, A)


def test_extremal_lists():
    got = enumerate_extremal(4, {1, 3})
    assert sorted(w.elements for w in got) == [(1, 2), (2, 3)]

    assert [w.elements for w in enumerate_extremal(2, {1})] == [(1,)]

    full = enumerate_extremal(5, {1})
    assert sorted(w.elements for w in full) == [
        (g,) * 4 for g in (1, 2, 3, 4)
    ]
    reduced = enumerate_extremal(5, {1}, orbit_reduced=True)
    assert [w.elements for w in reduced] == [(1, 1, 1, 1)]


def test_extremal_orbit_reduction_covers_everything():
    # units scale Z_n and, coordinatewise, the uniform products
    cases = ((8, {1, 7}), (12, {1, 5}), (9, {1}), (20, {1, 19}), (24, {1, 5}),
             ((3, 3), {1}), ((3, 3), {1, 2}), ((4, 4), {1, 3}))
    for n, A in cases:
        base = _as_moduli(n)[0]

        def scaled(u, x):
            if isinstance(x, tuple):
                return tuple((u * c) % base for c in x)
            return (u * x) % base

        def orbit(elems):
            return {tuple(sorted(scaled(u, x) for x in elems)) for u in units(base)}

        full = {w.elements for w in enumerate_extremal(n, A)}
        reduced = [w.elements for w in enumerate_extremal(n, A, orbit_reduced=True)]
        assert reduced == sorted({min(orbit(e)) for e in full})
        assert set().union(*map(orbit, reduced)) == full


def test_witness_count_matches_the_listing():
    # len() counts the expansions of the cores without building them; the
    # {1, -1} rows up to n = 30 are among the involution rows
    cases = [(n, {1, s}) for n in range(2, 31) for s in involutions(n)]
    cases += [(n, {1, n - 1}) for n in range(31, 41)]
    cases += [((3, 3), {1, 2}), ((4, 4), {1, 3}), ((2, 4), {1, 3})]
    for n, A in cases:
        found = exact_davenport(n, A).witnesses
        listed = [w.elements for w in found]
        assert len(found) == len(listed), (n, A)
        assert listed == sorted(set(listed)), (n, A)


def test_every_accepted_weight_set_has_the_all_ones_class():
    # the all-ones element has the weights themselves as its images, and a
    # weight that is zero on every coordinate is rejected, so the search
    # always has a candidate
    groups = [((n,), range(1, n)) for n in range(2, 13)]
    groups += [(m, [w for w in product(*map(range, m)) if any(w)])
               for m in ((2, 4), (3, 3))]
    for moduli, weights in groups:
        ones = 1 if len(moduli) == 1 else (1,) * len(moduli)
        for size in range(1, len(weights) + 1):
            for A in combinations(weights, size):
                cands = _prepare_candidates(moduli, _weight_entries(A, moduli))
                assert any(ones in members for _, members in cands), (moduli, A)


def test_witness_count_builds_no_sequence(monkeypatch):
    built = []
    of = ZSequence._of

    def counting(cls, *args):
        built.append(1)
        return of(*args)

    monkeypatch.setattr(ZSequence, "_of", classmethod(counting))
    res = exact_davenport(30, {1, 29})
    assert len(res.witnesses) == 6656
    assert built == []
    # iterating builds each sequence once, and only once
    assert len(list(res.witnesses)) == len(built) == 6656
    list(res.witnesses)
    assert len(built) == 6656


def test_trusted_constructor_builds_checked_sequences():
    # witness lists skip ZSequence's checks; each sequence must equal the
    # one the checked constructor builds from the same data
    lists = [
        exact_davenport(30, {1, 29}).witnesses,
        exact_davenport((3, 3), {1, 2}).witnesses,
        exact_davenport((2, 4), {1, 3}).witnesses,
        enumerate_extremal(40, (1, 39), orbit_reduced=True),
    ]
    for found in lists:
        assert len(found) > 0
        for w in found:
            checked = ZSequence(w.moduli, w.elements)
            assert w == checked and hash(w) == hash(checked)


def _recorded_closure(monkeypatch, space, space_args, gens, count, length,
                      group):
    # _run_roots' closed chains, the naive closure of every chain the roots
    # found under every element of group (each a list of the candidates'
    # images, built by the caller without the code under test), and how
    # many chains and orbits were found
    found = []

    def record(args):
        result = _run_branch(args)
        found.append(result)
        return result

    monkeypatch.setattr(davenport, "_run_branch", record)
    best, closed, _, exhaustive = _run_roots(
        space, space_args, gens, count, SearchBudget(), True, length)
    assert exhaustive
    chains = [chain for r in found if length is not None or r[0] == best
              for chain in r[1]]
    orbits = [{tuple(sorted(g[i] for i in chain)) for g in group}
              for chain in chains]
    naive = sorted(set().union(*orbits))
    return closed, naive, len(chains), len({min(o) for o in orbits})


@pytest.mark.parametrize("n, s", [(12, 5), (24, 17), (20, 19)])
def test_orbit_closure_matches_naive_zero_sum(monkeypatch, n, s):
    moduli = (n,)
    entries = _weight_entries({1, s}, moduli)
    forms, members = zip(*_prepare_candidates(moduli, entries))
    index_of = {x: i for i, xs in enumerate(members) for x in xs}
    group = [[index_of[u * xs[0] % n] for xs in members] for u in units(n)]
    closed, naive, chains, orbits = _recorded_closure(
        monkeypatch, _zero_sum_space,
        (moduli, forms, _orbit_reps(moduli, entries)),
        _scalings(moduli, members), len(forms), None, group)
    assert closed == naive
    # some orbit holds several found chains, so the skip is exercised
    assert chains > orbits


@pytest.mark.parametrize("n, s", [(12, 5), (16, 7)])
def test_orbit_closure_matches_naive_slot_space(monkeypatch, n, s):
    cands = metacyclic._candidates(n)
    index = {g: i for i, g in enumerate(cands)}
    group = [[index[(eps, (u * a + eps * c) % n)] for eps, a in cands]
             for u, c in automorphisms(n, s)]
    closed, naive, _, _ = _recorded_closure(
        monkeypatch, metacyclic._slot_space, (n, s), metacyclic._action(n, s),
        2 * n - 1, n, group)
    assert closed == naive


def test_unit_generators_generate_the_units():
    # the closure of the generators is the whole unit group, phi(n) of
    # them, and no generator lies in the subgroup the earlier ones generate
    def closure(gens, n):
        group = {1}
        while True:
            grown = group | {g * x % n for g in gens for x in group}
            if grown == group:
                return group
            group = grown

    for n in range(2, 301):
        gens = _generators(n)
        assert closure(gens, n) == set(units(n)), n
        for k, u in enumerate(gens):
            assert u not in closure(gens[:k], n), (n, u)


def test_zero_sum_roots_are_least_under_every_unit(monkeypatch):
    # the roots are the classes least in their orbit under every unit, found
    # here by brute force, for {1}, every {1, s} with n <= 40 and two
    # uniform products
    roots = []

    def record(args):
        roots.append(args[2])
        return 0, (), 0, True

    monkeypatch.setattr(davenport, "_run_branch", record)
    cases = [(n, A) for n in range(2, 41)
             for A in [{1}] + [{1, s} for s in involutions(n)]]
    cases += [((3, 3), {1}), ((3, 3), {1, 2}), ((4, 4), {1}), ((4, 4), {1, 3})]
    for n, A in cases:
        moduli = _as_moduli(n)
        base = moduli[0]
        members = [xs for _, xs in
                   _prepare_candidates(moduli, _weight_entries(A, moduli))]
        index_of = {x: i for i, xs in enumerate(members) for x in xs}

        def scaled(u, x):
            if isinstance(x, tuple):
                return tuple(u * c % base for c in x)
            return u * x % base

        want = [i for i, xs in enumerate(members)
                if all(index_of[scaled(u, xs[0])] >= i for u in units(base))]
        roots.clear()
        exact_davenport(n, A, collect_witnesses=False)
        assert roots == want, (n, A)


# (moduli, weights as coordinate tuples, the involution h or None)
_ORBIT_CASES = (
    [((n,), ((1,), (s,)), (s,)) for n in range(3, 31) for s in involutions(n)]
    + [((n,), ((1,), (n - 1,)), (n - 1,)) for n in (3, 8, 12, 17, 30)]
    + [((15,), ((1,), (4,)), (4,)), ((30,), ((1,), (19,)), (19,)),
       ((6, 6), ((1, 1), (5, 5)), (5, 5)), ((2, 4), ((1, 1), (1, 3)), (1, 3)),
       ((12,), ((1,),), None)]
)


@pytest.mark.parametrize("moduli, weights, h", _ORBIT_CASES)
def test_orbit_capacity_against_naive_sums(moduli, weights, h):
    # along random zero-sum-free chains, the reachable sums R are their own
    # h-image, each unblocked append reaches at least one more orbit {y,
    # h*y}, and the capacity the engine reads off a state is the number of
    # nonzero orbits R misses, all counted outright
    entries = _weight_entries(weights, moduli)
    forms, _ = zip(*_prepare_candidates(moduli, entries))
    _, _, cap_base, rep = _zero_sum_space(
        moduli, forms, _orbit_reps(moduli, entries))
    grid = _grid(moduli)
    nonzero = [y for y in product(*map(range, moduli)) if any(y)]
    rng = random.Random(hash(moduli) + len(weights))
    for _ in range(3):
        sums = set()
        while True:
            left = unreachable_orbits(moduli, sums, h)
            if h is not None:
                assert sums == {tuple(a * c % m for a, c, m in zip(h, y, moduli))
                                for y in sums}
            bits = sum(1 << grid.encode(y) for y in sums)
            assert cap_base - (bits & rep).bit_count() == left
            grown = [weighted_sums(moduli, weights, [y], sums) for y in nonzero]
            free = [g for g in grown if (0,) * len(moduli) not in g]
            assert all(unreachable_orbits(moduli, g, h) < left for g in free)
            if not free:
                break
            sums = rng.choice(free)


@pytest.mark.parametrize("width", [1, 2])
def test_late_roots_are_not_dispatched(monkeypatch, width):
    # once the deadline has passed, no further root reaches _run_branch or
    # the pool; the search ends as a truncation
    calls = []

    def record(args):
        calls.append(args[2])
        return _run_branch(args)

    class NoPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            raise AssertionError("a late root was sent to the pool")

    monkeypatch.setattr(davenport, "_run_branch", record)
    monkeypatch.setattr(davenport.futures, "ProcessPoolExecutor", NoPool)
    with pytest.raises(BudgetExceededError) as err:
        exact_davenport(12, {1, 5}, SearchBudget(max_seconds=1e-9,
                                                 parallel_width=width))
    assert (err.value.partial.constant, err.value.partial.nodes) == (1, 0)
    assert calls == []
    # serially, the first root of (76, 39) outlasts the deadline, and the
    # loop stops there
    if width == 1:
        with pytest.raises(BudgetExceededError):
            exact_davenport(76, {1, 39}, SearchBudget(max_seconds=0.05))
        assert calls == [0]


def test_closure_stops_at_the_deadline(monkeypatch):
    # a stubbed clock stands still through root choice and the branches;
    # once a branch has run, every orbit search takes one second.  With the
    # deadline 2.5 s out, the closure searches three orbits, none of them
    # started past the deadline, and ends the search as a truncation that
    # holds just those orbits, each whole
    moduli = (12,)
    entries = _weight_entries({1, 5}, moduli)
    forms, members = zip(*_prepare_candidates(moduli, entries))
    space_args = (moduli, forms, _orbit_reps(moduli, entries))
    gens = _scalings(moduli, members)
    _, full, _, _ = _run_roots(_zero_sum_space, space_args, gens, len(forms),
                               SearchBudget(), True)
    clock, starts, closed_orbits, branched = [0.0], [], [], []
    orbit = davenport._orbit

    def timed_orbit(gens, items):
        result = orbit(gens, items)
        if branched:
            starts.append(clock[0])
            closed_orbits.append(result)
            clock[0] += 1
        return result

    def record(args):
        branched.append(args[2])
        return _run_branch(args)

    monkeypatch.setattr(davenport.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(davenport, "_orbit", timed_orbit)
    monkeypatch.setattr(davenport, "_run_branch", record)
    best, closed, _, exhaustive = _run_roots(
        _zero_sum_space, space_args, gens, len(forms),
        SearchBudget(max_seconds=2.5), True)
    assert best == 4 and not exhaustive
    assert starts == [0, 1, 2]
    assert closed == sorted(set().union(*closed_orbits))
    assert set(closed) < set(full)


@pytest.mark.parametrize("width", [1, 2])
def test_late_root_returns_before_building_its_space(width):
    # every root starts past a deadline that has already passed: each ends
    # as a truncation with no node, serially and in pool workers alike
    with pytest.raises(BudgetExceededError) as err:
        exact_davenport(12, {1, 5}, SearchBudget(max_seconds=1e-9,
                                                 parallel_width=width))
    assert (err.value.partial.constant, err.value.partial.nodes) == (1, 0)

    def space(*args):
        raise AssertionError("a late root built its search space")

    assert _run_branch((space, (), 0, 10, True, None, time.monotonic() - 1)) == (
        0, (), 0, False)


def test_matches_levelwise_bruteforce_on_random_weight_sets():
    rng = random.Random(0xDA7E)
    for _ in range(50):
        n = rng.randint(2, 12)
        size = rng.randint(1, min(2, n - 1))
        A = set(rng.sample(range(1, n), size))
        want = max_zsf_length_bruteforce(n, A, n + 1) + 1
        assert exact_davenport(n, A).constant == want


def test_involution_rows_match_levelwise_bruteforce():
    # the {1, s} rows, s an involution other than +-1, are where the
    # engine's threshold prune bites; the levelwise oracle shares no search
    rows = [(n, s) for n in range(2, 17) for s in involutions(n)]
    assert len(rows) == 8
    for n, s in rows:
        want = max_zsf_length_bruteforce(n, {1, s}, n + 1) + 1
        got = exact_davenport(n, {1, s}, collect_witnesses=False)
        assert got.constant == want


def test_signed_weights_closed_form_small():
    for n in range(3, 33):
        assert exact_davenport(n, {1, n - 1}).constant == floor_log2(n) + 1


def test_single_weight_closed_form_small():
    for n in range(2, 17):
        assert exact_davenport(n, {1}).constant == n


def test_initial_interval_closed_form_small():
    for r in range(2, 6):
        for n in range(r + 1, 21):
            assert exact_davenport(n, set(range(1, r + 1))).constant == (
                -(-n // r)
            )


def test_quadratic_residue_weights_against_oracle():
    # the levelwise oracle is the authority here; at n = 15 and n = 30 it
    # contradicts the 2*omega(n)+1 closed form (see the acceptance suite)
    for n, runtime_cap in ((15, 16), (21, 16)):
        A = quadratic_residue_weights(n)
        want = max_zsf_length_bruteforce(n, set(A), runtime_cap) + 1
        assert exact_davenport(n, A).constant == want
    assert exact_davenport(15, {1, 4}).constant == 6
    assert exact_davenport(21, quadratic_residue_weights(21)).constant == 5


def test_quadratic_residue_counterexample_witnesses():
    # length-5 and length-7 zero-sum-free witnesses proving D > 2*omega(n)+1
    # at n = 15 and n = 30; the oracle is a literal enumeration
    assert not brute_force_oracle(ZSequence(15, (1,) * 5), {1, 4})
    assert not brute_force_oracle(
        ZSequence(30, (1, 1, 1, 1, 1, 5, 12)), {1, 19}
    )
    assert exact_davenport(30, {1, 19}).constant == 8


def test_rank_k_instances():
    assert exact_davenport_k(2, {1}, 3).constant == 4
    assert exact_davenport_k(3, {1, 2}, 1).constant == 2
    assert exact_davenport_k(3, {1}, 2).constant == 5
    assert exact_davenport_k(2, {1}, 4).constant == 5


def test_rank_one_k_matches_plain():
    for n, A in ((8, {1, 7}), (12, {1, 5})):
        assert exact_davenport_k(n, A, 1).constant == (
            exact_davenport(n, A).constant
        )


def test_rank_k_rejects_oversized_groups():
    with pytest.raises(TooLargeError):
        exact_davenport_k(17, {1}, 3)
    with pytest.raises(ValueError):
        exact_davenport_k(8, {1}, 0)


def test_budget_exhaustion_returns_partial():
    full = exact_davenport(30, {1})
    assert full.constant == 30
    with pytest.raises(BudgetExceededError) as err:
        exact_davenport(30, {1}, SearchBudget(max_nodes=25))
    partial = err.value.partial
    assert not partial.exhaustive
    assert 1 <= partial.constant <= full.constant
    assert partial.constant == partial.max_zsf_length + 1


def test_deep_chain_ends_as_truncation():
    # both search phases recurse once per append; a chain deeper than the
    # recursion limit ends the search as a truncation, and the deepest chain
    # folded so far is zero-sum free, so it is a certified lower bound
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 250)
    try:
        with pytest.raises(BudgetExceededError) as err:
            exact_davenport(400, {1}, SearchBudget(max_nodes=2000),
                            collect_witnesses=False)
    finally:
        sys.setrecursionlimit(old)
    partial = err.value.partial
    assert not partial.exhaustive
    assert 100 < partial.constant <= 400


def test_truncated_listing_raises():
    # the listing runs on the same engine, so a chain deeper than the
    # recursion limit cuts it off too; it must raise rather than yield a
    # partial list
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 250)
    try:
        with pytest.raises(BudgetExceededError):
            list(zero_sum_free_sequences(400, {1}, 399))
    finally:
        sys.setrecursionlimit(old)


@pytest.mark.parametrize(
    "moduli, A",
    [
        (12, {1, 5}),
        (15, {1, 14}),
        (13, set(quadratic_residue_weights(13).weights)),
        ((3, 3), {1}),
        ((2, 4), {1, 3}),
    ],
    ids=["12-1-5", "15-pm1", "13-qr", "3x3", "2x4"],
)
def test_probe_matches_oracle_on_random_chains(moduli, A):
    # a class's probe must block exactly the members whose append makes a
    # weighted zero sum, in every state a zero-sum-free chain reaches
    moduli = _as_moduli(moduli)
    cands = _prepare_candidates(moduli, _weight_entries(A, moduli))
    rng = random.Random(repr((moduli, sorted(A))))
    checked = 0
    for _ in range(40):
        chain = []
        while True:
            state = reachable_sums(ZSequence(moduli, chain), A).bits
            free = []
            for (probe, _), members in cands:
                for x in members:
                    grown = ZSequence(moduli, chain + [x])
                    hit = brute_force_oracle(grown, A)
                    assert hit == has_weighted_zero_sum(grown, A)
                    assert bool(state & probe) == hit
                    checked += 1
                    if not hit:
                        free.append(x)
            if not free:
                break
            chain.append(rng.choice(free))
    assert checked > 100


def test_determinism_across_parallel_width():
    for n, A in ((12, {1, 5}), (15, {1, 4}), (24, {1, 17})):
        runs = [
            exact_davenport(n, A, SearchBudget(parallel_width=w))
            for w in (1, 3)
        ]
        a, b = runs
        assert a.constant == b.constant
        assert a.nodes == b.nodes
        assert [w.elements for w in a.witnesses] == [
            w.elements for w in b.witnesses
        ]


def test_determinism_across_parallel_width_without_witnesses():
    # the threshold search stores upper bounds in a memo that each root
    # builds afresh, so node counts, truncated or not, ignore the width
    full = [verify_sandwich(36, 19, SearchBudget(parallel_width=w))
            for w in (1, 2)]
    assert full[0].exhaustive
    assert (full[0].exact, full[0].nodes) == (full[1].exact, full[1].nodes)
    partial = []
    for w in (1, 2):
        with pytest.raises(BudgetExceededError) as err:
            verify_sandwich(52, 27,
                            SearchBudget(max_nodes=5000, parallel_width=w))
        partial.append(err.value.partial)
    assert not partial[0].exhaustive
    assert (partial[0].exact, partial[0].nodes) == (
        partial[1].exact, partial[1].nodes)


@pytest.mark.parametrize("width", [1, 2])
def test_wall_clock_budget_is_one_shared_deadline(width):
    # C_7^2 cannot be exhausted in 0.3 s; every root and worker stops at the
    # same deadline, and the partial constant stays at most D(C_7^2) = 13
    budget = SearchBudget(max_seconds=0.3, parallel_width=width)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError) as err:
        exact_davenport_k(7, {1}, 2, budget)
    assert time.monotonic() - start < 0.45
    assert err.value.partial.constant <= 13


@pytest.mark.parametrize(
    "moduli, A, elements",
    [
        (8, {1, 7}, range(8)),
        ((3, 3), {(1, 1), (2, 1)}, list(product(range(3), repeat=2))),
    ],
    ids=["cyclic", "product"],
)
def test_zero_sum_free_sequence_listing(moduli, A, elements):
    # cross-check the longest level against the literal oracle; both
    # cases have constant 4, and the product case folds through rank > 1
    got = [S.elements for S in zero_sum_free_sequences(moduli, A, 3)]
    want = []
    for tup in combinations_with_replacement(elements, 3):
        if not brute_force_oracle(ZSequence(moduli, tup), A):
            want.append(tup)
    assert sorted(got) == sorted(want)
    assert got == sorted(got)
    # the class-merged search, seeded from unit-orbit-minimal roots and
    # closed under units afterwards, must list the same longest sequences
    witnesses = exact_davenport(moduli, A).witnesses
    assert [w.elements for w in witnesses] == got

    assert list(zero_sum_free_sequences(moduli, A, 4)) == []
    empties = list(zero_sum_free_sequences(moduli, A, 0))
    assert len(empties) == 1 and empties[0].elements == ()


@pytest.mark.parametrize(
    "moduli, A",
    [pytest.param(n, {1}, id=f"{n}-1") for n in range(2, 11)]
    + [pytest.param(n, {1, n - 1}, id=f"{n}-pm1") for n in range(3, 11)]
    + [pytest.param(13, quadratic_residue_weights(13), id="13-qr"),
       pytest.param((3, 3), {1, 2}, id="3x3"),
       pytest.param((2, 4), {1, 3}, id="2x4")],
)
def test_zero_sum_free_sequences_match_the_oracle(moduli, A):
    # every length from 0 up to one above the maximum, against nondecreasing
    # tuples the literal oracle finds free; freeness is hereditary, so only
    # tuples whose prefix is free need asking
    moduli = _as_moduli(moduli)
    elements = range(moduli[0]) if len(moduli) == 1 else list(
        product(*map(range, moduli)))
    free, length = {()}, 0
    while True:
        want = [t for t in combinations_with_replacement(elements, length)
                if t[:-1] in free
                and not brute_force_oracle(ZSequence(moduli, t), A)]
        got = [S.elements for S in zero_sum_free_sequences(moduli, A, length)]
        assert got == want, length
        if not want:
            break
        free, length = set(want), length + 1
    # length 0 listed the one empty sequence, and the loop ends one above
    # the maximum, where both sides are empty
    assert length == exact_davenport(moduli, A).constant


def test_sandwich_reports():
    r = verify_sandwich(12, 7)
    assert (r.lower, r.exact, r.upper) == (6, 7, 8)
    assert (r.n1, r.n2) == (4, 3)
    assert r.exhaustive
    r = verify_sandwich(21, 13)
    assert (r.lower, r.exact, r.upper) == (6, 7, 7)
    r = verify_sandwich(30, 11)
    assert (r.lower, r.exact, r.upper) == (10, 11, 11)


def test_sandwich_flags_violations(monkeypatch):
    import davlab.bounds

    monkeypatch.setattr(davlab.bounds, "upper_bound", lambda split: 3)
    with pytest.raises(BoundViolationError):
        verify_sandwich(12, 7)


def test_sandwich_budget_exhaustion_keeps_bracket():
    with pytest.raises(BudgetExceededError) as err:
        verify_sandwich(28, 15, SearchBudget(max_nodes=30))
    rep = err.value.partial
    assert not rep.exhaustive
    assert rep.exact <= rep.upper
    assert (rep.lower, rep.upper) == (9, 16)


def test_sandwich_rows_53_to_60():
    # past criteria 1 and 2 (n <= 30) and the bench (n <= 52); the values
    # are those of the search without the threshold prune
    pinned = {
        (55, 21): 11, (55, 34): 13, (56, 15): 16, (56, 41): 10,
        (57, 20): 20, (57, 37): 9, (60, 11): 12, (60, 19): 9,
        (60, 29): 7, (60, 31): 31, (60, 41): 21, (60, 49): 14,
    }
    reports = {row: verify_sandwich(*row) for row in pinned}
    assert {row: r.exact for row, r in reports.items()} == pinned
    assert all(r.exhaustive for r in reports.values())
    # the threshold must reach the children: 1,658,714 nodes without it
    assert reports[60, 31].nodes < 800_000


def _has_split(n, s):
    try:
        crt_split(n, s)
    except NoValidSplitError:
        return False
    return True


def test_orbit_capacity_prunes_the_bracket_rows():
    # the bench's bracket rows: every involution s of Z_n with a CRT split,
    # n <= 52.  Counting unreachable elements rather than unreachable
    # orbits {y, s*y}, they took 289,087 nodes and (60, 31) took 433,869
    rows = [(n, s) for n in range(2, 53) for s in involutions(n)
            if _has_split(n, s)]
    assert sum(verify_sandwich(n, s).nodes for n, s in rows) < 200_000
    assert verify_sandwich(60, 31).nodes < 300_000


def test_searches_without_an_involution_keep_their_nodes():
    # {1} has no involution, so its capacity still counts single elements
    # and its node counts are those of the element-count bound
    assert exact_davenport((5, 5), {1}).nodes == 33_353
    assert exact_davenport(30, {1}).nodes == 9_091
