"""Exact weighted Davenport constants by pruned multiset search.

Zero-sum-free multisets are enumerated as nondecreasing sequences of
candidate classes; elements sharing the same weighted-image set fold
identically, so only the class matters.  Appending any element to a
zero-sum-free sequence strictly enlarges its reachable-sum bitset (otherwise
some multiple of an image would chain down to zero), which caps the depth at
|G| - 1 and gives an admissible capacity prune.  Search states (bitset,
lowest admissible class) are memoized exactly.

_run_branch is the one branch engine: it is handed a search space (a fold
over int states, the candidate forms and a capacity base).  Each form is a
pair (probe, arg): probe is the set of state bits that forbid the append,
tested with one AND before fold(state, arg) builds the next state.  Here
(_zero_sum_space) the probe holds the negated weighted images of a class;
metacyclic's slot-sum space is the other instance.

For uniform moduli, scaling by a unit of Z_n permutes the classes and the
zero-sum-free multisets, and classes are ordered by their smallest member, so
only classes that no unit maps to a lower index seed the search.  The same
class-level action closes the extremal class multisets found from those roots
before they are expanded into elements.  The root test stops at the first unit
that lowers a class: most classes fail within a few units, while a full table
over units and classes would cost more than the search at large n.

Node budgets are enforced per root branch with a fresh memo each, so
node-limited truncation yields identical results at any parallel width.  The
wall-clock budget is one deadline per search, fixed when the search starts and
shared by every root and worker; where it cuts a search depends on scheduling.
"""

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement, product as iter_product
from math import prod

from .bounds import lower_bound, upper_bound
from .errors import BoundViolationError, BudgetExceededError, TooLargeError
from .modring import WeightSet, crt_split, units
from .zsfree import ZSequence, _as_moduli, _element_images, _grid, _weight_entries

# Bitset width cap; beyond this the search would not finish anyway.
MAX_GROUP_BITS = 4096

# Search nodes between clock reads.  Every branch also reads the clock on its
# first node, so a root that starts past the deadline stops at once and a
# search overruns its deadline by at most this many nodes per worker.
CLOCK_EVERY = 256


class _Abort(Exception):
    pass


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for the exact searches.

    max_nodes applies to every root branch separately.  max_seconds is one
    wall-clock deadline for the whole search, shared by every root branch and
    every worker, and checked on each branch's first node and then every
    CLOCK_EVERY nodes.  It is the one knob whose truncation point can differ
    between runs, so thread width leaves results unchanged only for searches
    that finish inside it.
    """

    max_nodes: int = 20_000_000
    max_seconds: float = 300.0
    parallel_width: int = 1

    def __post_init__(self):
        if self.max_nodes < 1 or self.parallel_width < 1:
            raise ValueError("max_nodes and parallel_width must be positive")
        if not self.max_seconds > 0:
            raise ValueError("max_seconds must be positive")


@dataclass(frozen=True)
class ExactResult:
    constant: int
    max_zsf_length: int
    witnesses: tuple | None
    exhaustive: bool
    nodes: int


def _usable_elements(grid, entries):
    """(element, probe, shift forms) of every element whose weighted images
    are all nonzero, in code order.  An element with a zero image can never
    sit in a zero-sum-free sequence.

    The probe is the bitset of the negated images: appending the element to
    a sequence with reachable sums R makes a zero sum exactly when R & probe,
    because every image is nonzero.  Negation is a bijection, so equal probes
    mean equal image sets."""
    for code in range(1, grid.size):
        x = code if grid.rank == 1 else grid.decode(code)
        codes, shifts = _element_images(grid, x, entries)
        if codes[0]:
            negs = (grid.encode([-v for v in grid.decode(c)]) for c in codes)
            yield x, sum(1 << c for c in negs), shifts


def _prepare_candidates(moduli, entries):
    """Group usable elements into classes with equal weighted-image sets:
    a list of ((probe, shift forms), members).

    The scan runs in code order, so classes come ordered by their smallest
    member code, which fixes the enumeration order everywhere.
    """
    by_probe = {}
    for x, probe, shifts in _usable_elements(_grid(moduli), entries):
        by_probe.setdefault(probe, ((probe, shifts), []))[1].append(x)
    return [(form, tuple(members)) for form, members in by_probe.values()]


def _unit_action(moduli, cands):
    """The units of Z_n acting on candidate classes: (units, act), where
    act(u, i) is the index of the class holding u times class i's members.

    For uniform moduli scaling by a unit is an automorphism that maps
    weighted-image sets to weighted-image sets, so it permutes the classes;
    for other moduli only ((1,), identity) applies.  act is lazy because the
    root test all(act(u, i) >= i for u in units) must stop at the first unit
    that lowers a class: a table over all units and classes costs more than
    the search it seeds at large n.
    """
    if len(set(moduli)) != 1:
        return (1,), lambda u, i: i
    n = moduli[0]
    class_of = {x: i for i, (_, members) in enumerate(cands) for x in members}
    reps = [members[0] for _, members in cands]
    if len(moduli) == 1:
        def act(u, i):
            return class_of[(u * reps[i]) % n]
    else:
        def act(u, i):
            return class_of[tuple((u * c) % n for c in reps[i])]
    return units(n), act


def _run_roots(space, space_args, roots, budget, collect, length=None):
    """_run_branch on every root, in order, serially or on a process pool:
    (longest length, chains, nodes, exhaustive).  With length None only the
    roots reaching the longest length give chains.  Every root and forked
    worker reads one deadline off the system-wide monotonic clock.
    """
    deadline = time.monotonic() + budget.max_seconds
    jobs = [
        (space, space_args, root, budget.max_nodes, collect, length, deadline)
        for root in roots
    ]
    if budget.parallel_width == 1 or len(jobs) == 1:
        results = [_run_branch(job) for job in jobs]
    else:
        workers = min(budget.parallel_width, len(jobs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_branch, jobs))
    best = max(r[0] for r in results)
    chains = [c for r in results if length is not None or r[0] == best
              for c in r[1]]
    return best, chains, sum(r[2] for r in results), all(r[3] for r in results)


def _zero_sum_space(moduli, forms):
    """Reachable-sum bitsets: a zero sum blocks, |G| - 1 nonzero sums cap.
    forms are the classes' (probe, shift forms) pairs."""
    grid = _grid(moduli)
    return grid.fold, forms, grid.size - 1


def _run_branch(args):
    """Exhaust one root candidate: (best length, chains, nodes, completed).

    space(*space_args) gives (fold, forms, cap_base).  A state is an int,
    0 for the empty sequence, and forms[i] is candidate i's pair (probe,
    arg): probe is the set of state bits that forbid appending it, and
    fold(state, arg) is the state after the append, called only when state &
    probe is 0, so a blocked candidate costs one AND.  cap_base minus a
    state's popcount must bound how many appends can still follow.  Chains
    are nondecreasing candidate indices from root.

    Phase one memoizes the longest extension of every (state, lowest
    candidate) pair, one table per candidate keyed by the state; with a
    length set, a loop stops once it reaches that length (best is then at
    least length) and its entry is kept negated, as a lower bound.  With
    collect set, phase two walks back down recording every chain of the
    length (None: the branch maximum).  Nodes are memo entries and chains;
    each other walk step re-enters a counted state on the way to a chain.
    On abort the deepest chain seen is a certified lower bound, returned
    with the chains walked so far: all those found, as phase one stops at
    its first chain of a set length.  Both phases recurse once per append,
    so the interpreter's recursion limit also cuts a search: it ends the
    root as a truncation, like the node and clock budgets.
    """
    space, space_args, root, max_nodes, collect, length, deadline = args
    fold, forms, cap_base = space(*space_args)
    n_forms = len(forms)
    # no sequence is longer than cap_base, so without a length no loop stops
    goal = cap_base + 1 if length is None else length
    nodes = deepest = 0
    memo = [{} for _ in range(n_forms)]
    chains = []

    def tick(depth):
        nonlocal nodes, deepest
        nodes += 1
        if depth > deepest:
            deepest = depth
        if nodes > max_nodes:
            raise _Abort
        if nodes % CLOCK_EVERY == 1 and time.monotonic() > deadline:
            raise _Abort

    def max_ext(R, last, depth):
        need = goal - depth
        if need <= 0:
            return 0
        table = memo[last]
        hit = table.get(R)
        if hit is not None and (hit >= 0 or hit <= -need):
            return abs(hit)
        tick(depth)
        best = 0
        for i in range(last, n_forms):
            probe, arg = forms[i]
            if R & probe:
                continue
            Rp = fold(R, arg)
            if 1 + (cap_base - Rp.bit_count()) <= best:
                continue
            sub = 1 + max_ext(Rp, i, depth + 1)
            if sub > best:
                best = sub
                if best >= need:
                    table[R] = -best
                    return best
        table[R] = best
        return best

    def walk(R, last, remaining, prefix):
        if not remaining:
            tick(len(prefix))
            chains.append(tuple(prefix))
            return
        for i in range(last, n_forms):
            probe, arg = forms[i]
            if R & probe:
                continue
            Rp = fold(R, arg)
            if 1 + (cap_base - Rp.bit_count()) < remaining:
                continue
            if 1 + max_ext(Rp, i, len(prefix) + 1) >= remaining:
                prefix.append(i)
                walk(Rp, i, remaining - 1, prefix)
                prefix.pop()

    try:
        R0 = fold(0, forms[root][1])
        best = 1 + max_ext(R0, root, 1)
        deepest = max(deepest, best)
        target = best if length is None else length
        if collect and target <= best:
            walk(R0, root, target - 1, [root])
        return best, tuple(chains), nodes, True
    except (_Abort, RecursionError):
        return deepest, tuple(chains), nodes, False
    finally:
        # max_ext and walk refer to themselves, so the memo they close over
        # would otherwise live until the cyclic collector runs.
        memo.clear()


def _expand_witnesses(moduli, cands, cores, us, act):
    """Close class-level cores under units, then expand them into element
    multisets.  Classes partition the elements, so distinct closed cores
    expand to disjoint sets and need no dedup."""
    closed = {tuple(sorted(act(u, i) for i in core)) for core in cores for u in us}
    out = []
    for core in closed:
        pools = [combinations_with_replacement(cands[i][1], mult)
                 for i, mult in sorted(Counter(core).items())]
        for pick in iter_product(*pools):
            out.append(tuple(sorted(sum(pick, ()))))
    out.sort()
    return tuple(ZSequence(moduli, e) for e in out)


def _search(moduli, entries, budget, collect):
    cands = _prepare_candidates(moduli, entries)
    if not cands:
        witnesses = (ZSequence(moduli, ()),) if collect else None
        return 0, witnesses, 0, True
    us, act = _unit_action(moduli, cands)
    forms = tuple(c[0] for c in cands)
    # only classes minimal in their unit orbit seed the search; the witness
    # closure restores the rest
    roots = [i for i in range(len(cands)) if all(act(u, i) >= i for u in us)]
    max_len, cores, nodes, exhaustive = _run_roots(
        _zero_sum_space, (moduli, forms), roots, budget, collect)
    witnesses = None
    if collect and exhaustive:
        witnesses = _expand_witnesses(moduli, cands, cores, us, act)
    return max_len, witnesses, nodes, exhaustive


def _checked_moduli(n):
    moduli = _as_moduli(n)
    size = prod(moduli)
    if size > MAX_GROUP_BITS:
        raise TooLargeError(
            f"group order {size} exceeds the {MAX_GROUP_BITS} bitset cap"
        )
    return moduli


def exact_davenport(n, weights, budget=None, collect_witnesses=True):
    """Exact weighted Davenport constant of Z_n (or a product, n a tuple).

    Returns an ExactResult whose constant is one more than the longest
    zero-sum-free length.  Raises BudgetExceededError carrying a certified
    partial result when the budget runs out first.
    """
    moduli = _checked_moduli(n)
    entries = _weight_entries(weights, moduli)
    budget = budget or SearchBudget()
    max_len, witnesses, nodes, exhaustive = _search(
        moduli, entries, budget, collect_witnesses
    )
    if not exhaustive:
        partial = ExactResult(max_len + 1, max_len, None, False, nodes)
        raise BudgetExceededError(
            f"search budget exhausted; constant is at least {max_len + 1}",
            partial=partial,
        )
    return ExactResult(max_len + 1, max_len, witnesses, True, nodes)


def exact_davenport_k(n, weights, k, budget=None, collect_witnesses=True):
    """Exact weighted constant of the rank-k product of copies of Z_n."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"need an integer k >= 1, got {k!r}")
    return exact_davenport((n,) * k, weights, budget, collect_witnesses)


def enumerate_extremal(n, weights, budget=None, orbit_reduced=False):
    """All longest zero-sum-free sequences, optionally one per unit orbit."""
    res = exact_davenport(n, weights, budget, collect_witnesses=True)
    witnesses = res.witnesses
    moduli = _as_moduli(n)
    if not orbit_reduced or len(set(moduli)) != 1:
        return witnesses
    base = moduli[0]
    flat = len(moduli) == 1

    def scaled(elems, u):
        return tuple(sorted(
            (u * x) % base if flat else tuple((u * c) % base for c in x)
            for x in elems
        ))

    reps = {min(scaled(w.elements, u) for u in units(base)) for w in witnesses}
    return tuple(ZSequence(moduli, e) for e in sorted(reps))


def zero_sum_free_sequences(n, weights, length):
    """Yield every zero-sum-free sequence of the given length, in sorted
    element order, smallest first.  Exhaustive, with no class merging."""
    moduli = _checked_moduli(n)
    if not isinstance(length, int) or isinstance(length, bool) or length < 0:
        raise ValueError(f"need a length >= 0, got {length!r}")
    entries = _weight_entries(weights, moduli)
    grid = _grid(moduli)
    if length == 0:
        yield ZSequence(moduli, ())
        return
    elems = sorted(_usable_elements(grid, entries))
    size = grid.size
    seq = []

    def rec(R, start, depth):
        if depth == length:
            yield ZSequence(moduli, tuple(seq))
            return
        for idx in range(start, len(elems)):
            x, probe, shifts = elems[idx]
            if R & probe:
                continue
            Rp = grid.fold(R, shifts)
            if 1 + (size - 1 - Rp.bit_count()) < length - depth:
                continue
            seq.append(x)
            yield from rec(Rp, idx, depth + 1)
            seq.pop()

    yield from rec(0, 0, 0)


@dataclass(frozen=True)
class SandwichReport:
    n: int
    s: int
    n1: int
    n2: int
    lower: int
    exact: int
    upper: int
    exhaustive: bool
    nodes: int


def verify_sandwich(n, s, budget=None):
    """Exact {1, s}-weighted constant checked against its closed-form bracket.

    Raises BoundViolationError when the exact value (or, under truncation,
    the certified lower estimate) escapes the bracket; re-raises budget
    exhaustion with the partial report attached.
    """
    split = crt_split(n, s)
    lo = lower_bound(split)
    hi = upper_bound(split)
    try:
        res = exact_davenport(
            n, WeightSet(n, (1, s)), budget, collect_witnesses=False
        )
    except BudgetExceededError as e:
        partial = e.partial
        if partial.constant > hi:
            raise BoundViolationError(
                f"lower estimate {partial.constant} exceeds the upper bound "
                f"{hi} for (n={n}, s={s})"
            ) from None
        report = SandwichReport(
            n, s, split.n1, split.n2, lo, partial.constant, hi, False,
            partial.nodes,
        )
        raise BudgetExceededError(str(e), partial=report) from None
    if not lo <= res.constant <= hi:
        raise BoundViolationError(
            f"exact constant {res.constant} escapes [{lo}, {hi}] "
            f"for (n={n}, s={s})"
        )
    return SandwichReport(
        n, s, split.n1, split.n2, lo, res.constant, hi, True, res.nodes
    )
