"""Exact weighted Davenport constants by pruned multiset search.

Zero-sum-free multisets are enumerated as nondecreasing sequences of
candidate classes; elements sharing the same weighted-image set fold
identically, so only the class matters.  Appending any element to a
zero-sum-free sequence strictly enlarges its reachable-sum set R (otherwise
some multiple of an image would chain down to zero).  When the weight set A
has an involution h, an entry other than the identity with h*h = 1 on every
coordinate and h*A = A, R is h-invariant: h * sum(e_i x_i) = sum((h e_i)
x_i) with every h e_i in A.  So what an append adds to R is a nonempty union
of orbits of h, and 0, never in R, is an orbit of its own: every append
reaches at least one more orbit of nonzero elements, and the unreachable
ones bound the appends still possible, an admissible capacity prune (without
an involution the orbits are single elements, a bound of |G| - 1).  Search
states (bitset, lowest admissible class) are memoized.

The search below a state is fail-soft, as in alpha-beta search: it is handed
a threshold, the length its caller must see exceeded for the state to matter
(the larger of the best sibling found and the caller's own threshold, less
one).  A result above the threshold is the exact longest extension; a result
at or below it is only a proven upper bound, so a child that cannot beat its
siblings is searched no further than it takes to show that.  The memo tags
each entry as exact, a lower bound (a search asked for one length stops once
it reaches it) or an upper bound, and an upper bound answers only the calls
whose threshold it does not exceed.

_run_branch is the one branch engine: it is handed a search space (lift,
step, forms, cap_base, rep) over int states.  Each form is a pair (probe,
arg): probe is the set of state bits that forbid the append, tested with
one AND before step(state, lifted, arg) builds the next state from
lifted = lift(state), which every node computes once for all its children.
Here (_zero_sum_space) the probe holds the negated weighted images of a
class, arg the images themselves, and lift and step are zsfree._Grid's;
metacyclic's slot-sum space is the other instance.

Both searches run one orbit of a symmetry group at a time.  The group is
given by generators, permutations of the candidate indices built once per
search (the unit scalings _scalings here, metacyclic._action there).  _orbit
searches an orbit breadth-first over them; _run_roots seeds the least
candidate of each orbit and closes what the roots find.  For uniform moduli
unit scaling permutes the classes (ordered by their smallest member) and so
the zero-sum-free multisets.

Node budgets are enforced per root branch with a fresh memo each, so
node-limited truncation yields identical results at any parallel width.  The
wall-clock budget is one deadline per search, fixed when the search starts and
shared by every root and worker; where it cuts a search depends on scheduling.
"""

import time
from collections import Counter
from collections.abc import Sequence
from concurrent import futures
from dataclasses import dataclass
from itertools import combinations_with_replacement, product as iter_product, repeat
from math import comb, prod

from .bounds import table_row
from .errors import BoundViolationError, BudgetExceededError, TooLargeError
from .modring import WeightSet, _integer, units
from .zsfree import ZSequence, _as_moduli, _grid, _weight_entries

# Bitset width cap; beyond this the search would not finish anyway.
MAX_GROUP_BITS = 4096

# Search nodes between clock reads.  Every branch also reads the clock before
# it builds its search space and on its first node, so a root that starts
# past the deadline stops at once and a search overruns its deadline by at
# most this many nodes per worker.
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
        _integer(self.max_nodes, "max_nodes", 1)
        _integer(self.parallel_width, "parallel_width", 1)
        seconds = self.max_seconds
        if (not isinstance(seconds, (int, float)) or isinstance(seconds, bool)
                or not seconds > 0):
            raise ValueError(
                f"max_seconds must be a positive number, got {seconds!r}")


class _Witnesses(Sequence):
    """The longest zero-sum-free sequences of a search, read-only and lazy.

    It holds the class-level cores the branch engine found: nondecreasing
    tuples of candidate indices into members, the element classes.  A core
    expands to every multiset taking k elements, with repetition, from each
    class it repeats k times.  Classes partition the elements, so distinct
    cores expand to disjoint sets and len() is the sum over the cores of the
    product of C(|class| + k - 1, k), with nothing built.  The first read
    expands every core into one sorted list of element tuples, the only
    thing kept; iteration and indexing build each ZSequence from it as they
    hand it out, and keep none.  gens are the search's _scalings.
    """

    def __init__(self, moduli, members, cores, gens):
        self._moduli = moduli
        self._members = members
        self._cores = cores
        self._gens = gens
        self._found = None

    def _expand(self, core):
        # a core is nondecreasing, so Counter lists its classes ascending
        pools = [combinations_with_replacement(self._members[i], k)
                 for i, k in Counter(core).items()]
        for pick in iter_product(*pools):
            yield tuple(sorted(sum(pick, ())))

    def _elements(self):
        if self._found is None:
            self._found = tuple(sorted(
                e for core in self._cores for e in self._expand(core)))
        return self._found

    def _reduced(self):
        """One sequence per orbit of the unit scalings, each the least image
        under every unit, sorted; mixed moduli have none and give self.  One
        core per orbit of gens expands, as a unit u maps the expansions of
        core c one-to-one onto those of u*c."""
        if len(set(self._moduli)) != 1:
            return self
        grid = _grid(self._moduli)
        # one lookup per unit u: usable element x -> u*x
        scale = [{x: grid.element(grid.times(u, x)) for xs in self._members
                  for x in xs}.__getitem__ for u in units(self._moduli[0])]
        seen, reps = set(), set()
        for core in self._cores:
            if core in seen:
                continue
            seen |= _orbit(self._gens, core)
            for e in self._expand(core):
                reps.add(tuple(min(map(sorted, map(map, scale, repeat(e))))))
        return tuple(ZSequence._of(self._moduli, e) for e in sorted(reps))

    def __len__(self):
        return sum(prod(comb(len(self._members[i]) + k - 1, k)
                        for i, k in Counter(core).items())
                   for core in self._cores)

    def __getitem__(self, index):
        found = self._elements()[index]
        if isinstance(index, slice):
            return tuple(map(ZSequence._of, repeat(self._moduli), found))
        return ZSequence._of(self._moduli, found)

    def __iter__(self):
        return map(ZSequence._of, repeat(self._moduli), self._elements())

    # value semantics, so that ExactResults of equal searches compare and
    # hash equal
    def __eq__(self, other):
        if not isinstance(other, _Witnesses):
            return NotImplemented
        return (self._moduli == other._moduli
                and self._elements() == other._elements())

    def __hash__(self):
        return hash((self._moduli, self._elements()))


@dataclass(frozen=True)
class ExactResult:
    """constant is one more than max_zsf_length, the longest zero-sum-free
    length.  witnesses is None when the search collected none, and otherwise
    a lazy read-only sequence of every zero-sum-free sequence of that
    length, sorted by their elements: len() counts them without building
    any, and iterating or indexing builds each ZSequence as it is read."""

    constant: int
    max_zsf_length: int
    witnesses: Sequence | None
    exhaustive: bool
    nodes: int


def _prepare_candidates(moduli, entries):
    """Group the usable elements, those whose weighted images are all
    nonzero, into classes with equal weighted-image sets: a list of ((probe,
    images), members), with the images as _Grid.images gives them, the form
    _Grid.step takes.  An element with a zero image can never sit in a
    zero-sum-free sequence.

    The probe is the bitset of the negated images: appending the element to
    a sequence with reachable sums R makes a zero sum exactly when R & probe,
    because every image is nonzero.  Negation is a bijection, so equal probes
    mean equal image sets.  The scan runs in code order, so classes come
    ordered by their smallest member code, which fixes the enumeration order
    everywhere.
    """
    grid = _grid(moduli)
    by_probe = {}
    for code in range(1, grid.size):
        x = grid.element(code)
        images = grid.images(x, entries)
        if grid.code(images[0]):
            probe = sum(1 << grid.times(-1, y) for y in images)
            by_probe.setdefault(probe, ((probe, images), []))[1].append(x)
    return [(form, tuple(members)) for form, members in by_probe.values()]


def _generators(n):
    """A generating set of the units of Z_n, n >= 2: each unit in turn
    joins when the earlier ones do not generate it."""
    gens, group = [], {(1,)}
    for u in units(n):
        if (u,) not in group:
            gens.append(u)
            group = _orbit([[g * x % n for x in range(n)] for g in gens], (1,))
    return gens


def _scalings(moduli, members):
    """The scalings of (n,) * k by _generators(n) as permutations of the
    candidate classes members, which scaling permutes as it commutes with
    scalar weights.  Mixed moduli have none."""
    if len(set(moduli)) != 1:
        return []
    grid = _grid(moduli)
    index_of = {grid.code(x): i for i, xs in enumerate(members) for x in xs}
    return [[index_of[grid.times(u, xs[0])] for xs in members]
            for u in _generators(moduli[0])]


def _orbit(gens, items):
    """Every image of the sorted index tuple items under the group that the
    permutations gens generate, each sorted: a breadth-first search over
    the generators (Butler, LNCS 559, 1991), costing |orbit| * |gens|."""
    orbit, queue = {items}, [items]
    for t in queue:
        images = {tuple(sorted(g[i] for i in t)) for g in gens} - orbit
        orbit |= images
        queue += images
    return orbit


def _run_roots(space, space_args, gens, count, budget, collect, length=None):
    """_run_branch from every root, in order, serially or on a process pool:
    (longest length, chains, nodes, exhaustive).  With length None only the
    roots reaching the longest length give chains; with a length set, the
    longest length only tells whether a root reaches it.  The roots are the
    least of each orbit of the group that the permutations gens of the count
    candidates generate; each orbit holds a chain starting at one, so the
    chains are returned closed under the group, and sorted.  The closure
    searches one found chain's orbit per orbit: chains are nondecreasing
    tuples, the same as their sorted images, so a chain already in the
    closed set has its whole orbit there.  Every root and forked worker
    reads one deadline off the system-wide monotonic clock, fixed before the
    roots are chosen.  No root is dispatched and no orbit closed once it has
    passed: the search then ends as a truncation, with the orbits closed so
    far.  A budget of None is the default SearchBudget()."""
    budget = budget or SearchBudget()
    deadline = time.monotonic() + budget.max_seconds
    roots, seen = [], set()
    for i in range(count):
        if (i,) not in seen:
            roots.append(i)
            seen |= _orbit(gens, (i,))
    jobs = [
        (space, space_args, root, budget.max_nodes, collect, length, deadline)
        for root in roots
    ]
    if budget.parallel_width == 1 or len(jobs) == 1:
        results = []
        for job in jobs:
            if time.monotonic() > deadline:
                break
            results.append(_run_branch(job))
    else:
        results = _run_pool(jobs, min(budget.parallel_width, len(jobs)), deadline)
    best = max((r[0] for r in results), default=0)
    exhaustive = len(results) == len(jobs) and all(r[3] for r in results)
    closed = set()
    for chain in (c for r in results if length is not None or r[0] == best
                  for c in r[1]):
        if chain not in closed:
            if time.monotonic() > deadline:
                exhaustive = False
                break
            closed |= _orbit(gens, chain)
    return best, sorted(closed), sum(r[2] for r in results), exhaustive


def _run_pool(jobs, workers, deadline):
    """_run_branch over jobs on a pool of workers, in any order.  A job is
    submitted only when a worker is free and the deadline has not passed, so
    a late root costs no round trip to the pool.  futures loads the pool,
    and with it multiprocessing, on first lookup, so only a parallel search
    pays for importing them."""
    results, running = [], set()
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for job in jobs:
            if len(running) == workers:
                done, running = futures.wait(
                    running, return_when=futures.FIRST_COMPLETED)
                results += [f.result() for f in done]
            if time.monotonic() > deadline:
                break
            running.add(pool.submit(_run_branch, job))
        results += [f.result() for f in running]
    return results


def _orbit_reps(moduli, entries):
    """The capacity mask of the zero-sum space: one bit per orbit of the
    nonzero codes under the involution h of the weight entries A, the first
    entry other than the identity with h*h = 1 on every coordinate and h*A
    = A, the bit of the orbit's least code.  Without such an h every orbit
    is one code, and every nonzero code has its bit."""
    grid = _grid(moduli)
    one = sum(grid.strides)  # the code of the all-ones element
    codes = {grid.code(a) for a in entries}
    h = next((u for u in entries if grid.code(u) != one
              and grid.times(u, u) == one
              and {grid.times(u, a) for a in entries} == codes), None)
    if h is None:
        return grid.mask - 1
    reps = {min(c, grid.times(h, grid.element(c)))
            for c in range(1, grid.size)}
    return sum(1 << c for c in reps)


def _zero_sum_space(moduli, forms, rep):
    """Reachable-sum bitsets, folded by _Grid's lift and step: a zero sum
    blocks, and the orbits of nonzero sums that rep (_orbit_reps) marks
    cap.  forms are the classes' (probe, images) pairs."""
    grid = _grid(moduli)
    return grid.lift, grid.step, forms, rep.bit_count(), rep


def _run_branch(args):
    """Exhaust one root candidate: (best length, chains, nodes, completed).

    A root that starts past the deadline returns at once, before it builds
    its search space, as a truncation with 0 nodes.  Otherwise
    space(*space_args) gives (lift, step, forms, cap_base, rep).  A state
    is an int, 0 for the empty sequence, and forms[i] is candidate i's pair
    (probe, arg): probe is the set of state bits that forbid appending it,
    and step(state, lift(state), arg) is the state after the append.  lift
    holds the work shared by every child of a state and runs once per node
    searched (and once per walk step); step runs only when state & probe is
    0, so a blocked candidate costs one AND.  The popcount
    of state & rep must lower-bound a count that every append raises and
    that cannot pass cap_base, so that cap_base minus it bounds how many
    appends can still follow: the reachable orbits of nonzero sums here,
    the realized products of metacyclic._slot_space.  Chains are
    nondecreasing candidate indices from root.

    Phase one, max_ext(R, last, depth, beat), bounds the longest extension
    of a (state, lowest candidate) pair.  It returns v: if v > beat, v is
    the longest extension; if v <= beat, v is an upper bound on it.  With a
    length set, a loop stops once it reaches that length, and then v is a
    lower bound of at least the need (length - depth); callers keep beat
    below the need, so such a v is above beat and stops its caller too.

    Proof, by induction on the appends still possible.  The loop keeps
    floor = max(best, beat) and enters a child with threshold floor - 1, so
    by induction the child's 1 + v is exact when it exceeds floor and an
    upper bound when it does not.  A child skipped because its capacity is
    at most floor is bounded by that capacity, and a blocked candidate
    contributes nothing.  best is the largest contribution.  An upper bound
    or a capacity is at most floor at its time, which is beat while best <=
    beat, so best passes beat only through an exact child; then every other
    child is at most the floor at its time, so at most the final best, and
    best is exact.  If best ends at or below beat, each contribution bounds
    its child, so best bounds them all.  Roots call with beat = -1, so each
    root's length is exact; with a length set they call with length - 2, so
    a root that cannot reach it is searched only until that is shown, and
    its length is then an upper bound below the set length.

    The memo is one table per candidate, keyed by the state, with three
    kinds of entry: v >= 0, the exact value; -v, a lower bound v of at
    least the need when it was stored, which answers calls whose need it
    still meets; top + u, with top = cap_base + 2 above every exact value,
    an upper bound u, which answers only calls with beat >= u.  Any other
    call searches the state again, so one state can be searched more than
    once, at a lower threshold or a larger need.  With collect set, phase
    two walks back down recording every chain of the length (None: the
    branch maximum); a child extends far enough exactly when max_ext with
    threshold remaining - 2 returns more than that.  Nodes are state
    searches and chains; each other walk step re-enters a counted state on
    the way to a chain.  On abort the deepest chain seen is a certified
    lower bound, returned with the chains walked so far: all those found,
    as phase one stops at its first chain of a set length.  Both phases
    recurse once per append, so the interpreter's recursion limit also cuts
    a search: it ends the root as a truncation, like the node and clock
    budgets.
    """
    space, space_args, root, max_nodes, collect, length, deadline = args
    if time.monotonic() > deadline:
        return 0, (), 0, False
    lift, step, forms, cap_base, rep = space(*space_args)
    n_forms = len(forms)
    # no sequence is longer than cap_base, so without a length no loop stops
    goal = cap_base + 1 if length is None else length
    # tags upper-bound memo entries: every exact value is at most cap_base
    top = cap_base + 2
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

    def max_ext(R, last, depth, beat):
        need = goal - depth
        if need <= 0:
            return 0
        table = memo[last]
        hit = table.get(R)
        if hit is not None:
            if hit >= top:
                if hit - top <= beat:
                    return hit - top
            elif hit >= 0 or hit <= -need:
                return abs(hit)
        tick(depth)
        lifted = lift(R)
        best = 0
        floor = beat if beat > 0 else 0
        for i in range(last, n_forms):
            probe, arg = forms[i]
            if R & probe:
                continue
            Rp = step(R, lifted, arg)
            cap = 1 + (cap_base - (Rp & rep).bit_count())
            if cap <= floor:
                if cap > best:
                    best = cap
                continue
            sub = 1 + max_ext(Rp, i, depth + 1, floor - 1)
            if sub > best:
                best = sub
                if best >= need:
                    table[R] = -best
                    return best
                if best > floor:
                    floor = best
        table[R] = best if best > beat else top + best
        return best

    def walk(R, last, remaining, prefix):
        if not remaining:
            tick(len(prefix))
            chains.append(tuple(prefix))
            return
        lifted = lift(R)
        for i in range(last, n_forms):
            probe, arg = forms[i]
            if R & probe:
                continue
            Rp = step(R, lifted, arg)
            if 1 + (cap_base - (Rp & rep).bit_count()) < remaining:
                continue
            if 1 + max_ext(Rp, i, len(prefix) + 1, remaining - 2) >= remaining:
                prefix.append(i)
                walk(Rp, i, remaining - 1, prefix)
                prefix.pop()

    try:
        R0 = step(0, lift(0), forms[root][1])
        best = 1 + max_ext(R0, root, 1, -1 if length is None else length - 2)
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


def _search(moduli, entries, budget, collect, length=None):
    # never empty: the all-ones element has the weights, none zero, as images
    forms, members = zip(*_prepare_candidates(moduli, entries))
    gens = _scalings(moduli, members)
    max_len, cores, nodes, exhaustive = _run_roots(
        _zero_sum_space, (moduli, forms, _orbit_reps(moduli, entries)),
        gens, len(forms), budget, collect, length)
    witnesses = None
    if collect and exhaustive:
        witnesses = _Witnesses(moduli, members, cores, gens)
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

    With collect_witnesses the search also walks out every longest chain of
    classes; the sequences themselves are built only when a caller iterates
    ExactResult.witnesses.  Without it the walk is skipped and witnesses is
    None; verify_sandwich passes False to skip the walk, as it needs only
    the constant.
    """
    moduli = _checked_moduli(n)
    entries = _weight_entries(weights, moduli)
    max_len, witnesses, nodes, exhaustive = _search(
        moduli, entries, budget, collect_witnesses
    )
    result = ExactResult(max_len + 1, max_len, witnesses, exhaustive, nodes)
    if not exhaustive:
        raise BudgetExceededError(
            f"search budget exhausted; constant is at least {max_len + 1}",
            partial=result,
        )
    return result


def exact_davenport_k(n, weights, k, budget=None, collect_witnesses=True):
    """Exact weighted constant of the rank-k product of copies of Z_n."""
    return exact_davenport((n,) * _integer(k, "k", 1), weights, budget,
                           collect_witnesses)


def enumerate_extremal(n, weights, budget=None, orbit_reduced=False):
    """All longest zero-sum-free sequences, sorted, as the lazy sequence of
    ExactResult.witnesses.

    With orbit_reduced, a tuple of one sequence per orbit of the unit
    scalings instead: the least image under every unit, sorted.  Mixed
    moduli have no unit scaling and get the full list.
    """
    found = exact_davenport(n, weights, budget).witnesses
    return found._reduced() if orbit_reduced else found


def zero_sum_free_sequences(n, weights, length):
    """An iterator over every zero-sum-free sequence of the given length, in
    sorted element order, smallest first: the engine's chains of classes of
    that length, closed under units and expanded.  The arguments are checked
    and the search runs at the call, so bad input raises ValueError and a
    search cut off by the default SearchBudget or the recursion limit raises
    BudgetExceededError there."""
    moduli = _checked_moduli(n)
    _integer(length, "length", 0)
    entries = _weight_entries(weights, moduli)
    if length == 0:
        return iter((ZSequence(moduli, ()),))
    _, found, nodes, exhaustive = _search(moduli, entries, None, True, length)
    if not exhaustive:
        raise BudgetExceededError(
            f"listing of length {length} cut off after {nodes} nodes")
    return iter(found)


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
    row = table_row(n, s)
    lo, hi = row.lower, row.upper
    cut = None
    try:
        res = exact_davenport(
            n, WeightSet(n, (1, s)), budget, collect_witnesses=False
        )
    except BudgetExceededError as e:
        res, cut = e.partial, e
    if res.constant > hi or res.exhaustive and res.constant < lo:
        what = (f"exact constant {res.constant} escapes [{lo}, {hi}]"
                if res.exhaustive else f"lower estimate {res.constant} "
                f"exceeds the upper bound {hi}")
        raise BoundViolationError(f"{what} for (n={n}, s={s})")
    report = SandwichReport(n, s, row.n1, row.n2, lo, res.constant, hi,
                            res.exhaustive, res.nodes)
    if cut is not None:
        raise BudgetExceededError(str(cut), partial=report)
    return report
