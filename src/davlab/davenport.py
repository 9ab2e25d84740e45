"""Exact weighted Davenport constants by pruned multiset search.

Zero-sum-free multisets are enumerated as nondecreasing sequences of
candidate classes; elements sharing the same weighted-image set fold
identically, so only the class matters.  Appending any element to a
zero-sum-free sequence strictly enlarges its reachable-sum bitset (otherwise
some multiple of an image would chain down to zero), which caps the depth at
|G| - 1 and gives an admissible capacity prune.  Search states (bitset,
lowest admissible class) are memoized exactly.

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


def _prepare_candidates(moduli, entries):
    """Group usable elements into classes with equal weighted-image sets.

    Elements with a zero image can never sit in a zero-sum-free sequence and
    are dropped.  Classes are ordered by their smallest member code, which
    fixes the enumeration order everywhere.
    """
    grid = _grid(moduli)
    by_sig = {}
    for code in range(1, grid.size):
        x = code if grid.rank == 1 else grid.decode(code)
        codes, vecs = _element_images(grid, x, entries)
        if codes[0] == 0:
            continue
        shifts = codes if grid.rank == 1 else vecs
        by_sig.setdefault(codes, [shifts, []])[1].append((code, x))
    cands = []
    for sig in sorted(by_sig, key=lambda s: by_sig[s][1][0][0]):
        shifts, pairs = by_sig[sig]
        cands.append((pairs[0][0], tuple(shifts), tuple(v for _, v in pairs)))
    return grid, cands


def _root_flags(moduli, grid, cands):
    """Mark classes usable as the first (smallest) class of a multiset.

    Scaling by a unit permutes zero-sum-free multisets, so only classes that
    are minimal within their unit orbit need to seed the search; the witness
    expansion closes results back under the same scalings.  Applies only to
    uniform moduli, where unit scaling is an automorphism.
    """
    k = len(cands)
    if len(set(moduli)) != 1:
        return [True] * k
    n = moduli[0]
    us = units(n)
    if len(us) == 1:
        return [True] * k
    class_of = {}
    for i, (_, _, members) in enumerate(cands):
        for v in members:
            class_of[v if grid.rank == 1 else grid.encode(v)] = i
    flags = []
    for rep, _, _ in cands:
        ok = True
        for u in us:
            if grid.rank == 1:
                scaled = (u * rep) % n
            else:
                scaled = grid.encode(
                    tuple((u * c) % n for c in grid.decode(rep))
                )
            if cands[class_of[scaled]][0] < rep:
                ok = False
                break
        flags.append(ok)
    return flags


def _run_roots(branch, args, budget):
    """branch(arg + (deadline,)) for every arg, in order, serially or on a
    process pool; all branches share one wall-clock deadline.

    The monotonic clock is system wide, so forked workers compare against
    the same deadline as the parent.
    """
    deadline = time.monotonic() + budget.max_seconds
    jobs = [a + (deadline,) for a in args]
    if budget.parallel_width == 1 or len(jobs) == 1:
        return [branch(job) for job in jobs]
    workers = min(budget.parallel_width, len(jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(branch, jobs))


def _run_branch(args):
    """Exhaust one root class: (best length, witness cores, nodes, completed).

    Phase one memoizes the longest extension of every (bitset, class) state;
    phase two walks back down recording every state chain that attains the
    branch maximum.  On abort the deepest zero-sum-free prefix seen so far is
    returned as a certified lower bound.
    """
    moduli, shift_of, root_idx, max_nodes, collect, deadline = args
    grid = _grid(moduli)
    fold = grid.fold
    n_classes = len(shift_of)
    cap_base = grid.size - 1
    nodes = 0
    deepest = 0
    memo = {}
    cores = []

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
        key = (R << 12) | last
        hit = memo.get(key)
        if hit is not None:
            return hit
        tick(depth)
        best = 0
        for i in range(last, n_classes):
            Rp = fold(R, shift_of[i])
            if Rp & 1:
                continue
            if 1 + (cap_base - Rp.bit_count()) <= best:
                continue
            sub = 1 + max_ext(Rp, i, depth + 1)
            if sub > best:
                best = sub
        memo[key] = best
        return best

    def walk(R, last, remaining, prefix):
        tick(len(prefix))
        if not remaining:
            cores.append(tuple(prefix))
            return
        for i in range(last, n_classes):
            Rp = fold(R, shift_of[i])
            if Rp & 1:
                continue
            if 1 + (cap_base - Rp.bit_count()) < remaining:
                continue
            if 1 + max_ext(Rp, i, len(prefix) + 1) == remaining:
                prefix.append(i)
                walk(Rp, i, remaining - 1, prefix)
                prefix.pop()

    try:
        R0 = fold(0, shift_of[root_idx])
        best = 1 + max_ext(R0, root_idx, 1)
        if best > deepest:
            deepest = best
        if collect:
            walk(R0, root_idx, best - 1, [root_idx])
        return best, tuple(cores), nodes, True
    except _Abort:
        return deepest, (), nodes, False
    finally:
        # max_ext and walk refer to themselves, so the memo they close over
        # would otherwise live until the cyclic collector runs.
        memo.clear()


def _scaled(elems, u, n, rank):
    """The multiset elems scaled by the unit u, sorted."""
    if rank == 1:
        return tuple(sorted((u * x) % n for x in elems))
    return tuple(sorted(tuple((u * c) % n for c in x) for x in elems))


def _expand_witnesses(moduli, grid, cands, cores):
    """Expand class-level cores into element multisets, closed under units."""
    out = set()
    for core in cores:
        pools = [
            list(combinations_with_replacement(cands[i][2], mult))
            for i, mult in sorted(Counter(core).items())
        ]
        for pick in iter_product(*pools):
            elems = []
            for group in pick:
                elems.extend(group)
            out.add(tuple(sorted(elems)))
    if len(set(moduli)) == 1:
        n = moduli[0]
        us = units(n)
        out = {_scaled(elems, u, n, grid.rank) for elems in out for u in us}
    return tuple(ZSequence(moduli, e) for e in sorted(out))


def _search(moduli, entries, budget, collect):
    grid, cands = _prepare_candidates(moduli, entries)
    if not cands:
        witnesses = (ZSequence(moduli, ()),) if collect else None
        return 0, witnesses, 0, True
    flags = _root_flags(moduli, grid, cands)
    shifts = tuple(c[1] for c in cands)
    args = [
        (moduli, shifts, i, budget.max_nodes, collect)
        for i, ok in enumerate(flags) if ok
    ]
    results = _run_roots(_run_branch, args, budget)
    max_len = max(r[0] for r in results)
    nodes = sum(r[2] for r in results)
    exhaustive = all(r[3] for r in results)
    witnesses = None
    if collect and exhaustive:
        cores = [c for r in results if r[0] == max_len for c in r[1]]
        witnesses = _expand_witnesses(moduli, grid, cands, cores)
    return max_len, witnesses, nodes, exhaustive


def _checked_moduli(n):
    moduli = _as_moduli(n)
    size = 1
    for m in moduli:
        size *= m
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
    rank = len(moduli)
    us = units(base)
    reps = {min(_scaled(w.elements, u, base, rank) for u in us) for w in witnesses}
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
    elems = []
    for code in range(1, grid.size):
        x = code if grid.rank == 1 else grid.decode(code)
        codes, vecs = _element_images(grid, x, entries)
        if codes[0] == 0:
            continue
        elems.append((x, codes if grid.rank == 1 else vecs))
    elems.sort()
    size = grid.size
    seq = []

    def rec(R, start, depth):
        if depth == length:
            yield ZSequence(moduli, tuple(seq))
            return
        for idx in range(start, len(elems)):
            x, shifts = elems[idx]
            Rp = grid.fold(R, shifts)
            if Rp & 1:
                continue
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
