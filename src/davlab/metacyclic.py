"""Product-one-free sequences in the semidirect product C_n : C_2.

Elements are pairs (eps, a) standing for x^eps y^a, where y has order n and
the order-2 generator x conjugates y to y^s with s*s = 1 (mod n).  The
a-part of a product is the sum of a_i * s^(reflections after factor i), so
the ordered products of a multiset are slot sums: plain exponents weigh 1,
or freely 1 or s once any reflection is present, and m reflections fill
ceil(m/2) slots weighted 1 and floor(m/2) weighted s.  _slot_append keeps
these sums as bitsets keyed by (kind, balance): kind 0 plain sums, kind 1
plain sums with free weights, kind 2 sums holding a reflection, balance the
weight-1 minus weight-s reflection slots.  A cyclic rotation of a
product-one word is again product-one, so a sequence stays product-one-free
after appending g exactly when the inverse of g is not such a sum; the
explorer tests that with one bit probe per candidate, and the product-one
detector runs the same fold once per pick count.
"""

import time
from dataclasses import dataclass
from math import gcd

from .davenport import CLOCK_EVERY, SearchBudget, _Abort, _run_roots
from .errors import BudgetExceededError, WrongLengthError
from .modring import divisors, units

@dataclass(frozen=True, order=True)
class MetaElem:
    eps: int
    a: int


IDENTITY = MetaElem(0, 0)


@dataclass(frozen=True, init=False)
class GroupSpec:
    """The group of pairs (eps, a) with (e1, a1)(e2, a2) = (e1+e2, a1*s^e2 + a2)."""

    n: int
    s: int

    def __init__(self, n, s):
        if not isinstance(n, int) or isinstance(n, bool) or n < 3:
            raise ValueError(f"need an integer n >= 3, got {n!r}")
        s %= n
        if (s * s) % n != 1:
            raise ValueError(f"s={s} must square to 1 modulo {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)

    @classmethod
    def dihedral(cls, n):
        return cls(n, n - 1)

    @property
    def order(self):
        return 2 * self.n

    def element(self, eps, a):
        return MetaElem(eps & 1, a % self.n)

    def all_elements(self):
        return [MetaElem(e, a) for e in (0, 1) for a in range(self.n)]


def mul(g, h, spec):
    a = (g.a * (spec.s if h.eps else 1) + h.a) % spec.n
    return MetaElem(g.eps ^ h.eps, a)


def inverse(g, spec):
    if g.eps:
        return MetaElem(1, (-g.a * spec.s) % spec.n)
    return MetaElem(0, (-g.a) % spec.n)


def pairing_identity_check(alpha, beta, spec):
    """Sanity probe: moving s across a two-term sum swaps the summands."""
    n, s = spec.n, spec.s
    return ((alpha * s + beta) * s) % n == (beta * s + alpha) % n


@dataclass(frozen=True, init=False)
class GSequence:
    """A finite multiset of group elements, stored sorted by (eps, a)."""

    spec: GroupSpec
    elements: tuple

    def __init__(self, spec, elements):
        elems = []
        for g in elements:
            if isinstance(g, MetaElem):
                eps, a = g.eps, g.a
            else:
                eps, a = g
            elems.append(MetaElem(eps & 1, a % spec.n))
        elems.sort()
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "elements", tuple(elems))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def claimed_extremal_sequence(spec, t, r):
    """n - 1 copies of y^t (t a unit) plus one reflection-type element."""
    if gcd(t, spec.n) != 1:
        raise ValueError(f"t={t} must be a unit modulo {spec.n}")
    elems = [(0, t)] * (spec.n - 1) + [(1, r)]
    return GSequence(spec, elems)


def is_claimed_extremal_form(S):
    """Whether a length-n sequence matches the unit-power-plus-reflection form."""
    spec = S.spec
    if len(S.elements) != spec.n:
        raise WrongLengthError(
            f"form test needs length {spec.n}, got {len(S.elements)}"
        )
    plain = [g for g in S.elements if g.eps == 0]
    refl = [g for g in S.elements if g.eps == 1]
    if len(refl) != 1 or len(set(plain)) != 1:
        return False
    return gcd(plain[0].a, spec.n) == 1


@dataclass(frozen=True)
class OrderedCertificate:
    """A product-one witness: the chosen 1-based positions, sorted, plus the
    same positions in multiplication order."""

    positions: tuple
    order: tuple

    def holds_for(self, S):
        if not self.order or tuple(sorted(self.order)) != self.positions:
            return False
        if len(set(self.positions)) != len(self.positions):
            return False
        if self.positions[0] < 1 or self.positions[-1] > len(S.elements):
            return False
        acc = IDENTITY
        for p in self.order:
            acc = mul(acc, S.elements[p - 1], S.spec)
        return acc == IDENTITY


# The empty sequence: the empty plain sum in kinds 0 and 1.
_EMPTY_SLOTS = {(0, 0): 1, (1, 0): 1}


def _slot_append(base, state, eps, a, n, s):
    """Slot sums of base together with those of state after appending x^eps y^a.

    A state maps (kind, balance) to a bitset over Z_n; kinds 0 and 1 sit at
    balance 0.  Appending y^a rotates kind 0 by a and kinds 1 and 2 by both a
    and a*s.  Appending x y^a takes kinds 1 and 2 to kind 2, rotated by a
    with balance + 1 and by a*s with balance - 1.

    Ordering rule: a kind-2 sum at balance 0 is the a-part of the product
    that alternates its reflections s-slot, 1-slot, ending on a 1-slot, and
    puts the s-weighted plain factors just before the last reflection and the
    1-weighted ones after it.  At balance +1 one more 1-slot reflection leads.
    """
    mask = (1 << n) - 1
    a_s = a * s % n
    out = dict(base)
    for (kind, bal), bits in state.items():
        if eps == 0:
            moved = ((bits << a) | (bits >> (n - a))) & mask
            if kind:
                moved |= ((bits << a_s) | (bits >> (n - a_s))) & mask
            out[kind, bal] = out.get((kind, bal), 0) | moved
        elif kind:
            up, down = (2, bal + 1), (2, bal - 1)
            out[up] = out.get(up, 0) | ((bits << a) | (bits >> (n - a))) & mask
            out[down] = out.get(down, 0) | ((bits << a_s) | (bits >> (n - a_s))) & mask
    return out


def has_product_one_subsequence(S):
    """Smallest sub-multiset of S with a product-one ordering, or None.

    layers[t][j] is the slot-sum state of the t-element sub-multisets of the
    first j elements; the first t whose full layer holds 0 in kind 0 or in
    kind 2 at balance 0 is minimal.  Walking back through the prefix layers
    recovers the picks and their slots, which _slot_append's ordering rule
    turns into a multiplication order.
    """
    n, s = S.spec.n, S.spec.s
    elems = S.elements
    m = len(elems)
    layers = [[_EMPTY_SLOTS] * (m + 1)]
    for t in range(1, m + 1):
        prev = layers[-1]
        row = [{}]
        for j, g in enumerate(elems):
            row.append(_slot_append(row[j], prev[j], g.eps, g.a, n, s))
        layers.append(row)
        key = next((k for k in ((0, 0), (2, 0)) if row[m].get(k, 0) & 1), None)
        if key is not None:
            break
    else:
        return None

    # picks: (1-based position, eps, whether its slot is weighted s)
    picks = []
    value = 0
    j = m
    while t:
        j -= 1
        if (layers[t][j].get(key, 0) >> value) & 1:
            continue
        g = elems[j]
        kind, bal = key
        if g.eps == 0:
            # in kind 0 the weight-1 option always holds, so it comes first
            options = [(key, g.a, False), (key, g.a * s, True)]
        else:
            # kind 1 lives at balance 0 only; (1, bal -+ 1) is empty elsewhere
            options = [((k, bal - 1), g.a, False) for k in (1, 2)]
            options += [((k, bal + 1), g.a * s, True) for k in (1, 2)]
        prev = layers[t - 1][j]
        for key, shift, heavy in options:
            if (prev.get(key, 0) >> ((value - shift) % n)) & 1:
                break
        else:
            raise RuntimeError("slot-sum walk lost the trail")
        value = (value - shift) % n
        picks.append((j + 1, g.eps, heavy))
        t -= 1

    picks.reverse()
    heavy_refl = [p for p, eps, heavy in picks if eps and heavy]
    light_refl = [p for p, eps, heavy in picks if eps and not heavy]
    order = [p for pair in zip(heavy_refl, light_refl) for p in pair]
    order[-1:-1] = [p for p, eps, heavy in picks if not eps and heavy]
    order += [p for p, eps, heavy in picks if not eps and not heavy]
    return OrderedCertificate(positions=tuple(sorted(order)), order=tuple(order))


def _branch_explore(args):
    """Enumerate free multisets whose smallest candidate is the given root.

    The node state is the _slot_append state of the sequence so far.  A
    plain candidate y^v is blocked when -v lies in kind 0 or in kind 2 at
    balance 0 (an even, nonzero number of reflections); a reflection x y^v is
    blocked when its inverse's exponent -v*s lies in kind 2 at balance +1.
    Returns (deepest depth, hits at target length, nodes, completed).
    """
    n, s, root, target, max_nodes, deadline = args
    cands = [(0, a) for a in range(1, n)] + [(1, b) for b in range(n)]
    root_idx = cands.index(root)
    nodes = 0
    deepest = 0
    found = []
    seq = [root]

    def rec(last, depth, state):
        nonlocal nodes, deepest
        nodes += 1
        if nodes > max_nodes:
            raise _Abort
        if nodes % CLOCK_EVERY == 1 and time.monotonic() > deadline:
            raise _Abort
        if depth > deepest:
            deepest = depth
        if target is not None and depth == target:
            found.append(tuple(seq))
            return
        blocked_plain = state[0, 0] | state.get((2, 0), 0)
        blocked_refl = state.get((2, 1), 0)
        for i in range(last, len(cands)):
            eps, v = cands[i]
            if eps == 0:
                if (blocked_plain >> (n - v)) & 1:
                    continue
            elif (blocked_refl >> ((n - v * s) % n)) & 1:
                continue
            seq.append(cands[i])
            rec(i, depth + 1, _slot_append(state, state, eps, v, n, s))
            seq.pop()

    try:
        rec(root_idx, 1, _slot_append(_EMPTY_SLOTS, _EMPTY_SLOTS, *root, n, s))
        return deepest, found, nodes, True
    except _Abort:
        return deepest, found, nodes, False


# First elements are normalized to their minimal image under the exponent
# scalings y -> y^u (u a unit), which fix x; results are closed back under
# the same maps afterwards.
_REDUCTION_NOTE = (
    "first element minimized over the automorphisms (eps, a) -> (eps, u*a), "
    "u a unit; findings closed under the same maps"
)


def _roots(n):
    divs = [d for d in divisors(n) if d < n]
    return [(0, d) for d in divs] + [(1, 0)] + [(1, d) for d in divs]


def _explore(spec, target, budget):
    args = [
        (spec.n, spec.s, root, target, budget.max_nodes)
        for root in _roots(spec.n)
    ]
    results = _run_roots(_branch_explore, args, budget)
    found = [hit for r in results for hit in r[1]]
    max_depth = max(r[0] for r in results)
    nodes = sum(r[2] for r in results)
    exhaustive = all(r[3] for r in results)
    return found, max_depth, nodes, exhaustive


@dataclass(frozen=True)
class ClassificationReport:
    spec: GroupSpec
    length: int
    claimed: tuple
    other: tuple
    exhaustive: bool
    reduction: str
    nodes: int


def classify_extremal(spec, length, budget=None):
    """All product-one-free sequences of the given length, split into the
    unit-power-plus-reflection family and everything else."""
    if not isinstance(length, int) or isinstance(length, bool):
        raise ValueError(f"need an integer length, got {length!r}")
    if not 1 <= length <= 2 * spec.n - 1:
        raise ValueError(
            f"length must lie in [1, {2 * spec.n - 1}], got {length}"
        )
    budget = budget or SearchBudget()
    found, _, nodes, exhaustive = _explore(spec, length, budget)
    closed = set()
    us = units(spec.n)
    for multiset in found:
        for u in us:
            closed.add(
                tuple(sorted((eps, (u * a) % spec.n) for eps, a in multiset))
            )
    claimed, other = [], []
    for elems in sorted(closed):
        seq = GSequence(spec, elems)
        if length == spec.n and is_claimed_extremal_form(seq):
            claimed.append(seq)
        else:
            other.append(seq)
    report = ClassificationReport(
        spec=spec,
        length=length,
        claimed=tuple(claimed),
        other=tuple(other),
        exhaustive=exhaustive,
        reduction=_REDUCTION_NOTE,
        nodes=nodes,
    )
    if not exhaustive:
        raise BudgetExceededError(
            "classification truncated by the search budget", partial=report
        )
    return report


def small_davenport(spec, budget=None):
    """Length of the longest product-one-free sequence over the whole group."""
    budget = budget or SearchBudget()
    _, max_depth, nodes, exhaustive = _explore(spec, None, budget)
    if not exhaustive:
        raise BudgetExceededError(
            f"search truncated; the length is at least {max_depth}",
            partial=max_depth,
        )
    return max_depth


def format_element(g):
    """Compact word for one element: 1, y, y^3, x, xy, xy^3."""
    if g.eps == 0:
        if g.a == 0:
            return "1"
        return "y" if g.a == 1 else f"y^{g.a}"
    if g.a == 0:
        return "x"
    return "xy" if g.a == 1 else f"xy^{g.a}"


def format_sequence(S):
    return " ".join(format_element(g) for g in S.elements)
