"""Product-one-free sequences in the semidirect product C_n : C_2.

Elements are pairs (eps, a) standing for x^eps y^a, where y has order n and
the order-2 generator x conjugates y to y^s with s*s = 1 (mod n).  A cyclic
rotation of a product-one word is again product-one, so a sequence S stays
product-one-free after appending g exactly when the inverse of g is not an
ordered product of any sub-multiset of S.  Those ordered products decompose
by the parity of reflection-type factors: plain-type exponents pick up a
free sign s^e once any reflection is present, and the reflection exponents
split into ceil(m/2) slots weighted 1 and floor(m/2) slots weighted s.  The
search maintains exactly these slot sums as bitsets, which makes the
append-feasibility test one bit probe per candidate.
"""

import time
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .davenport import CLOCK_EVERY, SearchBudget, _Abort, _run_roots
from .errors import BudgetExceededError, TooLargeError, WrongLengthError
from .modring import divisors, units

# Hard cap for the ordered-product subset table (2**m bitsets).
SUBSET_DP_CAP = 24


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


def has_product_one_subsequence(S):
    """Smallest sub-multiset of S with a product-one ordering, or None.

    Ordered-product sets are folded per subset as bitsets over the 2n group
    elements, visiting subsets by size so the first hit is minimal; the
    ordering is then reconstructed by peeling last factors.
    """
    spec = S.spec
    m = len(S.elements)
    if m > SUBSET_DP_CAP:
        raise TooLargeError(
            f"ordered-product table is capped at {SUBSET_DP_CAP} elements, got {m}"
        )
    if m == 0:
        return None
    n = spec.n
    width = 2 * n
    decode = spec.all_elements()

    def enc(g):
        return g.eps * n + g.a

    # Right multiplication by g as byte-sliced lookup tables.
    tables = {}
    n_bytes = (width + 7) // 8
    for g in set(S.elements):
        perm = [enc(mul(decode[v], g, spec)) for v in range(width)]
        tbl = []
        for bi in range(n_bytes):
            row = [0] * 256
            for pat in range(1, 256):
                low = pat & -pat
                v = 8 * bi + low.bit_length() - 1
                row[pat] = row[pat ^ low]
                if v < width:
                    row[pat] |= 1 << perm[v]
            tbl.append(row)
        tables[g] = tbl

    def rmul(bits, g):
        tbl = tables[g]
        out = 0
        bi = 0
        while bits:
            byte = bits & 255
            if byte:
                out |= tbl[bi][byte]
            bits >>= 8
            bi += 1
        return out

    if width <= 64 and m > 18:
        from array import array

        prod = array("Q", bytes(8 << m))
    else:
        prod = {}
    elems = S.elements
    singles = [1 << enc(g) for g in elems]
    found = None
    for r in range(1, m + 1):
        for combo in combinations(range(m), r):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if r == 1:
                val = singles[combo[0]]
            else:
                val = 0
                for i in combo:
                    val |= rmul(prod[mask ^ (1 << i)], elems[i])
            prod[mask] = val
            if val & 1:
                found = mask
                break
        if found is not None:
            break
    if found is None:
        return None

    # Peel the last factor: a prefix of target ending in g_i must multiply
    # to target * g_i^{-1}.
    order = []
    target = IDENTITY
    rest = found
    while rest.bit_count() > 1:
        probe = rest
        while probe:
            low = probe & -probe
            i = low.bit_length() - 1
            want = mul(target, inverse(elems[i], spec), spec)
            if (prod[rest ^ low] >> enc(want)) & 1:
                order.append(i)
                target = want
                rest ^= low
                break
            probe ^= low
        else:
            raise RuntimeError("ordered-product reconstruction lost the trail")
    last = rest.bit_length() - 1
    if elems[last] != target:
        raise RuntimeError("ordered-product reconstruction lost the trail")
    order.append(last)
    order.reverse()
    in_order = tuple(i + 1 for i in order)
    return OrderedCertificate(positions=tuple(sorted(in_order)), order=in_order)


def _branch_explore(args):
    """Enumerate free multisets whose smallest candidate is the given root.

    State per node: P = plain subset sums of eps=0 exponents, W = the same
    with each term freely multiplied by s, D[(c1, c2)] = sums of eps=1
    exponents split into c1 unweighted and c2 s-weighted slots.  A candidate
    survives iff the bit of its inverse is absent from the matching parity
    mask.  Returns (deepest depth, hits at target length, nodes, completed).
    """
    n, s, root, target, max_nodes, deadline = args
    mask_all = (1 << n) - 1
    cands = [(0, a) for a in range(1, n)] + [(1, b) for b in range(n)]
    root_idx = cands.index(root)
    nodes = 0
    deepest = 0
    found = []
    seq = [root]

    def rot(bits, t):
        if not t:
            return bits
        return ((bits << t) | (bits >> (n - t))) & mask_all

    def mink(x, y):
        if not x or not y:
            return 0
        if x.bit_count() < y.bit_count():
            x, y = y, x
        out = 0
        while y:
            low = y & -y
            out |= rot(x, low.bit_length() - 1)
            y ^= low
        return out

    P = 1
    W = 1
    D = {(0, 0): 1}
    eps0, v0 = root
    if eps0 == 0:
        P |= rot(P, v0)
        W = W | rot(W, v0) | rot(W, (v0 * s) % n)
    else:
        D = {(0, 0): 1, (1, 0): 1 << v0, (0, 1): 1 << ((v0 * s) % n)}

    def rec(last, depth):
        nonlocal nodes, deepest, P, W, D
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
        odd = 0
        even = 0
        for (c1, c2), bits in D.items():
            if c1 == c2 + 1:
                odd |= bits
            elif c1 == c2 and c1:
                even |= bits
        blocked_plain = P | mink(even, W)
        blocked_refl = mink(odd, W)
        for i in range(last, len(cands)):
            eps, v = cands[i]
            if eps == 0:
                if (blocked_plain >> (n - v)) & 1:
                    continue
                save_p, save_w = P, W
                seq.append(cands[i])
                P |= rot(P, v)
                W = W | rot(W, v) | rot(W, (v * s) % n)
                rec(i, depth + 1)
                P, W = save_p, save_w
                seq.pop()
            else:
                if (blocked_refl >> ((n - v * s) % n)) & 1:
                    continue
                save_d = D
                seq.append(cands[i])
                vs = (v * s) % n
                nxt = dict(save_d)
                for (c1, c2), bits in save_d.items():
                    k1 = (c1 + 1, c2)
                    nxt[k1] = nxt.get(k1, 0) | rot(bits, v)
                    k2 = (c1, c2 + 1)
                    nxt[k2] = nxt.get(k2, 0) | rot(bits, vs)
                D = nxt
                rec(i, depth + 1)
                D = save_d
                seq.pop()

    try:
        rec(root_idx, 1)
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
