"""Product-one-free sequences in the semidirect product C_n : C_2.

Elements are pairs (eps, a) standing for x^eps y^a, where y has order n and
the order-2 generator x conjugates y to y^s with s*s = 1 (mod n).  The
a-part of a product is the sum of a_i * s^(reflections after factor i), so
the ordered products of a multiset are slot sums: plain exponents weigh 1,
or freely 1 or s once any reflection is present, and m reflections fill
ceil(m/2) slots weighted 1 and floor(m/2) weighted s.  _SlotSums packs these
sums into one int of n-bit lanes, one lane per (kind, balance): kind 0 plain
sums, kind 1 plain sums with free weights, kind 2 sums holding a reflection,
balance the weight-1 minus weight-s reflection slots.  A cyclic rotation of
a product-one word is again product-one, so a sequence stays
product-one-free after appending g exactly when the inverse of g is not
such a sum.  The classification and small Davenport searches run that fold
through davenport._run_branch (_slot_space); the product-one detector runs
it once per pick count.  The searches' capacity counts realized products:
each append makes at least one more non-identity element an ordered
product of the chain, so the products the state already shows bound the
appends left out of the 2n - 1 non-identity elements.

The searches use two reductions.  Candidates come plain first, so after a
reflection only reflections follow, and they never read kind 0: the search
fold drops kind 0 there (the detector keeps it).  And the maps y -> y^u,
x -> x y^c, u a unit and c(1 + s) = 0 (mod n), are automorphisms, acting on
elements as (eps, a) -> (eps, u*a + eps*c).  The translations fix every
plain element, so past a plain prefix only x y^b with b below
n / gcd(n, 1 + s) needs to start the reflections; the searches run one
orbit at a time and close what they find under the same maps (_search).
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .davenport import SearchBudget, _generators, _run_roots
from .errors import BudgetExceededError, WrongLengthError
from .modring import _integer

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
        s = _integer(s, "s") % _integer(n, "n", 3)
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
        return MetaElem(_integer(eps, "eps") & 1,
                        _integer(a, "exponent") % self.n)

    def all_elements(self):
        return [MetaElem(e, a) for e in (0, 1) for a in range(self.n)]


def mul(g, h, spec):
    a = (g.a * (spec.s if h.eps else 1) + h.a) % spec.n
    return MetaElem(g.eps ^ h.eps, a)


def inverse(g, spec):
    if g.eps:
        return MetaElem(1, (-g.a * spec.s) % spec.n)
    return MetaElem(0, (-g.a) % spec.n)


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
            elems.append(spec.element(eps, a))
        elems.sort()
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "elements", tuple(elems))

    @classmethod
    def _of(cls, spec, elements):
        """A sequence built without validation.  The caller guarantees what
        __init__ would establish: elements is a tuple of MetaElems with eps
        in {0, 1} and a reduced modulo spec.n, sorted."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["spec"], fields["elements"] = spec, elements
        return self

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def claimed_extremal_sequence(spec, t, r):
    """n - 1 copies of y^t (t a unit) plus one reflection-type element."""
    if gcd(_integer(t, "t"), spec.n) != 1:
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
        try:
            for p in (*self.positions, *self.order):
                _integer(p, "position", 1)
        except ValueError:
            return False
        if not self.order or tuple(sorted(self.order)) != self.positions:
            return False
        if len(set(self.positions)) != len(self.positions):
            return False
        if self.positions[-1] > len(S.elements):
            return False
        acc = IDENTITY
        for p in self.order:
            acc = mul(acc, S.elements[p - 1], S.spec)
        return acc == IDENTITY


class _SlotSums:
    """Slot-sum states of C_n : C_2 packed into one int, and their fold.

    A state holds sums over Z_n in lanes of n bits: bit lane * n + v marks
    the sum v.  Lane 0 is kind 0 and lane 1 kind 1, both at balance 0; kind
    2 at balance b sits on lane 2 + 2b for b >= 0 and on lane 1 - 2b for
    b < 0, so a state's int grows only with the balances in use.  The empty
    sequence is the empty plain sum in kinds 0 and 1 (self.empty).

    Appending y^a rotates kind 0 by a and kinds 1 and 2 by both a and a*s.
    Appending x y^a takes kinds 1 and 2 to kind 2, rotated by a with balance
    + 1 and by a*s with balance - 1.

    Ordering rule: a kind-2 sum at balance 0 is the a-part of the product
    that alternates its reflections s-slot, 1-slot, ending on a 1-slot, and
    puts the s-weighted plain factors just before the last reflection and the
    1-weighted ones after it.  At balance +1 one more 1-slot reflection leads.
    """

    def __init__(self, n, s):
        self.n, self.s = n, s
        self.empty = 1 | 1 << n
        lane = (1 << n) - 1
        self.lane1, self.lane2, self.lane3 = lane << n, lane << 2 * n, lane << 3 * n
        self._widen(8)

    def _widen(self, span):
        # Masks over span lanes, rebuilt at twice the span a longer state
        # needs: (bits of the longest state an append takes, as appends move
        # lanes up by at most three; rot[a], filled by _rotation on first use
        # of a; every other lane from lane 1, 5, 2 and 4 on).
        n = self.n
        lane = (1 << n) - 1

        def lanes(first, step=2):
            return sum(lane << (i * n) for i in range(first, span, step))

        self.ones, self.rot = lanes(0, 1) // lane, [None] * (n + 1)
        self.masks = ((span - 3) * n, self.rot, lanes(1), lanes(5), lanes(2), lanes(4))
        return self.masks

    def _rotation(self, a):
        # the low n - a bits of every lane, which move up by a, and the low a
        # bits, where the top a bits land
        ones = self.ones
        masks = self.rot[a] = ((ones << (self.n - a)) - ones, (ones << a) - ones)
        return masks

    def append(self, base, state, eps, a):
        """base together with the sums of state after appending x^eps y^a."""
        n = self.n
        fits, rot, odd, odd5, even, even4 = self.masks
        if state.bit_length() > fits:
            fits, rot, odd, odd5, even, even4 = self._widen(
                2 * (-(-state.bit_length() // n) + 3))
        if eps:
            light = ((state & self.lane1) << 3 * n | (state & even) << 2 * n
                     | (state & self.lane3) >> n | (state & odd5) >> 2 * n)
            heavy = ((state & odd) << 2 * n | (state & self.lane2) << n
                     | (state & even4) >> 2 * n)
        else:
            light, heavy = state, state >> n << n
        # every lane of light rotates up by a, every lane of heavy by a*s
        a_s = a * self.s % n
        stay, wrap = rot[a] or self._rotation(a)
        stay_s, wrap_s = rot[a_s] or self._rotation(a_s)
        return (base | (light & stay) << a | (light >> (n - a)) & wrap
                | (heavy & stay_s) << a_s | (heavy >> (n - a_s)) & wrap_s)

    def has(self, state, kind, bal, v):
        """Whether state holds the sum v in (kind, bal); kind 1 has bal 0 only."""
        lane = kind if kind < 2 else 2 + 2 * bal if bal >= 0 else 1 - 2 * bal
        return (kind == 2 or not bal) and (state >> (lane * self.n + v % self.n)) & 1


# one per (n, s), shared by the searches and the detector
_slot_sums = lru_cache(maxsize=16)(_SlotSums)


def has_product_one_subsequence(S):
    """Smallest sub-multiset of S with a product-one ordering, or None.

    layers[t][j] is the slot-sum state of the t-element sub-multisets of the
    first j elements; the first t whose full layer holds 0 in kind 0 or in
    kind 2 at balance 0 is minimal.  Walking back through the prefix layers
    recovers the picks and their slots, which _SlotSums's ordering rule turns
    into a multiplication order.
    """
    n, s = S.spec.n, S.spec.s
    slots = _slot_sums(n, s)
    elems = S.elements
    m = len(elems)
    layers = [[slots.empty] * (m + 1)]
    for t in range(1, m + 1):
        prev = layers[-1]
        row = [0]
        for j, g in enumerate(elems):
            row.append(slots.append(row[j], prev[j], g.eps, g.a))
        layers.append(row)
        if row[m] & (1 | 1 << 2 * n):
            break
    else:
        return None

    # picks: (1-based position, eps, whether its slot is weighted s)
    picks = []
    kind, bal = (0, 0) if row[m] & 1 else (2, 0)
    value = 0
    j = m
    while t:
        j -= 1
        if slots.has(layers[t][j], kind, bal, value):
            continue
        g = elems[j]
        if g.eps == 0:
            # in kind 0 the weight-1 option always holds, so it comes first
            options = [(kind, bal, g.a, False), (kind, bal, g.a * s, True)]
        else:
            options = [(k, bal - 1, g.a, False) for k in (1, 2)]
            options += [(k, bal + 1, g.a * s, True) for k in (1, 2)]
        prev = layers[t - 1][j]
        for kind, bal, shift, heavy in options:
            if slots.has(prev, kind, bal, value - shift):
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


def _candidates(n):
    """Every element but 1: y^a at index a - 1, x y^b at index n - 1 + b."""
    return [(0, a) for a in range(1, n)] + [(1, b) for b in range(n)]


def _translation_step(n, s):
    """The least c > 0 with c(1 + s) = 0 (mod n): x -> x y^c, y -> y is an
    automorphism exactly for the multiples c of it."""
    return n // gcd(n, 1 + s)


def _slot_space(n, s):
    """The product-one-free search space for davenport._run_branch, over
    _SlotSums states without the empty sum.

    The fold is defined on candidate-ordered chains only, the chains that
    _run_branch builds: plain elements first, so no plain element follows a
    reflection.  A reflection append never reads kind 0, and nothing after
    it does either, so the fold clears kind 0 there: kind 0 is nonempty
    exactly while the chain is plain and nonempty, and states that differ
    only in kind 0 share one memo entry.  The product-one detector keeps
    kind 0.

    A form is (probe, (eps, v)), and the probe holds the candidate's inverse:
    a plain y^v is blocked when -v lies in kind 0 or in kind 2 at balance 0
    (an even, nonzero number of reflections), a reflection x y^v when -v*s
    lies in kind 2 at balance +1.  A reflection x y^v with v >= step
    (_translation_step) also carries all of kind 0, so it cannot be the
    first reflection after plain elements.  x y^b -> x y^(b + c), with c a
    multiple of step, is an automorphism that fixes every plain element, so
    it maps a chain with a plain prefix to one whose first reflection has
    b < step and the same prefix; _search closes the found chains under it.

    Capacity: let W(C) be the set of non-identity elements that some
    ordering of a nonempty sub-multiset of a product-one-free chain C
    multiplies to.  If Cg is product-one-free, W(Cg) holds W(C), g and
    W(C) * g.  Were it no larger than W(C), W(C) would hold g and be closed
    under right multiplication by g, so it would hold g^ord(g) = 1.  So
    every append adds an element to W, which has at most 2n - 1, and at
    most 2n - 1 - |W(C)| appends can follow C.  The bits of rep stand for
    distinct elements of W(C), so the popcount of state & rep is at most
    |W(C)|.  Lane 0 (kind 0) holds the a-parts v of the plain products y^v
    while the chain is plain.  Lane 2 (kind 2, balance 0) holds those of the
    products y^v of an even, nonzero number of reflections; it is empty
    until the first reflection, where the fold clears lane 0, so no y^v
    counts twice, and v = 0, the identity, counts in neither.  Lane 4 (kind
    2, balance +1) holds the a-parts v of the products x y^v, none the
    identity.  Every sum in lanes 2 and 4 is the a-part of a product of the
    chain by _SlotSums' ordering rule for balances 0 and +1, and lane 0's
    sums are products of commuting plain elements.
    """
    slots = _slot_sums(n, s)
    append, empty = slots.append, slots.empty
    lane0 = (1 << n) - 1
    nonzero = lane0 & ~1
    step = _translation_step(n, s)
    forms = [((1 << (4 * n + (-v * s) % n) | (lane0 if v >= step else 0)) if eps
              else 1 << (n - v) | 1 << (3 * n - v), (eps, v))
             for eps, v in _candidates(n)]
    drop_kind0 = ~lane0

    def fold(state, arg):
        eps, v = arg
        return append(state & drop_kind0 if eps else state, state | empty, eps, v)

    return fold, forms, 2 * n - 1, nonzero | nonzero << 2 * n | lane0 << 4 * n


def _action(n, s):
    """Generators of the automorphisms (eps, a) -> (eps, u*a + eps*c), u a
    unit and c a multiple of step = _translation_step, as permutations of
    _candidates: (u, 0) for u in _generators(n), and (1, step), which
    generate every (u, c) as (u, 0) after (1, c) is (u, u*c)."""
    maps = [(u, 0) for u in _generators(n)] + [(1, _translation_step(n, s))]
    return [[(u * a + eps * c) % n - 1 + eps * n for eps, a in _candidates(n)]
            for u, c in maps]


_REDUCTION_NOTE = (
    "first element minimized over the automorphisms (eps, a) -> "
    "(eps, u*a + eps*c), u a unit and c(1 + s) = 0; plain prefixes followed "
    "by x y^b with b < n / gcd(n, 1 + s) only; findings closed under the "
    "same maps"
)


def _search(spec, budget, length=None):
    """davenport._run_roots over _candidates, one orbit of the automorphisms
    (eps, a) -> (eps, u*a + eps*c) at a time, u a unit and c(1 + s) = 0
    (mod n), generated by _action.  The roots are y^d for d | n, d < n, and
    the x y^b with b least in its orbit, so b is below _translation_step(n,
    s); past a plain root, _slot_space's probe lets only such a b start the
    reflections.  The chains of `length`, listed when it is set, come back
    closed under the same maps."""
    n = spec.n
    return _run_roots(_slot_space, (n, spec.s), _action(n, spec.s),
                      2 * n - 1, budget or SearchBudget(), length is not None,
                      length)


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
    unit-power-plus-reflection family and everything else.  A truncated
    search raises BudgetExceededError with the ones found before the cut."""
    if not 1 <= _integer(length, "length") <= 2 * spec.n - 1:
        raise ValueError(f"length must lie in [1, {2 * spec.n - 1}], got {length}")
    _, chains, nodes, exhaustive = _search(spec, budget, length)
    # candidate order is (eps, a) order, so the nondecreasing chains come
    # out sorted
    cands = [MetaElem(eps, a) for eps, a in _candidates(spec.n)]
    claimed, other = [], []
    for chain in chains:
        seq = GSequence._of(spec, tuple(cands[i] for i in chain))
        if length == spec.n and is_claimed_extremal_form(seq):
            claimed.append(seq)
        else:
            other.append(seq)
    report = ClassificationReport(
        spec=spec, length=length, claimed=tuple(claimed), other=tuple(other),
        exhaustive=exhaustive, reduction=_REDUCTION_NOTE, nodes=nodes,
    )
    if not exhaustive:
        raise BudgetExceededError(
            "classification truncated by the search budget", partial=report
        )
    return report


def small_davenport(spec, budget=None):
    """Length of the longest product-one-free sequence over the whole group."""
    max_depth, _, _, exhaustive = _search(spec, budget)
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
