"""Product-one-free sequences in the semidirect product C_n : C_2.

Elements are pairs (eps, a) standing for x^eps y^a, where y has order n and
the order-2 generator x conjugates y to y^s with s*s = 1 (mod n).  The
a-part of a product is the sum of a_i * s^(reflections after factor i), so
the ordered products of a multiset are slot sums: plain exponents weigh 1,
or freely 1 or s once any reflection is present, and m reflections fill
ceil(m/2) slots weighted 1 and floor(m/2) weighted s.  _SlotSums packs these
sums into one int of lanes, one lane per (kind, balance): kind 0 plain sums,
kind 1 plain sums with free weights, kind 2 sums holding a reflection,
balance the weight-1 minus weight-s reflection slots.  Each lane is 2n bits
with its n sums in the low half, so an append turns a lane by one shift per
weight, as for Z_n sets.  A cyclic shift of a product-one word is again
product-one, so a sequence stays product-one-free after appending g exactly
when the inverse of g is not such a sum.  The classification and small
Davenport searches run that fold through davenport._run_branch
(_slot_space); the product-one detector runs it once per pick count.  The
searches' capacity counts realized products:
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
from typing import NamedTuple

from .davenport import _generators, _run_roots
from .errors import BudgetExceededError, WrongLengthError
from .modring import _integer, _positions


class MetaElem(NamedTuple):
    """The element x^eps y^a as its pair (eps, a)."""

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
    """A finite multiset of group elements, given as (eps, a) pairs (a
    MetaElem is one) and stored as sorted MetaElems."""

    spec: GroupSpec
    elements: tuple

    def __init__(self, spec, elements):
        elems = []
        for g in elements:
            try:
                eps, a = g
            except (TypeError, ValueError):
                raise ValueError(
                    f"element {g!r} is not an (eps, a) pair") from None
            elems.append(spec.element(eps, a))
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "elements", tuple(sorted(elems)))

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
    same positions in multiplication order.  holds_for reads both as
    modring._positions does, so a set, which fixes no order, is malformed."""

    positions: tuple
    order: tuple

    def holds_for(self, S):
        try:
            positions = _positions(self.positions, "positions")
            order = _positions(self.order, "order")
        except (TypeError, ValueError):
            return False
        if not order or tuple(sorted(order)) != positions:
            return False
        if len(set(positions)) != len(positions):
            return False
        if positions[-1] > len(S.elements):
            return False
        acc = IDENTITY
        for p in order:
            acc = mul(acc, S.elements[p - 1], S.spec)
        return acc == IDENTITY


class _SlotSums:
    """Slot-sum states of C_n : C_2 packed into one int, and their fold.

    A state holds sums over Z_n in lanes of 2n bits, the n sums in the low
    half: bit lane(kind, bal) + v marks the sum v.  Lane 0 is kind 0 and
    lane 1 kind 1, both at balance 0; kind 2 at balance b is lane 2 + 2b for
    b >= 0 and lane 1 - 2b for b < 0, so a state's int grows only with the
    balances in use.  The empty sequence is the empty plain sum in kinds 0
    and 1 (self.empty).

    Appending y^a rotates kind 0 by a and kinds 1 and 2 by both a and a*s.
    Appending x y^a takes kinds 1 and 2 to kind 2, rotated by a with balance
    + 1 and by a*s with balance - 1.  The fold is two methods: lanes picks
    and moves the lanes an append reads, which depends only on eps, and
    rotate turns them by a and a*s onto a base.  As for Z_n sets, lanes
    first doubles every lane into its upper half, so rotate is one right
    shift per weight and one mask.  The product-one detector calls both per
    append; the search (_slot_space) calls lanes once per state and rotate
    once per child.

    Ordering rule: a kind-2 sum at balance 0 is the a-part of the product
    that alternates its reflections s-slot, 1-slot, ending on a 1-slot, and
    puts the s-weighted plain factors just before the last reflection and the
    1-weighted ones after it.  At balance +1 one more 1-slot reflection leads.
    """

    def __init__(self, n, s):
        self.n, self.s = n, s
        self.empty = 1 | 1 << self.lane(1, 0)
        self._widen(8)

    def _widen(self, span):
        # Masks over span lanes, rebuilt at twice the span a longer state
        # needs: fits, the bits of the longest state an append takes, as
        # appends move lanes up by at most three; low, the low half of every
        # lane, which rotate keeps; lanes 1, 2 and 3, and every other lane
        # from lane 1, 5, 2 and 4 on.  Masks only grow, so rotate with the
        # current ones fits lanes taken at any earlier span.
        width = 2 * self.n
        lane = (1 << width) - 1

        def every(first, step=2, mask=lane):
            return sum(mask << i * width for i in range(first, span, step))

        self.fits = (span - 3) * width
        self.low = every(0, 1, (1 << self.n) - 1)
        self.lane1, self.lane2, self.lane3 = (lane << i * width for i in (1, 2, 3))
        self.odd, self.odd5, self.even, self.even4 = (
            every(1), every(5), every(2), every(4))

    def lane(self, kind, bal):
        """The first bit of the lane of (kind, bal)."""
        return 2 * self.n * (kind if kind < 2 else 2 + 2 * bal if bal >= 0
                             else 1 - 2 * bal)

    def lanes(self, state, eps):
        """The lanes of state that appending x^eps y^a rotates, doubled and
        moved to where the append puts them: (light, heavy), rotated by a
        and by a*s (rotate).  The masks widen first if state needs more
        lanes."""
        width = 2 * self.n
        if state.bit_length() > self.fits:
            self._widen(2 * (-(-state.bit_length() // width) + 3))
        d = state | state << self.n
        if not eps:
            return d, d >> width << width
        light = ((d & self.lane1) << 3 * width | (d & self.even) << 2 * width
                 | (d & self.lane3) >> width | (d & self.odd5) >> 2 * width)
        heavy = ((d & self.odd) << 2 * width | (d & self.lane2) << width
                 | (d & self.even4) >> 2 * width)
        return light, heavy

    def rotate(self, base, lanes, a):
        """base together with the lanes (light, heavy) rotated, every lane of
        light up by a and every lane of heavy by a*s: with lanes(state,
        eps), the sums after appending x^eps y^a to state.  Each lane's
        window n - a bits down holds its sums turned by a."""
        n = self.n
        light, heavy = lanes
        return base | (light >> (n - a) | heavy >> (n - a * self.s % n)) & self.low

    def has(self, state, kind, bal, v):
        """Whether state holds the sum v in (kind, bal); kind 1 has bal 0 only."""
        bit = self.lane(kind, bal) + v % self.n
        return (kind == 2 or not bal) and (state >> bit) & 1


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
    lanes, rotate = slots.lanes, slots.rotate
    elems = S.elements
    m = len(elems)
    layers = [[slots.empty] * (m + 1)]
    hit = 1 | 1 << slots.lane(2, 0)
    for t in range(1, m + 1):
        prev = layers[-1]
        row = [0]
        for j, (eps, a) in enumerate(elems):
            row.append(rotate(row[j], lanes(prev[j], eps), a))
        layers.append(row)
        if row[m] & hit:
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
    return [MetaElem(0, a) for a in range(1, n)] + [MetaElem(1, b) for b in range(n)]


def _translation_step(n, s):
    """The least c > 0 with c(1 + s) = 0 (mod n): x -> x y^c, y -> y is an
    automorphism exactly for the multiples c of it."""
    return n // gcd(n, 1 + s)


def _slot_space(n, s):
    """The product-one-free search space for davenport._run_branch, over
    _SlotSums states without the empty sum: (lift, step, forms, cap_base,
    rep).  lift(state) does a state's share of the fold once for all its
    children: it adds the empty sum, and for each eps takes the append's
    base and its light and heavy lanes (_SlotSums.lanes).  step(state,
    lifted, (eps, v)) only rotates them by v and v*s (_SlotSums.rotate).
    Lanes are numbered as in _SlotSums, and the probes, the first
    reflection's move and rep take each lane's first bit from _SlotSums.lane.

    The fold is defined on candidate-ordered chains only, the chains that
    _run_branch builds: plain elements first, so no plain element follows a
    reflection.  A reflection append never reads kind 0, and nothing after
    it does either, so the fold clears kind 0 there, once the capacity has
    what it needs of it (below): kind 0 is nonempty exactly while the chain
    is plain and nonempty.  The product-one detector keeps kind 0.

    A form is (probe, (eps, v)), and the probe holds the candidate's inverse:
    a plain y^v is blocked when -v lies in kind 0 or in kind 2 at balance 0
    (an even, nonzero number of reflections), a reflection x y^v when -v*s
    lies in kind 2 at balance +1.  A reflection x y^v with v >= stride
    (_translation_step) also carries all of kind 0, so it cannot be the
    first reflection after plain elements.  x y^b -> x y^(b + c), with c a
    multiple of stride, is an automorphism that fixes every plain element,
    so it maps a chain with a plain prefix to one whose first reflection
    has b < stride and the same prefix; _search closes the found chains
    under it.

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
    products y^v of an even, nonzero number of reflections, and from the
    first reflection on also the plain ones: a reflection append moves lane
    0's nonzero sums into lane 2 as it clears lane 0, so the plain products
    the chain still realizes keep counting.  Only the first reflection after
    a plain prefix finds lane 0 nonempty, so the others skip the move.  Each
    y^v thus counts in one lane, and v = 0, the identity, in neither.  Lane
    4 (kind 2, balance +1) holds the a-parts v of the products x y^v, none
    the identity.  Every other sum in lanes 2 and 4 is the a-part of a
    product of the chain by _SlotSums' ordering rule for balances 0 and +1,
    and lane 0's sums are products of commuting plain elements.  The moved
    sums change no transition: after a reflection only reflections follow,
    whose appends read lane 2 together with lane 1, and lane 1 already holds
    every plain sum of lane 0; a reflection's probe reads lanes 0 and 4,
    never lane 2.
    """
    slots = _slot_sums(n, s)
    lanes, rotate, empty = slots.lanes, slots.rotate, slots.empty
    lane0 = (1 << n) - 1
    nonzero = lane0 & ~1
    stride = _translation_step(n, s)
    start2, start4 = slots.lane(2, 0), slots.lane(2, 1)
    forms = [((1 << (start4 + (-v * s) % n) | (lane0 if v >= stride else 0))
              if eps else 1 << (n - v) | 1 << (start2 + n - v), (eps, v))
             for eps, v in _candidates(n)]
    drop_kind0 = ~lane0

    def lift(state):
        full = state | empty
        if state & lane0:
            moved = state & drop_kind0 | (state & nonzero) << start2
        else:
            moved = state
        return (state, lanes(full, 0)), (moved, lanes(full, 1))

    def step(state, lifted, arg):
        eps, v = arg
        base, taken = lifted[eps]
        return rotate(base, taken, v)

    return (lift, step, forms, 2 * n - 1,
            nonzero | nonzero << start2 | lane0 << start4)


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
                      2 * n - 1, budget, length is not None, length)


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
    cands = _candidates(spec.n)
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
