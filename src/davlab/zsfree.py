"""Weighted subsequence sums over Z_n and products of cyclic groups.

Reachable sums are folded as bitsets: an int with bit c set marks that the
group element encoded by c is a weighted sum of some nonempty subsequence.
Folding one more element x ORs in a cyclic rotation of the current set (plus
the empty sum) for every weighted image of x.  Every fold is two calls:
lift readies the set plus the empty sum for rotation, and step ORs its
rotations by x's image elements into a base, the set itself or a superset
of it.  So a set that several elements are folded onto is lifted once.  For
rank one the lifted set is doubled, B | B << n, so each rotation is one
right shift and one mask; for products it rotates each coordinate through
precomputed masks.

_Grid owns the element format (an int for Z_n, a coordinate tuple for a
product, weight entries alike): _as_element brings every element and weight
from outside to it, weights through _as_entry, which also rejects one that
is zero everywhere.  Past that and the oracle, code here and in davenport
reaches elements only through _Grid's methods.

Certificates come from the same lift and step: extract_certificate layers
them by pick count, so a shortest zero sum is found and read back without
recursion, at a cost that grows with the pick count times the length.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

from .errors import TooLargeError
from .modring import WeightSet, _integer, _positions

# Hard cap on the literal enumeration oracle; (|A|+1)^|S| choices get folded
# into two halves of at most (|A|+1)^8 sums each.
BRUTE_FORCE_CAP = 16


def _as_moduli(moduli):
    moduli = (moduli,) if isinstance(moduli, int) else tuple(moduli)
    if not moduli:
        raise ValueError("need at least one modulus")
    return tuple(_integer(m, "modulus", 2) for m in moduli)


class _Grid:
    """Bitset geometry and element format for Z_{m1} x ... x Z_{mk}.

    Codes are mixed radix with the first coordinate least significant, so
    code 0 is the zero element.  Rotating coordinate i by t splits on the
    pair rot[i][t], which rotation(i, t) builds on first use: the codes whose
    i-th coordinate is below m - t, which move up by t, and those below t,
    where the top t land.  code, element, times and images map elements
    (ints for rank one) to codes and back, with inline rank-one fast paths;
    step takes what images returns as is.  For rank one, lift doubles
    the set, D = B | B << n, and rotating B up by t is the window
    (D >> (n - t)) & mask: one right shift per image, and one mask for all
    of them.
    """

    __slots__ = ("moduli", "rank", "size", "mask", "strides", "rot")

    def __init__(self, moduli):
        self.moduli = moduli
        self.rank = len(moduli)
        size = 1
        strides = []
        for m in moduli:
            strides.append(size)
            size *= m
        self.size = size
        self.strides = tuple(strides)
        self.mask = (1 << size) - 1
        self.rot = [[None] * (m + 1) for m in moduli]

    def rotation(self, i, t):
        m, st = self.moduli[i], self.strides[i]
        # one bit at the start of every block of m * st codes; a mask of
        # fewer than m * st bits times it repeats in every block
        starts = self.mask // ((1 << (m * st)) - 1)
        masks = self.rot[i][t] = (((1 << ((m - t) * st)) - 1) * starts,
                                  ((1 << (t * st)) - 1) * starts)
        return masks

    def encode(self, vec):
        code = 0
        for x, st, m in zip(vec, self.strides, self.moduli):
            code += (x % m) * st
        return code

    def decode(self, code):
        vec = []
        for m in self.moduli:
            code, r = divmod(code, m)
            vec.append(r)
        return tuple(vec)

    def code(self, x):
        """The code of element x."""
        return x % self.size if self.rank == 1 else self.encode(x)

    def element(self, code):
        """The element with the given code."""
        return code if self.rank == 1 else self.decode(code)

    def times(self, a, x):
        """The code of a*x, for a weight entry or a scalar unit a."""
        if self.rank == 1:
            return a * x % self.size
        if isinstance(a, int):
            a = (a,) * self.rank
        return self.encode([u * v for u, v in zip(a, x)])

    def images(self, x, entries):
        """The distinct weighted images of element x, as elements in code
        order, so the zero image, if any, comes first."""
        if self.rank == 1:
            return tuple(sorted({a * x % self.size for a in entries}))
        return tuple(map(self.decode,
                         sorted({self.times(a, x) for a in entries})))

    def shift_vec(self, bits, vec):
        for i, t in enumerate(vec):
            if not t:
                continue
            stay, wrap = self.rot[i][t] or self.rotation(i, t)
            st = self.strides[i]
            bits = ((bits & stay) << t * st
                    | (bits >> (self.moduli[i] - t) * st) & wrap)
        return bits

    def lift(self, bits):
        """bits | {0} in the form step rotates: doubled for rank one."""
        base = bits | 1
        return base | base << self.size if self.rank == 1 else base

    def step(self, bits, lifted, images):
        """bits plus the translates of lifted, lift's form of some R | {0},
        by each element of images, the weighted images of one element as
        images gives them.  With bits = R it folds that element onto R; with
        a superset B of R it is B plus that fold."""
        if self.rank == 1:
            size = self.size
            for t in images:
                bits |= lifted >> (size - t)
            return bits & self.mask
        for vec in images:
            bits |= self.shift_vec(lifted, vec)
        return bits


@lru_cache(maxsize=None)
def _grid(moduli):
    return _Grid(moduli)


def _as_element(x, moduli, name):
    """x, an element or weight entry from outside, in _Grid's format, each
    coordinate checked by the integer rule and reduced; a non-tuple stands
    for (x,).  It builds no grid, so the oracle can use it at any size."""
    if type(x) is int and len(moduli) == 1:
        return x % moduli[0]
    vec = x if isinstance(x, tuple) else (x,)
    if len(vec) != len(moduli):
        raise ValueError(f"{name} {x!r} does not fit moduli {moduli}")
    vec = tuple(_integer(v, name) % m for v, m in zip(vec, moduli))
    return vec[0] if len(vec) == 1 else vec


@dataclass(frozen=True, init=False, slots=True)
class ZSequence:
    """A finite multiset over Z_n (rank one) or a product of cyclic groups.

    Elements are reduced and stored sorted; certificate indices refer to this
    stored order, counted from 1.
    """

    moduli: tuple
    elements: tuple

    def __init__(self, moduli, elements):
        moduli = _as_moduli(moduli)
        elems = sorted(_as_element(x, moduli, "element") for x in elements)
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "elements", tuple(elems))

    @classmethod
    def _of(cls, moduli, elements):
        """A sequence built without validation.  The caller guarantees
        what __init__ would establish: moduli came from _as_moduli, and
        elements is a sorted tuple of reduced elements (ints for rank one,
        coordinate tuples otherwise).  It sets the two slots through their
        descriptors, which skips the frozen __setattr__ and builds no
        instance dict."""
        self = object.__new__(cls)
        _set_moduli(self, moduli)
        _set_elements(self, elements)
        return self

    @property
    def n(self):
        if len(self.moduli) != 1:
            raise ValueError("n is only defined for rank-1 sequences")
        return self.moduli[0]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __reduce__(self):
        # pickle and copy through the checked constructor, whatever the
        # Python version's dataclasses does for frozen slotted classes
        return ZSequence, (self.moduli, self.elements)


_set_moduli = ZSequence.moduli.__set__
_set_elements = ZSequence.elements.__set__


def _as_entry(w, moduli):
    """Weight w from outside as an entry (a non-tuple broadcasts); one zero
    on every coordinate is rejected, as it makes every element a zero sum."""
    entry = _as_element(w if isinstance(w, tuple) else (w,) * len(moduli),
                        moduli, "weight")
    if entry in (0, (0,) * len(moduli)):
        raise ValueError(f"weight {w!r} acts as zero on every element")
    return entry


def _weight_entries(weights, moduli):
    """The sorted distinct entries of weights, each read by _as_entry; a
    WeightSet is accepted when every modulus equals its n."""
    if isinstance(weights, WeightSet):
        if any(m != weights.n for m in moduli):
            raise ValueError(
                f"weight set over Z_{weights.n} does not fit moduli {moduli}"
            )
        weights = weights.weights
    entries = {_as_entry(w, moduli) for w in weights}
    if not entries:
        raise ValueError("weight collection must be nonempty")
    return tuple(sorted(entries))


@dataclass(frozen=True)
class ReachableSet:
    """All weighted sums of nonempty subsequences, as a bitset over codes."""

    moduli: tuple
    bits: int

    def __contains__(self, value):
        value = _as_element(value, self.moduli, "element")
        return bool((self.bits >> _grid(self.moduli).code(value)) & 1)

    def __len__(self):
        return self.bits.bit_count()

    @property
    def has_zero(self):
        return bool(self.bits & 1)

    def values(self):
        grid = _grid(self.moduli)
        out = []
        bits = self.bits
        while bits:
            code = (bits & -bits).bit_length() - 1
            out.append(grid.element(code))
            bits &= bits - 1
        return out


def reachable_sums(S, weights):
    """Fold the reachable-sum bitset of S under the given weights."""
    grid = _grid(S.moduli)
    entries = _weight_entries(weights, S.moduli)
    bits = 0
    for x in S.elements:
        bits = grid.step(bits, grid.lift(bits), grid.images(x, entries))
    return ReachableSet(S.moduli, bits)


def has_weighted_zero_sum(S, weights):
    """True iff some nonempty subsequence of S has a weighted sum of zero."""
    return reachable_sums(S, weights).has_zero


def brute_force_oracle(S, weights):
    """Decide weighted zero-sum existence by literal enumeration.

    Deliberately shares nothing with the bitset fold: every per-element
    choice (skip, or apply one weight) is enumerated outright, with the two
    halves of the sequence meeting in the middle.
    """
    m = len(S.elements)
    if m > BRUTE_FORCE_CAP:
        raise TooLargeError(
            f"oracle is capped at {BRUTE_FORCE_CAP} elements, got {m}"
        )
    if m == 0:
        return False
    entries = _weight_entries(weights, S.moduli)
    moduli = S.moduli
    rank = len(moduli)

    if rank == 1:
        n = moduli[0]
        zero = 0

        def options(x):
            return [None] + [(a * x) % n for a in entries]

        def add(u, v):
            return (u + v) % n

        def negate(v):
            return (n - v) % n

    else:
        zero = (0,) * rank

        def options(x):
            opts = [None]
            for a in entries:
                opts.append(
                    tuple((ai * xi) % mi for ai, xi, mi in zip(a, x, moduli))
                )
            return opts

        def add(u, v):
            return tuple((ui + vi) % mi for ui, vi, mi in zip(u, v, moduli))

        def negate(v):
            return tuple((mi - vi) % mi for vi, mi in zip(v, moduli))

    def half_sums(part):
        out = set()
        for picks in iter_product(*(options(x) for x in part)):
            total = zero
            used = False
            for p in picks:
                if p is not None:
                    total = add(total, p)
                    used = True
            if used:
                out.add(total)
        return out

    cut = (m + 1) // 2
    left = half_sums(S.elements[:cut])
    right = half_sums(S.elements[cut:])
    if zero in left or zero in right:
        return True
    return any(negate(v) in left for v in right)


@dataclass(frozen=True)
class Certificate:
    """A weighted zero sum: 1-based positions into the stored sequence order,
    paired with the weight applied at each position."""

    indices: tuple
    weights: tuple

    def holds_for(self, S, weights=None):
        """True iff this is a weighted zero sum of S.  With weights, every
        weight applied must be one of them; without, any weight that is not
        zero on every coordinate will do.  A malformed certificate, indices
        not a sequence of positions (modring._positions) included, is
        False."""
        moduli = S.moduli
        try:
            indices = _positions(self.indices, "indices")
            applied = [_as_entry(w, moduli) for w in self.weights]
        except (TypeError, ValueError):
            return False
        if not indices or len(indices) != len(self.weights):
            return False
        if any(b <= a for a, b in zip(indices, indices[1:])):
            return False
        if indices[-1] > len(S.elements):
            return False
        if weights is not None:
            allowed = set(_weight_entries(weights, moduli))
            if any(w not in allowed for w in applied):
                return False
        grid = _grid(moduli)
        terms = [grid.decode(grid.times(a, S.elements[i - 1]))
                 for i, a in zip(indices, applied)]
        return grid.encode(map(sum, zip(*terms))) == 0


def extract_certificate(S, weights):
    """Shortest weighted zero sum of S, or None when S is zero-sum-free.

    Among the certificates of minimal pick count the result has the
    lexicographically smallest index tuple, then the smallest weight tuple.

    Everything runs on lift and step.  rows[r][j] holds the negated
    nonempty sums of at most r picks from positions >= j (counted from 0),
    so the first r with 0 in rows[r][0] is the fewest pick count t.  It is
    rows[r][j + 1] stepped from the lift of rows[r - 1][j + 1] by the
    negated images of x_j: rows[r][j + 1] contains rows[r - 1][j + 1], so
    that adds the fold of -x_j onto rows[r - 1][j + 1] to it.  Indices
    are taken smallest first: with `left` picks still to take, position j is
    taken when the fold of x_j onto the picks taken so far meets
    rows[left - 1][j + 1] or 0.  Weights are then fixed smallest first, pick
    by pick, against the fold of the negated images of the later picks.

    Both tests ask about "at most" counts and subset sums, yet they answer
    the exact question.  A hit that leaves out a pick taken so far or the
    candidate, or that uses fewer later picks than are left, is a nonempty
    zero sum of fewer than t picks, which the minimality of t rules out.  So
    every hit extends the choices made so far to a zero sum of exactly t
    picks, and the first index (weight) that hits is the smallest that any
    shortest certificate continues with.
    """
    grid = _grid(S.moduli)
    entries = _weight_entries(weights, S.moduli)
    elems = S.elements
    m = len(elems)
    images = [grid.images(x, entries) for x in elems]
    negated = [grid.images(grid.element(grid.times(-1, x)), entries)
               for x in elems]

    rows = [[0] * (m + 1)]
    while not rows[-1][0] & 1:
        if len(rows) > m:
            return None
        prev = rows[-1]
        row = [0] * (m + 1)
        for j in range(m - 1, -1, -1):
            row[j] = grid.step(row[j + 1], grid.lift(prev[j + 1]), negated[j])
        rows.append(row)
    t = len(rows) - 1

    picks = []
    sums = 0
    lifted = grid.lift(sums)
    j = 0
    while len(picks) < t:
        trial = grid.step(sums, lifted, images[j])
        if trial & (rows[t - len(picks) - 1][j + 1] | 1):
            picks.append(j)
            sums = trial
            lifted = grid.lift(sums)
        j += 1

    # rests[k]: negated sums of the picks after the k-th
    rests = [0]
    for j in reversed(picks[1:]):
        rests.append(grid.step(rests[-1], grid.lift(rests[-1]), negated[j]))
    rests.reverse()
    applied = []
    sums = 0
    for j, rest in zip(picks, rests):
        lifted = grid.lift(sums)
        for a in entries:
            trial = grid.step(sums, lifted, grid.images(elems[j], (a,)))
            if trial & (rest | 1):
                break
        else:
            raise RuntimeError("certificate extraction lost a feasible pick")
        applied.append(a)
        sums = trial
    return Certificate(
        indices=tuple(j + 1 for j in picks), weights=tuple(applied)
    )
