"""Weighted subsequence sums over Z_n and products of cyclic groups.

Reachable sums are folded as bitsets: an int with bit c set marks that the
group element encoded by c is a weighted sum of some nonempty subsequence.
Folding one more element x ORs in a cyclic rotation of the current set (plus
the empty sum) for every weighted image of x.  For rank one the rotation is a
plain bit rotation; for products it rotates each coordinate through
precomputed masks.

Certificates come from the same fold: extract_certificate layers it by pick
count, so a shortest zero sum is found and read back without recursion, at
a cost that grows with the pick count times the length.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

from .errors import TooLargeError
from .modring import WeightSet, _integer

# Hard cap on the literal enumeration oracle; (|A|+1)^|S| choices get folded
# into two halves of at most (|A|+1)^8 sums each.
BRUTE_FORCE_CAP = 16


def _as_moduli(moduli):
    moduli = (moduli,) if isinstance(moduli, int) else tuple(moduli)
    if not moduli:
        raise ValueError("need at least one modulus")
    return tuple(_integer(m, "modulus", 2) for m in moduli)


class _Grid:
    """Bitset geometry for Z_{m1} x ... x Z_{mk}.

    Codes are mixed radix with the first coordinate least significant, so
    code 0 is the zero element.  _lt[i][c] masks the codes whose i-th
    coordinate is below c; coordinate-wise rotation splits on it.
    """

    __slots__ = ("moduli", "rank", "size", "mask", "strides", "_lt")

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
        if self.rank == 1:
            self._lt = None
            return
        lt = []
        for i, m in enumerate(moduli):
            st = strides[i]
            block = m * st
            row = []
            for c in range(m + 1):
                unit = (1 << (c * st)) - 1
                full = 0
                for b in range(0, size, block):
                    full |= unit << b
                row.append(full)
            lt.append(row)
        self._lt = lt

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

    def shift_vec(self, bits, vec):
        for i, t in enumerate(vec):
            if not t:
                continue
            m = self.moduli[i]
            st = self.strides[i]
            keep = self._lt[i][m - t]
            bits = ((bits & keep) << (t * st)) | (
                (bits & self.mask & ~keep) >> ((m - t) * st)
            )
        return bits

    def fold(self, bits, shifts):
        """Reachable sums after appending one element: bits plus every
        translate of bits | {0} by a weighted image of the element, given as
        codes (rank one) or coordinate vectors (products)."""
        base = bits | 1
        if self.rank == 1:
            size, mask = self.size, self.mask
            for t in shifts:
                bits |= ((base << t) | (base >> (size - t))) & mask
        else:
            for vec in shifts:
                bits |= self.shift_vec(base, vec)
        return bits


@lru_cache(maxsize=None)
def _grid(moduli):
    return _Grid(moduli)


@dataclass(frozen=True, init=False)
class ZSequence:
    """A finite multiset over Z_n (rank one) or a product of cyclic groups.

    Elements are reduced and stored sorted; certificate indices refer to this
    stored order, counted from 1.
    """

    moduli: tuple
    elements: tuple

    def __init__(self, moduli, elements):
        moduli = _as_moduli(moduli)
        rank = len(moduli)
        elems = []
        for x in elements:
            if rank == 1:
                if isinstance(x, tuple):
                    if len(x) != 1:
                        raise ValueError(f"element {x!r} does not fit rank 1")
                    x = x[0]
                elems.append(_integer(x, "element") % moduli[0])
            else:
                if not isinstance(x, tuple) or len(x) != rank:
                    raise ValueError(
                        f"element {x!r} does not fit moduli {moduli}"
                    )
                elems.append(
                    tuple(_integer(v, "element") % m for v, m in zip(x, moduli)))
        elems.sort()
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "elements", tuple(elems))

    @classmethod
    def _of(cls, moduli, elements):
        """A sequence built without validation.  The caller guarantees
        what __init__ would establish: moduli came from _as_moduli, and
        elements is a sorted tuple of reduced elements (ints for rank one,
        coordinate tuples otherwise).  Writing the instance dict directly
        costs half as much as object.__setattr__."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["moduli"], fields["elements"] = moduli, elements
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


def _as_entry(w, moduli):
    rank = len(moduli)
    if isinstance(w, tuple):
        if len(w) != rank:
            raise ValueError(f"weight {w!r} does not fit moduli {moduli}")
        vec = tuple(_integer(x, "weight") % m for x, m in zip(w, moduli))
    else:
        vec = tuple(_integer(w, "weight") % m for m in moduli)
    return vec[0] if rank == 1 else vec


def _weight_entries(weights, moduli):
    """Canonical weight tuple: ints for rank 1, coordinate tuples otherwise.

    Scalar weights broadcast over all coordinates; a WeightSet is accepted
    when every modulus equals its n.  Weights acting as zero everywhere are
    rejected (they would make every element an instant zero sum).
    """
    rank = len(moduli)
    if isinstance(weights, WeightSet):
        if any(m != weights.n for m in moduli):
            raise ValueError(
                f"weight set over Z_{weights.n} does not fit moduli {moduli}"
            )
        weights = weights.weights
    entries = set()
    for w in weights:
        entry = _as_entry(w, moduli)
        if not (entry if rank == 1 else any(entry)):
            raise ValueError(f"weight {w!r} acts as zero on every element")
        entries.add(entry)
    if not entries:
        raise ValueError("weight collection must be nonempty")
    return tuple(sorted(entries))


def _element_images(grid, x, entries):
    """Distinct weighted images of one element: (codes, shift forms)."""
    if grid.rank == 1:
        n = grid.size
        codes = sorted({(a * x) % n for a in entries})
        return tuple(codes), tuple(codes)
    seen = {}
    for a in entries:
        vec = tuple((ai * xi) % m for ai, xi, m in zip(a, x, grid.moduli))
        seen[grid.encode(vec)] = vec
    codes = sorted(seen)
    return tuple(codes), tuple(seen[c] for c in codes)


@dataclass(frozen=True)
class ReachableSet:
    """All weighted sums of nonempty subsequences, as a bitset over codes."""

    moduli: tuple
    bits: int

    def __contains__(self, value):
        grid = _grid(self.moduli)
        code = value % grid.size if grid.rank == 1 else grid.encode(value)
        return bool((self.bits >> code) & 1)

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
            out.append(code if grid.rank == 1 else grid.decode(code))
            bits &= bits - 1
        return out


def reachable_sums(S, weights):
    """Fold the reachable-sum bitset of S under the given weights."""
    grid = _grid(S.moduli)
    entries = _weight_entries(weights, S.moduli)
    bits = 0
    for x in S.elements:
        bits = grid.fold(bits, _element_images(grid, x, entries)[1])
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
        moduli = S.moduli
        try:
            for i in self.indices:
                _integer(i, "index", 1)
            applied = [_as_entry(w, moduli) for w in self.weights]
        except ValueError:
            return False
        if not self.indices or len(self.indices) != len(self.weights):
            return False
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            return False
        if self.indices[-1] > len(S.elements):
            return False
        if weights is not None:
            allowed = set(_weight_entries(weights, moduli))
            if any(w not in allowed for w in applied):
                return False
        if len(moduli) == 1:
            n = moduli[0]
            total = 0
            for i, a in zip(self.indices, applied):
                total = (total + a * S.elements[i - 1]) % n
            return total == 0
        total = (0,) * len(moduli)
        for i, a in zip(self.indices, applied):
            x = S.elements[i - 1]
            total = tuple(
                (t + ai * xi) % m for t, ai, xi, m in zip(total, a, x, moduli)
            )
        return not any(total)


def extract_certificate(S, weights):
    """Shortest weighted zero sum of S, or None when S is zero-sum-free.

    Among the certificates of minimal pick count the result has the
    lexicographically smallest index tuple, then the smallest weight tuple.

    Everything runs on the reachable-sum fold.  rows[r][j] holds the negated
    nonempty sums of at most r picks from positions >= j (counted from 0),
    so the first r with 0 in rows[r][0] is the fewest pick count t.  Indices
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
    images = [_element_images(grid, x, entries)[1] for x in elems]
    negated = [
        _element_images(
            grid, -x if grid.rank == 1 else tuple(-v for v in x), entries
        )[1]
        for x in elems
    ]

    rows = [[0] * (m + 1)]
    while not rows[-1][0] & 1:
        if len(rows) > m:
            return None
        prev = rows[-1]
        row = [0] * (m + 1)
        for j in range(m - 1, -1, -1):
            row[j] = row[j + 1] | grid.fold(prev[j + 1], negated[j])
        rows.append(row)
    t = len(rows) - 1

    picks = []
    sums = 0
    j = 0
    while len(picks) < t:
        trial = grid.fold(sums, images[j])
        if trial & (rows[t - len(picks) - 1][j + 1] | 1):
            picks.append(j)
            sums = trial
        j += 1

    # rests[k]: negated sums of the picks after the k-th
    rests = [0]
    for j in reversed(picks[1:]):
        rests.append(grid.fold(rests[-1], negated[j]))
    rests.reverse()
    applied = []
    sums = 0
    for j, rest in zip(picks, rests):
        for a in entries:
            trial = grid.fold(sums, _element_images(grid, elems[j], (a,))[1])
            if trial & (rest | 1):
                break
        else:
            raise RuntimeError("certificate extraction lost a feasible pick")
        applied.append(a)
        sums = trial
    return Certificate(
        indices=tuple(j + 1 for j in picks), weights=tuple(applied)
    )
