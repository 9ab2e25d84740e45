"""Reference oracles for the test suite.

Deliberately naive: raw itertools enumeration with no shared machinery
beyond input normalization, so agreement with the fast engines means
something.
"""

from itertools import combinations, permutations, product

from davlab.metacyclic import IDENTITY, mul
from davlab.modring import units
from davlab.zsfree import (
    Certificate,
    ZSequence,
    _weight_entries,
    brute_force_oracle,
)


def max_zsf_length_bruteforce(n, weights, cap):
    """Longest zero-sum-free length over Z_n by levelwise enumeration.

    Grows nondecreasing element tuples one level at a time and keeps only
    those brute_force_oracle declares free; freeness is hereditary, so the
    survivors of each level carry every longer candidate.
    """
    level = [()]
    length = 0
    while level and length < cap:
        survivors = []
        for base in level:
            for x in range(base[-1] if base else 0, n):
                cand = base + (x,)
                if not brute_force_oracle(ZSequence(n, cand), weights):
                    survivors.append(cand)
        if not survivors:
            break
        level = survivors
        length += 1
    return length


def lexmin_certificate(S, weights):
    """Shortest weighted zero sum of S with the smallest index tuple, then
    the smallest weight tuple, or None.

    Checks every index subset and every weight assignment outright, in
    lexicographic order, over Z_n and over products alike.
    """
    entries = _weight_entries(weights, S.moduli)
    moduli = S.moduli
    # rank 1 as a product with one coordinate
    if len(moduli) == 1:
        elems = [(x,) for x in S.elements]
        vecs = [(a,) for a in entries]
    else:
        elems, vecs = S.elements, entries
    for t in range(1, len(elems) + 1):
        for idxs in combinations(range(len(elems)), t):
            for assign in product(range(len(entries)), repeat=t):
                if all(
                    sum(vecs[a][c] * elems[i][c] for a, i in zip(assign, idxs))
                    % q == 0
                    for c, q in enumerate(moduli)
                ):
                    return Certificate(
                        tuple(i + 1 for i in idxs),
                        tuple(entries[a] for a in assign),
                    )
    return None


def product_one_oracle(S):
    """True iff some nonempty subsequence of S multiplies to the identity
    in some order.  Every subset and every ordering is tried outright."""
    spec = S.spec
    elems = list(S.elements)
    for k in range(1, len(elems) + 1):
        for idxs in combinations(range(len(elems)), k):
            for perm in permutations(idxs):
                acc = IDENTITY
                for i in perm:
                    acc = mul(acc, elems[i], spec)
                if acc == IDENTITY:
                    return True
    return False


def automorphisms(n, s):
    """The pairs (u, c) of x^eps y^a -> x^eps y^(u*a + eps*c) on C_n : C_2,
    u a unit and c(1 + s) = 0 (mod n), found by scanning every c."""
    return [(u, c) for u in units(n) for c in range(n) if c * (1 + s) % n == 0]


def realized_products(spec, elems):
    """The non-identity elements that some ordering of some nonempty
    sub-multiset of elems multiplies to.  An ordering of a sub-multiset
    ends in one of its elements after an ordering of the rest, so each
    sub-multiset's products, keyed by a count per distinct element, are
    those of the sub-multisets one element smaller, each times the element
    left out."""
    distinct = sorted(set(elems))
    full = [list(elems).count(g) for g in distinct]
    found = {}
    for counts in sorted(product(*(range(k + 1) for k in full)), key=sum):
        found[counts] = {
            mul(p, g, spec)
            for i, g in enumerate(distinct) if counts[i]
            for p in found[counts[:i] + (counts[i] - 1,) + counts[i + 1:]]
        } if any(counts) else {IDENTITY}
    return set().union(*found.values()) - {IDENTITY}


def weighted_sums(moduli, weights, elements, sums=frozenset()):
    """sums together with every weighted sum that a nonempty subsequence of
    elements adds to it, over Z_m1 x ... x Z_mk, as a set of coordinate
    tuples; weights and elements are coordinate tuples.  Each element in
    turn adds itself, times each weight, to the empty sum and to every sum
    so far."""
    zero = (0,) * len(moduli)
    sums = set(sums)
    for x in elements:
        sums |= {tuple((r + a * c) % m for r, a, c, m in zip(base, w, x, moduli))
                 for base in sums | {zero} for w in weights}
    return sums


def unreachable_orbits(moduli, sums, h):
    """How many orbits {y, h*y} of nonzero elements miss sums, found by
    scanning every element; h None makes every orbit one element."""
    orbits = set()
    for y in product(*map(range, moduli)):
        if any(y) and y not in sums:
            hy = y if h is None else tuple(a * c % m for a, c, m in zip(h, y, moduli))
            orbits.add(frozenset((y, hy)))
    return len(orbits)
