"""Residue-ring utilities: units, involutions, weight sets, and CRT splits.

Everything here is exact integer arithmetic.  A modulus is a plain int >= 2;
elements of Z_n are ints in range(n).  _integer is the package's one check
of an integer argument, _positions its one reading of 1-based positions,
and _factor its one factorisation.  crt_split computes a split from
gcd(n, s + 1), with CrtSplit as its one rule.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import InvalidSError, NoValidSplitError


def _integer(value, name, least=None):
    """value if it is an int, not a bool, and not below least (when given);
    ValueError otherwise.  Every module checks its integer arguments here."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def _positions(values, name):
    """values as a tuple of ints >= 1, each checked by _integer, if it is a
    list, tuple or other Sequence; ValueError for anything else, such as a
    set, dict, generator or int, which fixes no order of its entries."""
    if not isinstance(values, Sequence):
        raise ValueError(f"{name} must be a sequence, got {values!r}")
    return tuple(_integer(p, f"an entry of {name}", 1) for p in values)


def _factor(n):
    """The prime factorisation of n >= 1 as ascending (p, e) pairs."""
    pairs = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        p += 1
    if n > 1:
        pairs.append((n, 1))
    return pairs


def divisors(n):
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in _factor(_integer(n, "n", 1)):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def units(n):
    """The multiplicative units of Z_n, ascending."""
    _integer(n, "modulus", 2)
    return [a for a in range(1, n) if gcd(a, n) == 1]


def distinct_prime_factors(n):
    """Distinct primes dividing n, ascending."""
    return [p for p, _ in _factor(_integer(n, "modulus", 2))]


def is_squarefree(n):
    """True iff no prime square divides n."""
    return all(e == 1 for _, e in _factor(_integer(n, "modulus", 2)))


def involutions(n):
    """Nontrivial square roots of 1 in Z_n: s*s == 1 (mod n), s not in {1, n-1}.

    Returned ascending; empty when Z_n has only the trivial roots.
    """
    _integer(n, "modulus", 2)
    return [s for s in range(2, n - 1) if (s * s) % n == 1]


@dataclass(frozen=True, init=False)
class WeightSet:
    """A nonempty set of nonzero weights in Z_n, stored sorted and reduced."""

    n: int
    weights: tuple

    def __init__(self, n, weights):
        _integer(n, "modulus", 2)
        reduced = sorted({_integer(w, "weight") % n for w in weights})
        if not reduced:
            raise ValueError("weight set must be nonempty")
        if reduced[0] == 0:
            raise ValueError("weights must be nonzero modulo n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", tuple(reduced))

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)

    def __contains__(self, w):
        return _integer(w, "weight") % self.n in self.weights


def quadratic_residue_weights(n):
    """The squares of units of Z_n as a WeightSet.  Requires n >= 3."""
    _integer(n, "modulus", 3)
    return WeightSet(n, {(a * a) % n for a in units(n)})


@dataclass(frozen=True)
class CrtSplit:
    """A coprime factorization n = n1 * n2 with s = -1 mod n1 and s = +1 mod n2.

    Both factors must be >= 3 and s must be a nontrivial involution of Z_n.
    """

    n: int
    s: int
    n1: int
    n2: int

    def __post_init__(self):
        n, s, n1, n2 = (_integer(self.n, "modulus", 2), _integer(self.s, "s"),
                        _integer(self.n1, "n1"), _integer(self.n2, "n2"))
        if (s * s) % n != 1 or s % n in (0, 1, n - 1):
            raise InvalidSError(f"s={s} is not a nontrivial involution mod {n}")
        if n1 * n2 != n or gcd(n1, n2) != 1:
            raise ValueError(f"{n1} * {n2} is not a coprime factorization of {n}")
        if n1 < 3 or n2 < 3:
            raise ValueError(f"both factors must be >= 3, got ({n1}, {n2})")
        if s % n1 != n1 - 1 or s % n2 != 1:
            raise ValueError(
                f"s={s} is not -1 mod {n1} and +1 mod {n2}"
            )

    @cached_property
    def _crt_coeffs(self):
        # e1 = 1 mod n1, 0 mod n2; e2 = 0 mod n1, 1 mod n2.
        n, n1, n2 = self.n, self.n1, self.n2
        e1 = (n2 * pow(n2, -1, n1)) % n
        e2 = (n1 * pow(n1, -1, n2)) % n
        return e1, e2


def crt_split(n, s):
    """The preferred CRT split of (n, s), from g = gcd(n, s + 1).  A split
    has n1 | gcd(n, s + 1) and n2 | gcd(n, s - 1), and those gcds multiply
    to n or 2n (n | (s + 1)(s - 1) and gcd(s + 1, s - 1) | 2), so n1 is g
    or g / 2.  g goes first, as an even n1 is preferred, and g / 2 is never
    an even split: 4 | g would make n2 = 2n / g even too.  CrtSplit is the
    one rule; the first candidate it accepts is returned.  Raises
    InvalidSError for a bad s and NoValidSplitError when neither splits.
    """
    s = _integer(s, "s") % _integer(n, "modulus", 2)
    g = gcd(n, s + 1)
    for n1 in (g, g // 2) if g % 2 == 0 else (g,):
        try:
            return CrtSplit(n, s, n1, n // n1)
        except ValueError:  # not a split; a bad s raises InvalidSError
            continue
    raise NoValidSplitError(
        f"no coprime split of n={n} with both factors >= 3 fits s={s}"
    )


def psi(a, split):
    """Image of a in Z_{n1} x Z_{n2} under the CRT isomorphism."""
    return _integer(a, "element") % split.n1, a % split.n2


def psi_inv(pair, split):
    """Preimage in Z_n of a pair (a1, a2) in Z_{n1} x Z_{n2}."""
    a1, a2 = pair
    e1, e2 = split._crt_coeffs
    return (_integer(a1, "a1") * e1 + _integer(a2, "a2") * e2) % split.n
