"""Closed-form brackets for the {1, s}-weighted constant of Z_n.

All formulas live on a CRT split n = n1 * n2 with s acting as -1 on the
first factor and +1 on the second.  Every floor of a base-2 logarithm is
computed through bit_length, never through floats.
"""

from dataclasses import dataclass

from .errors import HypothesisNotMetError
from .modring import WeightSet, _integer, crt_split, psi_inv
from .zsfree import ZSequence, has_weighted_zero_sum


def floor_log2(x):
    """Largest e with 2**e <= x, for a positive integer x."""
    return _integer(x, "x", 1).bit_length() - 1


def lower_bound(split):
    """Best known lower bound for the split's weighted constant."""
    lo = multidim_bounds(split, 1).lower
    if split.n2 % 2 == 1 and split.n1 > split.n2:
        lo = max(lo, 2 * split.n2)
    return lo


def upper_bound(split):
    """Best known upper bound for the split's weighted constant."""
    return multidim_bounds(split, 1).upper


@dataclass(frozen=True)
class BoundsRow:
    n: int
    s: int
    n1: int
    n2: int
    lower: int
    upper: int


def table_row(n, s):
    """Bracket row for (n, s) on its preferred split."""
    split = crt_split(n, s)
    return BoundsRow(
        n=n,
        s=s,
        n1=split.n1,
        n2=split.n2,
        lower=lower_bound(split),
        upper=upper_bound(split),
    )


@dataclass(frozen=True)
class MultidimBounds:
    n1: int
    n2: int
    k: int
    d2k: int
    lower: int
    upper: int


def multidim_bounds(split, k, d2k=None):
    """Bracket for the {1, s}-weighted constant of the rank-k product group.

    d2k is the longest zero-sum-free length over the second factor's rank-k
    part; when omitted it defaults to k * (n2 - 1).  Plain bigint arithmetic
    throughout, so n1**k may be arbitrarily large.
    """
    _integer(k, "k", 1)
    n1, n2 = split.n1, split.n2
    if d2k is None:
        d2k = k * (n2 - 1)
    elif _integer(d2k, "d2k") < k * (n2 - 1):
        # k*(n2-1) is itself a zero-sum-free length in the rank-k group, so
        # anything smaller cannot be d of it
        raise ValueError(
            f"d2k must be at least k*(n2-1) = {k * (n2 - 1)}, got {d2k}"
        )
    lo = d2k + 1 + k * floor_log2(n1)
    blocks = floor_log2(n1**k) + 1
    cap_a = (d2k + 1) * blocks
    half = n1**k // 2
    cap_b = 2 * (d2k + 1) + half - 2 * (half // blocks)
    return MultidimBounds(
        n1=n1, n2=n2, k=k, d2k=d2k, lower=lo, upper=min(cap_a, cap_b)
    )


def _checked_free(elems, split, label):
    seq = ZSequence(split.n, elems)
    weights = WeightSet(split.n, (1, split.s))
    if has_weighted_zero_sum(seq, weights):
        raise RuntimeError(f"{label} produced a weighted zero sum for {split}")
    return seq


def construct_witness_1(split):
    """Zero-sum-free sequence of length n2 - 1 + floor(log2 n1).

    Powers of two on the first coordinate exhaust the sign-weighted sums of
    the minus factor; copies of (0, 1) fill the plus factor.
    """
    elems = [
        psi_inv((1 << i, 0), split) for i in range(floor_log2(split.n1))
    ]
    elems += [psi_inv((0, 1), split)] * (split.n2 - 1)
    return _checked_free(elems, split, "witness construction 1")


def construct_witness_2(split):
    """Zero-sum-free sequence of length 2 * n2 - 1 from copies of one element.

    Needs n2 odd and n1 > n2: any signed sum of n2 copies of 1 on the first
    coordinate is odd and too small in magnitude to vanish mod n1.
    """
    if split.n2 % 2 == 0 or split.n1 <= split.n2:
        raise HypothesisNotMetError(
            f"needs n2 odd and n1 > n2, got (n1, n2) = ({split.n1}, {split.n2})"
        )
    elems = [psi_inv((1, 1), split)] * (2 * split.n2 - 1)
    return _checked_free(elems, split, "witness construction 2")
