"""Reference kernel that tracks the speed of the machine during a run.

The VM that runs the benchmark speeds up and slows down by as much as 1.5x
over tens of seconds, alike for every job, so raw times of two runs of the
same code differ more than any bound worth setting.  The harness therefore
times this fixed kernel before every job and scales each job's time by
``NOMINAL_S`` over the median of the kernel's times around that job: the
end-to-end times are seconds at the speed at which the kernel takes
``NOMINAL_S``.  Jobs that run a pool of worker processes and the set-up
calls, fresh processes whose time this process's speed does not set, are
left as measured.

The kernel is the benchmark's own code and shares nothing with davlab, so
no change to davlab can change its time except by slowing the machine.  It
is the same kind of work as davlab's searches: a memoized depth-first
search over bitmasks of reachable sums, here for the longest sequence over
Z_36 with no nonempty zero sum under the weights {1, -1}.  It uses plain
recursion rather than a closure, so it leaves no reference cycles behind for
the collector to charge to the next job.
"""

import gc
import time

MODULUS = 36
# Median time of one call on the 2-vCPU Xeon VM the benchmark was built on.
NOMINAL_S = 0.004


def _longest(reach, last, m, full, memo):
    key = (reach << 8) | last
    hit = memo.get(key)
    if hit is not None:
        return hit
    best = 0
    for g in range(last, m // 2 + 1):
        grown = (reach
                 | ((reach << g) | (reach >> (m - g))) & full
                 | ((reach << (m - g)) | (reach >> g)) & full
                 | (1 << g) | (1 << (m - g)))
        if grown & 1:
            continue
        length = 1 + _longest(grown, g, m, full, memo)
        if length > best:
            best = length
    memo[key] = best
    return best


def longest_zero_sum_free(m=MODULUS):
    return _longest(0, 1, m, (1 << m) - 1, {})


def sample():
    """Seconds one call of the kernel takes now.  The collector is held off
    so that a collection the previous job made due lands in the next job,
    not here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        longest_zero_sum_free()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
