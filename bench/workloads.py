"""Job lists of the four workloads.

A job is one call into a davlab layer through its public API.  ``call``
runs in the timed region and consumes the result there (witness lists are
iterated, CLI output is captured), so deferred work still counts.
``finish`` runs outside the timed region: it turns the raw result into the
outputs compared with ``expected.json``, the deterministic work counters,
and the problems found by independent checks (certificates, naive oracles,
known values).

The workload seed drives only the random parts: the product-one input mix,
the element that extends each construction before certificate extraction,
and the job order of every pass.  The library sees only the generated
inputs.
"""

import functools
import hashlib
import random
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Callable

from click.testing import CliRunner

from davlab import bounds, cli, davenport, metacyclic, modring, zsfree
from davlab.errors import BudgetExceededError, HypothesisNotMetError, NoValidSplitError

WORKLOADS = ("bracket", "witness", "metacyclic", "budgeted")

# Largest modulus of the bracket rows; (52, 27) is the heaviest row.
BRACKET_N_MAX = 52
# Moduli of the {1, -1} witness jobs; n = 44 builds 35,104 witnesses.
WITNESS_N = range(3, 45)
# Wall-clock budget of every budgeted job, and the widths it runs at.
BUDGET_SECONDS = 0.2
BUDGET_WIDTHS = (1, 2)
# Random product-one inputs per run, and their lengths: at least 4, so most
# of them hit a product-one early; at most 6, which keeps the all-orderings
# oracle cheap.  Every group and length gets the same share of the inputs,
# so the mix, and with it job_p50_ms, does not swing with the seed; 60 keeps
# them under nine tenths of the metacyclic jobs, so that the heavy jobs
# alone set job_p90_ms.
PRODUCT_ONE_RANDOM = 60
RANDOM_LENGTHS = (4, 5, 6)


@dataclass
class Outcome:
    out: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class Job:
    name: str  # stable across seeds when ``recorded``; keys expected.json
    kind: str  # groups jobs for the per-layer metrics
    span: str  # span opened around the call in a traced run
    call: Callable  # (tracer) -> raw result; timed
    finish: Callable  # raw result -> Outcome; untimed
    recorded: bool = True  # outputs are compared with expected.json
    budget_s: float = 0.0  # wall-clock budget of a budgeted job
    pool: bool = False  # runs in a pool of worker processes


def sha256_lines(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _elements_line(elements):
    return " ".join(str(x) for x in elements)


# -- CLI ---------------------------------------------------------------------

def _cli_job(kind, span, args):
    def call(tracer):
        result = CliRunner().invoke(cli.cli, args, catch_exceptions=True)
        return result.exit_code, result.stdout_bytes, result.exception

    def finish(raw):
        code, stdout, exc = raw
        problems = []
        if exc is not None and not isinstance(exc, SystemExit):
            problems.append(f"raised {exc!r}")
        return Outcome(
            out={
                "exit_code": code,
                "stdout_bytes": len(stdout),
                "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            },
            counts={"stdout_bytes": len(stdout)},
            problems=problems,
        )

    return Job("cli " + " ".join(args), kind, span, call, finish)


# -- bracket -----------------------------------------------------------------

def bracket_rows(n_max=BRACKET_N_MAX):
    rows = []
    for n in range(2, n_max + 1):
        for s in modring.involutions(n):
            try:
                modring.crt_split(n, s)
            except NoValidSplitError:
                continue
            rows.append((n, s))
    return rows


def _sandwich_job(n, s):
    def call(tracer):
        return davenport.verify_sandwich(n, s)

    def finish(rep):
        return Outcome(
            out={"n1": rep.n1, "n2": rep.n2, "lower": rep.lower,
                 "exact": rep.exact, "upper": rep.upper},
            counts={"nodes": rep.nodes},
        )

    return Job(f"sandwich {n} {s}", "sandwich", "davenport.verify_sandwich",
               call, finish)


def _construct_job(n, s, which):
    build = {1: "construct_witness_1", 2: "construct_witness_2"}[which]

    def call(tracer):
        split = modring.crt_split(n, s)
        try:
            return getattr(bounds, build)(split)
        except HypothesisNotMetError:
            return None

    def finish(seq):
        if seq is None:
            return Outcome(out={"status": "hypothesis_not_met"})
        return Outcome(
            out={"status": "ok", "length": len(seq),
                 "sha256": sha256_lines([_elements_line(seq.elements)])},
            counts={"length": len(seq)},
        )

    return Job(f"construct{which} {n} {s}", "construct",
               f"bounds.{build}", call, finish)


def _certificate_job(n, s, which, rng):
    """extract_certificate on construction ``which`` plus one seeded element.

    The construction is rebuilt here (untimed) from the recorded, checked
    construction routine; only the extraction is timed.
    """
    split = modring.crt_split(n, s)
    build = {1: bounds.construct_witness_1, 2: bounds.construct_witness_2}[which]
    base = build(split)
    extra = rng.randrange(n)
    seq = zsfree.ZSequence(n, base.elements + (extra,))
    weights = modring.WeightSet(n, (1, s))

    def call(tracer):
        return zsfree.extract_certificate(seq, weights)

    def finish(cert):
        problems = []
        if cert is None:
            if zsfree.has_weighted_zero_sum(seq, weights):
                problems.append("no certificate for a sequence with a zero sum")
        elif not cert.holds_for(seq, weights):
            problems.append(f"certificate {cert} fails holds_for")
        picks = 0 if cert is None else len(cert.indices)
        return Outcome(counts={"picks": picks})

    return Job(f"certificate{which} {n} {s} +{extra}", "certificate",
               "zsfree.extract_certificate", call, finish, recorded=False)


def _rank_k_job(n, weights, k):
    def call(tracer):
        return davenport.exact_davenport_k(
            n, weights, k, collect_witnesses=False)

    def finish(res):
        return Outcome(out={"constant": res.constant},
                       counts={"nodes": res.nodes})

    label = ",".join(str(w) for w in sorted(weights))
    return Job(f"rank_k {n}^{k} {{{label}}}", "rank_k",
               "davenport.exact_davenport_k", call, finish)


def bracket_jobs(rng):
    jobs = []
    for n, s in bracket_rows():
        jobs.append(_sandwich_job(n, s))
        split = modring.crt_split(n, s)
        for which in (1, 2):
            jobs.append(_construct_job(n, s, which))
            applies = which == 1 or (split.n2 % 2 == 1 and split.n1 > split.n2)
            if applies:
                jobs.append(_certificate_job(n, s, which, rng))
    jobs.append(_rank_k_job(4, {1}, 2))
    jobs.append(_rank_k_job(5, {1}, 2))
    jobs.append(_rank_k_job(6, {1, 5}, 2))
    jobs.append(_cli_job("cli_table", "cli.table",
                         ["table", "--n-max", "30", "--exact"]))
    return jobs


# -- witness -----------------------------------------------------------------

def _witness_digest(witnesses):
    """Digest of the sorted list, so the order a search yields in is free."""
    return sha256_lines(_elements_line(w) for w in sorted(witnesses))


def _exact_job(n):
    weights = modring.WeightSet(n, (1, n - 1))

    def call(tracer):
        res = davenport.exact_davenport(n, weights)
        with tracer.span("davenport.witness_iter"):
            listed = [w.elements for w in res.witnesses]
        return res, listed

    def finish(raw):
        res, listed = raw
        return Outcome(
            out={"constant": res.constant, "witness_count": len(listed),
                 "witness_sha256": _witness_digest(listed)},
            counts={"nodes": res.nodes, "witnesses": len(listed)},
        )

    return Job(f"exact pm1 {n}", "exact", "davenport.exact_davenport",
               call, finish)


def _enumerate_job(n, weights, orbit_reduced):
    def call(tracer):
        found = davenport.enumerate_extremal(
            n, weights, orbit_reduced=orbit_reduced)
        with tracer.span("davenport.witness_iter"):
            return [w.elements for w in found]

    def finish(listed):
        return Outcome(
            out={"count": len(listed), "sha256": _witness_digest(listed)},
            counts={"witnesses": len(listed)},
        )

    label = ",".join(str(w) for w in weights)
    tag = " orbits" if orbit_reduced else ""
    return Job(f"enumerate {n} {{{label}}}{tag}", "enumerate",
               "davenport.enumerate_extremal", call, finish)


def _zsf_sweep_job(n):
    """Criterion-7 sweep for one n: every zero-sum-free sequence of each
    length in [(n + 2) // 2, n - 1] under weights {1}."""
    weights = modring.WeightSet(n, (1,))
    lengths = range((n + 2) // 2, n)

    def call(tracer):
        return [
            (length, seq.elements)
            for length in lengths
            for seq in davenport.zero_sum_free_sequences(n, weights, length)
        ]

    def finish(found):
        problems = []
        for length, elems in found:
            top = max(elems.count(x) for x in set(elems))
            if top < 2 * length - n + 1:
                problems.append(f"{elems} breaks the repetition bound")
        return Outcome(
            out={"count": len(found),
                 "sha256": _witness_digest(e for _, e in found)},
            counts={"sequences": len(found)},
            problems=problems,
        )

    return Job(f"zsf_sweep {n}", "zsf_sweep",
               "davenport.zero_sum_free_sequences", call, finish)


def witness_jobs(rng):
    jobs = [_exact_job(n) for n in WITNESS_N]
    jobs.append(_enumerate_job(40, (1, 39), orbit_reduced=True))
    for n in range(3, 13):
        jobs.append(_enumerate_job(n, (1,), orbit_reduced=False))
        jobs.append(_zsf_sweep_job(n))
    jobs.append(_cli_job("cli_exact_count", "cli.exact_count",
                         ["exact", "--n", "42", "--weights", "pm1"]))
    jobs.append(_cli_job("cli_exact_list", "cli.exact_list",
                         ["exact", "--n", "36", "--weights", "pm1",
                          "--witnesses", "--format", "json"]))
    return jobs


# -- metacyclic --------------------------------------------------------------

CLASSIFY_SPECS = ((12, 5), (12, 7), (14, 13), (15, 4), (16, 7))
SMALL_DAVENPORT_SPECS = ((12, 5), (12, 7), (14, 13))
# Product-one-free runs of m copies of a generator of the rotation
# subgroup of the dihedral group of order 60; each fills all 2**m subsets.
FREE_RUN_N = 30
FREE_RUN_LENGTHS = (16, 17)
RANDOM_SPECS = ((12, 5), (12, 7), (14, 13), (15, 4))


def product_one_oracle(S):
    """Size of the smallest nonempty sub-multiset of S that multiplies to the
    identity in some order, or None; every subset and every ordering is
    tried outright."""
    spec = S.spec
    elems = S.elements
    for k in range(1, len(elems) + 1):
        for idxs in combinations(range(len(elems)), k):
            for perm in permutations(idxs):
                acc = metacyclic.IDENTITY
                for i in perm:
                    acc = metacyclic.mul(acc, elems[i], spec)
                if acc == metacyclic.IDENTITY:
                    return k
    return None


def _classify_job(n, s):
    spec = metacyclic.GroupSpec(n, s)

    def call(tracer):
        return metacyclic.classify_extremal(spec, n)

    def finish(rep):
        lines = [f"claimed {metacyclic.format_sequence(q)}" for q in rep.claimed]
        lines += [f"other {metacyclic.format_sequence(q)}" for q in rep.other]
        return Outcome(
            out={"claimed": len(rep.claimed), "other": len(rep.other),
                 "sha256": sha256_lines(lines)},
            counts={"nodes": rep.nodes,
                    "size": len(rep.claimed) + len(rep.other)},
        )

    return Job(f"classify {n} {s}", "classify",
               "metacyclic.classify_extremal", call, finish)


def _small_davenport_job(n, s):
    spec = metacyclic.GroupSpec(n, s)

    def call(tracer):
        return metacyclic.small_davenport(spec)

    def finish(value):
        return Outcome(out={"value": value})

    return Job(f"small_davenport {n} {s}", "small_davenport",
               "metacyclic.small_davenport", call, finish)


def _product_one_job(name, seq, expect_free):
    """``expect_free`` is True for runs known to be product-one-free;
    otherwise the answer is compared with the all-orderings oracle, which
    runs once per run, not once per pass."""
    oracle = functools.cache(lambda: product_one_oracle(seq))

    def call(tracer):
        return metacyclic.has_product_one_subsequence(seq)

    def finish(cert):
        problems = []
        if expect_free:
            if cert is not None:
                problems.append("certificate for a product-one-free run")
        else:
            smallest = oracle()
            if (cert is None) != (smallest is None):
                problems.append(f"answer {cert} disagrees with the oracle")
            elif cert is not None:
                if not cert.holds_for(seq):
                    problems.append(f"certificate {cert} fails holds_for")
                if len(cert.positions) != smallest:
                    problems.append(
                        f"certificate size {len(cert.positions)} is not the "
                        f"minimum {smallest}")
        return Outcome(counts={"hit": int(cert is not None),
                               "length": len(seq)},
                       problems=problems)

    return Job(name, "product_one", "metacyclic.has_product_one_subsequence",
               call, finish, recorded=False)


def peak_job():
    """The product-one-free run whose tracemalloc peak a traced run reports
    as metacyclic.product_one_peak_mb.  Allocation tracing slows the call
    about 14-fold, so it is a shorter run than the timed ones: its subset
    table has 2**14 entries, and tracing it takes about 2 s where the
    17-copy run would take 17 s."""
    spec = metacyclic.GroupSpec.dihedral(FREE_RUN_N)
    return _product_one_job("product_one peak 14x y^1",
                            metacyclic.GSequence(spec, [(0, 1)] * 14), True)


def metacyclic_jobs(rng):
    jobs = [_classify_job(n, s) for n, s in CLASSIFY_SPECS]
    jobs += [_small_davenport_job(n, s) for n, s in SMALL_DAVENPORT_SPECS]
    spec = metacyclic.GroupSpec.dihedral(FREE_RUN_N)
    for m in FREE_RUN_LENGTHS:
        t = rng.choice(modring.units(FREE_RUN_N))
        seq = metacyclic.GSequence(spec, [(0, t)] * m)
        jobs.append(_product_one_job(f"product_one free {m}x y^{t}", seq, True))
    for i in range(PRODUCT_ONE_RANDOM):
        n, s = RANDOM_SPECS[i % len(RANDOM_SPECS)]
        spec = metacyclic.GroupSpec(n, s)
        m = RANDOM_LENGTHS[i // len(RANDOM_SPECS) % len(RANDOM_LENGTHS)]
        elems = [(rng.randrange(2), rng.randrange(n)) for _ in range(m)]
        seq = metacyclic.GSequence(spec, elems)
        jobs.append(_product_one_job(
            f"product_one random {i} C{n}:{s} {metacyclic.format_sequence(seq)}",
            seq, False))
    jobs.append(_cli_job("cli_classify", "cli.classify",
                         ["classify", "--n", "12", "--s", "5",
                          "--length", "12", "--format", "json"]))
    return jobs


# -- budgeted ----------------------------------------------------------------

# The rank-2 group C_7^2 has Davenport constant 1 + 2 * 6 = 13 (p-group).
RANK_K_KNOWN = {(7, 2): 13}


def _budget(width):
    return davenport.SearchBudget(max_seconds=BUDGET_SECONDS,
                                  parallel_width=width)


def _budget_rank_k_job(n, k, width):
    def call(tracer):
        try:
            return davenport.exact_davenport_k(
                n, {1}, k, _budget(width), collect_witnesses=False)
        except BudgetExceededError as e:
            return e.partial

    def finish(res):
        problems = []
        known = RANK_K_KNOWN[(n, k)]
        if res.constant > known or (res.exhaustive and res.constant != known):
            problems.append(f"constant {res.constant} against known {known}")
        return Outcome(counts={"truncated": int(not res.exhaustive),
                               "nodes": res.nodes}, problems=problems)

    return Job(f"budget w{width} rank_k {n}^{k}", "budget_davenport",
               "davenport.exact_davenport_k", call, finish, recorded=False,
               budget_s=BUDGET_SECONDS, pool=width > 1)


def _budget_sandwich_job(n, s, width):
    upper = bounds.table_row(n, s).upper

    def call(tracer):
        try:
            return davenport.verify_sandwich(n, s, _budget(width))
        except BudgetExceededError as e:
            return e.partial

    def finish(rep):
        problems = []
        if rep.exact > upper:
            problems.append(f"estimate {rep.exact} above upper bound {upper}")
        return Outcome(counts={"truncated": int(not rep.exhaustive),
                               "nodes": rep.nodes}, problems=problems)

    return Job(f"budget w{width} sandwich {n} {s}", "budget_davenport",
               "davenport.verify_sandwich", call, finish, recorded=False,
               budget_s=BUDGET_SECONDS, pool=width > 1)


def _budget_small_davenport_job(n, s, width):
    spec = metacyclic.GroupSpec(n, s)

    def call(tracer):
        try:
            return True, metacyclic.small_davenport(spec, _budget(width))
        except BudgetExceededError as e:
            return False, e.partial

    def finish(raw):
        exhaustive, length = raw
        problems = []
        # The small Davenport constant of C_n : C_2 with s != 1 is n.
        if length > n or (exhaustive and length != n):
            problems.append(f"length {length} against known {n}")
        return Outcome(counts={"truncated": int(not exhaustive)},
                       problems=problems)

    return Job(f"budget w{width} small_davenport {n} {s}", "budget_metacyclic",
               "metacyclic.small_davenport", call, finish, recorded=False,
               budget_s=BUDGET_SECONDS, pool=width > 1)


def budgeted_jobs(rng):
    jobs = []
    for width in BUDGET_WIDTHS:
        jobs.append(_budget_rank_k_job(7, 2, width))
        jobs.append(_budget_sandwich_job(76, 39, width))
        jobs.append(_budget_small_davenport_job(20, 11, width))
    return jobs


JOB_LISTS = {
    "bracket": bracket_jobs,
    "witness": witness_jobs,
    "metacyclic": metacyclic_jobs,
    "budgeted": budgeted_jobs,
}


def build(workload, seed):
    """The workload's jobs for this seed, and the generator that orders its
    passes."""
    rng = random.Random(seed)
    return JOB_LISTS[workload](rng), rng
