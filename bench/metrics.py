"""Metric computation from job records and spans.

A job record is a dict with ``id``, ``name``, ``kind``, ``seconds``,
``cpu_s``, ``ref_s`` (the reference sample taken before the job),
``pool``, ``counts`` and ``failed``; a pass is the list of records of one
pass over the job list.  The names, units, directions and bounds of the
metrics are those of BENCHMARK.json at the repository root.
"""

import functools
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path

import reference

# Jobs on either side of a job whose reference samples set its speed.
SPEED_WINDOW = 5


@functools.cache
def spec():
    """BENCHMARK.json at the repository root."""
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def units():
    return {m["name"]: m["unit"]
            for m in spec()["end_to_end"] + spec()["per_layer"]}

# The end-to-end metrics and workload each layer metric should move.
# Counts that are outputs rather than work (witnesses, stdout bytes) must
# not move at all; their direction in BENCHMARK.json is nominal.
MOVES = {
    "cli.table_s": "job_p50_ms on bracket",
    "cli.exact_count_s": "wall_s on witness",
    "cli.exact_list_s": "wall_s on witness",
    "cli.classify_s": "job_p50_ms on metacyclic",
    "cli.stdout_bytes": "none; must stay identical",
    "modring.split_s": "job_p50_ms on bracket",
    "bounds.bracket_s": "job_p50_ms on bracket",
    "bounds.construct_s": "job_p50_ms on bracket",
    "zsfree.fold_s": "job_p50_ms on bracket",
    "zsfree.fold_calls": "job_p50_ms on bracket",
    "zsfree.certificate_s": "job_p50_ms on bracket",
    "zsfree.certificate_picks": "job_p50_ms on bracket",
    "davenport.sandwich_s": "wall_s and job_p90_ms on bracket",
    "davenport.sandwich_nodes": "wall_s and job_p90_ms on bracket",
    "davenport.nodes_per_s": "wall_s and job_p90_ms on bracket",
    "davenport.rank_k_s": "wall_s on bracket",
    "davenport.rank_k_nodes": "wall_s on bracket",
    "davenport.exact_s": "wall_s and peak_rss_mb on witness",
    "davenport.exact_nodes": "wall_s and peak_rss_mb on witness",
    "davenport.witnesses": "wall_s and peak_rss_mb on witness",
    "davenport.witness_iter_s": "wall_s and peak_rss_mb on witness",
    "davenport.enumerate_s": "wall_s on witness",
    "davenport.zsf_enum_s": "wall_s on witness",
    "davenport.overrun_s": "wall_s and cpu_s on budgeted",
    "davenport.overrun_max_s": "wall_s and cpu_s on budgeted",
    "davenport.partial_nodes": "wall_s and cpu_s on budgeted",
    "davenport.truncated_jobs": "wall_s and cpu_s on budgeted",
    "metacyclic.classify_s": "wall_s on metacyclic",
    "metacyclic.classify_nodes": "wall_s on metacyclic",
    "metacyclic.small_davenport_s": "wall_s on metacyclic",
    "metacyclic.product_one_s": "wall_s and peak_rss_mb on metacyclic",
    "metacyclic.product_one_free_s": "wall_s and peak_rss_mb on metacyclic",
    "metacyclic.product_one_hit_ratio": "wall_s and peak_rss_mb on metacyclic",
    "metacyclic.product_one_peak_mb": "wall_s and peak_rss_mb on metacyclic",
    "metacyclic.overrun_s": "wall_s on budgeted",
    "trace.overhead_s": "none; traced minus untraced wall_s of the same run",
}


def p90(values):
    """90th percentile by linear interpolation between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def speed_factors(records):
    """Per job, in run order: reference.NOMINAL_S over the median of the
    reference samples taken before the SPEED_WINDOW jobs on either side of
    it and before itself.  A job that runs a pool of worker processes keeps
    factor 1: the speed of this process does not set its time."""
    refs = [r["ref_s"] for r in records]
    k = SPEED_WINDOW
    return [1.0 if r["pool"] else
            reference.NOMINAL_S / statistics.median(refs[max(0, i - k):i + k + 1])
            for i, r in enumerate(records)]


def scaled_passes(passes):
    """(seconds, cpu_s) of every job, scaled to the reference speed (see
    reference.py), pass by pass."""
    factors = iter(speed_factors([r for p in passes for r in p]))
    return [[(r["seconds"] * f, r["cpu_s"] * f) for r, f in zip(p, factors)]
            for p in passes]


def pass_walls(passes):
    return [sum(s for s, _ in p) for p in scaled_passes(passes)]


def end_to_end(passes, peak_rss_mb, setup_s):
    scaled = scaled_passes(passes)
    latencies = [s for p in scaled for s, _ in p]
    return {
        "wall_s": statistics.median(sum(s for s, _ in p) for p in scaled),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": p90(latencies) * 1e3,
        "cpu_s": statistics.median(sum(c for _, c in p) for p in scaled),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_layer(passes, spans, selfs, overhead_s, product_one_peak_mb):
    """Per-layer metrics of the traced passes, per pass where summed.  Self
    times are scaled to the reference speed by their job's factor; overruns
    of a wall-clock budget are not."""
    n = len(passes)
    records = [r for p in passes for r in p]
    by_id = {r["id"]: r for r in records}
    factor = dict(zip(by_id, speed_factors(records)))
    selfs = [own * factor[rec[4]] for rec, own in zip(spans, selfs)]
    span_self = defaultdict(float)
    span_calls = Counter()
    for rec, own in zip(spans, selfs):
        span_self[rec[0]] += own
        span_calls[rec[0]] += 1

    def self_s(*names):
        return sum(span_self[k] for k in names) / n

    def count(key, kinds=None):
        return sum(r["counts"].get(key, 0) for r in records
                   if kinds is None or r["kind"] in kinds) / n

    def overruns(kind):
        return [r["seconds"] - r["budget_s"] for r in records
                if r["kind"] == kind]

    free_self = sum(
        own for rec, own in zip(spans, selfs)
        if rec[0] == "metacyclic.has_product_one_subsequence"
        and not by_id[rec[4]]["counts"].get("hit")
    ) / n
    p1_calls = sum(1 for r in records if r["kind"] == "product_one")
    p1_hits = sum(r["counts"].get("hit", 0) for r in records
                  if r["kind"] == "product_one")
    sandwich_s = self_s("davenport.verify_sandwich")
    sandwich_nodes = sum(r["counts"].get("nodes", 0) for r in records
                         if r["span"] == "davenport.verify_sandwich") / n
    dav_overruns = overruns("budget_davenport")
    truncated = [r for r in records
                 if r["kind"] == "budget_davenport" and r["counts"].get("truncated")]
    return {
        "cli.table_s": self_s("cli.table"),
        "cli.exact_count_s": self_s("cli.exact_count"),
        "cli.exact_list_s": self_s("cli.exact_list"),
        "cli.classify_s": self_s("cli.classify"),
        "cli.stdout_bytes": count("stdout_bytes"),
        "modring.split_s": self_s("modring.involutions", "modring.crt_split"),
        "bounds.bracket_s": self_s("bounds.table_row", "bounds.lower_bound",
                                   "bounds.upper_bound"),
        "bounds.construct_s": self_s("bounds.construct_witness_1",
                                     "bounds.construct_witness_2"),
        "zsfree.fold_s": self_s("zsfree.reachable_sums",
                                "zsfree.has_weighted_zero_sum"),
        "zsfree.fold_calls": (span_calls["zsfree.reachable_sums"]
                              + span_calls["zsfree.has_weighted_zero_sum"]) / n,
        "zsfree.certificate_s": self_s("zsfree.extract_certificate"),
        "zsfree.certificate_picks": count("picks"),
        "davenport.sandwich_s": sandwich_s,
        "davenport.sandwich_nodes": sandwich_nodes,
        "davenport.nodes_per_s": sandwich_nodes / sandwich_s if sandwich_s else 0.0,
        "davenport.rank_k_s": self_s("davenport.exact_davenport_k"),
        "davenport.rank_k_nodes": count("nodes", ("rank_k",)),
        "davenport.exact_s": self_s("davenport.exact_davenport"),
        "davenport.exact_nodes": count("nodes", ("exact",)),
        "davenport.witnesses": count("witnesses"),
        "davenport.witness_iter_s": self_s("davenport.witness_iter"),
        "davenport.enumerate_s": self_s("davenport.enumerate_extremal"),
        "davenport.zsf_enum_s": self_s("davenport.zero_sum_free_sequences"),
        "davenport.overrun_s": _median_or_zero(dav_overruns),
        "davenport.overrun_max_s": max(dav_overruns, default=0.0),
        "davenport.partial_nodes": sum(r["counts"]["nodes"] for r in truncated) / n,
        "davenport.truncated_jobs": len(truncated) / n,
        "metacyclic.classify_s": self_s("metacyclic.classify_extremal"),
        "metacyclic.classify_nodes": count("nodes", ("classify",)),
        "metacyclic.small_davenport_s": self_s("metacyclic.small_davenport"),
        "metacyclic.product_one_s": self_s(
            "metacyclic.has_product_one_subsequence"),
        "metacyclic.product_one_free_s": free_self,
        "metacyclic.product_one_hit_ratio": p1_hits / p1_calls if p1_calls else 0.0,
        "metacyclic.product_one_peak_mb": product_one_peak_mb,
        "metacyclic.overrun_s": _median_or_zero(overruns("budget_metacyclic")),
        "trace.overhead_s": overhead_s,
    }
