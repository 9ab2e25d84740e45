"""Tests of the benchmark's own logic: statistics, spans, job lists and the
metric tables.  They run no workload."""

import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import metrics  # noqa: E402
import reference  # noqa: E402
import steady  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_spread_is_interquartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, median, q3 = 2.75, 5.5, 8.25
    assert steady.spread(values) == pytest.approx((q3 - q1) / median)


def test_verdict_bounds_spread_and_worsening():
    steady_set = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    ok = steady.verdict([steady_set, [v * 1.05 for v in steady_set]],
                        0.1, "lower")
    assert ok["agree"] and not ok["wide"]
    slower = steady.verdict([steady_set, [v * 1.2 for v in steady_set]],
                            0.1, "lower")
    assert not slower["agree"]
    # Higher-is-better metrics are worse when they drop.
    assert steady.worsening(10.0, 8.0, "higher") == pytest.approx(0.2)
    noisy = [5.0, 10.0, 15.0, 20.0, 8.0, 12.0]
    assert not steady.verdict([noisy, noisy], 0.1, "lower")["agree"]
    unchecked = steady.verdict([noisy, noisy], 0.1, "lower", check_spread=False)
    assert unchecked["agree"] and unchecked["wide"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.table", 0.0, 10.0, None, "0:0"],
        ["davenport.verify_sandwich", 1.0, 7.0, 0, "0:0"],
        ["modring.crt_split", 2.0, 3.0, 1, "0:0"],
        ["bounds.lower_bound", 8.0, 9.0, 0, "0:0"],
    ]
    assert tracing.self_times(spans) == [3.0, 5.0, 1.0, 1.0]


def test_wrapper_spans_only_cross_layer_calls_inside_jobs():
    tracer = tracing.Tracer()
    inner = tracing._wrap(tracer, "zsfree", "zsfree.fold", lambda: "x")
    same = tracing._wrap(tracer, "bounds", "bounds.same", inner)
    assert inner() == "x" and not tracer.spans  # no job running
    tracer.job = "0:0"
    with tracer.span("bounds.construct_witness_1"):
        assert same() == "x"
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("bounds.construct_witness_1", None), ("zsfree.fold", 0)]
    assert all(s[2] is not None and s[4] == "0:0" for s in tracer.spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_jobs_follow_the_seed_and_match_the_recorded_outputs(workload):
    expected = run.load_expected()["jobs"][workload]
    names = [j.name for j in workloads.build(workload, 3)[0]]
    assert names == [j.name for j in workloads.build(workload, 3)[0]]
    assert len(set(names)) == len(names)
    recorded = {j.name for j in workloads.build(workload, 3)[0] if j.recorded}
    assert recorded == set(expected)


def test_seed_drives_the_random_parts():
    a = [j.name for j in workloads.build("metacyclic", 1)[0]]
    b = [j.name for j in workloads.build("metacyclic", 2)[0]]
    assert a != b


def _records(kind, seconds, counts, span="x", budget_s=0.0, pool=False):
    return {"id": None, "name": kind, "kind": kind, "span": span,
            "budget_s": budget_s, "pool": pool, "seconds": seconds, "cpu_s": seconds,
            "ref_s": reference.NOMINAL_S,
            "counts": counts, "failed": False}


def test_end_to_end_metrics_from_passes():
    passes = [[_records("a", 0.1, {}), _records("b", 0.3, {})],
              [_records("a", 0.2, {}), _records("b", 0.4, {})]]
    got = metrics.end_to_end(passes, 50.0, 0.2)
    assert set(got) == {m["name"] for m in metrics.spec()["end_to_end"]}
    assert got["wall_s"] == pytest.approx(0.5)
    assert got["job_p50_ms"] == pytest.approx(250.0)
    assert got["job_p90_ms"] == pytest.approx(370.0)


def test_job_times_are_scaled_by_the_reference_samples_around_them():
    # A machine running at half the reference speed: the kernel takes twice
    # NOMINAL_S, and so does every job, which reads as half its raw time.
    slow = [[_records("a", 0.2, {}), _records("b", 0.6, {})] for _ in range(3)]
    for rec in (r for p in slow for r in p):
        rec["ref_s"] = 2 * reference.NOMINAL_S
    got = metrics.end_to_end(slow, 50.0, 0.2)
    assert got["wall_s"] == pytest.approx(0.4)
    assert got["cpu_s"] == pytest.approx(0.4)
    # One outlying sample does not move the median of its window.
    refs = [reference.NOMINAL_S] * 11
    refs[5] *= 10
    records = [_records("a", 0.1, {}) for _ in refs]
    for rec, ref in zip(records, refs):
        rec["ref_s"] = ref
    assert metrics.speed_factors(records) == pytest.approx([1.0] * 11)
    # Jobs that run worker processes are not scaled.
    cut = _records("a", 0.3, {}, budget_s=0.2, pool=True)
    cut["ref_s"] = 2 * reference.NOMINAL_S
    assert metrics.speed_factors([cut]) == [1.0]


def test_reference_kernel_answer():
    # Over Z_36 with weights {1, -1}, no zero-sum-free sequence is longer
    # than floor(log2 36) = 5, and {1, 2, 4, 8, 16} reaches that length.
    assert reference.longest_zero_sum_free() == 5


def test_per_layer_metrics_cover_the_table():
    rec = _records("product_one", 0.5, {"hit": 0},
                   span="metacyclic.has_product_one_subsequence")
    rec["id"] = "0:0"
    spans = [["metacyclic.has_product_one_subsequence", 0.0, 0.5, None, "0:0"]]
    got = metrics.per_layer([[rec]], spans, tracing.self_times(spans), 0.01,
                            25.0)
    assert set(got) == {m["name"] for m in metrics.spec()["per_layer"]}
    assert set(got) == set(metrics.MOVES)
    assert got["metacyclic.product_one_free_s"] == pytest.approx(0.5)
    assert got["metacyclic.product_one_hit_ratio"] == 0.0


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bracket", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
