"""Layered benchmark for davlab.

Run from anywhere inside a checkout of the repository:

    python3 bench/run.py --workload bracket --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One run drives one workload (see workloads.py) as a closed loop: a single
client in this process sends each job when the previous one has returned,
pass after pass over the job list, in a seeded order, for about
``--seconds`` seconds.  ``--workload all`` runs every workload in its own
fresh process and prints one table.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it spends half its time on untraced passes and half on traced
ones, and reports the per-layer metrics, with the gap between the two
halves' pass times as the tracing overhead.

Every output is checked outside the timed region, against expected.json or
an independent check; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record (job
timings, work counters, failures, machine, spans) goes to
``bench/out/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import reference
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Fresh interpreters started per run to time the CLI's start-up cost.
SETUP_RUNS = 15
SETUP_ARGS = ("involutions", "--n", "24")
SETUP_CODE = "import sys; from davlab.cli import main; main()"
# Passes per run never go below this, however short --seconds is.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_expected():
    with open(BENCH / "expected.json") as fh:
        return json.load(fh)


def run_setup_once():
    """Wall time, exit code and stdout of one fresh `davlab involutions`."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *SETUP_ARGS],
        env=child_env(), cwd=ROOT, capture_output=True, timeout=60,
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def measure_setup(expected, failures):
    """Median wall time of SETUP_RUNS set-up calls, and every sample."""
    times = []
    for _ in range(SETUP_RUNS):
        seconds, code, stdout = run_setup_once()
        times.append(seconds)
        got = {"exit_code": code,
               "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
        if got != expected["setup"]:
            failures.append({"job": "setup", "problems": [
                f"output {got} != recorded {expected['setup']}"]})
    return statistics.median(times), times


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_job(job, job_id, tracer, expected, failures):
    ref_s = reference.sample()
    tracer.job = job_id
    ch0 = children_cpu()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with tracer.span(job.span):
            raw = job.call(tracer)
        error = None
    except Exception:
        raw, error = None, traceback.format_exc()
    t1 = time.perf_counter()
    c1 = time.process_time()
    ch1 = children_cpu()
    tracer.job = None
    record = {
        "id": job_id, "name": job.name, "kind": job.kind, "span": job.span,
        "budget_s": job.budget_s, "pool": job.pool, "seconds": t1 - t0,
        "cpu_s": (c1 - c0) + (ch1 - ch0), "ref_s": ref_s, "counts": {},
        "failed": False,
    }
    problems = [error] if error else []
    if not error:
        try:
            outcome = job.finish(raw)
        except Exception:
            problems.append(traceback.format_exc())
        else:
            record["counts"] = outcome.counts
            problems += outcome.problems
            if job.recorded:
                want = expected.get(job.name)
                if want is None:
                    problems.append("no recorded output for this job")
                elif want != outcome.out:
                    problems.append(f"output {outcome.out} != recorded {want}")
    if problems:
        record["failed"] = True
        failures.append({"job": job.name, "problems": problems})
    return record


def run_passes(jobs, rng, seconds, tracer, expected, failures, min_passes,
               first_pass=0):
    """Passes over the jobs in seeded order until another pass of average
    length would overrun ``seconds``, but at least ``min_passes``."""
    passes = []
    start = time.perf_counter()
    while True:
        order = list(jobs)
        rng.shuffle(order)
        index = first_pass + len(passes)
        passes.append([
            run_job(job, f"{index}:{i}", tracer, expected, failures)
            for i, job in enumerate(order)
        ])
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed + elapsed / len(passes) > seconds):
            return passes


def product_one_peak_mb(jobs, failures):
    """tracemalloc peak of workloads.peak_job(), called outside any timed
    pass, and the number of calls made: none for a workload without
    product-one jobs."""
    import workloads

    if not any(job.kind == "product_one" for job in jobs):
        return 0.0, 0
    job = workloads.peak_job()
    tracemalloc.start()
    raw = job.call(tracing.NullTracer())
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    problems = job.finish(raw).problems
    if problems:
        failures.append({"job": job.name, "problems": problems})
    return peak, 1


def machine():
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "davlab").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


def run_workload(workload, seed, seconds, trace):
    import metrics
    import workloads

    expected = load_expected()
    failures = []
    jobs, rng = workloads.build(workload, seed)
    want = expected["jobs"][workload]
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine()}
    if trace:
        untraced = run_passes(jobs, rng, seconds / 2, tracing.NullTracer(),
                              want, failures, MIN_TRACED_PASSES)
        t0 = time.perf_counter()
        peak_mb, probes = product_one_peak_mb(jobs, failures)
        left = seconds / 2 - (time.perf_counter() - t0)
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        passes = run_passes(jobs, rng, left, tracer, want, failures,
                            MIN_TRACED_PASSES, first_pass=len(untraced))
        overhead = (statistics.fmean(metrics.pass_walls(passes))
                    - statistics.fmean(metrics.pass_walls(untraced)))
        values = metrics.per_layer(passes, tracer.spans,
                                   tracing.self_times(tracer.spans), overhead,
                                   peak_mb)
        record["untraced_passes"] = untraced
        record["spans"] = tracer.spans
        attempted = sum(len(p) for p in untraced + passes) + probes
    else:
        t0 = time.perf_counter()
        setup_s, record["setup_s"] = measure_setup(expected, failures)
        left = seconds - (time.perf_counter() - t0)
        passes = run_passes(jobs, rng, left, tracing.NullTracer(), want,
                            failures, MIN_PASSES)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = metrics.end_to_end(passes, peak, setup_s)
        attempted = sum(len(p) for p in passes) + SETUP_RUNS
    failed = len(failures)
    samples = sum(len(p) for p in passes)
    record.update(passes=passes, failures=failures, metrics=values,
                  attempted=attempted, failed=failed)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh)

    for f in failures:
        print(f"FAILED {f['job']}: {' | '.join(f['problems'])}", file=sys.stderr)
    units = metrics.units()
    for name, value in values.items():
        note = f"  ({samples} jobs in {len(passes)} passes)" \
            if name.startswith("job_p") else ""
        print(f"{workload:<10} {name:<34} {value:>14.6g} "
              f"{units[name]}{note}")
    print(f"{workload:<10} {'fail_ratio':<34} {failed / attempted:>14.6g} "
          f"({failed} of {attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }


def run_all(seed, seconds, trace):
    """Every workload in its own fresh process, one table at the end."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bracket", "witness", "metacyclic",
                                 "budgeted", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "davlab" / "__init__.py").is_file():
        fail(f"no davlab sources under {SRC}; run inside a repository checkout")
    sys.path.insert(0, str(SRC))
    if not args.seconds > 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
