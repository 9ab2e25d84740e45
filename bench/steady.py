"""Steadiness self-check: do two sets of runs of the same code agree?

    python3 bench/steady.py --runs 10 --sets 2
    python3 bench/steady.py --workloads witness --runs 5 --sets 1

Runs ``bench/run.py`` for every workload, each run with its own seed, in
``--sets`` sets of ``--runs`` runs.  For every end-to-end metric and
workload it reports the spread of each set (the distance between the first
and third quartile as a share of the median) and how much the median of each
later set is worse than the first set's.  A metric agrees when every spread
stays within the metric's bound in BENCHMARK.json and no later median is
worse than the first by more than the bound.  The spread of ``setup_s`` is
reported, and flagged when wide, but does not decide agreement: the
start-up time of a fresh interpreter on the shared VM spread 0.09 to 0.30
from run to run, and neither reference that was tried for it helped (see
README.md), so only its median is bounded.  A spread at
or above a third of the bound is flagged as ``wide``.  The summary goes to
``bench/out/steady.json``; the exit code is 1 if any metric disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worsening(first, later, better):
    """How much ``later`` is worse than ``first``, as a share of ``first``;
    negative when it is better."""
    change = (later - first) / first
    return change if better == "lower" else -change


def verdict(sets, bound, better, check_spread=True):
    """Agreement of several sets of values of one metric."""
    spreads = [spread(values) for values in sets]
    medians = [statistics.median(values) for values in sets]
    worse = [worsening(medians[0], m, better) for m in medians[1:]]
    ok = all(w <= bound for w in worse)
    if check_spread:
        ok = ok and all(s <= bound for s in spreads)
    return {
        "medians": medians,
        "spreads": spreads,
        "worse_than_first": worse,
        "bound": bound,
        "agree": ok,
        "wide": any(s >= bound / 3 for s in spreads),
    }


def one_run(workload, seed, seconds):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} reported failures:\n{proc.stderr}")
    return result, elapsed


def main(argv=None):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    workloads = args.workloads.split(",")
    values = {w: [[] for _ in range(args.sets)] for w in workloads}
    elapsed = []
    seed = args.first_seed
    for s in range(args.sets):
        for w in workloads:
            for _ in range(args.runs):
                result, took = one_run(w, seed, args.seconds)
                elapsed.append(took)
                values[w][s].append(result["metrics"])
                print(f"set {s + 1} {w} seed {seed}: {took:.1f} s", flush=True)
                seed += 1

    report = {"runs": args.runs, "sets": args.sets, "seconds": args.seconds,
              "run_elapsed_max_s": max(elapsed), "metrics": {}}
    agree = True
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            sets = [[r[name]["value"] for r in runs] for runs in values[w]]
            v = verdict(sets, m["bound"], m["better"],
                        check_spread=name != "setup_s")
            report["metrics"][f"{w}.{name}"] = v
            agree &= v["agree"]
            flag = "ok" if v["agree"] else "DISAGREE"
            if v["wide"]:
                flag += " wide"
            print(f"{w:<10} {name:<12} median {v['medians'][0]:<12.6g} "
                  f"spread {' '.join(f'{x:.3f}' for x in v['spreads'])} "
                  f"worse {' '.join(f'{x:+.3f}' for x in v['worse_than_first'])} "
                  f"bound {m['bound']} {flag}")
    print(f"longest run {max(elapsed):.1f} s")
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / "steady.json", "w") as fh:
        json.dump(report, fh, indent=1)
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
