"""Write bench/expected.json: the outputs every checked job must reproduce.

    python3 bench/record.py

Runs each recorded job of every workload once (jobs whose outputs depend on
the seed are checked by independent tests instead and are skipped) plus
one set-up call, and stores their outputs with the commit they came from.
Re-record only when a job is added or its inputs change, never to absorb
a changed output.
"""

import hashlib
import json
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    import tracing
    import workloads

    _, code, stdout = run.run_setup_once()
    recorded = {
        "recorded_at": run.machine()["git_commit"],
        "setup": {"exit_code": code,
                  "stdout_sha256": hashlib.sha256(stdout).hexdigest()},
        "jobs": {},
    }
    for workload in workloads.WORKLOADS:
        jobs, _ = workloads.build(workload, 0)
        outs = {}
        for job in jobs:
            if job.recorded:
                outcome = job.finish(job.call(tracing.NullTracer()))
                if outcome.problems:
                    sys.exit(f"{job.name}: {outcome.problems}")
                outs[job.name] = outcome.out
                print(f"{workload}: {job.name} {outcome.out}", flush=True)
        recorded["jobs"][workload] = outs
    with open(run.BENCH / "expected.json", "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
