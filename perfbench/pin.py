"""Pin the report digests of every job of the default seed (0).

    python3 perfbench/pin.py

Run from the root of a checkout whose reports are known good.  Each job runs
as a fresh CLI process; its report must pass the checks of jobs.py before
its digest is written to perfbench/pinned_reports.json.  Jobs whose command
line does not depend on the seed (build, hcore) are checked against these
digests on every seed.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs as jobs_mod  # noqa: E402
import run  # noqa: E402


def main() -> int:
    root = os.getcwd()
    jobs_mod.write_inputs(root)
    tmp = os.path.join(root, run.WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = run.child_env(root, tmp)
    pins = {}
    for workload in sorted(jobs_mod.WORKLOADS):
        for job in jobs_mod.make_jobs(workload, 0):
            result = run.run_subprocess(job["argv"], env, tmp)
            problems = jobs_mod.check_report(
                job, result["code"], result["stdout"], result["stderr"])
            if problems:
                print(f"{job['key']}: {problems}", file=sys.stderr)
                return 1
            pins[job["key"]] = run.digest(result["stdout"])
    path = os.path.join(run.BENCH_DIR, "pinned_reports.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(pins, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"pinned {len(pins)} reports in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
