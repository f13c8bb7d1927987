"""Run the benchmark over several seeds and print every end-to-end metric
by name and unit for each workload, with its median and run-to-run spread.

    python3 perfbench/spread.py [--seeds 10] [--baseline FILE]

Runs every workload of BENCHMARK.json at its run_seconds with seeds 1..N,
one run after another, from the root of a checkout.  The spread of a metric is
the distance between the first and third quartile of its values, as a share
of their median; BENCHMARK.json's bound for the metric should be at least
three times it.  The median child CPU time per job (user + system, from
the run's results file) is printed beside them, not as a benchmark metric:
its spread shows whether wall-time spread comes from the machine's speed or
from waiting.  --baseline writes the medians, quartiles and spreads as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
CPU = "job_cpu_p50_s"


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args()

    summary: dict = {}
    ok = True
    for workload in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        errors = attempted = 0
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            errors += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            results = os.path.join(".perfbench", "results", f"{workload}-seed{seed}-trace0.json")
            with open(results, encoding="utf-8") as handle:
                details = json.load(handle)["details"]
            values.setdefault(CPU, []).append(details["job_cpu_p50_s"])
            units[CPU] = "s"
        summary[workload] = {"error_rate": errors / attempted, "seeds": args.seeds}
        print(f"{workload}: error_rate {errors}/{attempted} (ratio)")
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            bound = bounds.get(name)
            if bound is None:
                flag = "  (child CPU time, not a benchmark metric)"
            else:
                flag = f" (bound {bound})"
                if spread >= bound / 3:
                    flag += "  <-- above a third of its bound"
            print(f"  {name:13s} median {median:10.5g} {units[name]:4s} "
                  f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.3f}{flag}", flush=True)
            summary[workload][name] = {
                "unit": units[name], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "values": xs,
            }
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as out:
            json.dump(summary, out, indent=1, sort_keys=True)
            out.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
