"""Run-to-run spread of the end-to-end metrics over seeds.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 0] [--out FILE] [WORKLOAD ...]

Runs ``run.py`` once per seed (seeds first-seed .. first-seed+runs-1) on
each workload with the ``run_seconds`` of BENCHMARK.json, and reports for
every end-to-end metric the median, the quartiles and the spread: the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median.  Each spread should stay below a third
of the metric's bound.  Each run's host steal share (CPU time the machine
gave to other guests) is shown too, since it is the main source of noise on
a shared virtual machine.  ``--out`` also writes the figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        steal: list[float] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            steal.extend(float(line.split()[1]) for line in lines if line.startswith("steal "))
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", flush=True)
                status = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.4f}" for n in bounds)
                + (f", steal={steal[-1]:.3f}" if steal else ""), flush=True)
        report[workload] = {"steal": steal}
        for name, bound in bounds.items():
            q1, q2, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            spread = (q3 - q1) / median
            report[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": values[name],
            }
            flag = "" if name == "setup_s" or spread < bound / 3 else "  ABOVE bound/3"
            print(f"{workload:16s} {name:12s} median {median:.4f} "
                  f"spread {spread:.4f} bound {bound}{flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
