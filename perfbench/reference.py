"""Regenerate the output references the benchmark checks against.

Usage (from the repository root):

    python3 perfbench/reference.py [--smoke] [WORKLOAD ...]

Runs every input set of each workload once through the same sample process
as the benchmark and stores the digests of checks.py in
``perfbench/reference/<workload>.json`` (``smoke.json`` with ``--smoke``).
References belong to the commit that generated them: regenerate only when
a change of results is intended, and say so.  Stops at the first command
that fails: no failing input is left out of a reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import workloads  # noqa: E402


def digests(workload: str, seed: int, smoke: bool) -> list[dict]:
    work = os.path.join(run.WORK, f"{os.getpid()}-reference")
    os.makedirs(work)
    try:
        commands = run.prepare(workload, seed, smoke, work)
        sample = run.run_sample(commands, False, work, 0)
        record = sample["record"]
        if record is None or any(record["codes"]):
            raise SystemExit(f"{workload} seed {seed} failed: {sample['stderr']}")
        return [checks.digest(c["mode"], c["output"]) for c in commands]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write(name: str, payload: dict) -> None:
    path = os.path.join(run.HERE, "reference", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    if args.smoke:
        write("smoke", {w: digests(w, 0, True) for w in args.workloads})
        return 0
    for workload in args.workloads:
        inputs = {}
        for index in range(workloads.POOL):
            inputs[str(index)] = digests(workload, index, False)
            print(f"{workload} input set {index}: {inputs[str(index)]}"[:160], flush=True)
        write(workload, {"pool": workloads.POOL, "inputs": inputs})
    return 0


if __name__ == "__main__":
    sys.exit(main())
