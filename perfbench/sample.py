"""One benchmark sample: a workload's CLI commands in this fresh process.

Usage: python3 perfbench/sample.py PLAN_JSON LAUNCH_NS

PLAN_JSON lists the commands (mode, config path, output path), whether to
trace, and where spans go.  LAUNCH_NS is the launcher's ``monotonic_ns``
just before it started this process, so set-up time counts interpreter
start, imports and config loading.  The last line of standard output is
one JSON record: entry and exit times of each ``cli.run`` call, exit codes,
peak resident memory and this process's id.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spinfridge import cli  # noqa: E402


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    launch_ns = int(sys.argv[2])

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer(plan["spans_dir"])
        tracer.install()

    entries: list[int] = []
    exits: list[int] = []
    run = cli.run

    def timed_run(config):
        entries.append(time.monotonic_ns())
        try:
            run(config)
        finally:
            exits.append(time.monotonic_ns())

    cli.run = timed_run
    codes = []
    for k, command in enumerate(plan["commands"]):
        if tracer is not None:
            tracer.run_id = k
        codes.append(cli.main(
            [command["mode"], command["config"], "--output", command["output"]]
        ))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer is not None:
        tracer.flush()
    print(json.dumps({
        "launch_ns": launch_ns,
        "entries": entries,
        "exits": exits,
        "codes": codes,
        "peak_rss_kb": own + children,
        "pid": os.getpid(),
        "missing_spans": tracer.missing if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
