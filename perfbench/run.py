"""Benchmark of the spinfridge command line: seeded workloads, each sample a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run builds the workload's configs from the seed (see workloads.py), then
starts samples until ``--seconds`` have passed.  A sample is one fresh
Python process (sample.py) that calls ``spinfridge.cli.main`` for each of
the workload's commands, writing into ``.perfbench_work/``.  Every output is
checked against the reference stored in ``perfbench/reference/`` (see
checks.py); a command that exits non-zero or fails its check counts as
failed.  Failing inputs are never skipped or replaced.

End-to-end metrics (``--trace 0``), each the median over the run's samples:

- setup_s: launch of the sample process through interpreter start, imports
  and config loading, to the first call into ``cli.run``.
- wall_s: from entering ``cli.run`` until it returns with its output
  written, summed over the workload's commands.
- cpu_s: user plus system CPU time of the sample process and its children
  (pool workers), so a speed-up bought with more cores shows.
- peak_rss_mb: the sample process's peak resident memory plus the largest
  peak among its children (what getrusage reports).

``failed_ratio`` (failed over attempted commands) is printed with them; it
is the ``failed``/``attempted`` pair of the result line.

``--trace 1`` alternates untraced and traced samples.  Traced samples wrap
the public callables of each module from outside (tracer.py) and report the
per-layer metrics of layers.py, medians over traced samples, plus
``trace.overhead_ratio`` (median traced over untraced wall_s).

Nothing here sets BLAS or worker variables: the program runs as shipped,
and the environment block printed before the result says what it saw.

``--smoke`` runs every workload at N=2 with a few evaluations and short
grids, one untraced and one traced sample each, and exits non-zero if any
output check fails or any metric is missing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SAMPLE = os.path.join(HERE, "sample.py")
WORK = os.path.join(ROOT, ".perfbench_work")
SAMPLE_TIMEOUT_S = 120.0

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]


def reference_path(workload: str, smoke: bool) -> str:
    name = "smoke" if smoke else workload
    return os.path.join(HERE, "reference", f"{name}.json")


def output_name(mode: str, k: int) -> str:
    return f"out-{k}.{'csv' if mode == 'evolve' else 'json'}"


def prepare(workload: str, seed: int, smoke: bool, work: str) -> list[dict]:
    """Write the workload's configs; return the commands for sample.py."""
    import workloads

    commands = []
    for k, config in enumerate(workloads.commands(workload, seed, smoke)):
        config_path = os.path.join(work, f"config-{k}.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        commands.append({
            "mode": config["mode"],
            "config": config_path,
            "output": os.path.join(work, output_name(config["mode"], k)),
            "raw": config,
        })
    return commands


def run_sample(commands: list[dict], trace: bool, work: str, index: int) -> dict:
    """Start one sample process, wait for it, and return what it measured."""
    spans_dir = os.path.join(work, f"spans-{index}")
    if trace:
        os.makedirs(spans_dir)
    for command in commands:
        if os.path.exists(command["output"]):
            os.remove(command["output"])
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({
            "commands": [{k: c[k] for k in ("mode", "config", "output")} for c in commands],
            "trace": trace,
            "spans_dir": spans_dir,
        }, fh)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    launch = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, SAMPLE, plan_path, str(launch)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    end = time.monotonic_ns()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = None
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    sample = {
        "record": record,
        "stderr": err.strip(),
        "trace": trace,
        "process_wall_ns": end - launch,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
    }
    if record is not None:
        entries, exits = record["entries"], record["exits"]
        sample["setup_s"] = (entries[0] - launch) * 1e-9 if entries else None
        sample["wall_s"] = sum(b - a for a, b in zip(entries, exits)) * 1e-9
        sample["peak_rss_mb"] = record["peak_rss_kb"] / 1024.0
    if trace:
        sample["spans"] = []
        for path in sorted(glob.glob(os.path.join(spans_dir, "spans-*.json"))):
            with open(path, encoding="utf-8") as fh:
                sample["spans"].extend(json.load(fh))
    return sample


def check_sample(sample: dict, commands: list[dict], refs: list[dict],
                 residual_errors: list[list[str]]) -> list[list[str]]:
    """One error list per command: exit status, output check, residuals."""
    import checks

    record = sample["record"]
    results = []
    for k, command in enumerate(commands):
        errors = list(residual_errors[k])
        if record is None:
            errors.append(f"sample process failed: {sample['stderr'][-300:]}")
        elif record["codes"][k] != 0:
            errors.append(f"exit code {record['codes'][k]}: {sample['stderr'][-300:]}")
        else:
            try:
                errors.extend(checks.compare(
                    checks.digest(command["mode"], command["output"]), refs[k]
                ))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors.append(f"unreadable output {command['output']}: {exc!r}")
        results.append(errors)
    return results


def blas_info() -> dict:
    """The BLAS library numpy loaded and the thread count it reports."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"library": blas.get("name"), "version": blas.get("version"),
            "threads": None, "config": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is None:
                continue
            threads.restype = ctypes.c_int
            info["threads"] = int(threads())
            if config is not None:
                config.restype = ctypes.c_char_p
                info["config"] = config().decode()
            return info
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    sha = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "spinfridge", "*.py"))):
        sha.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return {
        "cores": os.cpu_count(),
        "blas": blas_info(),
        "SPINFRIDGE_WORKERS": os.environ.get("SPINFRIDGE_WORKERS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": sha.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            work: str) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the human-readable lines."""
    import checks
    import layers
    import workloads

    os.makedirs(work)
    commands = prepare(workload, seed, smoke, work)
    index = seed % workloads.POOL
    with open(reference_path(workload, smoke), encoding="utf-8") as fh:
        reference = json.load(fh)
    refs = reference[workload] if smoke else reference["inputs"][str(index)]

    residual_errors = [[] for _ in commands]
    residuals = {}
    if workload == "evolve-exact":
        for k, command in enumerate(commands):
            try:
                residuals[k] = checks.evolve_residuals(command["raw"])
                residual_errors[k] = checks.residual_errors(residuals[k])
            except (ValueError, ArithmeticError) as exc:
                residual_errors[k] = [f"residual check raised {exc!r}"]

    samples = []
    cpu_ticks = _cpu_ticks()
    deadline = time.monotonic() + seconds
    while True:
        for traced in ((False, True) if trace else (False,)):
            sample = run_sample(commands, traced, work, len(samples))
            sample["errors"] = check_sample(sample, commands, refs, residual_errors)
            samples.append(sample)
        if time.monotonic() >= deadline:
            break

    attempted = sum(len(s["errors"]) for s in samples)
    failed = sum(1 for s in samples for errors in s["errors"] if errors)
    ok = [s for s in samples if s["record"] is not None]
    lines = [
        f"workload {workload}  seed {seed} (input set {index} of {workloads.POOL})"
        f"  smoke {int(smoke)}  trace {int(trace)}  samples {len(samples)}",
        "env " + json.dumps(environment(), sort_keys=True),
    ]
    steal = _steal_share(cpu_ticks, _cpu_ticks())
    if steal is not None:
        lines.append(f"steal {steal:.3f} of this machine's CPU time went to other guests"
                     " while sampling (from /proc/stat; high values mean noisy timings)")
    if residuals:
        lines.append("evolve residuals " + json.dumps(residuals))
    metrics = {}
    untraced = [s for s in ok if not s["trace"]]
    if not trace:
        for name, unit in END_TO_END:
            values = [s[name] for s in untraced if s.get(name) is not None]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        n_list = workloads.sweep_n_list(smoke)
        traced = [s for s in ok if s["trace"]]
        per_sample = [
            layers.sample_metrics(s["spans"], s["record"]["pid"], s["process_wall_ns"], n_list)
            for s in traced
        ]
        for name, unit in layers.metric_names(n_list):
            if name == "trace.overhead_ratio":
                if traced and untraced:
                    value = (statistics.median(s["wall_s"] for s in traced)
                             / statistics.median(s["wall_s"] for s in untraced))
                    metrics[name] = {"value": value, "unit": unit}
            elif per_sample:
                value = statistics.median(m[name] for m in per_sample)
                metrics[name] = {"value": value, "unit": unit}
        missing = sorted({n for s in traced for n in s["record"]["missing_spans"]})
        if missing:
            lines.append(f"not traced (callable absent): {', '.join(missing)}")
        if any(_parent_side_only(s) for s in traced):
            lines.append("sweep worker spans not collected: sweep layer metrics are parent-side only")
        lines.append(
            f"tail percentiles: analysis.objective p{_pct(metrics, 'analysis')} "
            f"and markov.objective p{_pct(metrics, 'markov')} over the .calls samples"
        )
    for name, entry in metrics.items():
        lines.append(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    lines.append(f"{'failed_ratio':40s} {failed / attempted if attempted else 1.0:.6g} ratio"
                 f" ({failed} of {attempted} commands)")
    for s in samples:
        for k, errors in enumerate(s["errors"]):
            for error in errors:
                lines.append(f"FAILED command {k}: {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _cpu_ticks() -> list[int] | None:
    """Aggregate CPU time counters of /proc/stat, or None where absent."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after) -> float | None:
    """Share of all CPU time that the hypervisor gave to other guests."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user nice system idle iowait irq softirq steal
    return delta[7] / total if total else None


def _pct(metrics: dict, layer: str) -> int:
    entry = metrics.get(f"{layer}.objective.tail_pct")
    return int(entry["value"]) if entry else 0


def _parent_side_only(sample: dict) -> bool:
    spans = sample["spans"]
    pool = any(s["name"] == "analysis.sweep" and s.get("workers", 1) > 1 for s in spans)
    main = sample["record"]["pid"]
    return pool and not any(s["pid"] != main for s in spans)


def smoke(work: str) -> int:
    """Every workload at tiny sizes, untraced and traced; 0 when all is well."""
    import layers
    import workloads

    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result, lines = measure(workload, 0, 0.0, trace, True,
                                    os.path.join(work, f"{workload}-{int(trace)}"))
            names = (layers.metric_names(workloads.sweep_n_list(True)) if trace
                     else END_TO_END)
            absent = [n for n, _ in names if n not in result["metrics"]]
            good = result["correct"] and not absent
            status |= not good
            print(f"smoke {workload} trace {int(trace)}: "
                  f"{'ok' if good else 'FAILED'}"
                  + (f" (missing {absent})" if absent else ""))
            if not good:
                print("\n".join(lines))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check the harness")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spinfridge", "cli.py")):
        print(f"no spinfridge sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    compileall.compile_dir(SRC, quiet=1)
    import workloads

    if not args.smoke and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work = os.path.join(WORK, str(os.getpid()))
    try:
        if args.smoke:
            return smoke(work)
        result, lines = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), False, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
