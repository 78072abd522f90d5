"""Per-layer metrics of one traced sample, computed from its spans.

Layers are spinfridge's modules.  Each metric below names the end-to-end
metric and workload it should move:

- config.load_s: setup_s on every workload.
- cli.run.self_s (run minus its child spans: formatting and writing the
  output) and cli.output_bytes: wall_s on evolve-exact.
- engine.build.*: wall_s on optimize-n30 and scaling-sweep.  first_s is
  the cold first build.  engine.sectors_* are per-build means.
- engine.series.*: wall_s on scaling-sweep (the compressed path).  Only
  series the engine computed count; answers from its cache do not.
- engine.grid_scan.*: wall_s and cpu_s on evolve-exact and optimize-n30.
  flops and bytes are computed from array sizes, not measured.
- engine.point_eval.*: single-time series evaluation, wall_s on
  optimize-n30.
- thermo.heat_currents.*: wall_s on evolve-exact.
- analysis.objective.*, analysis.optimizer.self_s, analysis.golden.*:
  wall_s on optimize-n30.  useful_ratio is engine builds over objective
  calls; the optimizer's memo cache lowers it.
- analysis.sweep.*: wall_s on scaling-sweep.  efficiency is summed point
  busy time over workers x sweep wall time; wait_s sums how long each
  point waited after the sweep started.
- analysis.fit.busy_s, analysis.neville.busy_s: expected negligible.
- markov.*: wall_s on markov-optimize.  nfev counts the RK45 right-hand
  side evaluations, polish.calls the dense-output interpolant evaluations.
- trace.unattributed_s: traced process wall time (launch to exit) that no
  span in the main process covers: interpreter start, imports, exit.

Tail latencies: ``*.p99_ms`` is the highest percentile with at least ten
samples beyond it (p99 from 1000 samples up), and ``*.tail_pct`` states
which percentile that was; ``*.calls`` is the sample count.
"""

from __future__ import annotations

import math
from collections import defaultdict


def metric_names(n_list) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [
        ("config.load_s", "s"),
        ("cli.run.self_s", "s"),
        ("cli.output_bytes", "B"),
        ("engine.build.calls", "count"),
        ("engine.build.busy_s", "s"),
        ("engine.build.first_s", "s"),
        ("engine.sectors_kept", "count"),
        ("engine.sectors_total", "count"),
        ("engine.sector_keep_ratio", "ratio"),
        ("engine.series.calls", "count"),
        ("engine.series.busy_s", "s"),
        ("engine.series.terms_kept", "count"),
        ("engine.series.keep_ratio", "ratio"),
        ("engine.grid_scan.calls", "count"),
        ("engine.grid_scan.busy_s", "s"),
        ("engine.grid_scan.first_s", "s"),
        ("engine.grid_scan.term_steps", "count"),
        ("engine.grid_scan.flops", "flop-computed"),
        ("engine.grid_scan.bytes", "B-computed"),
        ("engine.point_eval.calls", "count"),
        ("engine.point_eval.busy_s", "s"),
        ("thermo.heat_currents.calls", "count"),
        ("thermo.heat_currents.busy_s", "s"),
        ("analysis.objective.calls", "count"),
        ("analysis.objective.useful_ratio", "ratio"),
        ("analysis.objective.p50_ms", "ms"),
        ("analysis.objective.p99_ms", "ms"),
        ("analysis.objective.tail_pct", "%"),
        ("analysis.optimizer.self_s", "s"),
        ("analysis.golden.calls", "count"),
        ("analysis.golden.fevals", "count"),
        ("analysis.golden.busy_s", "s"),
        ("analysis.sweep.busy_s", "s"),
        *[(f"analysis.sweep.point_busy_s.n{n}", "s") for n in n_list],
        ("analysis.sweep.imbalance", "ratio"),
        ("analysis.sweep.efficiency", "ratio"),
        ("analysis.sweep.wait_s", "s"),
        ("analysis.fit.busy_s", "s"),
        ("analysis.neville.busy_s", "s"),
        ("markov.integrate.calls", "count"),
        ("markov.integrate.busy_s", "s"),
        ("markov.integrate.nfev", "count"),
        ("markov.liouvillian.busy_s", "s"),
        ("markov.polish.calls", "count"),
        ("markov.objective.calls", "count"),
        ("markov.objective.p50_ms", "ms"),
        ("markov.objective.p99_ms", "ms"),
        ("markov.objective.tail_pct", "%"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_s", "s"),
    ]


def tail(values) -> tuple[float, float, int]:
    """(median, tail value, tail percentile) of ``values`` by nearest rank."""
    if not values:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    n = len(ordered)
    pct = 99 if n >= 1000 else max(50, math.floor(100 * (n - 10) / n))
    median = ordered[math.ceil(0.5 * n) - 1]
    return median, ordered[math.ceil(pct * n / 100) - 1], pct


def union_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def sample_metrics(spans: list[dict], main_pid: int, process_wall_ns: int,
                   n_list) -> dict[str, float]:
    """Every per-layer metric of one traced sample except trace.overhead_ratio."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[str, list[dict]] = defaultdict(list)
    by_id = {}
    for span in spans:
        by_name[span["name"]].append(span)
        by_id[span["id"]] = span
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def dur(span) -> float:
        return (span["end"] - span["start"]) * 1e-9

    def busy(name, where=None) -> float:
        return sum(dur(s) for s in by_name[name] if where is None or where(s))

    def first(name) -> float:
        found = by_name[name]
        return dur(min(found, key=lambda s: s["start"])) if found else 0.0

    def total(name, field, where=None) -> int:
        return sum(s.get(field, 0) for s in by_name[name] if where is None or where(s))

    def self_time(name, child_names=None) -> float:
        out = 0.0
        for span in by_name[name]:
            kids = [
                (max(k["start"], span["start"]), min(k["end"], span["end"]))
                for k in children[span["id"]]
                if child_names is None or k["name"] in child_names
            ]
            out += dur(span) - union_ns(kids) * 1e-9
        return out

    def under(span, name) -> bool:
        parent = span["parent"]
        while parent is not None:
            node = by_id.get(parent)
            if node is None:
                return False
            if node["name"] == name:
                return True
            parent = node["parent"]
        return False

    m: dict[str, float] = {}
    m["config.load_s"] = busy("config.load")
    m["cli.run.self_s"] = self_time("cli.run")
    m["cli.output_bytes"] = total("cli.run", "output_bytes")

    builds = by_name["engine.build"]
    kept = total("engine.build", "sectors_kept")
    full = total("engine.build", "sectors_total")
    m["engine.build.calls"] = len(builds)
    m["engine.build.busy_s"] = busy("engine.build")
    m["engine.build.first_s"] = first("engine.build")
    m["engine.sectors_kept"] = kept / len(builds) if builds else 0.0
    m["engine.sectors_total"] = full / len(builds) if builds else 0.0
    m["engine.sector_keep_ratio"] = kept / full if full else 0.0

    def computed(s):
        return not s.get("hit")

    terms_kept = total("engine.series", "terms_kept", computed)
    terms_full = total("engine.series", "terms_full", computed)
    m["engine.series.calls"] = sum(1 for s in by_name["engine.series"] if computed(s))
    m["engine.series.busy_s"] = busy("engine.series", computed)
    m["engine.series.terms_kept"] = terms_kept
    m["engine.series.keep_ratio"] = terms_kept / terms_full if terms_full else 0.0

    m["engine.grid_scan.calls"] = len(by_name["engine.grid_scan"])
    m["engine.grid_scan.busy_s"] = busy("engine.grid_scan")
    m["engine.grid_scan.first_s"] = first("engine.grid_scan")
    for field in ("term_steps", "flops", "bytes"):
        m[f"engine.grid_scan.{field}"] = total("engine.grid_scan", field)
    m["engine.point_eval.calls"] = len(by_name["engine.point_eval"])
    m["engine.point_eval.busy_s"] = busy("engine.point_eval")

    m["thermo.heat_currents.calls"] = len(by_name["thermo.heat_currents"])
    m["thermo.heat_currents.busy_s"] = busy("thermo.heat_currents")

    objective = by_name["analysis.objective"]
    useful = sum(1 for s in builds if under(s, "analysis.objective"))
    m["analysis.objective.calls"] = len(objective)
    m["analysis.objective.useful_ratio"] = useful / len(objective) if objective else 0.0
    p50, p99, pct = tail([dur(s) * 1e3 for s in objective])
    m["analysis.objective.p50_ms"] = p50
    m["analysis.objective.p99_ms"] = p99
    m["analysis.objective.tail_pct"] = pct
    m["analysis.optimizer.self_s"] = self_time("analysis.optimizer", {"analysis.objective"})
    m["analysis.golden.calls"] = len(by_name["analysis.golden"])
    m["analysis.golden.fevals"] = total("analysis.golden", "fevals")
    m["analysis.golden.busy_s"] = busy("analysis.golden")

    points = by_name["analysis.sweep.point"]
    sweeps = by_name["analysis.sweep"]
    m["analysis.sweep.busy_s"] = busy("analysis.sweep")
    for n in n_list:
        m[f"analysis.sweep.point_busy_s.n{n}"] = busy(
            "analysis.sweep.point", lambda s, n=n: s.get("n") == n
        )
    point_busy = [dur(s) for s in points]
    m["analysis.sweep.imbalance"] = (
        max(point_busy) / (sum(point_busy) / len(point_busy)) if point_busy else 0.0
    )
    capacity = sum(s.get("workers", 1) * dur(s) for s in sweeps)
    m["analysis.sweep.efficiency"] = sum(point_busy) / capacity if capacity else 0.0
    wait = 0.0
    for point in points:
        sweep = next((s for s in sweeps if s["id"] == point["parent"]), None)
        if sweep is not None:
            wait += (point["start"] - sweep["start"]) * 1e-9
    m["analysis.sweep.wait_s"] = wait
    m["analysis.fit.busy_s"] = busy("analysis.fit")
    m["analysis.neville.busy_s"] = busy("analysis.neville")

    m["markov.integrate.calls"] = len(by_name["markov.integrate"])
    m["markov.integrate.busy_s"] = busy("markov.integrate")
    m["markov.integrate.nfev"] = total("markov.solve", "nfev")
    m["markov.liouvillian.busy_s"] = busy("markov.liouvillian")
    m["markov.polish.calls"] = len(by_name["markov.polish"])
    markov_objective = by_name["markov.objective"]
    p50, p99, pct = tail([dur(s) * 1e3 for s in markov_objective])
    m["markov.objective.calls"] = len(markov_objective)
    m["markov.objective.p50_ms"] = p50
    m["markov.objective.p99_ms"] = p99
    m["markov.objective.tail_pct"] = pct

    main_spans = [(s["start"], s["end"]) for s in spans if s["pid"] == main_pid]
    m["trace.unattributed_s"] = (process_wall_ns - union_ns(main_spans)) * 1e-9
    return m
