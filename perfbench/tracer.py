"""Spans around the public callables of each spinfridge module, from outside.

``Tracer.install`` replaces each traced callable at every place it can be
reached: functions in every ``spinfridge`` module namespace that holds them
(``cli`` imports most of them by name), methods on their classes.  Nothing
under ``src/`` is edited.

Each span records name, start, end, parent span, run id (the index of the
CLI command in the sample) and process id, plus a few counts taken from
the call's arguments and result after the span has ended.  Spans are held
in memory and written out when the process ends: the sample script writes
the main process's spans, and each forked worker of the scaling sweep's
process pool writes its own from a multiprocessing exit finalizer.
Times are ``time.monotonic_ns``, one clock for every process of a sample.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing.util
import os
import sys
import time
import weakref

# name -> (module, attribute) of every traced callable.  Classes are
# patched in place; functions are replaced wherever a spinfridge module
# holds them.
TARGETS = {
    "config.load": ("config", "load_config"),
    "cli.run": ("cli", "run"),
    "engine.build": ("engine", "RefrigeratorEngine.__init__"),
    "engine.series": ("engine", "RefrigeratorEngine.series_terms"),
    "engine.grid_scan": ("engine", "SeriesTerms.on_grid"),
    "engine.point_eval": ("engine", "SeriesTerms.at"),
    "thermo.heat_currents": ("thermo", "heat_current_series"),
    "analysis.optimize": ("analysis", "optimize_t1"),
    "analysis.optimizer": ("analysis", "minimize_box"),
    "analysis.golden": ("analysis", "golden_section_min"),
    "analysis.sweep": ("analysis", "scaling_sweep"),
    # the per-N job of the sweep's process pool; pickled by reference, so
    # the forked workers run the wrapper
    "analysis.sweep.point": ("analysis", "_sweep_point"),
    "analysis.fit": ("analysis", "fit_power_law"),
    "analysis.neville": ("analysis", "neville_extrapolate"),
    "markov.optimize": ("markov", "markov_optimize"),
    "markov.integrate": ("markov", "integrate_gksl"),
    "markov.solve": ("markov", "solve_ivp"),
    "markov.liouvillian": ("markov", "liouvillian_matrix"),
    "markov.polish": ("markov", "MarkovTrajectory.state_at"),
}


class Tracer:
    """In-memory span recorder for one process and its forked workers."""

    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.spans: list[dict] = []
        self.stack: list[tuple[str, str]] = []  # open (span id, name)
        self.pid = os.getpid()
        self.run_id = 0
        self.missing: list[str] = []
        self._count = 0
        self._seen_series = weakref.WeakValueDictionary()  # id -> live result

    # -- recording -------------------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked pool worker: keep the open parent spans, drop the finished ones."""
        self.pid = os.getpid()
        self.spans = []
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(span, args, kwargs, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count += 1
            span_id = f"{tracer.pid}:{tracer._count}"
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.stack.append((span_id, name))
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                tracer.stack.pop()
            span = {
                "name": name, "start": start, "end": end, "parent": parent,
                "run": tracer.run_id, "id": span_id, "pid": tracer.pid,
            }
            if after is not None:
                after(span, args, kwargs, result)
            tracer.spans.append(span)
            return result

        return traced

    def flush(self) -> None:
        """Write this process's spans to ``spans_dir/spans-<pid>.json``."""
        path = os.path.join(self.spans_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; names of absent ones go to ``missing``."""
        import spinfridge.cli  # noqa: F401  (imports every traced module)

        hooks = {
            "cli.run": _output_bytes,
            "engine.build": _sector_counts,
            "engine.series": self._series_counts,
            "engine.grid_scan": _grid_counts,
            "analysis.sweep": _sweep_workers,
            "analysis.sweep.point": _point_n,
            "markov.solve": _nfev,
        }
        for name, (module_name, attr) in TARGETS.items():
            module = sys.modules.get(f"spinfridge.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None)
            if original is None:
                self.missing.append(name)
                continue
            if name == "analysis.optimizer":
                wrapper = self._wrap_optimizer(original)
            elif name == "analysis.golden":
                wrapper = self._wrap_golden(original)
            else:
                wrapper = self.wrap(name, original, after=hooks.get(name))
            if owner_name:
                setattr(owner, method, wrapper)
            else:
                _replace_everywhere(original, wrapper)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _layer_of_optimizer(self) -> str:
        open_names = [name for _, name in self.stack]
        return "markov" if "markov.optimize" in open_names else "analysis"

    def _wrap_optimizer(self, original):
        """``minimize_box`` span, with its objective calls as child spans."""
        tracer = self

        @functools.wraps(original)
        def minimize_box(func, *args, **kwargs):
            layer = tracer._layer_of_optimizer()
            objective = tracer.wrap(f"{layer}.objective", func)
            return tracer.wrap(f"{layer}.optimizer", original)(objective, *args, **kwargs)

        return minimize_box

    def _wrap_golden(self, original):
        """Golden-section span counting its function evaluations."""
        tracer = self

        @functools.wraps(original)
        def golden_section_min(f, *args, **kwargs):
            calls = [0]

            def counted(t):
                calls[0] += 1
                return f(t)

            def fevals(span, *_):
                span["fevals"] = calls[0]

            return tracer.wrap("analysis.golden", original, after=fevals)(
                counted, *args, **kwargs
            )

        return golden_section_min

    def _series_counts(self, span, args, kwargs, result) -> None:
        """Kept terms, uncompressed terms, and whether the engine's cache answered."""
        span["hit"] = self._seen_series.get(id(result)) is result
        if span["hit"]:
            return
        self._seen_series[id(result)] = result
        span["terms_kept"] = int(result.amps.size)
        key = args[1] if len(args) > 1 else kwargs.get("key")
        span["terms_full"] = _uncompressed_terms(args[0], key)


def _replace_everywhere(original, wrapper) -> None:
    """Point every spinfridge module attribute that holds ``original`` at ``wrapper``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "spinfridge" and not mod_name.startswith("spinfridge."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


# -- counts read after a span ends ---------------------------------------------

def _output_bytes(span, args, kwargs, result) -> None:
    path = getattr(args[0], "output_path", None)
    span["output_bytes"] = os.path.getsize(path) if path and os.path.exists(path) else 0


def _sector_counts(span, args, kwargs, result) -> None:
    engine = args[0]
    span["sectors_kept"] = int(sum(g.size for g in getattr(engine, "groups", ())))
    span["sectors_total"] = int(math.prod(n + 2 for n in engine.params.n_bath))


def _uncompressed_terms(engine, key) -> int:
    """Gap terms of one observable before compression: one per level pair."""
    total = 0
    for group in getattr(engine, "groups", ()):
        if group.dim < 2:
            continue
        if key and key[0] == "hsb" and group.dims[key[1] - 1] != 2:
            continue
        if key and key[0] == "hint" and (group.dims != (2, 2, 2) or engine.params.g == 0.0):
            continue
        total += group.size * group.dim * (group.dim - 1) // 2
    return total


def _grid_counts(span, args, kwargs, result) -> None:
    """Work of the cosine/sine recurrence, computed from array sizes.

    Per grid step and term: the recurrence multiplies and subtracts (2 flops)
    and reads two_cos, cur and prev and writes the new value (32 bytes); each
    of the k series rows then adds a multiply-add per term (2 flops, 8 bytes
    of amplitude).
    """
    terms = args[0]
    n = args[3] if len(args) > 3 else kwargs["n"]
    m = int(terms.omegas.size)
    rows = int(terms.amps.shape[0]) if terms.amps.ndim == 2 else 1
    span["term_steps"] = m * n * rows
    span["flops"] = m * n * (2 + 2 * rows)
    span["bytes"] = m * n * (32 + 8 * rows)


def _sweep_workers(span, args, kwargs, result) -> None:
    from spinfridge.analysis import worker_count

    n_list = args[1] if len(args) > 1 else kwargs["n_list"]
    workers = kwargs.get("workers") or worker_count()
    jobs = len(list(n_list))
    span["workers"] = min(workers, jobs) if workers > 1 and jobs > 1 else 1


def _point_n(span, args, kwargs, result) -> None:
    span["n"] = int(args[0][1])


def _nfev(span, args, kwargs, result) -> None:
    span["nfev"] = int(getattr(result, "nfev", 0))
