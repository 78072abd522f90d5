"""Run configuration: JSON schema, validation with field paths, canonical form.

A config file is a single JSON object.  Each command form reads a fixed set
of fields, listed once in ``COMMAND_FIELDS``: a field outside its row is a
config error, and every run embeds exactly the fields of its row, fully
resolved (canonical JSON, sorted keys), in the output as a provenance
header that parses back into an equivalent config.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Any

from .analysis import DEFAULT_BUDGET, DEFAULT_RANGES, DEFAULT_TIME_GRID
from .engine import DEFAULT_PRUNE_TOL, RefrigeratorParams
from .markov import DEFAULT_ALPHA_RANGE, DEFAULT_CUTOFF, MarkovParams
from .series import TimeGrid

MODES = ("single", "evolve", "optimize", "scaling", "markov", "validate")
JSON_COMMANDS = ("optimize", "scaling", "validate", "markov optimize")
_GRID = ("start", "stop", "step")
_OUTPUT = ("path", "format")
_STAR = ("epsilon", "bath_energy", "coupling", "n_bath", "beta", "temperature")
_FRIDGE = _STAR + ("g",)
_MARKOV = ("epsilon", "g", "alpha", "beta", "temperature", "cutoff")
_SEARCH = ("coupling_range", "g_range", "budget", "seed")
# The fields each command form reads, per object: "" holds the top level's
# own values, and every other key is an object the top level holds.
COMMAND_FIELDS = {
    "single": {"": ("mode",), "params": _STAR, "time_grid": _GRID,
               "output": _OUTPUT},
    "evolve": {"": ("mode", "prune_tol"), "params": _FRIDGE, "time_grid": _GRID,
               "output": _OUTPUT},
    "optimize": {"": ("mode", "prune_tol"), "params": _FRIDGE, "time_grid": _GRID,
                 "optimization": _SEARCH, "output": _OUTPUT},
    "scaling": {"": ("mode", "prune_tol", "n_list"), "params": _FRIDGE, "time_grid": _GRID,
                "optimization": _SEARCH, "output": _OUTPUT},
    "validate": {"": ("mode",), "params": _FRIDGE, "output": _OUTPUT},
    "markov evolve": {"": ("mode", "action"), "params": _MARKOV, "time_grid": _GRID,
                      "output": _OUTPUT},
    "markov optimize": {"": ("mode", "action"), "params": _MARKOV, "time_grid": _GRID,
                        "optimization": ("g_range", "alpha_range", "budget", "seed"),
                        "output": _OUTPUT},
}


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _require(data: dict, key: str, path: str) -> Any:
    if key not in data:
        raise ConfigError(f"{path}{key}: missing required field")
    return data[key]


def _finite_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return float(value)


def _integer(value: Any, path: str, least: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "positive" if least == 1 else "nonnegative"
        raise ConfigError(f"{path}: expected a {kind} integer, got {value!r}")
    return value


def _triple(value: Any, path: str, kind="number") -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{path}: expected a list of three entries, got {value!r}")
    if kind == "int":
        return tuple(_integer(v, f"{path}[{k}]") for k, v in enumerate(value))
    return tuple(_finite_number(v, f"{path}[{k}]") for k, v in enumerate(value))


def _per_pair(value: Any, path: str, triple: bool, kind="number") -> tuple:
    """Three per-pair entries from a list, or one pair's entry from a scalar."""
    if triple:
        return _triple(value, path, kind)
    return ((_integer if kind == "int" else _finite_number)(value, path),)


def _resolve_beta(data: dict, path: str, triple: bool) -> tuple:
    """Exactly one of beta / temperature, converted to a tuple of betas."""
    has_beta = "beta" in data
    has_temp = "temperature" in data
    if has_beta == has_temp:
        raise ConfigError(
            f"{path}: provide exactly one of 'beta' or 'temperature'"
        )
    raw = _per_pair(data.get("beta", data.get("temperature")), path, triple)
    for v in raw:
        if v <= 0:
            raise ConfigError(f"{path}: values must be positive, got {v}")
    return raw if has_beta else tuple(1.0 / v for v in raw)


@dataclass(frozen=True)
class OptimizationConfig:
    coupling_range: tuple[float, float] = DEFAULT_RANGES[0]
    g_range: tuple[float, float] = DEFAULT_RANGES[3]
    alpha_range: tuple[float, float] = DEFAULT_ALPHA_RANGE
    budget: int = DEFAULT_BUDGET
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    mode: str
    refrigerator: RefrigeratorParams | None = None  # one pair for 'single'
    markov: MarkovParams | None = None
    markov_action: str = "evolve"
    time_grid: TimeGrid = DEFAULT_TIME_GRID
    prune_tol: float = DEFAULT_PRUNE_TOL
    optimization: OptimizationConfig = OptimizationConfig()
    n_list: tuple[int, ...] = ()
    output_path: str = "out"
    output_format: str = "csv"


def _command(mode: str, markov_action: str) -> str:
    """The command form: the mode, with the action for ``markov``."""
    return f"markov {markov_action}" if mode == "markov" else mode


def _parse_refrigerator(data: dict, path: str, triple: bool = True) -> RefrigeratorParams:
    """Three pairs from per-pair lists or, unless ``triple``, one pair from
    scalars: a single star, which has no interaction (g = 0)."""
    beta = _resolve_beta(data, f"{path}.beta", triple)
    return RefrigeratorParams(
        epsilon=_per_pair(_require(data, "epsilon", f"{path}."), f"{path}.epsilon", triple),
        bath_energy=_per_pair(
            _require(data, "bath_energy", f"{path}."), f"{path}.bath_energy", triple
        ),
        coupling=_per_pair(
            data.get("coupling", [0.0, 0.0, 0.0] if triple else 0.0), f"{path}.coupling", triple
        ),
        g=_finite_number(data.get("g", 0.0), f"{path}.g") if triple else 0.0,
        n_bath=_per_pair(_require(data, "n_bath", f"{path}."), f"{path}.n_bath", triple, "int"),
        beta=beta,
    )


def _parse_markov(data: dict, path: str) -> MarkovParams:
    beta = _resolve_beta(data, f"{path}.beta", triple=True)
    return MarkovParams(
        epsilon=_triple(_require(data, "epsilon", f"{path}."), f"{path}.epsilon"),
        g=_finite_number(data.get("g", 0.0), f"{path}.g"),
        alpha=_triple(data.get("alpha", [0.0, 0.0, 0.0]), f"{path}.alpha"),
        beta=beta,
        cutoff=_finite_number(data.get("cutoff", DEFAULT_CUTOFF), f"{path}.cutoff"),
    )


def _parse_params(data: dict, parse, *args):
    """``parse`` applied to ``data["params"]``; a rejected value names the section."""
    params = _require(data, "params", "")
    if not isinstance(params, dict):
        raise ConfigError("params: expected an object")
    try:
        return parse(params, "params", *args)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"params: {exc}") from exc


def _parse_range(value: Any, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected [low, high], got {value!r}")
    lo = _finite_number(value[0], f"{path}[0]")
    hi = _finite_number(value[1], f"{path}[1]")
    if lo < 0:  # couplings, g and alpha are all nonnegative
        raise ConfigError(f"{path}[0]: must be nonnegative, got {lo}")
    if hi < lo:
        raise ConfigError(f"{path}: high bound below low bound")
    return lo, hi


def parse_config(data: dict, mode: str | None = None) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig for ``mode``.

    The mode (and a Markov run's action) names the command form.  A field
    in its ``COMMAND_FIELDS`` row that is absent takes its default; once
    every value is checked, a field outside the row is rejected.
    """
    if not isinstance(data, dict):
        raise ConfigError(": top level must be a JSON object")
    cfg_mode = data.get("mode", mode)
    if cfg_mode is None:
        raise ConfigError("mode: missing (not in config and no command given)")
    if cfg_mode not in MODES:
        raise ConfigError(f"mode: unknown mode {cfg_mode!r}, expected one of {MODES}")
    if mode is not None and cfg_mode != mode:
        raise ConfigError(
            f"mode: config says {cfg_mode!r} but the command is {mode!r}"
        )

    grid_data = data.get("time_grid", {})
    if not isinstance(grid_data, dict):
        raise ConfigError("time_grid: expected an object")
    fields = [_finite_number(grid_data.get(name, getattr(DEFAULT_TIME_GRID, name)),
                             f"time_grid.{name}") for name in _GRID]
    try:
        time_grid = TimeGrid(*fields)
    except ValueError as exc:  # the message names the field
        raise ConfigError(str(exc)) from exc
    if time_grid.start < 0:  # every command starts from the initial state at t = 0
        raise ConfigError(f"time_grid.start: must be nonnegative, got {time_grid.start}")

    prune_tol = _finite_number(data.get("prune_tol", DEFAULT_PRUNE_TOL), "prune_tol")
    if not 0.0 <= prune_tol < 1.0:
        raise ConfigError(f"prune_tol: must lie in [0, 1), got {prune_tol}")

    opt_data = data.get("optimization", {})
    if not isinstance(opt_data, dict):
        raise ConfigError("optimization: expected an object")
    defaults = OptimizationConfig()
    ranges = {
        name: _parse_range(opt_data.get(name, getattr(defaults, name)), f"optimization.{name}")
        for name in ("coupling_range", "g_range", "alpha_range")
    }
    optimization = OptimizationConfig(
        **ranges,
        budget=_integer(opt_data.get("budget", defaults.budget), "optimization.budget"),
        seed=_integer(opt_data.get("seed", defaults.seed), "optimization.seed", least=0),
    )

    markov_action = data.get("action", "evolve")
    if cfg_mode == "markov" and markov_action not in ("evolve", "optimize"):
        raise ConfigError(f"action: expected 'evolve' or 'optimize', got {markov_action!r}")

    output = data.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output: expected an object")
    # the command decides the format: JSON reports, CSV time series
    command = _command(cfg_mode, markov_action)
    output_format = "json" if command in JSON_COMMANDS else "csv"
    if output.get("format", output_format) != output_format:
        raise ConfigError(
            f"output.format: {command!r} writes {output_format}, got {output['format']!r}"
        )
    output_path = output.get("path", f"{cfg_mode}-out.{output_format}")
    if not isinstance(output_path, str) or not output_path:
        raise ConfigError("output.path: expected a nonempty string")

    refrigerator = markov = None
    n_list: tuple[int, ...] = ()
    if cfg_mode in ("single", "evolve", "optimize", "validate", "scaling"):
        refrigerator = _parse_params(data, _parse_refrigerator, cfg_mode != "single")
    if cfg_mode == "scaling":
        raw_list = _require(data, "n_list", "")
        if not isinstance(raw_list, list) or not raw_list:
            raise ConfigError("n_list: expected a nonempty list of integers")
        n_list = tuple(
            _integer(v, f"n_list[{k}]") for k, v in enumerate(raw_list)
        )
        if len(set(n_list)) < len(n_list):
            raise ConfigError(f"n_list: sizes must be distinct, got {list(n_list)}")
        if len(n_list) < 2:
            raise ConfigError(
                f"n_list: the extrapolation needs at least two distinct sizes, got {list(n_list)}"
            )
        if len(time_grid) < 3:
            raise ConfigError(
                "time_grid: the local minimum needs at least three time points, "
                f"got {len(time_grid)}"
            )
    if cfg_mode == "markov":
        markov = _parse_params(data, _parse_markov)
        # the dressed frequencies eps_i - g of every probed g must stay positive
        if markov_action == "optimize" and optimization.g_range[1] >= min(markov.epsilon):
            raise ConfigError(
                f"optimization.g_range: must stay below min(epsilon) = {min(markov.epsilon)}, "
                f"got {list(optimization.g_range)}"
            )

    _reject_unknown_fields(data, command)
    return RunConfig(
        mode=cfg_mode,
        refrigerator=refrigerator,
        markov=markov,
        markov_action=markov_action,
        time_grid=time_grid,
        prune_tol=prune_tol,
        optimization=optimization,
        n_list=n_list,
        output_path=output_path,
        output_format=output_format,
    )


def _reject_unknown_fields(data: dict, command: str) -> None:
    """A ConfigError naming the first field, in any object, that ``command``
    does not read: a misspelled field would otherwise run on its default."""
    row = COMMAND_FIELDS[command]
    objects = {"": (data, row[""] + tuple(name for name in row if name))}
    objects.update({f"{name}.": (data.get(name), fields) for name, fields in row.items() if name})
    for path, (obj, fields) in objects.items():
        for key in obj or ():
            if key not in fields:
                raise ConfigError(f"{path}{key}: unknown field for {command!r}, expected one "
                                  f"of {', '.join(fields)}")


def load_config(path: str, mode: str | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f": cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f": config file {path} is not valid JSON: {exc}") from exc
    return parse_config(data, mode)


def canonical_config(config: RunConfig) -> dict:
    """The fields of the command form's ``COMMAND_FIELDS`` row, fully
    resolved: exactly what the run read, and re-parsing it reproduces the run.

    ``params`` holds ``beta``, never ``temperature``; ``single``'s one pair
    is written in its scalar schema.
    """
    params = asdict(config.refrigerator or config.markov)
    if config.mode == "single":  # one pair in the scalar schema, which has no g
        params = {name: v[0] for name, v in params.items() if name != "g"}
    values = {
        "mode": config.mode,
        "action": config.markov_action,
        "prune_tol": config.prune_tol,
        "n_list": list(config.n_list),
        "params": params,
        "time_grid": asdict(config.time_grid),
        "optimization": asdict(config.optimization),
        "output": {"path": config.output_path, "format": config.output_format},
    }
    row = COMMAND_FIELDS[_command(config.mode, config.markov_action)]
    out = {name: values[name] for name in row[""]}
    out.update({name: {k: v for k, v in values[name].items() if k in fields}
                for name, fields in row.items() if name})
    return out


def dump_canonical(config: RunConfig) -> str:
    return json.dumps(canonical_config(config), sort_keys=True, separators=(",", ":"))
