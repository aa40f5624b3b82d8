"""Experiment configuration: YAML loading, one typed key table, and the
run's inputs built at load.

One walk over the key table refuses unknown keys (every offender is
listed), sections that are not mappings and values of the wrong type, and
stores each cast value, so the resolved configuration (defaults included)
echoed into every run report records what the run reads.  Everything the
run builds from it is built here, so a bad input is a :class:`ConfigError`
before anything is drawn.  Seeds are explicit constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Optional

import yaml

from .basis import SeparableField, Term
from .coefficients import CoeffRecipe, NonlinearRecipe, check_ellipticity
from .expressions import compile_spacetime, compile_spatial
from .grid import Grid, build_grid
from .inverse import ReconstructionConfig, _validate_noise_grid, load_scipy
from .statedet import _validate_eps_grid
from .verify import _canonical_kind, _require_s

__all__ = ["ConfigError", "EXPERIMENTS", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    pass


# each experiment's sections, its `experiment` key first
_ALLOWED: dict[str, tuple[str, ...]] = {
    "verify-weights": ("experiment", "grid", "coefficients", "weights", "output"),
    "verify-carleman": ("experiment", "grid", "coefficients", "weights",
                        "ensemble", "sources", "estimates", "output"),
    "reconstruct": ("experiment", "grid", "coefficients", "ensemble", "sources",
                    "case", "inverse", "output"),
    "stability-sweep": ("experiment", "grid", "coefficients", "ensemble",
                        "sources", "case", "inverse", "output"),
    "state-det": ("experiment", "grid", "coefficients", "ensemble", "statedet",
                  "output"),
    "nonlinear-diff": ("experiment", "grid", "nonlinear", "statedet", "output"),
}
EXPERIMENTS = tuple(_ALLOWED)

_DEFAULTS: dict[str, Any] = {
    "grid": {"lengths": [1.0], "T": 1.0, "nx": [65], "nt": 65, "gamma": ["x+"]},
    # None entries are dimension-aware: identity principal parts, zero lower
    # order, and a value+pure-second-derivative coupling
    "coefficients": {
        "a": None, "b": None, "a_lower": None, "b_lower": None,
        "a0": "0", "b0": "0", "c0": "1", "coupling": None,
        "chi": 1.0,
    },
    "weights": {"lambdas": [1.0, 2.0], "s_values": [8.0, 16.0, 32.0, 64.0]},
    "ensemble": {"seed": 7, "n": 20, "max_modes": 3, "t_degree": 3,
                 "amplitude": 1.0},
    "sources": {"f": "1 + 0.3*cos(3.141592653589793*x)",
                "g": "1 - 0.3*cos(3.141592653589793*x)",
                "q_min": 0.05},
    # explicit manufactured states as [coeff, mode(s), t_power] cosine terms;
    # None draws a random admissible case from the ensemble stream instead
    "case": {"u": None, "v": None},
    "estimates": {"kinds": ["THM3"], "refine": True},
    # maxiter has no effect; it is accepted because the frozen benchmark
    # config perfbench/configs/inverse_cold.yaml carries it
    "inverse": {"delta": 0.0, "deltas": [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1],
                "seeds": [0, 1, 2], "beta": 1e-10, "beta_scale": 1.0,
                "omega_pde": 1.0, "omega_gamma": 10.0, "omega_slice": 10.0,
                "omega_bc": 0.0, "tol": 1e-6, "noisy_slices": False,
                "maxiter": None},
    # None: 0.05, 0.1 and 0.2 times T
    "statedet": {"epsilons": None, "refine": True},
    "nonlinear": {"a": "1", "kappa": "0.5", "p": "0.2", "amplitude": 1.0,
                  "seed": 5},
    "output": {"dir": "out"},
}


# -- casts: each returns its value typed, or raises naming what is wrong ----

def _number(value: Any) -> float:
    """``value`` as a finite float: a number or its text, not a bool."""
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {value!r}")
    return number


def _whole(value: Any) -> int:
    """``value`` as an int: an int or a float with no fractional part, not a bool."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"invalid literal for a whole number: {value!r}")


def _flag(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _text(value: Any) -> str:
    """``value`` as text (an expression, face or kind name); a number is
    read as its text, a bool is refused."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise ValueError(f"must be text, got {value!r}")


def _list_of(cast):
    def cast_list(value: Any) -> list:
        if not isinstance(value, list):
            raise ValueError("must be a list")
        if not value:
            raise ValueError("need at least one entry")
        return [cast(v) for v in value]
    return cast_list


def _mapping(value: Any) -> dict[str, str]:
    """An open mapping of text to text (the coupling's orders to expressions)."""
    if not isinstance(value, dict):
        raise ValueError("must be a mapping")
    return {_text(k): _text(v) for k, v in value.items()}


def _term(entry: Any) -> list:
    """A case term ``[coeff, mode(s), t_power]``: a number, a whole number
    or a list of them (one per axis), and a whole number >= 0."""
    if not isinstance(entry, list) or len(entry) != 3:
        raise ValueError(f"terms are [coeff, mode(s), t_power], got {entry!r}")
    coeff, modes, tpow = entry
    modes = _list_of(_whole)(modes) if isinstance(modes, list) else _whole(modes)
    tpow = _whole(tpow)
    if tpow < 0:
        raise ValueError(f"t_power must be >= 0, got {tpow}")
    return [_number(coeff), modes, tpow]


def _cast_of(default: Any):
    if isinstance(default, list):
        return _list_of(_cast_of(default[0]))
    return {bool: _flag, int: _whole, float: _number, str: _text}[type(default)]


# the casts of the keys whose default is None; the builders below check
# the shapes that depend on the grid
_STATED = {
    "coefficients.a": _list_of(_list_of(_text)),
    "coefficients.b": _list_of(_list_of(_text)),
    "coefficients.a_lower": _list_of(_text),
    "coefficients.b_lower": _list_of(_text),
    "coefficients.coupling": _mapping,
    "case.u": _list_of(_term),
    "case.v": _list_of(_term),
    "inverse.maxiter": _whole,
    "statedet.epsilons": _list_of(_number),
}

# the key table: section -> key -> (default, cast)
_KEYS: dict[str, dict[str, tuple[Any, Any]]] = {
    section: {key: (default, _STATED[f"{section}.{key}"] if default is None
                    else _cast_of(default))
              for key, default in keys.items()}
    for section, keys in _DEFAULTS.items()
}

# the bound on each cast value (on each entry of a list)
_RANGES = {
    "ensemble.seed": ">= 0", "nonlinear.seed": ">= 0", "inverse.seeds": ">= 0",
    "ensemble.n": ">= 1", "ensemble.max_modes": ">= 1", "ensemble.t_degree": ">= 0",
    "ensemble.amplitude": "> 0", "nonlinear.amplitude": "> 0",
    "weights.lambdas": "> 0", "weights.s_values": ">= 0",
    "inverse.delta": ">= 0", "inverse.beta_scale": ">= 0",
}


def _within(value: Any, rule: str) -> bool:
    op, bound = rule.split()
    return all(v >= float(bound) if op == ">=" else v > float(bound)
               for v in (value if isinstance(value, list) else [value]))


# -- builders: each takes its section's cast values and the config grid -----

def _coeff_recipe(spec: dict[str, Any], grid: Grid) -> CoeffRecipe:
    """The coefficient recipe; on ``grid`` both principal parts must be
    symmetric with least eigenvalue at least ``chi`` at every node."""
    dim = grid.dim

    def st(expr):
        return compile_spacetime(expr, dim)

    def matrix(rows):
        if rows is None:
            return None  # identity principal part
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError(f"coefficient matrix must be {dim}x{dim} expressions")
        return [[st(e) for e in row] for row in rows]

    def vector(items):
        if items is None:
            return None
        if len(items) != dim:
            raise ValueError(f"lower-order coefficients need {dim} entries")
        return [st(e) for e in items]

    coupling_spec = spec["coupling"]
    if coupling_spec is None:
        coupling_spec = ({"0": "0.5", "2": "0.3"} if dim == 1
                         else {"00": "0.5", "20": "0.3", "02": "0.3"})
    coupling = {}
    for key, expr in coupling_spec.items():
        if len(key) != dim or not key.isdigit():
            raise ValueError(f"coupling key {key!r} must be {dim} digits (orders per axis)")
        gidx = tuple(int(c) for c in key)
        if sum(gidx) > 2:
            raise ValueError(f"coupling key {key!r} exceeds total order 2")
        coupling[gidx] = st(expr)
    recipe = CoeffRecipe(
        a2=matrix(spec["a"]), b2=matrix(spec["b"]),
        a1=vector(spec["a_lower"]), b1=vector(spec["b_lower"]),
        a0=st(spec["a0"]), b0=st(spec["b0"]), c0=st(spec["c0"]),
        b_gamma=coupling, chi=spec["chi"],
    )
    least = check_ellipticity(recipe.sample(grid))
    if least < recipe.chi:
        raise ValueError(f"least eigenvalue of the principal parts is {least:.6g} "
                         f"< chi={recipe.chi:g}")
    return recipe


def _sources(spec: dict[str, Any], grid: Grid) -> tuple:
    return (compile_spatial(spec["f"], grid.dim), compile_spatial(spec["g"], grid.dim),
            spec["q_min"])


def _case_fields(spec: dict[str, Any], grid: Grid) -> Optional[tuple]:
    """The explicit manufactured states, or None when the case is drawn."""
    if spec["u"] is None or spec["v"] is None:
        if spec["u"] is not None or spec["v"] is not None:
            raise ValueError("needs both u and v term lists")
        return None

    def field(name):
        terms = []
        for coeff, modes, tpow in spec[name]:
            modes = tuple(modes) if isinstance(modes, list) else (modes,)
            if len(modes) != grid.dim:
                raise ValueError(f"{name}: need {grid.dim} mode numbers")
            terms.append(Term(coeff, ("cos",) * grid.dim, modes, tpow))
        return SeparableField(grid.lengths, grid.T, tuple(terms))

    return field("u"), field("v")


def _nonlinear_recipe(spec: dict[str, Any], grid: Grid) -> NonlinearRecipe:
    return NonlinearRecipe(**{k: compile_spacetime(spec[k], grid.dim)
                              for k in ("a", "kappa", "p")})


def _epsilons(spec: dict[str, Any], grid: Grid) -> list[float]:
    """The eps grid, checked by the sweep's own rule on the config grid."""
    eps = spec["epsilons"]
    if eps is None:
        eps = [0.05 * grid.T, 0.1 * grid.T, 0.2 * grid.T]
    return list(_validate_eps_grid(grid, eps))


def _reconstruction(spec: dict[str, Any], grid: Grid) -> ReconstructionConfig:
    recon = ReconstructionConfig(**{f.name: spec[f.name]
                                    for f in fields(ReconstructionConfig)})
    # the solver's SciPy modules load with the config, not in the run
    load_scipy()
    return recon


# what load_config builds: the ExperimentConfig field, the key an error
# names (its section leads), and the builder
_BUILT = (
    ("coeff_recipe", "coefficients", _coeff_recipe),
    ("sources", "sources", _sources),
    ("case_fields", "case", _case_fields),
    ("nonlinear_recipe", "nonlinear", _nonlinear_recipe),
    ("epsilons", "statedet.epsilons", _epsilons),
    ("reconstruction", "inverse", _reconstruction),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully resolved experiment configuration, and the run's
    inputs built from it on ``grid``; a built field is None when the
    experiment has no such section.  ``sources`` holds the compiled profiles
    f and g and ``q_min``; ``case_fields`` the explicit states u and v (None
    also when the case is drawn); ``reconstruction`` the penalties, ridge and
    tolerance of the ``inverse`` section."""

    experiment: str
    resolved: dict[str, Any]
    grid: Grid
    coeff_recipe: Optional[CoeffRecipe] = None
    sources: Optional[tuple] = None
    case_fields: Optional[tuple] = None
    nonlinear_recipe: Optional[NonlinearRecipe] = None
    epsilons: Optional[list[float]] = None
    reconstruction: Optional[ReconstructionConfig] = None

    def section(self, name: str) -> dict[str, Any]:
        return self.resolved[name]

    def build_grid(self) -> Grid:
        return self.grid

    def source_specs(self) -> Optional[tuple]:
        return self.sources


class _Loader(yaml.SafeLoader):
    """The safe loader; a key given twice in one mapping is an error, where
    PyYAML would keep the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode):
                if key.value in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key.value!r}", key.start_mark)
                seen.add(key.value)
        return super().construct_mapping(node, deep=deep)


def _read(path: str) -> dict[str, Any]:
    """The mapping at the root of the YAML file ``path``."""
    try:
        loaded = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_Loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        raise ConfigError(f"{path}: {where}{getattr(exc, 'problem', None) or exc}") from exc
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise ConfigError("config root must be a mapping")
    return loaded


def load_config(path: Optional[str], experiment: Optional[str] = None,
                overrides: Optional[dict[str, Any]] = None) -> ExperimentConfig:
    """Load, validate and resolve a config file (or pure defaults), and
    build the run's inputs from it.

    ``experiment`` from the CLI subcommand must agree with the file's
    ``experiment`` key when both are given.  ``overrides`` map dotted keys
    ``section.key`` to values; they are applied last (CLI --seed / --out)
    and checked as the file's keys are.
    """
    raw = {} if path is None else _read(path)
    file_exp = raw.get("experiment")
    exp = experiment or file_exp
    if exp is None:
        raise ConfigError("no experiment given (subcommand or config key)")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; choose from {EXPERIMENTS}")
    if file_exp is not None and experiment is not None and file_exp != experiment:
        raise ConfigError(
            f"config file says experiment={file_exp!r} but the subcommand is "
            f"{experiment!r}")
    for dotted, value in (overrides or {}).items():
        section, key = dotted.split(".", 1)
        if raw.get(section) is None:
            raw[section] = {}
        if isinstance(raw[section], dict):
            raw[section][key] = value

    # the walk: unknown keys, then each value through its cast; a null
    # value keeps the default
    allowed = _ALLOWED[exp]
    unknown = [str(k) for k in raw if k not in allowed]
    problems: list[str] = []
    resolved: dict[str, Any] = {"experiment": exp}
    for section in allowed[1:]:
        given = raw.get(section)
        if given is None:
            given = {}
        if not isinstance(given, dict):
            problems.append(f"{section}: must be a mapping, got {given!r}")
            continue
        unknown += [f"{section}.{k}" for k in given if k not in _KEYS[section]]
        resolved[section] = values = {}
        for key, (default, cast) in _KEYS[section].items():
            value = default if given.get(key) is None else given[key]
            if isinstance(value, dict) and cast is not _mapping:
                unknown += [f"{section}.{key}.{k}" for k in value]
            try:
                values[key] = None if value is None else cast(value)
            except (TypeError, ValueError, OverflowError) as exc:
                problems.append(f"{section}.{key}: {exc}")
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))

    for dotted, rule in _RANGES.items():
        section, key = dotted.split(".")
        value = resolved.get(section, {}).get(key)
        if value is not None and not _within(value, rule):
            problems.append(f"{dotted}: must be {rule}, got {value!r}")
    # estimate kinds by their canonical names, checked against the s values
    # with the sweep's own rules, so a sweep that cannot run fails here
    estimates = resolved.get("estimates", {})
    if "kinds" in estimates:
        try:
            estimates["kinds"] = [_canonical_kind(k) for k in estimates["kinds"]]
        except ValueError as exc:
            problems.append(f"estimates.kinds: {exc}")
        else:
            try:
                _require_s(estimates["kinds"],
                           resolved.get("weights", {}).get("s_values", ()))
            except ValueError as exc:
                problems.append(f"weights.s_values: {exc}")
    if problems:
        raise ConfigError("invalid config values: " + "; ".join(problems))

    built: dict[str, Any] = {}
    named = "grid"
    try:
        grid = built["grid"] = build_grid(**resolved["grid"])
        for name, named, builder in _BUILT:
            section = named.split(".")[0]
            if section in resolved:
                built[name] = builder(resolved[section], grid)
        if exp == "stability-sweep":
            named, inv = "inverse", resolved["inverse"]
            _validate_noise_grid(inv["deltas"], inv["seeds"])
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{named}: {exc}") from exc
    return ExperimentConfig(experiment=exp, resolved=resolved, **built)
