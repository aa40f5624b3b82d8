"""Experiment configuration: YAML loading, strict validation, defaults.

Configs are plain key-value YAML.  Unknown keys are a hard error (every
offender is listed), seeds are explicit constants, and the fully resolved
configuration (defaults included) is echoed into every run report so a
published table can be traced back to its exact inputs.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Optional

import yaml

from .coefficients import CoeffRecipe, NonlinearRecipe, check_ellipticity
from .expressions import compile_spacetime, compile_spatial
from .grid import Grid, build_grid
from .inverse import ReconstructionConfig, load_scipy
from .statedet import _validate_eps_grid
from .verify import _canonical_kind, _require_s

__all__ = ["ConfigError", "EXPERIMENTS", "ExperimentConfig", "load_config"]

EXPERIMENTS = (
    "verify-weights",
    "verify-carleman",
    "reconstruct",
    "stability-sweep",
    "state-det",
    "nonlinear-diff",
)


class ConfigError(ValueError):
    pass


def _grid(gspec: dict[str, Any]) -> Grid:
    try:
        return build_grid(gspec["lengths"], gspec["T"], gspec["nx"],
                          gspec["nt"], gspec["gamma"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


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
    "inverse": {"delta": 0.0, "deltas": [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1],
                "seeds": [0, 1, 2], "beta": 1e-10, "beta_scale": 1.0,
                "omega_pde": 1.0, "omega_gamma": 10.0, "omega_slice": 10.0,
                "omega_bc": 0.0, "tol": 1e-6, "noisy_slices": False},
    "statedet": {"epsilons": None, "refine": True},
    "nonlinear": {"a": "1", "kappa": "0.5", "p": "0.2", "amplitude": 1.0,
                  "seed": 5},
    "output": {"dir": "out"},
}


# key tree: dict -> nested keys; OPEN marks free-form string-keyed mappings
OPEN = "__open__"

_SECTIONS: dict[str, Any] = {
    "experiment": None,
    **{name: dict.fromkeys(keys) for name, keys in _DEFAULTS.items()},
}
_SECTIONS["coefficients"]["coupling"] = OPEN
# has no effect; accepted because the frozen benchmark config
# perfbench/configs/inverse_cold.yaml carries it
_SECTIONS["inverse"]["maxiter"] = None


def _collect_unknown(cfg: Any, allowed: Any, prefix: str, bad: list[str]) -> None:
    if allowed is OPEN or not isinstance(cfg, dict):
        return
    if not isinstance(allowed, dict):
        if isinstance(cfg, dict):
            for k in cfg:
                bad.append(f"{prefix}.{k}" if prefix else str(k))
        return
    for key, val in cfg.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if key not in allowed:
            bad.append(path)
        else:
            _collect_unknown(val, allowed[key], path, bad)


def _merge(defaults: Any, override: Any) -> Any:
    if isinstance(defaults, dict) and isinstance(override, dict):
        out = copy.deepcopy(defaults)
        for k, v in override.items():
            out[k] = _merge(out.get(k), v) if k in out else copy.deepcopy(v)
        return out
    return copy.deepcopy(override) if override is not None else copy.deepcopy(defaults)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully resolved experiment configuration.

    ``reconstruction`` holds the penalties, ridge and tolerance of the
    ``inverse`` section of an inverse experiment (None otherwise).
    """

    experiment: str
    resolved: dict[str, Any]
    reconstruction: Optional[ReconstructionConfig] = None

    def section(self, name: str) -> dict[str, Any]:
        return self.resolved[name]

    # -- builders ------------------------------------------------------------

    def build_grid(self) -> Grid:
        return _grid(self.section("grid"))

    def coeff_recipe(self) -> CoeffRecipe:
        """The coefficient recipe; on the config grid both principal parts must
        be symmetric with least eigenvalue at least ``chi`` at every node."""
        spec = self.section("coefficients")
        dim = len(self.section("grid")["lengths"])

        def st(expr):
            return compile_spacetime(str(expr), dim)

        def matrix(rows):
            if rows is None:
                return None  # identity principal part
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ConfigError(
                    f"coefficient matrix must be {dim}x{dim} expressions")
            return [[st(e) for e in row] for row in rows]

        def vector(items):
            if items is None:
                return None
            if len(items) != dim:
                raise ConfigError(f"lower-order coefficients need {dim} entries")
            return [st(e) for e in items]

        coupling_spec = spec["coupling"]
        if coupling_spec is None:
            if dim == 1:
                coupling_spec = {"0": "0.5", "2": "0.3"}
            else:
                coupling_spec = {"00": "0.5", "20": "0.3", "02": "0.3"}
        coupling = {}
        for key, expr in dict(coupling_spec).items():
            digits = str(key)
            if len(digits) != dim or not digits.isdigit():
                raise ConfigError(
                    f"coupling key {key!r} must be {dim} digits (orders per axis)")
            gidx = tuple(int(c) for c in digits)
            if sum(gidx) > 2:
                raise ConfigError(f"coupling key {key!r} exceeds total order 2")
            coupling[gidx] = st(expr)
        recipe = CoeffRecipe(
            a2=matrix(spec["a"]), b2=matrix(spec["b"]),
            a1=vector(spec["a_lower"]), b1=vector(spec["b_lower"]),
            a0=st(spec["a0"]), b0=st(spec["b0"]), c0=st(spec["c0"]),
            b_gamma=coupling, chi=float(spec["chi"]),
        )
        try:
            least = check_ellipticity(recipe.sample(self.build_grid()))
        except ValueError as exc:
            raise ConfigError(f"coefficients: {exc}") from exc
        if least < recipe.chi:
            raise ConfigError(
                f"coefficients: least eigenvalue of the principal parts is "
                f"{least:.6g} < chi={recipe.chi:g}")
        return recipe

    def nonlinear_recipe(self) -> NonlinearRecipe:
        spec = self.section("nonlinear")
        dim = len(self.section("grid")["lengths"])
        return NonlinearRecipe(
            a=compile_spacetime(str(spec["a"]), dim),
            kappa=compile_spacetime(str(spec["kappa"]), dim),
            p=compile_spacetime(str(spec["p"]), dim),
        )

    def source_specs(self):
        spec = self.section("sources")
        dim = len(self.section("grid")["lengths"])
        return (compile_spatial(str(spec["f"]), dim),
                compile_spatial(str(spec["g"]), dim), float(spec["q_min"]))

    def case_fields(self):
        """Optional explicit manufactured states (None when not configured)."""
        if "case" not in self.resolved:
            return None
        spec = self.section("case")
        if spec["u"] is None or spec["v"] is None:
            if spec["u"] is not None or spec["v"] is not None:
                raise ConfigError("case needs both u and v term lists")
            return None
        from .basis import SeparableField, Term

        gspec = self.section("grid")
        dim = len(gspec["lengths"])
        lengths = tuple(float(L) for L in gspec["lengths"])
        T = float(gspec["T"])

        def parse_terms(entries, name):
            terms = []
            for entry in entries:
                if len(entry) != 3:
                    raise ConfigError(
                        f"case.{name} terms are [coeff, mode(s), t_power]")
                coeff, modes, tpow = entry
                modes = (int(modes),) if dim == 1 else tuple(int(k) for k in modes)
                if len(modes) != dim:
                    raise ConfigError(f"case.{name}: need {dim} mode numbers")
                terms.append(Term(float(coeff), ("cos",) * dim, modes, int(tpow)))
            return SeparableField(lengths, T, tuple(terms))

        return parse_terms(spec["u"], "u"), parse_terms(spec["v"], "v")

    def epsilons(self) -> list[float]:
        eps = self.section("statedet")["epsilons"]
        if eps is None:
            T = float(self.section("grid")["T"])
            return [0.05 * T, 0.1 * T, 0.2 * T]
        return [float(e) for e in eps]


# the lists a run sweeps over; an empty one would give an empty table
_SWEEP_LISTS = (("weights", "lambdas"), ("weights", "s_values"),
                ("estimates", "kinds"), ("statedet", "epsilons"), ("inverse", "deltas"),
                ("inverse", "seeds"))


# keys that take a whole number or true/false, and the ones of them that
# hold a list of whole numbers
_WHOLE = ("grid.nt", "grid.nx", "ensemble.seed", "ensemble.n", "ensemble.max_modes",
          "ensemble.t_degree", "inverse.seeds", "nonlinear.seed")
_FLAGS = ("estimates.refine", "statedet.refine", "inverse.noisy_slices")
_WHOLE_LISTS = ("grid.nx", "inverse.seeds")


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


def _numbers(problems: list[str], key: str, cast, values) -> list:
    """``values`` through ``cast`` (float, :func:`_whole` or :func:`_flag`),
    or an empty list, so the checks on ``key`` are skipped, with a problem
    that names ``key`` when one of them is not of that type."""
    try:
        return [cast(v) for v in values]
    except (TypeError, ValueError) as exc:
        problems.append(f"{key}: {exc}")
        return []


def _validate_values(resolved: dict[str, Any]) -> list[str]:
    problems = []
    # the well-formed sweep lists by dotted key; None keeps a computed default
    lists: dict[str, list] = {}
    for section, key in _SWEEP_LISTS:
        value = resolved.get(section, {}).get(key)
        if value is None:
            continue
        if not isinstance(value, list):
            problems.append(f"{section}.{key}: must be a list")
        elif not value:
            problems.append(f"{section}.{key}: need at least one entry")
        else:
            lists[f"{section}.{key}"] = value
    # whole numbers and flags are stored as cast, so the resolved config
    # records the values the run reads
    typed: dict[str, list] = {}
    for dotted in _WHOLE + _FLAGS:
        section, key = dotted.split(".")
        if resolved.get(section, {}).get(key) is None:
            continue
        value = resolved[section][key]
        listed = dotted in _WHOLE_LISTS and isinstance(value, list)
        typed[dotted] = _numbers(problems, dotted, _whole if dotted in _WHOLE else _flag,
                                 value if listed else [value])
        if typed[dotted]:
            resolved[section][key] = typed[dotted] if listed else typed[dotted][0]
    if any(nt % 2 == 0 for nt in typed.get("grid.nt", ())):
        problems.append(f"grid.nt: must be odd, got {resolved['grid']['nt']}")
    if "ensemble" in resolved and resolved["ensemble"]["seed"] is None:
        problems.append("ensemble.seed: explicit seed required")
    if any(n < 1 for n in typed.get("ensemble.n", ())):
        problems.append("ensemble.n: need at least one member")
    lambdas = _numbers(problems, "weights.lambdas", float,
                       lists.get("weights.lambdas", ()))
    if any(lam <= 0 for lam in lambdas):
        problems.append("weights.lambdas: entries must be positive")
    s_values = _numbers(problems, "weights.s_values", float,
                        lists.get("weights.s_values", ()))
    if any(s < 0 for s in s_values):
        problems.append("weights.s_values: entries must be non-negative")
    # estimate kinds by their canonical names, checked against the s values
    # with the sweep's own rules, so a sweep that cannot run fails here
    names = lists.get("estimates.kinds", [])
    kinds = []
    for name in names:
        try:
            kinds.append(_canonical_kind(name))
        except ValueError as exc:
            problems.append(f"estimates.kinds: {exc}")
    if names and len(kinds) == len(names):
        resolved["estimates"]["kinds"] = kinds
        try:
            _require_s(kinds, s_values)
        except ValueError as exc:
            problems.append(f"weights.s_values: {exc}")
    # the eps grid checked by the sweep's own rule on the config grid, so a
    # bad eps fails before anything is drawn
    epsilons = _numbers(problems, "statedet.epsilons", float,
                        lists.get("statedet.epsilons", ()))
    if epsilons and not problems:
        grid = _grid(resolved["grid"])
        try:
            _validate_eps_grid(grid, epsilons)
        except ValueError as exc:
            problems.append(f"statedet.epsilons: {exc}")
    if "inverse" in resolved:
        if not all(math.isfinite(d) and d >= 0 for d in _numbers(
                problems, "inverse.delta", float, [resolved["inverse"]["delta"]])):
            problems.append("inverse.delta: must be finite and >= 0")
        if not all(math.isfinite(d) for d in _numbers(
                problems, "inverse.deltas", float, lists.get("inverse.deltas", ()))):
            problems.append("inverse.deltas: entries must be finite")
    return problems


def load_config(path: Optional[str], experiment: Optional[str] = None,
                overrides: Optional[dict[str, Any]] = None) -> ExperimentConfig:
    """Load, validate and resolve a config file (or pure defaults).

    ``experiment`` from the CLI subcommand must agree with the file's
    ``experiment`` key when both are given.  ``overrides`` map dotted keys
    ``section.key`` to values; their keys are checked as the file's are, and
    they are applied last (CLI --seed / --out).
    """
    raw: dict[str, Any] = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        loaded = yaml.safe_load(text)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a mapping")
        raw = loaded
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

    allowed_sections = _ALLOWED[exp]
    allowed_tree = {k: _SECTIONS[k] for k in allowed_sections}
    bad: list[str] = []
    _collect_unknown(raw, allowed_tree, "", bad)
    for dotted, value in (overrides or {}).items():
        sec, key = dotted.split(".", 1)
        _collect_unknown({sec: {key: value}}, allowed_tree, "", bad)
    if bad:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(bad)))

    resolved: dict[str, Any] = {"experiment": exp}
    for section in allowed_sections:
        if section == "experiment":
            continue
        resolved[section] = _merge(_DEFAULTS[section], raw.get(section))

    for dotted, value in (overrides or {}).items():
        sec, key = dotted.split(".", 1)
        resolved[sec][key] = value

    problems = _validate_values(resolved)
    if problems:
        raise ConfigError("invalid config values: " + "; ".join(problems))
    reconstruction = None
    if "inverse" in resolved:
        inv = resolved["inverse"]
        try:
            reconstruction = ReconstructionConfig(
                **{f.name: float(inv[f.name]) for f in fields(ReconstructionConfig)})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"inverse: {exc}") from exc
        # the solver's SciPy modules load with the config, not in the run
        load_scipy()
    return ExperimentConfig(experiment=exp, resolved=resolved,
                            reconstruction=reconstruction)
