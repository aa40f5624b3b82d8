"""Configuration-driven experiment runner.

One subcommand per experiment; each loads a YAML config (or pure defaults),
runs deterministically, prints a short summary and persists one CSV per
result table, the experiment's JSON extras (``slope.json``, ``bounds.json``)
and report.json.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import islice
from typing import Any, Optional, Sequence

import numpy as np

from .config import _ALLOWED, EXPERIMENTS, ConfigError, ExperimentConfig, load_config
from .inverse import make_inverse_data, reconstruct, stability_sweep
from .models import CaseRecipe, cosine_pairs, mms_case_ensemble
from .reports import ResultTable, RunReport, emit_report, recording
from .statedet import thm1_experiment, thm4_experiment
from .verify import CASE_KINDS, estimate_constant, generate_ensemble
from .weights import WeightParams, build_eta, check_weight_identities, eval_weight_bundle

__all__ = ["main", "run"]


def run(config: ExperimentConfig) -> RunReport:
    """Execute the configured experiment and return its report (no file IO),
    with the seconds of the driver's stages in ``timings``."""
    start = time.perf_counter()
    driver = _DRIVERS[config.experiment]
    with recording() as timings:
        report = driver(config)
    report.wall_time_s = time.perf_counter() - start
    report.timings = timings
    return report


# ---------------------------------------------------------------------------
# drivers


def _run_verify_weights(cfg: ExperimentConfig) -> RunReport:
    grid = cfg.grid
    eta = build_eta(grid, cfg.coeff_recipe.sample(grid))
    wspec = cfg.section("weights")
    rows = []
    all_passed = True
    for lam in wspec["lambdas"]:
        for s in wspec["s_values"]:
            bundle = eval_weight_bundle(eta, WeightParams(lam=lam, s=s), grid)
            rep = check_weight_identities(bundle)
            all_passed &= rep.passed
            for check in rep.checks:
                rows.append((check.name, lam, s, check.value,
                             check.tol if check.tol is not None else "",
                             check.passed))
    table = ResultTable("weights", ("identity", "lambda", "s", "value", "tol",
                                    "passed"), tuple(rows))
    return RunReport(cfg.experiment, cfg.resolved, [table],
                     summary={"all_passed": all_passed, "checks": len(rows)})


def _build_ensemble(cfg: ExperimentConfig, cases=False, n=None) -> tuple:
    """The ``ensemble`` section's draw on the config grid: its function
    pairs, or manufactured cases of the config's coefficients when
    ``cases``; ``n`` overrides the section's size."""
    ens = cfg.section("ensemble")
    args = (ens["seed"], ens["n"] if n is None else n, cfg.grid)
    shape = dict(max_modes=ens["max_modes"], t_degree=ens["t_degree"],
                 amplitude=ens["amplitude"])
    if not cases:
        return generate_ensemble(*args, **shape)
    f_spec, g_spec, q_min = cfg.sources
    return mms_case_ensemble(*args, cfg.coeff_recipe, f_spec, g_spec, q_min=q_min,
                             **shape)


def _inverse_case(cfg: ExperimentConfig):
    """Manufactured case for the inverse experiments: the explicit config
    states when given, a seeded random admissible draw otherwise."""
    if cfg.case_fields is None:
        return _build_ensemble(cfg, cases=True, n=1)[0]
    f_spec, g_spec, q_min = cfg.sources
    return CaseRecipe(*cfg.case_fields, cfg.coeff_recipe, f_spec, g_spec,
                      q_min=q_min).build(cfg.grid)


def _run_verify_carleman(cfg: ExperimentConfig) -> RunReport:
    est = cfg.section("estimates")
    kinds = est["kinds"]  # canonical names, checked when the config loaded
    wspec = cfg.section("weights")

    def sweep(group, build_ensemble):
        if not group:
            return {}
        reports = estimate_constant(group, build_ensemble(), wspec["lambdas"],
                                    wspec["s_values"], cfg.coeff_recipe, cfg.grid,
                                    refine=est["refine"])
        return dict(zip(group, reports))

    # one sweep call per ensemble: the kinds that read the factorized sources
    # run on manufactured cases, every other kind on the function ensemble;
    # the ensemble is built in the call, so the sweep frees it before its
    # first pass
    fn_kinds = list(dict.fromkeys(k for k in kinds if k not in CASE_KINDS))
    case_kinds = list(dict.fromkeys(k for k in kinds if k in CASE_KINDS))
    reports = sweep(fn_kinds, lambda: _build_ensemble(cfg))
    reports |= sweep(case_kinds, lambda: _build_ensemble(cfg, cases=True))
    rows = []
    const_rows = []
    summary: dict[str, Any] = {}
    for kind in kinds:
        rep = reports[kind]
        for row in rep.rows:
            rows.append((row.kind, row.lam, row.s, row.member, row.lhs,
                         row.rhs, row.ratio))
        for lam in rep.lam_grid:
            const_rows.append((kind, lam,
                               rep.s0_emp[lam] if rep.s0_emp[lam] is not None else "",
                               rep.c_emp,
                               rep.drift if rep.drift is not None else ""))
        summary[kind] = {
            "c_emp": rep.c_emp,
            "c_emp_refined": rep.c_emp_refined,
            "drift": rep.drift,
            "s0_emp": {str(k): v for k, v in rep.s0_emp.items()},
            "lam0_emp": rep.lam0_emp,
            "flagged_cells": [list(c) for c in rep.flagged],
            "invalid_cells": [list(c) for c in rep.invalid],
        }
    tables = [
        ResultTable("carleman", ("kind", "lambda", "s", "member", "lhs", "rhs",
                                 "ratio"), tuple(rows)),
        ResultTable("constants", ("kind", "lambda", "s0_emp", "c_emp", "drift"),
                    tuple(const_rows)),
    ]
    return RunReport(cfg.experiment, cfg.resolved, tables, summary=summary)


def _run_reconstruct(cfg: ExperimentConfig) -> RunReport:
    grid = cfg.grid
    case = _inverse_case(cfg)
    inv = cfg.section("inverse")
    delta = inv["delta"]
    data = make_inverse_data(case, delta, inv["seeds"][0],
                             noisy_slices=inv["noisy_slices"])
    recon = cfg.reconstruction
    res = reconstruct(data, recon, truth=(case.sources.f, case.sources.g))
    metrics = [
        ("rel_err_f", res.rel_err_f),
        ("rel_err_g", res.rel_err_g),
        ("objective", res.objective),
        ("iterations", res.iterations),
        ("converged", res.converged),
        ("delta", delta),
        ("beta", recon.beta),
    ]
    metrics += sorted((f"objective_{k}", v) for k, v in res.objective_terms.items())
    tables = [
        ResultTable("reconstruct", ("metric", "value"), tuple(metrics)),
        ResultTable(
            "profiles",
            ("x", "f_true", "f_hat", "g_true", "g_hat"),
            tuple(
                (float(x), float(ft), float(fh), float(gt), float(gh))
                for x, ft, fh, gt, gh in zip(
                    grid.xs[0].ravel(), case.sources.f.ravel(),
                    res.f_hat.values.ravel(), case.sources.g.ravel(),
                    res.g_hat.values.ravel())
            ) if grid.dim == 1 else (),
        ),
    ]
    s = res.singular_values
    summary = {"rel_err_f": res.rel_err_f, "rel_err_g": res.rel_err_g,
               "converged": res.converged, "flags": res.flags,
               "normal_residual": res.normal_residual,
               "s_max": float(s[0]), "s_min": float(s[-1]),
               "ridge_damped": int(np.sum(s * s < recon.beta))}
    return RunReport(cfg.experiment, cfg.resolved, tables, summary=summary)


def _run_stability_sweep(cfg: ExperimentConfig) -> RunReport:
    inv = cfg.section("inverse")
    # the sweep replaces the configured beta by beta_scale * delta^2
    rep = stability_sweep(_inverse_case(cfg), inv["deltas"], cfg.reconstruction,
                          seeds=inv["seeds"], beta_scale=inv["beta_scale"],
                          noisy_slices=inv["noisy_slices"])
    rows = tuple(
        (r.delta, r.seed, r.err_f, r.err_g, r.err_total, r.beta, r.converged)
        for r in rep.rows
    )
    table = ResultTable("sweep", ("delta", "seed", "err_f", "err_g",
                                  "err_total", "beta", "converged"), rows)
    slope_payload = {
        "slope": rep.slope, "intercept": rep.intercept, "r2": rep.r2,
        "seeds": list(rep.seeds),
    }
    s = rep.singular_values
    betas = {r.delta: r.beta for r in rep.rows}
    summary = {
        "slope": rep.slope, "r2": rep.r2, "slope_mean": rep.slope_mean,
        "slope_spread": rep.slope_spread,
        "per_seed_slopes": {str(k): v for k, v in rep.per_seed_slopes.items()},
        "excluded": [list(e) for e in rep.excluded],
        "max_normal_residual": max(r.normal_residual for r in rep.rows),
        "s_max": float(s[0]), "s_min": float(s[-1]),
        "ridge_damped": {repr(d): int(np.sum(s * s < beta)) for d, beta in betas.items()},
    }
    return RunReport(cfg.experiment, cfg.resolved, [table], summary=summary,
                     extra_json={"slope": slope_payload})


def _ceps_table(rep) -> ResultTable:
    rows = tuple((r.eps, r.member, r.lhs, r.rhs, r.ratio) for r in rep.rows)
    return ResultTable("ceps", ("epsilon", "member", "lhs", "rhs", "ratio"), rows)


def _run_state_det(cfg: ExperimentConfig) -> RunReport:
    # no reference of our own: the experiment frees the drawn ensemble
    # before its first pass
    rep = thm1_experiment(_build_ensemble(cfg), cfg.coeff_recipe, cfg.grid, cfg.epsilons,
                          refine=cfg.section("statedet")["refine"])
    summary = {
        "per_eps_max": {repr(k): v for k, v in rep.per_eps_max.items()},
        "drift": rep.drift,
        "excluded_members": list(rep.excluded),
    }
    return RunReport(cfg.experiment, cfg.resolved, [_ceps_table(rep)],
                     summary=summary)


def _run_nonlinear_diff(cfg: ExperimentConfig) -> RunReport:
    spec = cfg.section("nonlinear")
    pairs = tuple(islice(cosine_pairs(spec["seed"], cfg.grid, 3, 3, spec["amplitude"]), 2))
    rep = thm4_experiment(pairs, cfg.nonlinear_recipe, cfg.grid, cfg.epsilons,
                          refine=cfg.section("statedet")["refine"])
    summary = {
        "per_eps_max": {repr(k): v for k, v in rep.per_eps_max.items()},
        "drift": rep.drift,
        **rep.extras,  # the bounds m1 and m2
    }
    return RunReport(cfg.experiment, cfg.resolved, [_ceps_table(rep)],
                     summary=summary, extra_json={"bounds": rep.extras})


_DRIVERS = {
    "verify-weights": _run_verify_weights,
    "verify-carleman": _run_verify_carleman,
    "reconstruct": _run_reconstruct,
    "stability-sweep": _run_stability_sweep,
    "state-det": _run_state_det,
    "nonlinear-diff": _run_nonlinear_diff,
}

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfglab",
        description="desk-scale experiments for the coupled forward-backward "
                    "system: weight identities, inequality sweeps, inverse "
                    "source recovery",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None,
                       help="override the experiment's primary seed")
    args = parser.parse_args(argv)

    overrides: dict[str, Any] = {}
    if args.seed is not None:
        # the seed of the experiment's ensemble or nonlinear pair
        section = next((s for s in ("ensemble", "nonlinear")
                        if s in _ALLOWED[args.experiment]), None)
        if section is None:
            parser.error(f"{args.experiment} has no seed to override")
        overrides[f"{section}.seed"] = args.seed
    if args.out is not None:
        overrides["output.dir"] = args.out

    try:
        config = load_config(args.config, experiment=args.experiment,
                             overrides=overrides)
        if args.seed is not None and config.case_fields is not None:
            raise ConfigError("--seed has no effect: the config's explicit case "
                              "states draw nothing from ensemble.seed")
        report = run(config)
        written = emit_report(report, config.section("output")["dir"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"{config.experiment}: wall time {report.wall_time_s:.2f} s")
    for key, value in sorted(report.summary.items()):
        print(f"  {key}: {value}")
    for name in sorted(written):
        print(f"  wrote {written[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
