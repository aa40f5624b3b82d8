"""Configuration-driven experiment runner.

One subcommand per experiment; each loads a YAML config (or pure defaults),
runs deterministically, prints a short summary and persists report.json,
one CSV per result table and a whitespace-column .dat per figure-worthy
table.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Optional, Sequence

import numpy as np

from .basis import random_cosine_field
from .config import EXPERIMENTS, ConfigError, ExperimentConfig, load_config
from .inverse import (
    ReconstructionConfig,
    make_inverse_data,
    reconstruct,
    stability_sweep,
)
from .models import make_nonlinear_pair, mms_case_ensemble
from .reports import ResultTable, RunReport, emit_report
from .statedet import thm1_experiment, thm4_experiment
from .verify import (ENERGY_KINDS, ESTIMATE_KINDS, SWEEP_SPANS, estimate_constant,
                     generate_ensemble, lemma3_check)
from .weights import WeightParams, build_eta, check_weight_identities, eval_weight_bundle

__all__ = ["main", "run"]


def run(config: ExperimentConfig) -> RunReport:
    """Execute the configured experiment and return its report (no file IO)."""
    start = time.perf_counter()
    driver = _DRIVERS[config.experiment]
    report = driver(config)
    report.wall_time_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# drivers


def _run_verify_weights(cfg: ExperimentConfig) -> RunReport:
    grid = cfg.build_grid()
    recipe = cfg.coeff_recipe()
    coeffs = recipe.sample(grid)
    eta = build_eta(grid, coeffs)
    wspec = cfg.section("weights")
    rows = []
    all_passed = True
    for lam in wspec["lambdas"]:
        for s in wspec["s_values"]:
            bundle = eval_weight_bundle(eta, WeightParams(lam=float(lam),
                                                          s=float(s)), grid)
            rep = check_weight_identities(bundle)
            all_passed &= rep.passed
            for check in rep.checks:
                rows.append((check.name, float(lam), float(s), check.value,
                             check.tol if check.tol is not None else "",
                             check.passed))
    table = ResultTable("weights", ("identity", "lambda", "s", "value", "tol",
                                    "passed"), tuple(rows))
    return RunReport(cfg.experiment, cfg.resolved, [table],
                     summary={"all_passed": all_passed, "checks": len(rows)})


def _build_function_ensemble(cfg: ExperimentConfig, grid):
    ens = cfg.section("ensemble")
    return generate_ensemble(int(ens["seed"]), int(ens["n"]), grid,
                             max_modes=int(ens["max_modes"]),
                             t_degree=int(ens["t_degree"]),
                             amplitude=float(ens["amplitude"]))


def _build_case_ensemble(cfg: ExperimentConfig, grid, recipe, n=None):
    ens = cfg.section("ensemble")
    f_spec, g_spec, q_min = cfg.source_specs()
    return mms_case_ensemble(
        int(ens["seed"]), int(n if n is not None else ens["n"]), grid, recipe,
        f_spec, g_spec, max_modes=int(ens["max_modes"]),
        t_degree=int(ens["t_degree"]), amplitude=float(ens["amplitude"]),
        q_min=q_min,
    )


def _inverse_case(cfg: ExperimentConfig, grid, recipe):
    """Manufactured case for the inverse experiments: the explicit config
    states when given, a seeded random admissible draw otherwise."""
    fields = cfg.case_fields()
    if fields is None:
        return _build_case_ensemble(cfg, grid, recipe, n=1).cases[0]
    from .coefficients import sample_spatial
    from .models import mms_linear

    f_spec, g_spec, q_min = cfg.source_specs()
    return mms_linear(fields[0], fields[1], recipe.sample(grid),
                      sample_spatial(grid, f_spec), sample_spatial(grid, g_spec),
                      q_min=q_min)


def _run_verify_carleman(cfg: ExperimentConfig) -> RunReport:
    grid = cfg.build_grid()
    recipe = cfg.coeff_recipe()
    est = cfg.section("estimates")
    kinds = [str(k).upper() for k in est["kinds"]]
    for kind in kinds:
        if kind not in ESTIMATE_KINDS:
            raise ConfigError(f"unknown estimate kind {kind!r}")
    wspec = cfg.section("weights")
    refine = bool(est["refine"])
    timings = dict.fromkeys(SWEEP_SPANS, 0.0)

    def sweep(group, build_ensemble):
        if not group:
            return {}
        reports = estimate_constant(group, build_ensemble(), wspec["lambdas"],
                                    wspec["s_values"], recipe, grid, refine=refine)
        for span, seconds in reports[0].timings.items():
            timings[span] += seconds
        return dict(zip(group, reports))

    # one sweep call per ensemble: the energy-slice kinds run on manufactured
    # cases, every other kind on the function ensemble
    fn_kinds = list(dict.fromkeys(k for k in kinds if k not in ENERGY_KINDS))
    case_kinds = list(dict.fromkeys(k for k in kinds if k in ENERGY_KINDS))
    reports = sweep(fn_kinds, lambda: _build_function_ensemble(cfg, grid))
    reports |= sweep(case_kinds, lambda: _build_case_ensemble(cfg, grid, recipe))
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
                    tuple(const_rows), plot_worthy=False),
    ]
    return RunReport(cfg.experiment, cfg.resolved, tables, summary=summary,
                     timings=timings)


def _run_lemma3(cfg: ExperimentConfig) -> RunReport:
    grid = cfg.build_grid()
    recipe = cfg.coeff_recipe()
    coeffs = recipe.sample(grid)
    ens = _build_function_ensemble(cfg, grid)
    eta = build_eta(grid, coeffs)
    wspec = cfg.section("weights")
    # one bundle per (lam, s) cell, shared by every p
    cells = [(float(lam), float(s),
              eval_weight_bundle(eta, WeightParams(lam=float(lam), s=float(s)), grid))
             for lam in wspec["lambdas"] for s in wspec["s_values"]]
    rows = []
    summary = {}
    for p in cfg.section("lemma3")["p_values"]:
        p = int(p)
        c_emp = 0.0
        for lam, s, bundle in cells:
            for i, member in enumerate(ens.members):
                pair = lemma3_check(member.u, p, bundle)
                rows.append((p, lam, s, i, pair.lhs, pair.rhs, pair.ratio))
                if np.isfinite(pair.ratio):
                    c_emp = max(c_emp, pair.ratio)
        summary[f"c_emp_p{p}"] = c_emp
    table = ResultTable("lemma3", ("p", "lambda", "s", "member", "lhs", "rhs",
                                   "ratio"), tuple(rows))
    return RunReport(cfg.experiment, cfg.resolved, [table], summary=summary)


def _recon_config(inv: dict[str, Any], beta: float) -> ReconstructionConfig:
    return ReconstructionConfig(
        omega_pde=float(inv["omega_pde"]), omega_gamma=float(inv["omega_gamma"]),
        omega_slice=float(inv["omega_slice"]), omega_bc=float(inv["omega_bc"]),
        beta=beta, tol=float(inv["tol"]),
    )


def _run_reconstruct(cfg: ExperimentConfig) -> RunReport:
    grid = cfg.build_grid()
    recipe = cfg.coeff_recipe()
    case = _inverse_case(cfg, grid, recipe)
    inv = cfg.section("inverse")
    delta = float(inv["delta"])
    data = make_inverse_data(case, delta, int(inv["seeds"][0]),
                             noisy_slices=bool(inv["noisy_slices"]))
    res = reconstruct(data, _recon_config(inv, float(inv["beta"])),
                      truth=(case.sources.f, case.sources.g))
    metrics = [
        ("rel_err_f", res.rel_err_f),
        ("rel_err_g", res.rel_err_g),
        ("objective", res.objective),
        ("iterations", res.iterations),
        ("converged", res.converged),
        ("delta", delta),
        ("beta", float(inv["beta"])),
    ]
    metrics += sorted((f"objective_{k}", v) for k, v in res.objective_terms.items())
    tables = [
        ResultTable("reconstruct", ("metric", "value"), tuple(metrics),
                    plot_worthy=False),
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
               "ridge_damped": int(np.sum(s * s < float(inv["beta"]))),
               "timings": res.timings}
    return RunReport(cfg.experiment, cfg.resolved, tables, summary=summary)


def _run_stability_sweep(cfg: ExperimentConfig) -> RunReport:
    grid = cfg.build_grid()
    recipe = cfg.coeff_recipe()
    case = _inverse_case(cfg, grid, recipe)
    inv = cfg.section("inverse")
    beta_scale = float(inv["beta_scale"])
    rep = stability_sweep(
        case, [float(d) for d in inv["deltas"]],
        _recon_config(inv, float(inv["beta"])),
        seeds=[int(s) for s in inv["seeds"]],
        beta_rule=lambda d: beta_scale * d * d,
        noisy_slices=bool(inv["noisy_slices"]),
    )
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
    summary = {
        "slope": rep.slope, "r2": rep.r2, "slope_mean": rep.slope_mean,
        "slope_spread": rep.slope_spread,
        "per_seed_slopes": {str(k): v for k, v in rep.per_seed_slopes.items()},
        "excluded": [list(e) for e in rep.excluded],
        "max_normal_residual": max(r.normal_residual for r in rep.rows),
        "timings": rep.timings,
    }
    return RunReport(cfg.experiment, cfg.resolved, [table], summary=summary,
                     extra_json={"slope": slope_payload})


def _ceps_table(rep) -> ResultTable:
    rows = tuple((r.eps, r.member, r.lhs, r.rhs, r.ratio) for r in rep.rows)
    return ResultTable("ceps", ("epsilon", "member", "lhs", "rhs", "ratio"), rows)


def _run_state_det(cfg: ExperimentConfig) -> RunReport:
    grid = cfg.build_grid()
    recipe = cfg.coeff_recipe()
    ens = _build_function_ensemble(cfg, grid)
    sd = cfg.section("statedet")
    rep = thm1_experiment(ens, recipe, cfg.epsilons(), refine=bool(sd["refine"]))
    summary = {
        "per_eps_max": {repr(k): v for k, v in rep.per_eps_max.items()},
        "drift": rep.drift,
        "excluded_members": list(rep.excluded),
    }
    return RunReport(cfg.experiment, cfg.resolved, [_ceps_table(rep)],
                     summary=summary, timings=rep.timings)


def _run_nonlinear_diff(cfg: ExperimentConfig) -> RunReport:
    grid = cfg.build_grid()
    nl_recipe = cfg.nonlinear_recipe()
    nl = nl_recipe.sample(grid)
    spec = cfg.section("nonlinear")
    rng = np.random.default_rng(int(spec["seed"]))
    amp = float(spec["amplitude"])
    fields = [random_cosine_field(rng, grid.lengths, grid.T, 3, 3, amp)
              for _ in range(4)]
    pair = make_nonlinear_pair(fields[0], fields[1], fields[2], fields[3], nl)
    sd = cfg.section("statedet")
    rep = thm4_experiment(pair, cfg.epsilons(), nl_recipe=nl_recipe,
                          refine=bool(sd["refine"]))
    summary = {
        "per_eps_max": {repr(k): v for k, v in rep.per_eps_max.items()},
        "drift": rep.drift,
        "m1": rep.extras["m1"],
        "m2": rep.extras["m2"],
    }
    return RunReport(cfg.experiment, cfg.resolved, [_ceps_table(rep)],
                     summary=summary,
                     extra_json={"bounds": {"m1": rep.extras["m1"],
                                            "m2": rep.extras["m2"]}})


_DRIVERS = {
    "verify-weights": _run_verify_weights,
    "verify-carleman": _run_verify_carleman,
    "lemma3": _run_lemma3,
    "reconstruct": _run_reconstruct,
    "stability-sweep": _run_stability_sweep,
    "state-det": _run_state_det,
    "nonlinear-diff": _run_nonlinear_diff,
}

_SEED_SLOT = {
    "verify-carleman": ("ensemble", "seed"),
    "lemma3": ("ensemble", "seed"),
    "reconstruct": ("ensemble", "seed"),
    "stability-sweep": ("ensemble", "seed"),
    "state-det": ("ensemble", "seed"),
    "nonlinear-diff": ("nonlinear", "seed"),
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
        slot = _SEED_SLOT.get(args.experiment)
        if slot is None:
            parser.error(f"{args.experiment} has no seed to override")
        overrides[f"{slot[0]}.{slot[1]}"] = int(args.seed)
    if args.out is not None:
        overrides["output.dir"] = args.out

    try:
        config = load_config(args.config, experiment=args.experiment,
                             overrides=overrides)
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
