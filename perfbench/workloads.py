"""Workloads of the mfglab benchmark: configs, seed mapping, output checks.

A workload is a list of experiments that one pass runs back to back, the
way a user runs the CLI on each config.  The workload seed is mapped onto
the configs' own seed slots (``ensemble.seed``, ``nonlinear.seed``,
``inverse.seeds``); the library only ever sees the resulting configs.

* ``inverse_sweep``: the shipped stability sweep exactly as shipped, 15
  ``reconstruct`` calls on one fixed 65^2 system.  Every solve rebuilds the
  same state block, so reuse across solves shows here.  The workload seed
  is not mapped onto its noise seeds: the sweep's r^2 >= 0.95 pin holds at
  the shipped noise seeds (0, 1, 2) but failed for 4 of 10 random noise
  triples (r^2 0.930 to 0.945), so a seeded sweep would fail its own
  acceptance check on a seed-dependent share of runs.
* ``inverse_cold``: five independent ``reconstruct`` experiments, each on
  its own seeded random case and noise (two at 33^2, two at 65^2, one at
  97^2).  No two solves share a system, so reuse across solves gains
  nothing, and the sizes move the working set from inside L2 to tens of
  MB (peak RSS about 310 MB).  The largest case is 97^2 rather than 129^2:
  a 129^2 solve takes 6 to 8 s on a 2-core desk machine and varied most
  from run to run, and with it a 40 s run held only three passes.
* ``lab_suite``: the six shipped non-inverse configs.  ``inverse`` is never
  called; grid, weights, verify, models, statedet and reports do the work.
  The seed is mapped onto lemma3, energy_slices, state_det and
  nonlinear_diff.  verify_carleman keeps its shipped ensemble seed (7) for
  the same reason as the sweep: its THM3 drift pin [0.5, 2] failed for 8
  of 16 random ensembles (drift 0.25 to 0.46).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
INVERSE_COLD_CONFIG = HERE / "configs" / "inverse_cold.yaml"
INVERSE_COLD_SIZES = (33, 33, 65, 65, 97)
WORKLOADS = ("inverse_sweep", "inverse_cold", "lab_suite")


@dataclass(frozen=True)
class Experiment:
    """One CLI invocation: a config file plus the overrides the benchmark
    applies through ``load_config`` (seed slots, grid size)."""

    label: str
    config: str
    overrides: dict[str, Any] = field(default_factory=dict)


def experiments(workload: str, seed: int, root: Path) -> list[Experiment]:
    """The experiments of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")

    def draw() -> int:
        return rng.randrange(2**31)

    configs = root / "configs"
    if workload == "inverse_sweep":
        return [Experiment("stability_sweep", str(configs / "stability_sweep.yaml"))]
    if workload == "inverse_cold":
        return [Experiment(f"reconstruct_{i}_{n}", str(INVERSE_COLD_CONFIG),
                           {"grid.nx": [n], "grid.nt": n,
                            "ensemble.seed": draw(), "inverse.seeds": [draw()]})
                for i, n in enumerate(INVERSE_COLD_SIZES)]
    if workload == "lab_suite":
        out = [Experiment("verify_weights", str(configs / "verify_weights.yaml")),
               Experiment("verify_carleman", str(configs / "verify_carleman.yaml"))]
        for name in ("lemma3", "energy_slices", "state_det"):
            out.append(Experiment(name, str(configs / f"{name}.yaml"),
                                  {"ensemble.seed": draw()}))
        out.append(Experiment("nonlinear_diff", str(configs / "nonlinear_diff.yaml"),
                              {"nonlinear.seed": draw()}))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# output checks: the acceptance pins, applied to each experiment's report

DRIFT_RANGE = (0.5, 2.0)
# kinds whose refinement drift an acceptance criterion pins (03 and 08);
# LEMMA1/2/4 sit in the quadrature-limited range at the shipped config and
# carry no drift pin
DRIFT_PINNED_KINDS = ("THM3", "ENERGY_3_8", "ENERGY_3_9")

Check = tuple[str, bool]


def _finite(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _in_drift_range(x: Any) -> bool:
    return _finite(x) and DRIFT_RANGE[0] <= x <= DRIFT_RANGE[1]


def _table(report, name: str):
    for t in report.tables:
        if t.name == name:
            return t
    raise KeyError(name)


def _column(table, col: str) -> list:
    i = table.header.index(col)
    return [row[i] for row in table.rows]


def _check_verify_weights(report) -> list[Check]:
    return [("weight_identities_pass", report.summary["all_passed"] is True)]


def _check_verify_carleman(report) -> list[Check]:
    ratios = _column(_table(report, "carleman"), "ratio")
    checks = [("carleman_ratios_finite", all(_finite(r) for r in ratios))]
    for kind, info in sorted(report.summary.items()):
        checks.append((f"{kind}_no_invalid_cells", info["invalid_cells"] == []))
        if kind in DRIFT_PINNED_KINDS:
            checks.append((f"{kind}_drift_in_range", _in_drift_range(info["drift"])))
    return checks


def _check_lemma3(report) -> list[Check]:
    ratios = _column(_table(report, "lemma3"), "ratio")
    consts = [v for k, v in report.summary.items() if k.startswith("c_emp_p")]
    return [("lemma3_ratios_finite", all(_finite(r) for r in ratios)),
            ("lemma3_constants_positive", all(_finite(c) and c > 0 for c in consts))]


def _ceps_curves(report) -> dict[int, list[float]]:
    table = _table(report, "ceps")
    curves: dict[int, list[tuple[float, float]]] = {}
    for eps, member, _lhs, _rhs, ratio in table.rows:
        curves.setdefault(member, []).append((eps, ratio))
    return {m: [r for _, r in sorted(pts)] for m, pts in curves.items()}


def _check_ceps(report, label: str, monotone: bool) -> list[Check]:
    ratios = _column(_table(report, "ceps"), "ratio")
    checks = [(f"{label}_ratios_finite", all(_finite(r) for r in ratios)),
              (f"{label}_drift_in_range", _in_drift_range(report.summary["drift"]))]
    if monotone:
        excluded = set(report.summary.get("excluded_members", ()))
        ok = all(all(c[k] >= c[k + 1] for k in range(len(c) - 1))
                 for m, c in _ceps_curves(report).items() if m not in excluded)
        checks.append((f"{label}_curves_non_increasing", ok))
    return checks


def _check_state_det(report) -> list[Check]:
    return _check_ceps(report, "thm1", monotone=True)


def _check_nonlinear_diff(report) -> list[Check]:
    return _check_ceps(report, "thm4", monotone=False)


def _check_reconstruct(report) -> list[Check]:
    s = report.summary
    return [("reconstruct_converged", s["converged"] is True),
            ("reconstruct_errors_finite",
             _finite(s["rel_err_f"]) and _finite(s["rel_err_g"]))]


def _check_stability_sweep(report) -> list[Check]:
    s = report.summary
    return [("sweep_none_excluded", s["excluded"] == []),
            ("sweep_slope_in_range", _finite(s["slope"]) and 0.8 <= s["slope"] <= 1.2),
            ("sweep_r2", _finite(s["r2"]) and s["r2"] >= 0.95)]


CHECKS: dict[str, Callable[[Any], list[Check]]] = {
    "verify-weights": _check_verify_weights,
    "verify-carleman": _check_verify_carleman,
    "lemma3": _check_lemma3,
    "state-det": _check_state_det,
    "nonlinear-diff": _check_nonlinear_diff,
    "reconstruct": _check_reconstruct,
    "stability-sweep": _check_stability_sweep,
}


def check_report(report) -> list[Check]:
    """Run the output checks of one experiment's report."""
    return CHECKS[report.experiment](report)
