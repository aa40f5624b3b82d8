"""Interior-estimate experiments: bounding interior space-time energies of
the states by sources and lateral observations.

The interior norm lives on the time-shrunk cylinder (eps, T - eps); the
constant in front of the data necessarily degrades as eps shrinks, so the
experiments record a curve of empirical constants over an eps grid.  The
nonlinear variant applies the same machinery to the difference of two
states of the nonlinear system, whose difference equations are linear in
the difference with coefficients bounded by the pair's sup norms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .coefficients import CoeffRecipe, CoeffSet, NonlinearRecipe
from .grid import (
    SPACE_TIME,
    Grid,
    GridFn,
    diff,
    face_quad_weights,
    gamma_jets,
    h21_interior_sq,
    h21_parts,
    n_interior_slices,
    norm,
)
from .models import NonlinearPair, make_nonlinear_pair, residual
from .verify import EnsembleMember, FunctionEnsemble

__all__ = [
    "CepsReport",
    "CepsRow",
    "thm1_experiment",
    "thm4_experiment",
    "trace_data_norms",
]

RHS_FLOOR = 1e-14


@dataclass(frozen=True)
class CepsRow:
    eps: float
    member: int
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class CepsReport:
    """Curve of empirical interior-estimate constants over the eps grid."""

    eps_grid: tuple[float, ...]
    rows: tuple[CepsRow, ...]
    per_eps_max: dict[float, float]
    excluded: tuple[int, ...]
    drift: Optional[float] = None
    extras: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict, compare=False)

    def member_curve(self, member: int) -> list[float]:
        return [r.ratio for r in self.rows if r.member == member]

    @property
    def c_max(self) -> float:
        vals = [v for v in self.per_eps_max.values() if math.isfinite(v)]
        return max(vals) if vals else math.inf


def trace_data_norms(f: GridFn) -> tuple[float, float]:
    """Observation norms on gamma: the H1-in-time trace norm of the values
    and the space-time trace norm of the gradient."""
    g = f.grid
    h1_sq = 0.0
    grad_sq = 0.0
    for face, jet in gamma_jets(g, f.values).items():
        w = face_quad_weights(g, face)
        fv, ft = jet.value, jet.dt
        h1_sq += float(np.sum(w * (fv * fv + ft * ft)))
        for gv in jet.grad:
            grad_sq += float(np.sum(w * gv * gv))
    return math.sqrt(h1_sq), math.sqrt(grad_sq)


def _interior_curve(u: GridFn, v: GridFn, eps_grid: Sequence[float]) -> list[float]:
    """Left sides ||u||_{H21_interior} + ||v||_{H21_interior} over the eps
    grid, from one set of derivative parts per state."""
    g = u.grid
    pu, pv = h21_parts(u), h21_parts(v)
    return [math.sqrt(h21_interior_sq(g, pu, eps))
            + math.sqrt(h21_interior_sq(g, pv, eps)) for eps in eps_grid]


def _state_rhs(u: GridFn, v: GridFn, F: GridFn, G: GridFn) -> float:
    u_h1, u_grad = trace_data_norms(u)
    v_h1, v_grad = trace_data_norms(v)
    return (norm(F, "L2_Q") + norm(G, "L2_Q")
            + u_h1 + u_grad + v_h1 + v_grad)


def _validate_eps_grid(grid: Grid, eps_grid: Sequence[float]) -> tuple[float, ...]:
    out = []
    for eps in eps_grid:
        eps = float(eps)
        if not 0.0 < eps < grid.T / 2.0:
            raise ValueError(f"eps={eps} outside (0, T/2)")
        if n_interior_slices(grid, eps) < 3:
            raise ValueError(
                f"eps={eps} leaves fewer than 3 time slices on this grid"
            )
        out.append(eps)
    return tuple(out)


def _eps_sweep(states: Iterable[tuple[GridFn, GridFn, GridFn, GridFn]],
               eps_t: tuple[float, ...]
               ) -> tuple[list[CepsRow], list[int], dict[float, float]]:
    """Rows, excluded indices and per-eps maxima over (u, v, F, G) tuples,
    states ``u, v`` with sources ``F, G``.  The sources are dropped once the
    right side is taken and the states once the left sides are, so a lazy
    ``states`` holds one tuple at a time."""
    rows: list[CepsRow] = []
    excluded: list[int] = []
    per_eps: dict[float, float] = {e: 0.0 for e in eps_t}
    # a counter, not enumerate: enumerate's result tuple would keep the last
    # tuple alive while the next one is drawn
    i = 0
    for u, v, F, G in states:
        rhs = _state_rhs(u, v, F, G)
        del F, G
        curve = _interior_curve(u, v, eps_t) if rhs >= RHS_FLOOR else None
        del u, v
        if curve is None:
            excluded.append(i)
        else:
            for eps, lhs in zip(eps_t, curve):
                ratio = lhs / rhs
                rows.append(CepsRow(eps, i, lhs, rhs, ratio))
                per_eps[eps] = max(per_eps[eps], ratio)
        i += 1
    return rows, excluded, per_eps


def _thm1_sweep(members: Iterable[EnsembleMember], coeffs: CoeffSet,
                eps_t: tuple[float, ...]
                ) -> tuple[list[CepsRow], list[int], dict[float, float]]:
    """:func:`_eps_sweep` over ``members`` with their linear residuals as
    sources, all on the grid of ``coeffs``; each residual is computed just
    before its member is swept."""
    return _eps_sweep(((m.u, m.v, *residual("linear", m.u, m.v, coeffs=coeffs))
                       for m in members), eps_t)


def thm1_experiment(ensemble: FunctionEnsemble, coeff_recipe: CoeffRecipe,
                    eps_grid: Sequence[float], *,
                    refine: bool = True) -> CepsReport:
    """Interior estimate for the linear system over an ensemble.

    For every member the sources are the discrete residuals, the right side
    is eps-independent (source norms plus the four observation norms), and
    the left side shrinks with eps by set inclusion, so each member's ratio
    curve is non-increasing in eps exactly.  Members with a right side at
    numerical zero are excluded (0/0).  The curve is recomputed once on the
    doubled grid when ``refine`` is set; there each member is resampled from
    its closed form just before it is used and dropped after, so that pass
    holds one refined member at a time.  ``timings`` holds the seconds of the
    coarse pass (``coarse_s``) and, when refined, of the refined pass
    (``refined_s``).
    """
    grid = ensemble.grid
    eps_t = _validate_eps_grid(grid, eps_grid)
    start = time.perf_counter()
    rows, excluded, per_eps = _thm1_sweep(ensemble.members,
                                          coeff_recipe.sample(grid), eps_t)
    timings = {"coarse_s": time.perf_counter() - start}
    drift = None
    if refine:
        start = time.perf_counter()
        fine = grid.refined(2)
        _, _, per_eps_fine = _thm1_sweep((m.resample(fine) for m in ensemble.members),
                                         coeff_recipe.sample(fine), eps_t)
        timings["refined_s"] = time.perf_counter() - start
        coarse_max = max(per_eps.values())
        fine_max = max(per_eps_fine.values())
        drift = fine_max / coarse_max if coarse_max > 0 else math.inf
    return CepsReport(eps_grid=eps_t, rows=tuple(rows), per_eps_max=per_eps,
                      excluded=tuple(excluded), drift=drift, timings=timings)


def _pair_m2(pair: NonlinearPair) -> float:
    """Sup-norm bound on the difference-system coefficients, reported next to
    the pair bound m1 (larger states force a larger constant)."""
    g = pair.grid
    d = g.dim
    nl = pair.nl
    k_fn = GridFn(g, SPACE_TIME, nl.kappa)
    grad_k = [diff(k_fn, x=(i,)).values for i in range(d)]
    gu1 = [diff(pair.u1, x=(i,)).values for i in range(d)]
    gu2 = [diff(pair.u2, x=(i,)).values for i in range(d)]
    lap_u1 = sum(diff(pair.u1, x=(i, i)).values for i in range(d))

    sum_grad = np.sqrt(sum((nl.kappa * (g1 + g2)) ** 2 for g1, g2 in zip(gu1, gu2)))
    term1 = float(np.max(sum_grad))
    inner = sum(gk * g1 for gk, g1 in zip(grad_k, gu1)) + nl.kappa * lap_u1
    term2 = float(np.max(np.abs(inner)))
    kv2 = nl.kappa * pair.v2.values
    term3 = float(np.max(np.abs(kv2)))
    kv2_fn = GridFn(g, SPACE_TIME, kv2)
    grad_kv2 = np.sqrt(sum(diff(kv2_fn, x=(i,)).values ** 2 for i in range(d)))
    term4 = float(np.max(grad_kv2))
    return term1 + term2 + term3 + term4


def thm4_experiment(pair: NonlinearPair, eps_grid: Sequence[float], *,
                    nl_recipe: Optional[NonlinearRecipe] = None,
                    refine: bool = False) -> CepsReport:
    """Difference stability for the nonlinear system.

    The ratio compares interior norms of the state differences against the
    source-difference norms plus the difference observation norms; the
    coefficient bounds m1 (states) and m2 (difference system) are reported
    in ``extras``.  Refinement needs the nonlinear coefficient recipe.
    """
    grid = pair.grid
    eps_t = _validate_eps_grid(grid, eps_grid)

    def differences(p: NonlinearPair):
        return [tuple(GridFn(p.grid, SPACE_TIME, a.values - b.values)
                      for a, b in ((p.u1, p.u2), (p.v1, p.v2), (p.F1, p.F2),
                                   (p.G1, p.G2)))]

    rows, excluded, per_eps = _eps_sweep(differences(pair), eps_t)
    drift = None
    if refine:
        if nl_recipe is None:
            raise ValueError("refinement needs the nonlinear coefficient recipe")
        fine = grid.refined(2)
        fine_pair = make_nonlinear_pair(pair.u1_field, pair.v1_field,
                                        pair.u2_field, pair.v2_field,
                                        nl_recipe.sample(fine))
        _, _, per_eps_fine = _eps_sweep(differences(fine_pair), eps_t)
        coarse_max = max(per_eps.values())
        drift = (max(per_eps_fine.values()) / coarse_max
                 if coarse_max > 0 else math.inf)
    return CepsReport(eps_grid=eps_t, rows=tuple(rows), per_eps_max=per_eps,
                      excluded=tuple(excluded), drift=drift,
                      extras={"m1": pair.m1, "m2": _pair_m2(pair)})
