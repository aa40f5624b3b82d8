"""Interior-estimate experiments: bounding interior space-time energies of
the states by sources and lateral observations.

The interior norm lives on the time-shrunk cylinder (eps, T - eps); the
constant in front of the data necessarily degrades as eps shrinks, so the
experiments record a curve of empirical constants over an eps grid.  The
nonlinear variant applies the same machinery to the difference of two
states of the nonlinear system, whose difference equations are linear in
the difference with coefficients bounded by the pair's sup norms.  Both
run their grid passes, the coarse one and the refined one, through one
driver that builds each pass's states on its grid from their closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .basis import SeparableField
from .coefficients import CoeffRecipe, CoeffSet, NonlinearCoeffs, NonlinearRecipe
from .grid import (
    SPACE_TIME,
    DiffMemo,
    Grid,
    GridFn,
    face_quad_weights,
    gamma_jets,
    h21_interior_sq_curve,
    h21_parts,
    interior_span,
    norm,
)
from .models import FieldPair, _nonlinear_states, _pair_bounds, residual
from .reports import stage

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


def _interior_curve(u: DiffMemo, v: DiffMemo,
                    eps_grid: Sequence[float]) -> list[float]:
    """Left sides ||u||_{H21_interior} + ||v||_{H21_interior} over the eps
    grid, each state's parts summed over space once per time slice
    (:func:`~mfglab.grid.h21_interior_sq_curve`), so each eps costs one
    sum of slice totals per part."""
    g = u.grid
    cu = h21_interior_sq_curve(g, h21_parts(u), eps_grid)
    cv = h21_interior_sq_curve(g, h21_parts(v), eps_grid)
    return [math.sqrt(a) + math.sqrt(b) for a, b in zip(cu, cv)]


def _state_rhs(u: GridFn, v: GridFn, F: GridFn, G: GridFn) -> float:
    u_h1, u_grad = trace_data_norms(u)
    v_h1, v_grad = trace_data_norms(v)
    return (norm(F, "L2_Q") + norm(G, "L2_Q")
            + u_h1 + u_grad + v_h1 + v_grad)


def _eps_nodes(grid: Grid, eps_grid: Sequence[float]) -> tuple[float, ...]:
    """Each eps moved inward to the time node of ``grid`` its
    :func:`~mfglab.grid.interior_span` starts at, which a refined grid
    keeps; two eps that start at one node are refused."""
    nodes: dict[float, float] = {}
    for eps in eps_grid:
        node = float(grid.ts[interior_span(grid, eps)[0]])
        if node in nodes:
            raise ValueError(f"eps={eps} and eps={nodes[node]} both start "
                             f"at the time node {node}")
        nodes[node] = eps
    return tuple(nodes)


def _eps_sweep(states: Iterable[tuple[DiffMemo, DiffMemo, GridFn, GridFn]],
               eps_t: tuple[float, ...]
               ) -> tuple[list[CepsRow], list[int], dict[float, float]]:
    """Rows, excluded indices and per-eps maxima over (u, v, F, G) tuples,
    states ``u, v`` given as derivative memos, with sources ``F, G``.  The
    right side is taken once per tuple and the left sides of every eps in
    one pass (:func:`_interior_curve`).  The sources are dropped once the
    right side is taken and the states, with every derivative in their
    memos, once the left sides are, so a lazy ``states`` holds one tuple at
    a time."""
    rows: list[CepsRow] = []
    excluded: list[int] = []
    per_eps: dict[float, float] = {e: 0.0 for e in eps_t}
    # a counter, not enumerate: enumerate's result tuple would keep the last
    # tuple alive while the next one is drawn
    i = 0
    for u, v, F, G in states:
        rhs = _state_rhs(u.fn, v.fn, F, G)
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


def _thm1_states(forms: Iterable, coeffs: CoeffSet
                 ) -> Iterator[tuple[DiffMemo, DiffMemo, GridFn, GridFn]]:
    """Each closed form's states, sampled on the grid of ``coeffs`` as
    derivative memos, with its linear residuals, computed through them, as
    sources; the memos go with the tuple."""
    grid = coeffs.grid
    for form in forms:
        u, v = (DiffMemo(f.sample(grid)) for f in (form.u_field, form.v_field))
        yield (u, v, *residual("linear", u, v, coeffs=coeffs))
        del u, v  # before the next form is sampled


def _nonlinear_differences(fields: Sequence[SeparableField], nl: NonlinearCoeffs,
                           bounds: Optional[dict[str, float]] = None
                           ) -> Iterator[tuple[DiffMemo, DiffMemo, GridFn, GridFn]]:
    """The one sweep tuple of a nonlinear pair ``fields`` (u1, v1, u2, v2) on
    the grid of ``nl``: the state and source differences, the states as
    derivative memos.  The bounds m1 and m2 of the pair go into ``bounds``
    when it is given, read through both pairs' memos; without it only each
    pair's values are kept, so its derivatives go before the next pair is
    sampled.  The pair's states go before the tuple is swept."""
    pairs, kappa = _nonlinear_states(fields, nl)
    states, sources = [], []
    for u, v, F, G in pairs:
        states += (u, v) if bounds is not None else (u.fn, v.fn)
        sources += (F, G)
        del u, v  # the loop would keep them while the next pair is sampled
    if bounds is not None:
        bounds.update(_pair_bounds(states, kappa))
    du, dv, dF, dG = (GridFn(nl.grid, SPACE_TIME, a.values - b.values)
                      for a, b in zip(states[:2] + sources[:2],
                                      states[2:] + sources[2:]))
    del states, sources, kappa
    yield DiffMemo(du), DiffMemo(dv), dF, dG


def _coarse_and_refined(build: Callable[[Grid], Iterable], grid: Grid,
                        eps_grid: Sequence[float], refine: bool,
                        extras: dict[str, float]) -> CepsReport:
    """The curve of :func:`_eps_sweep` over the tuples ``build(grid)`` and,
    when ``refine`` is set, its drift: the ratio of the largest per-eps
    maximum over ``build(grid.refined(2))`` to that of the coarse pass.
    Every pass sweeps the :func:`_eps_nodes` of ``eps_grid`` on ``grid``,
    so they integrate over the same intervals, and each pass's tuples are
    built and exhausted before the next pass starts.  Inside
    ``reports.recording`` the passes are timed as the stages ``coarse_s``
    and ``refined_s``."""
    eps_t = _eps_nodes(grid, eps_grid)
    grids = (grid, grid.refined(2)) if refine else (grid,)
    passes = []
    for g, name in zip(grids, ("coarse_s", "refined_s")):
        with stage(name):
            passes.append(_eps_sweep(build(g), eps_t))
    (rows, excluded, per_eps), *fine = passes
    drift = None
    if fine:
        coarse_max = max(per_eps.values())
        drift = (max(fine[0][2].values()) / coarse_max
                 if coarse_max > 0 else math.inf)
    return CepsReport(eps_grid=eps_t, rows=tuple(rows), per_eps_max=per_eps,
                      excluded=tuple(excluded), drift=drift, extras=extras)


def thm1_experiment(ensemble: Sequence, coeff_recipe: CoeffRecipe, grid: Grid,
                    eps_grid: Sequence[float], *, refine: bool = True) -> CepsReport:
    """Interior estimate for the linear system over an ensemble on ``grid``.

    ``ensemble`` is a tuple of closed forms with fields ``u_field`` and
    ``v_field``, such as :func:`~mfglab.verify.generate_ensemble` draws, so
    each per-eps maximum is a lower bound on the supremum of the ratio over
    the class they are drawn from (cosine modes up to ``max_modes`` per
    axis, time degree up to ``t_degree``).  For every member the sources
    are the discrete residuals, the right side is eps-independent (source
    norms plus the four observation norms), and the left side shrinks with
    eps by set inclusion, so each member's ratio curve is non-increasing in
    eps exactly.  Each eps is moved inward to the time node of ``grid`` its
    interval starts at, which the rows name (:func:`_eps_nodes`).  Members
    with a right side at numerical zero are excluded (0/0).  The curve is
    recomputed once on the doubled grid when ``refine`` is set.  Every pass
    samples each member just before it is used and drops it after, so a
    pass holds one member at a time.  An empty ensemble is refused.
    """
    if len(ensemble) == 0:
        raise ValueError("ensemble must be non-empty")
    return _coarse_and_refined(lambda g: _thm1_states(ensemble, coeff_recipe.sample(g)),
                               grid, eps_grid, refine, {})


def thm4_experiment(pairs: Sequence[FieldPair],
                    nl_recipe: NonlinearRecipe, grid: Grid,
                    eps_grid: Sequence[float], *, refine: bool = False) -> CepsReport:
    """Difference stability for the nonlinear system.

    ``pairs`` holds the closed forms ``(u1_field, v1_field)`` and
    ``(u2_field, v2_field)`` of two states, such as the first two pairs of
    :func:`~mfglab.models.cosine_pairs`.  Each grid pass samples
    ``nl_recipe`` there and builds the states and their residual sources
    through one :func:`~mfglab.models._nonlinear_states` call, so the
    refined pass runs the coarse pass's code on the doubled grid.  The
    ratio compares interior norms of the state differences against the
    source-difference norms plus the difference observation norms, each eps
    moved to a time node of ``grid`` as in :func:`thm1_experiment`.  The
    coefficient bounds m1 (states) and m2 (difference system) of the
    coarse pair are reported in ``extras``.
    """
    (u1, v1), (u2, v2) = pairs
    fields = (u1, v1, u2, v2)
    bounds: dict[str, float] = {}
    return _coarse_and_refined(
        lambda g: _nonlinear_differences(fields, nl_recipe.sample(g),
                                         bounds if g is grid else None),
        grid, eps_grid, refine, bounds)
