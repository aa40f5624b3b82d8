"""Manufactured states and discrete residuals for the coupled system.

The linear model is

    d_t u + A u = c0 v + F,      d_t v - B v = A0 u + G,

with homogeneous conormal data; the nonlinear model couples a
Hamilton-Jacobi-type backward equation to a transport-diffusion forward
equation.  The mixed time directions make the direct initial/terminal value
problem awkward, so all quantitative experiments consume manufactured cases:
states built from the cosine basis and sources defined as exact residuals;
the inverse reads its observations off the states.  No forward solver is
included: the results concern given solutions, and the inverse builds its
states from its own least-squares rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, Optional, Union

import numpy as np

from .basis import SeparableField, random_cosine_field
from .coefficients import (
    CoeffRecipe,
    CoeffSet,
    MmsRejected,
    NonlinearCoeffs,
    SourceFactors,
    apply_operator,
    sample_spatial,
)
from .grid import SPACE_TIME, Face, Grid, GridFn, diff, face_values

__all__ = [
    "CaseEnsemble",
    "CaseRecipe",
    "ManufacturedCase",
    "MmsRejected",
    "NonlinearPair",
    "analytic_linear_residuals",
    "make_nonlinear_pair",
    "mms_case_ensemble",
    "mms_linear",
    "resampled_cases",
    "residual",
]

CONORMAL_TOL = 1e-10


@dataclass(frozen=True)
class CaseRecipe:
    """Grid-independent description of a manufactured case."""

    u_field: SeparableField
    v_field: SeparableField
    coeff_recipe: CoeffRecipe
    f_spec: Union[float, Callable[..., np.ndarray]]
    g_spec: Union[float, Callable[..., np.ndarray]]
    q_min: float = 0.1
    q_mode: Literal["discrete", "analytic"] = "discrete"

    def build(self, grid: Grid, q_min: Optional[float] = None,
              coeffs: Optional[CoeffSet] = None) -> "ManufacturedCase":
        """Sample the case on ``grid``; ``coeffs``, when given, is this
        recipe's coefficient set already sampled there (shared, not copied)."""
        if coeffs is None:
            coeffs = self.coeff_recipe.sample(grid)
        return mms_linear(
            self.u_field, self.v_field, coeffs,
            sample_spatial(grid, self.f_spec), sample_spatial(grid, self.g_spec),
            q_min=self.q_min if q_min is None else q_min,
            q_mode=self.q_mode, recipe=self,
        )


@dataclass(frozen=True)
class ManufacturedCase:
    """Exactly consistent states and sources of the linear system; the
    observations are read from the states (``inverse.make_inverse_data``)."""

    grid: Grid
    coeffs: CoeffSet
    u: GridFn
    v: GridFn
    u_field: SeparableField
    v_field: SeparableField
    F: GridFn
    G: GridFn
    sources: SourceFactors
    q_mode: str
    recipe: Optional[CaseRecipe] = None

    def resample(self, grid: Grid,
                 coeffs: Optional[CoeffSet] = None) -> "ManufacturedCase":
        """Rebuild on another grid of the same domain (``coeffs`` as in
        :meth:`CaseRecipe.build`).

        The t0 modulation floor is relaxed to machine level here: it was
        enforced where the case was drawn, and refined sampling may dip
        slightly between the accepted coarse nodes.
        """
        if self.recipe is None:
            raise ValueError("case has no recipe attached; cannot resample")
        if not grid.same_domain(self.grid):
            raise ValueError("resampling grid must share the domain")
        return self.recipe.build(grid, q_min=1e-12, coeffs=coeffs)

    def scaled(self, c: float) -> "ManufacturedCase":
        """Same case with all states and sources scaled by c (the
        factorization keeps q fixed and scales f, g)."""
        src = self.sources
        scaled_sources = SourceFactors(
            grid=self.grid, q1=src.q1, q2=src.q2, f=c * src.f, g=c * src.g,
            q_min=src.q_min,
        )
        return ManufacturedCase(
            grid=self.grid, coeffs=self.coeffs,
            u=self.u.scaled(c), v=self.v.scaled(c),
            u_field=self.u_field.scaled(c), v_field=self.v_field.scaled(c),
            F=self.F.scaled(c), G=self.G.scaled(c),
            sources=scaled_sources, q_mode=self.q_mode,
        )


def residual(kind: str, u: GridFn, v: GridFn,
             coeffs: Optional[CoeffSet] = None,
             nl: Optional[NonlinearCoeffs] = None) -> tuple[GridFn, GridFn]:
    """Discrete residual pair of the linear or nonlinear system.

    Linear:    Ru = d_t u + A u - c0 v,          Rv = d_t v - B v - A0 u.
    Nonlinear: Ru = d_t u + a lap(u) - k|grad u|^2/2 + p v,
               Rv = d_t v - lap(a v) - div(k v grad u),
    with the composite terms expanded by the product rule and every
    derivative (including those of the coefficient fields) taken with the
    shared stencils.
    """
    if u.kind != SPACE_TIME or v.kind != SPACE_TIME:
        raise ValueError("residual requires space-time fields")
    g = u.grid
    if kind == "linear":
        if coeffs is None:
            raise ValueError("linear residual needs a CoeffSet")
        ru = diff(u, t_order=1).values + apply_operator("A", u, coeffs).values \
            - coeffs.c0 * v.values
        rv = diff(v, t_order=1).values - apply_operator("B", v, coeffs).values \
            - apply_operator("A0", u, coeffs).values
        return GridFn(g, SPACE_TIME, ru), GridFn(g, SPACE_TIME, rv)
    if kind == "nonlinear":
        if nl is None:
            raise ValueError("nonlinear residual needs NonlinearCoeffs")
        d = g.dim
        grad_u = [diff(u, x=(i,)).values for i in range(d)]
        grad_v = [diff(v, x=(i,)).values for i in range(d)]
        lap_u = sum(diff(u, x=(i, i)).values for i in range(d))
        lap_v = sum(diff(v, x=(i, i)).values for i in range(d))
        a_fn = GridFn(g, SPACE_TIME, nl.a)
        k_fn = GridFn(g, SPACE_TIME, nl.kappa)
        grad_a = [diff(a_fn, x=(i,)).values for i in range(d)]
        lap_a = sum(diff(a_fn, x=(i, i)).values for i in range(d))
        grad_k = [diff(k_fn, x=(i,)).values for i in range(d)]
        gu_sq = sum(gi * gi for gi in grad_u)
        ru = diff(u, t_order=1).values + nl.a * lap_u - 0.5 * nl.kappa * gu_sq \
            + nl.p * v.values
        # lap(a v) = a lap v + 2 grad a . grad v + v lap a
        lap_av = nl.a * lap_v + 2.0 * sum(ga * gv for ga, gv in zip(grad_a, grad_v)) \
            + v.values * lap_a
        # div(k v grad u) = (k grad v + v grad k) . grad u + k v lap u
        div_term = sum((nl.kappa * gv + v.values * gk) * gu
                       for gv, gk, gu in zip(grad_v, grad_k, grad_u)) \
            + nl.kappa * v.values * lap_u
        rv = diff(v, t_order=1).values - lap_av - div_term
        return GridFn(g, SPACE_TIME, ru), GridFn(g, SPACE_TIME, rv)
    raise ValueError(f"unknown residual kind {kind!r}")


def analytic_linear_residuals(u_field: SeparableField, v_field: SeparableField,
                              coeffs: CoeffSet) -> tuple[np.ndarray, np.ndarray]:
    """Residuals with every state derivative taken in closed form.

    Coefficient fields still enter as sampled arrays, so the result differs
    from the stencil residual by the stencil truncation error only.
    """
    g = coeffs.grid
    d = g.dim
    u = u_field.sample(g).values
    v = v_field.sample(g).values
    ru = u_field.dt().sample(g).values + coeffs.a0 * u - coeffs.c0 * v
    rv = v_field.dt().sample(g).values - coeffs.b0 * v
    for i in range(d):
        ru = ru + coeffs.a1[i] * u_field.dx(i).sample(g).values
        rv = rv - coeffs.b1[i] * v_field.dx(i).sample(g).values
        for j in range(d):
            ru = ru + coeffs.a2[i, j] * u_field.dx(i).dx(j).sample(g).values
            rv = rv - coeffs.b2[i, j] * v_field.dx(i).dx(j).sample(g).values
    for gidx, coef in coeffs.b_gamma.items():
        dfld = u_field
        for ax, order in enumerate(gidx):
            for _ in range(order):
                dfld = dfld.dx(ax)
        rv = rv - coef * dfld.sample(g).values
    return ru, rv


def max_exact_conormal(fld: SeparableField, m2: np.ndarray, grid: Grid,
                       face: Face) -> float:
    """Bound sum_j max|m2[axis, j]| * max|d_j fld| of the exact conormal of
    ``fld`` on ``face``, with the coefficients read on that face."""
    worst = 0.0
    for j in range(grid.dim):
        coef = float(np.max(np.abs(face_values(grid, m2[face.axis, j], face))))
        if coef != 0.0:
            worst += coef * fld.max_abs_face_dx(grid, face, j)
    return worst


def _check_conormal_exact(fld: SeparableField, coeffs: CoeffSet, which: str,
                          name: str) -> None:
    g = coeffs.grid
    m2 = coeffs.a2 if which == "A" else coeffs.b2
    for face in g.all_faces():
        worst = max_exact_conormal(fld, m2, g, face)
        if worst > CONORMAL_TOL:
            raise MmsRejected(
                f"conormal of {name} on {face.label()} reaches {worst:.3g} "
                f"(need <= {CONORMAL_TOL}); use cosine states with diagonal "
                f"principal coefficients"
            )


def mms_linear(u_field: SeparableField, v_field: SeparableField,
               coeffs: CoeffSet, f: np.ndarray, g: np.ndarray, *,
               q_min: float = 0.1,
               q_mode: Literal["discrete", "analytic"] = "discrete",
               recipe: Optional[CaseRecipe] = None) -> ManufacturedCase:
    """Build a manufactured case for the linear system.

    Sources factorize as F = q1 f, G = q2 g with the modulations defined by
    division, which makes the factorization identity exact.  In the default
    ``discrete`` mode the residuals are the stencil residuals, so the stored
    sources close the discrete system exactly; ``analytic`` mode uses
    closed-form state derivatives instead, which is what refinement studies
    of the slice-formula recovery need (in discrete mode that recovery is
    exact by construction and has no order to measure).

    Cases whose modulations dip below ``q_min`` at t0 (checked by
    ``SourceFactors``), or whose f or g vanishes somewhere, are rejected.
    """
    grid = coeffs.grid
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != grid.space_shape or g.shape != grid.space_shape:
        raise ValueError("f and g must be spatial fields on the case grid")
    f_floor = float(np.min(np.abs(f)))
    g_floor = float(np.min(np.abs(g)))
    if f_floor < 1e-8 * float(np.max(np.abs(f))) or \
            g_floor < 1e-8 * float(np.max(np.abs(g))):
        raise MmsRejected("f and g must be bounded away from zero")

    _check_conormal_exact(u_field, coeffs, "A", "u")
    _check_conormal_exact(v_field, coeffs, "B", "v")

    u = u_field.sample(grid)
    v = v_field.sample(grid)
    if q_mode == "discrete":
        F_arr, G_arr = (r.values for r in residual("linear", u, v, coeffs=coeffs))
    elif q_mode == "analytic":
        F_arr, G_arr = analytic_linear_residuals(u_field, v_field, coeffs)
    else:
        raise ValueError(f"unknown q_mode {q_mode!r}")

    q1 = F_arr / f[..., None]
    q2 = G_arr / g[..., None]
    sources = SourceFactors(grid=grid, q1=q1, q2=q2, f=f, g=g, q_min=q_min)
    return ManufacturedCase(
        grid=grid, coeffs=coeffs, u=u, v=v,
        u_field=u_field, v_field=v_field,
        F=GridFn(grid, SPACE_TIME, q1 * f[..., None]),
        G=GridFn(grid, SPACE_TIME, q2 * g[..., None]),
        sources=sources,
        q_mode=q_mode,
        recipe=recipe,
    )


@dataclass(frozen=True)
class CaseEnsemble:
    """Deterministic family of manufactured cases (redraws included in the
    seeded stream, so a seed pins the accepted members)."""

    seed: int
    cases: tuple[ManufacturedCase, ...]

    def __len__(self) -> int:
        return len(self.cases)


def resampled_cases(cases: Iterable[ManufacturedCase], grid: Grid,
                    sampled: Optional[tuple[CoeffRecipe, CoeffSet]] = None
                    ) -> Iterator[ManufacturedCase]:
    """Each case rebuilt on ``grid`` only when it is asked for, so a caller
    that drops one case before it takes the next holds one at a time.

    Cases drawn from one coefficient recipe share one coefficient set sampled
    on ``grid``, as when they were drawn.  ``sampled``, a recipe with its
    coefficient set already sampled on ``grid``, serves the cases drawn from
    that very recipe object; any other recipe is sampled when its run of
    cases starts.
    """
    recipe, coeffs = sampled if sampled is not None else (None, None)
    for c in cases:
        if c.recipe is not None and c.recipe.coeff_recipe is not recipe:
            recipe = c.recipe.coeff_recipe
            coeffs = recipe.sample(grid)
        yield c.resample(grid, coeffs=coeffs)


def mms_case_ensemble(seed: int, n: int, grid: Grid, coeff_recipe: CoeffRecipe,
                      f_spec, g_spec, *, max_modes: int = 3, t_degree: int = 3,
                      amplitude: float = 1.0, q_min: float = 0.1,
                      q_mode: Literal["discrete", "analytic"] = "discrete",
                      max_attempts: int = 400) -> CaseEnsemble:
    """Draw manufactured cases until ``n`` satisfy the t0 modulation floor."""
    rng = np.random.default_rng(seed)
    coeffs = coeff_recipe.sample(grid)
    cases = []
    attempts = 0
    while len(cases) < n:
        attempts += 1
        if attempts > max_attempts:
            raise MmsRejected(
                f"could not draw {n} admissible cases in {max_attempts} attempts "
                f"(q_min={q_min} too strict for this recipe?)"
            )
        u_field = random_cosine_field(rng, grid.lengths, grid.T, max_modes,
                                      t_degree, amplitude)
        v_field = random_cosine_field(rng, grid.lengths, grid.T, max_modes,
                                      t_degree, amplitude)
        rec = CaseRecipe(u_field, v_field, coeff_recipe, f_spec, g_spec,
                         q_min=q_min, q_mode=q_mode)
        try:
            cases.append(rec.build(grid, coeffs=coeffs))
        except MmsRejected:
            continue
    return CaseEnsemble(seed, tuple(cases))


# ---------------------------------------------------------------------------
# nonlinear pairs


@dataclass(frozen=True)
class NonlinearPair:
    """Two states of the nonlinear system with their residual sources and
    the sup-norm bound of the pair."""

    grid: Grid
    nl: NonlinearCoeffs
    u1: GridFn
    v1: GridFn
    u2: GridFn
    v2: GridFn
    u1_field: SeparableField
    v1_field: SeparableField
    u2_field: SeparableField
    v2_field: SeparableField
    F1: GridFn
    G1: GridFn
    F2: GridFn
    G2: GridFn
    m1: float


def _sup_norm_w2(u: GridFn) -> float:
    g = u.grid
    vals = [float(np.max(np.abs(u.values)))]
    for i in range(g.dim):
        vals.append(float(np.max(np.abs(diff(u, x=(i,)).values))))
        for j in range(g.dim):
            vals.append(float(np.max(np.abs(diff(u, x=(i, j)).values))))
    return max(vals)


def _sup_norm_w1(v: GridFn) -> float:
    g = v.grid
    vals = [float(np.max(np.abs(v.values)))]
    for i in range(g.dim):
        vals.append(float(np.max(np.abs(diff(v, x=(i,)).values))))
    return max(vals)


def make_nonlinear_pair(u1_field, v1_field, u2_field, v2_field,
                        nl: NonlinearCoeffs) -> NonlinearPair:
    """Sample two manufactured nonlinear states and their residual sources."""
    grid = nl.grid
    for name, fld in (("u1", u1_field), ("v1", v1_field),
                      ("u2", u2_field), ("v2", v2_field)):
        for face in grid.all_faces():
            worst = fld.max_abs_face_dx(grid, face)
            if worst > CONORMAL_TOL:
                raise MmsRejected(
                    f"normal derivative of {name} on {face.label()} is {worst:.3g}"
                )
    u1, v1 = u1_field.sample(grid), v1_field.sample(grid)
    u2, v2 = u2_field.sample(grid), v2_field.sample(grid)
    F1, G1 = residual("nonlinear", u1, v1, nl=nl)
    F2, G2 = residual("nonlinear", u2, v2, nl=nl)
    m1 = max(_sup_norm_w2(u1) + _sup_norm_w1(v1),
             _sup_norm_w2(u2) + _sup_norm_w1(v2))
    return NonlinearPair(grid=grid, nl=nl, u1=u1, v1=v1, u2=u2, v2=v2,
                         u1_field=u1_field, v1_field=v1_field,
                         u2_field=u2_field, v2_field=v2_field,
                         F1=F1, G1=G1, F2=F2, G2=G2, m1=m1)

