"""Manufactured states and discrete residuals for the coupled system.

The linear model is

    d_t u + A u = c0 v + F,      d_t v - B v = A0 u + G,

with homogeneous conormal data; the nonlinear model couples a
Hamilton-Jacobi-type backward equation to a transport-diffusion forward
equation.  The mixed time directions make the direct initial/terminal value
problem awkward, so all quantitative experiments consume manufactured cases:
states built from the cosine basis and sources defined as exact residuals;
the inverse reads its observations off the states.  Every random state is
drawn from the one seeded stream :func:`cosine_pairs`: the ensembles' pairs
and the two pairs of a nonlinear difference.  No forward solver is included:
the results concern given solutions, and the inverse builds its states from
its own least-squares rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Literal, Optional, Sequence, Union

import numpy as np

from .basis import SeparableField, random_cosine_field
from .coefficients import (
    CoeffRecipe,
    CoeffSet,
    MmsRejected,
    NonlinearCoeffs,
    SourceFactors,
    apply_operator,
    operator_terms,
    sample_spatial,
)
from .grid import SPACE_TIME, DiffMemo, Face, Grid, GridFn, as_memo, face_values

__all__ = [
    "CaseRecipe",
    "ManufacturedCase",
    "MmsRejected",
    "analytic_linear_residuals",
    "cosine_pairs",
    "mms_case_ensemble",
    "mms_linear",
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

    def build(self, grid: Grid, coeffs: Optional[CoeffSet] = None) -> "ManufacturedCase":
        """Sample the case on ``grid``; ``coeffs``, when given, is this
        recipe's coefficient set already sampled there (shared, not copied)."""
        if coeffs is None:
            coeffs = self.coeff_recipe.sample(grid)
        return mms_linear(
            self.u_field, self.v_field, coeffs,
            sample_spatial(grid, self.f_spec), sample_spatial(grid, self.g_spec),
            q_min=self.q_min, q_mode=self.q_mode, recipe=self,
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


def residual(kind: str, u: Union[GridFn, DiffMemo], v: Union[GridFn, DiffMemo],
             coeffs: Optional[CoeffSet] = None,
             nl: Optional[NonlinearCoeffs] = None) -> tuple[GridFn, GridFn]:
    """Discrete residual pair of the linear or nonlinear system.

    Linear:    Ru = d_t u + A u - c0 v,          Rv = d_t v - B v - A0 u.
    Nonlinear: Ru = d_t u + a lap(u) - k|grad u|^2/2 + p v,
               Rv = d_t v - lap(a v) - div(k v grad u),
    with the composite terms expanded by the product rule and every
    derivative (including those of the coefficient fields) taken with the
    shared stencils.  A state given as a :class:`DiffMemo` has its
    derivatives read through it, so a caller that keeps the memo takes
    none of them again.
    """
    if kind not in ("linear", "nonlinear"):
        raise ValueError(f"unknown residual kind {kind!r}")
    if any(isinstance(f, GridFn) and f.kind != SPACE_TIME for f in (u, v)):
        raise ValueError("residual requires space-time fields")
    u, v = as_memo(u), as_memo(v)
    g = u.grid
    if kind == "nonlinear":
        if nl is None:
            raise ValueError("nonlinear residual needs NonlinearCoeffs")
        return _nonlinear_residual(u, v, nl, *_nonlinear_memos(nl))
    if coeffs is None:
        raise ValueError("linear residual needs a CoeffSet")
    ru = u.diff(t_order=1).values + apply_operator("A", u, coeffs).values \
        - coeffs.c0 * v.values
    rv = v.diff(t_order=1).values - apply_operator("B", v, coeffs).values \
        - apply_operator("A0", u, coeffs).values
    return GridFn(g, SPACE_TIME, ru), GridFn(g, SPACE_TIME, rv)


def _nonlinear_memos(nl: NonlinearCoeffs) -> tuple[DiffMemo, DiffMemo]:
    """Derivative memos of the diffusion a and the Hamiltonian weight kappa."""
    return tuple(DiffMemo(GridFn(nl.grid, SPACE_TIME, f)) for f in (nl.a, nl.kappa))


def _nonlinear_residual(u: DiffMemo, v: DiffMemo, nl: NonlinearCoeffs,
                        a: DiffMemo, kappa: DiffMemo) -> tuple[GridFn, GridFn]:
    """The nonlinear pair of :func:`residual`, with ``a`` and ``kappa`` the
    memos of ``nl.a`` and ``nl.kappa``."""
    g = u.grid
    d = g.dim
    grad_u = [u.diff(x=(i,)).values for i in range(d)]
    grad_v = [v.diff(x=(i,)).values for i in range(d)]
    lap_u = sum(u.diff(x=(i, i)).values for i in range(d))
    lap_v = sum(v.diff(x=(i, i)).values for i in range(d))
    grad_a = [a.diff(x=(i,)).values for i in range(d)]
    lap_a = sum(a.diff(x=(i, i)).values for i in range(d))
    grad_k = [kappa.diff(x=(i,)).values for i in range(d)]
    gu_sq = sum(gi * gi for gi in grad_u)
    ru = u.diff(t_order=1).values + nl.a * lap_u - 0.5 * nl.kappa * gu_sq \
        + nl.p * v.values
    # lap(a v) = a lap v + 2 grad a . grad v + v lap a
    lap_av = nl.a * lap_v + 2.0 * sum(ga * gv for ga, gv in zip(grad_a, grad_v)) \
        + v.values * lap_a
    # div(k v grad u) = (k grad v + v grad k) . grad u + k v lap u
    div_term = sum((nl.kappa * gv + v.values * gk) * gu
                   for gv, gk, gu in zip(grad_v, grad_k, grad_u)) \
        + nl.kappa * v.values * lap_u
    rv = v.diff(t_order=1).values - lap_av - div_term
    return GridFn(g, SPACE_TIME, ru), GridFn(g, SPACE_TIME, rv)


def analytic_linear_residuals(u_field: SeparableField, v_field: SeparableField,
                              coeffs: CoeffSet) -> tuple[np.ndarray, np.ndarray]:
    """Residuals with every state derivative taken in closed form.

    Coefficient fields still enter as sampled arrays, so the result differs
    from the stencil residual by the stencil truncation error only.
    """
    g = coeffs.grid

    def apply(kind: str, fld: SeparableField) -> np.ndarray:
        return sum(coef * fld.derivative(x=axes).sample(g).values
                   for coef, axes in operator_terms(kind, coeffs))

    ru = (u_field.dt().sample(g).values + apply("A", u_field)
          - coeffs.c0 * v_field.sample(g).values)
    rv = v_field.dt().sample(g).values - apply("B", v_field) - apply("A0", u_field)
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


def _require_profiles(f: np.ndarray, g: np.ndarray) -> None:
    """Refuse source profiles that are not finite or not bounded away from zero."""
    for profile in (f, g):
        mag = np.abs(profile)
        if not np.isfinite(mag).all() or mag.min() <= 1e-8 * mag.max():
            raise MmsRejected("f and g must be bounded away from zero")


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
    ``SourceFactors``), or whose f or g is not finite or vanishes, are rejected.
    """
    grid = coeffs.grid
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != grid.space_shape or g.shape != grid.space_shape:
        raise ValueError("f and g must be spatial fields on the case grid")
    _require_profiles(f, g)

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


def cosine_pairs(seed: int, grid: Grid, max_modes: int = 3, t_degree: int = 3,
                 amplitude: float = 1.0
                 ) -> Iterator[tuple[SeparableField, SeparableField]]:
    """The seeded stream of closed-form state pairs ``(u_field, v_field)``
    that every ensemble draws from, in draw order.  Each field is a
    :func:`~mfglab.basis.random_cosine_field`: cosine modes 0..``max_modes``
    per axis times time monomials of degree 0..``t_degree``, with
    coefficients uniform in [-amplitude, amplitude]."""
    rng = np.random.default_rng(seed)
    while True:
        yield tuple(random_cosine_field(rng, grid.lengths, grid.T, max_modes,
                                        t_degree, amplitude) for _ in range(2))


# draws before mms_case_ensemble gives up on its t0 modulation floor
_MAX_ATTEMPTS = 400


def mms_case_ensemble(seed: int, n: int, grid: Grid, coeff_recipe: CoeffRecipe,
                      f_spec, g_spec, *, max_modes: int = 3, t_degree: int = 3,
                      amplitude: float = 1.0, q_min: float = 0.1,
                      q_mode: Literal["discrete", "analytic"] = "discrete"
                      ) -> tuple[ManufacturedCase, ...]:
    """The first ``n`` admissible cases built from :func:`cosine_pairs`:
    a pair whose case :meth:`CaseRecipe.build` rejects (t0 modulation floor,
    conormal) is skipped, so a seed pins the accepted members."""
    coeffs = coeff_recipe.sample(grid)
    pairs = islice(cosine_pairs(seed, grid, max_modes, t_degree, amplitude),
                   _MAX_ATTEMPTS)
    cases: list[ManufacturedCase] = []
    while len(cases) < n:
        pair = next(pairs, None)
        if pair is None:
            raise MmsRejected(
                f"could not draw {n} admissible cases in {_MAX_ATTEMPTS} attempts "
                f"(q_min={q_min} too strict for this recipe?)"
            )
        rec = CaseRecipe(*pair, coeff_recipe, f_spec, g_spec, q_min=q_min,
                         q_mode=q_mode)
        try:
            cases.append(rec.build(grid, coeffs=coeffs))
        except MmsRejected:
            continue
    return tuple(cases)


def _closed_forms(members: Sequence) -> list:
    """The closed forms (``member.recipe``) that every grid pass of a sweep
    samples ``members`` from; a case built without its recipe is refused,
    so a sweep fails before its first pass."""
    forms = [m.recipe for m in members]
    if None in forms:
        raise ValueError("a case built without its recipe cannot be swept")
    return forms


# ---------------------------------------------------------------------------
# nonlinear pairs


def _sup_norm_w2(u: DiffMemo) -> float:
    g = u.grid
    vals = [float(np.max(np.abs(u.values)))]
    for i in range(g.dim):
        vals.append(float(np.max(np.abs(u.diff(x=(i,)).values))))
        for j in range(g.dim):
            vals.append(float(np.max(np.abs(u.diff(x=(i, j)).values))))
    return max(vals)


def _sup_norm_w1(v: DiffMemo) -> float:
    g = v.grid
    vals = [float(np.max(np.abs(v.values)))]
    for i in range(g.dim):
        vals.append(float(np.max(np.abs(v.diff(x=(i,)).values))))
    return max(vals)


def _difference_bound(u1: DiffMemo, u2: DiffMemo, v2: DiffMemo,
                      kappa: DiffMemo) -> float:
    """Sup-norm bound on the difference-system coefficients, reported next to
    the pair bound m1 (larger states force a larger constant)."""
    g = u1.grid
    d = g.dim
    grad_k = [kappa.diff(x=(i,)).values for i in range(d)]
    gu1 = [u1.diff(x=(i,)).values for i in range(d)]
    gu2 = [u2.diff(x=(i,)).values for i in range(d)]
    lap_u1 = sum(u1.diff(x=(i, i)).values for i in range(d))

    sum_grad = np.sqrt(sum((kappa.values * (g1 + g2)) ** 2 for g1, g2 in zip(gu1, gu2)))
    term1 = float(np.max(sum_grad))
    inner = sum(gk * g1 for gk, g1 in zip(grad_k, gu1)) + kappa.values * lap_u1
    term2 = float(np.max(np.abs(inner)))
    kv2 = kappa.values * v2.values
    term3 = float(np.max(np.abs(kv2)))
    kv2_fn = DiffMemo(GridFn(g, SPACE_TIME, kv2))
    grad_kv2 = np.sqrt(sum(kv2_fn.diff(x=(i,)).values ** 2 for i in range(d)))
    term4 = float(np.max(grad_kv2))
    return term1 + term2 + term3 + term4


def _nonlinear_states(fields: Sequence[SeparableField], nl: NonlinearCoeffs
                      ) -> tuple[tuple[DiffMemo, ...], tuple[GridFn, ...], DiffMemo]:
    """The states ``(u1, v1, u2, v2)`` of ``fields`` sampled on the grid of
    ``nl`` as derivative memos, their residual sources ``(F1, G1, F2, G2)``
    taken through them, and the memo of kappa."""
    grid = nl.grid
    for name, fld in zip(("u1", "v1", "u2", "v2"), fields):
        for face in grid.all_faces():
            worst = fld.max_abs_face_dx(grid, face)
            if worst > CONORMAL_TOL:
                raise MmsRejected(
                    f"normal derivative of {name} on {face.label()} is {worst:.3g}"
                )
    u1, v1, u2, v2 = (DiffMemo(fld.sample(grid)) for fld in fields)
    a, kappa = _nonlinear_memos(nl)
    sources = (*_nonlinear_residual(u1, v1, nl, a, kappa),
               *_nonlinear_residual(u2, v2, nl, a, kappa))
    return (u1, v1, u2, v2), sources, kappa


def _pair_bounds(states: Sequence[DiffMemo], kappa: DiffMemo) -> dict[str, float]:
    """The sup-norm bound m1 of the pair of states ``(u1, v1, u2, v2)`` and
    the bound m2 of the coefficients of its difference system, read through
    the memos of :func:`_nonlinear_states`."""
    u1, v1, u2, v2 = states
    m1 = max(_sup_norm_w2(u1) + _sup_norm_w1(v1), _sup_norm_w2(u2) + _sup_norm_w1(v2))
    return {"m1": m1, "m2": _difference_bound(u1, u2, v2, kappa)}
