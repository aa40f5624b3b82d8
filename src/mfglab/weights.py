"""Singular weight family: base function eta, the weights phi and alpha, and
their calculus identities.

The weights are

    phi(x, t) = exp(lam * eta(x)) / (t (T - t)),
    alpha(x, t) = (exp(lam * eta(x)) - exp(2 lam * max eta)) / (t (T - t)),

with a spatial base eta that is >= 1, has a non-vanishing gradient, and has
non-positive conormal derivative on every face outside the observation set.
alpha is negative and blows down to -inf at t in {0, T}, which is what kills
endpoint data in the weighted estimates.

Floating point cannot represent exp(2 s alpha) for realistic s (alpha is of
order -10^2), so all integrals use the normalized weight

    W(x, t) = exp(2 s (alpha(x, t) - alpha_max)) in (0, 1],

with alpha_max the maximum of alpha over the interior time slices, so W
peaks at exactly 1.  Data terms on gamma stay unweighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .coefficients import CoeffSet
from .grid import Grid, apply_stencil, face_values

__all__ = [
    "EtaFn",
    "IdentityCheck",
    "WeightBundle",
    "WeightIdentityReport",
    "WeightParams",
    "build_eta",
    "check_weight_identities",
    "eval_weight_bundle",
]


@dataclass(frozen=True)
class EtaFn:
    """Affine spatial base of the weights: 1 + x/L toward a high observation
    face, 2 - x/L toward a low one.  ``grad`` is the constant gradient vector."""

    grid: Grid
    values: np.ndarray
    grad: tuple[float, ...]
    axis: int
    side: int

    @property
    def eta_max(self) -> float:
        return float(np.max(self.values))

    @property
    def eta_min(self) -> float:
        return float(np.min(self.values))


class EtaAdmissibilityError(ValueError):
    """No admissible base function for this face set and coefficient pair."""


def build_eta(grid: Grid, coeffs: CoeffSet, tol: float = 1e-12) -> EtaFn:
    """Construct the weight base for a rectangle with face-aligned gamma.

    For each observation face the affine candidate increasing toward that
    face is tried; a candidate is accepted when its conormal derivative
    (under both principal matrices of ``coeffs``, exact for the constant
    gradient) is non-positive on every face outside gamma.  Strongly skewed
    off-diagonal principal parts can reject every candidate, in which case
    the offending faces are reported.
    """
    failures: list[str] = []
    for face in sorted(grid.gamma):
        eta = _affine_eta(grid, face.axis, face.side)
        bad = _admissibility_violations(grid, eta, coeffs, tol)
        if not bad:
            return eta
        failures.append(f"candidate toward {face.label()}: " + "; ".join(bad))
    raise EtaAdmissibilityError(
        "no admissible eta for gamma="
        + "{" + ", ".join(f.label() for f in sorted(grid.gamma)) + "}: "
        + " | ".join(failures)
    )


def _affine_eta(grid: Grid, axis: int, side: int) -> EtaFn:
    L = grid.lengths[axis]
    x = grid.space_meshes[axis] if grid.dim > 1 else grid.xs[0]
    if side == 1:
        vals = 1.0 + x / L
        g = 1.0 / L
    else:
        vals = 2.0 - x / L
        g = -1.0 / L
    grad = tuple(g if a == axis else 0.0 for a in range(grid.dim))
    vals = np.broadcast_to(vals, grid.space_shape).copy()
    return EtaFn(grid=grid, values=vals, grad=grad, axis=axis, side=side)


def _admissibility_violations(grid: Grid, eta: EtaFn, coeffs: CoeffSet,
                              tol: float) -> list[str]:
    if np.min(eta.values) < 1.0 - 1e-12:
        return ["eta drops below 1"]
    if math.hypot(*eta.grad) <= 0.0:
        return ["gradient of eta vanishes"]
    bad = []
    for face in grid.all_faces():
        if face in grid.gamma:
            continue
        sign = 1.0 if face.side == 1 else -1.0
        for name, m2 in (("A", coeffs.a2), ("B", coeffs.b2)):
            # conormal of the affine eta: sign * sum_j m2[face.axis, j] * grad_j
            acc = np.zeros_like(face_values(grid, m2[0, 0], face))
            for j in range(grid.dim):
                acc = acc + face_values(grid, m2[face.axis, j], face) * eta.grad[j]
            worst = float(np.max(sign * acc))
            if worst > tol:
                bad.append(
                    f"conormal({name}) on {face.label()} reaches {worst:.3g} > 0"
                )
    return bad


@dataclass(frozen=True)
class WeightParams:
    """Large parameters of the weight family.

    ``s = 0`` is tolerated as the degenerate unweighted case (the normalized
    weight is then identically one); real estimates use s > 0.
    """

    lam: float
    s: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.s < 0:
            raise ValueError("s must be non-negative")


@dataclass(frozen=True)
class WeightBundle:
    """Sampled weight family, normalized at the maximum of alpha over the
    interior time slices (``alpha_max``), where the weight is exactly 1."""

    eta: EtaFn
    params: WeightParams
    grid: Grid

    @cached_property
    def exp_lam_eta(self) -> np.ndarray:
        return np.exp(self.params.lam * self.eta.values)

    @cached_property
    def h_field(self) -> np.ndarray:
        """Positive spatial factor: exp(2 lam max eta) - exp(lam eta)."""
        top = math.exp(2.0 * self.params.lam * self.eta.eta_max)
        return top - self.exp_lam_eta

    @cached_property
    def ell_interior(self) -> np.ndarray:
        return self.grid.ell[1:-1]

    @cached_property
    def phi_interior(self) -> np.ndarray:
        """phi on interior time slices, shape (*space, nt-2)."""
        return self.exp_lam_eta[..., None] / self.ell_interior

    @cached_property
    def alpha_interior(self) -> np.ndarray:
        return -self.h_field[..., None] / self.ell_interior

    @cached_property
    def alpha_max(self) -> float:
        return float(np.max(self.alpha_interior))

    @cached_property
    def w_interior(self) -> np.ndarray:
        if self.params.s == 0.0:
            return np.ones_like(self.alpha_interior)
        return np.exp(2.0 * self.params.s * (self.alpha_interior - self.alpha_max))

    def weight_factor(self, m: int = 0, lam_power: int = 0) -> np.ndarray:
        """(s phi)^m * lam^k * W on the full grid, zero at the endpoint slices
        whenever the endpoint limit is zero (any s > 0, or m > 0)."""
        s, lam = self.params.s, self.params.lam
        out = np.zeros(self.grid.shape)
        if s == 0.0:
            if m > 0:
                return out  # s*phi == 0 identically
            if m < 0:
                raise ValueError("negative weight powers need s > 0")
            out[...] = lam**lam_power
            return out
        sphi = s * self.phi_interior
        out[..., 1:-1] = sphi**m * lam**lam_power * self.w_interior
        return out


def eval_weight_bundle(eta: EtaFn, params: WeightParams, grid: Grid) -> WeightBundle:
    """The weight bundle of ``eta`` on ``grid``, refused when eta lives on
    another grid or exp(2 lam max eta) overflows."""
    if eta.grid != grid:
        raise ValueError("eta was built on a different grid")
    top = 2.0 * params.lam * eta.eta_max
    if top > 700.0:
        raise ValueError(f"lam={params.lam} overflows exp(2 lam max eta)")
    return WeightBundle(eta=eta, params=params, grid=grid)


# ---------------------------------------------------------------------------
# identity checks


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    value: float
    tol: Optional[float]
    passed: bool


@dataclass(frozen=True)
class WeightIdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]

    def by_name(self, name: str) -> IdentityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_weight_identities(bundle: WeightBundle) -> WeightIdentityReport:
    """Verify the pointwise weight identities used throughout the estimates.

    Checks, node-wise on interior time slices:

    * alpha(x, t) = alpha(x, T - t) (the time grid makes this exact);
    * d_i phi = lam (d_i eta) phi against a complex-step derivative of the
      closed form, and against the grid stencil at stencil accuracy;
    * |d_t phi| <= C phi^2 with the analytic C = T exp(-lam min eta);
    * the singular-factor bound ell^2 (s phi)^p / (4 s h) <= (C/lam)(s phi)^(p-1)
      for p in {0, 1, 2}, reporting the empirical C;
    * sup exp(lam eta)/h finite (reported);
    * the maximizer of xi^m exp(-2 s C2 xi) sits at m/(2 s C2), m = 1..4.
    """
    g = bundle.grid
    lam, s = bundle.params.lam, bundle.params.s
    checks: list[IdentityCheck] = []

    alpha = bundle.alpha_interior
    scale = float(np.max(np.abs(alpha)))
    sym = float(np.max(np.abs(alpha - alpha[..., ::-1]))) / scale
    checks.append(IdentityCheck("alpha_time_symmetry", sym, 1e-12, sym <= 1e-12))

    phi = bundle.phi_interior
    for ax in range(g.dim):
        exact = lam * bundle.eta.grad[ax] * phi
        cs = _complex_step_dphi(bundle, ax)
        # axes without an eta gradient have exact == 0; fall back to the
        # weight's own scale so the relative error stays meaningful
        denom = float(np.max(np.abs(exact)))
        if denom == 0.0:
            denom = lam * float(np.max(phi))
        err = float(np.max(np.abs(cs - exact))) / denom
        checks.append(IdentityCheck(f"dphi_closed_form_x{ax + 1}", err, 1e-8,
                                    err <= 1e-8))
        stencil = _stencil_dphi(bundle, ax)
        serr = float(np.max(np.abs(stencil - exact))) / denom
        stol = (lam * abs(bundle.eta.grad[ax]) * g.hs[ax]) ** 2
        checks.append(IdentityCheck(f"dphi_stencil_x{ax + 1}", serr, stol,
                                    serr <= stol))

    ell = bundle.ell_interior
    ell_prime = g.T - 2.0 * g.ts[1:-1]
    dtphi = bundle.exp_lam_eta[..., None] * (-ell_prime) / ell**2
    c_emp = float(np.max(np.abs(dtphi) / phi**2))
    c_analytic = g.T * math.exp(-lam * bundle.eta.eta_min)
    checks.append(IdentityCheck("dtphi_quadratic_bound", c_emp,
                                c_analytic * (1.0 + 1e-12),
                                c_emp <= c_analytic * (1.0 + 1e-12)))

    if s > 0.0:
        h = bundle.h_field[..., None]
        for p in (0, 1, 2):
            lhs = ell**2 * (s * phi) ** p / (4.0 * s * h)
            rhs = (s * phi) ** (p - 1) / lam
            c_p = float(np.max(lhs / rhs))
            checks.append(IdentityCheck(f"singular_factor_bound_p{p}", c_p, None,
                                        math.isfinite(c_p)))

    sup_ratio = float(np.max(bundle.exp_lam_eta / bundle.h_field))
    checks.append(IdentityCheck("exp_over_h_sup", sup_ratio, None,
                                math.isfinite(sup_ratio)))

    if s > 0.0:
        c2 = float(np.min(bundle.h_field))
        for m in (1, 2, 3, 4):
            loc_err, val_err = _xi_maximizer_errors(m, s, c2)
            worst = max(loc_err, val_err)
            checks.append(IdentityCheck(f"xi_maximizer_m{m}", worst, 1e-6,
                                        worst <= 1e-6))

    return WeightIdentityReport(tuple(checks))


def _complex_step_dphi(bundle: WeightBundle, axis: int) -> np.ndarray:
    hc = 1e-20
    lam = bundle.params.lam
    eta_c = bundle.eta.values + 1j * hc * bundle.eta.grad[axis]
    phi_c = np.exp(lam * eta_c)[..., None] / bundle.ell_interior
    return np.imag(phi_c) / hc


def _stencil_dphi(bundle: WeightBundle, axis: int) -> np.ndarray:
    return apply_stencil(bundle.phi_interior, bundle.grid.hs[axis], 1, axis)


def _golden_max(fun, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Maximizer of a unimodal ``fun`` on [lo, hi] and its value, by golden
    section search until the bracket is at most ``xatol`` wide."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    steps = max(0, math.ceil(math.log(xatol / (hi - lo)) / math.log(shrink)))
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = fun(c), fun(d)
    for _ in range(steps):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = fun(d)
    return (c, fc) if fc >= fd else (d, fd)


def _xi_maximizer_errors(m: int, s: float, c2: float) -> tuple[float, float]:
    xi_star = m / (2.0 * s * c2)
    max_star = xi_star**m * math.exp(-m)

    def fun(x):
        return (x**m) * math.exp(-2.0 * s * c2 * x)

    x, val = _golden_max(fun, 0.0, 20.0 * xi_star, xi_star * 1e-12)
    loc_err = abs(x - xi_star) / xi_star
    val_err = abs(val - max_star) / max_star
    return float(loc_err), float(val_err)
