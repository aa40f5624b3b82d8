"""Inverse source recovery from lateral traces and midpoint slices.

The data are the gamma traces of (u, v) and their time derivatives over
(0, T) plus the two interior slices at t0; the unknowns are the spatial
source profiles f, g together with the states themselves.  Recovery is an
all-at-once penalized least squares: PDE residuals, data misfits, optional
homogeneous-conormal rows (the boundary hypothesis is known exactly and
costs nothing in noise) and a small ridge on (f, g) form one quadratic.
The mixed-direction system never needs a well-posed direct solver this way.

Solving the quadratic is numerically delicate: with the default ridge
beta = 1e-10 the normal matrix has a condition number beyond double
precision, and plain (even LU-preconditioned) conjugate gradients on it
stalls orders of magnitude above the optimum.  The minimizer is therefore
computed by variable projection (states eliminated through one sparse
factorization, the small source system solved by SVD of the reduced
residual matrix) and then polished by conjugate-gradient iterations on the
full normal operator, applied matrix-free block by block with a fixed
Jacobi preconditioner.

A slice formula evaluated at t0 provides an independent oracle, and noise
sweeps fit the log-log slope of the error against the data perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import CoeffSet, apply_operator, operator_terms
from .grid import (
    SPATIAL_SLICE,
    SPACE_TIME,
    Face,
    Grid,
    GridFn,
    derivative_matrix,
    diff,
    face_quad_weights,
    kron_axes,
    norm,
)
from .models import CaseEnsemble, ManufacturedCase
from .verify import EstimateSidePair
from .weights import WeightParams

__all__ = [
    "InverseData",
    "ReconstructionConfig",
    "ReconstructionResult",
    "StabilityReport",
    "Thm2Report",
    "direct_formula_oracle",
    "make_inverse_data",
    "reconstruct",
    "stability_sweep",
    "thm2_constant",
    "verify_thm2",
]

TRACE_KEYS = ("u", "v", "ut", "vt")


@dataclass(frozen=True)
class InverseData:
    """Observation package for one reconstruction."""

    grid: Grid
    coeffs: CoeffSet
    traces: dict[str, dict[Face, np.ndarray]]
    u0: np.ndarray
    v0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    delta: float
    seed: int


def make_inverse_data(case: ManufacturedCase, delta: float, seed: int, *,
                      noisy_slices: bool = True) -> InverseData:
    """Extract the observation package and contaminate it with noise.

    Each data array independently receives i.i.d. Gaussian noise with
    standard deviation ``delta`` times its own max amplitude (in particular
    the time-derivative traces are noised directly, not obtained by
    differentiating noisy traces).  The draw order is fixed, so a seed pins
    the noise.  ``noisy_slices=False`` leaves the two interior snapshots
    exact; the stability sweep uses this to perturb the lateral data only.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    rng = np.random.default_rng(seed)

    def noisy(arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=float)
        if delta == 0.0:
            return arr.copy()
        scale = delta * float(np.max(np.abs(arr)))
        return arr + rng.normal(0.0, scale, size=arr.shape) if scale > 0 \
            else arr.copy()

    traces = {
        key: {face: noisy(case.data.traces[key][face])
              for face in sorted(case.data.traces[key])}
        for key in TRACE_KEYS
    }
    u0 = noisy(case.data.u0) if noisy_slices else case.data.u0.copy()
    v0 = noisy(case.data.v0) if noisy_slices else case.data.v0.copy()
    return InverseData(
        grid=case.grid, coeffs=case.coeffs, traces=traces,
        u0=u0, v0=v0,
        q1=case.sources.q1.copy(), q2=case.sources.q2.copy(),
        delta=float(delta), seed=int(seed),
    )


@dataclass(frozen=True)
class ReconstructionConfig:
    """Penalty weights and solver knobs for the all-at-once least squares.

    ``omega_bc`` weighs the homogeneous-conormal rows on the whole boundary;
    zero (the default) reproduces the bare objective, while the stability
    experiments switch it on since the hypothesis is exact model knowledge.
    """

    omega_pde: float = 1.0
    omega_gamma: float = 10.0
    omega_slice: float = 10.0
    omega_bc: float = 0.0
    beta: float = 1e-10
    tol: float = 1e-10
    maxiter: int = 200
    record_every: int = 10

    def __post_init__(self):
        if self.omega_pde <= 0:
            raise ValueError("omega_pde must be positive")
        if min(self.omega_gamma, self.omega_slice, self.omega_bc, self.beta) < 0:
            raise ValueError("penalty weights must be >= 0")


@dataclass
class ReconstructionResult:
    f_hat: GridFn
    g_hat: GridFn
    u_hat: GridFn
    v_hat: GridFn
    objective: float
    objective_terms: dict[str, float]
    objective_history: list[float]
    iterations: int
    converged: bool
    flags: list[str] = field(default_factory=list)
    rel_err_f: Optional[float] = None
    rel_err_g: Optional[float] = None


# -- sparse operators on the raveled space-time state ------------------------


def _operator_matrix(kind: str, c: CoeffSet) -> sp.csr_matrix:
    g = c.grid
    n = int(np.prod(g.shape))
    out = sp.csr_matrix((n, n))
    for coef, axes in operator_terms(kind, c):
        out = out + sp.diags(coef.ravel()) @ derivative_matrix(g.shape, g.spacings, axes)
    return out.tocsr()


def _selector(grid: Grid, axis: int, index: int) -> sp.csr_matrix:
    """Rows picking the nodes at ``index`` along ``axis``, ordered like
    ``np.take(values, index, axis)`` (a face trace or a time slice)."""
    n = grid.shape[axis]
    row = sp.csr_matrix(([1.0], ([0], [index])), shape=(1, n))
    return kron_axes(grid.shape, {axis: row})


def _conormal_op(grid: Grid, m2: np.ndarray, face: Face) -> sp.csr_matrix:
    """Trace of the conormal derivative as a sparse operator on states."""
    sel = _selector(grid, face.axis, face.side * (grid.nx[face.axis] - 1))
    sign = 1.0 if face.side == 1 else -1.0
    out = None
    for j in range(grid.dim):
        term = (sel @ sp.diags(m2[face.axis, j].ravel())
                @ derivative_matrix(grid.shape, grid.spacings, (j,)))
        out = term if out is None else out + term
    return (sign * out).tocsr()


@dataclass
class _Block:
    name: str
    L: sp.csr_matrix
    Lt: sp.csr_matrix
    b: np.ndarray
    m: np.ndarray
    omega: float


def _build_blocks(data: InverseData, cfg: ReconstructionConfig) -> tuple[list[_Block], int]:
    g = data.grid
    c = data.coeffs
    n_st = int(np.prod(g.shape))
    n_sp = int(np.prod(g.space_shape))
    dim_x = 2 * n_st + 2 * n_sp
    off_u, off_v, off_f, off_g = 0, n_st, 2 * n_st, 2 * n_st + n_sp

    def embed(mat: sp.spmatrix, col_offset: int, width: int) -> sp.csr_matrix:
        rows = mat.shape[0]
        left = sp.csr_matrix((rows, col_offset))
        right = sp.csr_matrix((rows, dim_x - col_offset - width))
        return sp.hstack([left, mat, right], format="csr")

    dt_op = derivative_matrix(g.shape, g.spacings, (g.dim,))
    a_mat = _operator_matrix("A", c)
    b_mat = _operator_matrix("B", c)
    a0_mat = _operator_matrix("A0", c)
    spread = kron_axes(g.shape, {g.dim: sp.csr_matrix(np.ones((g.nt, 1)))})

    st_w = g.st_weights.ravel()
    sp_w = g.space_weights.ravel()

    blocks: list[_Block] = []

    pde_u = sp.hstack(
        [dt_op + a_mat, -sp.diags(c.c0.ravel()),
         -sp.diags(data.q1.ravel()) @ spread, sp.csr_matrix((n_st, n_sp))],
        format="csr",
    )
    blocks.append(_Block("pde_u", pde_u, pde_u.T.tocsr(),
                         np.zeros(n_st), st_w, cfg.omega_pde))
    pde_v = sp.hstack(
        [-a0_mat, dt_op - b_mat, sp.csr_matrix((n_st, n_sp)),
         -sp.diags(data.q2.ravel()) @ spread],
        format="csr",
    )
    blocks.append(_Block("pde_v", pde_v, pde_v.T.tocsr(),
                         np.zeros(n_st), st_w, cfg.omega_pde))

    for key, block_off, with_dt in (("u", off_u, False), ("v", off_v, False),
                                    ("ut", off_u, True), ("vt", off_v, True)):
        for face in sorted(g.gamma):
            sel = _selector(g, face.axis, face.side * (g.nx[face.axis] - 1))
            op = sel @ dt_op if with_dt else sel
            L = embed(op, block_off, n_st)
            w = face_quad_weights(g, face).ravel()
            blocks.append(_Block(f"trace_{key}_{face.label()}", L, L.T.tocsr(),
                                 data.traces[key][face].ravel(), w,
                                 cfg.omega_gamma))

    sel0 = _selector(g, g.dim, g.it0)
    Lu0 = embed(sel0, off_u, n_st)
    blocks.append(_Block("slice_u", Lu0, Lu0.T.tocsr(), data.u0.ravel(), sp_w,
                         cfg.omega_slice))
    Lv0 = embed(sel0, off_v, n_st)
    blocks.append(_Block("slice_v", Lv0, Lv0.T.tocsr(), data.v0.ravel(), sp_w,
                         cfg.omega_slice))

    if cfg.omega_bc > 0:
        for face in g.all_faces():
            w = face_quad_weights(g, face).ravel()
            for offs, nm, m2 in ((off_u, "bc_u", c.a2), (off_v, "bc_v", c.b2)):
                op = _conormal_op(g, m2, face)
                L = embed(op, offs, n_st)
                blocks.append(_Block(f"{nm}_{face.label()}", L, L.T.tocsr(),
                                     np.zeros(op.shape[0]), w, cfg.omega_bc))

    if cfg.beta > 0:
        Rf = embed(sp.identity(n_sp, format="csr"), off_f, n_sp)
        blocks.append(_Block("ridge_f", Rf, Rf.T.tocsr(), np.zeros(n_sp), sp_w,
                             cfg.beta))
        Rg = embed(sp.identity(n_sp, format="csr"), off_g, n_sp)
        blocks.append(_Block("ridge_g", Rg, Rg.T.tocsr(), np.zeros(n_sp), sp_w,
                             cfg.beta))
    return blocks, dim_x


def _objective(blocks: list[_Block], x: np.ndarray) -> tuple[float, dict[str, float]]:
    terms: dict[str, float] = {}
    for blk in blocks:
        r = blk.L @ x - blk.b
        terms[blk.name] = blk.omega * float(np.dot(r, blk.m * r))
    return float(sum(terms.values())), terms


def _varpro_solve(blocks: list[_Block], dim_x: int, n_state: int) -> np.ndarray:
    """States eliminated exactly, sources by SVD of the reduced matrix.

    Stable at ridge levels far below what the assembled normal matrix can
    represent (the tiny singular values live in the small dense reduced
    problem, where LAPACK resolves them).
    """
    As, bs = [], []
    for blk in blocks:
        sw = np.sqrt(blk.omega * blk.m)
        As.append(sp.diags(sw) @ blk.L)
        bs.append(sw * blk.b)
    A = sp.vstack(As).tocsr()
    b = np.concatenate(bs)
    n_src = dim_x - n_state
    if A.shape[0] * n_src > 2.5e8:
        raise MemoryError(
            f"dense reduced matrix would need {A.shape[0]}x{n_src} entries"
        )
    Ay = A[:, :n_state].tocsc()
    Az = A[:, n_state:].toarray()
    luK = spla.splu((Ay.T @ Ay).tocsc())

    def eliminate(cols: np.ndarray) -> np.ndarray:
        return cols - Ay @ luK.solve(np.asarray(Ay.T @ cols))

    R = eliminate(Az)
    r0 = eliminate(b.reshape(-1, 1))[:, 0]
    z, _, _, _ = np.linalg.lstsq(R, r0, rcond=None)
    y = luK.solve(np.asarray(Ay.T @ (b - Az @ z)))
    return np.concatenate([y, z])


def reconstruct(data: InverseData, cfg: ReconstructionConfig,
                truth: Optional[tuple[np.ndarray, np.ndarray]] = None) -> ReconstructionResult:
    """Minimize the all-at-once quadratic.

    Variable projection computes the minimizer; conjugate gradients on the
    normal operator (matrix-free over the blocks, Jacobi preconditioner)
    then polish until the relative normal residual meets ``tol`` or the
    iteration budget runs out.  The recorded objective is non-increasing.
    If the state elimination fails the CG stage runs from zero and the
    result is flagged; hitting ``maxiter`` flags non-convergence without
    raising.
    """
    flags: list[str] = []
    if cfg.beta == 0.0 and data.delta > 0.0:
        flags.append("beta=0 with noisy data: ridge-free fit is ill-advised")
    blocks, dim_x = _build_blocks(data, cfg)
    g = data.grid
    n_st = int(np.prod(g.shape))
    n_sp = int(np.prod(g.space_shape))
    n_state = 2 * n_st

    converged = False
    try:
        x = _varpro_solve(blocks, dim_x, n_state)
        converged = True
    except (RuntimeError, MemoryError, np.linalg.LinAlgError) as exc:
        flags.append(f"state elimination failed ({exc}); CG from zero")
        x = np.zeros(dim_x)

    def normal_apply(p: np.ndarray) -> np.ndarray:
        out = np.zeros_like(p)
        for blk in blocks:
            out += blk.omega * (blk.Lt @ (blk.m * (blk.L @ p)))
        return out

    rhs = np.zeros(dim_x)
    diag = np.zeros(dim_x)
    for blk in blocks:
        rhs += blk.omega * (blk.Lt @ (blk.m * blk.b))
        diag += blk.omega * (blk.L.multiply(blk.L).T @ blk.m)
    diag[diag <= 0] = 1.0
    rhs_norm = float(np.linalg.norm(rhs))

    history: list[float] = [_objective(blocks, x)[0]]
    r = rhs - normal_apply(x)
    it = 0
    if rhs_norm > 0.0 and float(np.linalg.norm(r)) > cfg.tol * rhs_norm:
        z = r / diag
        p = z.copy()
        rz = float(np.dot(r, z))
        x_best = x.copy()
        j_best = history[0]
        while it < cfg.maxiter:
            it += 1
            q = normal_apply(p)
            pq = float(np.dot(p, q))
            if pq <= 0:
                flags.append(f"curvature {pq:.3g} <= 0 at iteration {it}; stopping")
                break
            alpha = rz / pq
            x += alpha * p
            r -= alpha * q
            if it % cfg.record_every == 0:
                j_now = _objective(blocks, x)[0]
                if j_now <= j_best:
                    j_best, x_best = j_now, x.copy()
                history.append(min(j_now, history[-1]))
            if float(np.linalg.norm(r)) <= cfg.tol * rhs_norm:
                converged = True
                break
            z = r / diag
            rz_new = float(np.dot(r, z))
            p = z + (rz_new / rz) * p
            rz = rz_new
        # keep the best visited point: CG minimizes the energy norm, and at
        # extreme conditioning the raw objective can wiggle at roundoff level
        if _objective(blocks, x)[0] > j_best:
            x = x_best
    else:
        converged = True

    objective, terms = _objective(blocks, x)
    if history[-1] != objective:
        history.append(min(objective, history[-1]))

    u_hat = GridFn(g, SPACE_TIME, x[:n_st].reshape(g.shape))
    v_hat = GridFn(g, SPACE_TIME, x[n_st:2 * n_st].reshape(g.shape))
    f_hat = GridFn(g, SPATIAL_SLICE, x[2 * n_st:2 * n_st + n_sp].reshape(g.space_shape))
    g_hat = GridFn(g, SPATIAL_SLICE, x[2 * n_st + n_sp:].reshape(g.space_shape))

    result = ReconstructionResult(
        f_hat=f_hat, g_hat=g_hat, u_hat=u_hat, v_hat=v_hat,
        objective=objective, objective_terms=terms,
        objective_history=history, iterations=it, converged=converged,
        flags=flags,
    )
    if truth is not None:
        f_true, g_true = truth
        result.rel_err_f = _rel_l2(g, f_hat.values, f_true)
        result.rel_err_g = _rel_l2(g, g_hat.values, g_true)
    if not converged:
        result.flags.append(
            f"not converged in {cfg.maxiter} CG iterations (tol {cfg.tol})"
        )
    return result


def _rel_l2(grid: Grid, approx: np.ndarray, exact: np.ndarray) -> float:
    w = grid.space_weights
    err = math.sqrt(float(np.sum(w * (approx - exact) ** 2)))
    ref = math.sqrt(float(np.sum(w * exact**2)))
    return err / ref if ref > 0 else err


def direct_formula_oracle(case: ManufacturedCase) -> tuple[GridFn, GridFn]:
    """Slice-formula recovery of (f, g) from the full state (oracle only).

    Evaluates the system at t0 and divides by the modulations there; the
    signs invert the implemented residuals exactly, so on discrete-mode
    cases this reproduces the stored profiles to roundoff, while on
    analytic-mode cases the stencil truncation shows up at second order.
    """
    g = case.grid
    it0 = g.it0
    src = case.sources
    for name, q in (("q1", src.q1), ("q2", src.q2)):
        floor = float(np.min(np.abs(q[..., it0])))
        if floor < src.q_min:
            raise ValueError(f"|{name}(., t0)| = {floor:.3g} below the floor "
                             f"{src.q_min}; recovery hypothesis violated")
    c = case.coeffs
    v0 = case.v.values[..., it0]
    ut0 = diff(case.u, t_order=1).values[..., it0]
    vt0 = diff(case.v, t_order=1).values[..., it0]
    f = (ut0 + apply_operator("A", case.u, c).values[..., it0]
         - c.c0[..., it0] * v0) / src.q1[..., it0]
    gg = (vt0 - apply_operator("B", case.v, c).values[..., it0]
          - apply_operator("A0", case.u, c).values[..., it0]) / src.q2[..., it0]
    return GridFn(g, SPATIAL_SLICE, f), GridFn(g, SPATIAL_SLICE, gg)


# ---------------------------------------------------------------------------
# noise sweeps


@dataclass(frozen=True)
class StabilityRow:
    delta: float
    seed: int
    err_f: float
    err_g: float
    err_total: float
    beta: float
    converged: bool


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple[StabilityRow, ...]
    slope: float
    intercept: float
    r2: float
    seeds: tuple[int, ...]
    per_seed_slopes: dict[int, float]
    per_seed_r2: dict[int, float]
    slope_mean: float
    slope_spread: float
    excluded: tuple[tuple[float, int], ...]


def stability_sweep(case: ManufacturedCase, deltas: Sequence[float],
                    cfg: Optional[ReconstructionConfig] = None, *,
                    seeds: Sequence[int] = (0, 1, 2),
                    beta_rule: Callable[[float], float] = lambda d: d * d,
                    noisy_slices: bool = False) -> StabilityReport:
    """Noise sweep measuring the error-vs-noise slope.

    For every (delta, seed) fresh noise is drawn, the reconstruction run,
    and e(delta) = ||f_err|| + ||g_err|| recorded; the pooled log-log fit
    gives the slope and r^2, with per-seed fits reported as mean and spread.
    Non-converged reconstructions are excluded and listed.  The grid must
    have at least 4 positive deltas spanning two decades.

    By default the interior snapshots stay exact and only the lateral
    traces are perturbed: white noise on a slice enters the recovery
    through its second derivatives, which floors the error independently
    of delta and hides the proportionality this experiment measures.
    """
    deltas = [float(d) for d in deltas]
    if len(deltas) < 4:
        raise ValueError("need at least 4 noise levels")
    if min(deltas) <= 0:
        raise ValueError("noise levels must be positive (log fit)")
    if max(deltas) / min(deltas) < 100.0 * (1 - 1e-12):
        raise ValueError("noise levels must span at least two decades")
    if len(seeds) < 3:
        raise ValueError("need at least 3 seeds")
    base = cfg or ReconstructionConfig()
    truth = (case.sources.f, case.sources.g)
    g = case.grid

    rows: list[StabilityRow] = []
    excluded: list[tuple[float, int]] = []
    for delta in deltas:
        beta = float(beta_rule(delta))
        run_cfg = ReconstructionConfig(
            omega_pde=base.omega_pde, omega_gamma=base.omega_gamma,
            omega_slice=base.omega_slice, omega_bc=base.omega_bc, beta=beta,
            tol=base.tol, maxiter=base.maxiter, record_every=base.record_every,
        )
        for seed in seeds:
            data = make_inverse_data(case, delta, seed, noisy_slices=noisy_slices)
            res = reconstruct(data, run_cfg)
            err_f = _abs_l2(g, res.f_hat.values - truth[0])
            err_g = _abs_l2(g, res.g_hat.values - truth[1])
            row = StabilityRow(delta, int(seed), err_f, err_g, err_f + err_g,
                               beta, res.converged)
            rows.append(row)
            if not res.converged:
                excluded.append((delta, int(seed)))

    used = [r for r in rows if r.converged]
    if len(used) < 4:
        raise ValueError("too few converged reconstructions for a slope fit")
    slope, intercept, r2 = _loglog_fit(
        [r.delta for r in used], [r.err_total for r in used]
    )
    per_slope: dict[int, float] = {}
    per_r2: dict[int, float] = {}
    for seed in seeds:
        pts = [r for r in used if r.seed == seed]
        if len(pts) >= 2:
            s_i, _, r2_i = _loglog_fit([r.delta for r in pts],
                                       [r.err_total for r in pts])
            per_slope[int(seed)] = s_i
            per_r2[int(seed)] = r2_i
    vals = list(per_slope.values())
    return StabilityReport(
        rows=tuple(rows), slope=slope, intercept=intercept, r2=r2,
        seeds=tuple(int(s) for s in seeds),
        per_seed_slopes=per_slope, per_seed_r2=per_r2,
        slope_mean=float(np.mean(vals)) if vals else math.nan,
        slope_spread=float(np.max(vals) - np.min(vals)) if vals else math.nan,
        excluded=tuple(excluded),
    )


def _abs_l2(grid: Grid, arr: np.ndarray) -> float:
    return math.sqrt(float(np.sum(grid.space_weights * arr * arr)))


def _loglog_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    lx = np.log(np.asarray(xs))
    ly = np.log(np.asarray(ys))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


# ---------------------------------------------------------------------------
# stability-inequality check


def verify_thm2(case: ManufacturedCase) -> EstimateSidePair:
    """Source norms against slice-H2 norms plus the observation functionals.

    The data terms enter at first power (root of the summed squares per
    time-derivative order), keeping both sides of the same homogeneity.
    """
    from .verify import _d_gamma_sq  # shared data functional

    g = case.grid
    lhs = {
        "f": _abs_l2(g, case.sources.f),
        "g": _abs_l2(g, case.sources.g),
    }
    u0 = GridFn(g, SPATIAL_SLICE, case.data.u0)
    v0 = GridFn(g, SPATIAL_SLICE, case.data.v0)
    ut = diff(case.u, t_order=1)
    vt = diff(case.v, t_order=1)
    rhs = {
        "u0_H2": norm(u0, "H2_slice"),
        "v0_H2": norm(v0, "H2_slice"),
        "data_k0": math.sqrt(_d_gamma_sq(case.u) + _d_gamma_sq(case.v)),
        "data_k1": math.sqrt(_d_gamma_sq(ut) + _d_gamma_sq(vt)),
    }
    return EstimateSidePair(kind="THM2", params=WeightParams(lam=1.0, s=0.0),
                            lhs_terms=lhs, rhs_terms=rhs)


@dataclass(frozen=True)
class Thm2Report:
    rows: tuple[tuple[int, float, float, float], ...]  # (member, lhs, rhs, ratio)
    max_ratio: float
    drift: Optional[float] = None
    max_ratio_refined: Optional[float] = None


def thm2_constant(cases: CaseEnsemble, *, refine: bool = True) -> Thm2Report:
    """Max ratio of the stability inequality over a case ensemble, with the
    refinement drift of the constant."""

    def run(ens: CaseEnsemble):
        rows = []
        best = 0.0
        for i, case in enumerate(ens.cases):
            pair = verify_thm2(case)
            rows.append((i, pair.lhs, pair.rhs, pair.ratio))
            if math.isfinite(pair.ratio):
                best = max(best, pair.ratio)
        return rows, best

    rows, best = run(cases)
    drift = fine_best = None
    if refine:
        fine = cases.cases[0].grid.refined(2)
        _, fine_best = run(cases.resample(fine))
        drift = fine_best / best if best > 0 else math.inf
    return Thm2Report(rows=tuple(rows), max_ratio=best, drift=drift,
                      max_ratio_refined=fine_best)
