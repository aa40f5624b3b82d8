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
precision.  The minimizer is therefore computed by variable projection
(Golub and Pereyra): the states are eliminated through one Cholesky
factorization of their normal block, which couples time levels at most two
apart and is factored level by level in dense blocks, each diagonal block
kept inverted so that every triangular solve is a multiply.  The source
columns are eliminated in chunks, with the rows ordered by the first time
level they touch so that each level's states update one contiguous row
range.  The projected source columns are QR-factored with their orthogonal
factor left in compact WY form (LAPACK ``dgeqrt``; Schreiber and Van Loan
1989), and the small triangular factor is solved through its SVD, where
the ridge acts as the Tikhonov filter s / (s^2 + beta).  None of that
depends on the data, the noise seed or beta, so it is built once as a
``SourceReduction`` and shared by every solve on the same system; a solve
is one vector elimination, Q^T applied from the reflectors (``dgemqrt``),
the filter and one back-solve for the states.  ``converged``
reports whether the relative normal-equation residual at the result meets
``tol``.

A slice formula evaluated at t0 provides an independent oracle, and noise
sweeps fit the log-log slope of the error against the data perturbation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import blas, lapack

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
from .models import CaseEnsemble, ManufacturedCase, resampled_cases
from .verify import EstimateSidePair
from .weights import WeightParams

__all__ = [
    "InverseData",
    "ReconstructionConfig",
    "ReconstructionResult",
    "SourceReduction",
    "StabilityReport",
    "Thm2Report",
    "direct_formula_oracle",
    "make_inverse_data",
    "reconstruct",
    "reduce_sources",
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
                      noisy_slices: bool = False) -> InverseData:
    """Extract the observation package and contaminate it with noise.

    Each data array independently receives i.i.d. Gaussian noise with
    standard deviation ``delta`` times its own max amplitude (in particular
    the time-derivative traces are noised directly, not obtained by
    differentiating noisy traces).  The draw order is fixed, so a seed pins
    the noise.  By default the two interior snapshots stay exact and only
    the lateral data are perturbed, as in the stability sweep and the
    config default: white noise on a snapshot enters the recovery through
    its second derivatives.  ``noisy_slices=True`` noises them too.
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
    """Penalty weights, ridge and optimality tolerance of the least squares.

    ``omega_bc`` weighs the homogeneous-conormal rows on the whole boundary;
    zero (the default) reproduces the bare objective, while the stability
    experiments switch it on since the hypothesis is exact model knowledge.
    ``tol`` bounds the relative normal-equation residual a result must meet
    to count as converged.
    """

    omega_pde: float = 1.0
    omega_gamma: float = 10.0
    omega_slice: float = 10.0
    omega_bc: float = 0.0
    beta: float = 1e-10
    tol: float = 1e-6

    def __post_init__(self):
        if self.omega_pde <= 0:
            raise ValueError("omega_pde must be positive")
        if min(self.omega_gamma, self.omega_slice, self.omega_bc, self.beta) < 0:
            raise ValueError("penalty weights must be >= 0")


@dataclass
class ReconstructionResult:
    """Minimizer of the quadratic with its optimality measures.

    ``normal_residual`` is ||A^T (A x - b) + beta W z|| / ||A^T b|| at the
    result, with A, b the weighted rows and data, z the sources and W their
    quadrature weights; ``converged`` is ``normal_residual <= tol``.
    ``singular_values`` is the descending spectrum of the reduced source
    matrix in W-scaled coordinates (a source's norm there is its L2 norm).
    The solve is direct, so ``iterations`` is always 0.  ``timings`` holds
    the stage seconds of the ``SourceReduction`` used (of its build, wherever
    that happened) and ``solve_s``, the seconds of this solve.
    """

    f_hat: GridFn
    g_hat: GridFn
    u_hat: GridFn
    v_hat: GridFn
    objective: float
    objective_terms: dict[str, float]
    normal_residual: float
    converged: bool
    singular_values: np.ndarray
    flags: list[str] = field(default_factory=list)
    rel_err_f: Optional[float] = None
    rel_err_g: Optional[float] = None
    iterations: int = 0
    timings: dict[str, float] = field(default_factory=dict)


# -- sparse operators on the raveled space-time state ------------------------


def _derivative_cache(g: Grid) -> Callable[[Sequence[int]], sp.csr_matrix]:
    """``derivative_matrix`` on the raveled space-time lattice of ``g``, each
    distinct derivative built once however often it is asked for."""
    built: dict[tuple[int, ...], sp.csr_matrix] = {}

    def deriv(axes: Sequence[int]) -> sp.csr_matrix:
        key = tuple(sorted(axes))
        if key not in built:
            built[key] = derivative_matrix(g.shape, g.spacings, key)
        return built[key]

    return deriv


def _operator_matrix(kind: str, c: CoeffSet,
                     deriv: Optional[Callable[[Sequence[int]], sp.csr_matrix]] = None
                     ) -> sp.csr_matrix:
    g = c.grid
    if deriv is None:
        deriv = _derivative_cache(g)
    n = int(np.prod(g.shape))
    out = sp.csr_matrix((n, n))
    for coef, axes in operator_terms(kind, c):
        out = out + sp.diags(coef.ravel()) @ deriv(axes)
    return out.tocsr()


def _node_index(grid: Grid, axis: int, index: int) -> np.ndarray:
    """Raveled indices of the nodes at ``index`` along ``axis``, ordered like
    ``np.take(values, index, axis)`` (a face trace or a time slice)."""
    return np.take(np.arange(math.prod(grid.shape)).reshape(grid.shape),
                   index, axis=axis).ravel()


def _face_index(grid: Grid, face: Face) -> np.ndarray:
    return _node_index(grid, face.axis, face.side * (grid.nx[face.axis] - 1))


def _conormal_op(grid: Grid, m2: np.ndarray, face: Face,
                 dx: Sequence[sp.csr_matrix]) -> sp.csr_matrix:
    """Trace of the conormal derivative as a sparse operator on states;
    ``dx[j]`` is the derivative matrix along axis j."""
    rows = _face_index(grid, face)
    sign = 1.0 if face.side == 1 else -1.0
    out = None
    for j in range(grid.dim):
        term = sp.diags(m2[face.axis, j].ravel()[rows]) @ dx[j][rows]
        out = term if out is None else out + term
    return (sign * out).tocsr()


@dataclass(frozen=True, eq=False)
class _Block:
    """Rows ``L x`` of one objective term, weighted ``omega * m`` per row and
    fitted to the observation ``obs`` names (zero when ``obs`` is None)."""

    name: str
    L: sp.csr_matrix
    m: np.ndarray
    omega: float
    obs: Optional[tuple[str, Optional[Face]]] = None

    def rhs(self, data: InverseData) -> np.ndarray:
        if self.obs is None:
            return np.zeros(self.L.shape[0])
        key, face = self.obs
        arr = getattr(data, key) if face is None else data.traces[key][face]
        return np.asarray(arr, dtype=float).ravel()


def _build_blocks(data: InverseData, cfg: ReconstructionConfig) -> tuple[list[_Block], int]:
    """All rows of the objective except the ridge, which has no state
    columns and enters the reduced source system in closed form."""
    g = data.grid
    c = data.coeffs
    n_st = int(np.prod(g.shape))
    n_sp = int(np.prod(g.space_shape))
    dim_x = 2 * n_st + 2 * n_sp
    off_u, off_v = 0, n_st

    def embed(mat: sp.csr_matrix, col_offset: int) -> sp.csr_matrix:
        """``mat`` as the rows of the columns from ``col_offset`` on."""
        return sp.csr_matrix((mat.data, mat.indices + col_offset, mat.indptr),
                             shape=(mat.shape[0], dim_x))

    deriv = _derivative_cache(g)
    dt_op = deriv((g.dim,))
    eye = sp.identity(n_st, format="csr")
    a_mat = _operator_matrix("A", c, deriv)
    b_mat = _operator_matrix("B", c, deriv)
    a0_mat = _operator_matrix("A0", c, deriv)
    spread = kron_axes(g.shape, {g.dim: sp.csr_matrix(np.ones((g.nt, 1)))})

    st_w = g.st_weights.ravel()
    sp_w = g.space_weights.ravel()

    blocks: list[_Block] = []

    pde_u = sp.hstack(
        [dt_op + a_mat, -sp.diags(c.c0.ravel()),
         -sp.diags(data.q1.ravel()) @ spread, sp.csr_matrix((n_st, n_sp))],
        format="csr",
    )
    blocks.append(_Block("pde_u", pde_u, st_w, cfg.omega_pde))
    pde_v = sp.hstack(
        [-a0_mat, dt_op - b_mat, sp.csr_matrix((n_st, n_sp)),
         -sp.diags(data.q2.ravel()) @ spread],
        format="csr",
    )
    blocks.append(_Block("pde_v", pde_v, st_w, cfg.omega_pde))

    for key, block_off, with_dt in (("u", off_u, False), ("v", off_v, False),
                                    ("ut", off_u, True), ("vt", off_v, True)):
        for face in sorted(g.gamma):
            op = (dt_op if with_dt else eye)[_face_index(g, face)]
            blocks.append(_Block(f"trace_{key}_{face.label()}",
                                 embed(op, block_off),
                                 face_quad_weights(g, face).ravel(),
                                 cfg.omega_gamma, (key, face)))

    sel0 = eye[_node_index(g, g.dim, g.it0)]
    blocks.append(_Block("slice_u", embed(sel0, off_u), sp_w,
                         cfg.omega_slice, ("u0", None)))
    blocks.append(_Block("slice_v", embed(sel0, off_v), sp_w,
                         cfg.omega_slice, ("v0", None)))

    if cfg.omega_bc > 0:
        dx = [deriv((j,)) for j in range(g.dim)]
        for face in g.all_faces():
            w = face_quad_weights(g, face).ravel()
            for offs, nm, m2 in ((off_u, "bc_u", c.a2), (off_v, "bc_v", c.b2)):
                blocks.append(_Block(f"{nm}_{face.label()}",
                                     embed(_conormal_op(g, m2, face, dx), offs),
                                     w, cfg.omega_bc))
    return blocks, dim_x


# -- the state factor: block Cholesky, level by level in time -----------------


class _LevelCholesky:
    """Cholesky factor ``K = L L^T`` of a sparse symmetric positive definite
    matrix whose unknowns come in levels of ``b`` and that couples levels at
    most two apart (the states ordered time level by time level: the time
    derivative is a 3-point stencil and every other row acts within one
    level), held in inverse form.

    ``L`` has the same block bandwidth.  Only the inverted diagonal blocks
    ``L_kk^-1`` (LAPACK ``dpotrf``, then ``dtrtri`` in place; lower triangle)
    and ``L_{k,k-1}`` are stored, 2 b^2 entries per level; ``L_{k,k-2}`` is
    applied as ``K_{k,k-2} L_{k-2,k-2}^-T`` from the sparse block of ``K``,
    which is diagonal except next to the one-sided end stencils.  With the
    diagonal blocks inverted, every triangular solve of the factorization and
    of ``solve_levels`` is a triangular multiply (``dtrmm``, or ``dtrmv`` for
    one right-hand side), which OpenBLAS runs several times faster than
    ``dtrsm`` on these block sizes; the accuracy is that of triangular
    inversion (Du Croz and Higham 1992).  All dense work goes through
    SciPy's BLAS and LAPACK: NumPy ships its own OpenBLAS thread pool, and
    alternating the two pools on small blocks costs each call milliseconds.
    Every BLAS call works in place (``overwrite_*``) on F-contiguous b x b or
    b x m blocks.
    """

    def __init__(self, k: sp.spmatrix, b: int):
        n = k.shape[0]
        if k.shape != (n, n) or b <= 0 or n % b:
            raise ValueError(f"a {k.shape} matrix does not split into levels of {b}")
        k = sp.csr_matrix(k)
        k.sum_duplicates()
        row = np.repeat(np.arange(n), np.diff(k.indptr))
        reach = int(np.max(np.abs(row // b - k.indices // b), initial=0))
        if reach > 2:
            raise ValueError(f"the matrix couples levels {reach} apart; the level "
                             f"Cholesky factor admits at most 2")
        self.b, self.nt = b, n // b
        self.diag = np.zeros((b, b, self.nt), order="F")   # L_kk^-1
        self.sub = np.zeros((b, b, self.nt), order="F")    # L_{k,k-1} at k
        # K_{k,k-2} at k: its diagonal, and the rest where it has one
        self.far_diag = np.zeros((b, self.nt))
        self.far_rest: dict[int, sp.csr_matrix] = {}
        self._scatter(k, row)
        del row
        x = np.empty((b, b), order="F")   # L_{k,k-2} of one level at a time
        on_diag = np.arange(b)
        for lev in range(self.nt):
            lkk = self.diag[:, :, lev]
            if lev >= 2:
                rest = self.far_rest.get(lev)
                if rest is None:
                    x.fill(0.0)
                else:
                    rest.toarray(out=x)
                x[on_diag, on_diag] += self.far_diag[:, lev]
                blas.dtrmm(1.0, self.diag[:, :, lev - 2], x, side=1, lower=1,
                           trans_a=1, overwrite_b=1)
                blas.dsyrk(-1.0, x, 1.0, lkk, lower=1, overwrite_c=1)
            if lev >= 1:
                c = self.sub[:, :, lev]
                if lev >= 2:
                    blas.dgemm(-1.0, x, self.sub[:, :, lev - 1], 1.0, c,
                               trans_b=1, overwrite_c=1)
                blas.dtrmm(1.0, self.diag[:, :, lev - 1], c, side=1, lower=1,
                           trans_a=1, overwrite_b=1)
                blas.dsyrk(-1.0, c, 1.0, lkk, lower=1, overwrite_c=1)
            _, info = lapack.dpotrf(lkk, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                _, info = lapack.dtrtri(lkk, lower=1, overwrite_c=1)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"matrix is not positive definite: the Cholesky factor breaks "
                    f"down at level {lev} (LAPACK info {info})")

    def _scatter(self, k: sp.csr_matrix, row: np.ndarray) -> None:
        """The lower block triangle of ``k`` (``row`` the row of each stored
        entry) straight into the slots its factor blocks are formed in."""
        b = self.b
        gap = row // b - k.indices // b
        at, r, c = row // b, row % b, k.indices % b
        for off, dest in ((0, self.diag), (1, self.sub)):
            sel = gap == off
            dest[r[sel], c[sel], at[sel]] = k.data[sel]
        far = gap == 2
        sel = far & (r == c)
        self.far_diag[r[sel], at[sel]] = k.data[sel]
        far &= r != c
        for lev in np.unique(at[far]):
            sel = far & (at == lev)
            self.far_rest[int(lev)] = sp.csr_matrix((k.data[sel], (r[sel], c[sel])),
                                                   shape=(b, b))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``K^-1 rhs`` for one vector or the columns of a matrix."""
        b, nt = self.b, self.nt
        rhs = np.asarray(rhs, dtype=float)
        m = 1 if rhs.ndim == 1 else rhs.shape[1]
        y = np.array(rhs.reshape(nt, b, m).transpose(1, 2, 0), order="F")
        return self.solve_levels(y).transpose(2, 0, 1).reshape(rhs.shape)

    def solve_levels(self, y: np.ndarray) -> np.ndarray:
        """``K^-1`` applied in place to ``m`` right-hand sides held level by
        level: ``y`` is an F-ordered (b, m, nt) array whose ``y[:, :, k]`` is
        their F-contiguous b x m block of level k.  Returns ``y``."""
        b, nt = self.b, self.nt
        if y.ndim != 3 or (y.shape[0], y.shape[2]) != (b, nt) \
                or not y.flags.f_contiguous or y.dtype != np.float64:
            raise ValueError(f"expected an F-ordered float ({b}, m, {nt}) array, "
                             f"got {y.dtype} {y.shape}")
        m = y.shape[1]
        # out -= op(a) @ x and x = op(tril(a)) @ x, in place; level 2 for one
        # right-hand side, where it beats dtrmm
        if m == 1:
            def sub_mul(a, x, out, trans=0):
                blas.dgemv(-1.0, a, x[:, 0], 1.0, out[:, 0], trans=trans,
                           overwrite_y=1)

            def tri_mul(a, x, trans=0):
                blas.dtrmv(a, x[:, 0], lower=1, trans=trans, overwrite_x=1)
        else:
            def sub_mul(a, x, out, trans=0):
                blas.dgemm(-1.0, a, x, 1.0, out, trans_a=trans, overwrite_c=1)

            def tri_mul(a, x, trans=0):
                blas.dtrmm(1.0, a, x, lower=1, trans_a=trans, overwrite_b=1)

        w = np.empty((b, m), order="F")
        for lev in range(nt):
            yk = y[:, :, lev]
            if lev >= 1:
                sub_mul(self.sub[:, :, lev], y[:, :, lev - 1], yk)
            if lev >= 2:
                # L_{k,k-2} y_{k-2} = K_{k,k-2} (L_{k-2,k-2}^-T y_{k-2})
                w[...] = y[:, :, lev - 2]
                tri_mul(self.diag[:, :, lev - 2], w, trans=1)
                rest = self.far_rest.get(lev)
                if rest is not None:
                    yk -= rest @ w
                w *= self.far_diag[:, lev, None]
                yk -= w
            tri_mul(self.diag[:, :, lev], yk)
        for lev in range(nt - 1, -1, -1):
            xk = y[:, :, lev]
            if lev + 1 < nt:
                sub_mul(self.sub[:, :, lev + 1], y[:, :, lev + 1], xk, trans=1)
            if lev + 2 < nt:
                # L_{k+2,k}^T x_{k+2} = L_{k,k}^-1 (K_{k+2,k}^T x_{k+2})
                np.multiply(y[:, :, lev + 2], self.far_diag[:, lev + 2, None], out=w)
                rest = self.far_rest.get(lev + 2)
                if rest is not None:
                    w += rest.T @ y[:, :, lev + 2]
                tri_mul(self.diag[:, :, lev], w)
                xk -= w
            tri_mul(self.diag[:, :, lev], xk, trans=1)
        return y


# -- variable projection: reduce once, solve per data and ridge ---------------

# entries of the dense state factor and reduced source matrix (8 bytes each)
_DENSE_LIMIT = 2.5e8
# source columns eliminated per multi-right-hand-side state solve; against
# 64, 96 measured a 5-15% faster elimination at 65^2 and 97^2 for 5 MB more
# peak memory at 97^2, and 194 a 10% faster one for 15 MB more
_CHUNK = 96
# block size of the compact-WY QR of the reduced source matrix
_QR_BLOCK = 32


def _system_key(data: InverseData, cfg: ReconstructionConfig) -> dict[str, object]:
    """Everything the rows of the objective depend on, by name."""

    def digest(*arrays: np.ndarray) -> str:
        h = hashlib.sha256()
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return h.hexdigest()

    c = data.coeffs
    orders = sorted(c.b_gamma)
    return {
        "grid": data.grid,
        "coefficients": (tuple(orders), digest(c.a2, c.b2, c.a1, c.b1, c.a0, c.b0,
                                               c.c0, *(c.b_gamma[k] for k in orders))),
        "q": digest(data.q1, data.q2),
        "omega": (cfg.omega_pde, cfg.omega_gamma, cfg.omega_slice, cfg.omega_bc),
    }


@dataclass(frozen=True, eq=False)
class SourceReduction:
    """The part of a reconstruction that no data, noise seed or ridge changes.

    With the weighted rows split by columns into the state block ``ay`` and
    the source block ``az``, it holds the level-by-level Cholesky factor of
    ``ay^T ay`` (``chol``; the columns of ``ay`` are ordered time level by
    time level, see ``_level_order``) and the projected source matrix
    R0 = (I - ay (ay^T ay)^-1 ay^T) az W^-1/2 in factored form:
    P R0 = Q @ u @ diag(s) @ vt, where P puts the rows in ``row_order``
    (stably by the first time level they touch, see ``_level_rows``; ``ay``,
    ``az``, ``sqrt_w`` and ``blocks`` keep the block row order).  Q is never
    formed: it is kept in compact WY form, the Householder vectors below the
    diagonal of ``reflectors`` (the rows x sources output of LAPACK
    ``dgeqrt``, whose upper triangle is the factor the SVD
    ``u @ diag(s) @ vt`` is taken of) and the block reflector factors ``t``;
    ``reconstruct`` applies Q^T to its data, permuted by ``row_order``, with
    ``dgemqrt``.
    W is the quadrature weight of (f, g), so ``s`` is the spectrum with
    respect to the L2 norm of the sources.  Built by ``reduce_sources`` for
    one grid, coefficient set, q1/q2 and omega weights (``key``);
    ``reconstruct`` refuses it for any other system.  ``timings`` holds the
    seconds its stages took: ``assemble_s``, ``factor_s``, ``eliminate_s``
    and ``qr_svd_s``.
    """

    key: dict[str, object]
    blocks: tuple[_Block, ...]
    sqrt_w: np.ndarray
    ay: sp.csc_matrix
    az: sp.csc_matrix
    chol: _LevelCholesky
    source_w: np.ndarray
    row_order: np.ndarray
    reflectors: np.ndarray
    t: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    timings: dict[str, float]


def _level_order(grid: Grid) -> np.ndarray:
    """Column permutation from (u, v) stacked, each raveled (space, time), to
    time level by time level, each level (u, v), each raveled in space."""
    n_sp = int(np.prod(grid.space_shape))
    return np.arange(2 * n_sp * grid.nt).reshape(2, n_sp, grid.nt).transpose(2, 0, 1).ravel()


def _level_rows(ay: sp.csc_matrix,
                b: int) -> tuple[np.ndarray, list[tuple[int, int, sp.csc_matrix]]]:
    """Rows of ``ay`` (columns in levels of ``b``) ordered stably by the first
    level they touch, rows without state entries last, so that the columns
    of level k touch one contiguous range of rows: those whose first level
    is k - 2 to k.  Returns the row order and, per level, that range
    ``lo, hi`` with the level's block of ``ay[order]`` in it."""
    nt = ay.shape[1] // b
    first = np.full(ay.shape[0], nt)
    np.minimum.at(first, ay.indices, np.repeat(np.arange(ay.shape[1]) // b,
                                               np.diff(ay.indptr)))
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    at = rank[ay.indices]
    blocks = []
    for lev in range(nt):
        ptr = ay.indptr[lev * b:(lev + 1) * b + 1]
        rows = at[ptr[0]:ptr[-1]]
        lo, hi = int(rows.min()), int(rows.max()) + 1
        blocks.append((lo, hi, sp.csc_matrix((ay.data[ptr[0]:ptr[-1]], rows - lo,
                                              ptr - ptr[0]), shape=(hi - lo, b))))
    return order, blocks


def reduce_sources(data: InverseData, cfg: ReconstructionConfig) -> SourceReduction:
    """Eliminate the states from the source columns once.

    Reads the grid, coefficients and q1/q2 of ``data`` and the omega weights
    of ``cfg``; the observations and ``cfg.beta`` are not used.  An oversized
    problem raises MemoryError with the sizes of the dense state factor and
    of the reduced source matrix before either is allocated; a matrix that
    is not positive definite raises LinAlgError.
    """
    timings: dict[str, float] = {}
    lap = time.perf_counter()

    def stage(name: str) -> None:
        nonlocal lap
        now = time.perf_counter()
        timings[name] = now - lap
        lap = now

    g = data.grid
    blocks, dim_x = _build_blocks(data, cfg)
    n_state = 2 * int(np.prod(g.shape))
    level = 2 * int(np.prod(g.space_shape))
    rows = sum(blk.L.shape[0] for blk in blocks)
    n_src = dim_x - n_state
    n_factor, n_dense = 2 * level * n_state, rows * n_src
    if n_factor + n_dense > _DENSE_LIMIT:
        raise MemoryError(
            f"state factor 2 x {level}^2 x {g.nt} levels = {n_factor:.3g} entries "
            f"plus reduced source matrix {rows} rows x {n_src} sources = "
            f"{n_dense:.3g} entries ({8e-9 * (n_factor + n_dense):.1f} GB), "
            f"above the {_DENSE_LIMIT:.3g}-entry limit")
    sqrt_w = np.concatenate([np.sqrt(blk.omega * blk.m) for blk in blocks])
    A = (sp.diags(sqrt_w) @ sp.vstack([blk.L for blk in blocks], format="csr")).tocsc()
    ay = A[:, _level_order(g)]
    az = A[:, n_state:]
    stage("assemble_s")
    chol = _LevelCholesky(ay.T @ ay, level)
    stage("factor_s")
    source_w = np.tile(g.space_weights.ravel(), 2)
    # R0 = az - ay K^-1 ay^T az, chunk by chunk of source columns, in the
    # level row order: the right-hand sides ay^T az[:, J] are scattered
    # straight into the level layout of ``solve_levels`` and solved in place,
    # and each level's states are subtracted from its own contiguous rows.
    # Fortran order lets the QR below factor R0 where it lies.
    row_order, level_rows = _level_rows(ay, level)
    ayt_az = (ay.T @ az).tocsc()
    r0 = np.empty((rows, n_src), order="F")
    az[row_order].toarray(out=r0)
    y = np.empty((level, min(_CHUNK, n_src), g.nt), order="F")
    for j in range(0, n_src, _CHUNK):
        m = min(_CHUNK, n_src - j)
        if m != y.shape[1]:
            y = np.empty((level, m, g.nt), order="F")
        y.fill(0.0)
        seg = slice(ayt_az.indptr[j], ayt_az.indptr[j + m])
        node = ayt_az.indices[seg]
        col = np.repeat(np.arange(m), np.diff(ayt_az.indptr[j:j + m + 1]))
        y[node % level, col, node // level] = ayt_az.data[seg]
        chol.solve_levels(y)
        for lev, (lo, hi, blk) in enumerate(level_rows):
            r0[lo:hi, j:j + m] -= blk @ y[:, :, lev]
    del y
    r0 /= np.sqrt(source_w)
    stage("eliminate_s")
    reflectors, t, info = lapack.dgeqrt(min(_QR_BLOCK, n_src), r0, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dgeqrt info {info}")
    u, s, vt = sla.svd(np.triu(reflectors[:n_src]), overwrite_a=True,
                       check_finite=False)
    stage("qr_svd_s")
    return SourceReduction(key=_system_key(data, cfg), blocks=tuple(blocks),
                           sqrt_w=sqrt_w, ay=ay, az=az, chol=chol, source_w=source_w,
                           row_order=row_order, reflectors=reflectors, t=t,
                           u=u, s=s, vt=vt, timings=timings)


def _filter(s: np.ndarray, beta: float, rows: int) -> np.ndarray:
    """Tikhonov filter s / (s^2 + beta); at beta = 0 the pseudo-inverse with
    the cut-off of ``np.linalg.lstsq(rcond=None)``."""
    if beta > 0:
        return s / (s * s + beta)
    keep = s > np.finfo(float).eps * max(rows, s.size) * s[0]
    out = np.zeros_like(s)
    out[keep] = 1.0 / s[keep]
    return out


def reconstruct(data: InverseData, cfg: ReconstructionConfig,
                truth: Optional[tuple[np.ndarray, np.ndarray]] = None, *,
                reduction: Optional[SourceReduction] = None) -> ReconstructionResult:
    """Minimize the all-at-once quadratic by variable projection.

    ``reduction`` (from ``reduce_sources`` on the same grid, coefficients,
    q1/q2 and omega weights; ValueError otherwise) skips the elimination, so
    many solves on one system share it; without it one is built here.  The
    sources come from the filtered SVD of the reduced system, the states
    from one back-solve, and the result records its relative normal
    residual; a result above ``tol`` is flagged, not raised.
    """
    flags: list[str] = []
    if cfg.beta == 0.0 and data.delta > 0.0:
        flags.append("beta=0 with noisy data: ridge-free fit is ill-advised")
    red = reduce_sources(data, cfg) if reduction is None else reduction
    solve_start = time.perf_counter()
    key = _system_key(data, cfg)
    stale = [name for name in key if key[name] != red.key[name]]
    if stale:
        raise ValueError("the reduction was built for a different "
                         + ", ".join(stale) + " than this reconstruction's")

    ay, az, chol = red.ay, red.az, red.chol
    b = red.sqrt_w * np.concatenate([blk.rhs(data) for blk in red.blocks])
    ayt_b = ay.T @ b
    b_perp = b - ay @ chol.solve(ayt_b)
    # Q^T b_perp from the compact WY form, then the filtered SVD; every
    # dense product goes through SciPy's BLAS, like the factor's
    qt_b, info = lapack.dgemqrt(red.reflectors, red.t, b_perp[red.row_order, None],
                                side="L", trans="T", overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dgemqrt info {info}")
    phi = _filter(red.s, cfg.beta, b.size)
    coef = phi * blas.dgemv(1.0, red.u, qt_b[:red.s.size, 0], trans=1)
    z = blas.dgemv(1.0, red.vt, coef, trans=1) / np.sqrt(red.source_w)
    y = chol.solve(ay.T @ (b - az @ z))
    res = ay @ y + az @ z - b

    grad = blas.dnrm2(np.concatenate(
        [ay.T @ res, az.T @ res + cfg.beta * red.source_w * z]))
    scale = blas.dnrm2(np.concatenate([ayt_b, az.T @ b]))
    normal_residual = float(grad / scale if scale > 0 else grad)
    converged = normal_residual <= cfg.tol
    if not converged:
        flags.append(f"normal residual {normal_residual:.3g} above tol {cfg.tol:g}")

    terms: dict[str, float] = {}
    start = 0
    for blk in red.blocks:
        part = res[start:start + blk.L.shape[0]]
        terms[blk.name] = float(blas.ddot(part, part))
        start += blk.L.shape[0]
    g = data.grid
    n_st = int(np.prod(g.shape))
    n_sp = int(np.prod(g.space_shape))
    if cfg.beta > 0:
        for name, part in (("ridge_f", slice(0, n_sp)), ("ridge_g", slice(n_sp, None))):
            terms[name] = cfg.beta * float(blas.ddot(z[part], red.source_w[part] * z[part]))

    states = np.empty_like(y)
    states[_level_order(g)] = y
    result = ReconstructionResult(
        f_hat=GridFn(g, SPATIAL_SLICE, z[:n_sp].reshape(g.space_shape)),
        g_hat=GridFn(g, SPATIAL_SLICE, z[n_sp:].reshape(g.space_shape)),
        u_hat=GridFn(g, SPACE_TIME, states[:n_st].reshape(g.shape)),
        v_hat=GridFn(g, SPACE_TIME, states[n_st:].reshape(g.shape)),
        objective=float(sum(terms.values())), objective_terms=terms,
        normal_residual=normal_residual, converged=converged,
        singular_values=red.s.copy(), flags=flags,
        timings={**red.timings, "solve_s": time.perf_counter() - solve_start},
    )
    if truth is not None:
        f_true, g_true = truth
        result.rel_err_f = _rel_l2(g, result.f_hat.values, f_true)
        result.rel_err_g = _rel_l2(g, result.g_hat.values, g_true)
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
    normal_residual: float


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
    timings: dict[str, float]


def stability_sweep(case: ManufacturedCase, deltas: Sequence[float],
                    cfg: Optional[ReconstructionConfig] = None, *,
                    seeds: Sequence[int] = (0, 1, 2),
                    beta_rule: Callable[[float], float] = lambda d: d * d,
                    noisy_slices: bool = False) -> StabilityReport:
    """Noise sweep measuring the error-vs-noise slope.

    For every (delta, seed) fresh noise is drawn, the reconstruction run,
    and e(delta) = ||f_err|| + ||g_err|| recorded; the pooled log-log fit
    gives the slope and r^2, with per-seed fits reported as mean and spread.
    Reconstructions whose normal residual misses ``cfg.tol`` are excluded
    and listed.  The grid must have at least 4 positive deltas spanning two
    decades.  Every solve shares one ``SourceReduction``: the system is
    the same, only the data and the ridge change.  ``timings`` holds the
    reduction's stage seconds and ``solve_s`` summed over the solves.

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
    reduction: Optional[SourceReduction] = None
    solve_s = 0.0
    for delta in deltas:
        beta = float(beta_rule(delta))
        run_cfg = dataclasses.replace(base, beta=beta)
        for seed in seeds:
            data = make_inverse_data(case, delta, seed, noisy_slices=noisy_slices)
            if reduction is None:
                reduction = reduce_sources(data, run_cfg)
            res = reconstruct(data, run_cfg, reduction=reduction)
            solve_s += res.timings["solve_s"]
            err_f = _abs_l2(g, res.f_hat.values - truth[0])
            err_g = _abs_l2(g, res.g_hat.values - truth[1])
            row = StabilityRow(delta, int(seed), err_f, err_g, err_f + err_g,
                               beta, res.converged, res.normal_residual)
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
        timings={**reduction.timings, "solve_s": solve_s},
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
        "data_k0": math.sqrt(norm(case.u, "D_gamma") ** 2
                             + norm(case.v, "D_gamma") ** 2),
        "data_k1": math.sqrt(norm(ut, "D_gamma") ** 2 + norm(vt, "D_gamma") ** 2),
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

    def run(ens: Iterable[ManufacturedCase]):
        rows = []
        best = 0.0
        for i, case in enumerate(ens):
            pair = verify_thm2(case)
            rows.append((i, pair.lhs, pair.rhs, pair.ratio))
            if math.isfinite(pair.ratio):
                best = max(best, pair.ratio)
        return rows, best

    rows, best = run(cases.cases)
    drift = fine_best = None
    if refine:
        # each refined case is built just before it is used
        fine = cases.cases[0].grid.refined(2)
        _, fine_best = run(resampled_cases(cases.cases, fine))
        drift = fine_best / best if best > 0 else math.inf
    return Thm2Report(rows=tuple(rows), max_ratio=best, drift=drift,
                      max_ratio_refined=fine_best)
