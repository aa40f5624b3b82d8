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
kept inverted so that every triangular solve is a multiply, and two levels'
inverse triangles packed into one square block.  The source
columns are eliminated in chunks, with the rows ordered by the first time
level they touch so that each level's states update one contiguous row
range.  The projected source columns are QR-factored with their orthogonal
factor left in compact WY form (LAPACK ``dgeqrt``; Schreiber and Van Loan
1989), and the small triangular factor is solved through its SVD, where
the ridge acts as the Tikhonov filter s / (s^2 + beta).  None of that
depends on the data, the noise seed or beta, so it is built once as a
``SourceReduction`` and shared by every solve on the same system.  A
solve is one elimination of the data, Q^T applied from the reflectors
(``dgemqrt``), the filter and one back-solve for the states; it takes a
block of data columns, each with its own ridge, and runs every stage once
on the whole block, so the stability sweep solves all its (delta, seed)
data sets in one call while ``reconstruct`` passes one column.
``converged`` reports whether the relative normal-equation residual at the
result meets ``tol``.

A slice formula evaluated at t0 provides an independent oracle, and noise
sweeps fit the log-log slope of the error against the data perturbation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

# SciPy is imported inside the functions that use it: ``import mfglab``
# imports this module, and the lab experiments need no SciPy submodule.
# ``config.load_config`` imports them for an inverse experiment (``load_scipy``).

from .coefficients import CoeffSet, conormal_operator, operator_terms
from .grid import (
    SPATIAL_SLICE,
    SPACE_TIME,
    Face,
    Grid,
    GridFn,
    face_quad_weights,
    face_values,
    gamma_jets,
    node_index,
    stencil,
)
from .models import ManufacturedCase, residual
from .reports import stage

__all__ = [
    "InverseData",
    "ReconstructionConfig",
    "ReconstructionResult",
    "SourceReduction",
    "StabilityReport",
    "direct_formula_oracle",
    "make_inverse_data",
    "reconstruct",
    "reduce_sources",
    "stability_sweep",
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
    """Read the observation package off the case states and contaminate it
    with noise.

    The traces of u and v and of their time derivatives are the ``value``
    and ``dt`` of :func:`~mfglab.grid.gamma_jets` on the faces of gamma; the
    snapshots are the states at t0.
    Each data array independently receives i.i.d. Gaussian noise with
    standard deviation ``delta`` times its own max amplitude (in particular
    the time-derivative traces are noised directly, not obtained by
    differentiating noisy traces).  The draw order is fixed (``TRACE_KEYS``,
    each over the sorted faces of gamma, then u0 and v0), so a seed pins
    the noise.  By default the two interior snapshots stay exact and only
    the lateral data are perturbed, as in the stability sweep and the
    config default: white noise on a snapshot enters the recovery through
    its second derivatives.  ``noisy_slices=True`` noises them too.
    """
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    rng = np.random.default_rng(seed)
    g = case.grid

    def noisy(arr: np.ndarray) -> np.ndarray:
        scale = delta * float(np.max(np.abs(arr)))
        return arr + rng.normal(0.0, scale, size=arr.shape) if scale > 0 else arr

    clean: dict[str, dict[Face, np.ndarray]] = {}
    for key, state in (("u", case.u), ("v", case.v)):
        jets = gamma_jets(g, state.values)
        clean[key] = {face: jet.value for face, jet in jets.items()}
        clean[key + "t"] = {face: jet.dt for face, jet in jets.items()}
    traces = {key: {face: noisy(trace) for face, trace in clean[key].items()}
              for key in TRACE_KEYS}
    u0, v0 = (state.values[..., g.it0].copy() for state in (case.u, case.v))
    if noisy_slices:
        u0, v0 = noisy(u0), noisy(v0)
    return InverseData(
        grid=g, coeffs=case.coeffs, traces=traces,
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
        # written so that a nan fails every comparison
        if not 0 < self.omega_pde < math.inf:
            raise ValueError("omega_pde must be positive and finite")
        if not all(0 <= w < math.inf for w in (self.omega_gamma, self.omega_slice,
                                                self.omega_bc, self.beta)):
            raise ValueError("penalty weights must be finite and >= 0")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")


@dataclass
class ReconstructionResult:
    """Minimizer of the quadratic with its optimality measures.

    ``normal_residual`` is ||A^T (A x - b) + beta W z|| / ||A^T b|| at the
    result, with A, b the weighted rows and data, z the sources and W their
    quadrature weights; ``converged`` is ``normal_residual <= tol``.
    ``singular_values`` is the descending spectrum of the reduced source
    matrix in W-scaled coordinates (a source's norm there is its L2 norm).
    The solve is direct, so ``iterations`` is always 0.
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


# -- sparse operators on the raveled space-time state ------------------------


def load_scipy() -> None:
    """Import the SciPy modules of the solver, so that the first solve's
    timed stages do not include their import."""
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401


def kron_axes(sizes: Sequence[int], factors: Mapping[int, sp.spmatrix]) -> sp.csr_matrix:
    """Embed 1-D factors in the raveled (C-order) lattice of shape ``sizes``.

    ``factors[axis]`` acts along that axis (it may be rectangular, e.g. a
    row selecting one node); every other axis gets the identity.
    """
    import scipy.sparse as sp

    out = sp.identity(1, format="csr")
    for ax, n in enumerate(sizes):
        out = sp.kron(out, factors.get(ax, sp.identity(n, format="csr")), format="csr")
    return out


def _stencil_matrix(n: int, h: float, order: int) -> sp.csr_matrix:
    """The rows of ``grid.stencil(h, order)`` as an n x n sparse matrix."""
    import scipy.sparse as sp

    rows = stencil(h, order)
    m = sp.diags([w for _, w in rows.interior], [off for off, _ in rows.interior],
                 shape=(n, n), format="lil")
    m[0, :len(rows.first)] = rows.first
    m[n - 1, n - len(rows.last):] = rows.last
    return m.tocsr()


def derivative_matrix(sizes: Sequence[int], spacings: Sequence[float],
                      axes: Sequence[int]) -> sp.csr_matrix:
    """Sparse derivative along ``axes`` on the raveled lattice ``sizes``.

    An axis listed twice is a second derivative, two distinct axes a mixed
    one.  The 1-D factors hold the rows of ``grid.stencil``: along one axis
    the product with a raveled array equals ``grid.apply_stencil`` bit for
    bit.
    """
    return kron_axes(sizes, {ax: _stencil_matrix(sizes[ax], spacings[ax], k)
                             for ax, k in Counter(axes).items()})


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
    import scipy.sparse as sp

    g = c.grid
    if deriv is None:
        deriv = _derivative_cache(g)
    n = int(np.prod(g.shape))
    out = sp.csr_matrix((n, n))
    for coef, axes in operator_terms(kind, c):
        out = out + sp.diags(coef.ravel()) @ deriv(axes)
    return out.tocsr()


@dataclass(frozen=True, eq=False)
class _Term:
    """One objective term as a solve reads it: ``m.size`` rows, weighted
    ``omega * m`` per row and fitted to the observation ``obs`` names (zero
    when ``obs`` is None)."""

    name: str
    m: np.ndarray
    omega: float
    obs: Optional[tuple[str, Optional[Face]]] = None

    def rhs(self, data: InverseData) -> np.ndarray:
        if self.obs is None:
            return np.zeros(self.m.size)
        key, face = self.obs
        arr = getattr(data, key) if face is None else data.traces[key][face]
        return np.asarray(arr, dtype=float).ravel()


@dataclass(frozen=True, eq=False)
class _Block(_Term):
    """One objective term with its rows ``L x``."""

    L: sp.csr_matrix = field(kw_only=True)

    def term(self) -> _Term:
        """The term without ``L``."""
        return _Term(self.name, self.m, self.omega, self.obs)


def _build_blocks(data: InverseData, cfg: ReconstructionConfig) -> tuple[list[_Block], int]:
    """All rows of the objective except the ridge, which has no state
    columns and enters the reduced source system in closed form."""
    import scipy.sparse as sp

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

    nodes = node_index(g)
    blocks: list[_Block] = []

    pde_u = sp.hstack(
        [dt_op + a_mat, -sp.diags(c.c0.ravel()),
         -sp.diags(data.q1.ravel()) @ spread, sp.csr_matrix((n_st, n_sp))],
        format="csr",
    )
    blocks.append(_Block("pde_u", st_w, cfg.omega_pde, L=pde_u))
    pde_v = sp.hstack(
        [-a0_mat, dt_op - b_mat, sp.csr_matrix((n_st, n_sp)),
         -sp.diags(data.q2.ravel()) @ spread],
        format="csr",
    )
    blocks.append(_Block("pde_v", st_w, cfg.omega_pde, L=pde_v))

    for key, block_off, with_dt in (("u", off_u, False), ("v", off_v, False),
                                    ("ut", off_u, True), ("vt", off_v, True)):
        for face in sorted(g.gamma):
            op = (dt_op if with_dt else eye)[face_values(g, nodes, face).ravel()]
            blocks.append(_Block(f"trace_{key}_{face.label()}",
                                 face_quad_weights(g, face).ravel(),
                                 cfg.omega_gamma, (key, face), L=embed(op, block_off)))

    sel0 = eye[nodes[..., g.it0].ravel()]
    blocks.append(_Block("slice_u", sp_w, cfg.omega_slice, ("u0", None),
                         L=embed(sel0, off_u)))
    blocks.append(_Block("slice_v", sp_w, cfg.omega_slice, ("v0", None),
                         L=embed(sel0, off_v)))

    if cfg.omega_bc > 0:
        dx = [deriv((j,)) for j in range(g.dim)]
        for face in g.all_faces():
            w = face_quad_weights(g, face).ravel()
            for offs, nm, which in ((off_u, "bc_u", "A"), (off_v, "bc_v", "B")):
                blocks.append(_Block(f"{nm}_{face.label()}", w, cfg.omega_bc,
                                     L=embed(conormal_operator(c, which, face, dx), offs)))
    return blocks, dim_x


# -- the state factor: block Cholesky, level by level in time -----------------


def _factor_blocks(nt: int) -> tuple[int, int]:
    """The b x b blocks of the level factor of ``nt`` levels: packed inverse
    triangle slots and sub-diagonal blocks."""
    return (nt + 1) // 2, nt - 1


class _LevelCholesky:
    """Cholesky factor ``K = L L^T`` of a sparse symmetric positive definite
    matrix whose unknowns come in levels of ``b`` and that couples levels at
    most two apart (the states ordered time level by time level: the time
    derivative is a 3-point stencil and every other row acts within one
    level), held in inverse form.

    ``L`` has the same block bandwidth.  Only the inverted diagonal blocks
    ``L_kk^-1`` (LAPACK ``dpotrf``, then ``dtrtri``; lower triangular) and
    ``L_{k,k-1}`` are stored; ``L_{k,k-2}`` is applied as
    ``K_{k,k-2} L_{k-2,k-2}^-T`` from the sparse block of ``K``, which is
    diagonal except next to the one-sided end stencils.  The inverse
    triangles share their b x b blocks two levels to a slot, as in
    rectangular full packed storage (Gustavson, Wasniewski, Dongarra and
    Langou 2010): slot j of ``tri`` holds level 2j in its strict lower
    triangle and level 2j + 1, transposed, in its strict upper one, and
    ``tri_diag`` holds the diagonal of every level, written into the slot's
    diagonal just before that level is used (so a solve writes to the
    factor too).  An odd level is factored, inverted and applied as an
    upper triangle, with the transpose flag flipped.  With ``L_{k,k-1}``
    from level 1 on and the diagonal of each ``K_{k,k-2}``, the factor holds
    (ceil(nt / 2) + nt - 1) b^2 + 2 b nt entries (``_factor_blocks``), at
    most 1.5 b^2 + 2 b per level.  With the diagonal blocks inverted, every
    triangular solve of the factorization and of ``solve_levels`` is a
    triangular multiply (``dtrmm``, or ``dtrmv`` for one right-hand side),
    which OpenBLAS runs several times faster than ``dtrsm`` on these block
    sizes; the accuracy is that of triangular inversion (Du Croz and Higham
    1992).  All dense
    work goes through SciPy's BLAS and LAPACK: NumPy ships its own OpenBLAS
    thread pool, and alternating the two pools on small blocks costs each
    call milliseconds.  Every BLAS call works in place (``overwrite_*``) on
    F-contiguous b x b or b x m blocks.
    """

    def __init__(self, k: sp.spmatrix, b: int):
        import scipy.sparse as sp
        from scipy.linalg import blas, lapack

        n = k.shape[0]
        if k.shape != (n, n) or b <= 0 or n % b:
            raise ValueError(f"a {k.shape} matrix does not split into levels of {b}")
        k = sp.csr_matrix(k)
        k.sum_duplicates()   # sorts each row's columns too
        # the reach of each row is that of its first or its last column
        rows = np.flatnonzero(np.diff(k.indptr))
        ends = np.concatenate((k.indices[k.indptr[rows]],
                               k.indices[k.indptr[rows + 1] - 1]))
        reach = int(np.max(np.abs(np.tile(rows // b, 2) - ends // b), initial=0))
        if reach > 2:
            raise ValueError(f"the matrix couples levels {reach} apart; the level "
                             f"Cholesky factor admits at most 2")
        self.b, self.nt = b, n // b
        slots, subs = _factor_blocks(self.nt)
        self.tri = np.zeros((b, b, slots), order="F")   # L_kk^-1, two levels a slot
        self.tri_diag = np.zeros((b, self.nt))          # the diagonal of each
        self.sub = np.zeros((b, b, subs), order="F")    # L_{k,k-1} at k - 1
        # K_{k,k-2} at k: its diagonal, and the rest where it has one
        self.far_diag = np.zeros((b, self.nt))
        self.far_rest: dict[int, sp.csr_matrix] = {}
        self._slot_diag = self.tri.reshape(b * b, slots, order="F")[::b + 1]   # a view
        self._scatter(k)
        x = np.empty((b, b), order="F")   # L_{k,k-2} of one level at a time
        on_diag = np.arange(b)
        for lev in range(self.nt):
            j, odd = divmod(lev, 2)
            updates = []
            if lev >= 2:
                rest = self.far_rest.get(lev)
                if rest is None:
                    x.fill(0.0)
                else:
                    rest.toarray(out=x)
                x[on_diag, on_diag] += self.far_diag[:, lev]
                self._tri_mul(lev - 2, x, trans=1, side=1)
                updates.append(x)
            if lev >= 1:
                c = self.sub[:, :, lev - 1]
                if lev >= 2:
                    blas.dgemm(-1.0, x, self.sub[:, :, lev - 2], 1.0, c,
                               trans_b=1, overwrite_c=1)
                self._tri_mul(lev - 1, c, trans=1, side=1)
                updates.append(c)
            # K_kk is factored and inverted where ``_scatter`` put it: its
            # strict lower triangle in the slot's lower triangle, or for an
            # odd level, transposed, in the upper one, which LAPACK then
            # factors as U = L^T and inverts to L^-T.  Its diagonal goes in
            # only now, as the level before an odd one shares the slot.
            lkk = self.tri[:, :, j]
            self._slot_diag[:, j] = self.tri_diag[:, lev]
            for upd in updates:
                blas.dsyrk(-1.0, upd, 1.0, lkk, lower=1 - odd, overwrite_c=1)
            _, info = lapack.dpotrf(lkk, lower=1 - odd, clean=0, overwrite_a=1)
            if info == 0:
                _, info = lapack.dtrtri(lkk, lower=1 - odd, overwrite_c=1)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"matrix is not positive definite: the Cholesky factor breaks "
                    f"down at level {lev} (LAPACK info {info})")
            self.tri_diag[:, lev] = self._slot_diag[:, j]

    def _scatter(self, k: sp.csr_matrix) -> None:
        """The lower block triangle of ``k`` straight into the slots its
        factor blocks are formed in, one level of rows at a time: the strict
        lower triangle of ``K_kk`` into its packed slot (transposed for an
        odd level), its diagonal into ``tri_diag``, ``K_{k,k-1}`` into
        ``sub`` and ``K_{k,k-2}`` into ``far_diag`` and ``far_rest``."""
        import scipy.sparse as sp

        b = self.b
        for lev in range(self.nt):
            ptr = k.indptr[lev * b:(lev + 1) * b + 1]
            r = np.repeat(np.arange(b), np.diff(ptr))
            col, data = k.indices[ptr[0]:ptr[-1]], k.data[ptr[0]:ptr[-1]]
            gap, c = lev - col // b, col % b
            sel = (gap == 0) & (r > c)
            slot_row, slot_col = (c, r) if lev % 2 else (r, c)
            self.tri[slot_row[sel], slot_col[sel], lev // 2] = data[sel]
            sel = (gap == 0) & (r == c)
            self.tri_diag[r[sel], lev] = data[sel]
            if lev >= 1:
                sel = gap == 1
                self.sub[r[sel], c[sel], lev - 1] = data[sel]
            far = gap == 2
            sel = far & (r == c)
            self.far_diag[r[sel], lev] = data[sel]
            far &= r != c
            if far.any():
                self.far_rest[lev] = sp.csr_matrix((data[far], (r[far], c[far])),
                                                   shape=(b, b))

    def _tri_mul(self, lev: int, x: np.ndarray, trans: int = 0, side: int = 0) -> None:
        """``x = op(L_kk^-1) x`` (``side`` 0) or ``x op(L_kk^-1)`` (1) in place
        for level ``lev``, op the transpose when ``trans`` is 1; one column
        multiplied from the left goes through ``dtrmv``."""
        from scipy.linalg import blas

        j, odd = divmod(lev, 2)
        self._slot_diag[:, j] = self.tri_diag[:, lev]
        a = self.tri[:, :, j]
        if side == 0 and x.shape[1] == 1:
            blas.dtrmv(a, x[:, 0], lower=1 - odd, trans=trans ^ odd, overwrite_x=1)
        else:
            blas.dtrmm(1.0, a, x, side=side, lower=1 - odd, trans_a=trans ^ odd,
                       overwrite_b=1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``K^-1 rhs`` for one vector or the columns of a matrix."""
        rhs = np.asarray(rhs, dtype=float)
        return self.from_levels(self.solve_levels(self.to_levels(rhs))).reshape(rhs.shape)

    def to_levels(self, x: np.ndarray) -> np.ndarray:
        """A copy of one vector or the m columns of ``x`` in the layout of
        ``solve_levels``."""
        m = 1 if x.ndim == 1 else x.shape[1]
        return np.array(x.reshape(self.nt, self.b, m).transpose(1, 2, 0), order="F")

    def from_levels(self, y: np.ndarray) -> np.ndarray:
        """The (b nt) x m matrix whose columns ``y`` holds level by level."""
        return y.transpose(2, 0, 1).reshape(self.b * self.nt, y.shape[1])

    def solve_levels(self, y: np.ndarray) -> np.ndarray:
        """``K^-1`` applied in place to ``m`` right-hand sides held level by
        level: ``y`` is an F-ordered (b, m, nt) array whose ``y[:, :, k]`` is
        their F-contiguous b x m block of level k.  Returns ``y``."""
        from scipy.linalg import blas

        b, nt = self.b, self.nt
        if y.ndim != 3 or (y.shape[0], y.shape[2]) != (b, nt) \
                or not y.flags.f_contiguous or y.dtype != np.float64:
            raise ValueError(f"expected an F-ordered float ({b}, m, {nt}) array, "
                             f"got {y.dtype} {y.shape}")
        m = y.shape[1]
        # out -= op(a) @ x in place; level 2 for one right-hand side, where it
        # beats dgemm (``_tri_mul`` makes the same choice)
        if m == 1:
            def sub_mul(a, x, out, trans=0):
                blas.dgemv(-1.0, a, x[:, 0], 1.0, out[:, 0], trans=trans,
                           overwrite_y=1)
        else:
            def sub_mul(a, x, out, trans=0):
                blas.dgemm(-1.0, a, x, 1.0, out, trans_a=trans, overwrite_c=1)

        tri_mul = self._tri_mul
        w = np.empty((b, m), order="F")
        for lev in range(nt):
            yk = y[:, :, lev]
            if lev >= 1:
                sub_mul(self.sub[:, :, lev - 1], y[:, :, lev - 1], yk)
            if lev >= 2:
                # L_{k,k-2} y_{k-2} = K_{k,k-2} (L_{k-2,k-2}^-T y_{k-2})
                w[...] = y[:, :, lev - 2]
                tri_mul(lev - 2, w, trans=1)
                rest = self.far_rest.get(lev)
                if rest is not None:
                    yk -= rest @ w
                w *= self.far_diag[:, lev, None]
                yk -= w
            tri_mul(lev, yk)
        for lev in range(nt - 1, -1, -1):
            xk = y[:, :, lev]
            if lev + 1 < nt:
                sub_mul(self.sub[:, :, lev], y[:, :, lev + 1], xk, trans=1)
            if lev + 2 < nt:
                # L_{k+2,k}^T x_{k+2} = L_{k,k}^-1 (K_{k+2,k}^T x_{k+2})
                np.multiply(y[:, :, lev + 2], self.far_diag[:, lev + 2, None], out=w)
                rest = self.far_rest.get(lev + 2)
                if rest is not None:
                    w += rest.T @ y[:, :, lev + 2]
                tri_mul(lev, w)
                xk -= w
            tri_mul(lev, xk, trans=1)
        return y


# -- variable projection: reduce once, solve per data and ridge ---------------

# entries of the dense state factor and reduced source matrix (8 bytes each)
_DENSE_LIMIT = 2.5e8
# the most source columns eliminated per multi-right-hand-side state solve;
# the sources split into as few chunks as that allows, of near-equal width
# (65, 65, 64 at 97^2).  Measured with the remainder as the last chunk, 96
# against 64 gave a 5-15% faster elimination at 65^2 and 97^2 for 5 MB more
# peak memory at 97^2, and 194 a 10% faster one for 15 MB more
_CHUNK = 96
# block size of the compact-WY QR of the reduced source matrix
_QR_BLOCK = 32


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
    ``dgemqrt``.  ``blocks`` keeps each objective term's name, row count,
    weights and observation key, which is all a solve reads of it.
    W is the quadrature weight of (f, g), so ``s`` is the spectrum with
    respect to the L2 norm of the sources.  Built by ``reduce_sources`` for
    one grid, coefficient set, q1/q2 and omega weights, it serves any data
    and ridge on that system.
    """

    blocks: tuple[_Term, ...]
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
    import scipy.sparse as sp

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
    is not positive definite raises LinAlgError.  Inside
    ``reports.recording`` its stages are timed as ``assemble_s``,
    ``factor_s``, ``eliminate_s`` and ``qr_svd_s``.
    """
    import scipy.linalg as sla
    import scipy.sparse as sp
    from scipy.linalg import lapack

    with stage("assemble_s"):
        g = data.grid
        blocks, dim_x = _build_blocks(data, cfg)
        n_state = 2 * int(np.prod(g.shape))
        level = 2 * int(np.prod(g.space_shape))
        rows = sum(blk.m.size for blk in blocks)
        n_src = dim_x - n_state
        slots, subs = _factor_blocks(g.nt)
        n_factor = (slots + subs) * level**2 + 2 * level * g.nt
        n_dense = rows * n_src
        if n_factor + n_dense > _DENSE_LIMIT:
            raise MemoryError(
                f"state factor ({slots} packed + {subs} sub) x {level}^2 blocks and "
                f"2 x {level} x {g.nt} diagonals = {n_factor:.3g} entries "
                f"plus reduced source matrix {rows} rows x {n_src} sources = "
                f"{n_dense:.3g} entries ({8e-9 * (n_factor + n_dense):.1f} GB), "
                f"above the {_DENSE_LIMIT:.3g}-entry limit")
        sqrt_w = np.concatenate([np.sqrt(blk.omega * blk.m) for blk in blocks])
        A = (sp.diags(sqrt_w) @ sp.vstack([blk.L for blk in blocks], format="csr")).tocsc()
        ay = A[:, _level_order(g)]
        az = A[:, n_state:]
        del A
        blocks = tuple(blk.term() for blk in blocks)
    with stage("factor_s"):
        chol = _LevelCholesky(ay.T @ ay, level)
    with stage("eliminate_s"):
        source_w = np.tile(g.space_weights.ravel(), 2)
        # R0 = az - ay K^-1 ay^T az, chunk by chunk of source columns, in the
        # level row order: the right-hand sides ay^T az[:, J] are scattered
        # straight into the level layout of ``solve_levels`` and solved in place,
        # and each level's states are subtracted from its own contiguous rows.
        # The chunks are as even as ``_CHUNK`` allows, and each is a view of one
        # buffer.  Fortran order lets the QR below factor R0 where it lies.
        row_order, level_rows = _level_rows(ay, level)
        ayt_az = (ay.T @ az).tocsc()
        r0 = np.empty((rows, n_src), order="F")
        az[row_order].toarray(out=r0)
        chunks = -(-n_src // _CHUNK)
        edges = [n_src * i // chunks for i in range(chunks + 1)]
        buf = np.empty(level * -(-n_src // chunks) * g.nt)
        for j, end in zip(edges, edges[1:]):
            m = end - j
            y = buf[:level * m * g.nt].reshape((level, m, g.nt), order="F")
            y.fill(0.0)
            seg = slice(ayt_az.indptr[j], ayt_az.indptr[end])
            node = ayt_az.indices[seg]
            col = np.repeat(np.arange(m), np.diff(ayt_az.indptr[j:end + 1]))
            y[node % level, col, node // level] = ayt_az.data[seg]
            chol.solve_levels(y)
            for lev, (lo, hi, blk) in enumerate(level_rows):
                r0[lo:hi, j:end] -= blk @ y[:, :, lev]
        del y, buf, ayt_az, level_rows
        r0 /= np.sqrt(source_w)
    with stage("qr_svd_s"):
        reflectors, t, info = lapack.dgeqrt(min(_QR_BLOCK, n_src), r0, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACK dgeqrt info {info}")
        u, s, vt = sla.svd(np.triu(reflectors[:n_src]), overwrite_a=True,
                           check_finite=False)
    return SourceReduction(blocks=blocks, sqrt_w=sqrt_w, ay=ay, az=az, chol=chol,
                           source_w=source_w, row_order=row_order,
                           reflectors=reflectors, t=t, u=u, s=s, vt=vt)


def _filter(s: np.ndarray, beta: float, rows: int) -> np.ndarray:
    """Tikhonov filter s / (s^2 + beta); at beta = 0 the pseudo-inverse with
    the cut-off of ``np.linalg.lstsq(rcond=None)``."""
    if beta > 0:
        return s / (s * s + beta)
    keep = s > np.finfo(float).eps * max(rows, s.size) * s[0]
    out = np.zeros_like(s)
    out[keep] = 1.0 / s[keep]
    return out


def _weighted_rhs(red: SourceReduction, data: InverseData, out: np.ndarray) -> None:
    """Write the weighted observations of ``data`` for the rows of ``red``
    into the vector ``out``."""
    np.concatenate([blk.rhs(data) for blk in red.blocks], out=out)
    out *= red.sqrt_w


def _solve(red: SourceReduction, b: np.ndarray, betas: Sequence[float]
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimizers of the reduced system for the m columns of ``b``.

    ``b`` is a C-ordered rows x m block of weighted observations (block row
    order, see ``_weighted_rhs``; SciPy's sparse products take and give C
    order); column j is solved with the ridge ``betas[j]``.  Every stage
    runs once on the whole block: the two state solves take all m
    right-hand sides at once (level 3 BLAS), Q^T is applied with one
    ``dgemqrt`` and each column gets its own Tikhonov filter.  With one
    column every dense product is level 2, as in
    ``_LevelCholesky.solve_levels``, so a single solve keeps the arithmetic
    of a vector solve.  At most three rows x m blocks are alive at once.
    Returns the sources (sources x m), the states (states x m, level
    order), the residuals ``A x - b`` (rows x m, block row order) and the
    relative normal residual of each column.
    """
    from scipy.linalg import blas, lapack

    m = b.shape[1]
    ay, az, chol = red.ay, red.az, red.chol

    def mul_t(a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """a^T x through SciPy's BLAS, like every dense product here."""
        if m == 1:
            return blas.dgemv(1.0, a, x[:, 0], trans=1)[:, None]
        return blas.dgemm(1.0, a, x, trans_a=1)

    # ||A^T b|| of each column scales its normal residual
    x = ay.T @ b
    azt_b = az.T @ b
    scale = np.array([blas.dnrm2(np.concatenate((x[:, j], azt_b[:, j])))
                      for j in range(m)])
    del azt_b
    # b - ay K^-1 ay^T b; each state block is rebound as soon as it is
    # converted, so at most two of them are alive at a time
    x = chol.to_levels(x)
    x = chol.from_levels(chol.solve_levels(x))
    b_perp = ay @ x
    del x
    np.subtract(b, b_perp, out=b_perp)
    # Q^T of it in the QR's row order, from the compact WY form.  ``dgemqrt``
    # works in F order; permuted column by column into an F block, the data
    # need no second copy ("clip" clips nothing, ``row_order`` being a
    # permutation, but unlike the default it lets ``take`` write in place)
    qt_b = np.empty(b.shape, order="F")
    for j in range(m):
        np.take(b_perp[:, j], red.row_order, out=qt_b[:, j], mode="clip")
    del b_perp
    qt_b, info = lapack.dgemqrt(red.reflectors, red.t, qt_b, side="L", trans="T",
                                overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dgemqrt info {info}")
    coef = mul_t(red.u, qt_b[:red.s.size])
    del qt_b
    coef *= np.column_stack([_filter(red.s, beta, b.shape[0]) for beta in betas])
    z = mul_t(red.vt, coef)
    z /= np.sqrt(red.source_w)[:, None]
    # the states for these sources, and the residual at (states, sources)
    x = az @ z
    np.subtract(b, x, out=x)
    y = ay.T @ x
    del x
    y = chol.to_levels(y)
    y = chol.from_levels(chol.solve_levels(y))
    res = ay @ y
    for j in range(m):   # column by column: no third rows x m block
        res[:, j] += az @ z[:, j]
    res -= b
    # the normal-equation vector at the result, one column at a time
    grad = np.array([blas.dnrm2(np.concatenate(
        (ay.T @ res[:, j], az.T @ res[:, j] + betas[j] * red.source_w * z[:, j])))
        for j in range(m)])
    normal = np.divide(grad, scale, out=grad, where=scale > 0)
    return z, y, res, normal


def reconstruct(data: InverseData, cfg: ReconstructionConfig,
                truth: Optional[tuple[np.ndarray, np.ndarray]] = None
                ) -> ReconstructionResult:
    """Minimize the all-at-once quadratic by variable projection.

    The states are eliminated by ``reduce_sources``, the sources come from
    the filtered SVD of the reduced system, the states from one back-solve,
    and the result records its relative normal residual; a result above
    ``tol`` is flagged, not raised.  Inside ``reports.recording`` the solve
    after the reduction's stages is timed as ``solve_s``.
    """
    from scipy.linalg import blas

    flags: list[str] = []
    if cfg.beta == 0.0 and data.delta > 0.0:
        flags.append("beta=0 with noisy data: ridge-free fit is ill-advised")
    red = reduce_sources(data, cfg)
    with stage("solve_s"):
        b = np.empty((red.sqrt_w.size, 1))
        _weighted_rhs(red, data, b[:, 0])
        z, y, res, normal = _solve(red, b, [cfg.beta])
        z, y, res = z[:, 0], y[:, 0], res[:, 0]
        normal_residual = float(normal[0])
        converged = normal_residual <= cfg.tol
        if not converged:
            flags.append(f"normal residual {normal_residual:.3g} above tol {cfg.tol:g}")

        terms: dict[str, float] = {}
        start = 0
        for blk in red.blocks:
            part = res[start:start + blk.m.size]
            terms[blk.name] = float(blas.ddot(part, part))
            start += blk.m.size
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

    Takes the linear residual of the state at t0 and divides by the
    modulations there (``SourceFactors`` keeps them above ``q_min``), so on
    discrete-mode cases this reproduces the stored profiles to roundoff,
    while on analytic-mode cases the stencil truncation shows up at second
    order.
    """
    g = case.grid
    it0 = g.it0
    src = case.sources
    ru, rv = residual("linear", case.u, case.v, coeffs=case.coeffs)
    f = ru.values[..., it0] / src.q1[..., it0]
    gg = rv.values[..., it0] / src.q2[..., it0]
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
    """Rows, pooled log-log fit and per-seed slopes of a noise sweep.

    ``singular_values`` is the descending spectrum of the reduced source
    matrix that every solve of the sweep shared (W-scaled, as in
    ``ReconstructionResult``).
    """

    rows: tuple[StabilityRow, ...]
    slope: float
    intercept: float
    r2: float
    seeds: tuple[int, ...]
    per_seed_slopes: dict[int, float]
    slope_mean: float
    slope_spread: float
    excluded: tuple[tuple[float, int], ...]
    singular_values: np.ndarray = field(compare=False)


def _validate_noise_grid(deltas: Sequence[float], seeds: Sequence[int]) -> list[float]:
    """The sweep's noise levels as floats: at least 4, positive and spanning
    two decades, over at least 3 seeds."""
    deltas = [float(d) for d in deltas]
    if len(deltas) < 4:
        raise ValueError("need at least 4 noise levels")
    if min(deltas) <= 0:
        raise ValueError("noise levels must be positive (log fit)")
    if max(deltas) / min(deltas) < 100.0 * (1 - 1e-12):
        raise ValueError("noise levels must span at least two decades")
    if len(seeds) < 3:
        raise ValueError("need at least 3 seeds")
    return deltas


def stability_sweep(case: ManufacturedCase, deltas: Sequence[float],
                    cfg: Optional[ReconstructionConfig] = None, *,
                    seeds: Sequence[int] = (0, 1, 2),
                    beta_scale: float = 1.0,
                    noisy_slices: bool = False) -> StabilityReport:
    """Noise sweep measuring the error-vs-noise slope.

    For every (delta, seed) fresh noise is drawn, the reconstruction run
    with the ridge ``beta_scale * delta^2``, and e(delta) = ||f_err|| +
    ||g_err|| recorded; the pooled log-log fit gives the slope and r^2,
    with per-seed fits reported as mean and spread.  Reconstructions whose
    normal residual misses ``cfg.tol`` are excluded and listed.  The grid
    must have at least 4 positive deltas spanning two decades.

    The system is the same for every (delta, seed), only the data and the
    ridge change, so one ``SourceReduction`` serves them all and the data
    sets are solved together: each pair's observation package is built,
    written as one column of a rows x m block and dropped, and each block of
    up to ``_CHUNK`` columns goes through one batched solve (two
    multi-column state solves, one Q^T application, a filter per column).  A sweep row therefore agrees with
    a standalone ``reconstruct`` of the same data to roundoff, not bit for
    bit.  Inside ``reports.recording`` the batched solves are timed together
    as ``solve_s``, after the reduction's stages.

    By default the interior snapshots stay exact and only the lateral
    traces are perturbed: white noise on a slice enters the recovery
    through its second derivatives, which floors the error independently
    of delta and hides the proportionality this experiment measures.
    """
    deltas = _validate_noise_grid(deltas, seeds)
    base = cfg or ReconstructionConfig()
    truth = (case.sources.f, case.sources.g)
    g = case.grid
    n_sp = int(np.prod(g.space_shape))
    pairs = [(delta, float(beta_scale * delta * delta), int(seed))
             for delta in deltas for seed in seeds]

    rows: list[StabilityRow] = []
    excluded: list[tuple[float, int]] = []
    # the reduction reads no observation, so clean data build it
    reduction = reduce_sources(make_inverse_data(case, 0.0, 0), base)
    for start in range(0, len(pairs), _CHUNK):
        batch = pairs[start:start + _CHUNK]
        b = np.empty((reduction.sqrt_w.size, len(batch)))
        for j, (delta, _, seed) in enumerate(batch):
            data = make_inverse_data(case, delta, seed, noisy_slices=noisy_slices)
            _weighted_rhs(reduction, data, b[:, j])
        with stage("solve_s"):
            z, _, _, normal = _solve(reduction, b, [beta for _, beta, _ in batch])
        for (delta, beta, seed), zj, nr in zip(batch, z.T, normal):
            err_f = _abs_l2(g, zj[:n_sp].reshape(g.space_shape) - truth[0])
            err_g = _abs_l2(g, zj[n_sp:].reshape(g.space_shape) - truth[1])
            converged = bool(nr <= base.tol)
            rows.append(StabilityRow(delta, seed, err_f, err_g, err_f + err_g,
                                     beta, converged, float(nr)))
            if not converged:
                excluded.append((delta, seed))

    used = [r for r in rows if r.converged]
    if len(used) < 4:
        raise ValueError("too few converged reconstructions for a slope fit")
    slope, intercept, r2 = _loglog_fit(
        [r.delta for r in used], [r.err_total for r in used]
    )
    per_slope: dict[int, float] = {}
    for seed in seeds:
        pts = [r for r in used if r.seed == seed]
        if len(pts) >= 2:
            per_slope[int(seed)] = _loglog_fit([r.delta for r in pts],
                                               [r.err_total for r in pts])[0]
    vals = list(per_slope.values())
    return StabilityReport(
        rows=tuple(rows), slope=slope, intercept=intercept, r2=r2,
        seeds=tuple(int(s) for s in seeds),
        per_seed_slopes=per_slope,
        slope_mean=float(np.mean(vals)) if vals else math.nan,
        slope_spread=float(np.max(vals) - np.min(vals)) if vals else math.nan,
        excluded=tuple(excluded),
        singular_values=reduction.s.copy(),
    )


def _abs_l2(grid: Grid, arr: np.ndarray) -> float:
    return math.sqrt(float(np.sum(grid.space_weights * arr * arr)))


def _loglog_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    lx = np.log(np.asarray(xs))
    ly = np.log(np.asarray(ys))
    # least squares in closed form from centred sums: no LAPACK or BLAS call
    dx = lx - np.mean(lx)
    dy = ly - np.mean(ly)
    slope = np.sum(dx * dy) / np.sum(dx * dx)
    intercept = np.mean(ly) - slope * np.mean(lx)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum(dy ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)
