"""Coefficient families of the two parabolic operators and the coupling terms.

The linear system couples a backward equation (operator ``A``) to a forward
equation (operator ``B``) through a zeroth-order factor ``c0`` one way and a
full second-order operator ``A0`` the other way.  This module samples the
coefficient fields on a grid, lists the terms of each operator once
(:func:`operator_terms`), applies the operators with the shared stencils,
builds the discrete conormal operator of the boundary hypothesis and checks
uniform ellipticity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .grid import (
    SPACE_TIME,
    DiffMemo,
    Face,
    Grid,
    GridFn,
    as_memo,
    face_values,
    node_index,
)

__all__ = [
    "CoeffRecipe",
    "CoeffSet",
    "MmsRejected",
    "NonlinearCoeffs",
    "NonlinearRecipe",
    "SourceFactors",
    "apply_operator",
    "check_ellipticity",
    "conormal_operator",
    "sample_field",
    "sample_spatial",
]

FieldSpec = Union[float, int, Callable[..., np.ndarray]]


class MmsRejected(ValueError):
    """Manufactured case violates a hypothesis (vanishing q at t0, etc.)."""


def sample_field(grid: Grid, spec: FieldSpec) -> np.ndarray:
    """Sample a constant or callable (x1, [x2,] t) -> value on the space-time grid."""
    if callable(spec):
        vals = np.asarray(spec(*grid.meshes()), dtype=float)
        return np.broadcast_to(vals, grid.shape).copy()
    return np.full(grid.shape, float(spec))


def sample_spatial(grid: Grid, spec: FieldSpec) -> np.ndarray:
    """Sample a constant or callable (x1, [x2]) -> value on the spatial grid."""
    if callable(spec):
        vals = np.asarray(spec(*grid.space_meshes), dtype=float)
        return np.broadcast_to(vals, grid.space_shape).copy()
    return np.full(grid.space_shape, float(spec))


@dataclass(frozen=True)
class CoeffSet:
    """Sampled coefficient fields of A, B and the couplings on one grid.

    ``a2``/``b2`` are the (d, d, ...) principal matrices, ``a1``/``b1`` the
    first-order vectors, ``a0``/``b0``/``c0`` scalar fields and ``b_gamma``
    maps spatial multi-indices (total order <= 2) to the fields of the
    second-order coupling operator.  ``chi`` is the claimed ellipticity
    constant.
    """

    grid: Grid
    a2: np.ndarray
    b2: np.ndarray
    a1: np.ndarray
    b1: np.ndarray
    a0: np.ndarray
    b0: np.ndarray
    c0: np.ndarray
    b_gamma: Mapping[tuple[int, ...], np.ndarray]
    chi: float = 1.0

    def __post_init__(self):
        d = self.grid.dim
        shape = self.grid.shape
        for name in ("a2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (d, d, *shape):
                raise ValueError(f"{name} must have shape {(d, d, *shape)}")
            object.__setattr__(self, name, arr)
        for name in ("a1", "b1"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (d, *shape):
                raise ValueError(f"{name} must have shape {(d, *shape)}")
            object.__setattr__(self, name, arr)
        for name in ("a0", "b0", "c0"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            object.__setattr__(self, name, arr)
        bg = {}
        for gidx, arr in dict(self.b_gamma).items():
            gidx = tuple(int(k) for k in gidx)
            if len(gidx) != d or sum(gidx) > 2 or min(gidx) < 0:
                raise ValueError(f"bad multi-index {gidx} for dim={d}")
            arr = np.asarray(arr, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"b_gamma[{gidx}] must have shape {shape}")
            bg[gidx] = arr
        object.__setattr__(self, "b_gamma", bg)
        for arr in (self.a2, self.b2, self.a1, self.b1, self.a0, self.b0, self.c0,
                    *bg.values()):
            if not np.all(np.isfinite(arr)):
                raise ValueError("coefficient field contains non-finite entries")
        if self.chi <= 0:
            raise ValueError("chi must be positive")


@dataclass(frozen=True)
class CoeffRecipe:
    """Grid-independent coefficient description, sampled on demand.

    Entries are constants or callables of the coordinate arrays; anything
    omitted defaults to the pure-Laplacian configuration (identity principal
    parts, zero lower order, zero couplings).  Keeping the recipe around lets
    refinement studies resample the exact same coefficients on finer grids.
    """

    a2: Optional[Sequence[Sequence[FieldSpec]]] = None
    b2: Optional[Sequence[Sequence[FieldSpec]]] = None
    a1: Optional[Sequence[FieldSpec]] = None
    b1: Optional[Sequence[FieldSpec]] = None
    a0: FieldSpec = 0.0
    b0: FieldSpec = 0.0
    c0: FieldSpec = 0.0
    b_gamma: Mapping[tuple[int, ...], FieldSpec] = field(default_factory=dict)
    chi: float = 1.0

    def sample(self, grid: Grid) -> CoeffSet:
        d = grid.dim
        shape = grid.shape

        def matrix(spec):
            if spec is None:
                m = np.zeros((d, d, *shape))
                for i in range(d):
                    m[i, i] = 1.0
                return m
            m = np.empty((d, d, *shape))
            for i in range(d):
                for j in range(d):
                    m[i, j] = sample_field(grid, spec[i][j])
            return m

        def vector(spec):
            v = np.zeros((d, *shape))
            if spec is not None:
                for i in range(d):
                    v[i] = sample_field(grid, spec[i])
            return v

        return CoeffSet(
            grid=grid,
            a2=matrix(self.a2),
            b2=matrix(self.b2),
            a1=vector(self.a1),
            b1=vector(self.b1),
            a0=sample_field(grid, self.a0),
            b0=sample_field(grid, self.b0),
            c0=sample_field(grid, self.c0),
            b_gamma={g: sample_field(grid, s) for g, s in dict(self.b_gamma).items()},
            chi=self.chi,
        )


@dataclass(frozen=True)
class NonlinearRecipe:
    """Grid-independent nonlinear coefficient description."""

    a: FieldSpec = 1.0
    kappa: FieldSpec = 0.0
    p: FieldSpec = 0.0

    def sample(self, grid: Grid) -> NonlinearCoeffs:
        return NonlinearCoeffs.sample(grid, self.a, self.kappa, self.p)


@dataclass(frozen=True)
class NonlinearCoeffs:
    """Diffusion, Hamiltonian weight and coupling fields of the nonlinear system."""

    grid: Grid
    a: np.ndarray
    kappa: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        for name in ("a", "kappa", "p"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} must have shape {self.grid.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if np.min(self.a) <= 0:
            raise ValueError("diffusion field a must be positive")

    @staticmethod
    def sample(grid: Grid, a: FieldSpec = 1.0, kappa: FieldSpec = 0.0,
               p: FieldSpec = 0.0) -> "NonlinearCoeffs":
        return NonlinearCoeffs(
            grid=grid,
            a=sample_field(grid, a),
            kappa=sample_field(grid, kappa),
            p=sample_field(grid, p),
        )


@dataclass(frozen=True)
class SourceFactors:
    """Factorized sources: space-time modulations q1, q2 and spatial profiles f, g.

    The modulations must be bounded away from zero on the t0 slice, which is
    what makes the spatial profiles recoverable from slice data; a package
    that dips below ``q_min`` there raises ``MmsRejected``.
    """

    grid: Grid
    q1: np.ndarray
    q2: np.ndarray
    f: np.ndarray
    g: np.ndarray
    q_min: float = 0.1

    def __post_init__(self):
        for name in ("q1", "q2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} must have shape {self.grid.shape}")
            object.__setattr__(self, name, arr)
        for name in ("f", "g"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.space_shape:
                raise ValueError(f"{name} must have shape {self.grid.space_shape}")
            object.__setattr__(self, name, arr)
        for name in ("q1", "q2"):
            at_t0 = np.abs(getattr(self, name)[..., self.grid.it0])
            floor = float(np.min(at_t0))
            if floor < self.q_min:
                worst = tuple(int(i) for i in np.unravel_index(np.argmin(at_t0),
                                                               self.grid.space_shape))
                raise MmsRejected(
                    f"|{name}(., t0)| = {floor:.3g} < q_min={self.q_min} at node "
                    f"{worst}; redraw the state recipe"
                )


def check_ellipticity(c: CoeffSet) -> float:
    """Minimum over all nodes of the least eigenvalue of both principal matrices.

    The returned value passes the claim iff it is >= ``c.chi``.  Symmetry is
    required before any eigenvalue is computed.
    """
    d = c.grid.dim
    for name, m in (("a2", c.a2), ("b2", c.b2)):
        for i in range(d):
            for j in range(i + 1, d):
                if not np.array_equal(m[i, j], m[j, i]):
                    raise ValueError(f"{name} is not symmetric in ({i},{j})")
    mins = []
    for m in (c.a2, c.b2):
        if d == 1:
            mins.append(float(np.min(m[0, 0])))
        else:
            half_tr = 0.5 * (m[0, 0] + m[1, 1])
            rad = np.sqrt((0.5 * (m[0, 0] - m[1, 1])) ** 2 + m[0, 1] ** 2)
            mins.append(float(np.min(half_tr - rad)))
    return min(mins)


def operator_terms(kind: str, c: CoeffSet) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The terms of A, B or the coupling operator A0 as (coefficient field, axes).

    The operator is the sum over the terms of coefficient times the spatial
    derivative along ``axes`` (empty: the field itself; an axis listed
    twice: its second derivative).  This is the one statement of the
    operator formula; field application, the closed-form residuals
    of ``models`` and the inverse's least-squares assembly all sum over it.
    """
    if kind in ("A", "B"):
        m2 = c.a2 if kind == "A" else c.b2
        m1 = c.a1 if kind == "A" else c.b1
        terms = [(c.a0 if kind == "A" else c.b0, ())]
        for i in range(c.grid.dim):
            terms.append((m1[i], (i,)))
            terms += [(m2[i, j], (i, j)) for j in range(c.grid.dim)]
        return terms
    if kind == "A0":
        return [(coef, tuple(ax for ax, order in enumerate(gidx) for _ in range(order)))
                for gidx, coef in c.b_gamma.items()]
    raise ValueError(f"unknown operator kind {kind!r}")


def apply_operator(kind: str, f: Union[GridFn, DiffMemo], c: CoeffSet) -> GridFn:
    """Apply A, B, or the second-order coupling operator A0 to a field; the
    derivatives are read through ``f`` when it is a :class:`DiffMemo`."""
    m = as_memo(f)  # refuses a field that is not space-time
    if m.grid is not c.grid and m.grid != c.grid:
        raise ValueError("field and coefficients live on different grids")
    out = np.zeros(m.grid.shape)
    for coef, axes in operator_terms(kind, c):
        out += coef * m.diff(x=axes).values
    return GridFn(m.grid, SPACE_TIME, out)


def conormal_operator(c: CoeffSet, which: str, face: Face,
                      dx: Sequence[sp.csr_matrix]) -> sp.csr_matrix:
    """Conormal derivative sum_j m_ij (d_j u) nu_i of A (``which`` "A", m = a2)
    or B ("B", m = b2) on ``face``, as a sparse operator from the raveled
    space-time state to the trace ordered like ``face_values(...).ravel()``;
    ``dx[j]`` is the ``inverse.derivative_matrix`` along axis j.

    Gradients use the shared stencils (one-sided in the face-normal
    direction), so on sampled fields this is accurate to second order, not
    exact.
    """
    import scipy.sparse as sp  # only the inverse assembly builds this operator

    if which not in ("A", "B"):
        raise ValueError("which must be 'A' or 'B'")
    g = c.grid
    m2 = c.a2 if which == "A" else c.b2
    rows = face_values(g, node_index(g), face).ravel()
    sign = 1.0 if face.side == 1 else -1.0
    out = None
    for j in range(g.dim):
        term = sp.diags(m2[face.axis, j].ravel()[rows]) @ dx[j][rows]
        out = term if out is None else out + term
    return (sign * out).tocsr()
