"""Space-time tensor grids on rectangles, finite-difference stencils and discrete norms.

Everything downstream (operators, weights, inequality sides, reconstructions)
acts on fields sampled on a :class:`Grid`.  The grid is a uniform tensor
product of 1 or 2 spatial axes and one time axis; field arrays carry the
spatial axes first and time last, ``values[ix, (iy,), it]``.

The stencil weights are written here and only here, in :func:`stencil`.
Field derivatives apply those 1-D matrices along an axis
(:func:`apply_stencil`), and on the faces of gamma through
:func:`gamma_jets`; least-squares assembly embeds the same matrices in
the raveled space-time lattice (:func:`derivative_matrix`).  There is no
other closure in the package.

Conventions fixed here and relied on everywhere else:

* first derivatives: second-order central stencils in the interior,
  second-order one-sided stencils at the ends (exact on quadratics);
* second derivatives: 3-point central interior, 4-point one-sided ends
  (also exact on quadratics);
* all integrals: trapezoid rule per axis (exact on per-axis constants);
* the midpoint time index ``it0`` exists exactly, which is why ``nt`` must
  be odd.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Face",
    "FaceJet",
    "Grid",
    "GridFn",
    "NORM_KINDS",
    "build_grid",
    "diff",
    "face_quad_weights",
    "face_values",
    "gamma_jets",
    "norm",
    "parse_face",
]


class Face(NamedTuple):
    """One face of the rectangle: ``axis`` in {0, 1}, ``side`` 0 (low) or 1 (high)."""

    axis: int
    side: int

    def label(self) -> str:
        return f"x{self.axis + 1}{'+' if self.side else '-'}"


_FACE_ALIASES = {
    "x-": Face(0, 0),
    "x+": Face(0, 1),
    "x1-": Face(0, 0),
    "x1+": Face(0, 1),
    "x2-": Face(1, 0),
    "x2+": Face(1, 1),
}


def parse_face(spec: Union[str, Face, tuple]) -> Face:
    """Accept 'x1+'-style labels (or (axis, side) pairs) and return a Face."""
    if isinstance(spec, Face):
        return spec
    if isinstance(spec, tuple) and len(spec) == 2:
        return Face(int(spec[0]), int(spec[1]))
    key = str(spec).strip().lower()
    if key not in _FACE_ALIASES:
        raise ValueError(
            f"unknown face {spec!r}; expected one of {sorted(_FACE_ALIASES)}"
        )
    return _FACE_ALIASES[key]


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid on a rectangle with an observation face set.

    ``gamma`` is the non-empty set of boundary faces carrying the boundary
    data integrals; the remaining faces only enter through the sign condition
    on the weight base.  Instances are immutable; all derived arrays are
    cached and must not be mutated.
    """

    lengths: tuple[float, ...]
    T: float
    nx: tuple[int, ...]
    nt: int
    gamma: frozenset[Face]

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of a space-time value array (spatial axes first, time last)."""
        return (*self.nx, self.nt)

    @property
    def space_shape(self) -> tuple[int, ...]:
        return self.nx

    @property
    def hs(self) -> tuple[float, ...]:
        return tuple(L / (n - 1) for L, n in zip(self.lengths, self.nx))

    @property
    def tau(self) -> float:
        return self.T / (self.nt - 1)

    @property
    def spacings(self) -> tuple[float, ...]:
        """Node spacing per axis of ``shape`` (spatial steps, then tau)."""
        return (*self.hs, self.tau)

    @property
    def it0(self) -> int:
        """Time index of the midpoint t0 = T/2 (exists because nt is odd)."""
        return (self.nt - 1) // 2

    @property
    def t0(self) -> float:
        return float(self.ts[self.it0])

    @cached_property
    def xs(self) -> tuple[np.ndarray, ...]:
        return tuple(np.linspace(0.0, L, n) for L, n in zip(self.lengths, self.nx))

    @cached_property
    def ts(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt)

    @cached_property
    def ell(self) -> np.ndarray:
        # t*(T-t) evaluated as ts*ts[::-1]: exactly symmetric under t -> T-t.
        return self.ts * self.ts[::-1]

    @cached_property
    def space_meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.xs, indexing="ij")) if self.dim > 1 else (self.xs[0],)

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Full space-time coordinate arrays (x1, [x2,] t), each of ``shape``."""
        return tuple(np.meshgrid(*self.xs, self.ts, indexing="ij"))

    @cached_property
    def space_weights(self) -> np.ndarray:
        w = _trapezoid_weights(self.nx[0], self.hs[0])
        for ax in range(1, self.dim):
            w = np.multiply.outer(w, _trapezoid_weights(self.nx[ax], self.hs[ax]))
        return w

    @cached_property
    def time_weights(self) -> np.ndarray:
        return _trapezoid_weights(self.nt, self.tau)

    @cached_property
    def st_weights(self) -> np.ndarray:
        return np.multiply.outer(self.space_weights, self.time_weights)

    def all_faces(self) -> tuple[Face, ...]:
        return tuple(Face(ax, side) for ax in range(self.dim) for side in (0, 1))

    def refined(self, factor: int = 2) -> "Grid":
        """Same rectangle and face set with ``factor``-times finer spacing."""
        return Grid(
            lengths=self.lengths,
            T=self.T,
            nx=tuple((n - 1) * factor + 1 for n in self.nx),
            nt=(self.nt - 1) * factor + 1,
            gamma=self.gamma,
        )

    def same_domain(self, other: "Grid") -> bool:
        return (
            self.lengths == other.lengths
            and self.T == other.T
            and self.gamma == other.gamma
        )


def build_grid(
    lengths: Union[float, Sequence[float]],
    T: float,
    nx: Union[int, Sequence[int]],
    nt: int,
    gamma: Iterable[Union[str, Face, tuple]],
) -> Grid:
    """Validate and build a :class:`Grid`.

    Rejects even ``nt`` (the midpoint T/2 must land on a node), undersized
    axes (fewer than 5 nodes cannot host the one-sided stencils) and empty
    or unknown face sets.
    """
    lengths_t = tuple(float(L) for L in np.atleast_1d(lengths))
    nx_t = tuple(int(n) for n in np.atleast_1d(nx))
    if len(lengths_t) != len(nx_t):
        raise ValueError("lengths and nx must have the same number of axes")
    if len(lengths_t) not in (1, 2):
        raise ValueError("only 1 or 2 spatial dimensions are supported")
    if any(L <= 0 for L in lengths_t) or T <= 0:
        raise ValueError("lengths and T must be positive")
    if any(n < 5 for n in nx_t):
        raise ValueError("each spatial axis needs nx >= 5")
    nt = int(nt)
    if nt < 5:
        raise ValueError("nt >= 5 required")
    if nt % 2 == 0:
        raise ValueError(f"nt must be odd so t0 = T/2 is a node, got nt={nt}")
    faces = frozenset(parse_face(f) for f in gamma)
    if not faces:
        raise ValueError("gamma must be a non-empty set of boundary faces")
    dim = len(lengths_t)
    for f in faces:
        if not (0 <= f.axis < dim and f.side in (0, 1)):
            raise ValueError(f"face {f} out of range for dim={dim}")
    return Grid(lengths=lengths_t, T=float(T), nx=nx_t, nt=nt, gamma=faces)


# field kinds
SPACE_TIME = "space-time"
SPATIAL_SLICE = "spatial-slice"


@dataclass(frozen=True)
class GridFn:
    """A scalar field sampled on a grid.

    ``kind`` selects the node set: the full space-time lattice or one
    spatial slice.  Values must be finite.  Traces on the faces of gamma are
    not fields of their own: :func:`gamma_jets` reads them off a space-time
    field.
    """

    grid: Grid
    kind: str
    values: np.ndarray

    def __post_init__(self):
        shapes = {SPACE_TIME: self.grid.shape, SPATIAL_SLICE: self.grid.space_shape}
        if self.kind not in shapes:
            raise ValueError(f"unknown GridFn kind {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        if v.shape != shapes[self.kind]:
            raise ValueError(f"expected shape {shapes[self.kind]}, got {v.shape}")
        _require_finite(v)
        object.__setattr__(self, "values", v)

    def scaled(self, c: float) -> "GridFn":
        return GridFn(self.grid, self.kind, c * self.values)


def _require_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError("field contains non-finite entries")


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def face_values(grid: Grid, values: np.ndarray, face: Face) -> np.ndarray:
    """Restrict a space-time (or spatial-slice) array to one boundary face."""
    idx = 0 if face.side == 0 else grid.nx[face.axis] - 1
    return np.take(values, idx, axis=face.axis)


def node_index(grid: Grid) -> np.ndarray:
    """The raveled index of every space-time node, in the grid's shape:
    restricted like a field (``face_values``, a time slice) and raveled, it
    gives the indices of those nodes in the order of that restriction."""
    return np.arange(math.prod(grid.shape)).reshape(grid.shape)


def face_quad_weights(grid: Grid, face: Face) -> np.ndarray:
    """Trapezoid weights for integrating a trace over the face (x time)."""
    if grid.dim == 1:
        # a face is a single point; surface measure is the counting measure
        return grid.time_weights
    tang = 1 - face.axis
    wt = _trapezoid_weights(grid.nx[tang], grid.hs[tang])
    return np.multiply.outer(wt, grid.time_weights)


# ---------------------------------------------------------------------------
# stencils


@lru_cache(maxsize=128)
def stencil(n: int, h: float, order: int) -> sp.csr_matrix:
    """Sparse 1-D derivative of ``order`` 1 or 2 on ``n`` nodes of spacing ``h``.

    Central weights in the interior, second-order one-sided weights at both
    ends.  The matrix is cached and shared by every caller: do not mutate it.
    """
    if order == 1:
        interior = {-1: -0.5, 1: 0.5}
        first, last = (-1.5, 2.0, -0.5), (0.5, -2.0, 1.5)
    elif order == 2:
        interior = {-1: 1.0, 0: -2.0, 1: 1.0}
        first, last = (2.0, -5.0, 4.0, -1.0), (-1.0, 4.0, -5.0, 2.0)
    else:
        raise ValueError(f"stencil order must be 1 or 2, got {order}")
    m = sp.diags(list(interior.values()), list(interior), shape=(n, n), format="lil")
    m[0, :len(first)] = first
    m[n - 1, n - len(last):] = last
    m = m.tocsr()
    m.data /= h**order  # true division, like np.gradient's end weights
    return m


def apply_stencil(values: np.ndarray, h: float, order: int, axis: int) -> np.ndarray:
    """Derivative of ``order`` along ``axis`` of an array of any rank."""
    moved = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n = moved.shape[0]
    out = stencil(n, h, order) @ moved.reshape(n, -1)
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


def kron_axes(sizes: Sequence[int], factors: Mapping[int, sp.spmatrix]) -> sp.csr_matrix:
    """Embed 1-D factors in the raveled (C-order) lattice of shape ``sizes``.

    ``factors[axis]`` acts along that axis (it may be rectangular, e.g. a
    row selecting one node); every other axis gets the identity.
    """
    out = sp.identity(1, format="csr")
    for ax, n in enumerate(sizes):
        out = sp.kron(out, factors.get(ax, sp.identity(n, format="csr")), format="csr")
    return out


def derivative_matrix(sizes: Sequence[int], spacings: Sequence[float],
                      axes: Sequence[int]) -> sp.csr_matrix:
    """Sparse derivative along ``axes`` on the raveled lattice ``sizes``.

    An axis listed twice is a second derivative, two distinct axes a mixed
    one; the 1-D matrices are those of :func:`stencil`.
    """
    return kron_axes(sizes, {ax: stencil(sizes[ax], spacings[ax], k)
                             for ax, k in Counter(axes).items()})


def _derivative(values: np.ndarray, spacings: Sequence[float],
                axes: Sequence[int]) -> np.ndarray:
    for ax, k in Counter(axes).items():
        values = apply_stencil(values, spacings[ax], k, ax)
    return values


def diff(f: GridFn, *, t_order: int = 0, x: Sequence[int] = ()) -> GridFn:
    """Finite-difference derivative of a space-time field.

    ``t_order`` in {0, 1, 2} and ``x`` a tuple of spatial axis indices of
    length at most 2 (repeated index = pure second derivative, distinct
    indices = mixed).  Supported combinations cover d/dt, d/dxi, d2/dxidxj,
    d2/dt2 and d/dt d2/dxidxj.
    """
    if f.kind != SPACE_TIME:
        raise ValueError("diff requires a space-time field")
    g = f.grid
    x = tuple(int(a) for a in x)
    if t_order not in (0, 1, 2):
        raise ValueError("t_order must be 0, 1, or 2")
    if len(x) > 2:
        raise ValueError("at most two spatial derivatives")
    for a in x:
        if not 0 <= a < g.dim:
            raise ValueError(f"spatial axis {a} out of range for dim={g.dim}")
    if t_order == 0 and not x:
        return f
    # time is the last axis
    return GridFn(g, SPACE_TIME, _derivative(f.values, g.spacings, x + (g.dim,) * t_order))


def slice_diff(grid: Grid, slice_values: np.ndarray, x: Sequence[int]) -> np.ndarray:
    """Spatial stencil derivative of a single slice (same stencils as diff)."""
    x = tuple(int(a) for a in x)
    if len(x) not in (1, 2):
        raise ValueError("x must name one or two spatial axes")
    return _derivative(np.asarray(slice_values, dtype=float), grid.hs, x)


# ---------------------------------------------------------------------------
# faces of gamma


class FaceJet(NamedTuple):
    """A space-time field on one face: its trace ``value``, the trace's time
    derivative ``dt`` and the spatial gradient ``grad`` (one array per axis),
    each shaped like the trace."""

    value: np.ndarray
    dt: np.ndarray
    grad: tuple[np.ndarray, ...]


def gamma_jets(grid: Grid, values: np.ndarray) -> dict[Face, FaceJet]:
    """The :class:`FaceJet` of a space-time array on each face of gamma, in
    sorted face order: the only place a derivative is taken on a face.

    Each entry equals the face of the matching :func:`diff` bit for bit.
    The time and tangential derivatives apply the stencil to the trace; the
    normal derivative applies the stencil's end row to the nodes next to the
    face, summed in row order from 0.0 like the sparse product.
    """
    jets = {}
    for face in sorted(grid.gamma):
        value = face_values(grid, values, face)
        grad = []
        for ax in range(grid.dim):
            if ax != face.axis:
                # the trace keeps the other spatial axis first
                grad.append(apply_stencil(value, grid.hs[ax], 1, 0))
                continue
            m = stencil(grid.nx[ax], grid.hs[ax], 1)
            row = 0 if face.side == 0 else grid.nx[ax] - 1
            normal = 0.0
            for k in range(m.indptr[row], m.indptr[row + 1]):
                normal = normal + m.data[k] * np.take(values, m.indices[k], axis=ax)
            grad.append(normal)
        jets[face] = FaceJet(value, apply_stencil(value, grid.tau, 1, -1), tuple(grad))
    return jets


# ---------------------------------------------------------------------------
# norms

NORM_KINDS = ("L2_Q", "L2_slice", "H2_slice", "H21_Q", "H21_interior", "D_gamma")


def _fsum_quad(weighted_terms: np.ndarray) -> float:
    """Correctly rounded sum, equal to ``math.fsum`` bit for bit; it keeps
    nested-interval norms exactly monotone.

    Vectorized error-free extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation, part I", SIAM J. Sci. Comput. 2008): with
    ``max|r| < 2**e`` and ``sigma = 2**(ceil(log2(n + 2)) + e)``, the split
    ``q = (sigma + r) - sigma``, ``r - q`` is exact and ``sum(q)`` is exact in
    any order.  Each round leaves a remainder smaller by about
    ``53 - log2(n)`` bits; ``math.fsum`` then rounds the few exact partial
    sums, plus whatever remainder the exponent guard leaves, once.
    """
    r = np.ravel(weighted_terms)
    top = float(np.max(np.abs(r))) if r.size else 0.0
    if not math.isfinite(top):
        # inf, nan: fsum's own special-value rules and errors
        return math.fsum(r.tolist())
    if top == 0.0:
        # only signed zeros: fsum decides the sign of an all-zero sum
        return math.fsum([-0.0] if np.signbit(r).all() else [0.0])
    partials = []
    while top:
        r = r[r != 0.0]
        e = math.frexp(top)[1]
        k = (r.size + 1).bit_length()  # ceil(log2(n + 2))
        if e < -960 or k + e > 1023:
            # sigma would leave the normal range: fsum takes the rest as is
            partials += r.tolist()
            break
        sigma = math.ldexp(1.0, k + e)
        q = (sigma + r) - sigma
        partials.append(float(np.sum(q)))
        r = r - q
        top = float(np.max(np.abs(r)))
    return math.fsum(partials)


def norm(f: GridFn, kind: str, *, eps: float | None = None) -> float:
    """Discrete norm of a field.

    ``H21_interior`` restricts the time integration to nodes inside
    [eps, T-eps]; ``D_gamma`` is the boundary-data functional
    (time derivative, gradient and value integrated over gamma x (0, T)).
    """
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")
    g = f.grid
    if kind in ("L2_slice", "H2_slice"):
        if f.kind != SPATIAL_SLICE:
            raise ValueError(f"{kind} requires a spatial-slice field")
        v = f.values
        total = float(np.sum(g.space_weights * v * v))
        if kind == "H2_slice":
            for i in range(g.dim):
                di = slice_diff(g, v, (i,))
                total += float(np.sum(g.space_weights * di * di))
            for i in range(g.dim):
                for j in range(g.dim):
                    dij = slice_diff(g, v, (i, j))
                    total += float(np.sum(g.space_weights * dij * dij))
        return math.sqrt(total)

    if f.kind != SPACE_TIME:
        raise ValueError(f"{kind} requires a space-time field")

    if kind == "L2_Q":
        return math.sqrt(float(np.sum(g.st_weights * f.values**2)))

    if kind in ("H21_Q", "H21_interior"):
        parts = h21_parts(f)
        if kind == "H21_Q":
            w = g.st_weights
            return math.sqrt(sum(float(np.sum(w * p * p)) for p in parts))
        return math.sqrt(h21_interior_sq(g, parts, eps))

    # D_gamma
    total = 0.0
    for face, jet in gamma_jets(g, f.values).items():
        integ = jet.dt ** 2 + jet.value ** 2
        for gr in jet.grad:
            integ = integ + gr ** 2
        total += float(np.sum(face_quad_weights(g, face) * integ))
    return math.sqrt(total)


def h21_parts(f: GridFn) -> list[np.ndarray]:
    """The fields whose squares make up the H^{2,1} norms: the value, the
    gradient, every second spatial derivative and the time derivative."""
    g = f.grid
    parts = [f.values]
    parts += [diff(f, x=(i,)).values for i in range(g.dim)]
    parts += [
        diff(f, x=(i, j)).values for i in range(g.dim) for j in range(g.dim)
    ]
    parts.append(diff(f, t_order=1).values)
    return parts


def h21_interior_sq(grid: Grid, parts: Sequence[np.ndarray],
                    eps: float | None) -> float:
    """Squared ``H21_interior`` norm from the :func:`h21_parts` of a field:
    the time integration runs over the nodes inside [eps, T-eps]."""
    if eps is None or not 0.0 < eps < grid.T / 2.0:
        raise ValueError("H21_interior needs eps in (0, T/2)")
    idx = np.nonzero(_interior_time_mask(grid, eps))[0]
    if idx.size < 2:
        raise ValueError(f"eps={eps} leaves fewer than 2 time nodes")
    w = np.multiply.outer(grid.space_weights, _trapezoid_weights(idx.size, grid.tau))
    total = 0.0
    for p in parts:
        sub = np.take(p, idx, axis=grid.dim)
        total += _fsum_quad(w * sub * sub)
    return total


def _interior_time_mask(grid: Grid, eps: float) -> np.ndarray:
    tol = 1e-12 * grid.T
    return (grid.ts >= eps - tol) & (grid.ts <= grid.T - eps + tol)


def n_interior_slices(grid: Grid, eps: float) -> int:
    return int(np.count_nonzero(_interior_time_mask(grid, eps)))
