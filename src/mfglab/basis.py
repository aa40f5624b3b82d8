"""Separable trig x polynomial-in-time fields with exact differentiation.

Manufactured states and verification ensembles are combinations of
``cos(k pi x_i / L_i)`` factors times powers of ``t/T``.  The class is closed
under partial differentiation (cosines rotate into sines, time powers drop),
which gives every experiment an analytic oracle: exact values, exact
gradients on faces (the cosine basis has exactly vanishing normal
derivatives there) and exact space-time derivatives for convergence-order
fits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .grid import SPACE_TIME, Face, Grid, GridFn

__all__ = ["SeparableField", "Term", "random_cosine_field"]

COS = "cos"
SIN = "sin"


@dataclass(frozen=True)
class Term:
    coeff: float
    kinds: tuple[str, ...]   # per-axis factor kind, 'cos' or 'sin'
    modes: tuple[int, ...]   # per-axis wave number k (factor of pi/L)
    tpow: int                # power of t/T


@dataclass(frozen=True)
class SeparableField:
    """Finite sum of separable terms on a fixed rectangle and time interval."""

    lengths: tuple[float, ...]
    T: float
    terms: tuple[Term, ...]

    @property
    def dim(self) -> int:
        return len(self.lengths)

    # -- calculus ----------------------------------------------------------

    def dx(self, axis: int) -> "SeparableField":
        out = []
        for t in self.terms:
            k = t.modes[axis]
            if k == 0 and t.kinds[axis] == COS:
                continue
            w = k * np.pi / self.lengths[axis]
            if t.kinds[axis] == COS:
                coeff = -t.coeff * w
                kind = SIN
            else:
                coeff = t.coeff * w
                kind = COS
            kinds = tuple(kind if a == axis else t.kinds[a] for a in range(self.dim))
            out.append(Term(coeff, kinds, t.modes, t.tpow))
        return SeparableField(self.lengths, self.T, tuple(out))

    def dt(self) -> "SeparableField":
        out = []
        for t in self.terms:
            if t.tpow == 0:
                continue
            out.append(Term(t.coeff * t.tpow / self.T, t.kinds, t.modes, t.tpow - 1))
        return SeparableField(self.lengths, self.T, tuple(out))

    @cached_property
    def grad(self) -> tuple["SeparableField", ...]:
        """``dx`` along each axis, built on first use and kept with the field."""
        return tuple(self.dx(a) for a in range(self.dim))

    def derivative(self, t_order: int = 0, x: Sequence[int] = ()) -> "SeparableField":
        f = self
        for a in x:
            f = f.dx(int(a))
        for _ in range(t_order):
            f = f.dt()
        return f

    def __add__(self, other: "SeparableField") -> "SeparableField":
        if self.lengths != other.lengths or self.T != other.T:
            raise ValueError("cannot add fields on different domains")
        return SeparableField(self.lengths, self.T, self.terms + other.terms)

    def __sub__(self, other: "SeparableField") -> "SeparableField":
        return self + other.scaled(-1.0)

    def scaled(self, c: float) -> "SeparableField":
        return SeparableField(
            self.lengths, self.T,
            tuple(Term(c * t.coeff, t.kinds, t.modes, t.tpow) for t in self.terms),
        )

    # -- evaluation --------------------------------------------------------

    def _axis_factor(self, term: Term, axis: int, coords: np.ndarray) -> np.ndarray:
        k = term.modes[axis]
        w = k * np.pi / self.lengths[axis]
        return np.cos(w * coords) if term.kinds[axis] == COS else np.sin(w * coords)

    def _space_part(self, term: Term, xs: Sequence[np.ndarray]) -> np.ndarray:
        part = self._axis_factor(term, 0, xs[0])
        for a in range(1, self.dim):
            part = np.multiply.outer(part, self._axis_factor(term, a, xs[a]))
        return part

    def _by_factor(self, grid: Grid) -> list[tuple[Term, np.ndarray]]:
        """One term per distinct spatial factor (kinds, modes), in order of
        first appearance, with the time profile that factor multiplies: the
        sum of ``coeff * (t/T)**tpow`` over its terms, on the grid's times.
        A field is then one outer product per spatial factor, not per term."""
        tfac = grid.ts / self.T
        groups: dict[tuple, tuple[Term, np.ndarray]] = {}
        for term in self.terms:
            key = (term.kinds, term.modes)
            if key not in groups:
                groups[key] = (term, np.zeros(grid.nt))
            profile = groups[key][1]
            profile += term.coeff * tfac**term.tpow
        return list(groups.values())

    def sample(self, grid: Grid) -> GridFn:
        self._check_domain(grid)
        vals = np.zeros(grid.shape)
        for term, profile in self._by_factor(grid):
            vals += np.multiply.outer(self._space_part(term, grid.xs), profile)
        return GridFn(grid, SPACE_TIME, vals)

    def sample_face(self, grid: Grid, face: Face) -> np.ndarray:
        """Exact trace on one boundary face, shaped like the face node set."""
        self._check_domain(grid)
        xval = self.lengths[face.axis] if face.side == 1 else 0.0
        if grid.dim == 1:
            out = np.zeros(grid.nt)
            for term, profile in self._by_factor(grid):
                out += float(self._axis_factor(term, 0, np.asarray(xval))) * profile
            return out
        tang = 1 - face.axis
        out = np.zeros((grid.nx[tang], grid.nt))
        for term, profile in self._by_factor(grid):
            fn = float(self._axis_factor(term, face.axis, np.asarray(xval)))
            ft = self._axis_factor(term, tang, grid.xs[tang])
            out += np.multiply.outer(fn * ft, profile)
        return out

    def max_abs_face_dx(self, grid: Grid, face: Face,
                        axis: Optional[int] = None) -> float:
        """Max absolute exact derivative along ``axis`` on a face (default:
        the face normal), sampled from the kept :attr:`grad`."""
        d = self.grad[face.axis if axis is None else axis]
        if not d.terms:
            return 0.0
        return float(np.max(np.abs(d.sample_face(grid, face))))

    def _check_domain(self, grid: Grid) -> None:
        if tuple(grid.lengths) != self.lengths or grid.T != self.T:
            raise ValueError("field domain does not match grid domain")


def random_cosine_field(
    rng: np.random.Generator,
    lengths: Iterable[float],
    T: float,
    max_modes: int,
    t_degree: int,
    amplitude: float,
) -> SeparableField:
    """Random pure-cosine field: every spatial factor is a cosine mode.

    Cosines have vanishing derivative at both ends of each axis, so any such
    field satisfies the homogeneous conormal condition exactly whenever the
    principal coefficients are diagonal.  Coefficients are drawn uniformly in
    [-amplitude, amplitude]; the draw order is fixed so a seed pins the field.
    """
    lengths = tuple(float(L) for L in lengths)
    dim = len(lengths)
    terms = []
    for modes in itertools.product(range(max_modes + 1), repeat=dim):
        for m in range(t_degree + 1):
            c = float(rng.uniform(-amplitude, amplitude))
            terms.append(Term(c, (COS,) * dim, modes, m))
    return SeparableField(lengths, float(T), tuple(terms))

