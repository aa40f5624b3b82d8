"""Empirical verification of the weighted inequalities.

Each estimate has a left side (weighted interior energies) and a right side
(weighted operator/source terms plus boundary-data functionals).  For
manufactured inputs both sides are computed with a per-term breakdown and
the ratio recorded; sweeping the large parameters over an ensemble yields an
empirical constant, its stabilization thresholds and its drift under grid
refinement.  Nothing here proves anything: a ratio that stays bounded is
evidence, a ratio that blows up is a finding.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .coefficients import CoeffRecipe, CoeffSet, SourceFactors, apply_operator, sample_spatial
from .grid import SPATIAL_SLICE, DiffMemo, Grid, GridFn, as_memo, norm
# not called here: perfbench's tests check that the tracer rebinds
# ``mfglab.verify.diff`` and puts it back
from .grid import diff  # noqa: F401
from .models import FieldPair, _require_draw, cosine_pairs, residual
from .reports import stage
from .weights import WeightBundle, WeightParams, build_eta, eval_weight_bundle

__all__ = [
    "CASE_KINDS",
    "ESTIMATE_KINDS",
    "EstimateRow",
    "EstimateSidePair",
    "VerificationReport",
    "estimate_constant",
    "evaluate_estimate",
    "generate_ensemble",
    "lemma3_kind",
]

ESTIMATE_KINDS = ("LEMMA1", "LEMMA2", "THM3", "LEMMA4", "ENERGY_3_8", "ENERGY_3_9",
                  "THM2")
# the midpoint-slice kinds
ENERGY_KINDS = ("ENERGY_3_8", "ENERGY_3_9")
# the kinds that read the source profiles, so sweep case recipes
CASE_KINDS = ENERGY_KINDS + ("THM2",)

ZERO_RHS_FLOOR = 0.0

# a field of a sweep member, sampled or with the memo of its derivatives
Field = Union[GridFn, DiffMemo]


@dataclass(frozen=True)
class EstimateSidePair:
    """Both sides of one inequality instance with per-term breakdowns."""

    kind: str
    params: WeightParams
    lhs_terms: dict[str, float]
    rhs_terms: dict[str, float]

    @property
    def lhs(self) -> float:
        return float(sum(self.lhs_terms.values()))

    @property
    def rhs(self) -> float:
        return float(sum(self.rhs_terms.values()))

    @property
    def ratio(self) -> float:
        """lhs/rhs, with the 0/0 convention ratio = 0 for zero inputs."""
        if self.lhs == 0.0:
            return 0.0
        if self.rhs <= ZERO_RHS_FLOOR:
            return math.inf
        return self.lhs / self.rhs


class _Cells:
    """The ``count`` (lam, s) cells of one grid sweep, shared by every member
    and kind swept on the grid: each cell's ``params``, its weight and phi
    on the t0 slice when ``kinds`` has an energy-slice kind (``w_t0``,
    ``phi_t0``, copies of the bundle's interior slices), and the weight
    factors (m, lam_power) that the weighted squares of ``kinds`` read.

    Each factor is kept only on its box: the per-axis bounding box, over
    space and time, of the nodes where it is nonzero, so that it is exactly
    0 outside.  As s lam grows the normalized weight underflows to 0 on
    most nodes, and the boxes of the shipped verify-carleman cells hold 12%
    of the dense factors at 129^2.  Each power has one block, where the
    cells' boxes, raveled, lie end to end from its start.  A block is
    allocated at the dense size (count x nodes, the most the boxes can
    take) but written only up to the last box, so its pages beyond stay
    untouched; copying the boxes out to a block of their exact size would
    hold both at once.

    ``bundles`` may build each cell's bundle on demand: a bundle writes its
    factors, one at a time, and is dropped before the next one is built, so
    the cells never hold more than the blocks plus one bundle's cached
    arrays and one factor.  A bundle the caller holds is only read.
    """

    def __init__(self, kinds: Sequence[str], bundles: Iterable[WeightBundle],
                 count: int, grid: Grid):
        self.params: list[WeightParams] = []
        self.w_t0: list[np.ndarray] = []
        self.phi_t0: list[np.ndarray] = []
        powers = {(m, lam_power) for kind in kinds
                  for spec in _kind_terms(kind, grid.dim)
                  for parts in spec.values() for _, m, lam_power in parts}
        size = math.prod(grid.shape)
        # one block per power: boxes allocated one by one fragment the heap
        self._blocks = {p: np.empty(count * size) for p in sorted(powers)}
        # per power, each cell's (box, where its entries start in the block)
        self._boxes: dict[tuple, list] = {p: [] for p in self._blocks}
        used = dict.fromkeys(self._blocks, 0)
        slices = any(k in ENERGY_KINDS for k in kinds)
        # no enumerate: its cached result tuple would hold the last bundle
        # while the next one is built
        for bundle in bundles:
            self.params.append(bundle.params)
            if slices:
                self.w_t0.append(bundle.w_interior[..., grid.it0 - 1].copy())
                self.phi_t0.append(bundle.phi_interior[..., grid.it0 - 1].copy())
            for p, block in self._blocks.items():
                wf = bundle.weight_factor(*p)
                box = _nonzero_box(wf)
                part = wf[box]
                block[used[p]:used[p] + part.size].reshape(part.shape)[...] = part
                self._boxes[p].append((box, used[p]))
                used[p] += part.size
                del wf, part  # before the next factor is built
            del bundle  # its cached arrays go before the next bundle is built
        if len(self.params) != count:
            raise ValueError(f"expected {count} bundles, got {len(self.params)}")

    def sums(self, pre: np.ndarray, m: int, lam_power: int) -> np.ndarray:
        """The integral of ``pre * weight_factor(m, lam_power)`` on every cell,
        summed on the cell's box only: NumPy's pairwise sum of
        ``pre[box] * factor[box]`` in C order.  A non-finite ``pre`` entry
        outside the box would meet a zero factor (inf * 0 = NaN), so that
        cell's sum is NaN.  No BLAS product or ``np.einsum``: their bits
        depend on the OpenBLAS thread count and on the number of rows, and
        the lab's outputs must not.
        """
        block = self._blocks[(m, lam_power)]
        bad = ~np.isfinite(pre)
        n_bad = np.count_nonzero(bad)
        out = np.empty(len(self.params))
        for c, (box, start) in enumerate(self._boxes[(m, lam_power)]):
            part = pre[box]
            if n_bad and np.count_nonzero(bad[box]) < n_bad:
                out[c] = np.nan
            else:
                wf = block[start:start + part.size].reshape(part.shape)
                out[c] = np.multiply(part, wf).sum()
        return out


def _nonzero_box(a: np.ndarray) -> tuple[slice, ...]:
    """The per-axis bounding box of the nodes where ``a`` is nonzero (NaN
    counts as nonzero); empty on every axis when none is."""
    nonzero = a != 0
    box = []
    for axis in range(a.ndim):
        others = tuple(i for i in range(a.ndim) if i != axis)
        hit = np.flatnonzero(nonzero.any(axis=others))
        box.append(slice(hit[0], hit[-1] + 1) if hit.size else slice(0, 0))
    return tuple(box)


def _d_gamma_sq(f: DiffMemo) -> float:
    return norm(f.fn, "D_gamma") ** 2


def _h2_slice_sq(grid: Grid, slice_vals: np.ndarray) -> float:
    return norm(GridFn(grid, SPATIAL_SLICE, slice_vals), "H2_slice") ** 2


# A weighted square is named by (field, m, lam_power): its integral on a
# bundle is sum(st_weights * a * a * weight_factor(m, lam_power)).  The field
# is a path (base, *steps), base one of "u", "v", "F", "G" and each step one
# derivative (t_order, x axes), or a composite: "opA" = u_t + A u,
# "opB" = v_t - B v, "f" and "g" = the source profiles constant in time,
# "Iu" = u's trapezoid antiderivative in time from t0.  THM2 (the source
# stability estimate) weighs the profiles at s = 0, where every weight factor
# is 1: its sides are T (|f|^2 + |g|^2) against D0^2.
_DT = (1, ())


def lemma3_kind(p: int) -> str:
    """The sweep kind of the integral-operator estimate (Lemma 3) at weight
    power ``p``: the weighted antiderivative of u from t0 at (s phi)^p
    against u itself at (s phi)^(p-1) / lam."""
    return f"LEMMA3(p={int(p)})"


def _lemma3_power(kind: str) -> Optional[int]:
    """``p`` of a :func:`lemma3_kind` name, None for any other kind."""
    digits = kind.removeprefix("LEMMA3(p=").removesuffix(")")
    return int(digits) if digits.isdecimal() and kind == lemma3_kind(digits) else None


def _canonical_kind(name: str) -> str:
    """The estimate kind that ``name`` spells in any letter case: one of
    ``ESTIMATE_KINDS`` or a :func:`lemma3_kind`."""
    kind = str(name).upper().replace("LEMMA3(P=", "LEMMA3(p=")
    if kind in ESTIMATE_KINDS or _lemma3_power(kind) is not None:
        return kind
    raise ValueError(f"unknown estimate kind {name!r}")


def _first_side_lhs(path: tuple, prefix: str, dim: int) -> dict[str, tuple]:
    """Backward-equation energy block: |ut|^2 + |uxx|^2 + (s lam phi)^2|grad|^2
    + (s lam phi)^4 |u|^2, all under the normalized weight."""
    return {
        prefix + "ut": ((path + (_DT,), 0, 0),),
        prefix + "uxx": tuple((path + ((0, (i, j)),), 0, 0)
                              for i in range(dim) for j in range(dim)),
        prefix + "grad": tuple((path + ((0, (i,)),), 2, 2) for i in range(dim)),
        prefix + "val": ((path, 4, 4),),
    }


def _second_side_lhs(path: tuple, prefix: str, dim: int) -> dict[str, tuple]:
    """Forward-equation energy block with one inverse weight power on the
    top-order terms."""
    return {
        prefix + "vt": ((path + (_DT,), -1, 0),),
        prefix + "vxx": tuple((path + ((0, (i, j)),), -1, 0)
                              for i in range(dim) for j in range(dim)),
        prefix + "grad": tuple((path + ((0, (i,)),), 1, 2) for i in range(dim)),
        prefix + "val": ((path, 3, 4),),
    }


def _kind_terms(kind: str, dim: int) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """The weighted squares of each lhs and rhs term of ``kind``; the
    energy-slice kinds' left side is the t0 slice, outside this table."""
    u, v, F, G = ("u",), ("v",), ("F",), ("G",)
    p = _lemma3_power(kind)
    if p is not None:
        return {"antiderivative": (("Iu", p, 0),)}, {"field": ((u, p - 1, -1),)}
    if kind == "LEMMA1":
        return _first_side_lhs(u, "", dim), {"op": (("opA", 1, 0),)}
    if kind == "LEMMA2":
        return _second_side_lhs(v, "", dim), {"op": (("opB", 0, 0),)}
    if kind == "THM3":
        return (_first_side_lhs(u, "u_", dim) | _second_side_lhs(v, "v_", dim),
                {"F": ((F, 1, 0),), "G": ((G, 0, 0),)})
    if kind == "LEMMA4":
        return (_first_side_lhs(u + (_DT,), "ut_", dim)
                | _second_side_lhs(v + (_DT,), "vt_", dim),
                {"Ft": ((F + (_DT,), 1, 0),), "F": ((F, 1, 0),),
                 "Gt": ((G + (_DT,), 0, 0),), "G": ((G, 0, 0),)})
    if kind == "THM2":
        return {"f": (("f", 0, 0),), "g": (("g", 0, 0),)}, {}
    return {}, {"f": (("f", 1, 0),), "g": (("g", 0, 0),)}


def _require_s(kinds: Sequence[str], s_values: Sequence[float]) -> None:
    if any(k in ENERGY_KINDS for k in kinds) and any(s <= 0 for s in s_values):
        raise ValueError("energy-slice kinds need s > 0")
    if "THM2" in kinds and any(s != 0 for s in s_values):
        raise ValueError("THM2 runs only at s = 0, where its norms are unweighted")


def _check_consistency(u: DiffMemo, v: DiffMemo, F: DiffMemo, G: DiffMemo,
                       coeffs: CoeffSet) -> None:
    ru, rv = residual("linear", u, v, coeffs=coeffs)
    for name, given, computed in (("F", F, ru), ("G", G, rv)):
        scale = max(float(np.max(np.abs(computed.values))), 1e-300)
        err = float(np.max(np.abs(given.values - computed.values))) / scale
        if err > 1e-9:
            raise ValueError(
                f"{name} is not the residual of (u, v): relative mismatch {err:.3g}"
            )


_SYSTEM_KINDS = ("THM3", "LEMMA4")

# the unweighted data functionals on each kind's right side: D_gamma^2 of u
# and of v, and D0^2 (both of them, D_gamma^2 of u_t and v_t and the squared
# H2 norms of the two t0 slices); Lemma 3 has none
_DATA_TERMS = {"LEMMA1": ("Du2",), "LEMMA2": ("Dv2",), "THM3": ("Du2", "Dv2"),
               "LEMMA4": ("D02",), "ENERGY_3_8": ("D02",), "ENERGY_3_9": ("D02",),
               "THM2": ("D02",)}


def _require(kind: str, u, v, F, G, sources) -> None:
    lemma3 = _lemma3_power(kind) is not None
    if kind not in ESTIMATE_KINDS and not lemma3:
        raise ValueError(f"unknown estimate kind {kind!r}")
    if (kind == "LEMMA1" or lemma3) and u is None:
        raise ValueError(f"{kind} needs u")
    if kind == "LEMMA2" and v is None:
        raise ValueError("LEMMA2 needs v")
    if kind in _SYSTEM_KINDS and any(x is None for x in (u, v, F, G)):
        raise ValueError(f"{kind} needs (u, v, F, G)")
    if kind in CASE_KINDS:
        if sources is None:
            raise ValueError(f"{kind} needs the factorized sources")
        if u is None or v is None:
            raise ValueError(f"{kind} needs u and v")


@dataclass
class _Member:
    """One instance on one grid, shared by every kind swept over it: the
    states and the sources F, G, each a derivative memo, the source profiles
    (f, g), the data functionals, and a memo of each weighted square's sums
    over the cells of the one sweep it belongs to.  The memos live as long
    as the member, so the residual sources, the operators, the data
    functionals and every kind share one derivative of each field along each
    path (THM3's left side is LEMMA1's and LEMMA2's; u_t and v_t serve the
    residual, LEMMA1, LEMMA2, LEMMA4 and D0), and a sweep that drops the
    member drops its arrays."""

    u: Optional[DiffMemo]
    v: Optional[DiffMemo]
    F: Optional[DiffMemo]
    G: Optional[DiffMemo]
    sources: Optional[tuple[np.ndarray, np.ndarray]]
    coeffs: CoeffSet
    data: dict[str, float] = field(default_factory=dict)
    sums: dict[tuple, np.ndarray] = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return (self.u if self.u is not None else self.v).grid

    def fn(self, path: tuple) -> DiffMemo:
        """The field at ``path``: a base state or source, then derivatives."""
        f = getattr(self, path[0])
        for t_order, x in path[1:]:
            f = f.diff(t_order=t_order, x=x)
        return f

    def _values(self, key) -> np.ndarray:
        if key == "opA":
            return (self.fn(("u", _DT)).values
                    + apply_operator("A", self.u, self.coeffs).values)
        if key == "opB":
            return (self.fn(("v", _DT)).values
                    - apply_operator("B", self.v, self.coeffs).values)
        if key in ("f", "g"):
            profile = self.sources[("f", "g").index(key)]
            return np.broadcast_to(profile[..., None], self.grid.shape)
        if key == "Iu":
            return self.antiderivative
        return self.fn(key).values

    @cached_property
    def antiderivative(self) -> np.ndarray:
        """u's cumulative trapezoid rule in time, zero on the t0 slice; taken
        once, since each Lemma 3 power reads it at its own weight power."""
        g, y = self.grid, self.u.values
        steps = np.cumsum(g.tau * (y[..., 1:] + y[..., :-1]) / 2.0, axis=g.dim)
        cum = np.concatenate((np.zeros_like(y[..., :1]), steps), axis=g.dim)
        return cum - cum[..., g.it0][..., None]

    def weighted(self, cells: _Cells, key, m: int, lam_power: int) -> np.ndarray:
        """The weighted square (key, m, lam_power) on every cell."""
        vec = self.sums.get((key, m, lam_power))
        if vec is None:
            with stage("terms_s"):
                a = self._values(key)
                pre = self.grid.st_weights * a * a
            with stage("sums_s"):
                vec = self.sums[(key, m, lam_power)] = cells.sums(pre, m, lam_power)
        return vec


def _member(kinds: Sequence[str], u: Optional[Field], v: Optional[Field],
            F: Optional[Field], G: Optional[Field], coeffs: CoeffSet,
            sources: Optional[tuple[np.ndarray, np.ndarray]], *,
            derived: bool = False) -> _Member:
    """Validate one instance for ``kinds`` and compute its data functionals;
    ``sources`` is the pair of source profiles (f, g).  F and G are checked
    against the residual of (u, v) for the system kinds unless they were
    ``derived`` from it.  A field given as a :class:`DiffMemo` becomes the
    member's memo as it is."""
    for kind in kinds:
        _require(kind, u, v, F, G, sources)
    u, v, F, G = (None if f is None else as_memo(f) for f in (u, v, F, G))
    if not derived and any(k in _SYSTEM_KINDS for k in kinds):
        _check_consistency(u, v, F, G, coeffs)
    m = _Member(u, v, F, G, sources, coeffs)
    keys = {key for kind in kinds for key in _DATA_TERMS.get(kind, ())}
    if keys & {"Du2", "D02"}:
        m.data["Du2"] = _d_gamma_sq(u)
    if keys & {"Dv2", "D02"}:
        m.data["Dv2"] = _d_gamma_sq(v)
    if "D02" in keys:
        g = u.grid
        m.data["D02"] = (
            m.data["Du2"] + m.data["Dv2"]
            + _d_gamma_sq(m.fn(("u", _DT))) + _d_gamma_sq(m.fn(("v", _DT)))
            + _h2_slice_sq(g, u.values[..., g.it0])
            + _h2_slice_sq(g, v.values[..., g.it0])
        )
    return m


def _pairs(kind: str, m: _Member, cells: _Cells) -> list[EstimateSidePair]:
    """Both sides of one instance on every cell.  Each weighted square is
    summed over all cells at once (or read from the member's memo); the
    cell's terms then add its entries in term order."""
    lhs_spec, rhs_spec = _kind_terms(kind, m.grid.dim)
    lhs_vecs = {name: [m.weighted(cells, *p) for p in parts]
                for name, parts in lhs_spec.items()}
    rhs_vecs = {name: [m.weighted(cells, *p) for p in parts]
                for name, parts in rhs_spec.items()}
    data = {key: m.data[key] for key in _DATA_TERMS.get(kind, ())}

    def total(vecs, c, scalar=1.0):
        out = 0
        for vec in vecs:
            out += scalar * float(vec[c])
        return out

    with stage("sums_s"):
        g = m.grid
        if kind in ENERGY_KINDS:
            dt = m.fn(("u" if kind == "ENERGY_3_8" else "v", _DT))
            slice_sq = dt.values[..., g.it0] ** 2
        pairs = []
        for c, params in enumerate(cells.params):
            if kind in ENERGY_KINDS:
                s = params.s
                w_t0 = cells.w_t0[c]
                if kind == "ENERGY_3_8":
                    phi_t0 = cells.phi_t0[c]
                    val = float(np.sum(g.space_weights * s * phi_t0 * slice_sq * w_t0))
                    scalar = 1.0 / s
                else:
                    val = float(np.sum(g.space_weights * slice_sq * w_t0))
                    scalar = s**-0.5
                lhs = {"slice": val}
            else:
                lhs = {name: total(vecs, c) for name, vecs in lhs_vecs.items()}
                scalar = 1.0
            rhs = {name: total(vecs, c, scalar) for name, vecs in rhs_vecs.items()}
            rhs |= data
            pairs.append(EstimateSidePair(kind=kind, params=params,
                                          lhs_terms=lhs, rhs_terms=rhs))
    return pairs


def evaluate_estimate(kind: str, u: Optional[GridFn], v: Optional[GridFn],
                      F: Optional[GridFn], G: Optional[GridFn],
                      coeffs: CoeffSet, bundle: WeightBundle,
                      sources: Optional[SourceFactors] = None) -> EstimateSidePair:
    """Evaluate one inequality instance.

    The single-equation kinds use only u (LEMMA1 and every
    :func:`lemma3_kind`) or v (LEMMA2); the system kinds need (u, v, F, G)
    with the sources equal to the discrete residuals (checked); the
    energy-slice kinds (s > 0) and THM2 (s = 0) need u, v and the factorized
    ``sources``, since their sides are written in the spatial profiles.
    The data terms on gamma are unweighted.  This is the sweep's own path,
    for one member on one cell.
    """
    _require_s((kind,), (bundle.params.s,))
    profiles = None if sources is None else (sources.f, sources.g)
    member = _member((kind,), u, v, F, G, coeffs, profiles)
    return _pairs(kind, member, _Cells((kind,), (bundle,), 1, bundle.grid))[0]


# ---------------------------------------------------------------------------
# ensembles


def generate_ensemble(seed: int, n: int, grid: Grid, max_modes: int = 3,
                      t_degree: int = 3, amplitude: float = 1.0
                      ) -> tuple[FieldPair, ...]:
    """The first ``n`` pairs of :func:`~mfglab.models.cosine_pairs`: the
    function ensemble, as closed forms that each sweep samples itself."""
    _require_draw(n, max_modes)
    return tuple(islice(cosine_pairs(seed, grid, max_modes, t_degree, amplitude), n))


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass(frozen=True)
class EstimateRow:
    kind: str
    lam: float
    s: float
    member: int
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class VerificationReport:
    """Sweep summary: every (lam, s, member) ratio, the empirical constant,
    stabilization thresholds and the refinement drift."""

    kind: str
    lam_grid: tuple[float, ...]
    s_grid: tuple[float, ...]
    rows: tuple[EstimateRow, ...]
    cell_max: dict[tuple[float, float], float]
    c_emp: float
    s0_emp: dict[float, Optional[float]]
    lam0_emp: Optional[float]
    flagged: tuple[tuple[float, float], ...]
    invalid: tuple[tuple[float, float], ...]
    drift: Optional[float] = None
    c_emp_refined: Optional[float] = None


def _members(kinds: Sequence[str], forms: Iterable,
             coeffs: CoeffSet) -> Iterator[_Member]:
    """The sweep members of the closed forms ``forms``, each sampled on the
    grid of ``coeffs`` just before it is swept: the states from ``u_field``
    and ``v_field``, their residual as the sources F, G when a kind reads
    them (THM3, LEMMA4), and the source profiles from ``f_spec`` and
    ``g_spec`` when a kind reads those (``CASE_KINDS``)."""
    grid = coeffs.grid
    sources = any(k in _SYSTEM_KINDS for k in kinds)
    profiles = any(k in CASE_KINDS for k in kinds)
    for form in forms:
        with stage("members_s"):
            u, v = (DiffMemo(f.sample(grid)) for f in (form.u_field, form.v_field))
            F, G = (residual("linear", u, v, coeffs=coeffs) if sources
                    else (None, None))
            fg = (tuple(sample_spatial(grid, p) for p in (form.f_spec, form.g_spec))
                  if profiles else None)
            member = _member(kinds, u, v, F, G, coeffs, fg, derived=True)
            del F, G, fg  # only the member holds them, so they go with it
        yield member
        del member, u, v  # before the next member is sampled


def _grid_sweeps(kinds: Sequence[str], forms: Iterable, lam_grid, s_grid,
                 coeffs: CoeffSet, grid: Grid) -> list[tuple[list[EstimateRow], dict, list]]:
    """Sweep every kind over the members of the closed forms ``forms`` on
    one grid, with ``coeffs`` sampled there.

    Member-major: the weight base is built once, and each cell's bundle
    once, just before it writes each weight factor on the factor's box (see
    :class:`_Cells`); it is dropped before the next cell's is built.  Then
    each member is sampled in turn (:func:`_members`), every kind runs on it
    over all cells, and only its (lhs, rhs, ratio) per kind and cell are
    kept; its arrays are dropped before the next member is sampled, so no
    grid holds more than one bundle or one member at a time.  Peak memory
    is therefore the boxed factors, which grow with the cells' boxes x
    distinct weight powers (for 8 cells and the 7 powers of LEMMA1, LEMMA2,
    THM3 and LEMMA4 the shipped verify-carleman boxes hold 12% of the dense
    cells x powers x nodes at 129^2), plus one bundle or one member;
    neither the bundles nor the member count add to it.
    """
    with stage("cells_s"):
        eta = build_eta(grid, coeffs)
        cell_keys = [(lam, s) for lam in lam_grid for s in s_grid]
        bundles = (eval_weight_bundle(eta, WeightParams(lam=lam, s=s), grid)
                   for lam, s in cell_keys)
        cells = _Cells(kinds, bundles, len(cell_keys), grid)
    # values[kind][cell] holds one (lhs, rhs, ratio) per member
    values = [[[] for _ in cell_keys] for _ in kinds]
    for member in _members(kinds, forms, coeffs):
        for per_cell, kind in zip(values, kinds):
            for out, pair in zip(per_cell, _pairs(kind, member, cells)):
                out.append((pair.lhs, pair.rhs, pair.ratio))
        del member  # its arrays go before the next member is built
    sweeps = []
    for kind, per_cell in zip(kinds, values):
        rows: list[EstimateRow] = []
        cell_max: dict[tuple[float, float], float] = {}
        invalid: list[tuple[float, float]] = []
        for (lam, s), members in zip(cell_keys, per_cell):
            best = 0.0
            for i, (lhs, rhs, ratio) in enumerate(members):
                rows.append(EstimateRow(kind, lam, s, i, lhs, rhs, ratio))
                if math.isfinite(ratio):
                    best = max(best, ratio)
            cell_max[(lam, s)] = best
            if not all(math.isfinite(lhs) and math.isfinite(rhs)
                       for lhs, rhs, _ in members):
                invalid.append((lam, s))
        sweeps.append((rows, cell_max, invalid))
    return sweeps


def _stabilization(lam_grid, s_grid, cell_max) -> tuple[dict, Optional[float]]:
    s0: dict[float, Optional[float]] = {}
    for lam in lam_grid:
        profile = [cell_max[(lam, s)] for s in s_grid]
        chosen = None
        for i in range(len(s_grid)):
            tail = profile[i:]
            if all(tail[k] >= tail[k + 1] for k in range(len(tail) - 1)):
                chosen = s_grid[i]
                break
        s0[lam] = chosen
    lam0 = None
    for lam in lam_grid:
        if s0[lam] is not None and s0[lam] < s_grid[-1]:
            lam0 = lam
            break
    return s0, lam0


def estimate_constant(kind: Union[str, Sequence[str]], ensemble: Sequence,
                      lam_grid: Sequence[float], s_grid: Sequence[float],
                      coeff_recipe: CoeffRecipe, grid: Grid, *,
                      refine: bool = True
                      ) -> Union[VerificationReport, tuple[VerificationReport, ...]]:
    """Sweep the large parameters over the ensemble and report the constant.

    ``kind`` is one estimate kind (one of ``ESTIMATE_KINDS`` or a
    :func:`lemma3_kind`), which gives one report, or a sequence of
    kinds swept over the same ensemble, which gives one report per kind in
    that order; the per-grid work (coefficients, weight base, bundles and
    weight factors of every cell) and each member's work
    (sources, data functionals, derivative stacks, weighted squares) is then
    done once for all of them.
    ``ensemble`` is a tuple of closed forms drawn from
    :func:`~mfglab.models.cosine_pairs`, the field pairs of
    :func:`generate_ensemble` or the case recipes of
    :func:`~mfglab.models.mms_case_ensemble`: fields with cosine modes up
    to ``max_modes`` per axis and time degree up to ``t_degree``.
    The constant c_emp is the largest ratio over the members, so it is a
    lower bound on the supremum of the ratio over that class of functions.
    THM2 (Theorem 2, the source stability estimate) sweeps a case ensemble
    at ``s = 0`` only, so its ratio T(|f|^2 + |g|^2) / D0^2 is in unweighted
    norms.  The weight base is built even there, so THM2 is refused wherever
    :func:`~mfglab.weights.build_eta` refuses the coefficients (strongly
    skewed off-diagonal principal parts in 2D).
    Cells whose max ratio exceeds 10x the median over valid cells are flagged
    as instability diagnostics; non-finite integrals mark a cell invalid.
    When ``refine`` is set, the whole sweep repeats once on the doubled grid
    and the drift of the constant is recorded.  Every pass samples each
    member just before it is swept (:func:`_members`), with the one sample
    of ``coeff_recipe`` on that grid; so recipes drawn from another
    coefficient recipe, and ``CASE_KINDS`` over anything but recipes, are
    refused (ValueError) before the first pass.

    Inside ``reports.recording`` the call adds its seconds, summed over both
    grids and every kind, to four stages: ``cells_s`` builds the bundles and
    the cells' boxed weight factors, ``members_s`` the members (sampled
    states, residual sources, data functionals), ``terms_s`` their
    derivative stacks and weighted squares, and ``sums_s`` sums over cells.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    if len(ensemble) == 0:
        raise ValueError("ensemble must be non-empty")
    lam_grid = tuple(float(x) for x in lam_grid)
    s_grid = tuple(float(x) for x in s_grid)
    _require_s(kinds, s_grid)
    if any(getattr(f, "coeff_recipe", coeff_recipe) != coeff_recipe for f in ensemble):
        raise ValueError("the cases were drawn from another coefficient recipe "
                         "than the sweep's coeff_recipe")
    if any(k in CASE_KINDS for k in kinds) and not all(hasattr(f, "f_spec") for f in ensemble):
        raise ValueError(f"{kinds} read the source profiles: sweep the CaseRecipes "
                         "of mms_case_ensemble")
    grids = (grid, grid.refined(2)) if refine else (grid,)
    passes = [_grid_sweeps(kinds, ensemble, lam_grid, s_grid, coeff_recipe.sample(g), g)
              for g in grids]
    reports = tuple(_report(k, lam_grid, s_grid, *per_grid)
                    for k, *per_grid in zip(kinds, *passes))
    return reports[0] if isinstance(kind, str) else reports


def _report(kind: str, lam_grid, s_grid, sweep, fine_sweep=None) -> VerificationReport:
    rows, cell_max, invalid = sweep
    valid_vals = [v for c, v in cell_max.items() if c not in invalid]
    c_emp = max(valid_vals) if valid_vals else math.inf
    # statistics, not np.median, whose first call imports numpy.ma (20 ms)
    med = statistics.median(valid_vals) if valid_vals else math.inf
    flagged = tuple(c for c, v in cell_max.items()
                    if c not in invalid and med > 0 and v > 10.0 * med)
    s0, lam0 = _stabilization(lam_grid, s_grid, cell_max)

    drift = c_fine = None
    if fine_sweep is not None:
        _, fine_cells, fine_invalid = fine_sweep
        fine_vals = [v for c, v in fine_cells.items() if c not in fine_invalid]
        c_fine = max(fine_vals) if fine_vals else math.inf
        drift = c_fine / c_emp if c_emp > 0 else math.inf

    return VerificationReport(
        kind=kind, lam_grid=lam_grid, s_grid=s_grid, rows=tuple(rows),
        cell_max=cell_max, c_emp=c_emp, s0_emp=s0, lam0_emp=lam0,
        flagged=flagged, invalid=tuple(invalid), drift=drift,
        c_emp_refined=c_fine,
    )
