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
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .basis import SeparableField, random_cosine_field
from .coefficients import CoeffRecipe, CoeffSet, SourceFactors, apply_operator
from .grid import SPACE_TIME, SPATIAL_SLICE, Grid, GridFn, diff, norm
from .models import (CaseEnsemble, ManufacturedCase, max_exact_conormal,
                     resampled_cases, residual)
from .weights import WeightBundle, WeightParams, build_eta, eval_weight_bundle

__all__ = [
    "ESTIMATE_KINDS",
    "EstimateRow",
    "EstimateSidePair",
    "FunctionEnsemble",
    "VerificationReport",
    "estimate_constant",
    "evaluate_estimate",
    "generate_ensemble",
    "lemma3_check",
]

ESTIMATE_KINDS = ("LEMMA1", "LEMMA2", "THM3", "LEMMA4", "ENERGY_3_8", "ENERGY_3_9")
# the midpoint-slice kinds: their right side needs the factorized sources
ENERGY_KINDS = ("ENERGY_3_8", "ENERGY_3_9")

ZERO_RHS_FLOOR = 0.0


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

    @property
    def violation_candidate(self) -> bool:
        """Positive left side against a vanishing right side."""
        return self.lhs > 0.0 and self.rhs <= ZERO_RHS_FLOOR


class _Cells:
    """The (lam, s) cells of one grid sweep: one weight bundle per cell and,
    on first use, one (cells x N) stack of weight factors per distinct
    (m, lam_power), shared by every member and kind swept on the grid.

    ``timings`` accumulates the sweep's seconds under ``members_s``,
    ``terms_s`` and ``sums_s`` (see ``estimate_constant``).
    """

    def __init__(self, bundles: Sequence[WeightBundle],
                 timings: Optional[dict[str, float]] = None):
        self.bundles = tuple(bundles)
        self.timings = _new_timings() if timings is None else timings
        self._stacks: dict[tuple[int, int], np.ndarray] = {}

    def sums(self, pre: np.ndarray, m: int, lam_power: int) -> np.ndarray:
        """``sum(pre * weight_factor(m, lam_power))`` on every cell.

        Each stack row is one cell's factor, raveled, so its row sum is the
        same pairwise sum over the same products as ``np.sum(pre * wf)``
        and equal to it bit for bit (a dot product would not be).
        """
        stack = self._stacks.get((m, lam_power))
        if stack is None:
            stack = np.empty((len(self.bundles), pre.size))
            for row, bundle in zip(stack, self.bundles):
                row[:] = bundle.weight_factor(m, lam_power).ravel()
            self._stacks[(m, lam_power)] = stack
        return (pre.reshape(1, -1) * stack).sum(axis=1)


SWEEP_SPANS = ("members_s", "terms_s", "sums_s")


def _new_timings() -> dict[str, float]:
    return dict.fromkeys(SWEEP_SPANS, 0.0)


def _d_gamma_sq(f: GridFn) -> float:
    return norm(f, "D_gamma") ** 2


def _h2_slice_sq(grid: Grid, slice_vals: np.ndarray) -> float:
    return norm(GridFn(grid, SPATIAL_SLICE, slice_vals), "H2_slice") ** 2


# A weighted square is named by (field, m, lam_power): its integral on a
# bundle is sum(st_weights * a * a * weight_factor(m, lam_power)).  The field
# is a path (base, *steps), base one of "u", "v", "F", "G" and each step one
# derivative (t_order, x axes), or a composite: "opA" = u_t + A u,
# "opB" = v_t - B v, "f" and "g" = the source profiles constant in time.
_DT = (1, ())


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
    return {}, {"f": (("f", 1, 0),), "g": (("g", 0, 0),)}


def _check_consistency(u: GridFn, v: GridFn, F: GridFn, G: GridFn,
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
# H2 norms of the two t0 slices)
_DATA_TERMS = {"LEMMA1": ("Du2",), "LEMMA2": ("Dv2",), "THM3": ("Du2", "Dv2"),
               "LEMMA4": ("D02",), "ENERGY_3_8": ("D02",), "ENERGY_3_9": ("D02",)}


def _require(kind: str, u, v, F, G, sources) -> None:
    if kind not in ESTIMATE_KINDS:
        raise ValueError(f"unknown estimate kind {kind!r}")
    if kind == "LEMMA1" and u is None:
        raise ValueError("LEMMA1 needs u")
    if kind == "LEMMA2" and v is None:
        raise ValueError("LEMMA2 needs v")
    if kind in _SYSTEM_KINDS and any(x is None for x in (u, v, F, G)):
        raise ValueError(f"{kind} needs (u, v, F, G)")
    if kind in ENERGY_KINDS:
        if sources is None:
            raise ValueError(f"{kind} needs the factorized sources")
        if u is None or v is None:
            raise ValueError(f"{kind} needs u and v")


@dataclass
class _Member:
    """One instance on one grid, shared by every kind swept over it: the
    states, the sources F, G and their factors, the data functionals, and a
    memo of the derived fields and of each weighted square's sums over the
    cells of the one sweep it belongs to.  The memo lives as long as the
    member, so kinds share derivative stacks and weighted squares (THM3's
    left side is LEMMA1's and LEMMA2's; u_t and v_t serve LEMMA1, LEMMA2,
    LEMMA4 and D0), and a sweep that drops the member drops its arrays."""

    u: Optional[GridFn]
    v: Optional[GridFn]
    F: Optional[GridFn]
    G: Optional[GridFn]
    sources: Optional[SourceFactors]
    coeffs: CoeffSet
    data: dict[str, float] = field(default_factory=dict)
    fields: dict[tuple, GridFn] = field(default_factory=dict)
    sums: dict[tuple, np.ndarray] = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return (self.u if self.u is not None else self.v).grid

    def fn(self, path: tuple) -> GridFn:
        """The field at ``path``: a base state or source, then derivatives."""
        if len(path) == 1:
            return getattr(self, path[0])
        f = self.fields.get(path)
        if f is None:
            t_order, x = path[-1]
            f = self.fields[path] = diff(self.fn(path[:-1]), t_order=t_order, x=x)
        return f

    def _values(self, key) -> np.ndarray:
        if key == "opA":
            return (self.fn(("u", _DT)).values
                    + apply_operator("A", self.u, self.coeffs).values)
        if key == "opB":
            return (self.fn(("v", _DT)).values
                    - apply_operator("B", self.v, self.coeffs).values)
        if key in ("f", "g"):
            profile = getattr(self.sources, key)
            return np.broadcast_to(profile[..., None], self.grid.shape)
        return self.fn(key).values

    def weighted(self, cells: _Cells, key, m: int, lam_power: int) -> np.ndarray:
        """The weighted square (key, m, lam_power) on every cell."""
        vec = self.sums.get((key, m, lam_power))
        if vec is None:
            start = time.perf_counter()
            a = self._values(key)
            # operand order of st_weights * a * a * factor, so the weighted
            # integral rounds exactly as when it is written out in one expression
            pre = self.grid.st_weights * a * a
            mid = time.perf_counter()
            vec = self.sums[(key, m, lam_power)] = cells.sums(pre, m, lam_power)
            cells.timings["terms_s"] += mid - start
            cells.timings["sums_s"] += time.perf_counter() - mid
        return vec


def _member(kinds: Sequence[str], u: Optional[GridFn], v: Optional[GridFn],
            F: Optional[GridFn], G: Optional[GridFn], coeffs: CoeffSet,
            sources: Optional[SourceFactors], *,
            derived: bool = False) -> _Member:
    """Validate one instance for ``kinds`` and compute its data functionals;
    F and G are checked against the residual of (u, v) for the system kinds
    unless they were ``derived`` from it."""
    for kind in kinds:
        _require(kind, u, v, F, G, sources)
    if not derived and any(k in _SYSTEM_KINDS for k in kinds):
        _check_consistency(u, v, F, G, coeffs)
    m = _Member(u, v, F, G, sources, coeffs)
    keys = {key for kind in kinds for key in _DATA_TERMS[kind]}
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
    data = {key: m.data[key] for key in _DATA_TERMS[kind]}
    start = time.perf_counter()
    g = m.grid
    if kind in ENERGY_KINDS:
        dt = m.fn(("u" if kind == "ENERGY_3_8" else "v", _DT))
        slice_sq = dt.values[..., g.it0] ** 2

    def total(vecs, c, scalar=1.0):
        out = 0
        for vec in vecs:
            out += scalar * float(vec[c])
        return out

    pairs = []
    for c, bundle in enumerate(cells.bundles):
        if kind in ENERGY_KINDS:
            s = bundle.params.s
            if s <= 0:
                raise ValueError("energy-slice kinds need s > 0")
            w_t0 = bundle.w_slice(g.it0)
            if kind == "ENERGY_3_8":
                phi_t0 = bundle.phi_slice(g.it0)
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
        rhs |= {name: bundle.data_scale * d for name, d in data.items()}
        pairs.append(EstimateSidePair(kind=kind, params=bundle.params,
                                      lhs_terms=lhs, rhs_terms=rhs))
    cells.timings["sums_s"] += time.perf_counter() - start
    return pairs


def evaluate_estimate(kind: str, u: Optional[GridFn], v: Optional[GridFn],
                      F: Optional[GridFn], G: Optional[GridFn],
                      coeffs: CoeffSet, bundle: WeightBundle,
                      sources: Optional[SourceFactors] = None) -> EstimateSidePair:
    """Evaluate one inequality instance.

    The single-equation kinds use only u (LEMMA1) or v (LEMMA2); the system
    kinds need (u, v, F, G) with the sources equal to the discrete residuals
    (checked); the energy-slice kinds additionally need the factorized
    ``sources`` since their right side is written in the spatial profiles.
    Every unweighted data term carries the bundle's ``data_scale`` so that
    ratios are independent of the weight normalization.  This is the sweep's
    own path, for one member on one cell.
    """
    member = _member((kind,), u, v, F, G, coeffs, sources)
    return _pairs(kind, member, _Cells((bundle,)))[0]


def lemma3_check(w: GridFn, p: int, bundle: WeightBundle) -> EstimateSidePair:
    """Integral-operator estimate: the weighted time antiderivative from t0
    against the weighted field itself, one weight power lower."""
    if w.kind != SPACE_TIME:
        raise ValueError("lemma3_check requires a space-time field")
    if p < 0:
        raise ValueError("p must be >= 0")
    g = w.grid
    # cumulative trapezoid rule along time, starting from 0 at the first node
    y = w.values
    steps = np.cumsum(g.tau * (y[..., 1:] + y[..., :-1]) / 2.0, axis=g.dim)
    cum = np.concatenate((np.zeros_like(y[..., :1]), steps), axis=g.dim)
    inner = cum - cum[..., g.it0][..., None]
    # the operand order of the sweeps' weighted squares
    lhs = float(np.sum(g.st_weights * inner * inner * bundle.weight_factor(p)))
    rhs = float(np.sum(g.st_weights * w.values * w.values
                       * bundle.weight_factor(p - 1, lam_power=-1)))
    return EstimateSidePair(
        kind=f"LEMMA3(p={p})", params=bundle.params,
        lhs_terms={"antiderivative": lhs}, rhs_terms={"field": rhs},
    )


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class EnsembleMember:
    u_field: SeparableField
    v_field: SeparableField
    u: GridFn
    v: GridFn

    def resample(self, grid: Grid) -> "EnsembleMember":
        """Rebuild on another grid of the same domain (the closed-form fields
        are sampled there exactly)."""
        if not grid.same_domain(self.u.grid):
            raise ValueError("resampling grid must share the domain")
        return EnsembleMember(self.u_field, self.v_field,
                              self.u_field.sample(grid), self.v_field.sample(grid))


@dataclass(frozen=True)
class FunctionEnsemble:
    """Seeded family of cosine-basis state pairs for inequality sweeps."""

    seed: int
    grid: Grid
    max_modes: int
    t_degree: int
    amplitude: float
    members: tuple[EnsembleMember, ...]

    def __len__(self) -> int:
        return len(self.members)

    def max_exact_conormal(self, coeffs: CoeffSet) -> float:
        """Largest exact conormal trace over members and faces (should sit at
        roundoff for cosine states with diagonal principal parts)."""
        return max((max_exact_conormal(fld, m2, self.grid, face)
                    for m in self.members
                    for fld, m2 in ((m.u_field, coeffs.a2), (m.v_field, coeffs.b2))
                    for face in self.grid.all_faces()), default=0.0)


def generate_ensemble(seed: int, n: int, grid: Grid, max_modes: int = 3,
                      t_degree: int = 3, amplitude: float = 1.0) -> FunctionEnsemble:
    """Deterministic ensemble of cosine x time-polynomial state pairs."""
    if n < 1 or max_modes < 1:
        raise ValueError("need n >= 1 and max_modes >= 1")
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(n):
        uf = random_cosine_field(rng, grid.lengths, grid.T, max_modes, t_degree,
                                 amplitude)
        vf = random_cosine_field(rng, grid.lengths, grid.T, max_modes, t_degree,
                                 amplitude)
        members.append(EnsembleMember(uf, vf, uf.sample(grid), vf.sample(grid)))
    return FunctionEnsemble(seed, grid, max_modes, t_degree, amplitude,
                            tuple(members))


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
    timings: dict[str, float] = field(default_factory=_new_timings, compare=False)

    def max_ratio(self) -> float:
        return self.c_emp


EnsembleLike = Union[FunctionEnsemble, CaseEnsemble]
Instance = Union[EnsembleMember, ManufacturedCase]


def _members(kinds: Sequence[str], instances: Iterable[Instance],
             coeffs: CoeffSet, timings: dict[str, float]) -> Iterator[_Member]:
    """The sweep members of ``instances`` (all on the grid of ``coeffs``),
    built one at a time; a function-ensemble member takes its residual as
    sources F, G (built whatever the kinds, so adding a kind never adds
    member work)."""
    for inst in instances:
        start = time.perf_counter()
        if isinstance(inst, EnsembleMember):
            member = _member(kinds, inst.u, inst.v,
                             *residual("linear", inst.u, inst.v, coeffs=coeffs),
                             coeffs, None, derived=True)
        else:
            member = _member(kinds, inst.u, inst.v, inst.F, inst.G, coeffs,
                             inst.sources)
        timings["members_s"] += time.perf_counter() - start
        yield member
        # let go of this instance before ``instances`` builds the next one
        del inst, member


def _grid_sweeps(kinds: Sequence[str], instances: Iterable[Instance], lam_grid,
                 s_grid, coeffs: CoeffSet, grid: Grid,
                 timings: dict[str, float]) -> list[tuple[list[EstimateRow], dict, list]]:
    """Sweep every kind over ``instances`` on one grid, with ``coeffs``
    sampled there.

    Member-major: the weight base and every cell's bundle are built once,
    then each member is built in turn, every kind runs on it over all cells,
    and only its (lhs, rhs, ratio) per kind and cell are kept; its arrays
    are dropped before the next member is built.  ``instances`` may build
    each one on demand (the refined pass does), so no grid holds more than
    one member at a time.  Peak memory therefore grows with cells x distinct
    weight powers x grid nodes (the weight-factor stacks; about 7.5 MB at
    129^2 for 8 cells and the 7 powers of LEMMA1, LEMMA2, THM3 and LEMMA4),
    not with the member count.
    """
    start = time.perf_counter()
    eta = build_eta(grid, coeffs)
    cell_keys = [(lam, s) for lam in lam_grid for s in s_grid]
    cells = _Cells([eval_weight_bundle(eta, WeightParams(lam=lam, s=s), grid)
                    for lam, s in cell_keys], timings)
    timings["sums_s"] += time.perf_counter() - start
    # values[kind][cell] holds one (lhs, rhs, ratio) per member
    values = [[[] for _ in cell_keys] for _ in kinds]
    for member in _members(kinds, instances, coeffs, timings):
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


def estimate_constant(kind: Union[str, Sequence[str]], ensemble: EnsembleLike,
                      lam_grid: Sequence[float], s_grid: Sequence[float],
                      coeff_recipe: CoeffRecipe, grid: Grid, *,
                      refine: bool = True
                      ) -> Union[VerificationReport, tuple[VerificationReport, ...]]:
    """Sweep the large parameters over the ensemble and report the constant.

    ``kind`` is one estimate kind, which gives one report, or a sequence of
    kinds swept over the same ensemble, which gives one report per kind in
    that order; the per-grid work (coefficients, weight base, bundles and
    weight factors of every cell) and each member's work
    (sources, data functionals, derivative stacks, weighted squares) is then
    done once for all of them.
    Cells whose max ratio exceeds 10x the median over valid cells are flagged
    as instability diagnostics; non-finite integrals mark a cell invalid.
    When ``refine`` is set, the whole sweep repeats once on the doubled grid
    and the drift of the constant is recorded.  There each member is
    resampled from its closed form (exactly) just before it is swept and
    dropped after, and cases drawn from ``coeff_recipe`` share its one
    sample on that grid.

    Each report's ``timings`` holds the seconds of the whole call, summed
    over both grids and shared by every kind of the call: ``members_s``
    builds the members (residual sources, consistency check, data
    functionals), ``terms_s`` their derivative stacks and weighted squares,
    ``sums_s`` the bundles, weight-factor stacks and the sums over cells.
    They are not compared between reports.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    if len(ensemble) == 0:
        raise ValueError("ensemble must be non-empty")
    lam_grid = tuple(float(x) for x in lam_grid)
    s_grid = tuple(float(x) for x in s_grid)
    timings = _new_timings()
    is_cases = isinstance(ensemble, CaseEnsemble)
    instances = ensemble.cases if is_cases else ensemble.members
    sweeps = _grid_sweeps(kinds, instances, lam_grid, s_grid,
                          coeff_recipe.sample(grid), grid, timings)
    fine_sweeps = [None] * len(kinds)
    if refine:
        fine = grid.refined(2)
        fine_coeffs = coeff_recipe.sample(fine)
        fine_instances = (resampled_cases(instances, fine, (coeff_recipe, fine_coeffs))
                          if is_cases else (m.resample(fine) for m in instances))
        fine_sweeps = _grid_sweeps(kinds, fine_instances, lam_grid, s_grid,
                                   fine_coeffs, fine, timings)
    reports = tuple(_report(k, lam_grid, s_grid, sweep, fine_sweep, timings)
                    for k, sweep, fine_sweep in zip(kinds, sweeps, fine_sweeps))
    return reports[0] if isinstance(kind, str) else reports


def _report(kind: str, lam_grid, s_grid, sweep, fine_sweep,
            timings: dict[str, float]) -> VerificationReport:
    rows, cell_max, invalid = sweep
    valid_vals = [v for c, v in cell_max.items() if c not in invalid]
    c_emp = max(valid_vals) if valid_vals else math.inf
    med = float(np.median(valid_vals)) if valid_vals else math.inf
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
        c_emp_refined=c_fine, timings=timings,
    )
