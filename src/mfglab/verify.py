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
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .basis import SeparableField, random_cosine_field
from .coefficients import CoeffRecipe, CoeffSet, SourceFactors, apply_operator
from .grid import SPACE_TIME, SPATIAL_SLICE, Grid, GridFn, diff, norm
from .models import CaseEnsemble, max_exact_conormal, residual
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


class _Part(NamedTuple):
    """One weighted square: ``pre = st_weights * a * a`` with its weight
    powers; on a bundle it is ``sum(pre * weight_factor(m, lam_power))``."""

    pre: np.ndarray
    m: int
    lam_power: int = 0


def _part(arr: np.ndarray, grid: Grid, m: int, lam_power: int = 0) -> _Part:
    # operand order of st_weights * a * a * factor, so the weighted integral
    # rounds exactly as when it is written out in one expression
    return _Part(grid.st_weights * arr * arr, m, lam_power)


def _weighted(parts: Sequence[_Part], bundle: WeightBundle, factors: dict,
              scalar: float = 1.0) -> float:
    """Sum of the parts' weighted integrals; ``factors`` memoizes the
    bundle's weight factors by (m, lam_power)."""
    total = 0
    for pre, m, k in parts:
        wf = factors.get((m, k))
        if wf is None:
            wf = factors[(m, k)] = bundle.weight_factor(m, k)
        total += scalar * float(np.sum(pre * wf))
    return total


def _d_gamma_sq(f: GridFn) -> float:
    return norm(f, "D_gamma") ** 2


def _h2_slice_sq(grid: Grid, slice_vals: np.ndarray) -> float:
    return norm(GridFn(grid, SPATIAL_SLICE, slice_vals), "H2_slice") ** 2


def _first_side_lhs(u: GridFn, prefix: str = "") -> dict[str, tuple[_Part, ...]]:
    """Backward-equation energy block: |ut|^2 + |uxx|^2 + (s lam phi)^2|grad|^2
    + (s lam phi)^4 |u|^2, all under the normalized weight."""
    g = u.grid
    return {
        prefix + "ut": (_part(diff(u, t_order=1).values, g, 0),),
        prefix + "uxx": tuple(_part(diff(u, x=(i, j)).values, g, 0)
                              for i in range(g.dim) for j in range(g.dim)),
        prefix + "grad": tuple(_part(diff(u, x=(i,)).values, g, 2, lam_power=2)
                               for i in range(g.dim)),
        prefix + "val": (_part(u.values, g, 4, lam_power=4),),
    }


def _second_side_lhs(v: GridFn, prefix: str = "") -> dict[str, tuple[_Part, ...]]:
    """Forward-equation energy block with one inverse weight power on the
    top-order terms."""
    g = v.grid
    return {
        prefix + "vt": (_part(diff(v, t_order=1).values, g, -1),),
        prefix + "vxx": tuple(_part(diff(v, x=(i, j)).values, g, -1)
                              for i in range(g.dim) for j in range(g.dim)),
        prefix + "grad": tuple(_part(diff(v, x=(i,)).values, g, 1, lam_power=2)
                               for i in range(g.dim)),
        prefix + "val": (_part(v.values, g, 3, lam_power=4),),
    }


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


def _data_functionals(u: Optional[GridFn], v: Optional[GridFn],
                      keys: set[str]) -> dict[str, float]:
    data: dict[str, float] = {}
    if keys & {"Du2", "D02"}:
        data["Du2"] = _d_gamma_sq(u)
    if keys & {"Dv2", "D02"}:
        data["Dv2"] = _d_gamma_sq(v)
    if "D02" in keys:
        g = u.grid
        data["D02"] = (
            data["Du2"] + data["Dv2"]
            + _d_gamma_sq(diff(u, t_order=1)) + _d_gamma_sq(diff(v, t_order=1))
            + _h2_slice_sq(g, u.values[..., g.it0])
            + _h2_slice_sq(g, v.values[..., g.it0])
        )
    return data


@dataclass
class _Member:
    """One instance on one grid, shared by every kind swept over it: the
    states, the sources F, G and their factors, and the data functionals.

    A sweep drops F and G once no later kind reads them."""

    u: Optional[GridFn]
    v: Optional[GridFn]
    F: Optional[GridFn]
    G: Optional[GridFn]
    sources: Optional[SourceFactors]
    data: dict[str, float]


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
    keys = {key for kind in kinds for key in _DATA_TERMS[kind]}
    return _Member(u, v, F, G, sources, _data_functionals(u, v, keys))


@dataclass(frozen=True)
class _InstanceTerms:
    """Everything of one inequality instance that does not depend on (lam, s).

    Each lhs/rhs term is a sum of weighted squares; ``data`` holds the
    unweighted data functionals (they take the bundle's ``data_scale``);
    the energy-slice kinds keep the squared time derivative on the t0 slice
    that forms their left side.
    """

    kind: str
    lhs: dict[str, tuple[_Part, ...]]
    rhs: dict[str, tuple[_Part, ...]]
    data: dict[str, float]
    slice_sq: Optional[np.ndarray] = None


def _instance_terms(kind: str, m: _Member, coeffs: CoeffSet) -> _InstanceTerms:
    u, v, F, G = m.u, m.v, m.F, m.G
    data = {key: m.data[key] for key in _DATA_TERMS[kind]}

    if kind == "LEMMA1":
        op = diff(u, t_order=1).values + apply_operator("A", u, coeffs).values
        return _InstanceTerms(kind, _first_side_lhs(u),
                              {"op": (_part(op, u.grid, 1),)}, data)

    if kind == "LEMMA2":
        op = diff(v, t_order=1).values - apply_operator("B", v, coeffs).values
        return _InstanceTerms(kind, _second_side_lhs(v),
                              {"op": (_part(op, v.grid, 0),)}, data)

    g = u.grid
    if kind == "THM3":
        return _InstanceTerms(
            kind, _first_side_lhs(u, "u_") | _second_side_lhs(v, "v_"),
            {"F": (_part(F.values, g, 1),), "G": (_part(G.values, g, 0),)},
            data,
        )

    if kind == "LEMMA4":
        y = diff(u, t_order=1)
        z = diff(v, t_order=1)
        return _InstanceTerms(
            kind, _first_side_lhs(y, "ut_") | _second_side_lhs(z, "vt_"),
            {"Ft": (_part(diff(F, t_order=1).values, g, 1),),
             "F": (_part(F.values, g, 1),),
             "Gt": (_part(diff(G, t_order=1).values, g, 0),),
             "G": (_part(G.values, g, 0),)},
            data,
        )

    # energy-slice kinds
    sources = m.sources
    f_ext = np.broadcast_to(sources.f[..., None], g.shape)
    g_ext = np.broadcast_to(sources.g[..., None], g.shape)
    dt0 = diff(u if kind == "ENERGY_3_8" else v, t_order=1).values[..., g.it0]
    return _InstanceTerms(
        kind, {},
        {"f": (_part(f_ext, g, 1),), "g": (_part(g_ext, g, 0),)},
        data,
        slice_sq=dt0**2,
    )


def _evaluate_terms(terms: _InstanceTerms, bundle: WeightBundle,
                    factors: dict) -> EstimateSidePair:
    """Both sides of one instance on one bundle; ``factors`` is the cell's
    weight-factor memo, shared by every instance evaluated on ``bundle``."""
    ds = bundle.data_scale
    if terms.slice_sq is None:
        lhs = {name: _weighted(parts, bundle, factors)
               for name, parts in terms.lhs.items()}
        scalar = 1.0
    else:
        g = bundle.grid
        s = bundle.params.s
        if s <= 0:
            raise ValueError("energy-slice kinds need s > 0")
        w_t0 = bundle.w_slice(g.it0)
        if terms.kind == "ENERGY_3_8":
            phi_t0 = bundle.phi_slice(g.it0)
            val = float(np.sum(g.space_weights * s * phi_t0 * terms.slice_sq * w_t0))
            scalar = 1.0 / s
        else:
            val = float(np.sum(g.space_weights * terms.slice_sq * w_t0))
            scalar = s**-0.5
        lhs = {"slice": val}
    rhs = {name: _weighted(parts, bundle, factors, scalar)
           for name, parts in terms.rhs.items()}
    rhs |= {name: ds * d for name, d in terms.data.items()}
    return EstimateSidePair(kind=terms.kind, params=bundle.params,
                            lhs_terms=lhs, rhs_terms=rhs)


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
    ratios are independent of the weight normalization.
    """
    member = _member((kind,), u, v, F, G, coeffs, sources)
    return _evaluate_terms(_instance_terms(kind, member, coeffs), bundle, {})


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
    factors: dict = {}
    lhs = _weighted((_part(inner, g, p),), bundle, factors)
    rhs = _weighted((_part(w.values, g, p - 1, lam_power=-1),), bundle, factors)
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

    def resample(self, grid: Grid) -> "FunctionEnsemble":
        if not grid.same_domain(self.grid):
            raise ValueError("resampling grid must share the domain")
        members = tuple(
            EnsembleMember(m.u_field, m.v_field,
                           m.u_field.sample(grid), m.v_field.sample(grid))
            for m in self.members
        )
        return FunctionEnsemble(self.seed, grid, self.max_modes, self.t_degree,
                                self.amplitude, members)

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

    def max_ratio(self) -> float:
        return self.c_emp


EnsembleLike = Union[FunctionEnsemble, CaseEnsemble]


def _members(kinds: Sequence[str], ensemble: EnsembleLike,
             coeffs: CoeffSet) -> list[_Member]:
    """Every instance of the ensemble on its grid, built once for all kinds;
    a function-ensemble member takes its residual as sources F, G when a
    system kind needs them."""
    if isinstance(ensemble, CaseEnsemble):
        return [_member(kinds, c.u, c.v, c.F, c.G, coeffs, c.sources)
                for c in ensemble.cases]
    system = any(k in _SYSTEM_KINDS for k in kinds)
    out = []
    for m in ensemble.members:
        F, G = residual("linear", m.u, m.v, coeffs=coeffs) if system else (None, None)
        out.append(_member(kinds, m.u, m.v, F, G, coeffs, None, derived=True))
    return out


def _sweep(kind: str, members: list[_Member], coeffs: CoeffSet, eta,
           lam_grid, s_grid, grid: Grid, *,
           last_source_reader: bool) -> tuple[list[EstimateRow], dict, list]:
    instances = []
    for m in members:
        instances.append(_instance_terms(kind, m, coeffs))
        if last_source_reader:
            m.F = m.G = None  # freed member by member, so they never add to the terms
    rows: list[EstimateRow] = []
    cell_max: dict[tuple[float, float], float] = {}
    invalid: list[tuple[float, float]] = []
    for lam in lam_grid:
        for s in s_grid:
            bundle = eval_weight_bundle(eta, WeightParams(lam=lam, s=s), grid)
            factors: dict = {}
            best = 0.0
            bad = False
            for i, terms in enumerate(instances):
                pair = _evaluate_terms(terms, bundle, factors)
                lhs, rhs, ratio = pair.lhs, pair.rhs, pair.ratio
                if not (math.isfinite(lhs) and math.isfinite(rhs)):
                    bad = True
                rows.append(EstimateRow(kind, lam, s, i, lhs, rhs, ratio))
                if math.isfinite(ratio):
                    best = max(best, ratio)
            cell_max[(lam, s)] = best
            if bad:
                invalid.append((lam, s))
    return rows, cell_max, invalid


def _grid_sweeps(kinds: Sequence[str], ensemble: EnsembleLike, lam_grid,
                 s_grid, coeff_recipe: CoeffRecipe,
                 grid: Grid) -> list[tuple[list[EstimateRow], dict, list]]:
    """Sweep every kind on one grid.  The coefficients, the weight base and
    the members are built once; each kind's terms live only for its sweep."""
    coeffs = coeff_recipe.sample(grid)
    eta = build_eta(grid, coeffs)
    members = _members(kinds, ensemble, coeffs)
    last = max((i for i, k in enumerate(kinds) if k in _SYSTEM_KINDS), default=-1)
    return [_sweep(kind, members, coeffs, eta, lam_grid, s_grid, grid,
                   last_source_reader=(i == last))
            for i, kind in enumerate(kinds)]


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
    that order; the per-grid work (coefficients, weight base, refined
    ensemble, sources, data functionals) is then done once for all of them.
    Cells whose max ratio exceeds 10x the median over valid cells are flagged
    as instability diagnostics; non-finite integrals mark a cell invalid.
    When ``refine`` is set, the whole sweep repeats once on the doubled grid
    (closed-form members and coefficients are resampled exactly) and the
    drift of the constant is recorded.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    if len(ensemble) == 0:
        raise ValueError("ensemble must be non-empty")
    lam_grid = tuple(float(x) for x in lam_grid)
    s_grid = tuple(float(x) for x in s_grid)
    sweeps = _grid_sweeps(kinds, ensemble, lam_grid, s_grid, coeff_recipe, grid)
    fine_sweeps = [None] * len(kinds)
    if refine:
        fine = grid.refined(2)
        fine_sweeps = _grid_sweeps(kinds, ensemble.resample(fine), lam_grid,
                                   s_grid, coeff_recipe, fine)
    reports = tuple(_report(k, lam_grid, s_grid, sweep, fine_sweep)
                    for k, sweep, fine_sweep in zip(kinds, sweeps, fine_sweeps))
    return reports[0] if isinstance(kind, str) else reports


def _report(kind: str, lam_grid, s_grid, sweep, fine_sweep) -> VerificationReport:
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
        c_emp_refined=c_fine,
    )
