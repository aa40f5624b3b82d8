import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mfglab
import mfglab.coefficients
import mfglab.grid
import mfglab.models
import mfglab.verify
from mfglab.coefficients import CoeffRecipe
from mfglab.grid import GridFn, build_grid, diff, norm
from mfglab.models import mms_case_ensemble, residual
from mfglab.verify import (
    ESTIMATE_KINDS,
    EnsembleMember,
    EstimateSidePair,
    estimate_constant,
    evaluate_estimate,
    generate_ensemble,
    lemma3_check,
)
from mfglab.weights import WeightBundle, WeightParams, build_eta, eval_weight_bundle

COUPLED = CoeffRecipe(c0=1.0, b_gamma={(0,): 0.5, (2,): 0.3})


def setup(n=33, seed=7, members=4):
    g = build_grid(1.0, 1.0, n, n, ["x+"])
    coeffs = COUPLED.sample(g)
    ens = generate_ensemble(seed, members, g, max_modes=3, t_degree=3,
                            amplitude=1.0)
    eta = build_eta(g, coeffs)
    bundle = eval_weight_bundle(eta, WeightParams(lam=1.0, s=8.0), g)
    return g, coeffs, ens, bundle


def test_ensemble_deterministic():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    a = generate_ensemble(5, 3, g)
    b = generate_ensemble(5, 3, g)
    for ma, mb in zip(a.members, b.members):
        assert np.array_equal(ma.u.values, mb.u.values)
        assert np.array_equal(ma.v.values, mb.v.values)


def test_zero_amplitude_gives_zero_members():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    ens = generate_ensemble(5, 2, g, amplitude=0.0)
    for m in ens.members:
        assert np.all(m.u.values == 0.0)


def test_ensemble_conormal_at_roundoff():
    g, coeffs, ens, _ = setup()
    assert ens.max_exact_conormal(coeffs) <= 1e-10


def test_zero_member_gives_zero_sides():
    g, coeffs, _, bundle = setup(n=17)
    z = GridFn(g, "space-time", np.zeros(g.shape))
    pair = evaluate_estimate("THM3", z, z, z, z, coeffs, bundle)
    assert pair.lhs == 0.0 and pair.rhs == 0.0 and pair.ratio == 0.0


def test_violation_candidate_flag():
    pair = EstimateSidePair("THM3", WeightParams(1.0, 1.0),
                            {"a": 1.0}, {"b": 0.0})
    assert pair.violation_candidate
    assert pair.ratio == math.inf


def test_scaling_homogeneity_exact():
    g, coeffs, ens, bundle = setup()
    m = ens.members[0]
    F, G = residual("linear", m.u, m.v, coeffs=coeffs)
    base = evaluate_estimate("THM3", m.u, m.v, F, G, coeffs, bundle)
    scaled = evaluate_estimate("THM3", m.u.scaled(2.0), m.v.scaled(2.0),
                               F.scaled(2.0), G.scaled(2.0), coeffs, bundle)
    assert abs(scaled.lhs - 4.0 * base.lhs) <= 1e-12 * scaled.lhs
    assert abs(scaled.rhs - 4.0 * base.rhs) <= 1e-12 * scaled.rhs
    assert abs(scaled.ratio - base.ratio) <= 1e-12 * base.ratio


def test_normalization_offset_cancels():
    g, coeffs, ens, bundle = setup()
    m = ens.members[1]
    F, G = residual("linear", m.u, m.v, coeffs=coeffs)
    base = evaluate_estimate("THM3", m.u, m.v, F, G, coeffs, bundle)
    shifted = bundle.with_alpha_max(bundle.alpha_max + 0.07)
    off = evaluate_estimate("THM3", m.u, m.v, F, G, coeffs, shifted)
    assert abs(off.ratio - base.ratio) <= 1e-12 * base.ratio


def test_consistency_guard():
    g, coeffs, ens, bundle = setup(n=17)
    m = ens.members[0]
    F, G = residual("linear", m.u, m.v, coeffs=coeffs)
    bad_F = GridFn(g, "space-time", F.values + 1.0)
    bad_G = GridFn(g, "space-time", G.values * (1.0 + 1e-6))
    for kind in ("THM3", "LEMMA4"):
        with pytest.raises(ValueError, match="F is not the residual"):
            evaluate_estimate(kind, m.u, m.v, bad_F, G, coeffs, bundle)
        with pytest.raises(ValueError, match="G is not the residual"):
            evaluate_estimate(kind, m.u, m.v, F, bad_G, coeffs, bundle)


def test_lemma4_and_single_sided_kinds_run():
    g, coeffs, ens, bundle = setup(n=17)
    m = ens.members[0]
    F, G = residual("linear", m.u, m.v, coeffs=coeffs)
    for kind in ("LEMMA1", "LEMMA2", "LEMMA4"):
        pair = evaluate_estimate(kind, m.u, m.v, F, G, coeffs, bundle)
        assert math.isfinite(pair.ratio)
        assert pair.lhs >= 0 and pair.rhs > 0
        assert all(v >= 0 for v in pair.lhs_terms.values())
        assert all(v >= 0 for v in pair.rhs_terms.values())


def test_lemma3_zero_field():
    g, _, _, bundle = setup(n=17)
    z = GridFn(g, "space-time", np.zeros(g.shape))
    pair = lemma3_check(z, 0, bundle)
    assert pair.lhs == 0.0 and pair.rhs == 0.0


def brute_force_lemma3(w, p, bundle):
    """Direct nested-loop version of the lemma-3 sides on tiny grids."""
    g = w.grid
    it0 = g.it0
    tau = g.tau
    inner = np.zeros(g.shape)
    for ix in range(g.nx[0]):
        for jt in range(g.nt):
            lo, hi = sorted((it0, jt))
            total = 0.0
            for k in range(lo, hi):
                total += 0.5 * tau * (w.values[ix, k] + w.values[ix, k + 1])
            inner[ix, jt] = total if jt >= it0 else -total
    lam, s = bundle.params.lam, bundle.params.s
    lhs = rhs = 0.0
    for ix in range(g.nx[0]):
        wx = g.hs[0] if 0 < ix < g.nx[0] - 1 else g.hs[0] / 2
        for jt in range(1, g.nt - 1):
            wt = tau if 0 < jt < g.nt - 1 else tau / 2
            phi = math.exp(lam * bundle.eta.values[ix]) / g.ell[jt]
            alpha = -bundle.h_field[ix] / g.ell[jt]
            wgt = math.exp(2 * s * (alpha - bundle.alpha_max))
            lhs += wx * wt * (s * phi) ** p * inner[ix, jt] ** 2 * wgt
            rhs += wx * wt * (s * phi) ** (p - 1) / lam * w.values[ix, jt] ** 2 * wgt
    return lhs, rhs


@pytest.mark.parametrize("p", [0, 1, 2])
def test_lemma3_brute_force_cross_check(p):
    g = build_grid(1.0, 1.0, 9, 9, ["x+"])
    eta = build_eta(g)
    bundle = eval_weight_bundle(eta, WeightParams(lam=1.5, s=4.0), g)
    rng = np.random.default_rng(p)
    w = GridFn(g, "space-time", rng.normal(size=g.shape))
    pair = lemma3_check(w, p, bundle)
    lhs_bf, rhs_bf = brute_force_lemma3(w, p, bundle)
    assert abs(pair.lhs - lhs_bf) <= 1e-10 * max(lhs_bf, 1e-30)
    assert abs(pair.rhs - rhs_bf) <= 1e-10 * max(rhs_bf, 1e-30)


def test_lemma3_antiderivative_is_scipy_cumulative_trapezoid():
    from scipy.integrate import cumulative_trapezoid

    g = build_grid((1.0, 2.0), 1.0, (7, 9), 11, ["x1+"])
    bundle = eval_weight_bundle(build_eta(g), WeightParams(lam=1.0, s=4.0), g)
    w = GridFn(g, "space-time", np.random.default_rng(4).normal(size=g.shape))
    cum = cumulative_trapezoid(w.values, dx=g.tau, axis=g.dim, initial=0.0)
    inner = cum - cum[..., g.it0][..., None]
    lhs = float(np.sum(g.st_weights * inner * inner * bundle.weight_factor(1)))
    assert lemma3_check(w, 1, bundle).lhs == lhs


def test_import_leaves_scipy_integrate_unloaded():
    code = ("import sys, mfglab; "
            "print(any(m in sys.modules for m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.sparse.linalg')))")
    src = str(Path(mfglab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_lemma3_constant_reproducible_pin():
    # frozen empirical constant for this seed and sweep (deterministic)
    g = build_grid(1.0, 1.0, 65, 65, ["x+"])
    ens = generate_ensemble(11, 8, g, max_modes=3, t_degree=3, amplitude=1.0)
    eta = build_eta(g)
    pins = {0: 0.005459447984838515, 1: 0.005464290779050294,
            2: 0.005469137408556098}
    for p, pin in pins.items():
        c_emp = 0.0
        for lam in (1.0, 2.0):
            for s in (8.0, 16.0, 32.0, 64.0):
                bundle = eval_weight_bundle(eta, WeightParams(lam=lam, s=s), g)
                for m in ens.members:
                    r = lemma3_check(m.u, p, bundle).ratio
                    if math.isfinite(r):
                        c_emp = max(c_emp, r)
        assert abs(c_emp - pin) <= 1e-9 * pin


def test_estimate_constant_report_fields():
    g, coeffs, ens, _ = setup(n=17, members=3)
    rep = estimate_constant("THM3", ens, [1.0], [4.0, 8.0], COUPLED, g,
                            refine=False)
    assert rep.c_emp > 0 and math.isfinite(rep.c_emp)
    assert len(rep.rows) == 3 * 2
    assert rep.s0_emp[1.0] in (4.0, 8.0)
    assert rep.drift is None


def test_estimate_constant_superset_monotone():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    big = generate_ensemble(9, 5, g)
    small = generate_ensemble(9, 1, g)  # prefix of the same stream
    r_small = estimate_constant("LEMMA1", small, [1.0], [8.0], COUPLED, g,
                                refine=False)
    r_big = estimate_constant("LEMMA1", big, [1.0], [8.0], COUPLED, g,
                              refine=False)
    assert r_big.c_emp >= r_small.c_emp


def test_estimate_constant_zero_ensemble():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    zeros = generate_ensemble(2, 3, g, amplitude=0.0)
    rep = estimate_constant("LEMMA1", zeros, [1.0], [8.0], COUPLED, g,
                            refine=False)
    assert rep.c_emp == 0.0


def test_refinement_drift_recorded():
    g, coeffs, ens, _ = setup(n=17, members=2)
    rep = estimate_constant("THM3", ens, [1.0], [8.0], COUPLED, g, refine=True)
    assert rep.drift is not None and math.isfinite(rep.drift)
    assert rep.c_emp_refined is not None


# ---------------------------------------------------------------------------
# a sweep evaluates each member's (lam, s)-independent terms once


COUPLED_2D = CoeffRecipe(c0=0.5, b_gamma={(0, 0): 0.3, (2, 0): 0.2, (0, 2): 0.2})
ENERGY_KINDS = ("ENERGY_3_8", "ENERGY_3_9")
LAMS = (0.5, 1.0)
S_VALUES = (0.5, 1.0, 4.0, 8.0)


def sweep_inputs(kind, dim=1, members=3):
    """(ensemble, recipe, grid, per-member (u, v, F, G, sources))."""
    if dim == 1:
        g = build_grid(1.0, 1.0, 17, 17, ["x-", "x+"])
        recipe = COUPLED
    else:
        g = build_grid((1.0, 2.0), 1.0, (9, 9), 9, ["x1+"])
        recipe = COUPLED_2D
    if kind in ENERGY_KINDS:
        cases = mms_case_ensemble(
            21, members, g, recipe,
            lambda x: 1.0 + 0.3 * np.cos(np.pi * x),
            lambda x: 1.0 - 0.3 * np.cos(np.pi * x),
            q_min=0.05,
        )
        inputs = [(c.u, c.v, c.F, c.G, c.sources) for c in cases.cases]
        return cases, recipe, g, inputs
    ens = generate_ensemble(7, members, g, max_modes=2, t_degree=2)
    coeffs = recipe.sample(g)
    inputs = [(m.u, m.v, *residual("linear", m.u, m.v, coeffs=coeffs), None)
              for m in ens.members]
    return ens, recipe, g, inputs


@pytest.mark.parametrize("kind,dim", [(k, 1) for k in ESTIMATE_KINDS] + [("THM3", 2)])
def test_sweep_rows_equal_standalone_evaluations(kind, dim):
    ens, recipe, g, inputs = sweep_inputs(kind, dim)
    rep = estimate_constant(kind, ens, LAMS, S_VALUES, recipe, g, refine=False)
    coeffs = recipe.sample(g)
    eta = build_eta(g, coeffs)
    assert len(rep.rows) == len(LAMS) * len(S_VALUES) * len(inputs)
    for row in rep.rows:
        bundle = eval_weight_bundle(eta, WeightParams(lam=row.lam, s=row.s), g)
        u, v, F, G, sources = inputs[row.member]
        pair = evaluate_estimate(kind, u, v, F, G, coeffs, bundle, sources=sources)
        assert (row.lhs, row.rhs, row.ratio) == (pair.lhs, pair.rhs, pair.ratio)


def direct_thm3(u, v, F, G, bundle):
    """Both THM3 sides written out term by term, each weight factor built
    where it is used (the formula of the estimate, in the lab's operand and
    summation order)."""
    g = u.grid
    w = g.st_weights

    def wsq(a, m, k=0):
        return float(np.sum(w * a * a * bundle.weight_factor(m, k)))

    def side(f, m_top, m_grad, m_val):
        return [
            wsq(diff(f, t_order=1).values, m_top),
            sum(wsq(diff(f, x=(i, j)).values, m_top)
                for i in range(g.dim) for j in range(g.dim)),
            sum(wsq(diff(f, x=(i,)).values, m_grad, 2) for i in range(g.dim)),
            wsq(f.values, m_val, 4),
        ]

    ds = bundle.data_scale
    lhs = sum(side(u, 0, 2, 4) + side(v, -1, 1, 3))
    rhs = sum([wsq(F.values, 1), wsq(G.values, 0),
               ds * norm(u, "D_gamma") ** 2, ds * norm(v, "D_gamma") ** 2])
    return lhs, rhs


@pytest.mark.parametrize("dim", [1, 2])
def test_thm3_equals_direct_formula(dim):
    ens, recipe, g, inputs = sweep_inputs("THM3", dim, members=2)
    coeffs = recipe.sample(g)
    eta = build_eta(g, coeffs)
    for lam, s in ((0.5, 1.0), (1.0, 8.0)):
        bundle = eval_weight_bundle(eta, WeightParams(lam=lam, s=s), g)
        # the shifted normalization makes data_scale != 1
        for b in (bundle, bundle.with_alpha_max(bundle.alpha_max + 0.07)):
            for u, v, F, G, _ in inputs:
                pair = evaluate_estimate("THM3", u, v, F, G, coeffs, b)
                assert (pair.lhs, pair.rhs) == direct_thm3(u, v, F, G, b)


@pytest.mark.parametrize("kind", ["LEMMA4", "ENERGY_3_8", "ENERGY_3_9"])
def test_d0_data_term_equals_direct_formula(kind):
    ens, recipe, g, inputs = sweep_inputs(kind, members=2)
    coeffs = recipe.sample(g)
    eta = build_eta(g, coeffs)
    bundle = eval_weight_bundle(eta, WeightParams(lam=1.0, s=1.0), g)
    bundle = bundle.with_alpha_max(bundle.alpha_max + 0.07)  # data_scale != 1

    def h2_t0(f):
        return norm(GridFn(g, "spatial-slice", f.values[..., g.it0]), "H2_slice") ** 2

    for u, v, F, G, sources in inputs:
        pair = evaluate_estimate(kind, u, v, F, G, coeffs, bundle, sources=sources)
        d0 = sum([norm(f, "D_gamma") ** 2 for f in
                  (u, v, diff(u, t_order=1), diff(v, t_order=1))]
                 + [h2_t0(u), h2_t0(v)])
        assert pair.rhs_terms["D02"] == bundle.data_scale * d0


def counting(monkeypatch, counts, owners, name):
    """Count the calls of ``name`` made through any of the owner modules."""
    orig = getattr(owners[0], name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return orig(*args, **kwargs)

    for mod in owners:
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)


@pytest.mark.parametrize("kind", ESTIMATE_KINDS)
def test_sweep_work_independent_of_cell_count(kind, monkeypatch):
    modules = [mfglab.grid, mfglab.verify, mfglab.coefficients, mfglab.models]
    counts = Counter()
    counting(monkeypatch, counts, modules, "diff")
    counting(monkeypatch, counts, [mfglab.models, mfglab.verify], "residual")
    counting(monkeypatch, counts,
             [mfglab.coefficients, mfglab.models, mfglab.verify], "apply_operator")
    factor_calls = []
    weight_factor = WeightBundle.weight_factor

    def counted_factor(self, m=0, lam_power=0):
        factor_calls.append((self.params, m, lam_power))
        return weight_factor(self, m, lam_power)

    monkeypatch.setattr(WeightBundle, "weight_factor", counted_factor)

    ens, recipe, g, _ = sweep_inputs(kind)
    per_sweep = []
    for lams, s_values in (((1.0,), (1.0,)), (LAMS, S_VALUES)):
        counts.clear()
        factor_calls.clear()
        estimate_constant(kind, ens, lams, s_values, recipe, g, refine=False)
        per_sweep.append(dict(counts))
        # at most one weight factor per distinct (m, lam_power) in each cell
        assert len(factor_calls) == len(set(factor_calls))
        assert len({c[0] for c in factor_calls}) == len(lams) * len(s_values)
    assert per_sweep[0]["diff"] > 0
    assert per_sweep[0] == per_sweep[1]


# ---------------------------------------------------------------------------
# one sweep call for several kinds does the per-grid work once


FN_KINDS = ("LEMMA1", "LEMMA2", "THM3", "LEMMA4")


@pytest.mark.parametrize("kinds", [FN_KINDS, ENERGY_KINDS])
def test_multi_kind_reports_equal_one_kind_calls(kinds):
    ens, recipe, g, _ = sweep_inputs(kinds[0])
    together = estimate_constant(kinds, ens, LAMS, S_VALUES, recipe, g)
    assert len(together) == len(kinds)
    for kind, rep in zip(kinds, together):
        alone = estimate_constant(kind, ens, LAMS, S_VALUES, recipe, g)
        assert rep.kind == kind and rep.drift is not None
        assert rep == alone  # rows, cell_max, c_emp, drift and the rest


@pytest.mark.parametrize("kinds", [FN_KINDS, ENERGY_KINDS])
def test_per_grid_work_independent_of_kind_count(kinds, monkeypatch):
    counts = Counter()
    counting(monkeypatch, counts, [mfglab.models, mfglab.verify], "residual")
    for cls, name in ((mfglab.basis.SeparableField, "sample"),
                      (mfglab.models.ManufacturedCase, "resample"),
                      (EnsembleMember, "resample"),
                      (CoeffRecipe, "sample")):
        orig = getattr(cls, name)

        def counted(*args, _orig=orig, _key=f"{cls.__name__}.{name}", **kwargs):
            counts[_key] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    ens, recipe, g, _ = sweep_inputs(kinds[0])
    per_call = []
    for group in (kinds[-1:], kinds):  # the last kind reads the sources
        counts.clear()
        estimate_constant(group, ens, LAMS, S_VALUES, recipe, g, refine=True)
        per_call.append(dict(counts))
    assert per_call[0] == per_call[1]
    n = len(ens)
    # each grid: one coefficient sample; the refined grid: one resample per
    # member (cases share that grid's sample and take the residual as their
    # sources there); function-ensemble members: one residual each
    if kinds == ENERGY_KINDS:
        assert per_call[1] == {"CoeffRecipe.sample": 2, "ManufacturedCase.resample": n,
                               "SeparableField.sample": 2 * n, "residual": n}
    else:
        assert per_call[1] == {"CoeffRecipe.sample": 2, "EnsembleMember.resample": n,
                               "SeparableField.sample": 2 * n, "residual": 2 * n}


# ---------------------------------------------------------------------------
# member-major sweeps: weight work once per grid, member work once per member


def test_weight_work_once_per_grid(monkeypatch):
    bundles = []
    factors = []
    eval_bundle = mfglab.verify.eval_weight_bundle
    weight_factor = WeightBundle.weight_factor

    def counted_bundle(eta, params, grid):
        bundles.append((grid.nt, params))
        return eval_bundle(eta, params, grid)

    def counted_factor(self, m=0, lam_power=0):
        factors.append((self.grid.nt, self.params, m, lam_power))
        return weight_factor(self, m, lam_power)

    monkeypatch.setattr(mfglab.verify, "eval_weight_bundle", counted_bundle)
    monkeypatch.setattr(WeightBundle, "weight_factor", counted_factor)
    ens, recipe, g, _ = sweep_inputs("THM3")
    per_call = []
    for group in (("THM3",), FN_KINDS):
        bundles.clear()
        factors.clear()
        estimate_constant(group, ens, LAMS, S_VALUES, recipe, g, refine=True)
        per_call.append((len(bundles), len(factors)))
    grids, cells = 2, len(LAMS) * len(S_VALUES)
    powers = {(m, k) for *_, m, k in factors}
    assert len(powers) == 7  # LEMMA1/2 and THM3 share theirs; LEMMA4 adds none
    assert len(set(bundles)) == len(bundles) == grids * cells
    assert len(set(factors)) == len(factors) == grids * cells * len(powers)
    assert per_call[0] == per_call[1]


def test_thm3_adds_no_derivative_work(monkeypatch):
    counts = Counter()
    modules = [mfglab.grid, mfglab.verify, mfglab.coefficients, mfglab.models]
    counting(monkeypatch, counts, modules, "diff")
    counting(monkeypatch, counts,
             [mfglab.coefficients, mfglab.models, mfglab.verify], "apply_operator")
    counting(monkeypatch, counts, [mfglab.models, mfglab.verify], "residual")
    ens, recipe, g, _ = sweep_inputs("THM3")
    per_call = []
    for group in (("LEMMA1", "LEMMA2"), ("LEMMA1", "LEMMA2", "THM3")):
        counts.clear()
        estimate_constant(group, ens, LAMS, S_VALUES, recipe, g, refine=True)
        per_call.append(dict(counts))
    assert per_call[0]["diff"] > 0
    assert per_call[0] == per_call[1]


def test_sweep_memory_independent_of_member_count():
    """A sweep keeps one member's arrays at a time, so its working memory
    (the peak allocation during the call less what the returned reports
    hold, which is one row per member and cell) does not grow with the
    ensemble.  Measured from 5 to 20 members it falls by about 65 kB; keeping
    every member's weighted squares made it grow by 1.6 MB.  The allowance
    is 12 arrays of the grid."""
    import tracemalloc

    g = build_grid(1.0, 1.0, 33, 33, ["x+"])
    working = []
    for n in (5, 5, 20):  # the first call warms the grid's cached arrays
        ens = generate_ensemble(7, n, g)
        tracemalloc.start()
        try:
            reports = estimate_constant(FN_KINDS, ens, LAMS, S_VALUES, COUPLED, g,
                                        refine=False)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports[0].rows) == n * len(LAMS) * len(S_VALUES)
        working.append(peak - held)
    array_bytes = 8 * int(np.prod(g.shape))
    assert working[2] - working[1] < 12 * array_bytes, working
