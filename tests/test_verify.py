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
from mfglab.basis import SeparableField, Term
from mfglab.grid import SPATIAL_SLICE, GridFn, build_grid, diff, norm
from mfglab.models import max_exact_conormal, mms_case_ensemble, mms_linear, residual
from mfglab.verify import (
    CASE_KINDS,
    ESTIMATE_KINDS,
    EstimateSidePair,
    estimate_constant,
    evaluate_estimate,
    generate_ensemble,
    lemma3_kind,
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
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.u.values, mb.u.values)
        assert np.array_equal(ma.v.values, mb.v.values)


def test_ensemble_samples_each_field_on_first_read(monkeypatch):
    # a sweep samples the closed forms itself, so the draw samples nothing
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    sampled = []
    sample = SeparableField.sample

    def counted(self, grid):
        sampled.append(self)
        return sample(self, grid)

    monkeypatch.setattr(SeparableField, "sample", counted)
    (m,) = generate_ensemble(5, 1, g)
    assert sampled == []
    assert m.u is m.u and sampled == [m.u_field]
    assert np.array_equal(m.v.values, sample(m.v_field, g).values)
    assert sampled == [m.u_field, m.v_field]


def test_zero_amplitude_gives_zero_members():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    ens = generate_ensemble(5, 2, g, amplitude=0.0)
    for m in ens:
        assert np.all(m.u.values == 0.0)


def test_ensemble_conormal_at_roundoff():
    g, coeffs, ens, _ = setup()
    assert max(max_exact_conormal(fld, m2, g, face) for m in ens
               for fld, m2 in ((m.u_field, coeffs.a2), (m.v_field, coeffs.b2))
               for face in g.all_faces()) <= 1e-10


def test_zero_member_gives_zero_sides():
    g, coeffs, _, bundle = setup(n=17)
    z = GridFn(g, "space-time", np.zeros(g.shape))
    pair = evaluate_estimate("THM3", z, z, z, z, coeffs, bundle)
    assert pair.lhs == 0.0 and pair.rhs == 0.0 and pair.ratio == 0.0


def test_violation_candidate_flag():
    pair = EstimateSidePair("THM3", WeightParams(1.0, 1.0),
                            {"a": 1.0}, {"b": 0.0})
    assert pair.lhs > 0 and pair.ratio == math.inf


def test_scaling_homogeneity_exact():
    g, coeffs, ens, bundle = setup()
    m = ens[0]
    F, G = residual("linear", m.u, m.v, coeffs=coeffs)
    base = evaluate_estimate("THM3", m.u, m.v, F, G, coeffs, bundle)
    scaled = evaluate_estimate("THM3", m.u.scaled(2.0), m.v.scaled(2.0),
                               F.scaled(2.0), G.scaled(2.0), coeffs, bundle)
    assert abs(scaled.lhs - 4.0 * base.lhs) <= 1e-12 * scaled.lhs
    assert abs(scaled.rhs - 4.0 * base.rhs) <= 1e-12 * scaled.rhs
    assert abs(scaled.ratio - base.ratio) <= 1e-12 * base.ratio


def test_consistency_guard():
    g, coeffs, ens, bundle = setup(n=17)
    m = ens[0]
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
    m = ens[0]
    F, G = residual("linear", m.u, m.v, coeffs=coeffs)
    for kind in ("LEMMA1", "LEMMA2", "LEMMA4"):
        pair = evaluate_estimate(kind, m.u, m.v, F, G, coeffs, bundle)
        assert math.isfinite(pair.ratio)
        assert pair.lhs >= 0 and pair.rhs > 0
        assert all(v >= 0 for v in pair.lhs_terms.values())
        assert all(v >= 0 for v in pair.rhs_terms.values())


def lemma3_pair(w, p, bundle):
    """Both sides of Lemma 3 for one field on one cell, through the sweep's
    path (the coefficients are not read)."""
    return evaluate_estimate(lemma3_kind(p), w, None, None, None,
                             CoeffRecipe().sample(w.grid), bundle)


def test_lemma3_zero_field():
    g, _, _, bundle = setup(n=17)
    z = GridFn(g, "space-time", np.zeros(g.shape))
    pair = lemma3_pair(z, 0, bundle)
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
    eta = build_eta(g, CoeffRecipe().sample(g))
    bundle = eval_weight_bundle(eta, WeightParams(lam=1.5, s=4.0), g)
    rng = np.random.default_rng(p)
    w = GridFn(g, "space-time", rng.normal(size=g.shape))
    pair = lemma3_pair(w, p, bundle)
    lhs_bf, rhs_bf = brute_force_lemma3(w, p, bundle)
    assert abs(pair.lhs - lhs_bf) <= 1e-10 * max(lhs_bf, 1e-30)
    assert abs(pair.rhs - rhs_bf) <= 1e-10 * max(rhs_bf, 1e-30)


def test_lemma3_antiderivative_is_scipy_cumulative_trapezoid():
    from scipy.integrate import cumulative_trapezoid

    g = build_grid((1.0, 2.0), 1.0, (7, 9), 11, ["x1+"])
    bundle = eval_weight_bundle(build_eta(g, CoeffRecipe().sample(g)),
                                WeightParams(lam=1.0, s=4.0), g)
    w = GridFn(g, "space-time", np.random.default_rng(4).normal(size=g.shape))
    cum = cumulative_trapezoid(w.values, dx=g.tau, axis=g.dim, initial=0.0)
    inner = cum - cum[..., g.it0][..., None]
    lhs = float(np.sum(g.st_weights * inner * inner * bundle.weight_factor(1)))
    assert lemma3_pair(w, 1, bundle).lhs == lhs


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
    pins = {0: 0.005459447984838515, 1: 0.005464290779050294,
            2: 0.005469137408556098}
    reports = estimate_constant([lemma3_kind(p) for p in pins], ens, (1.0, 2.0),
                                (8.0, 16.0, 32.0, 64.0), CoeffRecipe(), g, refine=False)
    for (p, pin), rep in zip(pins.items(), reports):
        assert rep.kind == f"LEMMA3(p={p})"
        assert abs(rep.c_emp - pin) <= 1e-9 * pin


def test_lemma3_kinds_refuse_bad_names():
    g, coeffs, ens, bundle = setup(n=17)
    u = ens[0].u
    for kind in ("LEMMA3(p=-1)", "LEMMA3(p=01)", "LEMMA3", "LEMMA3(p=1"):
        with pytest.raises(ValueError, match="unknown estimate kind"):
            evaluate_estimate(kind, u, None, None, None, coeffs, bundle)
    with pytest.raises(ValueError, match="needs u"):
        evaluate_estimate(lemma3_kind(1), None, u, None, None, coeffs, bundle)


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


def s_values(kind):
    """The s values a kind sweeps: THM2 is unweighted, so only s = 0."""
    return (0.0,) if kind == "THM2" else S_VALUES


def sweep_inputs(kind, dim=1, members=3):
    """(ensemble, recipe, grid, per-member (u, v, F, G, sources))."""
    if dim == 1:
        g = build_grid(1.0, 1.0, 17, 17, ["x-", "x+"])
        recipe = COUPLED
    else:
        g = build_grid((1.0, 2.0), 1.0, (9, 9), 9, ["x1+"])
        recipe = COUPLED_2D
    if kind in CASE_KINDS:
        cases = mms_case_ensemble(
            21, members, g, recipe,
            lambda x, *_: 1.0 + 0.3 * np.cos(np.pi * x),
            lambda x, *_: 1.0 - 0.3 * np.cos(np.pi * x),
            q_min=0.05,
        )
        inputs = [(c.u, c.v, c.F, c.G, c.sources) for c in cases]
        return cases, recipe, g, inputs
    ens = generate_ensemble(7, members, g, max_modes=2, t_degree=2)
    coeffs = recipe.sample(g)
    inputs = [(m.u, m.v, *residual("linear", m.u, m.v, coeffs=coeffs), None)
              for m in ens]
    return ens, recipe, g, inputs


@pytest.mark.parametrize("kind,dim", [(k, 1) for k in ESTIMATE_KINDS]
                         + [("THM3", 2), ("ENERGY_3_8", 2), ("ENERGY_3_9", 2)])
def test_sweep_rows_equal_standalone_evaluations(kind, dim):
    ens, recipe, g, inputs = sweep_inputs(kind, dim)
    rep = estimate_constant(kind, ens, LAMS, s_values(kind), recipe, g, refine=False)
    coeffs = recipe.sample(g)
    eta = build_eta(g, coeffs)
    assert len(rep.rows) == len(LAMS) * len(s_values(kind)) * len(inputs)
    for row in rep.rows:
        bundle = eval_weight_bundle(eta, WeightParams(lam=row.lam, s=row.s), g)
        u, v, F, G, sources = inputs[row.member]
        pair = evaluate_estimate(kind, u, v, F, G, coeffs, bundle, sources=sources)
        assert (row.lhs, row.rhs, row.ratio) == (pair.lhs, pair.rhs, pair.ratio)


@pytest.mark.parametrize("kind", CASE_KINDS)
def test_energy_kinds_reject_zero_s_before_any_member(kind, monkeypatch):
    """The energy-slice kinds refuse s = 0, and THM2 any s but 0."""
    ens, recipe, g, inputs = sweep_inputs(kind)
    bad_s, message = ((1.0, "THM2 runs only at s = 0") if kind == "THM2"
                      else (0.0, "energy-slice kinds need s > 0"))
    built = Counter()

    def counted(name):
        orig = getattr(mfglab.verify, name)

        def wrapper(*args, **kwargs):
            built[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(mfglab.verify, name, wrapper)

    counted("_member")
    counted("eval_weight_bundle")
    with pytest.raises(ValueError, match=message):
        estimate_constant(kind, ens, LAMS, (1.0 - bad_s, bad_s), recipe, g,
                          refine=False)
    coeffs = recipe.sample(g)
    bundle = eval_weight_bundle(build_eta(g, coeffs), WeightParams(lam=1.0, s=bad_s), g)
    u, v, F, G, sources = inputs[0]
    with pytest.raises(ValueError, match=message):
        evaluate_estimate(kind, u, v, F, G, coeffs, bundle, sources=sources)
    assert built == Counter()


def direct_thm3(u, v, F, G, bundle):
    """Both THM3 sides written out term by term, each weight factor built
    where it is used and each weighted square summed over the whole grid
    (the formula of the estimate, in the lab's operand order)."""
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

    lhs = sum(side(u, 0, 2, 4) + side(v, -1, 1, 3))
    rhs = sum([wsq(F.values, 1), wsq(G.values, 0),
               norm(u, "D_gamma") ** 2, norm(v, "D_gamma") ** 2])
    return lhs, rhs


@pytest.mark.parametrize("dim", [1, 2])
def test_thm3_equals_direct_formula(dim):
    ens, recipe, g, inputs = sweep_inputs("THM3", dim, members=2)
    coeffs = recipe.sample(g)
    eta = build_eta(g, coeffs)
    for lam, s in ((0.5, 1.0), (1.0, 8.0)):
        bundle = eval_weight_bundle(eta, WeightParams(lam=lam, s=s), g)
        for u, v, F, G, _ in inputs:
            pair = evaluate_estimate("THM3", u, v, F, G, coeffs, bundle)
            lhs, rhs = direct_thm3(u, v, F, G, bundle)
            # the sweep sums on the weights' boxes: largest measured
            # difference 3.6e-16 relative (1D), 1.7e-16 (2D)
            assert pair.lhs == pytest.approx(lhs, rel=1e-14, abs=0)
            assert pair.rhs == pytest.approx(rhs, rel=1e-14, abs=0)


D0_KINDS = ("LEMMA4", "ENERGY_3_8", "ENERGY_3_9")


@pytest.mark.parametrize("kind,dim", [pytest.param(k, 1, id=k) for k in D0_KINDS]
                         + [(k, 2) for k in D0_KINDS])
def test_d0_data_term_equals_direct_formula(kind, dim):
    ens, recipe, g, inputs = sweep_inputs(kind, dim, members=2)
    coeffs = recipe.sample(g)
    eta = build_eta(g, coeffs)
    bundle = eval_weight_bundle(eta, WeightParams(lam=1.0, s=1.0), g)

    def h2_t0(f):
        return norm(GridFn(g, "spatial-slice", f.values[..., g.it0]), "H2_slice") ** 2

    for u, v, F, G, sources in inputs:
        pair = evaluate_estimate(kind, u, v, F, G, coeffs, bundle, sources=sources)
        d0 = sum([norm(f, "D_gamma") ** 2 for f in
                  (u, v, diff(u, t_order=1), diff(v, t_order=1))]
                 + [h2_t0(u), h2_t0(v)])
        assert pair.rhs_terms["D02"] == d0


# ---------------------------------------------------------------------------
# Theorem 2: the source profiles against the data, unweighted (s = 0)


def thm2_case(gamma=("x-", "x+")):
    """One manufactured case with explicit states, at 17^2."""
    g = build_grid(1.0, 1.0, 17, 17, list(gamma))
    u = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (1,), 0),
                                     Term(1.0, ("cos",), (1,), 1),
                                     Term(0.5, ("cos",), (2,), 2)))
    v = SeparableField((1.0,), 1.0, (Term(2.0, ("cos",), (2,), 0),
                                     Term(-1.0, ("cos",), (2,), 1),
                                     Term(0.4, ("cos",), (1,), 3)))
    x = g.xs[0]
    return mms_linear(u, v, COUPLED.sample(g), 1.0 + 0.3 * np.cos(np.pi * x),
                      1.0 - 0.3 * np.cos(np.pi * x), q_min=0.05)


def thm2_pair(case):
    """Both THM2 sides of one case, on the s = 0 cell of its grid."""
    g = case.grid
    bundle = eval_weight_bundle(build_eta(g, case.coeffs), WeightParams(lam=1.0, s=0.0), g)
    return evaluate_estimate("THM2", case.u, case.v, case.F, case.G, case.coeffs,
                             bundle, sources=case.sources)


def test_thm2_ratio_scale_invariant():
    base = thm2_pair(thm2_case())
    scaled = thm2_pair(thm2_case().scaled(2.5))
    assert abs(scaled.ratio - base.ratio) <= 1e-12 * base.ratio
    # both sides are squared norms
    assert abs(scaled.lhs - 2.5**2 * base.lhs) <= 1e-12 * scaled.lhs


def test_thm2_whole_boundary_tightens_ratio():
    one = thm2_pair(thm2_case(gamma=("x+",)))
    both = thm2_pair(thm2_case(gamma=("x-", "x+")))
    assert both.rhs >= one.rhs
    assert both.ratio <= one.ratio


def test_thm2_sweep_with_drift():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    ens = mms_case_ensemble(13, 3, g, COUPLED, 1.0, 1.0, max_modes=2,
                            t_degree=2, q_min=0.05)
    rep = estimate_constant("THM2", ens, [1.0], [0.0], COUPLED, g, refine=True)
    assert math.isfinite(rep.c_emp) and rep.c_emp > 0
    assert rep.drift is not None and math.isfinite(rep.drift)


@pytest.mark.parametrize("refine", [False, True])
def test_cases_of_another_coefficient_recipe_refused(refine, monkeypatch):
    # every pass samples each case with the sweep's coefficients, so
    # a case ensemble drawn from other ones is refused before any sweep
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    ens = mms_case_ensemble(13, 2, g, COUPLED, 1.0, 1.0, max_modes=2,
                            t_degree=2, q_min=0.05)
    sweeps = []
    monkeypatch.setattr(mfglab.verify, "_grid_sweeps",
                        lambda *args: sweeps.append(args))
    with pytest.raises(ValueError, match="another coefficient recipe"):
        estimate_constant("THM2", ens, [1.0], [0.0], CoeffRecipe(c0=0.5), g,
                          refine=refine)
    assert sweeps == []


def case_without_recipe(g):
    drawn = mms_case_ensemble(13, 1, g, COUPLED, 1.0, 1.0, max_modes=2,
                              t_degree=2, q_min=0.05)[0]
    bare = mms_linear(drawn.u_field, drawn.v_field, drawn.coeffs, drawn.sources.f,
                      drawn.sources.g, q_min=0.05)
    assert bare.recipe is None
    return bare


def test_case_without_recipe_refused_when_refining():
    # every pass samples its members from their closed forms, so a case
    # without its recipe is refused whether or not the sweep refines
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    bare = case_without_recipe(g)
    for refine in (False, True):
        with pytest.raises(ValueError, match="without its recipe"):
            estimate_constant("THM2", (bare,), [1.0], [0.0], COUPLED, g, refine=refine)


def test_case_kinds_over_function_members_refused():
    # the function ensemble's closed forms carry no source profiles
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    with pytest.raises(ValueError, match="sweep manufactured cases"):
        estimate_constant("THM2", generate_ensemble(5, 1, g), [1.0], [0.0], COUPLED, g)


def test_thm1_refuses_case_without_recipe_before_its_coarse_pass(monkeypatch):
    # the same closed-form check as estimate_constant's: no sweep runs
    import mfglab.statedet
    from mfglab.statedet import thm1_experiment

    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    bare = case_without_recipe(g)
    sweeps = []
    monkeypatch.setattr(mfglab.statedet, "_eps_sweep", lambda *args: sweeps.append(args))
    for refine in (False, True):
        with pytest.raises(ValueError, match="without its recipe"):
            thm1_experiment((bare,), COUPLED, g, (0.1,), refine=refine)
    assert sweeps == []


@pytest.mark.parametrize("dim", [1, 2])
def test_thm2_equals_direct_formula(dim):
    """T (|f|^2 + |g|^2) against D0^2: the slices' squared H2 norms and
    D_gamma^2 of u, v, u_t and v_t."""
    _, recipe, g, inputs = sweep_inputs("THM2", dim, members=2)
    coeffs = recipe.sample(g)
    bundle = eval_weight_bundle(build_eta(g, coeffs), WeightParams(lam=1.0, s=0.0), g)

    def slice_sq(values, kind):
        return norm(GridFn(g, SPATIAL_SLICE, values), kind) ** 2

    for u, v, F, G, sources in inputs:
        pair = evaluate_estimate("THM2", u, v, F, G, coeffs, bundle, sources=sources)
        lhs = g.T * (slice_sq(sources.f, "L2_slice") + slice_sq(sources.g, "L2_slice"))
        rhs = (sum(norm(f, "D_gamma") ** 2
                   for f in (u, v, diff(u, t_order=1), diff(v, t_order=1)))
               + slice_sq(u.values[..., g.it0], "H2_slice")
               + slice_sq(v.values[..., g.it0], "H2_slice"))
        assert abs(pair.lhs - lhs) <= 1e-12 * lhs
        assert abs(pair.rhs - rhs) <= 1e-12 * rhs


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
    one_s = (0.0,) if kind == "THM2" else (1.0,)
    for lams, s_grid in (((1.0,), one_s), (LAMS, s_values(kind))):
        counts.clear()
        factor_calls.clear()
        estimate_constant(kind, ens, lams, s_grid, recipe, g, refine=False)
        per_sweep.append(dict(counts))
        # at most one weight factor per distinct (m, lam_power) in each cell
        assert len(factor_calls) == len(set(factor_calls))
        assert len({c[0] for c in factor_calls}) == len(lams) * len(s_grid)
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
                      (mfglab.models.CaseRecipe, "build"),
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
    # each grid: one coefficient sample and each member's two fields sampled
    # from their closed forms; no case is built, and the energy kinds read
    # no residual, which the function kinds' THM3 and LEMMA4 take once per
    # member and grid
    if kinds == ENERGY_KINDS:
        assert per_call[1] == {"CoeffRecipe.sample": 2, "SeparableField.sample": 4 * n}
    else:
        assert per_call[1] == {"CoeffRecipe.sample": 2, "SeparableField.sample": 4 * n,
                               "residual": 2 * n}


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
    assert per_call[0]["diff"] == per_call[1]["diff"]
    # the residual sources are built only for THM3, which reads F and G; they
    # take the derivatives the left sides read
    assert "residual" not in per_call[0] and per_call[1]["residual"] > 0


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


# ---------------------------------------------------------------------------
# each cell keeps its weight factors on the box where they are nonzero


def shipped_carleman(refine=False):
    """The kinds, grid (65^2, or its refined pass at 129^2), coefficients
    and cell parameters of configs/verify_carleman.yaml."""
    from mfglab.config import load_config

    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs"
                          / "verify_carleman.yaml"))
    g = cfg.build_grid()
    if refine:
        g = g.refined(2)
    w = cfg.section("weights")
    params = [WeightParams(lam=lam, s=s) for lam in w["lambdas"] for s in w["s_values"]]
    return cfg.section("estimates")["kinds"], g, cfg.coeff_recipe.sample(g), params


def cells_of(kinds, g, coeffs, params):
    eta = build_eta(g, coeffs)
    bundles = [eval_weight_bundle(eta, p, g) for p in params]
    return mfglab.verify._Cells(kinds, bundles, len(bundles), g), bundles


def box_sizes(cells, power):
    """The number of nodes in each cell's box of the factor ``power``."""
    return [math.prod(sl.stop - sl.start for sl in box)
            for box, _ in cells._boxes[power]]


def assert_sums_exact(cells, bundles, a):
    """Every cell's sums agree with the weighted square written out in full
    over the whole grid within 1e-14 relative (NaN equal to NaN, inf to
    inf); where that is finite they equal the product summed on the cell's
    box with ==, so the summation order is pinned bit for bit."""
    g = bundles[0].grid
    pre = g.st_weights * a * a
    for m, k in cells._blocks:
        sums = cells.sums(pre, m, k)
        full = np.array([np.sum(g.st_weights * a * a * b.weight_factor(m, k))
                         for b in bundles])
        assert np.allclose(sums, full, rtol=1e-14, atol=0, equal_nan=True), (m, k)
        on_box = np.array([np.sum(pre[box] * b.weight_factor(m, k)[box])
                           for b, (box, _) in zip(bundles, cells._boxes[(m, k)])])
        finite = np.isfinite(full)
        assert np.array_equal(sums[finite], on_box[finite]), (m, k)


def box_case(case):
    """(kinds, grid, coefficients, cell parameters) of each box shape."""
    if case == "shipped":
        return shipped_carleman()
    if case == "2d":
        g = build_grid((1.0, 2.0), 1.0, (17, 17), 17, ["x1+"])
        params = [WeightParams(lam=lam, s=s) for lam in LAMS for s in (1.0, 8.0, 64.0)]
        return FN_KINDS, g, COUPLED_2D.sample(g), params
    _, g, coeffs, _ = shipped_carleman()
    if case == "s=0":
        # (0, 0) is 1 on every node, the other powers of LEMMA1 are 0
        return ("LEMMA1",), g, coeffs, [WeightParams(lam=1.0, s=0.0)]
    return FN_KINDS, g, coeffs, [WeightParams(lam=2.0, s=64.0)]


@pytest.mark.parametrize("case", ["shipped", "2d", "s=0", "one node"])
def test_cell_sums_are_box_sums_near_the_full_product(case):
    """Box sums: == the product summed on each box; against the full-grid
    product the largest measured difference is 2.2e-16 relative (shipped),
    3.6e-16 (2d) and 0 (s=0, one node), within the helper's 1e-14."""
    kinds, g, coeffs, params = box_case(case)
    cells, bundles = cells_of(kinds, g, coeffs, params)
    size = math.prod(g.shape)
    sizes = {p: box_sizes(cells, p) for p in cells._blocks}
    if case in ("shipped", "2d"):
        # boxes inside the grid
        assert all(0 < n < size for cells_n in sizes.values() for n in cells_n)
    elif case == "s=0":
        # the whole grid, and no node at all: no nonzero factor
        assert sizes.pop((0, 0)) == [size]
        assert set(map(tuple, sizes.values())) == {(0,)}
    else:
        # the lam = 2, s = 64 cell keeps the one node where the weight is 1
        assert set(map(tuple, sizes.values())) == {(1,)}
    assert_sums_exact(cells, bundles, generate_ensemble(7, 1, g)[0].u.values)


def test_inf_at_a_zero_weight_node_gives_nan():
    """inf * 0 is NaN, so an inf outside a cell's box still reaches its sum."""
    cells, bundles = cells_of(*shipped_carleman())
    g = bundles[0].grid
    a = generate_ensemble(7, 1, g)[0].u.values.copy()
    node = (0, g.it0)
    a[node] = np.inf
    pre = g.st_weights * a * a
    with np.errstate(invalid="ignore"):
        assert_sums_exact(cells, bundles, a)
        for p, boxes in cells._boxes.items():
            outside = [not all(sl.start <= i < sl.stop for sl, i in zip(box, node))
                       for box, _ in boxes]
            assert sum(outside) >= 4
            assert np.isnan(cells.sums(pre, *p)[outside]).all()


def test_shipped_cells_store_a_small_share_of_the_dense_factors():
    """At 129^2 the boxes of the shipped verify-carleman cells hold 11.9% of
    cells x powers x nodes; the dense stacks held all of it."""
    kinds, g, coeffs, params = shipped_carleman(refine=True)
    cells, _ = cells_of(kinds, g, coeffs, params)
    powers = len(cells._blocks)
    assert powers == 7
    stored = sum(sum(box_sizes(cells, p)) for p in cells._blocks)
    assert stored <= 0.15 * len(params) * powers * math.prod(g.shape)
