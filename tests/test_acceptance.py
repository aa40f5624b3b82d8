"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
live).  Tolerances are fixed here, not tuned at run time; the measured
values backing each pin are quoted next to the assertion.
"""

import math
import time

import numpy as np
import pytest

from mfglab.basis import SeparableField, Term
from mfglab.cli import main as cli_main
from mfglab.coefficients import CoeffRecipe, NonlinearCoeffs, NonlinearRecipe
from mfglab.grid import GridFn, build_grid, diff, norm
from mfglab.inverse import (
    ReconstructionConfig,
    direct_formula_oracle,
    make_inverse_data,
    reconstruct,
    stability_sweep,
)
from mfglab.models import (
    FieldPair,
    analytic_linear_residuals,
    mms_case_ensemble,
    mms_linear,
    residual,
)
from mfglab.statedet import thm1_experiment, thm4_experiment
from mfglab.verify import (
    estimate_constant,
    evaluate_estimate,
    generate_ensemble,
    lemma3_kind,
)
from mfglab.weights import WeightParams, build_eta, check_weight_identities, eval_weight_bundle

COUPLED = CoeffRecipe(c0=1.0, b_gamma={(0,): 0.5, (2,): 0.3})
TUNED = ReconstructionConfig(omega_pde=10.0, omega_gamma=1.0,
                             omega_slice=1000.0, omega_bc=1000.0,
                             beta=1e-10)


def _report(num: int, desc: str, elapsed: float, limit: float) -> None:
    print(f"criterion {num:02d} PASS ({elapsed:.2f} s < {limit:.0f} s): {desc}")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


@pytest.fixture(scope="module")
def grid65():
    return build_grid(1.0, 1.0, 65, 65, ["x+"])


@pytest.fixture(scope="module")
def grid65_both():
    return build_grid(1.0, 1.0, 65, 65, ["x-", "x+"])


@pytest.fixture(scope="module")
def ensemble20(grid65):
    return generate_ensemble(7, 20, grid65, max_modes=3, t_degree=3,
                             amplitude=1.0)


@pytest.fixture(scope="module")
def case65(grid65_both):
    coeffs = COUPLED.sample(grid65_both)
    u_f = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (1,), 0),
                                       Term(1.0, ("cos",), (1,), 1),
                                       Term(0.5, ("cos",), (2,), 2)))
    v_f = SeparableField((1.0,), 1.0, (Term(2.0, ("cos",), (2,), 0),
                                       Term(-1.0, ("cos",), (2,), 1),
                                       Term(0.4, ("cos",), (1,), 3)))
    f = 1.0 + 0.3 * np.cos(np.pi * grid65_both.xs[0])
    gg = 1.0 - 0.3 * np.cos(np.pi * grid65_both.xs[0])
    case = mms_linear(u_f, v_f, coeffs, f, gg, q_min=0.05)
    return case, f, gg


@pytest.fixture(scope="module")
def cases20(grid65_both):
    return mms_case_ensemble(
        21, 20, grid65_both, COUPLED,
        lambda x: 1.0 + 0.3 * np.cos(np.pi * x),
        lambda x: 1.0 - 0.3 * np.cos(np.pi * x),
        max_modes=3, t_degree=3, amplitude=1.0, q_min=0.05,
    )


def test_criterion_01_weight_identities(grid65):
    t0 = time.perf_counter()
    eta = build_eta(grid65, CoeffRecipe().sample(grid65))
    for lam in (1.0, 2.0):
        for s in (8.0, 64.0):
            rep = check_weight_identities(
                eval_weight_bundle(eta, WeightParams(lam=lam, s=s), grid65))
            assert rep.by_name("alpha_time_symmetry").value <= 1e-12
            assert rep.by_name("dphi_closed_form_x1").value <= 1e-8
            for m in (1, 2, 3, 4):
                assert rep.by_name(f"xi_maximizer_m{m}").value <= 1e-6
    _report(1, "alpha symmetry 1e-12, dphi closed form 1e-8, "
               "xi maximizer 1e-6", time.perf_counter() - t0, 5.0)


def test_criterion_02_discretization_order():
    t0 = time.perf_counter()
    # stencil order against the analytic derivative of sin(pi x)
    errs = []
    for nx in (65, 129, 257):
        g = build_grid(1.0, 1.0, nx, 9, ["x+"])
        X, _ = g.meshes()
        fn = GridFn(g, "space-time", np.sin(np.pi * X))
        errs.append(float(np.max(np.abs(
            diff(fn, x=(0,)).values - np.pi * np.cos(np.pi * X)))))
    diff_orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= o <= 2.3 for o in diff_orders), diff_orders

    # residual operator order against the closed-form residual
    uf = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (0,), 3),
                                      Term(0.01, ("cos",), (1,), 1)))
    vf = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (0,), 2),
                                      Term(-0.5, ("cos",), (0,), 3),
                                      Term(0.01, ("cos",), (1,), 1)))
    rerrs = []
    for n in (33, 65, 129):
        g = build_grid(1.0, 1.0, n, n, ["x+"])
        c = COUPLED.sample(g)
        fd, gd = residual("linear", uf.sample(g), vf.sample(g), coeffs=c)
        fa, ga = analytic_linear_residuals(uf, vf, c)
        rerrs.append(math.sqrt(
            norm(GridFn(g, "space-time", fd.values - fa), "L2_Q") ** 2
            + norm(GridFn(g, "space-time", gd.values - ga), "L2_Q") ** 2))
    res_orders = [math.log2(rerrs[i] / rerrs[i + 1]) for i in range(2)]
    assert all(1.7 <= o <= 2.3 for o in res_orders), res_orders
    _report(2, f"diff orders {['%.2f' % o for o in diff_orders]}, "
               f"residual orders {['%.2f' % o for o in res_orders]}",
            time.perf_counter() - t0, 30.0)


def test_criterion_03_thm3_ratio_boundedness(grid65, ensemble20):
    t0 = time.perf_counter()
    rep = estimate_constant("THM3", ensemble20, [1.0, 2.0],
                            [8.0, 16.0, 32.0, 64.0], COUPLED, grid65,
                            refine=True)
    assert rep.invalid == ()
    assert all(math.isfinite(r.ratio) for r in rep.rows)
    assert math.isfinite(rep.c_emp)
    assert 0.5 <= rep.drift <= 2.0, rep.drift

    # global input scaling leaves the ratio invariant to 1e-12
    coeffs = COUPLED.sample(grid65)
    eta = build_eta(grid65, coeffs)
    bundle = eval_weight_bundle(eta, WeightParams(lam=2.0, s=16.0), grid65)
    m = ensemble20[0]
    u, v = m.u_field.sample(grid65), m.v_field.sample(grid65)
    F, G = residual("linear", u, v, coeffs=coeffs)
    base = evaluate_estimate("THM3", u, v, F, G, coeffs, bundle)
    scaled = evaluate_estimate("THM3", u.scaled(2.0), v.scaled(2.0),
                               F.scaled(2.0), G.scaled(2.0), coeffs, bundle)
    assert abs(scaled.ratio - base.ratio) <= 1e-12 * base.ratio
    _report(3, f"C_emp {rep.c_emp:.3e}, drift {rep.drift:.3f}, "
               f"scaling invariant", time.perf_counter() - t0, 180.0)


def brute_force_lemma3(w, p, bundle):
    g = w.grid
    it0, tau = g.it0, g.tau
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


def test_criterion_04_lemma3(grid65):
    t0 = time.perf_counter()
    ens = generate_ensemble(11, 8, grid65, max_modes=3, t_degree=3,
                            amplitude=1.0)
    reports = estimate_constant([lemma3_kind(p) for p in (0, 1, 2)], ens,
                                (1.0, 2.0), (8.0, 16.0, 32.0, 64.0), CoeffRecipe(),
                                grid65, refine=False)
    c_emps = {}
    for p, rep in enumerate(reports):
        assert len(rep.rows) == 2 * 4 * 8 and rep.invalid == ()
        for row in rep.rows:
            assert math.isfinite(row.ratio) and row.ratio <= rep.c_emp
        assert math.isfinite(rep.c_emp) and rep.c_emp > 0
        c_emps[p] = rep.c_emp

    # tiny-grid brute-force cross-check at 1e-10
    g9 = build_grid(1.0, 1.0, 9, 9, ["x+"])
    b9 = eval_weight_bundle(build_eta(g9, CoeffRecipe().sample(g9)),
                            WeightParams(lam=1.5, s=4.0), g9)
    rng = np.random.default_rng(0)
    w = GridFn(g9, "space-time", rng.normal(size=g9.shape))
    for p in (0, 1, 2):
        pair = evaluate_estimate(lemma3_kind(p), w, None, None, None,
                                 CoeffRecipe().sample(g9), b9)
        lhs_bf, rhs_bf = brute_force_lemma3(w, p, b9)
        assert abs(pair.lhs - lhs_bf) <= 1e-10 * max(lhs_bf, 1e-30)
        assert abs(pair.rhs - rhs_bf) <= 1e-10 * max(rhs_bf, 1e-30)
    _report(4, f"C_emp per p: { {p: '%.3e' % v for p, v in c_emps.items()} }, "
               f"9x9 brute force agrees to 1e-10",
            time.perf_counter() - t0, 60.0)


def test_criterion_05_oracle_equivalence(case65):
    t0 = time.perf_counter()
    case, f, gg = case65
    g = case.grid
    w = g.space_weights

    def rel(a, b):
        return math.sqrt(float(np.sum(w * (a - b) ** 2))
                         / float(np.sum(w * b**2)))

    fo, go = direct_formula_oracle(case)
    res = reconstruct(make_inverse_data(case, 0.0, 0), TUNED, truth=(f, gg))
    assert res.converged
    for approx, exact in ((fo.values, f), (go.values, gg),
                          (res.f_hat.values, f), (res.g_hat.values, gg),
                          (res.f_hat.values, fo.values),
                          (res.g_hat.values, go.values)):
        assert rel(approx, exact) <= 1e-3

    # slice-formula error shrinks at second order on analytic-mode cases
    uf = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (0,), 3),
                                      Term(0.01, ("cos",), (1,), 1)))
    vf = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (0,), 2),
                                      Term(-0.5, ("cos",), (0,), 3),
                                      Term(0.01, ("cos",), (1,), 1)))
    errs = []
    for n in (33, 65, 129):
        gn = build_grid(1.0, 1.0, n, n, ["x+"])
        cn = COUPLED.sample(gn)
        fn = 1.0 + 0.3 * np.cos(np.pi * gn.xs[0])
        gn_prof = 1.0 - 0.3 * np.cos(np.pi * gn.xs[0])
        acase = mms_linear(uf, vf, cn, fn, gn_prof, q_min=0.05,
                           q_mode="analytic")
        fa, ga = direct_formula_oracle(acase)
        errs.append(math.sqrt(float(np.sum(
            gn.space_weights * ((fa.values - fn) ** 2
                                + (ga.values - gn_prof) ** 2)))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders), orders
    _report(5, f"reconstruct relf {res.rel_err_f:.1e} relg {res.rel_err_g:.1e}"
               f" <= 1e-3; oracle orders {['%.2f' % o for o in orders]}",
            time.perf_counter() - t0, 120.0)


def test_criterion_06_lipschitz_slope(case65):
    t0 = time.perf_counter()
    case, _, _ = case65
    rep = stability_sweep(case, [1e-3, 3e-3, 1e-2, 3e-2, 1e-1], TUNED,
                          seeds=(0, 1, 2))
    assert rep.excluded == ()
    assert 0.8 <= rep.slope <= 1.2, rep.slope
    assert rep.r2 >= 0.95, rep.r2
    _report(6, f"slope {rep.slope:.3f} in [0.8, 1.2], r2 {rep.r2:.3f} >= 0.95 "
               f"(per-seed mean {rep.slope_mean:.3f} +- {rep.slope_spread:.3f})",
            time.perf_counter() - t0, 300.0)


def test_criterion_07_thm1_curve(grid65, ensemble20):
    t0 = time.perf_counter()
    T = grid65.T
    eps_grid = (0.05 * T, 0.1 * T, 0.2 * T)
    rep = thm1_experiment(ensemble20, COUPLED, grid65, eps_grid, refine=True)
    assert all(math.isfinite(r.ratio) for r in rep.rows)
    for i in range(len(ensemble20)):
        if i in rep.excluded:
            continue
        curve = [r.ratio for r in rep.rows if r.member == i]
        assert all(curve[k] >= curve[k + 1] for k in range(len(curve) - 1))
    assert 0.5 <= rep.drift <= 2.0, rep.drift
    _report(7, f"C_eps finite and non-increasing for all members; "
               f"drift {rep.drift:.3f}", time.perf_counter() - t0, 120.0)


def test_criterion_08_energy_and_thm2(grid65_both, cases20):
    t0 = time.perf_counter()
    details = {}
    for kind in ("ENERGY_3_8", "ENERGY_3_9"):
        rep = estimate_constant(kind, cases20, [0.5, 1.0], [0.25, 0.5, 1.0],
                                COUPLED, grid65_both, refine=True)
        assert rep.invalid == ()
        assert all(math.isfinite(r.ratio) for r in rep.rows)
        assert 0.5 <= rep.drift <= 2.0, (kind, rep.drift)
        details[kind] = rep.drift
    # Theorem 2 is unweighted: the sweep's one s = 0 cell (measured: max
    # ratio 0.00385, drift 0.9993)
    t2 = estimate_constant("THM2", cases20, [1.0], [0.0], COUPLED, grid65_both,
                           refine=True)
    assert math.isfinite(t2.c_emp) and t2.c_emp > 0
    assert 0.5 <= t2.drift <= 2.0, t2.drift
    details["THM2"] = t2.drift
    _report(8, "drifts " + ", ".join(f"{k} {v:.3f}" for k, v in details.items()),
            time.perf_counter() - t0, 120.0)


def test_criterion_09_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "experiment: verify-carleman\n"
        "grid: {nx: [17], nt: 17}\n"
        "ensemble: {seed: 3, n: 2}\n"
        "weights: {lambdas: [1.0], s_values: [8.0, 16.0]}\n"
        "estimates: {refine: false}\n",
        encoding="utf-8",
    )
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["verify-carleman", "--config", str(cfg),
                         "--out", str(out)]) == 0
        outs.append(out)
    for name in ("carleman.csv", "constants.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert not list(outs[0].glob("*.dat"))

    cfg2 = tmp_path / "w.yaml"
    cfg2.write_text("experiment: verify-weights\ngrid: {nx: [17], nt: 17}\n",
                    encoding="utf-8")
    pair = []
    for tag in ("wa", "wb"):
        out = tmp_path / tag
        assert cli_main(["verify-weights", "--config", str(cfg2),
                         "--out", str(out)]) == 0
        pair.append((out / "weights.csv").read_bytes())
    assert pair[0] == pair[1]
    _report(9, "repeat runs byte-identical (verify-carleman, verify-weights)",
            time.perf_counter() - t0, 60.0)


def test_criterion_10_nonlinear_degeneracy():
    t0 = time.perf_counter()
    g = build_grid(1.0, 1.0, 33, 33, ["x+"])
    p_val = 0.3
    u1 = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (1,), 1),
                                      Term(0.4, ("cos",), (2,), 2)))
    v1 = SeparableField((1.0,), 1.0, (Term(0.8, ("cos",), (2,), 0),
                                      Term(-0.5, ("cos",), (1,), 2)))
    u2 = SeparableField((1.0,), 1.0, (Term(0.7, ("cos",), (1,), 1),
                                      Term(0.2, ("cos",), (3,), 1)))
    v2 = SeparableField((1.0,), 1.0, (Term(0.6, ("cos",), (2,), 1),
                                      Term(-0.3, ("cos",), (1,), 3)))
    eps_grid = (0.05, 0.1, 0.2)
    rep_nl = thm4_experiment(((u1, v1), (u2, v2)),
                             NonlinearRecipe(a=1.0, kappa=0.0, p=p_val), g, eps_grid)
    du, dv = u1 - u2, v1 - v2
    ens = (FieldPair(du, dv),)
    rep_lin = thm1_experiment(ens, CoeffRecipe(c0=-p_val), g, eps_grid,
                              refine=False)
    for a, b in zip(rep_nl.rows, rep_lin.rows):
        assert abs(a.ratio - b.ratio) <= 1e-10 * max(a.ratio, 1e-30)

    # residual degeneracy: kappa = p = 0, a = 1 against the heat residual
    u, v = u1.sample(g), v1.sample(g)
    ru_nl, rv_nl = residual("nonlinear", u, v,
                            nl=NonlinearCoeffs.sample(g, a=1.0))
    ru_l, rv_l = residual("linear", u, v, coeffs=CoeffRecipe().sample(g))
    scale = max(float(np.max(np.abs(ru_l.values))), 1.0)
    assert np.max(np.abs(ru_nl.values - ru_l.values)) <= 1e-12 * scale
    assert np.max(np.abs(rv_nl.values - rv_l.values)) <= 1e-12 * scale
    _report(10, "kappa=0 difference ratios match the linear run to 1e-10; "
                "heat-residual degeneracy at 1e-12",
            time.perf_counter() - t0, 60.0)
