"""2D integration coverage: the desk-scale 33^2 x 33 configuration."""

import math

import numpy as np

from mfglab.cli import main as cli_main
from mfglab.coefficients import CoeffRecipe, check_ellipticity
from mfglab.grid import GridFn, build_grid, norm
from mfglab.models import max_exact_conormal, mms_case_ensemble, residual
from mfglab.verify import estimate_constant, generate_ensemble
from mfglab.weights import WeightParams, build_eta, eval_weight_bundle

COUPLED_2D = CoeffRecipe(c0=0.5, b_gamma={(0, 0): 0.3, (2, 0): 0.2, (0, 2): 0.2})


def grid_2d(n=17, nt=17):
    return build_grid((1.0, 2.0), 1.0, (n, n), nt, ["x1+"])


def test_ellipticity_relabel_invariant():
    g = grid_2d(9, 9)
    a = [[lambda x1, x2, t: 2.0 + 0.2 * np.sin(np.pi * x1), 0.3],
         [0.3, lambda x1, x2, t: 1.5 + 0.1 * x2]]
    swapped = [[a[1][1], a[1][0]], [a[0][1], a[0][0]]]
    c1 = CoeffRecipe(a2=a, b2=a).sample(g)
    c2 = CoeffRecipe(a2=swapped, b2=swapped).sample(g)
    assert abs(check_ellipticity(c1) - check_ellipticity(c2)) < 1e-14


def test_weight_time_profiles_unimodal():
    # ell(t) = t(T - t) peaks at t0, so alpha = -h/ell rises to its max at t0
    # and falls after, while phi = exp(lam eta)/ell dips to its minimum there
    g = grid_2d(9, 17)
    bundle = eval_weight_bundle(build_eta(g, CoeffRecipe().sample(g)),
                                WeightParams(lam=1.0, s=2.0), g)
    it0 = g.it0 - 1  # interior index of t0
    alpha = bundle.alpha_interior
    assert np.all(np.diff(alpha[..., :it0 + 1], axis=-1) >= 0)
    assert np.all(np.diff(alpha[..., it0:], axis=-1) <= 0)
    phi = bundle.phi_interior
    assert np.all(np.diff(phi[..., :it0 + 1], axis=-1) <= 0)
    assert np.all(np.diff(phi[..., it0:], axis=-1) >= 0)


def test_thm3_sweep_2d_finite():
    g = grid_2d(17, 17)
    ens = generate_ensemble(5, 2, g, max_modes=2, t_degree=2, amplitude=1.0)
    coeffs = COUPLED_2D.sample(g)
    assert max(max_exact_conormal(fld, m2, g, face) for m in ens
               for fld, m2 in ((m.u_field, coeffs.a2), (m.v_field, coeffs.b2))
               for face in g.all_faces()) <= 1e-10
    rep = estimate_constant("THM3", ens, [1.0], [4.0, 8.0], COUPLED_2D, g,
                            refine=False)
    assert rep.invalid == ()
    assert math.isfinite(rep.c_emp) and rep.c_emp > 0


def test_case_ensemble_2d():
    g = grid_2d(17, 17)
    ens = mms_case_ensemble(
        4, 2, g, COUPLED_2D,
        lambda x1, x2: 1.0 + 0.2 * np.cos(np.pi * x1),
        lambda x1, x2: 1.0 - 0.2 * np.cos(np.pi * x2 / 2.0),
        max_modes=2, t_degree=2, amplitude=1.0, q_min=0.02,
    )
    case = ens[0]
    ru, rv = residual("linear", case.u, case.v, coeffs=case.coeffs)
    scale = np.max(np.abs(ru.values))
    assert np.max(np.abs(ru.values - case.F.values)) <= 1e-12 * scale
    assert norm(case.u, "D_gamma") > 0


def test_cli_2d_smoke(tmp_path):
    cfg = tmp_path / "w2.yaml"
    cfg.write_text(
        "experiment: verify-weights\n"
        "grid: {lengths: [1.0, 2.0], nx: [9, 9], nt: 9, gamma: [x1+]}\n"
        "weights: {lambdas: [1.0], s_values: [4.0]}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert cli_main(["verify-weights", "--config", str(cfg),
                     "--out", str(out)]) == 0
    text = (out / "weights.csv").read_text()
    assert "dphi_closed_form_x2" in text

    cfg2 = tmp_path / "sd2.yaml"
    cfg2.write_text(
        "experiment: state-det\n"
        "grid: {lengths: [1.0, 2.0], nx: [9, 9], nt: 9, gamma: [x1+]}\n"
        "ensemble: {seed: 2, n: 1, max_modes: 2, t_degree: 2}\n"
        "statedet: {epsilons: [0.25], refine: false}\n",
        encoding="utf-8",
    )
    out2 = tmp_path / "out2"
    assert cli_main(["state-det", "--config", str(cfg2),
                     "--out", str(out2)]) == 0
