import math

import numpy as np
import pytest

from mfglab.basis import random_cosine_field
from mfglab.coefficients import CoeffRecipe
from mfglab.grid import GridFn, build_grid, norm
from mfglab.weights import (
    EtaAdmissibilityError,
    WeightBundle,
    WeightParams,
    build_eta,
    check_weight_identities,
    eval_weight_bundle,
)


def grid_1d(nx=65, nt=65, gamma=("x+",)):
    return build_grid(1.0, 1.0, nx, nt, gamma)


def laplacian_eta(g):
    """The weight base under the pure-Laplacian coefficients."""
    return build_eta(g, CoeffRecipe().sample(g))


def weighted_sq(f, b, m=0, lam_power=0):
    """Integral of f^2 (s phi)^m lam^k W over the space-time cylinder."""
    return np.sum(f.grid.st_weights * f.values**2 * b.weight_factor(m, lam_power))


def test_eta_toward_observation_face():
    g = grid_1d()
    eta = laplacian_eta(g)
    assert eta.axis == 0 and eta.side == 1
    assert eta.values[0] == 1.0 and eta.values[-1] == 2.0
    assert eta.grad == (1.0,)


def test_eta_mirrored_for_low_face():
    g = grid_1d(gamma=("x-",))
    eta = laplacian_eta(g)
    assert eta.values[0] == 2.0 and eta.values[-1] == 1.0


def test_eta_2d_tangential_faces_ok():
    g = build_grid((1.0, 1.0), 1.0, (9, 9), 9, ["x1+"])
    eta = laplacian_eta(g)
    assert eta.axis == 0
    assert eta.grad[1] == 0.0


def test_eta_rejected_for_skewed_coefficients():
    g = build_grid((1.0, 1.0), 1.0, (9, 9), 9, ["x1+"])
    # strong off-diagonal entry makes the conormal positive on an x2 face
    c = CoeffRecipe(a2=[[1.0, 0.9], [0.9, 1.0]]).sample(g)
    with pytest.raises(EtaAdmissibilityError, match="conormal"):
        build_eta(g, c)


def test_bundle_scalar_values_match_hand_formulas():
    g = grid_1d()
    eta = laplacian_eta(g)
    b = eval_weight_bundle(eta, WeightParams(lam=1.0, s=5.0), g)
    # phi(0, T/2) = e^1 / 0.25 and alpha(0, T/2) = (e - e^4)/0.25
    assert abs(b.phi_interior[0, g.it0 - 1] - math.e / 0.25) < 1e-10
    alpha00 = -b.h_field[0] / g.ell[g.it0]
    assert abs(alpha00 - (math.e - math.e**4) / 0.25) < 1e-9


def test_weight_normalization_peak():
    g = grid_1d()
    b = eval_weight_bundle(laplacian_eta(g), WeightParams(lam=1.0, s=5.0), g)
    w = b.weight_factor(0, 0)
    assert 0.0 <= w.min() and w.max() <= 1.0
    assert w[..., 0].max() == 0.0 and w[..., -1].max() == 0.0
    # peak value 1 at the spatial argmax of alpha at t0
    assert w[-1, g.it0] == 1.0
    assert b.alpha_max == np.max(b.alpha_interior)


def test_weight_time_symmetry_exact():
    g = grid_1d()
    b = eval_weight_bundle(laplacian_eta(g), WeightParams(lam=2.0, s=8.0), g)
    w = b.w_interior
    assert np.array_equal(w, w[..., ::-1])


def test_degenerate_s_zero_matches_plain_norm():
    g = grid_1d()
    eta = laplacian_eta(g)
    b0 = WeightBundle(eta, WeightParams(lam=3.0, s=0.0), g)
    X, _ = g.meshes()
    f = GridFn(g, "space-time", 1.0 + 0.5 * X)
    assert abs(weighted_sq(f, b0, 0, 0) - norm(f, "L2_Q") ** 2) < 1e-14
    assert abs(weighted_sq(f, b0, 0, 2) - 9.0 * norm(f, "L2_Q") ** 2) < 1e-12


def test_weighted_integral_zero_field():
    g = grid_1d()
    b = eval_weight_bundle(laplacian_eta(g), WeightParams(lam=1.0, s=4.0), g)
    z = GridFn(g, "space-time", np.zeros(g.shape))
    assert weighted_sq(z, b, 2, 1) == 0.0


def test_weighted_integral_fine_grid_oracle():
    # quadrature-resolved regime: the desk-grid value must sit within 1% of a
    # 1025^2 trapezoid; larger s narrows the weight peak below the mesh and
    # the discrete functional departs from the continuum value (measured
    # ~136% at s=5), so both sides of any estimate must share the quadrature.
    g = grid_1d()
    gf = build_grid(1.0, 1.0, 1025, 1025, ["x+"])
    params = WeightParams(lam=1.0, s=0.25)
    b = eval_weight_bundle(laplacian_eta(g), params, g)
    bf = eval_weight_bundle(laplacian_eta(gf), params, gf)
    coarse = weighted_sq(GridFn(g, "space-time", np.ones(g.shape)), b, 1)
    # move the fine weight onto the coarse grid's normalization
    fine = (weighted_sq(GridFn(gf, "space-time", np.ones(gf.shape)), bf, 1)
            * math.exp(2.0 * params.s * (bf.alpha_max - b.alpha_max)))
    assert abs(coarse - fine) / fine < 0.01


def test_identities_report_passes():
    g = grid_1d()
    b = eval_weight_bundle(laplacian_eta(g), WeightParams(lam=2.0, s=8.0), g)
    report = check_weight_identities(b)
    assert report.passed, [c.name for c in report.failures()]
    assert report.by_name("alpha_time_symmetry").value <= 1e-12
    assert report.by_name("dphi_closed_form_x1").value <= 1e-8
    for m in (1, 2, 3, 4):
        assert report.by_name(f"xi_maximizer_m{m}").value <= 1e-6


def test_xi_maximizer_hand_case():
    # m=2, s*C2=1: max (xi^2 e^{-2 xi}) = e^{-2} at xi = 1
    from mfglab.weights import _xi_maximizer_errors

    loc, val = _xi_maximizer_errors(2, 0.5, 2.0)
    assert loc <= 1e-6 and val <= 1e-6


def test_ratio_bound_identity_finite_and_p_independent():
    g = grid_1d()
    b = eval_weight_bundle(laplacian_eta(g), WeightParams(lam=1.5, s=16.0), g)
    rep = check_weight_identities(b)
    vals = [rep.by_name(f"singular_factor_bound_p{p}").value for p in (0, 1, 2)]
    assert all(math.isfinite(v) for v in vals)
    assert max(vals) - min(vals) <= 1e-9 * max(vals)


def test_lambda_overflow_guard():
    g = grid_1d(nx=9, nt=9)
    with pytest.raises(ValueError, match="overflow"):
        eval_weight_bundle(laplacian_eta(g), WeightParams(lam=400.0, s=1.0), g)


def test_params_validation():
    with pytest.raises(ValueError):
        WeightParams(lam=0.0, s=1.0)
    with pytest.raises(ValueError):
        WeightParams(lam=1.0, s=-1.0)
