import math

import numpy as np
import pytest

from mfglab.basis import SeparableField, Term
from mfglab.coefficients import CoeffRecipe, NonlinearCoeffs
from mfglab.grid import GridFn, build_grid, norm
from mfglab.models import (
    MmsRejected,
    analytic_linear_residuals,
    make_nonlinear_pair,
    mms_case_ensemble,
    mms_linear,
    residual,
)

COUPLED = CoeffRecipe(c0=1.0, b_gamma={(0,): 0.5, (2,): 0.3})


def case_fields():
    u = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (1,), 0),
                                     Term(1.0, ("cos",), (1,), 1),
                                     Term(0.5, ("cos",), (2,), 2)))
    v = SeparableField((1.0,), 1.0, (Term(2.0, ("cos",), (2,), 0),
                                     Term(-1.0, ("cos",), (2,), 1),
                                     Term(0.4, ("cos",), (1,), 3)))
    return u, v


def build_case(n=33, q_mode="discrete"):
    g = build_grid(1.0, 1.0, n, n, ["x+"])
    coeffs = COUPLED.sample(g)
    u_f, v_f = case_fields()
    f = 1.0 + 0.3 * np.cos(np.pi * g.xs[0])
    gg = 1.0 - 0.3 * np.cos(np.pi * g.xs[0])
    return mms_linear(u_f, v_f, coeffs, f, gg, q_min=0.05, q_mode=q_mode)


def test_residual_round_trip_exact():
    case = build_case()
    ru, rv = residual("linear", case.u, case.v, coeffs=case.coeffs)
    scale = np.max(np.abs(ru.values))
    assert np.max(np.abs(ru.values - case.F.values)) <= 1e-12 * scale
    assert np.max(np.abs(rv.values - case.G.values)) <= 1e-12 * scale


def test_factorization_identity_exact():
    case = build_case()
    src = case.sources
    f_ext = src.f[..., None]
    scale = np.max(np.abs(case.F.values))
    assert np.max(np.abs(src.q1 * f_ext - case.F.values)) <= 1e-12 * scale


def test_zero_states_rejected_by_q_floor():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    coeffs = COUPLED.sample(g)
    zero = SeparableField((1.0,), 1.0, ())
    ones = np.ones(g.space_shape)
    with pytest.raises(MmsRejected, match="q_min|q1"):
        mms_linear(zero, zero, coeffs, ones, ones)


def test_vanishing_f_rejected():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    coeffs = COUPLED.sample(g)
    u_f, v_f = case_fields()
    f = np.cos(np.pi * g.xs[0])  # vanishes mid-domain
    with pytest.raises(MmsRejected, match="bounded away"):
        mms_linear(u_f, v_f, coeffs, f, np.ones(g.space_shape))


def test_scaling_f_halves_q():
    case = build_case()
    g = case.grid
    u_f, v_f = case_fields()
    f2 = 2.0 * case.sources.f
    case2 = mms_linear(u_f, v_f, case.coeffs, f2, case.sources.g, q_min=0.02)
    assert np.allclose(case2.F.values, case.F.values, atol=1e-14)
    assert np.allclose(case2.sources.q1, 0.5 * case.sources.q1, atol=1e-14)


def test_non_diagonal_principal_rejected():
    g = build_grid((1.0, 1.0), 1.0, (9, 9), 9, ["x1+"])
    coeffs = CoeffRecipe(a2=[[1.0, 0.3], [0.3, 1.0]]).sample(g)
    u_f = SeparableField(g.lengths, 1.0, (Term(1.0, ("cos", "cos"), (1, 0), 1),))
    with pytest.raises(MmsRejected, match="conormal"):
        mms_linear(u_f, u_f, coeffs, np.ones(g.space_shape), np.ones(g.space_shape))


def test_mms_convergence_order_in_window():
    # time-error-dominated recipe: orders sit near 2 (measured 2.04, 2.02)
    uf = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (0,), 3),
                                      Term(0.01, ("cos",), (1,), 1)))
    vf = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (0,), 2),
                                      Term(-0.5, ("cos",), (0,), 3),
                                      Term(0.01, ("cos",), (1,), 1)))
    errs = []
    for n in (33, 65, 129):
        g = build_grid(1.0, 1.0, n, n, ["x+"])
        c = COUPLED.sample(g)
        fd, gd = residual("linear", uf.sample(g), vf.sample(g), coeffs=c)
        fa, ga = analytic_linear_residuals(uf, vf, c)
        err = math.sqrt(
            norm(GridFn(g, "space-time", fd.values - fa), "L2_Q") ** 2
            + norm(GridFn(g, "space-time", gd.values - ga), "L2_Q") ** 2
        )
        errs.append(err)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_nonlinear_reduces_to_heat():
    g = build_grid(1.0, 1.0, 33, 33, ["x+"])
    rng_u, rng_v = case_fields()
    u, v = rng_u.sample(g), rng_v.sample(g)
    nl = NonlinearCoeffs.sample(g, a=1.0, kappa=0.0, p=0.0)
    ru_nl, rv_nl = residual("nonlinear", u, v, nl=nl)
    heat = CoeffRecipe().sample(g)  # A = B = Laplacian, no couplings
    ru_l, rv_l = residual("linear", u, v, coeffs=heat)
    scale = max(np.max(np.abs(ru_l.values)), 1.0)
    assert np.max(np.abs(ru_nl.values - ru_l.values)) <= 1e-12 * scale
    assert np.max(np.abs(rv_nl.values - rv_l.values)) <= 1e-12 * scale


def test_nonlinear_gradient_term_hand_value():
    g = build_grid(1.0, 1.0, 33, 33, ["x+"])
    X, T = g.meshes()
    u = GridFn(g, "space-time", X**2)
    v = GridFn(g, "space-time", np.zeros(g.shape))
    nl = NonlinearCoeffs.sample(g, a=1.0, kappa=2.0, p=0.0)
    ru, _ = residual("nonlinear", u, v, nl=nl)
    # d_t u = 0, a lap u = 2, -(1/2) k |grad u|^2 = -(2x)^2 = -4x^2 exactly
    assert np.max(np.abs(ru.values - (2.0 - 4.0 * X**2))) < 1e-11


def test_case_ensemble_deterministic_and_resample():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    kwargs = dict(max_modes=2, t_degree=2, amplitude=1.0, q_min=0.05)
    e1 = mms_case_ensemble(3, 4, g, COUPLED, 1.0, 1.0, **kwargs)
    e2 = mms_case_ensemble(3, 4, g, COUPLED, 1.0, 1.0, **kwargs)
    assert len(e1) == 4
    for a, b in zip(e1.cases, e2.cases):
        assert np.array_equal(a.u.values, b.u.values)
    fine = e1.cases[0].resample(g.refined(2))
    assert fine.grid.nx == (33,)
    assert fine.u_field == e1.cases[0].u_field


def test_nonlinear_pair_bounds_monotone():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    nl = NonlinearCoeffs.sample(g, a=1.0, kappa=0.5, p=0.2)
    u1, v1 = case_fields()
    u2 = u1.scaled(0.5)
    v2 = v1.scaled(0.5)
    small = make_nonlinear_pair(u1, v1, u2, v2, nl)
    big = make_nonlinear_pair(u1.scaled(2.0), v1.scaled(2.0),
                              u2.scaled(2.0), v2.scaled(2.0), nl)
    assert big.m1 > small.m1 > 0
