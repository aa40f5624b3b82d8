import numpy as np
import pytest

from mfglab.coefficients import (
    CoeffRecipe,
    MmsRejected,
    NonlinearCoeffs,
    SourceFactors,
    apply_operator,
    check_ellipticity,
    coefficient_bound,
    conormal_operator,
)
from mfglab.grid import GridFn, build_grid, derivative_matrix, face_values, parse_face


def grid_1d(nx=33, nt=33):
    return build_grid(1.0, 1.0, nx, nt, ["x+"])


def laplacian_coeffs(g, **kw):
    return CoeffRecipe(**kw).sample(g)


def conormal_traces(f, c, which):
    """``conormal_operator`` applied to ``f`` on every face, as traces."""
    g = f.grid
    dx = [derivative_matrix(g.shape, g.spacings, (j,)) for j in range(g.dim)]
    return {face: (conormal_operator(c, which, face, dx) @ f.values.ravel()).reshape(
        face_values(g, f.values, face).shape) for face in g.all_faces()}


def test_ellipticity_identity():
    g = grid_1d()
    c = laplacian_coeffs(g)
    assert check_ellipticity(c) == 1.0


def test_ellipticity_sampled_min():
    g = grid_1d(nx=65)
    field = [[lambda x, t: 2 + np.sin(np.pi * x)]]
    c = CoeffRecipe(a2=field, b2=field).sample(g)
    got = check_ellipticity(c)
    # min over sampled nodes of 2 + sin(pi x) on [0, 1]: attained at x = 0 or 1
    assert abs(got - 2.0) < 1e-12


def test_ellipticity_indefinite_fails():
    g = build_grid((1.0, 1.0), 1.0, (9, 9), 9, ["x1+"])
    c = CoeffRecipe(a2=[[1.0, 0.0], [0.0, -1.0]]).sample(g)
    assert check_ellipticity(c) < 0 < c.chi


def test_ellipticity_requires_symmetry():
    g = build_grid((1.0, 1.0), 1.0, (9, 9), 9, ["x1+"])
    c = CoeffRecipe(a2=[[1.0, 0.5], [0.25, 1.0]]).sample(g)
    with pytest.raises(ValueError, match="symmetric"):
        check_ellipticity(c)


def test_apply_operator_kills_constants():
    g = grid_1d()
    c = laplacian_coeffs(g)
    f = GridFn(g, "space-time", np.ones(g.shape))
    assert np.max(np.abs(apply_operator("A", f, c).values)) == 0.0


def test_apply_operator_laplacian_on_quadratic():
    g = grid_1d()
    X, _ = g.meshes()
    c = laplacian_coeffs(g)
    f = GridFn(g, "space-time", X**2)
    assert np.max(np.abs(apply_operator("A", f, c).values - 2.0)) < 1e-12


def test_apply_operator_linearity():
    g = grid_1d(nx=17, nt=17)
    rng = np.random.default_rng(0)
    c = CoeffRecipe(
        a2=[[lambda x, t: 1 + 0.3 * np.cos(np.pi * x) * t]],
        a1=[lambda x, t: x * t],
        a0=lambda x, t: np.sin(x + t),
    ).sample(g)
    f1 = GridFn(g, "space-time", rng.normal(size=g.shape))
    f2 = GridFn(g, "space-time", rng.normal(size=g.shape))
    lin = GridFn(g, "space-time", 2.0 * f1.values + 3.0 * f2.values)
    lhs = apply_operator("A", lin, c).values
    rhs = 2.0 * apply_operator("A", f1, c).values + 3.0 * apply_operator("A", f2, c).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_a0_identity_coupling():
    g = grid_1d()
    c = CoeffRecipe(b_gamma={(0,): 1.0}).sample(g)
    rng = np.random.default_rng(1)
    f = GridFn(g, "space-time", rng.normal(size=g.shape))
    assert np.array_equal(apply_operator("A0", f, c).values, f.values)


def test_conormal_signs_linear_field():
    g = grid_1d()
    X, _ = g.meshes()
    c = laplacian_coeffs(g)
    f = GridFn(g, "space-time", X.copy())
    tr = conormal_traces(f, c, "A")
    lo = tr[parse_face("x-")]
    hi = tr[parse_face("x+")]
    assert np.max(np.abs(lo + 1.0)) < 1e-12
    assert np.max(np.abs(hi - 1.0)) < 1e-12


def test_conormal_2d_diagonal_scaled():
    g = build_grid((1.0, 1.0), 1.0, (33, 33), 9, ["x1+"])
    X1, X2, _ = g.meshes()
    c = CoeffRecipe(a2=[[1.0, 0.0], [0.0, 2.0]]).sample(g)
    f = GridFn(g, "space-time", np.cos(np.pi * X2))
    tr = conormal_traces(f, c, "A")
    # d2 f = -pi sin(pi x2) vanishes on the x2 faces (stencil-accurate zero)
    for lab in ("x2-", "x2+"):
        assert np.max(np.abs(tr[parse_face(lab)])) < 5e-3
    # cosine in x2 only: x1 faces see a11 * d1 f = 0 exactly
    for lab in ("x1-", "x1+"):
        assert np.max(np.abs(tr[parse_face(lab)])) < 1e-12


def test_coefficient_bound_identity():
    g = grid_1d()
    c = laplacian_coeffs(g)
    assert abs(coefficient_bound(c) - 2.0) < 1e-12
    g2 = build_grid((1.0, 1.0), 1.0, (9, 9), 9, ["x1+"])
    c2 = laplacian_coeffs(g2)
    assert abs(coefficient_bound(c2) - 4.0) < 1e-12


def test_coefficient_bound_additive_in_b0():
    g = grid_1d()
    base = coefficient_bound(laplacian_coeffs(g))
    bumped = coefficient_bound(CoeffRecipe(b0=3.0).sample(g))
    assert abs(bumped - base - 3.0) < 1e-12


def test_coefficient_bound_derivative_term():
    g = grid_1d(nx=129)
    c = CoeffRecipe(a2=[[lambda x, t: 2 + np.sin(np.pi * x)]]).sample(g)
    got = coefficient_bound(c)
    # contribution max|2+sin| + max|pi cos| + identity b-part (1)
    expect = 3.0 + np.pi + 1.0
    assert abs(got - expect) < 2e-3


def test_nonlinear_coeffs_positive_diffusion():
    g = grid_1d(nx=9, nt=9)
    with pytest.raises(ValueError, match="positive"):
        NonlinearCoeffs.sample(g, a=0.0)


def test_source_factors_floor_enforced():
    g = grid_1d(nx=9, nt=9)
    ones = np.ones(g.shape)
    with pytest.raises(MmsRejected, match=r"\|q1\(\., t0\)\| = 0\.01 < q_min=0\.1 at node \(0,\)"):
        SourceFactors(grid=g, q1=0.01 * ones, q2=ones,
                      f=np.ones(g.space_shape), g=np.ones(g.space_shape))
