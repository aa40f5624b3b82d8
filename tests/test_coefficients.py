import numpy as np
import pytest

from mfglab.coefficients import (
    CoeffRecipe,
    CoeffSet,
    MmsRejected,
    NonlinearCoeffs,
    SourceFactors,
    apply_operator,
    check_ellipticity,
    conormal_operator,
    operator_terms,
    sample_field,
)
from mfglab.expressions import compile_spacetime
from mfglab.grid import GridFn, build_grid, face_values, parse_face
from mfglab.inverse import derivative_matrix


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


# -- constants held as views, constant-zero terms left out ----------------------


def zero_strides_on_grid(arr, g):
    """Whether ``arr`` repeats one value per leading index over the grid axes."""
    return arr.strides[arr.ndim - len(g.shape):] == (0,) * len(g.shape)


def test_constants_sample_to_views_and_fields_to_arrays():
    g = grid_1d(nx=9, nt=9)
    for spec in (0.5, 3, lambda x, t: np.float64(2.0), compile_spacetime("0.5", 1),
                 compile_spacetime("1 + 2 * 0.25", 1)):
        arr = sample_field(g, spec)
        assert arr.shape == g.shape and zero_strides_on_grid(arr, g)
        assert not arr.flags.writeable
        assert np.array_equal(arr, np.full(g.shape, float(arr.item(0))))
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    for spec in (compile_spacetime("1 + x * t", 1), lambda x, t: 1.0 + 0 * x):
        arr = sample_field(g, spec)
        assert arr.flags.writeable and arr.flags.owndata
        assert not zero_strides_on_grid(arr, g)


@pytest.mark.parametrize("dim", [1, 2])
def test_default_coefficients_are_views(dim):
    g = grid_1d(nx=9, nt=9) if dim == 1 else build_grid((1.0, 1.0), 1.0, (9, 9), 9,
                                                         ["x1+"])
    c = CoeffRecipe().sample(g)
    for name in ("a2", "b2", "a1", "b1", "a0", "b0", "c0"):
        arr = getattr(c, name)
        assert zero_strides_on_grid(arr, g) and not arr.flags.writeable, name
    assert np.array_equal(c.a2[(...,) + (0,) * len(g.shape)], np.eye(dim))
    assert not np.any(c.a1)
    nl = NonlinearCoeffs.sample(g, a=1.0, kappa=0.5, p=0.0)
    assert all(zero_strides_on_grid(getattr(nl, k), g) for k in ("a", "kappa", "p"))


@pytest.mark.parametrize("dim", [1, 2])
def test_operator_terms_leave_out_constant_zeros(dim):
    g = grid_1d(nx=9, nt=9) if dim == 1 else build_grid((1.0, 1.0), 1.0, (9, 9), 9,
                                                         ["x1+"])
    zero = (0,) * dim
    c = CoeffRecipe(b0=0.0, b_gamma={zero: 0.0}).sample(g)
    diagonal = [(i, i) for i in range(dim)]
    assert [axes for _, axes in operator_terms("A", c)] == diagonal
    assert [axes for _, axes in operator_terms("B", c)] == diagonal
    assert operator_terms("A0", c) == []


def mixed_recipe(dim):
    """Constants (zeros among them) next to varying fields in every family."""
    if dim == 1:
        return CoeffRecipe(
            a2=[[lambda x, t: 1.0 + 0.2 * x * t]], a1=[0.0],
            b1=[lambda x, t: np.sin(x) + t], a0=0.0, b0=0.0, c0=0.5,
            b_gamma={(0,): 0.0, (1,): lambda x, t: x - t, (2,): 0.3})
    return CoeffRecipe(
        a2=[[1.0, 0.0], [0.0, 2.0]],
        b2=[[lambda x, y, t: 1.0 + 0.1 * x * t, 0.0], [0.0, lambda x, y, t: 1.5 + y]],
        b1=[0.0, lambda x, y, t: x * y - t], a0=lambda x, y, t: np.sin(x + y + t),
        c0=1.0,
        b_gamma={(0, 0): 0.5, (1, 1): 0.0, (2, 0): lambda x, y, t: x * t,
                 (0, 2): 0.3, (1, 0): 0.0})


def materialized(c):
    """``c`` with every coefficient copied into an array of its own."""
    return CoeffSet(c.grid, *(np.array(getattr(c, k))
                              for k in ("a2", "b2", "a1", "b1", "a0", "b0", "c0")),
                    {k: np.array(v) for k, v in c.b_gamma.items()}, chi=c.chi)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_views_and_left_out_terms_change_no_bit(dim):
    from mfglab.inverse import _operator_matrix
    from mfglab.models import residual

    g = grid_1d(nx=9, nt=9) if dim == 1 else build_grid((1.0, 2.0), 1.0, (9, 11), 9,
                                                         ["x1+", "x2-"])
    c = mixed_recipe(dim).sample(g)
    full = materialized(c)
    rng = np.random.default_rng(5)
    u, v = (GridFn(g, "space-time", rng.normal(size=g.shape)) for _ in range(2))
    for kind in ("A", "B", "A0"):
        assert len(operator_terms(kind, c)) < len(operator_terms(kind, full)), kind
        assert same_bits(apply_operator(kind, u, c).values,
                         apply_operator(kind, u, full).values), kind
        assert same_bits(_operator_matrix(kind, c).toarray(),
                         _operator_matrix(kind, full).toarray()), kind
    for got, want in zip(residual("linear", u, v, coeffs=c),
                         residual("linear", u, v, coeffs=full)):
        assert same_bits(got.values, want.values)
