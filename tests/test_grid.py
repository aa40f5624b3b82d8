import math

import numpy as np
import pytest

from mfglab.grid import (
    GridFn,
    _fsum_quad,
    build_grid,
    diff,
    face_quad_weights,
    face_values,
    gamma_jets,
    norm,
    parse_face,
)
from mfglab.statedet import trace_data_norms


def grid_1d(nx=65, nt=65, gamma=("x+",)):
    return build_grid(1.0, 1.0, nx, nt, gamma)


def test_build_grid_arithmetic():
    g = grid_1d()
    assert g.hs == (1.0 / 64,)
    assert g.tau == 1.0 / 64
    assert g.it0 == 32
    assert g.ts[g.it0] == 0.5


def test_build_grid_2d_spacings():
    g = build_grid((1.0, 2.0), 1.0, (33, 33), 33, ["x1+"])
    assert g.hs == (1.0 / 32, 2.0 / 32)
    assert g.dim == 2


def test_even_nt_rejected():
    with pytest.raises(ValueError, match="nt"):
        build_grid(1.0, 1.0, 65, 64, ["x+"])


def test_empty_gamma_rejected():
    with pytest.raises(ValueError, match="gamma"):
        build_grid(1.0, 1.0, 65, 65, [])


def test_small_nx_rejected():
    with pytest.raises(ValueError, match="nx"):
        build_grid(1.0, 1.0, 4, 65, ["x+"])


def test_parse_face_aliases():
    assert parse_face("x+") == parse_face("x1+")
    assert parse_face("x2-").axis == 1
    with pytest.raises(ValueError):
        parse_face("y+")


def test_ell_exactly_time_symmetric():
    g = grid_1d()
    assert np.array_equal(g.ell, g.ell[::-1])


def test_diff_constant_is_zero():
    g = grid_1d()
    f = GridFn(g, "space-time", np.ones(g.shape))
    assert np.all(diff(f, t_order=1).values == 0.0)


def test_diff_exact_on_quadratics():
    g = grid_1d()
    X, T = g.meshes()
    f = GridFn(g, "space-time", X**2)
    assert np.max(np.abs(diff(f, x=(0, 0)).values - 2.0)) < 1e-12
    ft = GridFn(g, "space-time", T**2 + 3 * T)
    assert np.max(np.abs(diff(ft, t_order=1).values - (2 * T + 3))) < 1e-11


def test_diff_mixed_2d_exact_on_bilinear():
    g = build_grid((1.0, 1.0), 1.0, (17, 17), 17, ["x1+"])
    X1, X2, T = g.meshes()
    f = GridFn(g, "space-time", X1 * X2)
    assert np.max(np.abs(diff(f, x=(0, 1)).values - 1.0)) < 1e-12


def test_diff_measured_order_two():
    errs = []
    for nx in (65, 129, 257):
        g = build_grid(1.0, 1.0, nx, 9, ["x+"])
        X, _ = g.meshes()
        f = GridFn(g, "space-time", np.sin(np.pi * X))
        errs.append(np.max(np.abs(diff(f, x=(0,)).values - np.pi * np.cos(np.pi * X))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders)


def test_diff_axis_out_of_range():
    g = grid_1d()
    f = GridFn(g, "space-time", np.zeros(g.shape))
    with pytest.raises(ValueError):
        diff(f, x=(0, 1))


def test_norms_zero_function():
    g = grid_1d()
    z = GridFn(g, "space-time", np.zeros(g.shape))
    for kind in ("L2_Q", "H21_Q", "D_gamma"):
        assert norm(z, kind) == 0.0
    assert norm(z, "H21_interior", eps=0.1) == 0.0


def test_l2q_constant_exact():
    g = grid_1d()
    f = GridFn(g, "space-time", np.ones(g.shape))
    assert abs(norm(f, "L2_Q") - 1.0) < 1e-14


def test_d_gamma_cosine_hand_value():
    # integrand at x=1: |d_t f|^2 + |d_x f|^2 + |f|^2 = 0 + ~0 + 1 -> sqrt(T)
    g = grid_1d()
    X, _ = g.meshes()
    f = GridFn(g, "space-time", np.cos(np.pi * X))
    assert abs(norm(f, "D_gamma") - math.sqrt(g.T)) < 1e-7


def test_h21_reassembly_matches():
    g = grid_1d(nx=33, nt=33)
    X, T = g.meshes()
    f = GridFn(g, "space-time", np.cos(np.pi * X) * (1 + T + T**2))
    total = norm(f, "H21_Q") ** 2
    parts = (
        norm(f, "L2_Q") ** 2
        + norm(diff(f, x=(0,)), "L2_Q") ** 2
        + norm(diff(f, x=(0, 0)), "L2_Q") ** 2
        + norm(diff(f, t_order=1), "L2_Q") ** 2
    )
    assert abs(total - parts) <= 1e-12 * max(total, 1.0)


def test_h21_interior_monotone_in_eps():
    g = grid_1d(nx=33)
    rng = np.random.default_rng(3)
    f = GridFn(g, "space-time", rng.normal(size=g.shape))
    eps_grid = [0.05, 0.1, 0.2, 0.3, 0.4]
    vals = [norm(f, "H21_interior", eps=e) for e in eps_grid]
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def exact_sum_inputs():
    """Fixed-seed arrays: sizes 1 to 20k, exponent spreads up to 1e+-300,
    cancellation, zeros, subnormals."""
    rng = np.random.default_rng(2008)
    for i, spread in enumerate([0, 1, 16, 50, 150, 300] * 12):
        n = int(rng.integers(1, 20_000 if i % 6 == 0 else 400))
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-spread, spread, n)
        if i % 3 == 1:
            a[rng.integers(0, n, n // 3 + 1)] = 0.0
        if i % 4 == 2:
            a = np.concatenate([a, -a[: n // 2]])  # exact cancellation
        yield a
    yield rng.standard_normal((33, 17)) ** 2 * 1e-3  # a 2-D quadrature array
    yield np.array([5e-324, 5e-324, -1e-320, 2.5e-308])
    yield np.full(1000, 5e-324)
    yield rng.standard_normal(500) * 1e-310
    yield np.array([1e308, 1e307, -1e308])
    yield np.array([1e300, -1e300, 1e-300])
    for zeros in (np.zeros(7), -np.zeros(7), np.array([0.0, -0.0]), np.zeros(0)):
        yield zeros


def crafted_ties():
    """Sums that land on or next to a rounding tie of 1."""
    for k in range(-8, 9):
        yield np.array([1.0, 2.0**-53 * k, 2.0**-60])
        yield np.array([1.0, 2.0**-53 * k, -(2.0**-60)])
        yield np.array([1.0, 2.0**-53, 2.0**-106 * k, 2.0**-200])


def test_exact_sum_equals_fsum_bitwise():
    for a in [*exact_sum_inputs(), *crafted_ties()]:
        assert same_float(_fsum_quad(a), math.fsum(a.ravel().tolist())), a


def test_exact_sum_special_values_as_fsum():
    assert math.isnan(_fsum_quad(np.array([1.0, np.nan])))
    assert _fsum_quad(np.array([np.inf, 1.0, 5.0])) == math.inf
    for a, err in ((np.array([np.inf, -np.inf]), ValueError),
                   (np.array([1e308, 1e308, -1e308]), OverflowError)):
        with pytest.raises(err):
            math.fsum(a.tolist())
        with pytest.raises(err):
            _fsum_quad(a)


def test_h21_interior_eps_validation():
    g = grid_1d()
    f = GridFn(g, "space-time", np.zeros(g.shape))
    with pytest.raises(ValueError):
        norm(f, "H21_interior", eps=0.6)
    with pytest.raises(ValueError):
        norm(f, "H21_interior")


def test_norm_kind_mismatch_rejected():
    g = grid_1d()
    s = GridFn(g, "spatial-slice", np.zeros(g.space_shape))
    with pytest.raises(ValueError):
        norm(s, "L2_Q")
    f = GridFn(g, "space-time", np.zeros(g.shape))
    with pytest.raises(ValueError):
        norm(f, "H2_slice")


def test_gridfn_shape_and_finite_validation():
    g = grid_1d()
    with pytest.raises(ValueError):
        GridFn(g, "space-time", np.zeros((3, 3)))
    bad = np.zeros(g.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        GridFn(g, "space-time", bad)


def test_face_values_and_weights_2d():
    g = build_grid((1.0, 2.0), 1.0, (9, 17), 9, ["x1+"])
    vals = np.arange(np.prod(g.shape), dtype=float).reshape(g.shape)
    face = parse_face("x1+")
    fv = face_values(g, vals, face)
    assert fv.shape == (17, 9)
    w = face_quad_weights(g, face)
    # tangential axis has length 2 -> weights sum to 2, time to T=1
    assert abs(w.sum() - 2.0 * 1.0) < 1e-12


ALL_FACES_1D = ("x-", "x+")
ALL_FACES_2D = ("x1-", "x1+", "x2-", "x2+")


# 9x17 on 1x2 has equal steps; 9x13 also tells the two spatial steps apart
@pytest.mark.parametrize("lengths,nx,gamma", [(1.0, 5, ALL_FACES_1D),
                                              (1.0, 33, ALL_FACES_1D),
                                              ((1.0, 2.0), (9, 17), ALL_FACES_2D),
                                              ((1.0, 2.0), (9, 13), ALL_FACES_2D)])
def test_gamma_jets_equal_faces_of_diff(lengths, nx, gamma):
    g = build_grid(lengths, 1.0, nx, 9, gamma)
    f = GridFn(g, "space-time", np.random.default_rng(16).normal(size=g.shape))
    dt = diff(f, t_order=1).values
    grads = [diff(f, x=(i,)).values for i in range(g.dim)]
    jets = gamma_jets(g, f.values)
    assert list(jets) == sorted(g.gamma)
    for face, jet in jets.items():
        assert np.array_equal(jet.value, face_values(g, f.values, face))
        assert np.array_equal(jet.dt, face_values(g, dt, face))
        assert len(jet.grad) == g.dim
        for gv, gr in zip(jet.grad, grads):
            assert np.array_equal(gv, face_values(g, gr, face))
    # the whole-field formulas the face functionals replaced
    d_gamma = 0.0
    h1_sq = grad_sq = 0.0
    for face in sorted(g.gamma):
        w = face_quad_weights(g, face)
        fv, ft = face_values(g, f.values, face), face_values(g, dt, face)
        integ = ft ** 2 + fv ** 2
        h1_sq += float(np.sum(w * (fv * fv + ft * ft)))
        for gr in grads:
            gv = face_values(g, gr, face)
            integ = integ + gv ** 2
            grad_sq += float(np.sum(w * gv * gv))
        d_gamma += float(np.sum(w * integ))
    assert norm(f, "D_gamma") == math.sqrt(d_gamma)
    assert trace_data_norms(f) == (math.sqrt(h1_sq), math.sqrt(grad_sq))


def test_refined_grid():
    g = grid_1d()
    f = g.refined(2)
    assert f.nx == (129,) and f.nt == 129
    assert f.gamma == g.gamma
