import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from mfglab import inverse
from mfglab.basis import SeparableField, Term
from mfglab.coefficients import CoeffRecipe, CoeffSet, apply_operator
from mfglab.grid import (
    SPACE_TIME,
    GridFn,
    build_grid,
    diff,
    face_values,
    node_index,
)
from mfglab.models import mms_case_ensemble, mms_linear
from mfglab.inverse import (
    InverseData,
    ReconstructionConfig,
    derivative_matrix,
    direct_formula_oracle,
    make_inverse_data,
    reconstruct,
    stability_sweep,
)
from mfglab.reports import recording

COUPLED = CoeffRecipe(c0=1.0, b_gamma={(0,): 0.5, (2,): 0.3})

# weights used by the stability experiments: exact rows (pde residual,
# interior slices, conormal hypothesis) dominate the noisy traces
TUNED = ReconstructionConfig(omega_pde=10.0, omega_gamma=1.0,
                             omega_slice=1000.0, omega_bc=1000.0,
                             beta=1e-10)


def case_fields():
    u = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (1,), 0),
                                     Term(1.0, ("cos",), (1,), 1),
                                     Term(0.5, ("cos",), (2,), 2)))
    v = SeparableField((1.0,), 1.0, (Term(2.0, ("cos",), (2,), 0),
                                     Term(-1.0, ("cos",), (2,), 1),
                                     Term(0.4, ("cos",), (1,), 3)))
    return u, v


def build_case(n=33, gamma=("x-", "x+"), q_mode="discrete"):
    g = build_grid(1.0, 1.0, n, n, list(gamma))
    coeffs = COUPLED.sample(g)
    u_f, v_f = case_fields()
    f = 1.0 + 0.3 * np.cos(np.pi * g.xs[0])
    gg = 1.0 - 0.3 * np.cos(np.pi * g.xs[0])
    case = mms_linear(u_f, v_f, coeffs, f, gg, q_min=0.05, q_mode=q_mode)
    return case, f, gg


def state_traces(case):
    """The face restrictions on gamma of the states and of their time
    derivatives, by trace key."""
    g = case.grid
    states = {"u": case.u, "v": case.v,
              "ut": diff(case.u, t_order=1), "vt": diff(case.v, t_order=1)}
    return {key: {face: face_values(g, fn.values, face) for face in sorted(g.gamma)}
            for key, fn in states.items()}


@pytest.mark.parametrize("build", [lambda: build_case(n=17), lambda: discrete_case_2d()],
                         ids=["1d", "2d"])
def test_clean_data_bit_exact(build):
    case, _, _ = build()
    data = make_inverse_data(case, 0.0, 0)
    want = state_traces(case)
    assert list(data.traces) == list(inverse.TRACE_KEYS)
    for key in inverse.TRACE_KEYS:
        assert list(data.traces[key]) == sorted(case.grid.gamma)
        for face, arr in data.traces[key].items():
            assert np.array_equal(arr, want[key][face]), (key, face)
    assert np.array_equal(data.u0, case.u.values[..., case.grid.it0])
    assert np.array_equal(data.v0, case.v.values[..., case.grid.it0])


def test_noise_reproducible_and_seed_dependent():
    case, _, _ = build_case(n=17)
    a = make_inverse_data(case, 0.01, 5)
    b = make_inverse_data(case, 0.01, 5)
    c = make_inverse_data(case, 0.01, 6)
    face = sorted(a.traces["u"])[0]
    assert np.array_equal(a.traces["u"][face], b.traces["u"][face])
    assert not np.array_equal(a.traces["u"][face], c.traces["u"][face])


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -0.01])
def test_noise_level_must_be_finite_and_non_negative(delta):
    # nan fails both ``delta < 0`` and the noise scale's ``> 0``, so an
    # unchecked nan would return the clean traces
    case, _, _ = build_case(n=17)
    with pytest.raises(ValueError, match="delta must be finite and >= 0"):
        make_inverse_data(case, delta, 0)


def test_noise_std_matches_target():
    # needs >= 1e3 samples per array: long time axis
    g = build_grid(1.0, 1.0, 9, 1025, ["x+"])
    coeffs = COUPLED.sample(g)
    u_f, v_f = case_fields()
    f = 1.0 + 0.3 * np.cos(np.pi * g.xs[0])
    gg = 1.0 - 0.3 * np.cos(np.pi * g.xs[0])
    case = mms_linear(u_f, v_f, coeffs, f, gg, q_min=0.02)
    delta = 0.01
    data = make_inverse_data(case, delta, 3)
    face = sorted(case.grid.gamma)[0]
    clean = face_values(case.grid, case.u.values, face)
    noise = data.traces["u"][face] - clean
    target = delta * np.max(np.abs(clean))
    assert abs(np.std(noise) - target) <= 0.1 * target


def test_noisy_slices_switch():
    case, _, _ = build_case(n=17)
    u0 = case.u.values[..., case.grid.it0]
    data = make_inverse_data(case, 0.05, 1, noisy_slices=False)
    assert np.array_equal(data.u0, u0)
    data2 = make_inverse_data(case, 0.05, 1, noisy_slices=True)
    assert not np.array_equal(data2.u0, u0)


def test_reconstruct_clean_data_accurate():
    case, f, gg = build_case(n=33)
    res = reconstruct(make_inverse_data(case, 0.0, 0), TUNED, truth=(f, gg))
    assert res.converged
    assert res.rel_err_f <= 5e-3
    assert res.rel_err_g <= 1e-2
    # consistent data: the pde block sits at solver-tolerance level
    assert res.objective_terms["pde_u"] <= 1e-6


def test_reconstruct_records_its_stages():
    case, _, _ = build_case(n=17)
    with recording() as timings:
        reconstruct(make_inverse_data(case, 0.0, 0), TUNED)
    assert set(timings) == {"assemble_s", "factor_s", "eliminate_s", "qr_svd_s",
                            "solve_s"}
    assert all(v >= 0.0 for v in timings.values())


def assembled(data, cfg):
    """The weighted rows A, data b and ridge weights beta * W of the whole
    quadratic J(x) = |A x - b|^2 + beta z^T W z, built from the blocks."""
    blocks, dim_x = inverse._build_blocks(data, cfg)
    sw = np.concatenate([np.sqrt(blk.omega * blk.m) for blk in blocks])
    A = sp.diags(sw) @ sp.vstack([blk.L for blk in blocks], format="csr")
    b = sw * np.concatenate([blk.rhs(data) for blk in blocks])
    ridge = np.zeros(dim_x)
    n_src = 2 * data.grid.space_weights.size
    ridge[-n_src:] = cfg.beta * np.tile(data.grid.space_weights.ravel(), 2)
    return A, b, ridge


def objective(A, b, ridge, x):
    r = A @ x - b
    return float(r @ r + x @ (ridge * x))


def normal_residual(A, b, ridge, x):
    return (np.linalg.norm(A.T @ (A @ x - b) + ridge * x)
            / np.linalg.norm(A.T @ b))


def solution(res):
    return np.concatenate([res.u_hat.values.ravel(), res.v_hat.values.ravel(),
                           res.f_hat.values.ravel(), res.g_hat.values.ravel()])


def test_result_is_optimal():
    case, f, gg = build_case(n=17)
    data = make_inverse_data(case, 0.01, 2)
    cfg = dataclasses.replace(TUNED, beta=1e-4)
    res = reconstruct(data, cfg)
    A, b, ridge = assembled(data, cfg)
    x = solution(res)
    j_hat = objective(A, b, ridge, x)
    assert abs(res.objective - j_hat) <= 1e-10 * j_hat
    assert normal_residual(A, b, ridge, x) <= cfg.tol
    rng = np.random.default_rng(4)
    for _ in range(5):
        step = 1e-6 * np.max(np.abs(x)) * rng.standard_normal(x.size)
        assert j_hat <= objective(A, b, ridge, x + step)


def test_normal_residual_separates_optimum_from_perturbation():
    case, f, gg = build_case(n=17)
    data = make_inverse_data(case, 0.01, 1, noisy_slices=False)
    cfg = dataclasses.replace(TUNED, beta=1e-4)
    res = reconstruct(data, cfg)
    assert res.converged and res.normal_residual <= cfg.tol
    A, b, ridge = assembled(data, cfg)
    x = solution(res)
    assert normal_residual(A, b, ridge, x) <= cfg.tol
    n_src = 2 * f.size
    bumped = x.copy()
    # measured: 2.2e-12 at the result, 2.8e-5 after this 1e-6 relative bump
    bumped[-n_src:] *= 1.0 + 1e-6 * np.random.default_rng(0).standard_normal(n_src)
    assert normal_residual(A, b, ridge, bumped) > cfg.tol
    # a tolerance below the attained residual is reported, not met
    strict = reconstruct(data, dataclasses.replace(cfg, tol=1e-14))
    assert not strict.converged
    assert any("above tol" in fl for fl in strict.flags)


def test_beta_zero_matches_lstsq():
    case, f, gg = build_case(n=17)
    data = make_inverse_data(case, 0.01, 0)
    cfg = dataclasses.replace(TUNED, beta=0.0)
    A, b, _ = assembled(data, cfg)
    x_ls = np.linalg.lstsq(A.toarray(), b, rcond=None)[0]
    x = solution(reconstruct(data, cfg))
    assert np.linalg.norm(x - x_ls) <= 1e-10 * np.linalg.norm(x_ls)


def test_oversized_reduction_raises_with_size(monkeypatch):
    case, f, gg = build_case(n=17)
    monkeypatch.setattr(inverse, "_DENSE_LIMIT", 1000)
    with pytest.raises(MemoryError, match="34 sources"):
        reconstruct(make_inverse_data(case, 0.0, 0), TUNED)


def test_factor_alone_trips_size_guard_before_factoring(monkeypatch):
    case, f, gg = build_case(n=17)
    data = make_inverse_data(case, 0.0, 0)
    blocks, _ = inverse._build_blocks(data, TUNED)
    r0_entries = sum(blk.L.shape[0] for blk in blocks) * 2 * f.size
    # what the packed factor allocates for 17 levels of 34 unknowns: 9 slots
    # of two inverse triangles and 16 sub-diagonal blocks, each 34 x 34, and
    # the diagonals of the 17 inverse triangles and of K_{k,k-2}
    assert (2 * f.size, case.grid.nt) == (34, 17)
    factor_entries = (9 + 16) * 34**2 + 2 * 34 * 17
    # the reduced source matrix fits, the factor on top of it does not
    monkeypatch.setattr(inverse, "_DENSE_LIMIT", r0_entries + factor_entries - 1)

    def factor(*args):
        raise AssertionError("factored before the size check")

    monkeypatch.setattr(inverse, "_LevelCholesky", factor)
    with pytest.raises(MemoryError, match=r"state factor \(9 packed \+ 16 sub\) x 34\^2 blocks "
                       r"and 2 x 34 x 17 diagonals = 3.01e\+04 entries .* 34 sources"):
        inverse.reduce_sources(data, TUNED)


def test_q_scaling_halves_recovered_factor():
    case, f, gg = build_case(n=17)
    data = make_inverse_data(case, 0.0, 0)
    doubled = InverseData(
        grid=data.grid, coeffs=data.coeffs, traces=data.traces,
        u0=data.u0, v0=data.v0, q1=2.0 * data.q1, q2=data.q2,
        delta=0.0, seed=0,
    )
    base = reconstruct(data, TUNED, truth=(f, gg))
    res = reconstruct(doubled, TUNED, truth=(0.5 * f, gg))
    # factorization identity: same data with doubled modulation halves f-hat
    scale = np.max(np.abs(base.f_hat.values))
    assert np.max(np.abs(res.f_hat.values - 0.5 * base.f_hat.values)) <= 1e-8 * scale
    assert res.rel_err_f <= 5e-2


def test_reconstruct_linearity_in_data():
    case, f, gg = build_case(n=17)
    res1 = reconstruct(make_inverse_data(case, 0.0, 0), TUNED)
    res2 = reconstruct(make_inverse_data(case.scaled(3.0), 0.0, 0), TUNED)
    scale = np.max(np.abs(res2.f_hat.values))
    assert np.max(np.abs(res2.f_hat.values - 3.0 * res1.f_hat.values)) \
        <= 1e-8 * scale


def test_beta_zero_with_noise_flagged():
    case, f, gg = build_case(n=17)
    cfg = dataclasses.replace(TUNED, beta=0.0)
    res = reconstruct(make_inverse_data(case, 0.01, 0), cfg)
    assert any("ill-advised" in fl for fl in res.flags)


def test_oracle_exact_on_discrete_case():
    case, f, gg = build_case(n=33)
    fo, go = direct_formula_oracle(case)
    assert np.max(np.abs(fo.values - f)) <= 1e-12 * np.max(np.abs(f))
    assert np.max(np.abs(go.values - gg)) <= 1e-12 * np.max(np.abs(gg))


def test_oracle_decoupled_uses_only_u_data():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    coeffs = CoeffRecipe().sample(g)  # c0 = 0, A0 = 0
    u_f, v_f = case_fields()
    f = 1.0 + 0.3 * np.cos(np.pi * g.xs[0])
    gg = 1.0 - 0.3 * np.cos(np.pi * g.xs[0])
    case = mms_linear(u_f, v_f, coeffs, f, gg, q_min=0.02)
    alt_v = SeparableField((1.0,), 1.0, (Term(2.0, ("cos",), (2,), 0),
                                         Term(-1.0, ("cos",), (2,), 1),
                                         Term(0.3, ("cos",), (1,), 2)))
    case2 = mms_linear(u_f, alt_v, coeffs, f, gg, q_min=0.02)
    f1, _ = direct_formula_oracle(case)
    f2, _ = direct_formula_oracle(case2)
    assert np.array_equal(f1.values, f2.values)


def test_oracle_order_on_analytic_cases():
    # measured orders 2.00, 2.00 for this time-dominated recipe
    uf = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (0,), 3),
                                      Term(0.01, ("cos",), (1,), 1)))
    vf = SeparableField((1.0,), 1.0, (Term(1.0, ("cos",), (0,), 2),
                                      Term(-0.5, ("cos",), (0,), 3),
                                      Term(0.01, ("cos",), (1,), 1)))
    errs = []
    for n in (33, 65, 129):
        g = build_grid(1.0, 1.0, n, n, ["x+"])
        coeffs = COUPLED.sample(g)
        f = 1.0 + 0.3 * np.cos(np.pi * g.xs[0])
        gg = 1.0 - 0.3 * np.cos(np.pi * g.xs[0])
        case = mms_linear(uf, vf, coeffs, f, gg, q_min=0.05, q_mode="analytic")
        fo, go = direct_formula_oracle(case)
        errs.append(math.sqrt(float(np.sum(
            g.space_weights * ((fo.values - f) ** 2 + (go.values - gg) ** 2)))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_weak_modulation_rejected_upstream():
    # the t0 floor is an invariant of the source package itself
    case, f, gg = build_case(n=17)
    with pytest.raises(ValueError, match="q_min"):
        dataclasses.replace(case.sources, q1=1e-4 * case.sources.q1)


def test_sweep_guards():
    case, _, _ = build_case(n=17)
    with pytest.raises(ValueError, match="4"):
        stability_sweep(case, [1e-2, 1e-1, 1.0])
    with pytest.raises(ValueError, match="positive"):
        stability_sweep(case, [0.0, 1e-3, 1e-2, 1e-1])
    with pytest.raises(ValueError, match="decades"):
        stability_sweep(case, [1e-2, 2e-2, 4e-2, 8e-2])
    with pytest.raises(ValueError, match="seeds"):
        stability_sweep(case, [1e-3, 1e-2, 5e-2, 1e-1], seeds=(0,))


def test_sweep_report_structure():
    case, _, _ = build_case(n=17)
    cfg = TUNED
    rep = stability_sweep(case, [1e-3, 1e-2, 3e-2, 1e-1], cfg, seeds=(0, 1, 2))
    assert len(rep.rows) == 12
    assert set(rep.per_seed_slopes) == {0, 1, 2}
    assert math.isfinite(rep.slope) and math.isfinite(rep.r2)
    assert rep.excluded == ()
    # determinism of the whole sweep
    rep2 = stability_sweep(case, [1e-3, 1e-2, 3e-2, 1e-1], cfg, seeds=(0, 1, 2))
    assert rep.rows == rep2.rows


def test_sweep_summary_reports_the_shared_spectrum(tmp_path):
    """The sweep report carries the spectrum of its one reduction; the CLI
    summary gives its ends and, per delta, the components the ridge damps,
    all outside output_hash."""
    import json

    from mfglab.cli import main

    case, _, _ = build_case(n=17)
    deltas = [1e-3, 1e-2, 3e-2, 1e-1]
    rep = stability_sweep(case, deltas, TUNED, seeds=(0, 1, 2))
    red = inverse.reduce_sources(make_inverse_data(case, 0.0, 0), TUNED)
    assert np.array_equal(rep.singular_values, red.s)

    cfg = tmp_path / "s.yaml"
    cfg.write_text(
        "experiment: stability-sweep\n"
        "grid: {nx: [17], nt: 17, gamma: [x-, x+]}\n"
        "ensemble: {seed: 3, n: 1, max_modes: 2, t_degree: 2}\n"
        "sources: {q_min: 0.02}\n"
        "inverse: {deltas: [1.0e-3, 1.0e-2, 3.0e-2, 1.0e-1], seeds: [0, 1, 2],"
        " beta_scale: 100.0, omega_bc: 1000.0, omega_slice: 1000.0, omega_gamma: 1.0,"
        " omega_pde: 10.0}\n",
        encoding="utf-8")
    assert main(["stability-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    summary = report["summary"]
    assert summary["s_max"] >= summary["s_min"] > 0
    betas = {row[0]: row[5] for row in report["tables"]["sweep"]["rows"]}
    assert list(summary["ridge_damped"]) == [repr(d) for d in deltas]
    counts = list(summary["ridge_damped"].values())
    assert counts == sorted(counts) and counts[-1] > counts[0]
    for d, count in summary["ridge_damped"].items():
        assert 0 <= count <= 2 * 17
        assert (count == 0) == (summary["s_min"] ** 2 >= betas[float(d)])


def test_sweep_rows_equal_standalone_reconstructions():
    """The sweep solves its data sets together, so a row agrees with a
    standalone reconstruct to roundoff, not bit for bit.  Measured at 17^2:
    errors within 5.5e-13 relative, normal residuals at most 2.0e-12 (at
    33^2: 9.4e-12 and 2.5e-11)."""
    case, f, gg = build_case(n=17)
    rep = stability_sweep(case, [1e-3, 1e-2, 3e-2, 1e-1], TUNED, seeds=(0, 1, 2))
    for row in rep.rows:
        data = make_inverse_data(case, row.delta, row.seed, noisy_slices=False)
        res = reconstruct(data, dataclasses.replace(TUNED, beta=row.beta))
        err_f = inverse._abs_l2(case.grid, res.f_hat.values - f)
        err_g = inverse._abs_l2(case.grid, res.g_hat.values - gg)
        for got, want in ((row.err_f, err_f), (row.err_g, err_g),
                          (row.err_total, err_f + err_g)):
            assert abs(got - want) <= 1e-9 * want
        assert row.converged == res.converged
        assert max(row.normal_residual, res.normal_residual) <= 1e-9


# -- sparse assembly against the field operators -----------------------------


def random_coeffs(g, rng):
    """Every term of A, B and A0 switched on, off-diagonal principal parts
    included (2D), b_gamma of orders 0, 1 and 2."""
    d, sh = g.dim, g.shape
    a2 = rng.uniform(-0.3, 0.3, (d, d, *sh))
    a2 = 0.5 * (a2 + np.swapaxes(a2, 0, 1))
    b2 = rng.uniform(-0.3, 0.3, (d, d, *sh))
    b2 = 0.5 * (b2 + np.swapaxes(b2, 0, 1))
    for i in range(d):
        a2[i, i] += 1.0
        b2[i, i] += 1.0
    keys = [(0,), (1,), (2,)] if d == 1 else \
        [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return CoeffSet(g, a2, b2, rng.standard_normal((d, *sh)),
                    rng.standard_normal((d, *sh)), rng.standard_normal(sh),
                    rng.standard_normal(sh), rng.standard_normal(sh),
                    {k: rng.standard_normal(sh) for k in keys})


@pytest.mark.parametrize("dims,gamma", [((1.0,), ["x-", "x+"]),
                                        ((1.0, 2.0), ["x1+", "x2-"])],
                         ids=["1d", "2d"])
def test_assembled_operators_match_field_operators(dims, gamma):
    nx = (9,) if len(dims) == 1 else (9, 11)
    g = build_grid(dims, 1.0, nx, 9, gamma)
    rng = np.random.default_rng(11)
    c = random_coeffs(g, rng)
    u = GridFn(g, SPACE_TIME, rng.standard_normal(g.shape))

    def close(assembled, field):
        ref = field.ravel()
        return np.max(np.abs(assembled - ref)) <= 1e-12 * np.max(np.abs(ref))

    for kind in ("A", "B", "A0"):
        assert close(inverse._operator_matrix(kind, c) @ u.values.ravel(),
                     apply_operator(kind, u, c).values), kind
    dt = derivative_matrix(g.shape, g.spacings, (g.dim,))
    assert close(dt @ u.values.ravel(), diff(u, t_order=1).values)

    # the raveled node indices the trace and slice rows are cut with
    nodes = node_index(g)
    for face in g.all_faces():
        assert np.array_equal(u.values.ravel()[face_values(g, nodes, face).ravel()],
                              face_values(g, u.values, face).ravel()), face
    assert np.array_equal(u.values.ravel()[nodes[..., g.it0].ravel()],
                          u.values[..., g.it0].ravel())


def discrete_case_2d():
    g = build_grid((1.0, 2.0), 1.0, (9, 9), 9, ["x1+", "x2-"])
    recipe = CoeffRecipe(a1=[0.3, -0.2], b1=[0.1, 0.2], a0=0.4, b0=-0.3, c0=0.5,
                         b_gamma={(0, 0): 0.3, (1, 0): 0.1, (1, 1): 0.2, (0, 2): 0.2})
    case = mms_case_ensemble(
        5, 1, g, recipe,
        lambda x1, x2: 1.0 + 0.2 * np.cos(np.pi * x1),
        lambda x1, x2: 1.0 - 0.2 * np.cos(np.pi * x2 / 2.0),
        max_modes=2, t_degree=2, amplitude=1.0, q_min=0.02,
    )[0]
    return case, case.sources.f, case.sources.g


@pytest.mark.parametrize("build", [lambda: build_case(n=17), lambda: build_case(n=33),
                                   discrete_case_2d],
                         ids=["1d-17", "1d-33", "2d-9"])
def test_true_state_zeroes_pde_and_data_blocks(build):
    """On a discrete-mode case the true (u, v, f, g) leaves the PDE blocks at
    roundoff and the value traces and slices exactly zero.  The conormal
    rows are left out: the cosine states do not satisfy their one-sided
    stencils."""
    case, f, gg = build()
    data = make_inverse_data(case, 0.0, 0)
    blocks, _ = inverse._build_blocks(data, TUNED)
    x = np.concatenate([case.u.values.ravel(), case.v.values.ravel(),
                        f.ravel(), gg.ravel()])
    by_name = {blk.name: blk for blk in blocks}
    rhs = {blk.name: blk.rhs(data) for blk in blocks}
    for name in ("pde_u", "pde_v"):
        blk = by_name[name]
        scale = np.max(abs(blk.L) @ np.abs(x))
        assert np.max(np.abs(blk.L @ x - rhs[name])) <= 1e-12 * scale, name
    exact = [n for n in by_name if n.startswith(("trace_u_", "trace_v_", "slice_"))]
    assert len(exact) == 2 * len(case.grid.gamma) + 2
    for name in exact:
        blk = by_name[name]
        assert np.array_equal(blk.L @ x, rhs[name]), name


# -- the level-by-level Cholesky factor of the state block --------------------


def random_data(dims):
    """Random coefficients (every operator term on), modulations and
    observations on a 1D 17^2 or a 2D 7 x 6 x 9 grid."""
    nx = (17,) if len(dims) == 1 else (7, 6)
    nt = 17 if len(dims) == 1 else 9
    gamma = ["x-", "x+"] if len(dims) == 1 else ["x1+", "x2-"]
    g = build_grid(dims, 1.0, nx, nt, gamma)
    rng = np.random.default_rng(5)
    coeffs = random_coeffs(g, rng)
    q1, q2 = (1.0 + 0.2 * rng.standard_normal(g.shape) for _ in range(2))
    traces = {key: {face: rng.standard_normal(face_values(g, q1, face).shape)
                    for face in sorted(g.gamma)}
              for key in inverse.TRACE_KEYS}
    u0, v0 = (rng.standard_normal(g.space_shape) for _ in range(2))
    return InverseData(g, coeffs, traces, u0, v0, q1, q2, 0.0, 0)


def random_system(dims, omega_bc):
    """A reduction of ``random_data``'s system."""
    return inverse.reduce_sources(random_data(dims),
                                  dataclasses.replace(TUNED, omega_bc=omega_bc))


@pytest.mark.parametrize("omega_bc", [0.0, 1000.0])
@pytest.mark.parametrize("dims", [(1.0,), (1.0, 2.0)], ids=["1d-17", "2d-7x6x9"])
def test_level_cholesky_solves_as_spsolve(dims, omega_bc):
    """The relative residual ||K x - r|| / (||K|| ||x||) of the factor's
    solves, and of their difference to SuperLU's, is at roundoff."""
    import scipy.sparse.linalg as spla

    red = random_system(dims, omega_bc)
    k = (red.ay.T @ red.ay).tocsc()
    k_norm = spla.norm(k, 1)
    rng = np.random.default_rng(6)
    for rhs in (rng.standard_normal(k.shape[0]), rng.standard_normal((k.shape[0], 5))):
        x = red.chol.solve(rhs)
        x_ref = spla.spsolve(k, rhs)
        assert x.shape == rhs.shape
        assert np.linalg.norm(k @ x - rhs) <= 1e-12 * k_norm * np.linalg.norm(x)
        assert np.linalg.norm(k @ (x - x_ref)) <= 1e-12 * k_norm * np.linalg.norm(x_ref)


@pytest.mark.parametrize("omega_bc", [0.0, 1000.0])
@pytest.mark.parametrize("dims", [(1.0,), (1.0, 2.0)], ids=["1d-17", "2d-7x6x9"])
def test_vector_solve_matches_matrix_column(dims, omega_bc):
    """One right-hand side takes the level-2 kernels, several the level-3
    ones; both give the same solution to roundoff."""
    chol = random_system(dims, omega_bc).chol
    rhs = np.random.default_rng(9).standard_normal((chol.b * chol.nt, 4))
    cols = chol.solve(rhs)
    for j in range(rhs.shape[1]):
        x = chol.solve(rhs[:, j])
        assert np.linalg.norm(x - cols[:, j]) <= 1e-13 * np.linalg.norm(cols[:, j])


@pytest.mark.parametrize("omega_bc", [0.0, 1000.0])
@pytest.mark.parametrize("dims", [(1.0,), (1.0, 2.0)], ids=["1d-17", "2d-7x6x9"])
def test_level_rows_hold_each_level_in_one_range(dims, omega_bc):
    """In the elimination's row order the state columns of level k touch
    only the rows whose first level is k - 2 to k, one contiguous range;
    rows without state entries come last (one is appended here)."""
    red = random_system(dims, omega_bc)
    b, nt = red.chol.b, red.chol.nt
    ay = sp.vstack([red.ay, sp.csc_matrix((1, red.ay.shape[1]))], format="csc")
    order, level_rows = inverse._level_rows(ay, b)
    assert order[-1] == ay.shape[0] - 1
    assert np.array_equal(order[:-1], red.row_order)
    permuted = ay[order].tocsc()
    touched = [np.unique(permuted[:, k * b:(k + 1) * b].indices) for k in range(nt)]
    first = np.full(ay.shape[0], nt)
    for k in range(nt - 1, -1, -1):
        first[touched[k]] = k
    assert np.all(np.diff(first) >= 0)
    assert first[-1] == nt and np.all(first[:-1] < nt)
    for k, (lo, hi, blk) in enumerate(level_rows):
        assert lo == touched[k][0] and hi == touched[k][-1] + 1
        assert np.all((k - 2 <= first[lo:hi]) & (first[lo:hi] <= k)), k
        assert (blk != permuted[lo:hi, k * b:(k + 1) * b]).nnz == 0, k


def test_factor_and_solves_never_call_dtrsm(monkeypatch):
    """The factor keeps its diagonal blocks inverted, so every triangular
    solve is a multiply."""
    from scipy.linalg import blas

    def refuse(*args, **kwargs):
        raise AssertionError("dtrsm called")

    monkeypatch.setattr(blas, "dtrsm", refuse)
    case, f, gg = build_case(n=17)
    data = make_inverse_data(case, 0.01, 0)
    cfg = dataclasses.replace(TUNED, beta=1e-4)
    res = reconstruct(data, cfg, truth=(f, gg))
    assert res.converged


def test_level_cholesky_refuses_wider_time_coupling():
    b, levels = 3, 6
    k = sp.lil_matrix(4.0 * sp.eye(b * levels))
    k[1, 3 * b + 1] = k[3 * b + 1, 1] = 1.0
    with pytest.raises(ValueError, match="couples levels 3 apart"):
        inverse._LevelCholesky(k.tocsr(), b)
    with pytest.raises(ValueError, match="levels of 4"):
        inverse._LevelCholesky(sp.eye(b * levels, format="csr"), 4)


def test_level_cholesky_rejects_indefinite_matrix():
    red = random_system((1.0,), 0.0)
    k = (red.ay.T @ red.ay).tolil()
    b = red.chol.b
    k[3 * b + 2, 3 * b + 2] = -1.0
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite.*level 3"):
        inverse._LevelCholesky(k.tocsr(), b)


def level_layout(rhs, b, nt):
    """The (b, m, nt) F-ordered level layout of ``solve_levels``."""
    return np.array(rhs.reshape(nt, b, -1).transpose(1, 2, 0), order="F")


@pytest.mark.parametrize("dims", [(1.0,), (1.0, 2.0)], ids=["1d-17", "2d-7x6x9"])
def test_level_solve_in_place_equals_solve(dims):
    chol = random_system(dims, 1000.0).chol
    n = chol.b * chol.nt
    rng = np.random.default_rng(8)
    for m in (1, 5):
        rhs = rng.standard_normal((n, m))
        y = level_layout(rhs, chol.b, chol.nt)
        out = chol.solve_levels(y)
        assert out is y
        assert np.array_equal(out.transpose(2, 0, 1).reshape(n, m), chol.solve(rhs))
    with pytest.raises(ValueError, match="F-ordered"):
        chol.solve_levels(np.ascontiguousarray(y))


def banded_system(b, nt, seed):
    """A random K = A^T A + I on nt levels of b unknowns coupled like the
    state block: each row acts on a chain of unknowns within its level and
    on one unknown through a 3-point time stencil, one-sided at the two end
    levels, so K_{k,k-2} is diagonal except at level 2 and the last level."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for t in range(nt):
        lo = min(max(t - 1, 0), max(nt - 3, 0))
        for i in range(b):
            row = t * b + i
            touched = [t * b + j for j in (i - 1, i + 1) if 0 <= j < b]
            touched += [s * b + i for s in range(lo, min(lo + 3, nt))]
            rows += [row] * len(touched)
            cols += touched
    a = sp.csr_matrix((rng.standard_normal(len(rows)), (rows, cols)),
                      shape=(b * nt, b * nt))
    return (a.T @ a + sp.identity(b * nt)).tocsr()


@pytest.mark.parametrize("nt", [1, 2, 3, 4, 5, 8])
def test_packed_factor_solves_as_dense(nt):
    """Two levels share each inverse-triangle slot, the odd one transposed;
    the solves agree with a dense solve on odd and even level counts, with
    the end levels carrying the rest of K_{k,k-2}, for one right-hand side
    (``dtrmv``) and for several (``dtrmm``).  Measured relative gaps of at
    most 5.4e-16; K's condition numbers are 4 to 24."""
    b = 5
    k = banded_system(b, nt, nt)
    chol = inverse._LevelCholesky(k, b)
    assert set(chol.far_rest) == ({2, nt - 1} if nt >= 3 else set())
    dense = k.toarray()
    rng = np.random.default_rng(nt)
    for m in (1, 3):
        rhs = rng.standard_normal((b * nt, m))
        want = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(chol.solve(rhs) - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("nt", [1, 2, 3, 8, 9])
def test_packed_factor_holds_one_and_a_half_blocks_per_level(nt):
    """The factor's arrays hold at most 1.5 b^2 + 2 b doubles per level: two
    levels' inverse triangles share one b x b slot, the sub-diagonal blocks
    start at level 1, and the diagonals take b per level each."""
    b = 6
    chol = inverse._LevelCholesky(banded_system(b, nt, nt), b)
    arrays = [v for v in vars(chol).values() if isinstance(v, np.ndarray)]
    owners = [a for a in arrays if a.base is None]
    assert all(any(np.shares_memory(a, o) for o in owners)
               for a in arrays if a.base is not None)
    assert sum(a.nbytes for a in owners) <= 8 * (1.5 * b * b * nt + 2 * b * nt)


def test_elimination_chunks_are_even_views_of_one_buffer(monkeypatch):
    """The source columns are eliminated in chunks as even as ``_CHUNK``
    allows, each solved in a view of the same buffer."""
    seen = []
    solve_levels = inverse._LevelCholesky.solve_levels

    def recorded(self, y):
        seen.append((y.shape[1], y.__array_interface__["data"][0]))
        return solve_levels(self, y)

    monkeypatch.setattr(inverse, "_CHUNK", 10)
    monkeypatch.setattr(inverse._LevelCholesky, "solve_levels", recorded)
    case, _, _ = build_case(n=17)
    inverse.reduce_sources(make_inverse_data(case, 0.0, 0), TUNED)
    assert sorted(width for width, _ in seen) == [8, 8, 9, 9]   # 34 sources
    assert len({start for _, start in seen}) == 1


def test_reduction_keeps_no_assembled_rows():
    red = random_system((1.0,), 1000.0)
    assert all(type(blk) is inverse._Term for blk in red.blocks)
    assert sum(blk.m.size for blk in red.blocks) == red.sqrt_w.size == red.ay.shape[0]


def explicit_q_reference(red, data, beta):
    """Singular values and sources of the reduced problem, with the explicit
    orthonormal factor of R0 built from ``red.ay``, ``red.az`` and ``red.chol``."""
    ay, az, chol = red.ay, red.az, red.chol
    r0 = (az.toarray() - ay @ chol.solve((ay.T @ az).toarray())) / np.sqrt(red.source_w)
    q, r = np.linalg.qr(r0)
    u, s, vt = np.linalg.svd(r)
    b = red.sqrt_w * np.concatenate([blk.rhs(data) for blk in red.blocks])
    b_perp = b - ay @ chol.solve(ay.T @ b)
    phi = inverse._filter(s, beta, b.size)
    return s, (vt.T @ (phi * (u.T @ (q.T @ b_perp)))) / np.sqrt(red.source_w)


@pytest.mark.parametrize("dims", [(1.0,), (1.0, 2.0)], ids=["1d-17", "2d-7x6x9"])
def test_reduction_matches_explicit_q_reference(dims):
    data = random_data(dims)
    cfg = dataclasses.replace(TUNED, beta=1e-4)
    red = inverse.reduce_sources(data, cfg)
    s_ref, z_ref = explicit_q_reference(red, data, cfg.beta)
    assert np.max(np.abs(red.s - s_ref)) <= 1e-10 * s_ref[0]
    res = reconstruct(data, cfg)
    z = np.concatenate([res.f_hat.values.ravel(), res.g_hat.values.ravel()])
    assert np.linalg.norm(z - z_ref) <= 1e-10 * np.linalg.norm(z_ref)


@pytest.mark.parametrize("dims", [(1.0,), (1.0, 2.0)], ids=["1d-17", "2d-7x6x9"])
def test_reduction_holds_only_the_reflectors_at_full_height(dims):
    red = random_system(dims, 1000.0)
    full = (red.ay.shape[0], red.az.shape[1])
    tall = [f.name for f in dataclasses.fields(red)
            if isinstance(getattr(red, f.name), np.ndarray)
            and getattr(red, f.name).shape == full]
    assert tall == ["reflectors"]
    assert red.t.shape == (min(inverse._QR_BLOCK, full[1]), full[1])


def test_reduction_and_solve_use_only_scipy_blas(monkeypatch):
    """NumPy and SciPy each bring their own BLAS thread pool; the solver keeps
    to SciPy's, so it must not reach NumPy's SVD or norms."""
    def refuse(*args, **kwargs):
        raise AssertionError("NumPy linear algebra called")

    case, f, gg = build_case(n=17)
    data = make_inverse_data(case, 0.01, 0)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    res = reconstruct(data, dataclasses.replace(TUNED, beta=1e-4), truth=(f, gg))
    assert res.converged


def noisy_block(red, data, m):
    """m weighted data columns for ``red``: those of ``data`` plus
    independent noise of 10 % of their largest entry on every row."""
    b = np.empty((red.sqrt_w.size, m))
    inverse._weighted_rhs(red, data, b[:, 0])
    rng = np.random.default_rng(11)
    b[:, 1:] = b[:, :1] + 0.1 * np.max(np.abs(b[:, 0])) * rng.standard_normal((b.shape[0], m - 1))
    return b


@pytest.mark.parametrize("omega_bc", [0.0, 1000.0])
@pytest.mark.parametrize("dims", [(1.0,), (1.0, 2.0)], ids=["1d-17", "2d-7x6x9"])
def test_batched_solve_equals_single_column_solves(dims, omega_bc):
    """Solving m data columns together gives each column's single solve to
    roundoff, whatever its ridge, beta = 0 included.  Measured gaps: sources
    2.7e-15, states 1.9e-12, residuals 1.1e-12 relative; normal residuals
    at most 2.9e-12."""
    data = random_data(dims)
    cfg = dataclasses.replace(TUNED, omega_bc=omega_bc)
    red = inverse.reduce_sources(data, cfg)
    betas = [0.0, 1e-10, 1e-6, 1e-3, 1e-1]
    b = noisy_block(red, data, len(betas))
    z, y, res, normal = inverse._solve(red, b, betas)
    assert z.shape == (red.az.shape[1], len(betas)) and y.shape == (red.ay.shape[1], len(betas))
    for j, beta in enumerate(betas):
        z1, y1, res1, normal1 = inverse._solve(red, np.array(b[:, j:j + 1]), [beta])
        for got, want in ((z[:, j], z1[:, 0]), (y[:, j], y1[:, 0]), (res[:, j], res1[:, 0])):
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), beta
        assert abs(normal[j] - normal1[0]) <= 1e-9 and max(normal[j], normal1[0]) <= 1e-9


def test_sweep_applies_the_state_factor_twice_whatever_its_size(monkeypatch):
    """A sweep solves its (delta, seed) pairs in one batch: the state factor
    is applied once per elimination chunk of the reduction and twice for
    the solves, for 12 pairs as for 15."""
    widths = []
    solve_levels = inverse._LevelCholesky.solve_levels

    def counted(self, y):
        widths.append(y.shape[1])
        return solve_levels(self, y)

    monkeypatch.setattr(inverse._LevelCholesky, "solve_levels", counted)
    case, _, _ = build_case(n=17)
    chunks = math.ceil(2 * 17 / inverse._CHUNK)
    for deltas in ([1e-3, 1e-2, 3e-2, 1e-1], [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]):
        widths.clear()
        stability_sweep(case, deltas, TUNED, seeds=(0, 1, 2))
        assert len(widths) == chunks + 2
        assert widths[-2:] == [3 * len(deltas)] * 2


def test_sweep_memory_above_its_reduction_is_a_few_blocks(monkeypatch):
    """Once the reduction is built, the sweep's traced memory grows by at
    most a few rows x m blocks, m the number of (delta, seed) pairs: the
    data are written column by column and the solve keeps at most three
    such blocks alive.  Measured 3.0 blocks at 33^2 (one solve at a time
    held 0.8)."""
    import tracemalloc

    case, _, _ = build_case(n=33)
    built = {}
    reduce_sources = inverse.reduce_sources

    def marked(*args, **kwargs):
        red = reduce_sources(*args, **kwargs)
        built["rows"] = red.sqrt_w.size
        built["at"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return red

    monkeypatch.setattr(inverse, "reduce_sources", marked)
    tracemalloc.start()
    try:
        stability_sweep(case, [1e-3, 1e-2, 3e-2, 1e-1], TUNED, seeds=(0, 1, 2))
        growth = tracemalloc.get_traced_memory()[1] - built["at"]
    finally:
        tracemalloc.stop()
    block = built["rows"] * 12 * 8
    assert growth < 4 * block


def test_clean_recovery_without_ridge_or_conormal_rows():
    """The ill-conditioned envelope: at 65^2 without ridge or conormal rows
    the smallest reduced singular value is about 1e-4 of the largest.
    Measured 6.8e-8 and 2.0e-10."""
    case, f, gg = build_case(n=65)
    cfg = dataclasses.replace(TUNED, omega_bc=0.0, beta=0.0)
    res = reconstruct(make_inverse_data(case, 0.0, 0), cfg, truth=(f, gg))
    assert res.rel_err_f <= 1e-6
    assert res.rel_err_g <= 1e-6
