import pytest

from mfglab.config import ConfigError, load_config


def test_defaults_resolve_without_file():
    cfg = load_config(None, experiment="verify-weights")
    assert cfg.experiment == "verify-weights"
    grid = cfg.build_grid()
    assert grid.nx == (65,) and grid.nt == 65
    assert cfg.section("weights")["lambdas"] == [1.0, 2.0]


def test_unknown_keys_all_listed(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text(
        "experiment: verify-weights\n"
        "grid: {nt: 65, bogus: 1}\n"
        "typo_section: {x: 2}\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as err:
        load_config(str(p), experiment="verify-weights")
    msg = str(err.value)
    assert "grid.bogus" in msg and "typo_section" in msg


def test_even_nt_named_in_error(tmp_path):
    p = tmp_path / "even.yaml"
    p.write_text("experiment: verify-weights\ngrid: {nt: 64}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="nt"):
        load_config(str(p), experiment="verify-weights")


def test_experiment_mismatch(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text("experiment: lemma3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="subcommand"):
        load_config(str(p), experiment="verify-weights")


def test_coefficient_expressions_compile():
    cfg = load_config(None, experiment="verify-carleman")
    recipe = cfg.coeff_recipe()
    grid = cfg.build_grid()
    coeffs = recipe.sample(grid)
    assert coeffs.c0[0, 0] == 1.0
    assert (0,) in coeffs.b_gamma and (2,) in coeffs.b_gamma


def test_bad_coupling_key(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(
        "experiment: verify-carleman\n"
        "coefficients: {coupling: {'3': '1'}}\n",
        encoding="utf-8",
    )
    cfg = load_config(str(p), experiment="verify-carleman")
    with pytest.raises(ConfigError, match="order 2"):
        cfg.coeff_recipe()


def coefficients_config(tmp_path, coefficients, grid=None):
    p = tmp_path / "coef.yaml"
    text = f"experiment: verify-carleman\ncoefficients: {coefficients}\n"
    if grid is not None:
        text += f"grid: {grid}\n"
    p.write_text(text, encoding="utf-8")
    return load_config(str(p), experiment="verify-carleman")


def test_principal_part_below_chi_refused(tmp_path):
    with pytest.raises(ConfigError, match=r"least eigenvalue .* is 0\.5 < chi=1"):
        coefficients_config(tmp_path, "{a: [['0.5']]}").coeff_recipe()
    assert coefficients_config(tmp_path, "{a: [['0.5']], chi: 0.5}").coeff_recipe().chi == 0.5
    # backward-parabolic principal part
    with pytest.raises(ConfigError, match=r"is -1 < chi=1"):
        coefficients_config(tmp_path, "{b: [['-1']]}").coeff_recipe()


def test_asymmetric_principal_part_refused(tmp_path):
    cfg = coefficients_config(tmp_path, "{a: [['1', '0.5'], ['0.25', '1']]}",
                              grid="{lengths: [1.0, 1.0], nx: [9, 9], nt: 9, gamma: [x1+]}")
    with pytest.raises(ConfigError, match="symmetric"):
        cfg.coeff_recipe()


def test_overrides_applied():
    cfg = load_config(None, experiment="state-det",
                      overrides={"ensemble.seed": 99, "output.dir": "/tmp/zz"})
    assert cfg.section("ensemble")["seed"] == 99
    assert cfg.section("output")["dir"] == "/tmp/zz"


def test_epsilons_default_scaled_by_T(tmp_path):
    p = tmp_path / "t.yaml"
    p.write_text("experiment: state-det\ngrid: {T: 2.0, nt: 65}\n",
                 encoding="utf-8")
    cfg = load_config(str(p), experiment="state-det")
    assert cfg.epsilons() == [0.1, 0.2, 0.4]


def test_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        load_config(None, experiment="frobnicate")


def test_explicit_case_terms(tmp_path):
    p = tmp_path / "case.yaml"
    p.write_text(
        "experiment: reconstruct\n"
        "case:\n"
        "  u: [[1.0, 1, 0], [0.5, 2, 2]]\n"
        "  v: [[2.0, 2, 0]]\n",
        encoding="utf-8",
    )
    cfg = load_config(str(p), experiment="reconstruct")
    u_field, v_field = cfg.case_fields()
    assert len(u_field.terms) == 2 and len(v_field.terms) == 1
    assert u_field.terms[1].tpow == 2


def test_case_needs_both_states(tmp_path):
    p = tmp_path / "case.yaml"
    p.write_text(
        "experiment: reconstruct\ncase: {u: [[1.0, 1, 0]]}\n",
        encoding="utf-8",
    )
    cfg = load_config(str(p), experiment="reconstruct")
    with pytest.raises(ConfigError, match="both"):
        cfg.case_fields()


def test_case_defaults_to_random_draw():
    cfg = load_config(None, experiment="stability-sweep")
    assert cfg.case_fields() is None
