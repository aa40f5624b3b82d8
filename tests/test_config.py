import json
import re
from pathlib import Path

import pytest
import yaml

from mfglab.cli import main
from mfglab.config import _ALLOWED, _DEFAULTS, ConfigError, load_config


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
    p.write_text("experiment: verify-carleman\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="subcommand"):
        load_config(str(p), experiment="verify-weights")


def test_coefficient_expressions_compile():
    cfg = load_config(None, experiment="verify-carleman")
    coeffs = cfg.coeff_recipe.sample(cfg.grid)
    assert coeffs.c0[0, 0] == 1.0
    assert (0,) in coeffs.b_gamma and (2,) in coeffs.b_gamma


def test_bad_coupling_key(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(
        "experiment: verify-carleman\n"
        "coefficients: {coupling: {'3': '1'}}\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="coefficients: .*order 2"):
        load_config(str(p), experiment="verify-carleman")


def coefficients_config(tmp_path, coefficients, grid=None):
    p = tmp_path / "coef.yaml"
    text = f"experiment: verify-carleman\ncoefficients: {coefficients}\n"
    if grid is not None:
        text += f"grid: {grid}\n"
    p.write_text(text, encoding="utf-8")
    return load_config(str(p), experiment="verify-carleman")


def test_principal_part_below_chi_refused(tmp_path):
    with pytest.raises(ConfigError, match=r"least eigenvalue .* is 0\.5 < chi=1"):
        coefficients_config(tmp_path, "{a: [['0.5']]}")
    assert coefficients_config(tmp_path, "{a: [['0.5']], chi: 0.5}").coeff_recipe.chi == 0.5
    # backward-parabolic principal part
    with pytest.raises(ConfigError, match=r"is -1 < chi=1"):
        coefficients_config(tmp_path, "{b: [['-1']]}")


def test_asymmetric_principal_part_refused(tmp_path):
    with pytest.raises(ConfigError, match="symmetric"):
        coefficients_config(tmp_path, "{a: [['1', '0.5'], ['0.25', '1']]}",
                            grid="{lengths: [1.0, 1.0], nx: [9, 9], nt: 9, gamma: [x1+]}")


def test_overrides_applied():
    cfg = load_config(None, experiment="state-det",
                      overrides={"ensemble.seed": 99, "output.dir": "/tmp/zz"})
    assert cfg.section("ensemble")["seed"] == 99
    assert cfg.section("output")["dir"] == "/tmp/zz"


def test_unknown_override_keys_refused_as_file_keys_are():
    from pathlib import Path

    state_det = str(Path(__file__).resolve().parents[1] / "configs" / "state_det.yaml")
    with pytest.raises(ConfigError, match=r"^unknown config keys: ensemble\.sed$"):
        load_config(state_det, overrides={"ensemble.sed": 3})
    # a key under a leaf, and a section the experiment does not read (named
    # alone, as in a file)
    with pytest.raises(ConfigError, match=r"^unknown config keys: grid\.nt\.x, inverse$"):
        load_config(state_det, overrides={"inverse.delta": 0.1, "grid.nt": {"x": 1}})
    # the legacy key stays accepted, as it is in a file
    cfg = load_config(None, experiment="reconstruct", overrides={"inverse.maxiter": 5})
    assert cfg.section("inverse")["maxiter"] == 5


@pytest.mark.parametrize("experiment,entry,key", [
    ("reconstruct", "delta: .nan", "inverse.delta"),
    ("reconstruct", "delta: .inf", "inverse.delta"),
    ("reconstruct", "delta: -1.0e-3", "inverse.delta"),
    ("stability-sweep", "deltas: [1.0e-3, .nan, 1.0e-2, 1.0e-1]", "inverse.deltas"),
    ("stability-sweep", "deltas: [1.0e-3, 1.0e-2, 1.0e-1, .inf]", "inverse.deltas"),
])
def test_non_finite_noise_levels_fail_with_code_2(tmp_path, capsys, experiment, entry,
                                                  key):
    from mfglab.cli import main

    p = tmp_path / "bad.yaml"
    p.write_text(f"experiment: {experiment}\ninverse: {{{entry}}}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{key}: "):
        load_config(str(p))
    assert main([experiment, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"{key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_epsilons_default_scaled_by_T(tmp_path):
    p = tmp_path / "t.yaml"
    p.write_text("experiment: state-det\ngrid: {T: 2.0, nt: 65}\n",
                 encoding="utf-8")
    cfg = load_config(str(p), experiment="state-det")
    assert cfg.epsilons == [0.1, 0.2, 0.4]


def test_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        load_config(None, experiment="frobnicate")


def test_lemma3_experiment_is_unknown(tmp_path, capsys):
    """Lemma 3 runs as verify-carleman kinds; the experiment is gone."""
    from mfglab.cli import main

    p = tmp_path / "old.yaml"
    p.write_text("experiment: lemma3\nlemma3: {p_values: [0, 1, 2]}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown experiment 'lemma3'"):
        load_config(str(p))
    assert main(["verify-carleman", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def carleman_config(tmp_path, kinds, s_values=None):
    p = tmp_path / "kinds.yaml"
    text = f"experiment: verify-carleman\nestimates: {{kinds: {json.dumps(kinds)}}}\n"
    if s_values is not None:
        text += f"weights: {{s_values: {s_values}}}\n"
    p.write_text(text, encoding="utf-8")
    return p


def test_estimate_kinds_resolve_to_their_canonical_names(tmp_path):
    p = carleman_config(tmp_path, ["lemma3(p=1)", "thm3", "Energy_3_8", "LEMMA3(P=2)"])
    assert load_config(str(p)).section("estimates")["kinds"] == [
        "LEMMA3(p=1)", "THM3", "ENERGY_3_8", "LEMMA3(p=2)"]


@pytest.mark.parametrize("kind", ["THM9", "LEMMA3", "LEMMA3(p=-1)", "LEMMA3(p=01)"])
def test_unknown_estimate_kind_is_a_config_error_at_load(tmp_path, capsys, kind):
    from mfglab.cli import main

    p = carleman_config(tmp_path, ["THM3", kind])
    with pytest.raises(ConfigError, match=r"estimates.kinds: unknown estimate kind"):
        load_config(str(p))
    assert main(["verify-carleman", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert kind in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kinds,s_values,message", [
    (["ENERGY_3_8", "THM2"], "[0.0, 8.0]", "energy-slice kinds need s > 0"),
    (["ENERGY_3_8", "THM2"], "[8.0]", "THM2 runs only at s = 0"),
    (["ENERGY_3_9"], "[0.0, 8.0]", "energy-slice kinds need s > 0"),
    (["THM3", "THM2"], "[0.0, 8.0]", "THM2 runs only at s = 0"),
])
def test_kinds_refused_at_their_s_values_at_load(tmp_path, capsys, monkeypatch,
                                                 kinds, s_values, message):
    """The sweep's own s rules run when the config loads: a kind list that
    no s list can serve (THM2 next to an energy kind), energy kinds at
    s <= 0 and THM2 at s != 0 are config errors (exit code 2), before any
    ensemble is drawn and with nothing written."""
    import mfglab.cli

    drawn = []
    monkeypatch.setattr(mfglab.cli, "_build_ensemble", lambda *a: drawn.append(a))
    p = carleman_config(tmp_path, kinds, s_values)
    with pytest.raises(ConfigError, match=f"weights.s_values: {message}"):
        load_config(str(p))
    assert mfglab.cli.main(["verify-carleman", "--config", str(p),
                            "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert drawn == []
    assert not (tmp_path / "out").exists()


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
    u_field, v_field = cfg.case_fields
    assert len(u_field.terms) == 2 and len(v_field.terms) == 1
    assert u_field.terms[1].tpow == 2


def test_case_needs_both_states(tmp_path):
    p = tmp_path / "case.yaml"
    p.write_text(
        "experiment: reconstruct\ncase: {u: [[1.0, 1, 0]]}\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="case: needs both"):
        load_config(str(p), experiment="reconstruct")


def test_case_defaults_to_random_draw():
    cfg = load_config(None, experiment="stability-sweep")
    assert cfg.case_fields is None


def test_inverse_section_builds_its_reconstruction_config_once():
    from pathlib import Path

    from mfglab.inverse import ReconstructionConfig

    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = load_config(str(configs / "reconstruct_clean.yaml"))
    assert cfg.reconstruction == ReconstructionConfig(
        omega_pde=10.0, omega_gamma=1.0, omega_slice=1000.0, omega_bc=1000.0,
        beta=1e-10, tol=1e-6)
    assert load_config(str(configs / "lemma3.yaml")).reconstruction is None


@pytest.mark.parametrize("entry,message", [
    ("omega_bc: -1.0", "penalty weights must be finite and >= 0"),
    ("tol: -1.0", "tol must be positive and finite"),
    ("tol: [1]", "float"),
    ("beta: abc", "could not convert"),
])
def test_bad_inverse_values_are_config_errors(tmp_path, entry, message):
    """A value of the wrong type is refused by the walk, which names the
    key; a number out of the solver's range by the solver's settings, which
    the section's error names."""
    p = tmp_path / "bad.yaml"
    p.write_text(f"experiment: reconstruct\ninverse: {{{entry}}}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message) as err:
        load_config(str(p))
    assert str(err.value).startswith(("inverse: ", "invalid config values: inverse."))


@pytest.mark.parametrize("experiment,key", [
    ("verify-carleman", "weights.lambdas"),
    ("verify-carleman", "weights.s_values"),
    ("verify-carleman", "estimates.kinds"),
    ("state-det", "statedet.epsilons"),
    ("stability-sweep", "inverse.deltas"),
    ("stability-sweep", "inverse.seeds"),
])
def test_empty_sweep_list_is_a_config_error(tmp_path, capsys, experiment, key):
    """An empty sweep list, or a scalar where the list goes, is a config
    error (exit code 2) that names the key, and nothing is written."""
    from mfglab.cli import main

    section, name = key.split(".")
    for value, message in (("[]", "need at least one entry"), ("2", "must be a list")):
        p = tmp_path / "bad.yaml"
        p.write_text(f"experiment: {experiment}\n{section}: {{{name}: {value}}}\n",
                     encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{key}: {message}"):
            load_config(str(p))
        assert main([experiment, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert f"{key}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment,key,value", [
    ("reconstruct", "inverse.delta", "abc"),
    ("stability-sweep", "inverse.deltas", "[1.0e-3, abc]"),
    ("verify-carleman", "weights.lambdas", "[1.0, abc]"),
    ("verify-carleman", "weights.s_values", "[abc]"),
    ("verify-weights", "grid.nt", "abc"),
    ("verify-carleman", "ensemble.n", "abc"),
])
def test_non_numeric_value_is_a_config_error(tmp_path, experiment, key, value):
    section, name = key.split(".")
    p = tmp_path / "bad.yaml"
    p.write_text(f"experiment: {experiment}\n{section}: {{{name}: {value}}}\n",
                 encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=f"{key}: (could not convert|invalid literal).*'abc'"):
        load_config(str(p))


def test_non_numeric_value_exits_with_code_2(tmp_path, capsys):
    from mfglab.cli import main

    p = tmp_path / "bad.yaml"
    p.write_text("experiment: reconstruct\ninverse: {delta: abc}\n", encoding="utf-8")
    assert main(["reconstruct", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "config error: invalid config values: inverse.delta: could not convert" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment,key,value", [
    ("verify-weights", "grid.nt", "17.5"),
    ("verify-weights", "grid.nt", "true"),
    ("verify-weights", "grid.nx", "[17.5]"),
    ("verify-carleman", "ensemble.seed", "7.5"),
    ("verify-carleman", "ensemble.n", "2.5"),
    ("verify-carleman", "ensemble.max_modes", "2.7"),
    ("verify-carleman", "ensemble.t_degree", "true"),
    ("stability-sweep", "inverse.seeds", "[1.5]"),
    ("stability-sweep", "inverse.seeds", "[0, false]"),
    ("nonlinear-diff", "nonlinear.seed", "'5'"),
    ("verify-carleman", "estimates.refine", "'false'"),
    ("state-det", "statedet.refine", "0"),
    ("reconstruct", "inverse.noisy_slices", "1"),
])
def test_whole_number_and_flag_keys_take_only_their_type(tmp_path, experiment, key,
                                                         value):
    section, name = key.split(".")
    message = ("must be true or false" if name in ("refine", "noisy_slices")
               else "invalid literal for a whole number")
    p = tmp_path / "bad.yaml"
    p.write_text(f"experiment: {experiment}\n{section}: {{{name}: {value}}}\n",
                 encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{key}: {message}"):
        load_config(str(p))


def test_fractional_counts_exit_with_code_2_and_whole_floats_resolve_to_ints(
        tmp_path, capsys):
    from mfglab.cli import main

    p = tmp_path / "bad.yaml"
    p.write_text("experiment: verify-carleman\ngrid: {nx: [17.5], nt: 17.5}\n"
                 "ensemble: {n: 2.5, max_modes: 2.7}\n", encoding="utf-8")
    assert main(["verify-carleman", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in ("grid.nt", "grid.nx", "ensemble.n",
                                      "ensemble.max_modes"))
    assert not (tmp_path / "out").exists()
    p.write_text("experiment: verify-carleman\ngrid: {nx: [17.0], nt: 17.0}\n"
                 "ensemble: {n: 2.0}\n", encoding="utf-8")
    cfg = load_config(str(p))
    assert cfg.section("grid")["nx"] == [17] and type(cfg.section("grid")["nt"]) is int
    assert type(cfg.section("ensemble")["n"]) is int


@pytest.mark.parametrize("experiment,epsilons,message", [
    ("state-det", "[0.1, 0.6]", "eps=0.6 outside \\(0, T/2\\)"),
    ("nonlinear-diff", "[0.0]", "eps=0.0 outside \\(0, T/2\\)"),
    ("state-det", "[0.45]", "eps=0.45 leaves fewer than 3 time slices"),
])
def test_epsilons_checked_against_the_config_grid_at_load(tmp_path, capsys, monkeypatch,
                                                         experiment, epsilons, message):
    """The sweep's own eps rule runs when the config loads, on the config
    grid: a bad eps is a config error (exit code 2) before any draw."""
    import mfglab.cli

    drawn = []
    monkeypatch.setattr(mfglab.cli, "_build_ensemble", lambda *a: drawn.append(a))
    monkeypatch.setattr(mfglab.cli, "cosine_pairs", lambda *a: drawn.append(a))
    p = tmp_path / "eps.yaml"
    p.write_text(f"experiment: {experiment}\ngrid: {{nx: [17], nt: 17}}\n"
                 f"statedet: {{epsilons: {epsilons}}}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"statedet.epsilons: {message}"):
        load_config(str(p))
    assert mfglab.cli.main([experiment, "--config", str(p),
                            "--out", str(tmp_path / "out")]) == 2
    assert "statedet.epsilons" in capsys.readouterr().err
    assert drawn == []
    assert not (tmp_path / "out").exists()


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_every_one_key_edit_loads_or_is_a_config_error(tmp_path, path):
    """Each key the config's experiment reads (``output`` aside), set in turn
    to each of a few wrongly typed or out-of-range values, and each section
    set to a scalar: the config loads or raises ConfigError, nothing else.
    ``true`` is refused by every number key, and a scalar section always."""
    base = yaml.safe_load(path.read_text(encoding="utf-8"))
    exp = base["experiment"]
    given = {f"{section}.{key}": value for section, keys in base.items()
             if section != "experiment" for key, value in keys.items()}
    for section in _ALLOWED[exp][1:]:
        if section == "output":
            continue
        for key, default in _DEFAULTS[section].items():
            for value in ("abc", [1], {"k": 1}, True, -1, float("nan")):
                try:
                    load_config(None, exp, {**given, f"{section}.{key}": value})
                except ConfigError:
                    continue
                assert not (value is True and type(default) in (int, float)), (
                    f"{section}.{key}: true loaded")
        p = tmp_path / "scalar.yaml"
        p.write_text(yaml.safe_dump({**base, section: 5}), encoding="utf-8")
        with pytest.raises(ConfigError,
                           match=f"^invalid config values: {section}: must be a mapping"):
            load_config(str(p))


@pytest.mark.parametrize("experiment,text,args,message", [
    pytest.param("verify-weights", "grid: {nx: [65\n", (),
                 r"bad\.yaml: line 3, column 1: expected ','", id="yaml-syntax"),
    pytest.param("verify-weights", "grid: {nx: [65], nx: [33]}\n", (),
                 r"bad\.yaml: line 2, column 18: duplicate key 'nx'", id="duplicate-key"),
    pytest.param("verify-weights", None, (),
                 r"cannot read config file .*missing\.yaml: No such file",
                 id="missing-file"),
    pytest.param("state-det", "ensemble: {seed: -1}\n", (), r"ensemble\.seed: must be >= 0",
                 id="ensemble-seed"),
    pytest.param("state-det", "", ("--seed", "-1"), r"ensemble\.seed: must be >= 0",
                 id="cli-seed"),
    pytest.param("nonlinear-diff", "nonlinear: {seed: -1}\n", (),
                 r"nonlinear\.seed: must be >= 0", id="nonlinear-seed"),
    pytest.param("stability-sweep", "inverse: {seeds: [0, -1, 2]}\n", (),
                 r"inverse\.seeds: must be >= 0", id="inverse-seeds"),
    pytest.param("verify-carleman", "ensemble: {amplitude: .nan}\n", (),
                 r"ensemble\.amplitude: must be finite", id="amplitude-nan"),
    pytest.param("verify-carleman", "ensemble: {amplitude: 0}\n", (),
                 r"ensemble\.amplitude: must be > 0", id="amplitude-zero"),
    pytest.param("nonlinear-diff", "nonlinear: {amplitude: -1.0}\n", (),
                 r"nonlinear\.amplitude: must be > 0", id="nonlinear-amplitude"),
    pytest.param("verify-carleman", "ensemble: {max_modes: 0}\n", (),
                 r"ensemble\.max_modes: must be >= 1", id="max-modes"),
    pytest.param("verify-carleman", "ensemble: {t_degree: -1}\n", (),
                 r"ensemble\.t_degree: must be >= 0", id="t-degree"),
    pytest.param("verify-weights", "grid: {T: .nan}\n", (), r"grid\.T: must be finite",
                 id="grid-T"),
    pytest.param("stability-sweep", "inverse: {beta_scale: .nan}\n", (),
                 r"inverse\.beta_scale: must be finite", id="beta-scale"),
    pytest.param("reconstruct", "inverse: {omega_gamma: .inf}\n", (),
                 r"inverse\.omega_gamma: must be finite", id="omega-gamma-inf"),
    pytest.param("reconstruct", "inverse: {beta: .nan}\n", (),
                 r"inverse\.beta: must be finite", id="beta-nan"),
    pytest.param("reconstruct", "inverse: {omega_pde: .nan}\n", (),
                 r"inverse\.omega_pde: must be finite", id="omega-pde-nan"),
    pytest.param("stability-sweep", "inverse: {deltas: [1.0]}\n", (),
                 r"inverse: need at least 4 noise levels", id="sweep-deltas"),
    pytest.param("stability-sweep", "inverse: {seeds: [1]}\n", (),
                 r"inverse: need at least 3 seeds", id="sweep-seeds"),
])
def test_bad_file_or_value_exits_with_code_2_before_any_draw(
        tmp_path, capsys, monkeypatch, experiment, text, args, message):
    """A file that cannot be read or parsed, a key given twice, a value out
    of its range and a stability sweep too short to fit are config errors
    (exit code 2) that name the file or the key, before anything is drawn
    and with nothing written."""
    import mfglab.cli

    drawn = []
    for name in ("_build_ensemble", "_inverse_case", "cosine_pairs"):
        monkeypatch.setattr(mfglab.cli, name, lambda *a, **k: drawn.append(a))
    p = tmp_path / ("missing.yaml" if text is None else "bad.yaml")
    if text is not None:
        p.write_text(f"experiment: {experiment}\n{text}", encoding="utf-8")
    out = tmp_path / "out"
    assert main([experiment, "--config", str(p), "--out", str(out), *args]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert drawn == []
    assert not out.exists()
