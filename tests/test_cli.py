import json
from pathlib import Path

import pytest

from mfglab.cli import main
from mfglab.reports import ResultTable, RunReport, emit_report

SMALL_GRID = "grid: {nx: [17], nt: 17}\n"


def run_cli(args):
    return main(args)


def test_verify_weights_smoke(tmp_path):
    cfg = tmp_path / "w.yaml"
    cfg.write_text("experiment: verify-weights\n" + SMALL_GRID, encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["verify-weights", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "verify-weights"
    assert report["summary"]["all_passed"] is True
    assert (out / "weights.csv").exists() and (out / "weights.dat").exists()
    # config echo carries filled-in defaults
    assert report["config"]["weights"]["lambdas"] == [1.0, 2.0]


def test_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "experiment: verify-carleman\n" + SMALL_GRID +
        "ensemble: {seed: 3, n: 2}\n"
        "weights: {lambdas: [1.0], s_values: [8.0]}\n"
        "estimates: {refine: false}\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(["verify-carleman", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["verify-carleman", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("carleman.csv", "carleman.dat", "constants.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    h1 = json.loads((out1 / "report.json").read_text())["output_hash"]
    h2 = json.loads((out2 / "report.json").read_text())["output_hash"]
    assert h1 == h2


def test_csv_headers_pinned(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "experiment: verify-carleman\n" + SMALL_GRID +
        "ensemble: {seed: 3, n: 1}\n"
        "weights: {lambdas: [1.0], s_values: [8.0]}\n"
        "estimates: {refine: false}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run_cli(["verify-carleman", "--config", str(cfg), "--out", str(out)]) == 0
    head = (out / "carleman.csv").read_text().splitlines()[0]
    assert head == "kind,lambda,s,member,lhs,rhs,ratio"

    cfg2 = tmp_path / "sd.yaml"
    cfg2.write_text(
        "experiment: state-det\n" + SMALL_GRID +
        "ensemble: {seed: 3, n: 1}\nstatedet: {refine: false}\n",
        encoding="utf-8",
    )
    out2 = tmp_path / "out2"
    assert run_cli(["state-det", "--config", str(cfg2), "--out", str(out2)]) == 0
    head2 = (out2 / "ceps.csv").read_text().splitlines()[0]
    assert head2 == "epsilon,member,lhs,rhs,ratio"


def test_sweep_outputs(tmp_path):
    cfg = tmp_path / "s.yaml"
    cfg.write_text(
        "experiment: stability-sweep\n"
        "grid: {nx: [17], nt: 17, gamma: [x-, x+]}\n"
        "ensemble: {seed: 3, n: 1, max_modes: 2, t_degree: 2}\n"
        "sources: {q_min: 0.02}\n"
        "inverse: {deltas: [1.0e-3, 1.0e-2, 3.0e-2, 1.0e-1], seeds: [0, 1, 2],"
        " maxiter: 20, omega_bc: 1000.0, omega_slice: 1000.0, omega_gamma: 1.0,"
        " omega_pde: 10.0}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run_cli(["stability-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    head = (out / "sweep.csv").read_text().splitlines()[0]
    assert head == "delta,seed,err_f,err_g,err_total,beta,converged"
    slope = json.loads((out / "slope.json").read_text())
    assert set(slope) == {"slope", "intercept", "r2", "seeds"}


def test_legacy_maxiter_key_has_no_effect(tmp_path):
    hashes = []
    for maxiter in (20, 200):
        cfg = tmp_path / f"r{maxiter}.yaml"
        cfg.write_text(
            "experiment: reconstruct\n"
            "grid: {nx: [17], nt: 17, gamma: [x-, x+]}\n"
            "ensemble: {seed: 3, n: 1, max_modes: 2, t_degree: 2}\n"
            "sources: {q_min: 0.02}\n"
            f"inverse: {{delta: 1.0e-2, beta: 1.0e-4, maxiter: {maxiter}}}\n",
            encoding="utf-8",
        )
        out = tmp_path / f"out{maxiter}"
        assert run_cli(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["converged"] is True
        hashes.append(report["output_hash"])
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("experiment,inverse", [
    ("reconstruct", "{delta: 1.0e-2, beta: 1.0e-4}"),
    ("stability-sweep", "{deltas: [1.0e-3, 1.0e-2, 3.0e-2, 1.0e-1], seeds: [0, 1, 2],"
                        " omega_bc: 1000.0, omega_slice: 1000.0, omega_gamma: 1.0,"
                        " omega_pde: 10.0}"),
])
def test_inverse_stage_timings_outside_output_hash(tmp_path, experiment, inverse):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        f"experiment: {experiment}\n"
        "grid: {nx: [17], nt: 17, gamma: [x-, x+]}\n"
        "ensemble: {seed: 3, n: 1, max_modes: 2, t_degree: 2}\n"
        "sources: {q_min: 0.02}\n"
        f"inverse: {inverse}\n",
        encoding="utf-8",
    )
    reports = []
    for name in ("o1", "o2"):
        assert run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    for report in reports:
        timings = report["summary"]["timings"]
        assert set(timings) == {"assemble_s", "factor_s", "eliminate_s", "qr_svd_s",
                                "solve_s"}
        assert all(v >= 0.0 for v in timings.values())
    assert reports[0]["output_hash"] == reports[1]["output_hash"]


def test_even_nt_config_fails_with_code_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("experiment: verify-weights\ngrid: {nt: 16}\n",
                   encoding="utf-8")
    assert run_cli(["verify-weights", "--config", str(cfg)]) == 2
    assert "nt" in capsys.readouterr().err


def test_unknown_keys_fail(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("experiment: verify-weights\nnot_a_key: 1\n",
                   encoding="utf-8")
    assert run_cli(["verify-weights", "--config", str(cfg)]) == 2


def test_seed_override_changes_outputs(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "experiment: state-det\n" + SMALL_GRID +
        "ensemble: {seed: 3, n: 1}\nstatedet: {refine: false}\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["state-det", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["state-det", "--config", str(cfg), "--out", str(out2),
                    "--seed", "4"]) == 0
    assert (out1 / "ceps.csv").read_bytes() != (out2 / "ceps.csv").read_bytes()


def test_emit_report_refuses_empty():
    with pytest.raises(ValueError, match="tables"):
        emit_report(RunReport("x", {}, []), "/tmp/whatever")


def test_emit_report_unwritable_dir(tmp_path):
    table = ResultTable("t", ("a",), ((1.0,),))
    report = RunReport("x", {}, [table])
    target = tmp_path / "file_not_dir"
    target.write_text("occupied", encoding="utf-8")
    with pytest.raises(OSError):
        emit_report(report, str(target))


def test_float_formatting_round_trip():
    from mfglab.reports import fmt_value

    assert fmt_value(0.1) == "0.1"
    assert fmt_value(True) == "true"
    assert float(fmt_value(1 / 3)) == 1 / 3
    assert fmt_value(1e-07) == "1e-07"


def test_sweep_timings_outside_output_hash(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "experiment: verify-carleman\n"
        "grid: {nx: [17], nt: 17, gamma: [x-, x+]}\n"
        "ensemble: {seed: 3, n: 2, max_modes: 2, t_degree: 2}\n"
        "sources: {q_min: 0.02}\n"
        "weights: {lambdas: [1.0], s_values: [0.5, 1.0]}\n"
        "estimates: {kinds: [THM3, ENERGY_3_8], refine: true}\n",
        encoding="utf-8",
    )
    reports = []
    for name in ("o1", "o2"):
        assert run_cli(["verify-carleman", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    for report in reports:
        timings = report["timings"]
        assert set(timings) == {"members_s", "terms_s", "sums_s"}
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= report["wall_time_s"]
    assert reports[0]["output_hash"] == reports[1]["output_hash"]


def test_state_det_timings_outside_output_hash(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "experiment: state-det\n"
        "grid: {nx: [17], nt: 17, gamma: [x+]}\n"
        "ensemble: {seed: 3, n: 2, max_modes: 2, t_degree: 2}\n"
        "statedet: {epsilons: [0.2], refine: true}\n",
        encoding="utf-8",
    )
    reports = []
    for name in ("o1", "o2"):
        assert run_cli(["state-det", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    for report in reports:
        timings = report["timings"]
        assert set(timings) == {"coarse_s", "refined_s"}
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= report["wall_time_s"]
    assert reports[0]["output_hash"] == reports[1]["output_hash"]


def test_lemma3_builds_each_cell_bundle_once(monkeypatch):
    import mfglab.cli
    from mfglab.cli import run
    from mfglab.config import load_config

    calls = []
    eval_bundle = mfglab.cli.eval_weight_bundle

    def counted(eta, params, grid):
        calls.append(params)
        return eval_bundle(eta, params, grid)

    monkeypatch.setattr(mfglab.cli, "eval_weight_bundle", counted)
    config = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "lemma3.yaml"))
    report = run(config)
    wspec, ens = config.section("weights"), config.section("ensemble")
    cells = [(float(lam), float(s)) for lam in wspec["lambdas"] for s in wspec["s_values"]]
    assert len(calls) == len(cells) == 8  # not once per p as well
    # rows stay p-major, then (lam, s), then member
    assert [row[:4] for row in report.tables[0].rows] == [
        (p, lam, s, i) for p in config.section("lemma3")["p_values"]
        for lam, s in cells for i in range(ens["n"])]
