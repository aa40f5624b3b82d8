import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from mfglab import inverse
from mfglab.cli import main
from mfglab.config import EXPERIMENTS, ConfigError
from mfglab.reports import ResultTable, RunReport, emit_report, recording, stage

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
    assert (out / "weights.csv").exists() and not (out / "weights.dat").exists()
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
    for name in ("carleman.csv", "constants.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert not list(out1.glob("*.dat"))
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
        timings = report["timings"]
        assert set(timings) == {"assemble_s", "factor_s", "eliminate_s", "qr_svd_s",
                                "solve_s"}
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= report["wall_time_s"]
        assert "timings" not in report["summary"]
    assert reports[0]["output_hash"] == reports[1]["output_hash"]


def test_thm2_runs_on_cases_at_s_zero_only(tmp_path, capsys):
    """THM2 reads the factorized sources, so it sweeps the case ensemble, and
    only at s = 0; the default s values are refused with THM2 named."""
    cfg = tmp_path / "t.yaml"
    body = ("experiment: verify-carleman\n" + SMALL_GRID
            + "ensemble: {seed: 3, n: 3}\nestimates: {kinds: [THM2]}\n")
    cfg.write_text(body + "weights: {s_values: [0.0]}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["verify-carleman", "--config", str(cfg), "--out", str(out)]) == 0
    drift = json.loads((out / "report.json").read_text())["summary"]["THM2"]["drift"]
    assert isinstance(drift, float) and drift > 0 and drift != float("inf")
    capsys.readouterr()
    cfg.write_text(body, encoding="utf-8")
    assert run_cli(["verify-carleman", "--config", str(cfg),
                    "--out", str(tmp_path / "refused")]) == 2
    assert "THM2" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


def test_lemma3_subcommand_is_gone(capsys):
    """Lemma 3 runs as verify-carleman kinds, so ``mfglab lemma3`` is an
    argparse error (exit code 2)."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["lemma3", "--config", "configs/lemma3.yaml"])
    assert exc.value.code == 2
    assert "invalid choice: 'lemma3'" in capsys.readouterr().err


def test_even_nt_config_fails_with_code_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("experiment: verify-weights\ngrid: {nt: 16}\n",
                   encoding="utf-8")
    assert run_cli(["verify-weights", "--config", str(cfg)]) == 2
    assert "nt" in capsys.readouterr().err


def test_backward_parabolic_config_fails_with_code_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("experiment: verify-weights\ncoefficients: {a: [['-1']]}\n",
                   encoding="utf-8")
    assert run_cli(["verify-weights", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "least eigenvalue of the principal parts is -1 < chi=1" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


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


@pytest.mark.parametrize("experiment", ["reconstruct", "stability-sweep"])
def test_seed_refused_when_the_config_gives_case_states(tmp_path, capsys, monkeypatch,
                                                        experiment):
    """``--seed`` overrides ``ensemble.seed``, from which explicit case states
    draw nothing: it is refused there (exit code 2) before any run, and
    accepted by a config that draws its case."""
    import mfglab.cli

    seeds = []

    def fake_run(config):
        seeds.append(config.section("ensemble")["seed"])
        return RunReport(config.experiment, config.resolved,
                         [ResultTable("t", ("a",), ((1.0,),))])

    monkeypatch.setattr(mfglab.cli, "run", fake_run)
    case = "case: {u: [[1.0, 1, 0]], v: [[2.0, 2, 0]]}\n"
    for name, text in (("case", case), ("drawn", "")):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(f"experiment: {experiment}\n" + SMALL_GRID + text, encoding="utf-8")
        code = run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path / name),
                        "--seed", "2"])
        assert code == (2 if name == "case" else 0)
    assert "--seed has no effect" in capsys.readouterr().err
    assert seeds == [2]
    assert not (tmp_path / "case").exists()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_seed_goes_to_the_seed_of_the_configs_draw(monkeypatch, capsys, experiment):
    """``--seed`` sets ``ensemble.seed`` where the config has an ensemble,
    ``nonlinear.seed`` where it has a nonlinear pair, and is refused where
    it has neither (verify-weights)."""
    import mfglab.cli

    seen = []

    def stop(path, experiment, overrides):
        seen.append(overrides)
        raise ConfigError("stop")

    monkeypatch.setattr(mfglab.cli, "load_config", stop)
    if experiment == "verify-weights":
        with pytest.raises(SystemExit) as exit_:
            main([experiment, "--seed", "3"])
        assert exit_.value.code == 2 and "no seed to override" in capsys.readouterr().err
        assert seen == []
        return
    assert main([experiment, "--seed", "3"]) == 2
    section = "nonlinear" if experiment == "nonlinear-diff" else "ensemble"
    assert seen == [{f"{section}.seed": 3}]


@pytest.mark.parametrize("seed", [5, 2])
def test_nonlinear_diff_draws_the_first_two_stream_pairs(monkeypatch, seed):
    """The pair is the first two pairs of ``cosine_pairs``, which are the
    four fields drawn one after another from the seed's generator."""
    import numpy as np

    import mfglab.cli
    from mfglab.basis import random_cosine_field
    from mfglab.config import load_config
    from mfglab.models import cosine_pairs

    seen = []
    thm4 = mfglab.cli.thm4_experiment

    def recorded(pairs, *args, **kwargs):
        seen.append(pairs)
        return thm4(pairs, *args, **kwargs)

    monkeypatch.setattr(mfglab.cli, "thm4_experiment", recorded)
    cfg = load_config(None, experiment="nonlinear-diff",
                      overrides={"grid.nx": [17], "grid.nt": 17, "nonlinear.seed": seed,
                                 "statedet.refine": False})
    mfglab.cli.run(cfg)
    g = cfg.build_grid()
    stream = cosine_pairs(seed, g, 3, 3, 1.0)
    rng = np.random.default_rng(seed)
    drawn = [random_cosine_field(rng, g.lengths, g.T, 3, 3, 1.0) for _ in range(4)]
    assert seen == [(next(stream), next(stream))]
    assert seen == [((drawn[0], drawn[1]), (drawn[2], drawn[3]))]


def test_emit_report_refuses_empty():
    with pytest.raises(ValueError, match="tables"):
        emit_report(RunReport("x", {}, []), "/tmp/whatever")


def test_openblas_threads_recorded_outside_output_hash(tmp_path, monkeypatch):
    report = RunReport("x", {}, [ResultTable("t", ("a",), ((1.0,),))])
    seen = []
    for threads in ("3", None):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / str(threads)
        written = json.loads(Path(emit_report(report, str(out))["report.json"]).read_text())
        seen.append((written["versions"]["openblas_threads"], written["output_hash"]))
    assert [v for v, _ in seen] == ["3", "unset"]
    assert seen[0][1] == seen[1][1]


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
        assert set(timings) == {"members_s", "terms_s", "cells_s", "sums_s"}
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


@pytest.mark.parametrize("experiment,sections,stages", [
    ("verify-carleman", "ensemble: {seed: 3, n: 2, max_modes: 2, t_degree: 2}\n"
                        "weights: {lambdas: [1.0], s_values: [8.0, 16.0]}\n"
                        "estimates: {kinds: [LEMMA3(p=0), LEMMA3(p=1)], refine: false}\n",
     {"members_s", "terms_s", "cells_s", "sums_s"}),
    ("nonlinear-diff", "statedet: {epsilons: [0.2], refine: true}\n",
     {"coarse_s", "refined_s"}),
])
def test_stage_timings_outside_output_hash(tmp_path, experiment, sections, stages):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"experiment: {experiment}\n"
                   "grid: {nx: [17], nt: 17, gamma: [x+]}\n" + sections,
                   encoding="utf-8")
    reports = []
    for name in ("o1", "o2"):
        assert run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    for report in reports:
        timings = report["timings"]
        assert set(timings) == stages
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= report["wall_time_s"]
        assert not set(report["summary"]) & (stages | {"timings"})
    assert reports[0]["output_hash"] == reports[1]["output_hash"]


def test_stage_outside_recording_only_runs_its_block():
    ran = []
    with stage("a_s"):
        ran.append("a_s")
    with recording() as timings:
        pass
    assert ran == ["a_s"]
    assert timings == {}


def test_nested_recording_restores_the_outer_one():
    with recording() as outer:
        with stage("a_s"):
            pass
        with pytest.raises(RuntimeError):
            with recording() as inner:
                with stage("b_s"):
                    raise RuntimeError("inside the inner recording")
        with stage("a_s"):
            pass
        with stage("c_s"):
            pass
    with stage("d_s"):
        pass
    assert set(outer) == {"a_s", "c_s"}
    assert set(inner) == {"b_s"}
    assert all(v >= 0.0 for v in (*outer.values(), *inner.values()))


def test_lemma3_builds_each_cell_bundle_once(monkeypatch):
    import mfglab.verify
    from mfglab.cli import run
    from mfglab.config import load_config

    calls = []
    eval_bundle = mfglab.verify.eval_weight_bundle

    def counted(eta, params, grid):
        calls.append(params)
        return eval_bundle(eta, params, grid)

    monkeypatch.setattr(mfglab.verify, "eval_weight_bundle", counted)
    config = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "lemma3.yaml"))
    report = run(config)
    wspec, ens = config.section("weights"), config.section("ensemble")
    cells = [(float(lam), float(s)) for lam in wspec["lambdas"] for s in wspec["s_values"]]
    assert len(calls) == len(cells) == 8  # not once per p as well
    # rows stay kind-major, then (lam, s), then member
    assert [row[:4] for row in report.tables[0].rows] == [
        (kind, lam, s, i) for kind in config.section("estimates")["kinds"]
        for lam, s in cells for i in range(ens["n"])]


def test_lemma3_builds_each_weight_factor_once_per_cell(monkeypatch):
    from mfglab.cli import run
    from mfglab.config import load_config
    from mfglab.weights import WeightBundle

    calls = []
    weight_factor = WeightBundle.weight_factor

    def counted(self, m=0, lam_power=0):
        calls.append((self.params, m, lam_power))
        return weight_factor(self, m, lam_power)

    monkeypatch.setattr(WeightBundle, "weight_factor", counted)
    config = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "lemma3.yaml"))
    run(config)
    # 8 cells x 3 powers x (antiderivative, field), not once per member too
    assert len(calls) == len(set(calls)) == 48


@pytest.mark.parametrize("experiment", ["reconstruct", "stability-sweep"])
def test_bad_inverse_penalty_fails_with_code_2_before_the_case(tmp_path, capsys,
                                                               monkeypatch, experiment):
    import mfglab.cli

    built = []
    monkeypatch.setattr(mfglab.cli, "_inverse_case", lambda *args: built.append(args))
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"experiment: {experiment}\ninverse: {{omega_pde: -1.0}}\n",
                   encoding="utf-8")
    assert run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error: inverse: omega_pde must be positive" in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "report.json").exists()


def test_lab_runs_import_no_scipy_submodule(tmp_path):
    """SciPy's sparse and linear-algebra modules load only for an inverse
    experiment, when its config is loaded; a lab run and the emission of its
    report (whose ``versions`` record reads SciPy's BLAS only once loaded)
    load neither."""
    root = Path(__file__).resolve().parents[1]
    code = """
import json, sys
import mfglab, mfglab.cli
from mfglab.config import load_config
heavy = ("scipy.sparse", "scipy.linalg")
seen = {"import": [m for m in heavy if m in sys.modules]}
from mfglab.reports import emit_report
emit_report(mfglab.cli.run(load_config(sys.argv[1])), sys.argv[2])
seen["lemma3"] = [m for m in heavy if m in sys.modules]
load_config(sys.argv[3])
seen["inverse config"] = [m for m in ("mfglab.inverse", *heavy) if m in sys.modules]
from mfglab import reconstruct
print(json.dumps(seen))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c", code, str(root / "configs" / "lemma3.yaml"),
         str(tmp_path), str(root / "configs" / "reconstruct_clean.yaml")],
        env=env, check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == {"import": [], "lemma3": [],
                               "inverse config": ["mfglab.inverse", "scipy.sparse",
                                                  "scipy.linalg"]}


# a verify-carleman run whose refined pass sums over 129^2 nodes
LAB_129 = (
    "experiment: verify-carleman\n"
    "grid: {nx: [65], nt: 65, gamma: [x+]}\n"
    "coefficients: {c0: '1', coupling: {'0': '0.5', '2': '0.3'}}\n"
    "ensemble: {seed: 7, n: 2}\n"
    "weights: {lambdas: [1.0], s_values: [8.0]}\n"
    "estimates: {kinds: [LEMMA1, THM3, LEMMA4], refine: true}\n"
)


@pytest.mark.parametrize("name", ["lab-129", "reconstruct_clean", "stability_sweep",
                                  "inverse_cold-129"])
def test_output_independent_of_openblas_thread_count(tmp_path, name):
    """Every output_hash is the same at 1 and at 2 OpenBLAS threads.

    The lab's sums and sampling make no BLAS call, whose results change
    with the thread count.  In ``lab-129`` one cell with a spread-out weight
    would make a 1 x 16641 product ``stack @ pre`` take other bits at 2
    threads, while an 8-row one, or one cell at lambda 2, s 64 (a weight on
    few nodes), was seen to give equal bits.  The inverse runs SciPy's BLAS
    on one thread: unpinned, the shipped reconstruct and stability sweep
    hash differently at 2 threads, and so does the benchmark's cold
    reconstruct at 129^2, whose 16,641-row objective terms (``ddot``, outside
    the solve) OpenBLAS splits over the threads.
    """
    root = Path(__file__).resolve().parents[1]
    if name == "lab-129":
        text = LAB_129
    elif name == "inverse_cold-129":
        spec = yaml.safe_load((root / "perfbench" / "configs" / "inverse_cold.yaml")
                              .read_text(encoding="utf-8"))
        spec["grid"].update(nx=[129], nt=129)
        text = yaml.safe_dump(spec)
    else:
        text = (root / "configs" / f"{name}.yaml").read_text(encoding="utf-8")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text, encoding="utf-8")
    hashes = set()
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
        subprocess.run([sys.executable, "-m", "mfglab", yaml.safe_load(text)["experiment"],
                        "--config", str(cfg), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        report = json.loads((out / "report.json").read_text())
        assert report["versions"]["openblas_threads"] == threads
        hashes.add(report["output_hash"])
    assert len(hashes) == 1


def test_blas_pin_sets_one_thread_and_restores_the_count(monkeypatch):
    counts = [3]

    def setter(count):
        old, counts[0] = counts[0], count
        return old

    monkeypatch.setattr(inverse, "_blas_threads_setter", lambda: setter)
    with pytest.raises(RuntimeError):
        with inverse._one_blas_thread():
            assert counts == [1]
            raise RuntimeError
    assert counts == [3]


def test_inverse_runs_unpinned_without_the_thread_setter(tmp_path, monkeypatch):
    """A SciPy whose BLAS has no ``openblas_set_num_threads_local`` still
    reconstructs, unpinned, and report.json says so."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "experiment: reconstruct\n"
        "grid: {nx: [17], nt: 17, gamma: [x-, x+]}\n"
        "ensemble: {seed: 3, n: 1, max_modes: 2, t_degree: 2}\n"
        "sources: {q_min: 0.02}\n"
        "inverse: {delta: 1.0e-2, beta: 1.0e-4}\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(inverse, "_blas_threads_setter", lambda: None)
    assert run_cli(["reconstruct", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["summary"]["converged"] is True
    assert report["versions"]["inverse_blas_threads"] == "unpinned"
