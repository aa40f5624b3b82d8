"""Tests of the benchmark itself (not part of the library's test suite).

Run from the checkout root:  python3 -m pytest -q perfbench/tests
The end-to-end tests drive ``run.py`` on real workloads and take about a
minute in total.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import mfglab  # noqa: E402
import mfglab.cli  # noqa: E402
import mfglab.grid  # noqa: E402
import mfglab.inverse  # noqa: E402
import run as bench_run  # noqa: E402
from mfglab.config import load_config  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, experiments  # noqa: E402

SMALL = {"grid.nx": [17], "grid.nt": 17}


def _run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- tracer ------------------------------------------------------------------


def test_tracer_counts_match_profiler(tmp_path):
    """Every wrapped function is counted exactly as often as cProfile sees
    its code object run, so no call slips past through a by-name import."""
    configs = [
        load_config(str(ROOT / "configs" / "verify_carleman.yaml"),
                    overrides={**SMALL, "ensemble.n": 2}),
        load_config(str(ROOT / "configs" / "state_det.yaml"),
                    overrides={**SMALL, "ensemble.n": 2}),
        load_config(str(ROOT / "configs" / "stability_sweep.yaml"), overrides=SMALL),
        load_config(str(BENCH / "configs" / "inverse_cold.yaml"), overrides=SMALL),
    ]
    tracer = Tracer()
    prof = cProfile.Profile()
    with tracer:
        prof.enable()
        for i, cfg in enumerate(configs):
            mfglab.reports.emit_report(mfglab.cli.run(cfg), str(tmp_path / str(i)))
        prof.disable()
    stats = pstats.Stats(prof).stats
    summary = tracer.summary()
    assert summary["inverse.reconstruct"]["calls"] == 16
    assert summary["grid.diff"]["calls"] > 0
    for label, fn in tracer.originals.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled = stats[key][1] if key in stats else 0
        traced = summary.get(label, {}).get("calls", 0)
        assert traced == profiled, label


def test_tracer_restores_every_binding():
    originals = {
        "cli.reconstruct": mfglab.cli.reconstruct,
        "cli.stability_sweep": mfglab.cli.stability_sweep,
        "inverse.reconstruct": mfglab.inverse.reconstruct,
        "grid.diff": mfglab.grid.diff,
        "package.diff": mfglab.diff,
        "verify.diff": sys.modules["mfglab.verify"].diff,
        "weight_factor": mfglab.WeightBundle.weight_factor,
        "nonlinear_sample": vars(mfglab.NonlinearCoeffs)["sample"],
    }
    with Tracer():
        assert mfglab.cli.reconstruct is mfglab.inverse.reconstruct
        assert mfglab.cli.reconstruct is not originals["cli.reconstruct"]
        assert sys.modules["mfglab.verify"].diff is mfglab.grid.diff
        assert mfglab.grid.diff is not originals["grid.diff"]
    assert mfglab.cli.reconstruct is originals["cli.reconstruct"]
    assert mfglab.cli.stability_sweep is originals["cli.stability_sweep"]
    assert mfglab.inverse.reconstruct is originals["inverse.reconstruct"]
    assert mfglab.grid.diff is originals["grid.diff"]
    assert mfglab.diff is originals["package.diff"]
    assert sys.modules["mfglab.verify"].diff is originals["verify.diff"]
    assert mfglab.WeightBundle.weight_factor is originals["weight_factor"]
    assert vars(mfglab.NonlinearCoeffs)["sample"] is originals["nonlinear_sample"]


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans[:] = [("a", -1, 0.0, 10.0, None), ("b", 0, 1.0, 4.0, None),
                       ("c", 1, 2.0, 3.0, None), ("b", 0, 5.0, 7.0, "KeyError")]
    s = tracer.summary()
    assert s["a"]["self_s"] == pytest.approx(5.0)
    assert s["b"]["self_s"] == pytest.approx(4.0)
    assert s["b"]["calls"] == 2 and s["b"]["errors"] == {"KeyError": 1}
    assert s["c"]["self_s"] == pytest.approx(1.0)


# -- workloads ---------------------------------------------------------------


@pytest.mark.parametrize("workload", ("inverse_cold", "lab_suite"))
def test_seed_maps_onto_config_seed_slots(workload):
    a = experiments(workload, 1, ROOT)
    assert a == experiments(workload, 1, ROOT)
    b = experiments(workload, 2, ROOT)
    seeded = [e for e in a if e.overrides]
    assert seeded and all(x.overrides != y.overrides for x, y in zip(a, b)
                          if x.overrides)
    for exp in a:
        cfg = load_config(exp.config, overrides=exp.overrides)
        for key, value in exp.overrides.items():
            sec, name = key.split(".")
            assert cfg.section(sec)[name] == value


def test_inverse_sweep_runs_the_shipped_config():
    assert experiments("inverse_sweep", 1, ROOT) == experiments("inverse_sweep", 2, ROOT)
    assert experiments("inverse_sweep", 1, ROOT)[0].overrides == {}


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in bench_run.PER_LAYER]
    assert spec["paths"] == ["perfbench"]


# -- end to end --------------------------------------------------------------


def test_lab_suite_traced_counts_and_hash():
    """A traced and an untraced pass agree on every output_hash (the run's
    repeat checks), inverse is never called and diff runs >= 20,480 times."""
    out = _result(_run_bench("lab_suite", 2, trace=1))
    assert out["correct"] and out["failed"] == 0
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(m) == {row[0] for row in bench_run.PER_LAYER}
    assert m["inverse.reconstruct.calls"] == 0
    assert m["grid.diff.calls"] >= 20480


def test_inverse_sweep_traced_counts_and_hash():
    out = _result(_run_bench("inverse_sweep", 2, trace=1))
    assert out["correct"] and out["failed"] == 0
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["inverse.reconstruct.calls"] == 15
    assert m["inverse.converged_ratio"] == 1.0
    assert m["inverse.unknowns"] == 15 * (2 * 65 * 65 + 2 * 65)


def test_untraced_run_prints_end_to_end_metrics():
    proc = _run_bench("lab_suite", 3, trace=0)
    out = _result(proc)
    assert out["correct"] and out["attempted"] > 0
    assert set(out["metrics"]) == {row[0] for row in bench_run.END_TO_END}
    for name, unit, _better in bench_run.END_TO_END:
        assert f"{name} " in proc.stdout and out["metrics"][name]["unit"] == unit
        assert out["metrics"][name]["value"] > 0


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab_suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
