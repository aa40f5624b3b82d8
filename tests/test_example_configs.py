"""Every shipped example config must load, validate and name a known
experiment; the cheap ones also run end to end."""

import csv
import hashlib
import json
import math
from pathlib import Path

import pytest
import yaml

from mfglab.cli import main as cli_main
from mfglab.config import load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.yaml"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_example_config_loads(path):
    cfg = load_config(str(path))
    assert cfg.experiment in path.read_text()
    assert cfg.grid is not None
    assert (cfg.coeff_recipe is None) == ("coefficients" not in cfg.resolved)


def assert_emitted(out: Path, names: list[str]) -> None:
    """``out`` holds exactly ``names`` and report.json, and the report's
    output_hash is the sha256 over each of ``names`` and its text, in
    emission order."""
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["report.json"])
    hasher = hashlib.sha256()
    for name in names:
        hasher.update(name.encode())
        hasher.update((out / name).read_bytes())
    report = json.loads((out / "report.json").read_text())
    assert report["output_hash"] == hasher.hexdigest()


def test_weights_example_runs(tmp_path):
    path = CONFIG_DIR / "verify_weights.yaml"
    assert cli_main(["verify-weights", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
    assert_emitted(tmp_path, ["weights.csv"])


def test_nonlinear_example_runs_small(tmp_path):
    base = yaml.safe_load((CONFIG_DIR / "nonlinear_diff.yaml").read_text())
    base["grid"]["nx"] = [17]
    base["grid"]["nt"] = 17
    base["statedet"]["refine"] = False
    small = tmp_path / "small.yaml"
    small.write_text(yaml.safe_dump(base), encoding="utf-8")
    assert cli_main(["nonlinear-diff", "--config", str(small),
                     "--out", str(tmp_path / "out")]) == 0
    assert_emitted(tmp_path / "out", ["ceps.csv", "bounds.json"])


def test_lemma3_example_runs_small_as_verify_carleman(tmp_path):
    """Lemma 3 ships as a verify-carleman config: one carleman.csv row per
    (kind, lambda, s, member), every ratio finite, one summary entry per
    weight power."""
    base = yaml.safe_load((CONFIG_DIR / "lemma3.yaml").read_text())
    base["grid"]["nx"] = [17]
    base["grid"]["nt"] = 17
    base["ensemble"]["n"] = 2
    small = tmp_path / "small.yaml"
    small.write_text(yaml.safe_dump(base), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["verify-carleman", "--config", str(small), "--out", str(out)]) == 0
    with open(out / "carleman.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    kinds = ["LEMMA3(p=0)", "LEMMA3(p=1)", "LEMMA3(p=2)"]
    w = base["weights"]
    assert [(r["kind"], float(r["lambda"]), float(r["s"]), int(r["member"]))
            for r in rows] == [(k, float(lam), float(s), i) for k in kinds
                               for lam in w["lambdas"] for s in w["s_values"]
                               for i in range(2)]
    assert all(math.isfinite(float(r["ratio"])) for r in rows)
    summary = json.loads((out / "report.json").read_text())["summary"]
    assert sorted(summary) == kinds
