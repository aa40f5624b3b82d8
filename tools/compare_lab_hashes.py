"""Compare the output_hash of the six lab configs between two checkouts.

    python tools/compare_lab_hashes.py BASE_DIR HEAD_DIR

Runs each non-inverse config in ``configs/`` (verify_weights,
verify_carleman, lemma3, energy_slices, state_det, nonlinear_diff) with the
library of each checkout, in its own interpreter, and prints one line per
config saying whether the hashes agree.  It only reports: the exit code is
0 whatever differs or fails, because an intended numeric change moves a
hash too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

LAB_CONFIGS = ("verify_weights", "verify_carleman", "lemma3", "energy_slices",
               "state_det", "nonlinear_diff")


def output_hash(root: Path, name: str) -> str:
    config = root / "configs" / f"{name}.yaml"
    if not config.exists():
        return "missing"
    experiment = yaml.safe_load(config.read_text(encoding="utf-8"))["experiment"]
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "mfglab", experiment, "--config", str(config),
             "--out", out],
            cwd=root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            return f"failed ({proc.stderr.strip().splitlines()[-1:]})"
        return json.loads((Path(out) / "report.json").read_text())["output_hash"]


def main(argv: list[str]) -> int:
    base, head = (Path(a).resolve() for a in argv)
    differ = 0
    for name in LAB_CONFIGS:
        old, new = output_hash(base, name), output_hash(head, name)
        same = old == new
        differ += not same
        print(f"{name:16s} {'same' if same else 'DIFFERS'}  base {old}  head {new}")
    print(f"{differ} of {len(LAB_CONFIGS)} output_hash values differ")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
