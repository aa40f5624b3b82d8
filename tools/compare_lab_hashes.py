"""Compare the output_hash of the shipped configs between two checkouts.

    python tools/compare_lab_hashes.py BASE_DIR HEAD_DIR

Runs each config in ``configs/`` (the six lab configs verify_weights,
verify_carleman, lemma3, energy_slices, state_det and nonlinear_diff, then
the two inverse configs reconstruct_clean and stability_sweep) with the
library of each checkout, in its own interpreter, and prints one line per
config saying whether the hashes agree.  The stability sweep's hash is
reproducible only at a fixed OpenBLAS thread count (threaded OpenBLAS picks
other kernels); both checkouts run in this one environment, so the
comparison holds, and the last line gives the thread count that each
checkout's ``report.json`` records (``OPENBLAS_NUM_THREADS``, or "unset";
"not recorded" by a checkout that predates the record).  It only reports:
the exit code is 0 whatever differs or fails, because an intended numeric
change moves a hash too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

import yaml

LAB_CONFIGS = ("verify_weights", "verify_carleman", "lemma3", "energy_slices",
               "state_det", "nonlinear_diff")
INVERSE_CONFIGS = ("reconstruct_clean", "stability_sweep")


def output_hash(root: Path, name: str) -> tuple[str, Optional[str]]:
    """The config's output_hash (or why there is none) and the OpenBLAS
    thread count its report.json records."""
    config = root / "configs" / f"{name}.yaml"
    if not config.exists():
        return "missing", None
    experiment = yaml.safe_load(config.read_text(encoding="utf-8"))["experiment"]
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "mfglab", experiment, "--config", str(config),
             "--out", out],
            cwd=root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            return f"failed ({proc.stderr.strip().splitlines()[-1:]})", None
        report = json.loads((Path(out) / "report.json").read_text())
        threads = report["versions"].get("openblas_threads", "not recorded")
        return report["output_hash"], threads


def main(argv: list[str]) -> int:
    roots = {"base": Path(argv[0]).resolve(), "head": Path(argv[1]).resolve()}
    differ = 0
    names = LAB_CONFIGS + INVERSE_CONFIGS
    threads: dict[str, set[str]] = {side: set() for side in roots}
    for name in names:
        hashes = {}
        for side, root in roots.items():
            hashes[side], recorded = output_hash(root, name)
            if recorded is not None:
                threads[side].add(recorded)
        same = hashes["base"] == hashes["head"]
        differ += not same
        print(f"{name:17s} {'same' if same else 'DIFFERS'}  "
              f"base {hashes['base']}  head {hashes['head']}")
    print(f"{differ} of {len(names)} output_hash values differ")
    print("OpenBLAS threads: " + ", ".join(
        f"{side} {' / '.join(sorted(seen)) or 'no report'}"
        for side, seen in threads.items()))
    return 0

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
