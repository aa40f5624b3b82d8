"""Peak memory and wall time of each lab config, each in a fresh interpreter.

    python tools/config_peaks.py [CHECKOUT_DIR]

Runs each non-inverse config in ``configs/`` (the six that
``compare_lab_hashes.py`` lists) through the CLI of the checkout (default:
this one), one process per config, and prints the peak resident set size
(``ru_maxrss`` of that process) with the run's ``wall_time_s`` from its
``report.json``.  The first line is a process that only imports the
library, which every config's peak includes.  It only reports: the exit code
is 0 whatever a run does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

from compare_lab_hashes import LAB_CONFIGS


def peak_rss_mb(argv: list[str], root: Path) -> tuple[float, int, str]:
    """Run ``argv`` with the checkout's library; return its own ru_maxrss in
    MB, its exit code and the last line of its standard error."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as proc:
        err = proc.stderr.read()
        # reap the child here: wait4 gives this one process's rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return usage.ru_maxrss / 1024.0, proc.returncode, last  # Linux: KiB


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    rss, code, err = peak_rss_mb([sys.executable, "-c", "import mfglab.cli"], root)
    print(f"{'imports only':16s} peak {rss:7.1f} MB"
          + ("" if code == 0 else f"  failed ({err})"))
    for name in LAB_CONFIGS:
        config = root / "configs" / f"{name}.yaml"
        if not config.exists():
            print(f"{name:16s} missing")
            continue
        experiment = yaml.safe_load(config.read_text(encoding="utf-8"))["experiment"]
        with tempfile.TemporaryDirectory() as out:
            rss, code, err = peak_rss_mb(
                [sys.executable, "-m", "mfglab", experiment, "--config",
                 str(config), "--out", out], root)
            if code != 0:
                print(f"{name:16s} peak {rss:7.1f} MB  failed ({err})")
                continue
            wall = json.loads((Path(out) / "report.json").read_text())["wall_time_s"]
        print(f"{name:16s} peak {rss:7.1f} MB  wall {wall:6.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
