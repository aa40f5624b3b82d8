"""Peak memory and wall time of each shipped config, each in a fresh interpreter.

    python tools/config_peaks.py [[BASE_DIR] HEAD_DIR]

Runs each config in ``configs/`` (the lab configs and the inverse configs
that ``compare_lab_hashes.py`` reads from that directory) through the CLI
of a checkout (default: this one), one process per config, and prints the
peak resident set size (``ru_maxrss`` of that process) with the run's
``wall_time_s`` and its stage ``timings`` from its ``report.json``.  The first two lines are
floors: a process that only imports the library ("imports only"), and one
that also imports the SciPy modules of the inverse solver through
``mfglab.inverse.load_scipy`` ("imports + inverse"), as ``load_config``
does for an inverse config.  A lab config's peak includes the first
floor, an inverse config's peak the second.

Given two checkouts, it prints each config's peak in both and the change
from BASE_DIR to HEAD_DIR; the two runs of a config alternate which
checkout goes first.  The last line names, in each checkout, the lab
config with the largest peak: the one that sets the peak of a process
that runs them all (the benchmark's lab_suite pass), where two peaks
within a few tenths of a MB of each other can trade places.

Every process reads its bytecode from one temporary ``PYTHONPYCACHEPREFIX``,
warmed first by running each checkout's configs once unmeasured.  A process
that compiles its modules (under ``PYTHONDONTWRITEBYTECODE=1`` with a stale
or missing ``__pycache__``) peaks 1-2 MB higher, which would hide what the
code itself holds.  It only reports: the exit code is 0 whatever a run does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

from compare_lab_hashes import INVERSE_CONFIGS, LAB_CONFIGS, experiment_of

IMPORTS = "imports only"
IMPORTS_INVERSE = "imports + inverse"
# the code each floor process runs
FLOORS = {IMPORTS: "import mfglab.cli",
          IMPORTS_INVERSE: ("import mfglab.cli, mfglab.inverse; "
                            "mfglab.inverse.load_scipy()")}


def peak_rss_mb(argv: list[str], root: Path,
                env: dict[str, str]) -> tuple[float, int, str]:
    """Run ``argv`` with the checkout's library; return its own ru_maxrss in
    MB, its exit code and the last line of its standard error."""
    env = dict(env, PYTHONPATH=str(root / "src"))
    with subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as proc:
        err = proc.stderr.read()
        # reap the child here: wait4 gives this one process's rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return usage.ru_maxrss / 1024.0, proc.returncode, last  # Linux: KiB


def run_config(root: Path, name: str, env: dict[str, str]):
    """Peak MB, wall seconds and stage seconds of one config of ``root``
    (a name in ``FLOORS``: the floor process), or a string saying why there
    are none."""
    if name in FLOORS:
        rss, code, err = peak_rss_mb([sys.executable, "-c", FLOORS[name]], root, env)
        return (rss, None, {}) if code == 0 else f"failed ({err})"
    config = root / "configs" / f"{name}.yaml"
    experiment = experiment_of(config)
    if experiment is None:
        return "missing"
    with tempfile.TemporaryDirectory() as out:
        rss, code, err = peak_rss_mb(
            [sys.executable, "-m", "mfglab", experiment, "--config", str(config),
             "--out", out], root, env)
        if code != 0:
            return f"failed ({err})"
        report = json.loads((Path(out) / "report.json").read_text())
        return rss, report["wall_time_s"], report.get("timings", {})


def fmt(result) -> str:
    if isinstance(result, str):
        return result
    rss, wall, timings = result
    text = f"{rss:7.1f} MB"
    if wall is not None:
        text += f"  wall {wall:6.3f} s"
    if timings:
        text += " (" + ", ".join(f"{k} {v:.3f} s" for k, v in sorted(timings.items())) + ")"
    return text


def largest_lab_peak(peaks: dict[str, object]) -> str:
    """The lab config with the largest peak among ``peaks`` (name to
    :func:`run_config` result), with that peak."""
    lab = {name: r[0] for name, r in peaks.items()
           if name in LAB_CONFIGS and not isinstance(r, str)}
    if not lab:
        return "no lab config ran"
    name = max(lab, key=lab.get)
    return f"{name} {lab[name]:.1f} MB"


def main(argv: list[str]) -> int:
    roots = [Path(a).resolve() for a in argv] or [Path(__file__).resolve().parents[1]]
    base: Optional[Path] = roots[0] if len(roots) == 2 else None
    head = roots[-1]
    names = tuple(FLOORS) + LAB_CONFIGS + INVERSE_CONFIGS
    peaks: dict[Path, dict[str, object]] = {root: {} for root in roots}
    with tempfile.TemporaryDirectory() as prefix:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
        warm = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        for root in roots:
            for name in names:
                run_config(root, name, warm)
        for i, name in enumerate(names):
            order = (base, head) if i % 2 == 0 else (head, base)
            for root in roots if base is None else order:
                peaks[root][name] = run_config(root, name, env)
            if base is None:
                print(f"{name:17s} peak {fmt(peaks[head][name])}")
                continue
            old, new = peaks[base][name], peaks[head][name]
            line = f"{name:17s} base {fmt(old)}  head {fmt(new)}"
            if not isinstance(old, str) and not isinstance(new, str):
                line += f"  delta {new[0] - old[0]:+5.1f} MB"
            print(line)
    labels = {head: ""} if base is None else {base: "base ", head: "head "}
    print("largest lab peak: " + "  ".join(
        label + largest_lab_peak(peaks[root]) for root, label in labels.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
