"""Compare the output_hash of the shipped configs between two checkouts.

    python tools/compare_lab_hashes.py BASE_DIR HEAD_DIR

Runs each config in ``configs/`` (first the lab configs, then those of an
inverse experiment, each group in file-name order; the groups are read from
each file's ``experiment`` key, so a new config joins without an edit), and
then ``state_det`` and ``nonlinear_diff`` again at ``--seed 2`` (labelled
``state_det@2`` and ``nonlinear_diff@2``), so their draws are compared away
from the shipped seed too, and then the benchmark's
``perfbench/configs/inverse_cold.yaml`` as it is, at two ``--seed`` values
(a noisy reconstruct with the conormal rows on random cases, where
reconstruct_clean is noise-free), with the library of each
checkout, in its own interpreter, and prints one line per run saying
whether the hashes agree, naming both ``experiment`` keys when the two
checkouts run the config under different ones, and naming each emitted
file that only one checkout writes.  The inverse hashes are
reproducible only at a fixed OpenBLAS thread count (threaded OpenBLAS picks
other kernels); both checkouts run in this one environment, so the
comparison holds, and the last line gives the thread count that each
checkout's ``report.json`` records (``OPENBLAS_NUM_THREADS``, or "unset";
"not recorded" by a checkout that predates the record).  The very last
line gives the line count of each checkout's library modules
(``src/mfglab/*.py``) and its change from base to head.

Under each run whose hashes differ it sizes the move: the largest relative
change ``|a - b| / max(|a|, |b|)`` over the numeric cells of the tables and
the summary in ``report.json`` (naming the cell), and every other cell that
differs: text, flags, an empty cell, a value that turns non-finite, or a
cell only one side has; or it says that no table or summary cell differs,
when the hash moves for the emitted files alone.  A roundoff move then
reads apart from a real one, and a file-set change apart from both.
It only reports: the exit code is 0 whatever differs or fails, because an
intended numeric change moves a hash too.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterator, Optional

import yaml

INVERSE_EXPERIMENTS = ("reconstruct", "stability-sweep")


def experiment_of(config: Path) -> Optional[str]:
    """The ``experiment`` key of a config file, None when there is no file."""
    if not config.exists():
        return None
    return yaml.safe_load(config.read_text(encoding="utf-8"))["experiment"]


# the experiment of each shipped config of this checkout, by file name
_EXPERIMENTS = {path.stem: experiment_of(path)
                for path in sorted((Path(__file__).resolve().parents[1] / "configs")
                                   .glob("*.yaml"))}
LAB_CONFIGS = tuple(name for name, exp in _EXPERIMENTS.items()
                    if exp not in INVERSE_EXPERIMENTS)
INVERSE_CONFIGS = tuple(name for name, exp in _EXPERIMENTS.items()
                        if exp in INVERSE_EXPERIMENTS)
COLD_SEEDS = (1, 2)
# lab configs run again away from their shipped seed
RESEEDED = (("state_det", 2), ("nonlinear_diff", 2))

# (label, config path under the checkout, extra command-line arguments)
RUNS = [(name, f"configs/{name}.yaml", ()) for name in LAB_CONFIGS + INVERSE_CONFIGS] \
    + [(f"{name}@{seed}", f"configs/{name}.yaml", ("--seed", str(seed)))
       for name, seed in RESEEDED] \
    + [(f"inverse_cold@{seed}", "perfbench/configs/inverse_cold.yaml",
        ("--seed", str(seed))) for seed in COLD_SEEDS]


def output_hash(root: Path, config_path: str, extra: tuple[str, ...]
                ) -> tuple[str, Optional[str], Optional[dict[str, Any]], set[str]]:
    """The run's output_hash (or why there is none), the OpenBLAS thread
    count its report.json records, the parsed report.json and the names of
    the files the run wrote."""
    config = root / config_path
    experiment = experiment_of(config)
    if experiment is None:
        return "missing", None, None, set()
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "mfglab", experiment, "--config", str(config),
             "--out", out, *extra],
            cwd=root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            return (f"failed ({proc.stderr.strip().splitlines()[-1:]})", None, None,
                    set())
        files = {path.name for path in Path(out).iterdir()}
        report = json.loads((Path(out) / "report.json").read_text())
        threads = report["versions"].get("openblas_threads", "not recorded")
        return report["output_hash"], threads, report, files


def _leaves(name: str, obj: Any) -> Iterator[tuple[str, Any]]:
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(f"{name}.{key}", value)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(f"{name}[{i}]", value)
    else:
        yield name, obj


def cells(report: dict[str, Any]) -> dict[str, Any]:
    """Every table cell, named ``table[row].column``, and every summary
    entry, named by its path, of a parsed report.json."""
    out = {}
    for table_name, table in report["tables"].items():
        for i, row in enumerate(table["rows"]):
            for column, value in zip(table["header"], row):
                out[f"{table_name}[{i}].{column}"] = value
    out.update(_leaves("summary", report["summary"]))
    return out


def _finite_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def size_move(base: dict[str, Any], head: dict[str, Any]
              ) -> tuple[float, Optional[str], list[str]]:
    """The largest relative change over the cells finite on both sides, the
    cell it is in, and the names of the other cells that differ."""
    old, new = cells(base), cells(head)
    worst, where, other = 0.0, None, []
    for name in list(old) + [n for n in new if n not in old]:
        if name not in old or name not in new:
            other.append(name)
            continue
        a, b = old[name], new[name]
        if _finite_number(a) and _finite_number(b):
            rel = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            if rel > worst:
                worst, where = rel, name
        elif json.dumps(a) != json.dumps(b):  # NaN reads equal to NaN here
            other.append(name)
    return worst, where, other


def source_lines(root: Path) -> int:
    """Lines of the library modules ``src/mfglab/*.py`` of a checkout."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (root / "src" / "mfglab").glob("*.py"))


def main(argv: list[str]) -> int:
    roots = {"base": Path(argv[0]).resolve(), "head": Path(argv[1]).resolve()}
    differ = 0
    threads: dict[str, set[str]] = {side: set() for side in roots}
    for name, config_path, extra in RUNS:
        hashes, reports, files = {}, {}, {}
        for side, root in roots.items():
            hashes[side], recorded, reports[side], files[side] = output_hash(
                root, config_path, extra)
            if recorded is not None:
                threads[side].add(recorded)
        same = hashes["base"] == hashes["head"]
        differ += not same
        # a config moved to another experiment writes other tables, so its
        # cells differ by name rather than by value
        experiments = {side: experiment_of(root / config_path)
                       for side, root in roots.items()}
        moved = (f"  experiment base {experiments['base']} head {experiments['head']}"
                 if experiments["base"] != experiments["head"] else "")
        only = "".join(
            f"  only {side} writes {', '.join(sorted(files[side] - files[rival]))}"
            for side, rival in (("base", "head"), ("head", "base"))
            if files[side] - files[rival])
        print(f"{name:17s} {'same' if same else 'DIFFERS'}  "
              f"base {hashes['base']}  head {hashes['head']}{moved}{only}")
        if not same and None not in reports.values():
            worst, where, other = size_move(reports["base"], reports["head"])
            if where is None and not other:
                print(f"{'':17s} no table or summary cell differs")
            else:
                print(f"{'':17s} largest relative change {worst:.3g}"
                      + (f" ({where})" if where else ""))
            if other:
                shown = ", ".join(other[:5]) + (", ..." if len(other) > 5 else "")
                print(f"{'':17s} {len(other)} non-numeric cells differ: {shown}")
    print(f"{differ} of {len(RUNS)} output_hash values differ")
    print("OpenBLAS threads: " + ", ".join(
        f"{side} {' / '.join(sorted(seen)) or 'no report'}"
        for side, seen in threads.items()))
    lines = {side: source_lines(root) for side, root in roots.items()}
    print(f"src/mfglab/*.py lines: base {lines['base']}, head {lines['head']} "
          f"({lines['head'] - lines['base']:+d})")
    return 0

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
