"""Run the shipped configs of two checkouts and compare hashes, cells and peaks.

    python tools/compare_lab_hashes.py [[BASE_DIR] HEAD_DIR]

Each run of ``RUNS`` goes once through each checkout, with that checkout's
library, in its own fresh interpreter; the checkouts alternate which goes
first.  The runs, in order:

- two floors: a process that only imports the library ("imports only"),
  and one that also imports the SciPy modules of the inverse solver
  through ``mfglab.inverse.load_scipy`` ("imports + inverse"), as
  ``load_config`` does for an inverse config.  A lab config's peak
  includes the first floor, an inverse config's peak the second;
- each config in ``configs/``: first the lab configs, then those of an
  inverse experiment, each group in file-name order (the groups are read
  from each file's ``experiment`` key, so a new config joins without an
  edit);
- ``state_det@2`` and ``nonlinear_diff@2``: those configs at ``--seed 2``,
  so their draws are compared away from the shipped seed too;
- ``inverse_cold@1`` and ``inverse_cold@2``: the benchmark's
  ``perfbench/configs/inverse_cold.yaml`` as it is, at two seeds (a noisy
  reconstruct with the conormal rows on random cases, where
  reconstruct_clean is noise-free).

For each config run it prints:

- whether the ``output_hash`` values agree, with both hashes (or why a run
  has none), both ``experiment`` keys when the checkouts run the config
  under different ones, and each emitted file that only one checkout
  writes;
- when the hashes differ, the size of the move: the largest relative
  change ``|a - b| / max(|a|, |b|)`` over the numeric cells of the tables
  and the summary in ``report.json`` (naming the cell), and every other
  cell that differs: text, flags, an empty cell, a value that turns
  non-finite, or a cell only one side has; or that no table or summary
  cell differs, when the hash moves for the emitted files alone.  Then,
  for each table column and top-level summary key with a moved cell, how
  many of its cells moved, of how many.  A roundoff move then reads apart
  from a real one, a file-set change apart from both, and a move of the
  labels alone (a renamed eps, say) apart from a move of the values;
- ``peak``: each checkout's peak resident set size (``ru_maxrss`` of that
  one process) and the change from base to head; a floor prints this line
  alone.

It prints no wall times: one fresh run per checkout is no timing, as two
runs of identical code can differ by 40%.  Each run's ``report.json``
keeps its stage ``timings``, and a timing claim takes alternating pairs of
``perfbench/run.py``.

Then the closing lines give:

- how many of the config runs' hashes differ;
- in each checkout, the lab config with the largest peak: the one that
  sets the peak of a process that runs them all (the benchmark's
  lab_suite pass), where two peaks within a few tenths of a MB of each
  other can trade places;
- the line count of each checkout's library modules (``src/mfglab/*.py``)
  and its change from base to head.

Given one checkout (default: this one) it prints the same for that one
alone, without the hash verdicts and deltas.

Every process reads its bytecode from one temporary ``PYTHONPYCACHEPREFIX``,
warmed first by one unmeasured pass of every run of each checkout.  A
process that compiles its modules (under ``PYTHONDONTWRITEBYTECODE=1`` with
a stale or missing ``__pycache__``) peaks 1-2 MB higher, which would hide
what the code itself holds.  It only reports: the exit code is 0 whatever
differs or fails, because an intended numeric change moves a hash too.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any, Iterator, Optional

import yaml

INVERSE_EXPERIMENTS = ("reconstruct", "stability-sweep")
# the code each floor process runs
FLOORS = {"imports only": "import mfglab.cli",
          "imports + inverse": ("import mfglab.cli, mfglab.inverse; "
                                "mfglab.inverse.load_scipy()")}


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

# (label, config path under the checkout or None for a floor, extra
# command-line arguments: the CLI's after the config, or the floor's code)
RUNS = [(name, None, ("-c", code)) for name, code in FLOORS.items()] \
    + [(name, f"configs/{name}.yaml", ()) for name in LAB_CONFIGS + INVERSE_CONFIGS] \
    + [(f"{name}@{seed}", f"configs/{name}.yaml", ("--seed", str(seed)))
       for name, seed in RESEEDED] \
    + [(f"inverse_cold@{seed}", "perfbench/configs/inverse_cold.yaml",
        ("--seed", str(seed))) for seed in COLD_SEEDS]

Result = tuple[str, Optional[float], Optional[dict[str, Any]], set[str]]


def run_once(root: Path, config_path: Optional[str], extra: tuple[str, ...]) -> Result:
    """One run of ``RUNS`` with the library of ``root``, in a fresh
    interpreter: its output_hash (a floor has none: "floor"; a run that
    fails says why), its own peak RSS in MB, its parsed report.json and
    the names of the files it wrote."""
    with tempfile.TemporaryDirectory() as out:
        if config_path is None:
            argv = [sys.executable, *extra]
        else:
            config = root / config_path
            experiment = experiment_of(config)
            if experiment is None:
                return "missing", None, None, set()
            argv = [sys.executable, "-m", "mfglab", experiment, "--config", str(config),
                    "--out", out, *extra]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True) as proc:
            err = proc.stderr.read().strip().splitlines()
            # reap the child here: wait4 gives this one process's rusage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            return (f"failed ({err[-1] if err else proc.returncode})", None, None,
                    set())
        peak = usage.ru_maxrss / 1024.0  # Linux: KiB
        if config_path is None:
            return "floor", peak, None, set()
        report = json.loads((Path(out) / "report.json").read_text())
        return report["output_hash"], peak, report, {p.name for p in Path(out).iterdir()}


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


_MISSING = object()


def _moved(old: dict[str, Any], new: dict[str, Any]) -> Iterator[tuple[str, Any, Any]]:
    """Each cell that differs between two :func:`cells` maps, with its value
    on each side (``_MISSING`` on the side that lacks it)."""
    for name in list(old) + [n for n in new if n not in old]:
        a, b = old.get(name, _MISSING), new.get(name, _MISSING)
        if a is _MISSING or b is _MISSING:
            yield name, a, b
        elif _finite_number(a) and _finite_number(b):
            if a != b:
                yield name, a, b
        elif json.dumps(a) != json.dumps(b):  # NaN reads equal to NaN here
            yield name, a, b


def size_move(base: dict[str, Any], head: dict[str, Any]
              ) -> tuple[float, Optional[str], list[str]]:
    """The largest relative change over the cells finite on both sides, the
    cell it is in, and the names of the other cells that differ."""
    worst, where, other = 0.0, None, []
    for name, a, b in _moved(cells(base), cells(head)):
        if _finite_number(a) and _finite_number(b):
            rel = abs(a - b) / max(abs(a), abs(b))
            if rel > worst:
                worst, where = rel, name
        else:
            other.append(name)
    return worst, where, other


def column_of(name: str) -> str:
    """The table column (``table.column``) or top-level summary key
    (``summary.key``) that a cell named by :func:`cells` belongs to."""
    if name.startswith("summary."):
        return "summary." + re.split(r"[.\[]", name[len("summary."):], maxsplit=1)[0]
    table, rest = name.split("[", 1)
    return f"{table}.{rest.split('].', 1)[1]}"


def moved_by_column(base: dict[str, Any], head: dict[str, Any]
                    ) -> dict[str, tuple[int, int]]:
    """For each table column and top-level summary key with a cell that
    differs: how many of its cells differ, and how many it has (on either
    side), in the order the cells are named."""
    old, new = cells(base), cells(head)
    total = Counter(column_of(name) for name in old.keys() | new.keys())
    moved = Counter(column_of(name) for name, _, _ in _moved(old, new))
    return {col: (n, total[col]) for col, n in moved.items()}


def source_lines(root: Path) -> int:
    """Lines of the library modules ``src/mfglab/*.py`` of a checkout."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (root / "src" / "mfglab").glob("*.py"))


def _print_hashes(name: str, config_path: str, roots: dict[str, Path],
                  results: dict[str, Result]) -> bool:
    """Print the hash lines of one config run; whether the hashes differ."""
    hashes = "  ".join(f"{side} {r[0]}" for side, r in results.items())
    if len(results) == 1:
        print(f"{name:17s} {hashes}")
        return False
    (base, _, old, base_files), (head, _, new, head_files) = results.values()
    same = base == head
    # a config moved to another experiment writes other tables, so its
    # cells differ by name rather than by value
    experiments = {side: experiment_of(root / config_path) for side, root in roots.items()}
    moved = (f"  experiment base {experiments['base']} head {experiments['head']}"
             if experiments["base"] != experiments["head"] else "")
    only = "".join(f"  only {side} writes {', '.join(sorted(mine - theirs))}"
                   for side, mine, theirs in (("base", base_files, head_files),
                                              ("head", head_files, base_files))
                   if mine - theirs)
    print(f"{name:17s} {'same' if same else 'DIFFERS'}  {hashes}{moved}{only}")
    if not same and old is not None and new is not None:
        worst, where, other = size_move(old, new)
        if where is None and not other:
            print(f"{'':17s} no table or summary cell differs")
        else:
            print(f"{'':17s} largest relative change {worst:.3g}"
                  + (f" ({where})" if where else ""))
        if other:
            shown = ", ".join(other[:5]) + (", ..." if len(other) > 5 else "")
            print(f"{'':17s} {len(other)} non-numeric cells differ: {shown}")
        by_column = moved_by_column(old, new)
        if by_column:
            print(f"{'':17s} cells moved by column: "
                  + ", ".join(f"{col} {n} of {of}" for col, (n, of) in by_column.items()))
    return not same


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        raise SystemExit("usage: compare_lab_hashes.py [[BASE_DIR] HEAD_DIR]")
    paths = [Path(a).resolve() for a in argv] or [Path(__file__).resolve().parents[1]]
    # records are keyed by side, so one directory given twice runs twice
    roots = dict(zip(("base", "head")[-len(paths):], paths))
    sides = list(roots)
    peaks: dict[str, dict[str, float]] = {side: {} for side in sides}
    differ = 0
    with tempfile.TemporaryDirectory() as prefix:
        os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
        os.environ["PYTHONPYCACHEPREFIX"] = prefix
        for root in roots.values():
            for _, config_path, extra in RUNS:
                run_once(root, config_path, extra)
        for i, (name, config_path, extra) in enumerate(RUNS):
            results: dict[str, Result] = dict.fromkeys(sides)
            for side in sides if i % 2 == 0 else sides[::-1]:
                results[side] = run_once(roots[side], config_path, extra)
            if config_path is not None:
                differ += _print_hashes(name, config_path, roots, results)
            line = "  ".join(f"{side} {r[0] if r[1] is None else f'{r[1]:.1f} MB'}"
                             for side, r in results.items())
            if len(sides) == 2 and None not in (results["base"][1], results["head"][1]):
                line += f"  delta {results['head'][1] - results['base'][1]:+.1f} MB"
            print(f"{'' if config_path else name:17s} peak  {line}")
            for side, (_, peak, _, _) in results.items():
                if peak is not None:
                    peaks[side][name] = peak
    if len(sides) == 2:
        print(f"{differ} of {sum(path is not None for _, path, _ in RUNS)} "
              "output_hash values differ")
    largest = []
    for side in sides:
        lab = {name: peak for name, peak in peaks[side].items() if name in LAB_CONFIGS}
        top = max(lab, key=lab.get, default=None)
        largest.append(f"{side} " + (f"{top} {lab[top]:.1f} MB" if top
                                     else "no lab config ran"))
    print("largest lab peak: " + "  ".join(largest))
    lines = {side: source_lines(root) for side, root in roots.items()}
    print("src/mfglab/*.py lines: " + ", ".join(f"{s} {n}" for s, n in lines.items())
          + (f" ({lines['head'] - lines['base']:+d})" if len(sides) == 2 else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
