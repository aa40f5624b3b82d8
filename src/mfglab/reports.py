"""Deterministic result emission: one CSV per table, JSON extras, report.json.

Numbers are written in shortest round-trip decimal form with a '.' decimal
separator, independent of locale; rows are emitted in a fixed order.  Two
runs from the same config and seed therefore produce byte-identical tables.
A run writes one ``<table>.csv`` per table, one ``<name>.json`` per extra
(``slope.json``, ``bounds.json``) and ``report.json``, which repeats the
table rows and carries ``output_hash``: a sha256 over each other file's
name and text, in emission order.

Stage seconds are recorded apart from the results: ``recording`` collects
them for a run, and the library opens a ``stage`` for each step it times.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

__all__ = ["ResultTable", "RunReport", "emit_report", "fmt_value", "recording",
           "stage"]

# the stage seconds of the run being recorded; None outside ``recording``
_TIMINGS: ContextVar[Optional[dict[str, float]]] = ContextVar("timings", default=None)


class recording:
    """``with recording() as timings``: every ``stage`` run inside the block
    adds its seconds to ``timings``.  A nested recording keeps its own, and
    the outer one resumes when it exits."""

    def __enter__(self) -> dict[str, float]:
        self._token = _TIMINGS.set({})
        return _TIMINGS.get()

    def __exit__(self, *exc) -> None:
        _TIMINGS.reset(self._token)


class stage:
    """``with stage(name)``: add the seconds of the block to ``name`` in the
    run being recorded; outside ``recording`` only run the block.  A class,
    not a ``@contextmanager`` generator: a span costs less than half."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        timings = _TIMINGS.get()
        if timings is not None:
            seconds = time.perf_counter() - self.start
            timings[self.name] = timings.get(self.name, 0.0) + seconds


def fmt_value(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


@dataclass(frozen=True)
class ResultTable:
    name: str                      # file stem, e.g. "carleman"
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def csv_text(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(fmt_value(v) for v in row))
        return "\n".join(lines) + "\n"


@dataclass
class RunReport:
    experiment: str
    config: dict[str, Any]
    tables: list[ResultTable]
    summary: dict[str, Any] = field(default_factory=dict)
    extra_json: dict[str, dict[str, Any]] = field(default_factory=dict)
    wall_time_s: float = 0.0
    # seconds per named stage; written to report.json outside output_hash
    timings: dict[str, float] = field(default_factory=dict)

    def versions(self) -> dict[str, str]:
        """Library versions, the OpenBLAS thread count the timings were taken
        at and, once an inverse run loaded SciPy's BLAS, whether it is pinned."""
        import os
        import platform
        import sys

        import numpy
        import scipy

        from . import __version__, inverse

        out = {
            "mfglab": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        }
        if "scipy.linalg" in sys.modules:
            out["inverse_blas_threads"] = "1" if inverse._blas_threads_setter() else "unpinned"
        return out


def _json_default(obj):
    import numpy as np

    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def emit_report(report: RunReport, out_dir: str) -> dict[str, str]:
    """Write one CSV per table, the JSON extras and report.json; returns
    name -> path.

    The output directory is validated with a probe write before anything is
    emitted, so a bad destination never leaves partial results.
    """
    if not report.tables:
        raise ValueError("no result tables to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    try:
        probe.write_text("ok", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}") from exc

    written: dict[str, str] = {}
    hasher = hashlib.sha256()
    for table in report.tables:
        csv_path = out / f"{table.name}.csv"
        text = table.csv_text()
        csv_path.write_text(text, encoding="utf-8", newline="")
        written[f"{table.name}.csv"] = str(csv_path)
        hasher.update(f"{table.name}.csv".encode())
        hasher.update(text.encode())
    for name, payload in sorted(report.extra_json.items()):
        text = json.dumps(payload, indent=2, sort_keys=True,
                          default=_json_default) + "\n"
        path = out / f"{name}.json"
        path.write_text(text, encoding="utf-8", newline="")
        written[f"{name}.json"] = str(path)
        hasher.update(f"{name}.json".encode())
        hasher.update(text.encode())

    payload = {
        "experiment": report.experiment,
        "config": report.config,
        "summary": report.summary,
        "tables": {
            t.name: {"header": list(t.header), "rows": [list(r) for r in t.rows]}
            for t in report.tables
        },
        "versions": report.versions(),
        "wall_time_s": report.wall_time_s,
        "timings": report.timings,
        "output_hash": hasher.hexdigest(),
    }
    report_path = out / "report.json"
    report_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8", newline="")
    written["report.json"] = str(report_path)
    return written
