"""Deterministic result emission: CSV, whitespace-column .dat, report.json.

Numbers are written in shortest round-trip decimal form with a '.' decimal
separator, independent of locale; rows are emitted in a fixed order.  Two
runs from the same config and seed therefore produce byte-identical tables,
and the run report carries a content hash over all emitted tables.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["ResultTable", "RunReport", "emit_report", "fmt_value"]


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
    plot_worthy: bool = True       # also emit a .dat companion

    def csv_text(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(fmt_value(v) for v in row))
        return "\n".join(lines) + "\n"

    def dat_text(self) -> str:
        cols = [self.header] + [tuple(fmt_value(v) for v in row)
                                for row in self.rows]
        widths = [max(len(r[i]) for r in cols) for i in range(len(self.header))]
        lines = ["# " + "  ".join(h.ljust(w) for h, w in zip(self.header, widths))]
        for row in cols[1:]:
            lines.append("  " + "  ".join(v.ljust(w) for v, w in zip(row, widths)))
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
        import platform

        import numpy
        import scipy

        from . import __version__

        return {
            "mfglab": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        }


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
    """Write all tables and the run report; returns name -> path.

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
        if table.plot_worthy:
            dat_path = out / f"{table.name}.dat"
            dtext = table.dat_text()
            dat_path.write_text(dtext, encoding="utf-8", newline="")
            written[f"{table.name}.dat"] = str(dat_path)
            hasher.update(f"{table.name}.dat".encode())
            hasher.update(dtext.encode())
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
