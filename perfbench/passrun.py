"""One benchmark pass in a fresh interpreter.

Run by ``run.py``, never imported by it.  The pass imports the library,
loads every config of the workload (set-up), then drives each experiment
the way the CLI does: ``cli.run`` and ``reports.emit_report`` into the pass
directory (the timed region).  Afterwards it runs the output checks, reads
each ``output_hash`` and writes one JSON result file.

With ``--trace 1`` the tracer wraps the library's public functions before
the configs are loaded and is removed before the checks run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _reconstruct_record(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    g = data.grid
    n_st = math.prod(g.shape)
    n_sp = math.prod(g.space_shape)
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged),
            "unknowns": 2 * n_st + 2 * n_sp}


def _emit_record(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result.values())}


OBSERVERS = {
    "inverse.reconstruct": _reconstruct_record,
    "reports.emit_report": _emit_record,
}


def _rel_err_max(cfg, report) -> float | None:
    """Largest relative L2 error of a recovered source profile."""
    if report.experiment == "reconstruct":
        return max(report.summary["rel_err_f"], report.summary["rel_err_g"])
    if report.experiment == "stability-sweep":
        import numpy as np

        from mfglab.coefficients import sample_spatial

        grid = cfg.build_grid()
        f_spec, g_spec, _ = cfg.source_specs()
        w = grid.space_weights
        norms = [math.sqrt(float(np.sum(w * sample_spatial(grid, spec) ** 2)))
                 for spec in (f_spec, g_spec)]
        table = report.tables[0]
        i_f, i_g = table.header.index("err_f"), table.header.index("err_g")
        return max(max(row[i_f] / norms[0], row[i_g] / norms[1])
                   for row in table.rows)
    return None


def _trace_summary(tracer) -> dict:
    summary = tracer.summary()
    out = {}
    for label, rec in summary.items():
        durs = rec.pop("durations")
        rec["p50_s"] = _quantile(durs, 0.5)
        rec["p90_s"] = _quantile(durs, 0.9)
        out[label] = rec
    return {"layers": out, "observed": tracer.observed}


def _versions() -> dict:
    import numpy
    import scipy
    import yaml

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="pass directory")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    args = ap.parse_args()

    root = Path(args.root)
    out = Path(args.out)
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))

    # -- set-up: imports and config loading ---------------------------------
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import yaml  # noqa: F401

    import mfglab  # noqa: F401
    import mfglab.cli as cli_mod
    import mfglab.config as config_mod
    import mfglab.reports as reports_mod
    from workloads import check_report, experiments

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(observers=OBSERVERS)
        tracer.install()

    exps = experiments(args.workload, args.seed, root)
    configs = [config_mod.load_config(
                   e.config, overrides={**e.overrides,
                                        "output.dir": str(out / e.label)})
               for e in exps]
    setup_s = time.monotonic() - args.spawned_at

    # -- timed pass -----------------------------------------------------------
    runs = []
    t_start = time.perf_counter()
    for exp, cfg in zip(exps, configs):
        rec = {"label": exp.label, "experiment": cfg.experiment, "report": None,
               "error": None}
        try:
            t0 = time.perf_counter()
            report = cli_mod.run(cfg)
            t1 = time.perf_counter()
            reports_mod.emit_report(report, cfg.section("output")["dir"])
            rec.update(report=report, run_s=t1 - t0,
                       emit_s=time.perf_counter() - t1)
        except Exception:  # a library failure is an output failure, not a crash
            rec["error"] = traceback.format_exc()
        runs.append(rec)
    wall_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.restore()

    # -- checks and hashes (untimed) ---------------------------------------------
    results = []
    for rec, cfg in zip(runs, configs):
        report = rec.pop("report")
        if report is None:
            rec.update(checks=[["completed", False]], output_hash=None,
                       rel_err_max=None)
        else:
            payload = json.loads(
                (Path(cfg.section("output")["dir"]) / "report.json").read_text())
            rec.update(checks=[[name, bool(ok)] for name, ok in check_report(report)],
                       output_hash=payload["output_hash"],
                       rel_err_max=_rel_err_max(cfg, report))
        results.append(rec)

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "traced": bool(args.trace), "experiments": results,
        "versions": _versions(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer)
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
