"""mfglab benchmark: end-to-end and per-layer timings of the CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload inverse_sweep --seed 1 --seconds 32 --trace 0

Each pass runs in a fresh interpreter (``passrun.py``), one at a time
(closed loop), so no cache built by an earlier pass carries over.  Passes
repeat while the next one is predicted to end within ``--seconds``; at
least two are always run.  With ``--trace 0`` every pass is untraced and
the end-to-end metrics are printed; with ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics are printed.  Every metric is
printed by name with its unit, and the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Output checks (the acceptance pins of each experiment, plus an identical
``output_hash`` for every pass of the run) are counted into ``attempted``
and ``failed``.  Scratch output goes to ``.bench_out/<workload>`` in the
checkout, together with ``result.json`` holding the full record.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
PASS_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_ratio", "ratio", "higher"),
)

EXPERIMENTS = ("verify-weights", "verify-carleman", "lemma3", "state-det",
               "nonlinear-diff", "reconstruct", "stability-sweep")

# (metric, unit, better, source): source is ("calls" | "self_s" | "p50_s" |
# "p90_s", span label) or a name handled in _per_layer
PER_LAYER = (
    ("grid.diff.calls", "count", "lower", ("calls", "grid.diff")),
    ("grid.diff.self_s", "s", "lower", ("self_s", "grid.diff")),
    ("grid.norm.calls", "count", "lower", ("calls", "grid.norm")),
    ("grid.norm.self_s", "s", "lower", ("self_s", "grid.norm")),
    ("weights.eval_weight_bundle.calls", "count", "lower",
     ("calls", "weights.eval_weight_bundle")),
    ("weights.eval_weight_bundle.self_s", "s", "lower",
     ("self_s", "weights.eval_weight_bundle")),
    ("weights.WeightBundle.weight_factor.calls", "count", "lower",
     ("calls", "weights.WeightBundle.weight_factor")),
    ("weights.WeightBundle.weight_factor.self_s", "s", "lower",
     ("self_s", "weights.WeightBundle.weight_factor")),
    ("weights.check_weight_identities.self_s", "s", "lower",
     ("self_s", "weights.check_weight_identities")),
    ("verify.evaluate_estimate.calls", "count", "lower",
     ("calls", "verify.evaluate_estimate")),
    ("verify.evaluate_estimate.self_s", "s", "lower",
     ("self_s", "verify.evaluate_estimate")),
    ("verify.estimate_constant.self_s", "s", "lower",
     ("self_s", "verify.estimate_constant")),
    ("verify.lemma3_check.calls", "count", "lower", ("calls", "verify.lemma3_check")),
    ("verify.lemma3_check.self_s", "s", "lower", ("self_s", "verify.lemma3_check")),
    ("verify.generate_ensemble.self_s", "s", "lower",
     ("self_s", "verify.generate_ensemble")),
    ("coefficients.apply_operator.calls", "count", "lower",
     ("calls", "coefficients.apply_operator")),
    ("coefficients.apply_operator.self_s", "s", "lower",
     ("self_s", "coefficients.apply_operator")),
    ("coefficients.CoeffRecipe.sample.self_s", "s", "lower",
     ("self_s", "coefficients.CoeffRecipe.sample")),
    ("basis.SeparableField.sample.calls", "count", "lower",
     ("calls", "basis.SeparableField.sample")),
    ("basis.SeparableField.sample.self_s", "s", "lower",
     ("self_s", "basis.SeparableField.sample")),
    ("models.residual.calls", "count", "lower", ("calls", "models.residual")),
    ("models.residual.self_s", "s", "lower", ("self_s", "models.residual")),
    ("models.mms_case_ensemble.self_s", "s", "lower",
     ("self_s", "models.mms_case_ensemble")),
    ("models.mms_linear.self_s", "s", "lower", ("self_s", "models.mms_linear")),
    ("models.case_accept_ratio", "ratio", "higher", "case_accept_ratio"),
    ("statedet.thm1_experiment.self_s", "s", "lower",
     ("self_s", "statedet.thm1_experiment")),
    ("statedet.thm4_experiment.self_s", "s", "lower",
     ("self_s", "statedet.thm4_experiment")),
    ("inverse.reconstruct.calls", "count", "lower", ("calls", "inverse.reconstruct")),
    ("inverse.reconstruct.self_s", "s", "lower", ("self_s", "inverse.reconstruct")),
    ("inverse.reconstruct.p50_s", "s", "lower", ("p50_s", "inverse.reconstruct")),
    ("inverse.reconstruct.p90_s", "s", "lower", ("p90_s", "inverse.reconstruct")),
    ("inverse.make_inverse_data.calls", "count", "lower",
     ("calls", "inverse.make_inverse_data")),
    ("inverse.make_inverse_data.self_s", "s", "lower",
     ("self_s", "inverse.make_inverse_data")),
    ("inverse.stability_sweep.self_s", "s", "lower",
     ("self_s", "inverse.stability_sweep")),
    ("inverse.cg_iterations", "count", "lower", "cg_iterations"),
    ("inverse.converged_ratio", "ratio", "higher", "converged_ratio"),
    ("inverse.unknowns", "count", "lower", "unknowns"),
    ("inverse.rel_err_max", "ratio", "lower", "rel_err_max"),
    ("reports.emit_report.calls", "count", "lower", ("calls", "reports.emit_report")),
    ("reports.emit_report.self_s", "s", "lower", ("self_s", "reports.emit_report")),
    ("reports.emit_report.bytes", "bytes", "lower", "emit_bytes"),
    ("reports.fmt_value.self_s", "s", "lower", ("self_s", "reports.fmt_value")),
    ("config.load_config.self_s", "s", "lower", ("self_s", "config.load_config")),
    *((f"cli.run.{exp}.total_s", "s", "lower", ("cli_run", exp))
      for exp in EXPERIMENTS),
    ("trace.overhead_s", "s", "lower", "trace_overhead"),
)


# ---------------------------------------------------------------------------
# environment


def _cpu_caches() -> dict[str, str]:
    """L2/L3 sizes of cpu0 as the kernel reports them (empty if unknown)."""
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


# ---------------------------------------------------------------------------
# passes


def _run_pass(root: Path, workload: str, seed: int, out: Path, traced: bool,
              env: dict[str, str]) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "passrun.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), "--out", str(out),
           "--trace", "1" if traced else "0"]
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"pass in {out} exited with code {proc.returncode}")
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def _checks(passes: list[dict]) -> list[tuple[str, bool]]:
    """Every output check of every pass, plus one output_hash comparison per
    experiment and pass after the first."""
    checks = []
    first_hash: dict[str, str] = {}
    for k, p in enumerate(passes):
        for exp in p["experiments"]:
            tag = f"pass{k}.{exp['label']}"
            checks += [(f"{tag}.{name}", ok) for name, ok in exp["checks"]]
            if exp["error"]:
                sys.stderr.write(f"{tag} raised:\n{exp['error']}")
            ref = first_hash.setdefault(exp["label"], exp["output_hash"])
            if k > 0:
                checks.append((f"{tag}.output_hash_repeat",
                               ref is not None and exp["output_hash"] == ref))
    return checks


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    layers = [p["trace"]["layers"] for p in traced]
    observed = [p["trace"]["observed"] for p in traced]

    def stat(field: str, label: str) -> float:
        vals = [lay.get(label, {}).get(field, 0 if field == "calls" else 0.0)
                for lay in layers]
        return vals[0] if field == "calls" else _median(vals)

    first, obs = layers[0], observed[0]
    recon = obs["inverse.reconstruct"]
    builds = first.get("models.CaseRecipe.build", {"calls": 0, "errors": {}})
    rel_errs = [e["rel_err_max"] for e in traced[0]["experiments"]
                if e["rel_err_max"] is not None]
    cli_runs = {exp: _median([sum((e.get("run_s", 0.0) for e in p["experiments"]
                                   if e["experiment"] == exp), 0.0) for p in traced])
                for exp in EXPERIMENTS}
    derived = {
        "case_accept_ratio": (
            1.0 - builds["errors"].get("MmsRejected", 0) / builds["calls"]
            if builds["calls"] else 1.0),
        "cg_iterations": sum(r["iterations"] for r in recon),
        "converged_ratio": (sum(r["converged"] for r in recon) / len(recon)
                            if recon else 1.0),
        "unknowns": sum(r["unknowns"] for r in recon),
        "rel_err_max": max(rel_errs) if rel_errs else 0.0,
        "emit_bytes": sum(r["bytes"] for r in obs["reports.emit_report"]),
        "trace_overhead": (_median([p["wall_s"] for p in traced])
                           - _median([p["wall_s"] for p in plain])),
    }
    out = {}
    for name, _unit, _better, source in PER_LAYER:
        if isinstance(source, str):
            out[name] = derived[source]
        elif source[0] == "cli_run":
            out[name] = cli_runs[source[1]]
        else:
            out[name] = stat(*source)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "mfglab"
    if not (package / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(f"error: {root} is not an mfglab checkout (needs src/mfglab and "
              "configs/)", file=sys.stderr)
        return 2

    out_root = root / ".bench_out" / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    # byte-compile once so the first pass does not time the compiler
    compileall.compile_dir(str(package), quiet=2)

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(nproc))

    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        use_trace = bool(args.trace) and len(plain) > len(traced)
        result = _run_pass(root, args.workload, args.seed,
                           out_root / f"pass{len(plain) + len(traced)}",
                           use_trace, env)
        (traced if use_trace else plain).append(result)
        longest = max(longest, result["elapsed_s"])
        done = len(plain) + len(traced)
        if done >= MIN_PASSES and time.monotonic() - start + longest > args.seconds:
            break

    checks = _checks(plain + traced)
    failed = [name for name, ok in checks if not ok]
    attempted = len(checks)

    metrics: dict[str, float] = {}
    if args.trace:
        units = {name: unit for name, unit, _better, _src in PER_LAYER}
        metrics.update(_per_layer(traced, plain))
    else:
        units = {name: unit for name, unit, _better in END_TO_END}
        metrics["setup_s"] = _median([p["setup_s"] for p in plain])
        metrics["wall_s"] = _median([p["wall_s"] for p in plain])
        metrics["peak_rss_mb"] = _median([p["peak_rss_mb"] for p in plain])
        metrics["pass_ratio"] = (attempted - len(failed)) / attempted

    walls = [p["wall_s"] for p in plain]
    env_info = {"nproc": nproc, "openblas_threads": env["OPENBLAS_NUM_THREADS"],
                **_cpu_caches(), **plain[0]["versions"]}
    print(f"# workload {args.workload} seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced passes in {time.monotonic() - start:.1f} s")
    print("# environment " + json.dumps(env_info, sort_keys=True))
    print(f"# wall_s samples {len(walls)}: min {min(walls):.4f} "
          f"median {_median(walls):.4f} max {max(walls):.4f}")
    print(f"# failed_ratio {len(failed) / attempted!r} ({len(failed)} of "
          f"{attempted} checks failed)")
    for name in failed:
        print(f"# FAILED {name}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env_info, "checks": checks, "passes": plain + traced,
              "metrics": metrics}
    (out_root / "result.json").write_text(json.dumps(record, indent=1),
                                          encoding="utf-8")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
