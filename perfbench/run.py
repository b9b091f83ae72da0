"""ocolc benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload sweep-toy --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ocolc is imported from ``src/``.
With ``--trace 0`` the workload repeats, untraced, until ``--seconds`` have
passed and the end-to-end metrics are reported. With ``--trace 1`` untraced
and traced iterations alternate and the per-layer metrics are reported,
including the tracing overhead. Every iteration's outputs are checked.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A results file with the run manifest, every
sample and the spans goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep-toy", "run-dispatch", "acceptance-quick", "trace-ds")
MIN_SETUP_SAMPLES = 5

# algorithm combinations the workloads run, one per-step cost each
COMBOS = (
    "toy.clipped-ogd.max",
    "toy.mahdavi-ogd.max",
    "toy.a-ogd.max",
    "dispatch.clipped-ogd.max",
    "dispatch.clipped-ogd.per_constraint",
    "dispatch.mahdavi-ogd.max",
    "ds.strong-clipped-ogd.max",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: minimal inputs, for the benchmark's own tests")
    ap.add_argument("--measure-setup", metavar="WORK_DIR",
                    help="internal: time import and build once, print seconds")
    return ap.parse_args(argv)


def _import_path():
    if not (SRC / "ocolc" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'ocolc'} not found; run from an ocolc checkout")
    sys.path.insert(0, str(SRC))


def _workload(args, work: Path):
    from workloads import WORKLOADS

    refs = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload](args.seed, args.size, work, refs)
    if wl.name != "acceptance-quick" and wl.refs is None:
        raise SystemExit(f"error: no reference for {wl.name} ({args.size}, set {wl.slot})")
    return wl


def measure_setup(args) -> None:
    """Fresh process: time the import of the CLI and building the problem."""
    t0 = time.perf_counter()
    import ocolc.cli  # noqa: F401

    wl = _workload(args, Path(args.measure_setup))
    wl.build()
    print(repr(time.perf_counter() - t0))


def setup_seconds(args, work: Path) -> float:
    """Set-up time of one fresh process, as that process measured it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--size", args.size, "--measure-setup", str(work)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up process failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def percentile_with_tail(samples, tail=10):
    """Highest percentile with at least ``tail`` samples beyond it, or None
    when there are too few samples for any percentile from p50 up."""
    n = len(samples)
    if n < 2 * tail:
        return None
    q = int(100 * (n - tail) / n)
    ordered = sorted(samples)
    return {"p": q, "value": ordered[int(q / 100 * n) - 1], "samples": n}


def manifest(args, wl, load_start, iterations):
    def git(*cmd):
        try:
            done = subprocess.run(["git", *cmd], cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    import numpy

    has_git = (ROOT / ".git").exists()
    status = git("status", "--porcelain") if has_git else None
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "input_set": wl.slot,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git("rev-parse", "HEAD") if has_git else None,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "iterations": iterations,
    }


def run_iterations(args, wl, work, probe, tracer, between=None):
    """Iterate until the time is up. With a tracer, iterations alternate
    untraced and traced, starting untraced, and at least one of each runs.
    ``between()`` runs before each iteration, outside its timing."""
    records = []
    started = time.perf_counter()
    i = 0
    while True:
        if between is not None:
            between()
        traced = tracer is not None and i % 2 == 1
        out = work / f"iter-{i}"
        out.mkdir(parents=True)
        steps0, runs0 = probe.steps, probe.runs
        gc.collect()  # every iteration starts from the same heap state
        if traced:
            tracer.install()
            root = tracer.open("bench.iteration")
        t0 = time.perf_counter()
        outcome = wl.execute(out, probe)
        wall = time.perf_counter() - t0
        if traced:
            tracer.close(root)
            tracer.uninstall()
        checked = wl.check(outcome)
        del outcome
        shutil.rmtree(out)
        records.append({
            "traced": traced,
            "wall_s": wall,
            "steps": probe.steps - steps0,
            "runs": probe.runs - runs0,
            "attempted": checked.attempted,
            "failed": checked.failed,
            "checks_passed": checked.checks_passed,
            "notes": checked.notes,
        })
        for note in checked.notes:
            print(f"check failed: {note}", file=sys.stderr)
        i += 1
        enough = tracer is None or i >= 2
        if enough and time.perf_counter() - started >= args.seconds:
            return records


def end_to_end(records, setup):
    walls = [r["wall_s"] for r in records]
    wall = statistics.median(walls)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_s": (wall, "s", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "steps_per_s": (statistics.median(r["steps"] for r in records) / wall, "1/s", len(walls)),
        "cells_per_s": (statistics.median(r["runs"] for r in records) / wall, "1/s", len(walls)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ok_share": ((attempted - failed) / attempted, "ratio", attempted),
        "checks_passed": (float(statistics.median(r["checks_passed"] for r in records)),
                          "count", len(records)),
    }
    return values


def per_layer(records, tracer):
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    n = len(traced)
    incl = tracer.inclusive()
    c = tracer.counts

    def per_iter(x):
        return x / n

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    values = {
        "problems.losses_s": (per_iter(incl["problems.losses"]), "s"),
        "problems.us_per_loss": (ratio(incl["problems.losses"], c["problems.losses_built"], 1e6), "us"),
        "problems.mean_loss_s": (per_iter(incl["problems.mean_loss"]), "s"),
        "problems.constraint_evals_per_step": (
            ratio(c["problems.constraint_evals_in_runs"], c["problems.counted_steps"]), "count"),
        "algorithms.runs": (per_iter(c["algorithms.runs"]), "count"),
        "algorithms.steps": (per_iter(c["algorithms.steps"]), "count"),
        "algorithms.run_errors": (per_iter(c["algorithms.run_errors"]), "count"),
        "algorithms.step_self_s": (per_iter(c["algorithms.step_self_s"]), "s"),
    }
    for combo in COMBOS:
        self_s, steps = tracer.per_combo.get(combo, (0.0, 0))
        values[f"algorithms.us_per_step.{combo}"] = (ratio(self_s, steps, 1e6), "us")
    values.update({
        "oracle.offline_value_s": (per_iter(incl["oracle.offline_value"]), "s"),
        "oracle.offline_value_calls": (per_iter(c["oracle.offline_value_calls"]), "count"),
        "oracle.penalty_calls": (per_iter(c["oracle.penalty_calls"]), "count"),
        "oracle.structural_calls": (per_iter(c["oracle.structural_calls"]), "count"),
        "oracle.penalty_iters": (per_iter(c["oracle.penalty_iters"]), "count"),
        "oracle.offline_solve_s": (per_iter(incl["oracle.offline_solve"]), "s"),
        "oracle.project_birkhoff_s": (per_iter(incl["oracle.project_birkhoff"]), "s"),
        "oracle.project_birkhoff_calls": (per_iter(c["oracle.project_birkhoff_calls"]), "count"),
        "oracle.errors": (per_iter(c["oracle.errors"]), "count"),
        "metrics.summarize_s": (per_iter(incl["metrics.summarize"]), "s"),
        "metrics.fit_slope_s": (per_iter(incl["metrics.fit_slope"]), "s"),
    })
    for number in range(1, 12):
        values[f"validation.check_s.{number:02d}"] = (
            per_iter(incl[f"validation.check.{number:02d}"]), "s")
    values.update({
        "validation.cell_runs": (per_iter(c["validation.cell_runs"]), "count"),
        "cli.write_trace_csv_s": (per_iter(incl["cli.write_trace_csv"]), "s"),
        "cli.load_trace_csv_s": (per_iter(incl["cli.load_trace_csv"]), "s"),
        "cli.trace_fields": (per_iter(c["cli.trace_fields"]), "count"),
        "cli.write_us_per_field": (ratio(incl["cli.write_trace_csv"], c["cli.trace_fields"], 1e6), "us"),
        "cli.read_us_per_field": (ratio(incl["cli.load_trace_csv"], c["cli.fields_read"], 1e6), "us"),
        "cli.load_demand_csv_s": (per_iter(incl["cli.load_demand_csv"]), "s"),
        "cli.oracle_cache_hits": (per_iter(c["cli.oracle_cache_hits"]), "count"),
        "cli.oracle_cache_misses": (per_iter(c["cli.oracle_cache_misses"]), "count"),
        "cli.sweep_cells": (per_iter(c["cli.sweep_cells"]), "count"),
        "cli.sweep_cell_s": (ratio(incl["cli.sweep_cell"], c["cli.sweep_cells"]), "s"),
    })
    def spans_named(name):
        return [i for i, span in enumerate(tracer.spans) if span[0] == name]

    roots, mains = spans_named("bench.iteration"), spans_named("cli.main")
    root_wall = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)
    main_self = sum(tracer.self_time(i) for i in mains)
    values["cli.main_self_s"] = (per_iter(main_self), "s")
    overhead = (statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    values["bench.trace_overhead"] = (overhead, "ratio")
    # the entry points' own time is covered by no layer function's span
    values["bench.unattributed_share"] = (
        ratio(sum(tracer.self_time(i) for i in roots) + main_self, root_wall), "ratio")
    return {name: (value, unit, n) for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_path()
    if args.measure_setup:
        measure_setup(args)
        return 0
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")

    work = OUT_DIR / f"work-{os.getpid()}"
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    load_start = list(os.getloadavg())
    try:
        wl = _workload(args, work)
        wl.prepare()

        import ocolc.cli  # noqa: F401  (imported before the clock starts)
        from tracing import Probe, Tracer

        wl.build()
        probe = Probe()
        probe.install()
        tracer = Tracer() if args.trace else None
        # set-up is sampled between iterations, so that its samples see the
        # same spells of machine load as the iterations do
        setup = []
        sample_setup = (lambda: setup.append(setup_seconds(args, work))) if not args.trace else None
        try:
            records = run_iterations(args, wl, work, probe, tracer, sample_setup)
        finally:
            probe.uninstall()
        while sample_setup is not None and len(setup) < MIN_SETUP_SAMPLES:
            sample_setup()
        if tracer is not None:
            tracer.verify()
            metrics = per_layer(records, tracer)
        else:
            metrics = end_to_end(records, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    stamp = f"{args.workload}.seed{args.seed}.trace{args.trace}.{os.getpid()}"
    report = {
        "manifest": manifest(args, wl, load_start, {
            "untraced": sum(not r["traced"] for r in records),
            "traced": sum(r["traced"] for r in records),
        }),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "samples": {"wall_s": [r["wall_s"] for r in records], "setup_s": setup},
        "iterations": records,
    }
    if args.trace == 0:
        report["wall_s_tail"] = percentile_with_tail([r["wall_s"] for r in records])
    else:
        report["per_combo_all"] = {k: v for k, v in tracer.per_combo.items()}
        spans_path = results_dir / f"{stamp}.spans.json"
        spans_path.write_text(json.dumps(
            [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]} for s in tracer.spans]
        ), encoding="utf-8")
        report["spans_file"] = spans_path.name
    (results_dir / f"{stamp}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
