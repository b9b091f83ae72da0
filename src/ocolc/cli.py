"""Command-line harness: single runs, sweeps, oracle values, acceptance checks.

Subcommands: run | sweep | oracle | validate. Settings come from CLI flags,
which override a flat key=value config file (--config), which overrides the
built-in defaults. Exit codes: 0 success, 1 run/check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .algorithms import AlgoConfig, Batch, RunError, run
from .metrics import summarize
from .oracle import OracleError, offline_value
from .problems import (
    DispatchParams,
    derive_seed,
    dispatch_problem,
    doubly_stochastic_problem,
    load_demand_csv,
    toy_problem,
)
from .validation import AcceptanceSuite

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
OUTDIR_ENV = "OCOLC_OUTDIR"
PROBLEMS = ("toy", "doubly-stochastic", "dispatch")
BASE_SWEEP_SEED = 2024


def _fmt(x: float) -> str:
    # 17 significant digits: lossless for 64-bit floats
    return f"{x:.17g}"


def read_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and #-comments ignored."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


class Settings:
    """CLI flags > config file > defaults, with typed access."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.file = read_config_file(ns.config) if getattr(ns, "config", None) else {}

    def get(self, key: str, cast, default=None, required=False):
        cli_val = getattr(self.ns, key.replace("-", "_"), None)
        if cli_val is not None:
            return cli_val
        if key in self.file:
            raw = self.file[key]
            if cast is bool:
                return raw.lower() in ("1", "true", "yes")
            return cast(raw)
        if required and default is None:
            raise UsageError(f"missing required setting --{key}")
        return default


class UsageError(Exception):
    pass


def build_problem(s: Settings):
    name = s.get("problem", str, required=True)
    if name == "toy":
        return toy_problem()
    if name == "doubly-stochastic":
        return doubly_stochastic_problem(d=s.get("d", int, 5))
    if name == "dispatch":
        csv = s.get("demand-csv", str)
        demand = load_demand_csv(csv) if csv else None
        rescale = s.get("demand-rescale", float, 1.0)
        return dispatch_problem(DispatchParams(demand=demand, demand_rescale=rescale))
    raise UsageError(f"unknown problem {name!r}; expected one of {PROBLEMS}")


def build_config(s: Settings, T=None, algo=None) -> AlgoConfig:
    return AlgoConfig(
        variant=algo if algo is not None else s.get("algo", str, required=True),
        T=T if T is not None else s.get("T", int, required=True),
        beta=s.get("beta", float, 0.5),
        alpha=s.get("alpha", float, 0.5),
        lagrangian=s.get("lagrangian", str),
        aggregation=s.get("aggregation", str, "max"),
        eta_override=s.get("eta", float),
        sigma_override=s.get("sigma", float),
    )


def _out_dir(s: Settings) -> str:
    out = s.get("out", str) or os.environ.get(OUTDIR_ENV, "out")
    os.makedirs(out, exist_ok=True)
    return out


# ------------------------------------------------------------- trace CSV


def write_trace_csv(trace, path: str, per_constraint: bool = False) -> None:
    """Fixed schema: t,fx,g_max,g_clip,lambda_norm,x_norm then optional
    per-constraint g_i columns; every number printed at 17 significant digits."""
    gmax = trace.g.max(axis=1)
    cols = [
        ("t", trace.t.astype(float)),
        ("fx", trace.fx),
        ("g_max", gmax),
        ("g_clip", np.maximum(gmax, 0.0)),
        ("lambda_norm", np.linalg.norm(trace.lam, axis=1)),
        ("x_norm", np.linalg.norm(trace.x, axis=1)),
    ]
    if per_constraint:
        for i in range(trace.g.shape[1]):
            cols.append((f"g_{i + 1}", trace.g[:, i]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(name for name, _ in cols) + "\n")
        for r in range(trace.T):
            fh.write(",".join(_fmt(col[r]) for _, col in cols) + "\n")


def load_trace_csv(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array(rows, dtype=float)
    return {name: data[:, j] for j, name in enumerate(header)}


# ---------------------------------------------------------- oracle cache


def _problem_key(s: Settings) -> dict:
    key = {"problem": s.get("problem", str, required=True)}
    if key["problem"] == "doubly-stochastic":
        key["d"] = s.get("d", int, 5)
    elif key["problem"] == "dispatch":
        csv = s.get("demand-csv", str)
        if csv:
            key["demand_sha"] = hashlib.sha256(load_demand_csv(csv).tobytes()).hexdigest()[:16]
        key["rescale"] = s.get("demand-rescale", float, 1.0)
    return key


def _oracle_settings(s: Settings):
    """(iters, tol) for the penalty oracle; out-of-range values are usage errors."""
    iters = s.get("oracle-iters", int, 20000)
    tol = s.get("oracle-tol", float, 1e-6)
    if iters < 1:
        raise UsageError(f"--oracle-iters must be >= 1, got {iters}")
    if not tol > 0:
        raise UsageError(f"--oracle-tol must be > 0, got {tol}")
    return iters, tol


def _read_cache_entry(path: str, full_key: dict):
    """The cached blob at `path`, or None (with a warning) when the file is
    unreadable JSON or not an entry for `full_key`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except ValueError as e:  # truncated or garbled: JSON or UTF-8 decode error
        problem = str(e)
    else:
        if isinstance(blob, dict) and blob.get("key") == full_key and "value" in blob:
            return blob
        problem = "not an entry for this key"
    print(f"warning: recomputing corrupt oracle cache entry {path}: {problem}", file=sys.stderr)
    return None


def cached_offline_value(problem, key: dict, seed: int, T: int, iters: int, tol: float, cache_dir):
    """Disk-cached oracle: keyed by (problem identity, seed, T, iters, tol).

    A corrupt entry is recomputed with a warning on stderr. Entries are
    written to a temporary file and renamed into place, so a reader never
    sees a half-written one.
    """
    full_key = dict(key, seed=seed, T=T, iters=iters, tol=tol)
    digest = hashlib.sha256(json.dumps(full_key, sort_keys=True).encode()).hexdigest()[:24]
    path = os.path.join(cache_dir, f"oracle-{digest}.json") if cache_dir else None
    if path and os.path.exists(path):
        blob = _read_cache_entry(path, full_key)
        if blob is not None:
            return blob, True
    res = offline_value(problem, seed, T, iters=iters, tol=tol)
    blob = {
        "key": full_key,
        "x_star": [float(v) for v in res.x],
        "value": float(res.value),
        "residual": float(res.residual),
    }
    if path:
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(blob, fh, indent=1, sort_keys=True)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return blob, False


# ------------------------------------------------------------- commands


def cmd_run(s: Settings) -> int:
    problem = build_problem(s)
    cfg = build_config(s)
    seed = s.get("seed", int, 0)
    iters, tol = _oracle_settings(s)
    out = _out_dir(s)
    try:
        trace = run(problem, cfg, seed)
    except RunError as e:
        print(f"error: run aborted at {e}", file=sys.stderr)
        return EXIT_FAIL
    oracle_blob, _ = cached_offline_value(problem, _problem_key(s), seed, cfg.T, iters, tol, out)
    summary = summarize(trace, oracle_blob["value"])
    gmax = trace.g.max(axis=1)
    clip = np.maximum(gmax, 0.0)
    blob = {
        "problem": problem.name,
        "algo": cfg.variant,
        "T": cfg.T,
        "beta": cfg.beta,
        "alpha": cfg.alpha,
        "aggregation": cfg.aggregation,
        "lagrangian": cfg.lagrangian,
        "seed": seed,
        "eta": trace.eta,
        "sigma": trace.sigma,
        "offline_value": oracle_blob["value"],
        "regret": summary.regret,
        "sum_g": [float(v) for v in summary.sum_g],
        "sum_clip": [float(v) for v in summary.sum_clip],
        "sum_clip_sq": [float(v) for v in summary.sum_clip_sq],
        "max_step_violation": summary.max_step_violation,
        "agg_sum_g": float(gmax.sum()),
        "agg_sum_clip": float(clip.sum()),
        "agg_sum_clip_sq": float((clip * clip).sum()),
        "g_bar_x1": trace.meta["g_bar_x1"],
    }
    trace_path = os.path.join(out, "trace.csv")
    write_trace_csv(trace, trace_path, per_constraint=s.get("per-constraint-columns", bool, False))
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True)
    print(
        f"{problem.name}/{cfg.variant} T={cfg.T} seed={seed}: "
        f"regret={_fmt(summary.regret)} sum_clip={_fmt(clip.sum())} "
        f"max_viol={_fmt(summary.max_step_violation)}"
    )
    print(f"wrote {trace_path} and summary.json")
    return EXIT_OK


_SWEEP_COLUMNS = (
    "algo", "T", "seed", "regret", "sum_g", "sum_clip", "sum_clip_sq", "max_step_violation",
)


def _sweep_cell(batch: Batch, cfg: AlgoConfig, cell: dict) -> dict:
    """One sweep cell reduced to its sweep.csv row."""
    try:
        trace = run(batch, cfg, cell["seed"])
    except RunError as e:
        return dict(cell, error=str(e))
    gmax = trace.g.max(axis=1)
    clip = np.maximum(gmax, 0.0)
    return dict(
        cell,
        error=None,
        regret=float(trace.fx.sum() - cell["offline_value"]),
        sum_g=float(gmax.sum()),
        sum_clip=float(clip.sum()),
        sum_clip_sq=float((clip * clip).sum()),
        max_step_violation=float(clip.max(initial=0.0)),
    )


def _sweep_group(group: dict) -> list:
    """One algorithm's T x seed grid: one kernel call, one row per cell.
    Self-contained so it can run in a worker process."""
    s = Settings(argparse.Namespace(**group["settings"]))
    problem = build_problem(s)
    cfgs = [build_config(s, T=c["T"], algo=c["algo"]) for c in group["cells"]]
    batch = Batch(problem, [(cfg, c["seed"]) for cfg, c in zip(cfgs, group["cells"])])
    return [_sweep_cell(batch, cfg, c) for cfg, c in zip(cfgs, group["cells"])]


def cmd_sweep(s: Settings) -> int:
    t_grid = [int(v) for v in s.get("T-grid", str, required=True).split(",")]
    algos = [a.strip() for a in s.get("algos", str, required=True).split(",")]
    n_seeds = s.get("seeds", int, 10)
    base_seed = s.get("seed", int, BASE_SWEEP_SEED)
    jobs = s.get("jobs", int, 1)
    iters, tol = _oracle_settings(s)
    out = _out_dir(s)
    problem = build_problem(s)
    key = _problem_key(s)

    # the offline value is shared by every algorithm in a (T, seed) cell
    oracle_vals = {}
    for T in t_grid:
        for i in range(n_seeds):
            seed = derive_seed(base_seed, i)
            blob, _ = cached_offline_value(problem, key, seed, T, iters, tol, out)
            oracle_vals[(T, i)] = blob["value"]

    settings_snapshot = {k: v for k, v in vars(s.ns).items() if k != "command"}
    groups = [
        {
            "settings": settings_snapshot,
            "cells": [
                {
                    "algo": algo,
                    "T": T,
                    "seed": derive_seed(base_seed, i),
                    "seed_index": i,
                    "offline_value": oracle_vals[(T, i)],
                }
                for T in t_grid
                for i in range(n_seeds)
            ],
        }
        for algo in algos
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
            rows = [row for group in pool.map(_sweep_group, groups) for row in group]
    else:
        rows = [row for group in groups for row in _sweep_group(group)]
    rows.sort(key=lambda r: (r["algo"], r["T"], r["seed_index"]))

    failures = [r for r in rows if r["error"]]
    csv_path = os.path.join(out, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for r in rows:
            if r["error"]:
                continue
            fh.write(
                f"{r['algo']},{r['T']},{r['seed']},"
                + ",".join(_fmt(r[k]) for k in _SWEEP_COLUMNS[3:])
                + "\n"
            )

    stats_path = os.path.join(out, "sweep_stats.csv")
    with open(stats_path, "w", encoding="utf-8") as fh:
        metrics = _SWEEP_COLUMNS[3:]
        fh.write("algo,T," + ",".join(f"{m}_mean,{m}_std" for m in metrics) + "\n")
        for algo in sorted(set(r["algo"] for r in rows)):
            for T in sorted(set(r["T"] for r in rows)):
                group = [r for r in rows if r["algo"] == algo and r["T"] == T and not r["error"]]
                if not group:
                    continue
                cells = []
                for m in metrics:
                    vals = np.array([r[m] for r in group])
                    cells += [_fmt(float(vals.mean())), _fmt(float(vals.std()))]
                fh.write(f"{algo},{T}," + ",".join(cells) + "\n")

    print(f"wrote {csv_path} ({len(rows) - len(failures)} cells) and {stats_path}")
    for r in failures:
        print(f"cell failed: {r['algo']} T={r['T']} seed={r['seed']}: {r['error']}", file=sys.stderr)
    return EXIT_FAIL if failures else EXIT_OK


def cmd_oracle(s: Settings) -> int:
    problem = build_problem(s)
    seed = s.get("seed", int, 0)
    T = s.get("T", int, required=True)
    iters, tol = _oracle_settings(s)
    out = _out_dir(s)
    blob, hit = cached_offline_value(problem, _problem_key(s), seed, T, iters, tol, out)
    tag = "cached" if hit else "solved"
    print(
        f"{tag}: {problem.name} seed={seed} T={T} value={_fmt(blob['value'])} "
        f"residual={_fmt(blob['residual'])}"
    )
    return EXIT_OK


def cmd_validate(s: Settings) -> int:
    if s.get("quick", bool, False):
        suite = AcceptanceSuite(t_grid=(250, 500, 1000, 2000, 4000), toy_seeds=3, ds_seeds=2)
    else:
        suite = AcceptanceSuite()
    results = suite.run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name.ljust(width)}  {r.details}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} acceptance checks passed")
    return EXIT_OK if failed == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ocolc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--problem", choices=PROBLEMS)
        p.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV} or ./out)")
        p.add_argument("--d", type=int, help="matrix dimension for doubly-stochastic")
        p.add_argument("--demand-csv", help="demand series CSV for dispatch")
        p.add_argument("--demand-rescale", type=float)
        p.add_argument("--oracle-iters", type=int)
        p.add_argument("--oracle-tol", type=float)

    p_run = sub.add_parser("run", help="one run: trace.csv + summary.json")
    common(p_run)
    p_run.add_argument("--algo")
    p_run.add_argument("--T", type=int)
    p_run.add_argument("--beta", type=float)
    p_run.add_argument("--alpha", type=float)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--aggregation", choices=("max", "logsumexp", "per_constraint"))
    p_run.add_argument("--lagrangian", choices=("clipped", "plain"))
    p_run.add_argument("--eta", type=float, help="override the stepsize")
    p_run.add_argument("--sigma", type=float, help="override the dual constant")
    p_run.add_argument("--per-constraint-columns", action="store_true", default=None)

    p_sweep = sub.add_parser("sweep", help="grid of runs: sweep.csv + sweep_stats.csv")
    common(p_sweep)
    p_sweep.add_argument("--T-grid", help="comma-separated horizons")
    p_sweep.add_argument("--algos", help="comma-separated algorithm names")
    p_sweep.add_argument("--seeds", type=int, help="number of random sequences")
    p_sweep.add_argument("--seed", type=int, help="base seed for the splitting rule")
    p_sweep.add_argument("--beta", type=float)
    p_sweep.add_argument("--alpha", type=float)
    p_sweep.add_argument("--aggregation", choices=("max", "logsumexp", "per_constraint"))
    p_sweep.add_argument("--lagrangian", choices=("clipped", "plain"))
    p_sweep.add_argument("--eta", type=float)
    p_sweep.add_argument("--sigma", type=float)
    p_sweep.add_argument("--jobs", type=int, help="worker processes, one algorithm each")

    p_oracle = sub.add_parser("oracle", help="offline optimum for one (problem, seed, T)")
    common(p_oracle)
    p_oracle.add_argument("--seed", type=int)
    p_oracle.add_argument("--T", type=int)

    p_val = sub.add_parser("validate", help="acceptance checks; exit 0 iff all pass")
    p_val.add_argument("--quick", action="store_true", default=None,
                       help="reduced grids for a fast smoke check")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        s = Settings(ns)
        handler = {
            "run": cmd_run,
            "sweep": cmd_sweep,
            "oracle": cmd_oracle,
            "validate": cmd_validate,
        }[ns.command]
        return handler(s)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OracleError as e:
        print(f"error: oracle failed: {e}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
