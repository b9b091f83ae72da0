"""Command-line harness: single runs, sweeps, oracle values, acceptance checks.

Subcommands: run | sweep | oracle | validate. Settings come from CLI flags,
which override a flat key=value config file (--config), whose entries are
parsed as flags, which overrides the built-in defaults. Exit codes: 0
success, 1 run/check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import sys

import numpy as np

from .algorithms import AGGREGATIONS, AlgoConfig, Batch, RunError, Schedule, run
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


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(raw: str) -> bool:
    """A config-file boolean: 1/true/yes or 0/false/no, in any case."""
    if raw.lower() not in _BOOLS:
        raise ValueError(f"expected one of 1/true/yes/0/false/no, got {raw!r}")
    return _BOOLS[raw.lower()]


class UsageError(Exception):
    pass


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list:
    """The entries of config file `path` as flags of the subcommand `parser`
    parses: key=value as --key=value, a true boolean as its bare flag. A key
    that is not exactly one of its flags is a usage error, not ignored."""
    with _setting("config"):
        entries = read_config_file(path)
    options, flags = parser._option_string_actions, []
    for key, value in entries.items():
        flag = f"--{key}"
        if flag not in options or key in ("help", "config"):
            raise UsageError(f"--config: unknown setting {key!r} for {parser.prog!r}")
        if options[flag].nargs != 0:
            flags.append(f"{flag}={value}")
        else:
            with _setting(key):
                if _parse_bool(value):
                    flags.append(flag)
    return flags


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and through add_subparsers each subcommand's, whose
    errors are UsageErrors naming the flag: one line, no usage block. A
    subcommand's --config entries are parsed as its flags, placed before the
    command line's own, so that the command line's win."""

    def error(self, message):
        raise UsageError(message.removeprefix("argument "))

    def parse_known_args(self, args=None, namespace=None):
        if "--config" in self._option_string_actions:
            # the file is read before the parse that applies it
            find = argparse.ArgumentParser(add_help=False, exit_on_error=False)
            find.add_argument("--config")
            try:
                path = find.parse_known_args(args)[0].config
            except argparse.ArgumentError:  # --config with no value: the parse below reports it
                path = None
            if path is not None:
                args = _config_flags(self, path) + args
        return super().parse_known_args(args, namespace)

    def parse_args(self, args=None, namespace=None):
        ns, extra = self.parse_known_args(args, namespace)
        if extra:
            raise UsageError(f"{' '.join(extra)}: unrecognized arguments for 'ocolc {ns.command}'")
        return ns


def _checked(cast, ok, what: str):
    """The type of a setting: cast(raw), which must be `what`."""

    def parse(raw: str):
        try:
            value = cast(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {raw!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return parse


# a horizon or a count of seeds, workers or iterations; a seed, as numpy's
# seed sequences require; a rescale or a tolerance
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive = _checked(float, lambda v: 0.0 < v < float("inf"), "positive and finite")


def _t_grid(raw: str) -> list:
    """The type of --T-grid: comma-separated horizons, none named twice,
    which would write and count each of its cells twice."""
    try:
        grid = [_count(v) for v in raw.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"must be positive integers, got {raw!r}") from None
    for i, T in enumerate(grid):
        if T in grid[:i]:
            raise argparse.ArgumentTypeError(f"names horizon {T} twice, in {raw!r}")
    return grid


@contextlib.contextmanager
def _setting(key: str):
    """A ValueError raised while applying setting `key`, or an OSError raised
    while reading the file it names, is a usage error naming it."""
    try:
        yield
    except (ValueError, OSError) as e:
        raise UsageError(f"--{key}: {e}") from None


def build_problem(ns: argparse.Namespace):
    """The problem the settings name, and the key that identifies it in the
    oracle cache. The demand CSV is read once, for both."""
    key = {"problem": ns.problem}
    if ns.problem == "toy":
        return toy_problem(), key
    if ns.problem == "doubly-stochastic":
        key["d"] = ns.d
        with _setting("d"):
            return doubly_stochastic_problem(d=ns.d), key
    csv = ns.demand_csv
    key["rescale"] = ns.demand_rescale
    with _setting("demand-csv"):
        demand = load_demand_csv(csv) if csv else None
        problem = dispatch_problem(DispatchParams(demand=demand, demand_rescale=ns.demand_rescale))
    if csv:
        key["demand_sha"] = hashlib.sha256(demand.tobytes()).hexdigest()[:16]
    return problem, key


def build_config(ns: argparse.Namespace, problem, T=None, algo=None) -> AlgoConfig:
    """The AlgoConfig of the settings (sweep passes each T and algorithm).

    A value AlgoConfig rejects is a usage error naming the setting that
    brings the rejection on: the settings are added one at a time, in the
    order below, to a config that is valid so far. A config whose Schedule
    the problem rejects (strong-clipped-ogd on a problem that is not
    strongly convex, or with --eta or --sigma) is one naming the algorithm.
    """
    algo_key = "algos" if algo is not None else "algo"
    fields = {"T": 1}
    for key, name, value in (
        (algo_key, "variant", ns.algo if algo is None else algo),
        ("T", "T", ns.T if T is None else T),
        ("beta", "beta", ns.beta),
        ("alpha", "alpha", ns.alpha),
        ("aggregation", "aggregation", ns.aggregation),
        ("eta", "eta_override", ns.eta),
        ("sigma", "sigma_override", ns.sigma),
    ):
        fields[name] = value
        with _setting(key):
            cfg = AlgoConfig(**fields)
    with _setting(algo_key):
        Schedule(problem, cfg)
    return cfg


def _out_dir(ns: argparse.Namespace) -> str:
    os.makedirs(ns.out, exist_ok=True)
    return ns.out


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
    # one %-format per row, which prints each field as _fmt does
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(name for name, _ in cols) + "\n")
        fh.writelines(row % fields for fields in zip(*(col.tolist() for _, col in cols)))


def load_trace_csv(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


# ---------------------------------------------------------- oracle cache


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _read_cache_entry(path: str, full_key: dict):
    """The cached blob at `path`, or None (with a warning) when the file is
    unreadable JSON or not an entry for `full_key`: one whose value and
    residual are numbers and whose x_star is a list of them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except ValueError as e:  # truncated or garbled: JSON or UTF-8 decode error
        problem = str(e)
    else:
        if (
            isinstance(blob, dict)
            and blob.get("key") == full_key
            and _is_real(blob.get("value"))
            and _is_real(blob.get("residual"))
            and isinstance(blob.get("x_star"), list)
            and all(map(_is_real, blob["x_star"]))
        ):
            return blob
        problem = "not a valid entry for this key"
    print(f"warning: recomputing corrupt oracle cache entry {path}: {problem}", file=sys.stderr)
    return None


def cached_offline_value(problem, key: dict, seed: int, T: int, iters: int, tol: float, cache_dir):
    """Disk-cached oracle: keyed by (problem identity, seed, T).

    Every problem the CLI builds has an exact solver, so no key holds the
    penalty settings. Dispatch is keyed by its identity, T and the tag
    ``"oracle": "kkt"`` only: its stream ignores the seed. The tag keeps
    penalty answers cached before its exact solver from being read back as
    exact ones.

    A corrupt entry is recomputed with a warning on stderr. Entries are
    written to a temporary file and renamed into place, so a reader never
    sees a half-written one.
    """
    if key["problem"] == "dispatch":
        full_key = dict(key, oracle="kkt", T=T)
    else:
        full_key = dict(key, seed=seed, T=T)
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
        "solver": res.info["solver"],
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


def cmd_run(ns: argparse.Namespace) -> int:
    problem, key = build_problem(ns)
    cfg = build_config(ns, problem)
    out = _out_dir(ns)
    try:
        trace = run(problem, cfg, ns.seed)
    except RunError as e:
        print(f"error: run aborted at {e}", file=sys.stderr)
        return EXIT_FAIL
    oracle, _ = cached_offline_value(problem, key, ns.seed, cfg.T, ns.oracle_iters, ns.oracle_tol, out)
    summary = summarize(trace, oracle["value"])
    blob = {
        "problem": problem.name,
        "algo": cfg.variant,
        "T": cfg.T,
        "beta": cfg.beta,
        "alpha": cfg.alpha,
        "aggregation": cfg.aggregation,
        "lagrangian": cfg.lagrangian,
        "seed": ns.seed,
        "eta": trace.eta,
        "sigma": trace.sigma,
        "offline_value": oracle["value"],
        "regret": summary.regret,
        "sum_g": [float(v) for v in summary.sum_g],
        "sum_clip": [float(v) for v in summary.sum_clip],
        "sum_clip_sq": [float(v) for v in summary.sum_clip_sq],
        "max_step_violation": summary.max_step_violation,
        "agg_sum_g": summary.agg_sum_g,
        "agg_sum_clip": summary.agg_sum_clip,
        "agg_sum_clip_sq": summary.agg_sum_clip_sq,
        "g_bar_x1": trace.meta["g_bar_x1"],
    }
    trace_path = os.path.join(out, "trace.csv")
    write_trace_csv(trace, trace_path, per_constraint=ns.per_constraint_columns)
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True)
    print(
        f"{problem.name}/{cfg.variant} T={cfg.T} seed={ns.seed}: "
        f"regret={_fmt(summary.regret)} sum_clip={_fmt(summary.agg_sum_clip)} "
        f"max_viol={_fmt(summary.max_step_violation)}"
    )
    print(f"wrote {trace_path} and summary.json")
    return EXIT_OK


_SWEEP_COLUMNS = (
    "algo", "T", "seed", "regret", "sum_g", "sum_clip", "sum_clip_sq", "max_step_violation",
)


def _sweep_cell(batch: Batch, cfg: AlgoConfig, cell: dict) -> dict:
    """One sweep cell reduced to its sweep.csv row (max-aggregated sums)."""
    try:
        trace = run(batch, cfg, cell["seed"])
    except RunError as e:
        return dict(cell, error=str(e))
    summary = summarize(trace, cell["offline_value"])
    return dict(
        cell,
        error=None,
        regret=summary.regret,
        sum_g=summary.agg_sum_g,
        sum_clip=summary.agg_sum_clip,
        sum_clip_sq=summary.agg_sum_clip_sq,
        max_step_violation=summary.max_step_violation,
    )


def _sweep_group(group: dict, problem=None) -> list:
    """Sweep cells of any algorithms: one kernel call, one row per cell.
    In a worker process, which is given no problem, it builds its own."""
    if problem is None:
        problem, _ = build_problem(group["settings"])
    cfgs, cells = group["cfgs"], group["cells"]
    batch = Batch(problem, [(cfg, c["seed"]) for cfg, c in zip(cfgs, cells)])
    return [_sweep_cell(batch, cfg, c) for cfg, c in zip(cfgs, cells)]


def cmd_sweep(ns: argparse.Namespace) -> int:
    t_grid, n_seeds, base_seed = ns.T_grid, ns.seeds, ns.seed
    algos = [a.strip() for a in ns.algos.split(",")]
    out = _out_dir(ns)
    problem, key = build_problem(ns)
    if key["problem"] == "dispatch" and n_seeds > 1:
        raise UsageError(
            f"--seeds must be 1 for dispatch, got {n_seeds}: its demand stream "
            "does not depend on the seed, so every seed would repeat the same cells"
        )
    cfgs = {(algo, T): build_config(ns, problem, T=T, algo=algo) for algo in algos for T in t_grid}
    named = {}  # variant -> the first --algos name that resolves to it
    for algo in algos:
        variant = cfgs[(algo, t_grid[0])].variant
        if variant in named:
            raise UsageError(
                f"--algos names one algorithm twice: "
                f"{named[variant]!r} and {algo!r} are both {variant}"
            )
        named[variant] = algo

    # the offline value is shared by every algorithm in a (T, seed) cell
    oracle_vals = {}
    for T in t_grid:
        for i in range(n_seeds):
            seed = derive_seed(base_seed, i)
            blob, _ = cached_offline_value(problem, key, seed, T, ns.oracle_iters, ns.oracle_tol, out)
            oracle_vals[(T, i)] = blob["value"]

    # every cell, longest horizon first, dealt round-robin into one group per
    # worker, so that each worker gets a share of every horizon; --jobs J
    # asks for J workers, capped at the CPU count and the cell count. Cells
    # are reduced in this order, so the trace reduced last, which a caller
    # of run() may still hold during the next call, is a short one
    cells = sorted(itertools.product(algos, t_grid, range(n_seeds)), key=lambda cell: -cell[1])
    workers = min(ns.jobs, os.cpu_count() or 1, len(cells))
    groups = [
        {
            "settings": ns,
            "cfgs": [cfgs[(algo, T)] for algo, T, _ in share],
            "cells": [
                {
                    "algo": algo,
                    "T": T,
                    "seed": derive_seed(base_seed, i),
                    "seed_index": i,
                    "offline_value": oracle_vals[(T, i)],
                }
                for algo, T, i in share
            ],
        }
        for share in (cells[j::workers] for j in range(workers))
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for group in pool.map(_sweep_group, groups) for row in group]
    else:
        (group,) = groups
        rows = _sweep_group(group, problem)
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


def cmd_oracle(ns: argparse.Namespace) -> int:
    problem, key = build_problem(ns)
    out = _out_dir(ns)
    blob, hit = cached_offline_value(problem, key, ns.seed, ns.T, ns.oracle_iters, ns.oracle_tol, out)
    tag = "cached" if hit else "solved"
    print(
        f"{tag}: {problem.name} seed={ns.seed} T={ns.T} value={_fmt(blob['value'])} "
        f"residual={_fmt(blob['residual'])} solver={blob.get('solver', 'unrecorded')}"
    )
    return EXIT_OK


def cmd_validate(ns: argparse.Namespace) -> int:
    if ns.quick:
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
    ap = _Parser(prog="ocolc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file; its entries are parsed as flags")
        p.add_argument("--problem", choices=PROBLEMS, required=True)
        p.add_argument("--out", default=os.environ.get(OUTDIR_ENV, "out"),
                       help=f"output directory (default ${OUTDIR_ENV} or ./out)")
        p.add_argument("--d", type=int, default=5, help="matrix dimension for doubly-stochastic")
        p.add_argument("--demand-csv", help="demand series CSV for dispatch")
        p.add_argument("--demand-rescale", type=_positive, default=1.0)
        p.add_argument("--oracle-iters", type=_count, default=20000,
                       help="penalty-oracle iterations per ramp; no built-in problem uses it")
        p.add_argument("--oracle-tol", type=_positive, default=1e-6,
                       help="penalty-oracle feasibility tolerance; no built-in problem uses it")

    def algo_settings(p):
        p.add_argument("--beta", type=float, default=0.5)
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--aggregation", choices=AGGREGATIONS, default="max")
        p.add_argument("--eta", type=float, help="override the stepsize")
        p.add_argument("--sigma", type=float, help="override the dual constant")

    p_run = sub.add_parser("run", help="one run: trace.csv + summary.json")
    common(p_run)
    p_run.add_argument("--algo", required=True)
    p_run.add_argument("--T", type=_count, required=True)
    p_run.add_argument("--seed", type=_seed, default=0)
    algo_settings(p_run)
    p_run.add_argument("--per-constraint-columns", action="store_true")

    p_sweep = sub.add_parser("sweep", help="grid of runs: sweep.csv + sweep_stats.csv")
    common(p_sweep)
    p_sweep.add_argument("--T-grid", type=_t_grid, required=True, help="comma-separated horizons")
    p_sweep.add_argument("--algos", required=True, help="comma-separated algorithm names")
    p_sweep.add_argument("--seeds", type=_count, default=10, help="number of random sequences")
    p_sweep.add_argument("--seed", type=_seed, default=BASE_SWEEP_SEED,
                         help="base seed for the splitting rule")
    algo_settings(p_sweep)
    p_sweep.add_argument("--jobs", type=_count, default=1,
                         help="worker processes, at most one per CPU and per cell; "
                         "the cells are dealt among them in horizon order")

    p_oracle = sub.add_parser("oracle", help="offline optimum for one (problem, seed, T)")
    common(p_oracle)
    p_oracle.add_argument("--seed", type=_seed, default=0)
    p_oracle.add_argument("--T", type=_count, required=True)

    p_val = sub.add_parser("validate", help="acceptance checks; exit 0 iff all pass")
    p_val.add_argument("--quick", action="store_true", help="reduced grids for a fast smoke check")

    return ap


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit:  # --help, which exits 0 once it has printed
        return EXIT_OK
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        handler = {
            "run": cmd_run,
            "sweep": cmd_sweep,
            "oracle": cmd_oracle,
            "validate": cmd_validate,
        }[ns.command]
        return handler(ns)
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
