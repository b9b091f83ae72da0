"""Golden digests: sha256 of trace arrays and CLI outputs for a fixed case set.

The digests in ``golden_digests.json`` pin the numbers the library produces
bit for bit. A refactor that keeps every digest has changed no trace, no
sweep row and no summary field. Regenerate them only when results are meant
to change:

    PYTHONPATH=src python tests/make_golden.py

Cases cover every supported (problem, variant, aggregation) combination,
each under the Lagrangian its variant defines, at fixed seeds and small
horizons, with the theorem stepsizes and with an engaged override pair,
plus the offline oracles (``offline_solve``, ``offline_value``,
``grid_oracle``) and a fixed set of ``ocolc run`` / ``sweep`` /
``validate --quick`` commands.

Bitwise results depend on the numpy build, its BLAS and the CPU features it
dispatches to, so the file records the platform it was made on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import platform
from pathlib import Path

import numpy as np

from ocolc.algorithms import AlgoConfig, run
from ocolc.core import ConvexFn
from ocolc.oracle import grid_oracle, offline_solve, offline_value
from ocolc.problems import dispatch_problem, doubly_stochastic_problem, toy_problem

from reference import ClosureProblem, per_step

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

VARIANTS = ("clipped-ogd", "strong-clipped-ogd", "mahdavi-ogd", "a-ogd")
# written out, not imported: CI's golden-vs-base job runs this case set on
# the base commit's library, whose own tuple may name more aggregations
AGGREGATIONS = ("max", "per_constraint")
TRACE_FIELDS = ("t", "x", "fx", "g", "g_agg", "lam")


def inline_problem() -> ClosureProblem:
    """A problem built from ConvexFn closures, evaluated row by row.

    f_t(x) = 0.5 ||x - c_t||^2 with c_t on a circle of radius 0.5 around
    (1.2, 1.0), outside the feasible set; g_1(x) = x_1 + x_2 - 0.5 and
    g_2(x) = x_1^2 - 0.2, inside a ball of radius 2. Strongly convex
    (H1 = 1), two constraints of different shape.
    """

    def center(t):
        a = 0.7 * t + 0.3
        return np.array([1.2 + 0.5 * np.cos(a), 1.0 + 0.5 * np.sin(a)])

    def make_loss(seed, t):
        c = center(t + 0.5 * seed)
        return ConvexFn(lambda x: float(0.5 * np.sum((x - c) ** 2)), lambda x: x - c)

    gs = [
        ConvexFn(lambda x: float(x[0] + x[1] - 0.5), lambda x: np.array([1.0, 1.0])),
        ConvexFn(lambda x: float(x[0] * x[0] - 0.2), lambda x: np.array([2.0 * x[0], 0.0])),
    ]
    return ClosureProblem(2, gs, per_step(make_loss), R=2.0, G=4.0, H1=1.0)


def problems() -> dict:
    return {
        "toy": toy_problem(),
        "ds3": doubly_stochastic_problem(d=3),
        "ds9": doubly_stochastic_problem(d=9),
        "dispatch": dispatch_problem(),
        "inline": inline_problem(),
    }


# stepsize settings per problem: the theorem defaults, then an override pair
# large enough that the constraints bind and the duals move
OVERRIDES = {
    "toy": (0.2, 4.0),
    "ds3": (0.05, 20.0),
    "ds9": (0.05, 20.0),
    "dispatch": (0.01, 100.0),
    "inline": (0.1, 10.0),
}
HORIZON = {"toy": 80, "ds3": 60, "ds9": 25, "dispatch": 80, "inline": 60}


def run_cases():
    """Yield (case id, problem, config, seed) for every supported combination."""
    probs = problems()
    for pname, problem in probs.items():
        T = HORIZON[pname]
        for variant, agg in itertools.product(VARIANTS, AGGREGATIONS):
            if variant == "a-ogd" and agg != "max":
                # a-ogd runs only in its published form; skipped here too so
                # that a library which still accepts more yields the same set
                continue
            if variant == "strong-clipped-ogd" and problem.H1 is None:
                continue
            settings = [("default", None, None)]
            if variant != "strong-clipped-ogd":
                settings.append(("engaged",) + OVERRIDES[pname])
            for label, eta, sigma in settings:
                cfg = AlgoConfig(variant, T=T, aggregation=agg, eta_override=eta, sigma_override=sigma)
                # the id names the Lagrangian the variant defines, which a
                # library that still takes it as a setting gives by default
                case = f"run/{pname}/{variant}/{agg}/{cfg.lagrangian}/{label}"
                yield case, problem, cfg, 7


def check8_ds4_loss(base_seed: int) -> ConvexFn:
    """The off-polytope quadratic that acceptance check 8 gives the penalty
    solver on doubly-stochastic(d=4)."""
    M = np.random.default_rng(base_seed).uniform(-0.3, 1.2, size=(4, 4))
    return ConvexFn(
        lambda x: float(0.5 * np.sum((x - M.ravel()) ** 2)),
        lambda x: x - M.ravel(),
    )


def oracle_cases():
    """Yield (case id, thunk returning an OracleResult).

    Check 8's toy and ds(d=4) inputs at two base seeds (ds4 needs a second
    penalty ramp at seed 6), the penalty solver on the dispatch mean loss
    with one and with three ramps, the exact dispatch offline value at the
    same two horizons, and the grid oracle on toy at check 8's resolution and
    on the 3-D dispatch problem. Iteration counts are cut down from check
    8's so the set stays cheap; every iterate still enters the result.
    """
    toy, ds4, disp = toy_problem(), doubly_stochastic_problem(d=4), dispatch_problem()
    for seed in (1, 6):
        fbar = toy.mean_loss(seed, 50)
        yield f"oracle/penalty/toy/{seed}", lambda f=fbar: offline_solve(toy, f, iters=2000)
        f4 = check8_ds4_loss(seed)
        yield f"oracle/penalty/ds4/{seed}", lambda f=f4: offline_solve(ds4, f, iters=1000)
    for ramps, T, iters in (("1-ramp", 50, 200), ("3-ramps", 200, 300)):
        fbar = disp.mean_loss(0, T)
        yield f"oracle/penalty/dispatch/{ramps}", lambda f=fbar, i=iters: offline_solve(disp, f, iters=i)
        yield f"oracle/value/dispatch/T{T}", lambda T=T: offline_value(disp, 0, T)
    yield "oracle/grid/toy", lambda: grid_oracle(toy, toy.mean_loss(1, 50), 1e-3)
    yield "oracle/grid/dispatch", lambda: grid_oracle(disp, disp.mean_loss(1, 50), 1.0)


CLI_COMMANDS = {
    "sweep-toy": [
        "sweep", "--problem", "toy", "--algos", "ogd,a-ogd,clipped-ogd",
        "--T-grid", "50,100,200", "--seeds", "2", "--seed", "11",
    ],
    "sweep-ds": [
        "sweep", "--problem", "doubly-stochastic", "--d", "3", "--algos", "strong,clipped-ogd",
        "--T-grid", "40,80", "--seeds", "2", "--aggregation", "per_constraint",
    ],
    "sweep-dispatch": [
        "sweep", "--problem", "dispatch", "--algos", "clipped-ogd,ogd", "--T-grid", "30,60",
        "--seeds", "1", "--eta", "0.01", "--sigma", "100", "--oracle-iters", "2000",
    ],
    "run-toy": [
        "run", "--problem", "toy", "--algo", "clipped-ogd", "--T", "300", "--seed", "1",
    ],
    "run-ds-max": [
        "run", "--problem", "doubly-stochastic", "--d", "4", "--algo", "strong",
        "--T", "100", "--seed", "2", "--per-constraint-columns",
    ],
    "run-dispatch-aogd": [
        "run", "--problem", "dispatch", "--algo", "a-ogd", "--T", "120", "--seed", "0",
        "--eta", "0.01", "--sigma", "100", "--oracle-iters", "2000", "--per-constraint-columns",
    ],
}
CLI_OUTPUTS = ("sweep.csv", "sweep_stats.csv", "trace.csv", "summary.json")


def platform_fingerprint() -> str:
    """numpy version, BLAS build, machine and the SIMD extensions in use."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = ",".join(config["SIMD Extensions"]["found"])
    return f"numpy {np.__version__}; {blas['name']} {blas['version']}; {platform.machine()}; {simd}"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_digest(trace) -> dict:
    """One sha256 per trace array, plus the resolved scalars as text."""
    out = {}
    for name in TRACE_FIELDS:
        arr = np.ascontiguousarray(getattr(trace, name), dtype=float)
        out[name] = sha(repr(arr.shape).encode() + arr.tobytes())
    # no trace has an "epochs" entry any more; its None stays in the tuple so
    # that every committed digest keeps its value
    meta = {k: trace.meta[k] for k in sorted(trace.meta) if k != "epochs"}
    scalars = repr((trace.eta, trace.sigma, meta, trace.meta.get("epochs")))
    out["scalars"] = sha(scalars.encode())
    return out


def oracle_digest(res) -> dict:
    """sha256 of the answer's bytes, plus value, residual and info as text."""
    x = np.ascontiguousarray(res.x, dtype=float)
    scalars = repr((res.value, res.residual, sorted(res.info.items())))
    return {"x": sha(repr(x.shape).encode() + x.tobytes()), "scalars": sha(scalars.encode())}


def cli_digest(argv, out_dir: Path) -> dict:
    from ocolc.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv) + ["--out", str(out_dir)])
    out = {"exit": code}
    for name in CLI_OUTPUTS:
        path = out_dir / name
        if path.exists():
            out[name] = sha(path.read_bytes())
    return out


def validate_quick_digest() -> dict:
    from ocolc.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["validate", "--quick"])
    return {"exit": code, "stdout": sha(buf.getvalue().encode())}


def case_ids() -> list:
    """Every golden case id, in the order all_digests computes them; listing
    them runs no case."""
    return (
        [case for case, *_ in run_cases()]
        + [case for case, _ in oracle_cases()]
        + [f"cli/{name}" for name in CLI_COMMANDS]
        + ["cli/validate-quick"]
    )


def all_digests(tmp: Path) -> dict:
    """Every golden digest, keyed by case id."""
    out = {}
    for case, problem, cfg, seed in run_cases():
        out[case] = trace_digest(run(problem, cfg, seed))
    for case, solve in oracle_cases():
        out[case] = oracle_digest(solve())
    for name, argv in CLI_COMMANDS.items():
        d = tmp / name
        d.mkdir(parents=True)
        out[f"cli/{name}"] = cli_digest(argv, d)
    out["cli/validate-quick"] = validate_quick_digest()
    return out
