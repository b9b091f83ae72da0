"""Online convex optimization with long-term constraints.

Primal-dual algorithms that bound the squared-clipped cumulative constraint
violation, their baselines, the benchmark problems, offline oracles, and the
metrics/CLI harness used to verify the scaling laws empirically.
"""

from .algorithms import (
    AlgoConfig,
    Batch,
    RunError,
    RunTrace,
    Schedule,
    advance,
    projected_ogd_run,
    run,
    tradeoff_eta,
)
from .core import (
    BallDomain,
    ConvexFn,
    project_ball,
)
from .metrics import RunSummary, fit_slope, positive_points, summarize
from .oracle import (
    OracleError,
    OracleResult,
    grid_oracle,
    offline_solve,
    offline_value,
    project_birkhoff,
)
from .problems import (
    ArrayForm,
    DispatchParams,
    ProblemSpec,
    derive_seed,
    dispatch_problem,
    doubly_stochastic_problem,
    load_demand_csv,
    synthetic_demand,
    toy_problem,
)

__all__ = [
    "AlgoConfig",
    "ArrayForm",
    "BallDomain",
    "Batch",
    "ConvexFn",
    "DispatchParams",
    "OracleError",
    "OracleResult",
    "ProblemSpec",
    "RunError",
    "RunSummary",
    "RunTrace",
    "Schedule",
    "advance",
    "derive_seed",
    "dispatch_problem",
    "doubly_stochastic_problem",
    "fit_slope",
    "grid_oracle",
    "load_demand_csv",
    "offline_solve",
    "offline_value",
    "positive_points",
    "project_ball",
    "project_birkhoff",
    "projected_ogd_run",
    "run",
    "summarize",
    "synthetic_demand",
    "toy_problem",
    "tradeoff_eta",
]

__version__ = "0.1.0"
