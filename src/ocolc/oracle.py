"""Offline solvers for the regret comparator x* = argmin over S of the
cumulative loss, with brute-force validators at tiny scale."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConvexFn, project_ball
from .problems import ProblemSpec


# points per grid_oracle block: a few MiB of work arrays at n <= 3
GRID_BLOCK = 1 << 16


@dataclass
class OracleResult:
    x: np.ndarray
    value: float  # the given loss at x
    residual: float  # max_i [g_i(x)]_+
    info: dict = field(default_factory=dict)


class OracleError(RuntimeError):
    """Solver failed to reach the feasibility tolerance; best iterate attached."""

    def __init__(self, message: str, best: OracleResult):
        super().__init__(message)
        self.best = best


def offline_solve(
    problem: ProblemSpec,
    loss: ConvexFn,
    iters: int = 20000,
    tol: float = 1e-6,
    rho0: float = 1.0,
    max_ramps: int = 20,
) -> OracleResult:
    """Minimize the loss over the feasible set by exact penalty.

    Projected subgradient descent on F(x) = loss(x) + rho * sum_i [g_i(x)]_+
    inside the ball, with rho doubled until the returned point is feasible to
    `tol`. Stepsize c/sqrt(k), or 1/(H1 k) when the problem is strongly
    convex. Keeps the best iterate by penalized value and also considers the
    tail average of the second half, which is what makes tight tolerances
    reachable on the strongly convex problems. When the problem provides an
    exact feasibility projection it polishes the final point with it.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    gs = problem.gs
    dom = problem.dom
    R = dom.radius
    H1 = problem.H1

    def penalized(x, vals, rho):
        return loss.eval(x) + rho * float(np.maximum(vals, 0.0).sum())

    def penalty_subgrad(x, vals, rho):
        # no in-place add: a loss may hand back an array it keeps
        grad = np.asarray(loss.subgrad(x), dtype=float)
        for i in np.nonzero(vals > 0.0)[0]:
            grad = grad + rho * np.asarray(gs[i].subgrad(x), dtype=float)
        return grad

    # the constraints are evaluated once per iterate: the values feed both
    # its penalized value and the subgradient of the next step. Iterates are
    # never written in place, so best_x and x_start may share them.
    rho = rho0
    x_start = problem.x0()
    best_overall = None
    for ramp in range(max_ramps):
        x = x_start
        vals = problem.constraint_values(x)
        grad = penalty_subgrad(x, vals, rho)
        c = R / max(float(np.linalg.norm(grad)), 1e-12)
        best_x, best_val = x, penalized(x, vals, rho)
        tail_sum, tail_count = np.zeros_like(x), 0
        for k in range(1, iters + 1):
            step = (1.0 / (H1 * k)) if H1 else (c / math.sqrt(k))
            x = project_ball(x - step * grad, dom)
            vals = problem.constraint_values(x)
            val = penalized(x, vals, rho)
            if val < best_val:
                best_val, best_x = val, x
            if 2 * k > iters:
                tail_sum += x
                tail_count += 1
            grad = penalty_subgrad(x, vals, rho)
        if tail_count:
            x_tail = project_ball(tail_sum / tail_count, dom)
            val_tail = penalized(x_tail, problem.constraint_values(x_tail), rho)
            if val_tail < best_val:
                best_val, best_x = val_tail, x_tail

        candidate = best_x
        if problem.project_feasible is not None:
            polished = project_ball(problem.project_feasible(best_x), dom)
            val_polished = penalized(polished, problem.constraint_values(polished), rho)
            if val_polished <= best_val + abs(best_val) * 1e-9 + 1e-9:
                candidate = polished

        residual = float(np.maximum(problem.constraint_values(candidate), 0.0).max(initial=0.0))
        value = float(loss.eval(candidate))
        result = OracleResult(
            candidate, value, residual, {"rho": rho, "ramps": ramp + 1, "iters": iters}
        )
        if best_overall is None or residual < best_overall.residual:
            best_overall = result
        if residual <= tol:
            return result
        rho *= 2.0
        x_start = best_x  # warm start the next ramp

    raise OracleError(
        f"feasibility {best_overall.residual:.3e} > tol {tol:.3e} after {max_ramps} ramps",
        best_overall,
    )


def grid_oracle(
    problem: ProblemSpec,
    loss: ConvexFn,
    resolution: float,
) -> OracleResult:
    """Exhaustive search over a feasible grid inside the ball; n <= 3 only.

    Grid coordinates are -R + resolution * k, so halving the resolution keeps
    every coarse point (refinement can only improve the value). The grid is
    walked in blocks of whole slices along the first coordinate, about
    GRID_BLOCK points each (at least one slice), so memory stays bounded by
    the block and not the grid; the first minimiser in grid order wins ties.
    Feasibility is one ``values`` call of the problem's array form per block.
    """
    if problem.n > 3:
        raise ValueError(f"grid oracle limited to n <= 3, got n={problem.n}")
    if not (resolution > 0):
        raise ValueError("resolution must be positive")
    form = problem.array_form()
    R = problem.dom.radius
    steps = int(np.floor(2.0 * R / resolution)) + 1
    coords = -R + resolution * np.arange(steps)
    rows = max(1, GRID_BLOCK // steps ** (problem.n - 1))

    best_x, best_val, points = None, None, 0
    for start in range(0, steps, rows):
        grids = np.meshgrid(
            coords[start : start + rows], *([coords] * (problem.n - 1)), indexing="ij"
        )
        X = np.stack([g.ravel() for g in grids], axis=1)
        X = X[np.linalg.norm(X, axis=1) <= R]
        X = X[(form.values(X) <= 0.0).all(axis=1)]
        if len(X) == 0:
            continue

        fx = loss.eval_many(X) if loss.eval_many is not None else [loss.eval(x) for x in X]
        total = np.zeros(len(X)) + fx  # a -0.0 loss sums to +0.0, as it always has
        i = int(np.argmin(total))
        if best_val is None or total[i] < best_val:
            best_x, best_val = X[i].copy(), total[i]
        points += len(X)
    if best_x is None:
        raise ValueError("no feasible grid point at this resolution")
    return OracleResult(best_x, float(best_val), 0.0, {"points": points})


# ---------------------------------------------------------------------------
# Dykstra alternating projections onto the doubly stochastic polytope
# ---------------------------------------------------------------------------


def _proj_rows(X):
    return X - (X.sum(axis=1, keepdims=True) - 1.0) / X.shape[1]


def _proj_cols(X):
    return X - (X.sum(axis=0, keepdims=True) - 1.0) / X.shape[0]


def _proj_nonneg(X):
    return np.maximum(X, 0.0)


def project_birkhoff(M: np.ndarray, iters: int = 20000, tol: float = 1e-12) -> np.ndarray:
    """Euclidean projection of a square matrix onto the doubly stochastic set,
    by Dykstra's algorithm over {row sums 1}, {column sums 1}, {X >= 0}."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    X = M.copy()
    incs = [np.zeros_like(X) for _ in range(3)]
    projs = (_proj_rows, _proj_cols, _proj_nonneg)
    for _ in range(iters):
        X_prev = X
        for i, proj in enumerate(projs):
            Y = X + incs[i]
            X = proj(Y)
            incs[i] = Y - X
        if np.max(np.abs(X - X_prev)) < tol:
            break
    return X


def offline_value(
    problem: ProblemSpec, seed: int, T: int, iters: int = 20000, tol: float = 1e-6
) -> OracleResult:
    """Cumulative optimal loss sum_t f_t(x*) for a realized stream.

    Uses the problem's closed-form average loss, and the problem-specific
    exact solver when one exists (the matrix problem's optimum is the
    projection of the mean target onto the polytope); otherwise the penalty
    solver. The returned value is scaled back to the T-step sum.
    """
    fbar = problem.mean_loss(seed, T)
    if problem.offline_solution is not None:
        x_star = problem.offline_solution(seed, T)
        residual = float(np.maximum(problem.constraint_values(x_star), 0.0).max(initial=0.0))
        return OracleResult(x_star, T * fbar.eval(x_star), residual, {"solver": "structural"})
    res = offline_solve(problem, fbar, iters=iters, tol=tol)
    return OracleResult(res.x, T * fbar.eval(res.x), res.residual, res.info | {"solver": "penalty"})
