"""Offline solvers for the regret comparator x* = argmin over S of the
cumulative loss, with brute-force validators at tiny scale."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConvexFn, project_ball


# points per grid_oracle block: a few MiB of work arrays at n <= 3 (the
# block's ball mask and squares, and its inside points as (n, N) and (N, n))
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
    problem,
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
    exact feasibility projection it polishes the final point with it. The
    constraints are evaluated with one ``values`` call of the problem per
    iterate, and one ``jacobian`` call at an iterate that violates any.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    R, H1 = problem.R, problem.H1

    def values(x):
        return problem.values(x[None])[0]

    def penalized(x, vals, rho):
        return loss.eval(x) + rho * float(np.maximum(vals, 0.0).sum())

    def penalty_subgrad(x, vals, rho):
        # no in-place add: a loss may hand back an array it keeps
        grad = np.asarray(loss.subgrad(x), dtype=float)
        violated = np.nonzero(vals > 0.0)[0]
        if violated.size:
            J = problem.jacobian(x[None])[0]
            for i in violated:
                grad = grad + rho * J[i]
        return grad

    # the constraints are evaluated once per iterate: the values feed both
    # its penalized value and the subgradient of the next step. Iterates are
    # never written in place, so best_x and x_start may share them.
    rho = rho0
    x_start = problem.x0()
    best_overall = None
    for ramp in range(max_ramps):
        x = x_start
        vals = values(x)
        grad = penalty_subgrad(x, vals, rho)
        c = R / max(float(np.linalg.norm(grad)), 1e-12)
        best_x, best_val = x, penalized(x, vals, rho)
        tail_sum, tail_count = np.zeros_like(x), 0
        for k in range(1, iters + 1):
            step = (1.0 / (H1 * k)) if H1 else (c / math.sqrt(k))
            x = project_ball(x - step * grad, R)
            vals = values(x)
            val = penalized(x, vals, rho)
            if val < best_val:
                best_val, best_x = val, x
            if 2 * k > iters:
                tail_sum += x
                tail_count += 1
            grad = penalty_subgrad(x, vals, rho)
        if tail_count:
            x_tail = project_ball(tail_sum / tail_count, R)
            val_tail = penalized(x_tail, values(x_tail), rho)
            if val_tail < best_val:
                best_val, best_x = val_tail, x_tail

        candidate = best_x
        if problem.project_feasible is not None:
            polished = project_ball(problem.project_feasible(best_x), R)
            val_polished = penalized(polished, values(polished), rho)
            if val_polished <= best_val + abs(best_val) * 1e-9 + 1e-9:
                candidate = polished

        residual = float(np.maximum(values(candidate), 0.0).max(initial=0.0))
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


def _in_ball(axes, R: float) -> np.ndarray:
    """sqrt((x0^2 + x1^2) + x2^2) <= R, broadcast over the coordinate arrays
    `axes`: the order in which ``np.linalg.norm(X, axis=1)`` sums a row of X,
    so that the same points pass."""
    squares = axes[0] * axes[0]
    for a in axes[1:]:
        squares = squares + a * a
    return np.sqrt(squares) <= R


def grid_oracle(
    problem,
    loss: ConvexFn,
    resolution: float,
) -> OracleResult:
    """Exhaustive search over a feasible grid inside the ball; n <= 3 only.

    Grid coordinates are -R + resolution * k, so halving the resolution keeps
    every coarse point (refinement can only improve the value). The grid is
    walked in blocks of whole slices along the first coordinate, about
    GRID_BLOCK points each (at least one slice), so memory stays bounded by
    the block and not the grid; the first minimiser in grid order wins ties.

    Each block is tested against the ball on its sparse coordinate axes, by
    summing the squares of the axes in broadcast (``_in_ball``), and the
    points inside are gathered coordinate-major, as an (n, N) array, so that
    no step reduces along the short n-wide axis. Feasibility is one
    ``values`` call of the problem per block, on the transposed (N, n)
    view; the feasible points reach the loss as C-contiguous rows.
    """
    if problem.n > 3:
        raise ValueError(f"grid oracle limited to n <= 3, got n={problem.n}")
    if not (resolution > 0):
        raise ValueError("resolution must be positive")
    R = problem.R
    steps = int(np.floor(2.0 * R / resolution)) + 1
    coords = -R + resolution * np.arange(steps)
    rows = max(1, GRID_BLOCK // steps ** (problem.n - 1))

    best_x, best_val, points = None, None, 0
    for start in range(0, steps, rows):
        axes = np.meshgrid(
            coords[start : start + rows], *([coords] * (problem.n - 1)), indexing="ij", sparse=True
        )
        inside = _in_ball(axes, R)
        P = np.stack([np.broadcast_to(a, inside.shape)[inside] for a in axes])
        keep = (problem.values(P.T) <= 0.0).all(axis=1)
        X = np.stack([p[keep] for p in P], axis=1)
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


def birkhoff_certificate(M: np.ndarray, X: np.ndarray) -> tuple[float, float]:
    """(gap, residual) of X as the projection of M onto the doubly
    stochastic set.

    The dual of min 0.5 ||X - M||^2 over {X 1 = 1, X^T 1 = 1, X >= 0} in the
    row and column multipliers alpha, beta has the closed-form inner
    minimiser Z = max(M - alpha 1^T - 1 beta^T, 0). alpha and beta are
    recovered by least squares from stationarity on the support of X,
    alpha_i + beta_j = M_ij - X_ij where X_ij > 0. The gap is the primal
    value at X minus the dual value there: at least 0 for a feasible X, and
    an upper bound on how far X is from optimal. The residual is the largest
    row- or column-sum error or negative entry of X.
    """
    M = np.asarray(M, dtype=float)
    X = np.asarray(X, dtype=float)
    d = M.shape[0]
    rows, cols = np.nonzero(X > 0.0)
    A = np.zeros((rows.size, 2 * d))
    A[np.arange(rows.size), rows] = 1.0
    A[np.arange(rows.size), d + cols] = 1.0
    ab = np.linalg.lstsq(A, M[rows, cols] - X[rows, cols], rcond=None)[0]
    alpha, beta = ab[:d], ab[d:]
    S = alpha[:, None] + beta[None, :]
    Z = np.maximum(M - S, 0.0)
    dual = 0.5 * np.sum((Z - M) ** 2) + np.sum(S * Z) - alpha.sum() - beta.sum()
    gap = float(0.5 * np.sum((X - M) ** 2) - dual)
    residual = max(
        float(np.abs(X.sum(axis=1) - 1.0).max()),
        float(np.abs(X.sum(axis=0) - 1.0).max()),
        float(-X.min()),
        0.0,
    )
    return gap, residual


# ---------------------------------------------------------------------------
# exact dispatch optimum: a one-dimensional dual in the emission multiplier
# ---------------------------------------------------------------------------

# bound on the certified answer's constraint residual, and, relative to the
# size of the terms they are made of, on its stationarity and complementary
# slackness
KKT_TOL = 1e-9


def _emission(p, x) -> float:
    # the arithmetic of the emission entry of DispatchProblem.values, so that
    # emission(x) <= e_max holds exactly when that entry is <= 0
    return float(p.d_coef @ (x * x) + p.e_coef @ x)


def _coupling_root(p, d_bar: float, k: np.ndarray, u: np.ndarray) -> float:
    """Root nu of h(nu) = nu - 2 xi (sum x(nu) - d_bar), where
    x_i(nu) = clip(-(u_i + nu) / k_i, 0, x_max_i).

    h increases, piecewise linearly, with kinks where an x_i meets a bound;
    the root is read off exactly on the piece between the two sorted kinks
    that bracket it.
    """
    kinks = np.sort(np.concatenate([-u - k * p.x_max, -u]))
    h = kinks - 2.0 * p.xi * (np.clip(-(u + kinks[:, None]) / k, 0.0, p.x_max).sum(axis=1) - d_bar)
    j = int(np.searchsorted(h, 0.0))  # h[j - 1] < 0 <= h[j]
    if j == 0:  # every x_i at x_max_i: h has slope 1
        return float(kinks[0] - h[0])
    if j == kinks.size:  # every x_i at 0: slope 1 again
        return float(kinks[-1] - h[-1])
    return float(kinks[j - 1] - h[j - 1] * (kinks[j] - kinks[j - 1]) / (h[j] - h[j - 1]))


def dispatch_argmin(p, d_bar: float, mu: float) -> np.ndarray:
    """Minimiser over the box 0 <= x <= x_max of the dispatch mean loss (mean
    demand d_bar) plus mu times the emission; needs every a_i > 0.

    Stationarity gives x_i = clip(-(b_i + mu e_i + nu) / k_i, 0, x_max_i)
    with k_i = a_i + 2 mu c_i and nu = 2 xi (sum x - d_bar), which
    ``_coupling_root`` solves (nu = 0 when xi = 0).
    """
    k = p.a + 2.0 * mu * p.d_coef
    u = p.b + mu * p.e_coef
    nu = _coupling_root(p, d_bar, k, u) if p.xi != 0.0 else 0.0
    return np.clip(-(u + nu) / k, 0.0, p.x_max)


def dispatch_kkt(p, d_bar: float):
    """(x, mu): the dispatch optimum and its emission multiplier.

    The emission of the Lagrangian minimiser does not increase with mu. When
    the cap is slack at mu = 0, mu = 0. Otherwise mu is bracketed by
    repeatedly multiplying it by 2, and the bracket halved until its midpoint
    equals an end; the answer is the minimiser at the feasible end.
    """
    x = dispatch_argmin(p, d_bar, 0.0)
    if _emission(p, x) <= p.e_max:
        return x, 0.0
    if not p.e_max > 0.0:  # x = 0 is the least emission: no interior point
        raise OracleError(
            f"emission cap {p.e_max} leaves no finite multiplier",
            OracleResult(x, math.nan, _emission(p, x) - p.e_max),
        )
    lo, hi = 0.0, 1.0
    x_hi = dispatch_argmin(p, d_bar, hi)
    while _emission(p, x_hi) > p.e_max:
        lo, hi = hi, 2.0 * hi
        x_hi = dispatch_argmin(p, d_bar, hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        x_mid = dispatch_argmin(p, d_bar, mid)
        if _emission(p, x_mid) <= p.e_max:
            hi, x_hi = mid, x_mid
        else:
            lo = mid
    return x_hi, hi


def dispatch_optimum(p, fbar: ConvexFn, d_bar: float) -> np.ndarray:
    """Exact minimiser of the dispatch mean loss `fbar` (mean demand d_bar)
    over the box and the emission cap, by ``dispatch_kkt``; needs every
    a_i > 0.

    The answer is certified here by the KKT conditions of the convex
    problem, checked at the returned x and mu >= 0 with the gradient of
    `fbar` itself: a constraint residual of at most KKT_TOL; stationarity,
    the projected gradient of the Lagrangian L(., mu) = f + mu (emission -
    e_max) over the box, at most KKT_TOL times the size of the terms that
    gradient sums; and complementary slackness mu (e_max - emission) at
    most KKT_TOL * max(1, |f(x)|). Raises OracleError otherwise.
    """
    x, mu = dispatch_kkt(p, d_bar)
    f = fbar.eval(x)
    emission = _emission(p, x)
    residual = max(emission - p.e_max, float(np.max(-x)), float(np.max(x - p.x_max)), 0.0)
    grad = fbar.subgrad(x) + mu * (2.0 * p.d_coef * x + p.e_coef)
    stationarity = float(np.max(np.abs(x - np.clip(x - grad, 0.0, p.x_max))))
    size = max(
        1.0,
        float(np.max(np.abs(p.a * x) + np.abs(p.b) + mu * np.abs(2.0 * p.d_coef * x + p.e_coef))),
        2.0 * p.xi * (abs(float(x.sum())) + abs(d_bar)),
    )
    slackness = mu * abs(p.e_max - emission)
    if not (
        mu >= 0.0
        and residual <= KKT_TOL
        and stationarity <= KKT_TOL * size
        and slackness <= KKT_TOL * max(1.0, abs(f))
    ):
        raise OracleError(
            f"dispatch certificate failed at mu={mu!r}: residual {residual:.3e}, "
            f"stationarity {stationarity:.3e} (size {size:.3e}), slackness {slackness:.3e}",
            OracleResult(x, f, residual),
        )
    return x


def offline_value(
    problem, seed: int, T: int, iters: int = 20000, tol: float = 1e-6
) -> OracleResult:
    """Cumulative optimal loss sum_t f_t(x*) for a realized stream.

    Uses the problem's closed-form average loss, and the exact minimiser it
    carries when one is known (the toy vertex, the projection of the mean
    target onto the polytope, the dispatch KKT point); otherwise the penalty
    solver. The returned value is scaled back to the T-step sum.
    """
    fbar = problem.mean_loss(seed, T)
    x_star = fbar.argmin
    if x_star is not None:
        residual = float(np.maximum(problem.values(x_star[None]), 0.0).max(initial=0.0))
        return OracleResult(x_star, T * fbar.eval(x_star), residual, {"solver": "structural"})
    res = offline_solve(problem, fbar, iters=iters, tol=tol)
    return OracleResult(res.x, T * fbar.eval(res.x), res.residual, res.info | {"solver": "penalty"})
