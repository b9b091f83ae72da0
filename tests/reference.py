"""Per-point reference math the tests check the library against.

The Lagrangian subgradient of one point, the max and log-sum-exp
aggregations of a constraint list, and the closed-form Theorem 1
parameters, all written on ConvexFn closures one point at a time. The
batched kernel (``ocolc.algorithms._lagrangian_grad``) and the stepsize
schedule compute the same quantities; ``tests/test_kernel.py`` compares them
bit for bit. ``ClosureArrays`` is the array form of such closures, for the
problems the tests write by hand and for the closures they compare against.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from ocolc.core import ConvexFn, Vector
from ocolc.problems import ArrayForm

# ------------------------------------------------------ closure problems


class ClosureArrays(ArrayForm):
    """The array form of per-point closures, evaluated row by row: a loss
    stream losses(seed, T) -> T ConvexFns and a constraint list gs. The loss
    parameters of a step are its ConvexFn. Results are reshaped so that an
    empty batch keeps its trailing axes."""

    def __init__(self, gs: Sequence[ConvexFn], losses: Callable[[int, int], List[ConvexFn]]):
        self.gs = list(gs)
        self.m = len(self.gs)
        self.losses = losses

    def params(self, seed, stop, start=0):
        fns = np.empty(stop - start, dtype=object)
        fns[:] = self.losses(seed, stop)[start:]
        return fns

    def loss(self, X, fns):
        fx = np.array([f.eval(x) for f, x in zip(fns, X)], dtype=float)
        grad = np.array([np.asarray(f.subgrad(x), dtype=float) for f, x in zip(fns, X)])
        return fx, grad.reshape(X.shape)

    def values(self, X):
        V = np.array([[g.eval(x) for g in self.gs] for x in X], dtype=float)
        return V.reshape(len(X), self.m)

    def jacobian(self, X):
        J = np.array([[np.asarray(g.subgrad(x), dtype=float) for g in self.gs] for x in X])
        return J.reshape(len(X), self.m, X.shape[1])


# ------------------------------------------------------------- clipping


def clip_pos(v: float) -> float:
    """max(0, v), the positive part."""
    return v if v > 0.0 else 0.0


def clipped_subgrad(g: ConvexFn, x: Vector) -> Vector:
    """Subgradient of the clipped constraint max(0, g(.)) at x.

    Zero whenever g(x) <= 0, otherwise a subgradient of g. The zero branch
    returns a fresh zero vector of matching shape.
    """
    if g.eval(x) <= 0.0:
        return np.zeros_like(x, dtype=float)
    return g.subgrad(x)


def lagrangian_grad_x(
    f: ConvexFn, gs: Sequence[ConvexFn], x: Vector, lam: np.ndarray
) -> Vector:
    """Primal subgradient of f(x) + sum_i lam_i * max(0, g_i(x)).

    lam must be elementwise nonnegative; a negative multiplier means the
    caller's dual update is broken, so it is an error rather than a clamp.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (len(gs),):
        raise ValueError(f"expected {len(gs)} multipliers, got shape {lam.shape}")
    if np.any(lam < 0):
        raise ValueError("negative Lagrange multiplier")
    grad = np.asarray(f.subgrad(x), dtype=float)
    for lam_i, g in zip(lam, gs):
        if lam_i > 0.0:
            grad = grad + lam_i * clipped_subgrad(g, x)
    return grad


# ---------------------------------------------------------- aggregation


def _values(gs: Sequence[ConvexFn], x: Vector) -> np.ndarray:
    return np.array([g.eval(x) for g in gs], dtype=float)


def max_aggregate(gs: Sequence[ConvexFn]) -> ConvexFn:
    """g(x) = max_i g_i(x); the subgradient comes from the lowest-index argmax."""
    if len(gs) == 0:
        raise ValueError("cannot aggregate an empty constraint list")

    def ev(x):
        return float(np.max(_values(gs, x)))

    def sg(x):
        vals = _values(gs, x)
        # np.argmax already breaks ties toward the lowest index
        return gs[int(np.argmax(vals))].subgrad(x)

    return ConvexFn(ev, sg)


def logsumexp_aggregate(gs: Sequence[ConvexFn]) -> ConvexFn:
    """Smooth upper bound g(x) = log sum_i exp g_i(x).

    Evaluation shifts by the max before exponentiating so large constraint
    values on the ball boundary cannot overflow. The subgradient is the
    softmax-weighted combination of the member subgradients.
    """
    if len(gs) == 0:
        raise ValueError("cannot aggregate an empty constraint list")

    def ev(x):
        vals = _values(gs, x)
        top = float(np.max(vals))
        return top + float(np.log(np.sum(np.exp(vals - top))))

    def sg(x):
        vals = _values(gs, x)
        w = np.exp(vals - np.max(vals))
        w /= w.sum()
        out = np.zeros_like(np.asarray(x, dtype=float))
        for w_i, g in zip(w, gs):
            if w_i > 0.0:
                out += w_i * np.asarray(g.subgrad(x), dtype=float)
        return out

    return ConvexFn(ev, sg)


# ------------------------------------------------------------ stepsizes


def theorem1_params(m: int, G: float, R: float, alpha: float, T: int) -> tuple:
    """Closed-form (sigma, eta) for the balanced convex case.

    sigma = (m+1) G^2 / (2 (1-alpha)),  eta = 1 / (G sqrt((m+1) R T)).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if m < 1 or G <= 0 or R <= 0 or T < 1:
        raise ValueError("m, G, R, T must be positive")
    sigma = (m + 1) * G * G / (2.0 * (1.0 - alpha))
    eta = 1.0 / (G * np.sqrt((m + 1) * R * T))
    return sigma, float(eta)
