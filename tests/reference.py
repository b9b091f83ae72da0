"""Per-point reference math the tests check the library against.

The Lagrangian subgradient of one point, the max aggregation of a
constraint list, the closed-form Theorem 1 parameters, each variant's
stepsizes at one step and a whole run one point per step, all written on
ConvexFn closures one point at a time. The batched kernel
(``ocolc.algorithms._lagrangian_grad`` and ``advance``) and the stepsize
schedule compute the same quantities; ``tests/test_kernel.py`` and
``tests/test_algorithms.py`` compare them bit for bit.
``ClosureArrays`` is the array form of such closures, for the problems the
tests write by hand and for the closures they compare against.
``fd_grad`` is the central-difference gradient of one closure at one point.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from ocolc.algorithms import Schedule
from ocolc.core import ConvexFn, Vector, project_ball
from ocolc.problems import ArrayForm
from ocolc.validation import central_differences

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

    def params(self, seed, T, *_):
        # ``*_`` takes the start offset (always 0) that library versions
        # before the fixed-horizon kernel pass, so that the golden case set
        # also runs against them (CI's golden-vs-base job)
        fns = np.empty(T, dtype=object)
        fns[:] = self.losses(seed, T)
        return fns

    def loss_value(self, X, fns):
        return np.array([f.eval(x) for f, x in zip(fns, X)], dtype=float)

    def grad(self, X, fns):
        grad = np.array([np.asarray(f.subgrad(x), dtype=float) for f, x in zip(fns, X)])
        return grad.reshape(X.shape)

    def loss(self, X, fns):
        # written out because the ArrayForm of library versions before the
        # gradient-only step has no ``loss`` to inherit
        return self.loss_value(X, fns), self.grad(X, fns)

    def values(self, X):
        V = np.array([[g.eval(x) for g in self.gs] for x in X], dtype=float)
        return V.reshape(len(X), self.m)

    def jacobian(self, X):
        J = np.array([[np.asarray(g.subgrad(x), dtype=float) for g in self.gs] for x in X])
        return J.reshape(len(X), self.m, X.shape[1])


def fd_grad(f: ConvexFn, x: Vector, h: float = 1e-6) -> Vector:
    """Central-difference gradient of f at x: the library's batched
    ``central_differences`` on a one-row batch."""
    X = np.asarray(x, dtype=float)[None]
    return central_differences(lambda Y: np.array([[f.eval(y)] for y in Y]), X, h)[0, 0]


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
    f: ConvexFn, gs: Sequence[ConvexFn], x: Vector, lam: np.ndarray, clipped: bool = True
) -> Vector:
    """Primal subgradient of f(x) + sum_i lam_i * max(0, g_i(x)), or of the
    plain f(x) + sum_i lam_i * g_i(x) when not `clipped`.

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
            sub = clipped_subgrad(g, x) if clipped else np.asarray(g.subgrad(x), dtype=float)
            grad = grad + lam_i * sub
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


def scalar_steps(sched: Schedule, t: int) -> tuple:
    """(eta, mu, theta) of step t: the primal stepsize, the dual ascent step
    and the dual regularization, from the scalar formulas on the schedule's
    constants.

    strong-clipped-ogd: eta = 1/(H1 (t+1)), mu = eta, theta = eta (m+1) G^2.
    a-ogd: constant eta, mu = eta0 t^(beta-1), theta = theta0 t^(-beta).
    clipped-ogd and mahdavi-ogd: eta, eta and sigma eta.
    """
    cfg = sched.cfg
    if cfg.variant == "strong-clipped-ogd":
        eta = 1.0 / (sched.H1 * (t + 1))
        return eta, eta, eta * (sched.m_eff + 1) * sched.G**2
    if cfg.variant == "a-ogd":
        return sched.eta, sched.eta0 * t ** (cfg.beta - 1.0), sched.theta0 * t ** -cfg.beta
    return sched.eta, sched.eta, sched.sigma * sched.eta


# ----------------------------------------------------------------- runs


def point_constraints(form: ArrayForm) -> List[ConvexFn]:
    """The constraints of an array form as per-point closures."""
    return [
        ConvexFn(
            lambda x, i=i: float(form.values(x[None])[0, i]),
            lambda x, i=i: form.jacobian(x[None])[0, i],
        )
        for i in range(form.m)
    ]


def reference_run(problem, cfg, seed: int) -> tuple:
    """The (T, n) iterates and (T, k) duals of one run, one point per step.

    At step t the clipped variants set the dual to [g(x)]_+ / theta; x then
    moves along ``lagrangian_grad_x`` of the step's loss (clipped or plain,
    as the variant's Lagrangian) with stepsize eta and is projected by
    ``core.project_ball``; the baselines then ascend the dual,
    max(lam + mu (g(x) - theta lam), 0). The stepsizes are ``scalar_steps``.
    """
    sched = Schedule(problem, cfg)
    form = problem.arrays
    params = form.params(seed, cfg.T)
    closed = cfg.lagrangian == "clipped"
    gs = point_constraints(form)
    if cfg.aggregation == "max":
        gs = [max_aggregate(gs)]
    x, lam = problem.x0(), np.zeros(len(gs))
    xs, lams = np.empty((cfg.T, problem.n)), np.empty((cfg.T, len(gs)))
    for t in range(1, cfg.T + 1):
        eta, mu, theta = scalar_steps(sched, t)
        g = np.array([gi.eval(x) for gi in gs])
        if closed:
            lam = np.maximum(g, 0.0) / theta
        xs[t - 1], lams[t - 1] = x, lam
        fgrad = form.grad(x[None], params[t - 1 : t])[0]
        f = ConvexFn(lambda _: 0.0, lambda _: fgrad)
        x_next = project_ball(x - eta * lagrangian_grad_x(f, gs, x, lam, clipped=closed), problem.dom)
        if not closed:
            lam = np.maximum(lam + mu * (g - theta * lam), 0.0)
        x = x_next
    return xs, lams
