"""Per-point reference math the tests check the library against.

The Lagrangian subgradient of one point, the max aggregation of a
constraint list, the closed-form Theorem 1 parameters, each variant's
stepsizes at one step and a whole run one point per step, all written on
ConvexFn closures one point at a time. The batched kernel
(``ocolc.algorithms._lagrangian_grad`` and ``advance``) and the stepsize
schedule compute the same quantities; ``tests/test_kernel.py`` and
``tests/test_algorithms.py`` compare them bit for bit.
``ClosureProblem`` is a problem made of such closures, for the problems the
tests write by hand and for the closures they compare against.
``fd_grad`` is the central-difference gradient of one closure at one point.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ocolc.algorithms import Schedule
from ocolc.core import ConvexFn, Vector, project_ball
from ocolc.validation import central_differences

try:
    from ocolc.problems import Problem
except ImportError:
    # CI's golden-vs-base job runs this file under the base commit's library,
    # which may still have ProblemSpec, ArrayForm and BallDomain in place of
    # the one Problem class. There a closure problem is its own array form
    # and ProblemSpec at once. This branch goes once the base has Problem.
    from ocolc.core import BallDomain
    from ocolc.problems import ArrayForm

    class Problem(ArrayForm):
        def __init__(self, name, n, m, R, G, H1=None):
            self.name, self.n, self.m, self.R, self.G, self.H1 = name, n, m, R, G, H1
            self.arrays, self.dom = self, BallDomain(R, n)

        def x0(self):
            return np.zeros(self.n)


# ------------------------------------------------------ closure problems


def per_step(make_loss: Callable[[int, int], ConvexFn]) -> Callable[[int, int], List[ConvexFn]]:
    """The stream losses(seed, T) of a per-step loss make_loss(seed, t)."""
    return lambda seed, T: [make_loss(seed, t) for t in range(T)]


class ClosureProblem(Problem):
    """A problem made of per-point closures, evaluated row by row: a loss
    stream losses(seed, T) -> T ConvexFns (zero losses by default) and a
    constraint list gs. ``losses`` is that stream itself, in place of the
    one-row views a built-in gives. The loss parameters of a step are its
    ConvexFn. Results are reshaped so that an empty batch keeps its trailing axes.
    Streams built this way have no RNG, so determinism is trivial."""

    def __init__(
        self,
        n: int,
        gs: Sequence[ConvexFn],
        losses: Optional[Callable[[int, int], List[ConvexFn]]] = None,
        R: float = 1.0,
        G: float = 1.0,
        H1: Optional[float] = None,
        name: str = "inline",
    ):
        super().__init__(name, n, len(gs), R, G, H1)
        self.gs = list(gs)
        zero = ConvexFn(lambda x: 0.0, lambda x: np.zeros(n))
        self.losses = losses if losses is not None else lambda seed, T: [zero] * T

    def params(self, seed, T):
        fns = np.empty(T, dtype=object)
        fns[:] = self.losses(seed, T)
        return fns

    def loss_value(self, X, fns):
        return np.array([f.eval(x) for f, x in zip(fns, X)], dtype=float)

    def grad(self, X, fns):
        grad = np.array([np.asarray(f.subgrad(x), dtype=float) for f, x in zip(fns, X)])
        return grad.reshape(X.shape)

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


def point_constraints(problem) -> List[ConvexFn]:
    """The constraints of a problem as per-point closures."""
    return [
        ConvexFn(
            lambda x, i=i: float(problem.values(x[None])[0, i]),
            lambda x, i=i: problem.jacobian(x[None])[0, i],
        )
        for i in range(problem.m)
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
    params = problem.params(seed, cfg.T)
    closed = cfg.lagrangian == "clipped"
    gs = point_constraints(problem)
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
        fgrad = problem.grad(x[None], params[t - 1 : t])[0]
        f = ConvexFn(lambda _: 0.0, lambda _: fgrad)
        x_next = project_ball(x - eta * lagrangian_grad_x(f, gs, x, lam, clipped=closed), problem.R)
        if not closed:
            lam = np.maximum(lam + mu * (g - theta * lam), 0.0)
        x = x_next
    return xs, lams
