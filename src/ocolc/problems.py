"""The three benchmark problems as seeded loss streams with analytic constants.

Each problem carries its constraints, the ball radius R, the Lipschitz
bound G (a priori, computed over the whole ball, since the stepsize formulas
need it before any data is seen), and optionally the strong-convexity
parameter H1.

Randomness: every stream is a pure function of (seed, t). Generators are
derived through one splitting rule, ``SeedSequence((seed, stream_id))``, and
consume a fixed number of variates per step, so the loss at step t does not
depend on the horizon it was generated for.

A problem is one object, a ``Problem``, which the batched run kernel, the
oracles and the acceptance checks read: loss parameters indexed by t, and
losses, constraint values and constraint subgradients evaluated over a
(B, n) batch of points in one call. ``loss_value`` and ``grad`` are the only
definition of a per-step loss, and ``values`` and ``jacobian`` the only
definition of the constraints. ``mean_loss`` gives the closed-form average
of the T losses, carrying its exact minimiser over the feasible set where
one is known. ``losses`` and ``constraint_values`` are one-row views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import oracle
from .core import ConvexFn, Vector

_STREAM_LOSS = 0
_STREAM_DEMAND = 1


def derive_seed(seed: int, stream: int) -> int:
    """Map (seed, stream-id) to an independent 64-bit seed.

    The single splitting rule for the whole package; sweep cells and loss
    streams both go through here so concurrent runs stay reproducible.
    """
    return int(np.random.SeedSequence((seed, stream)).generate_state(1, np.uint64)[0])


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


class Problem:
    """A constrained online problem over a batch: row b of every (B, ...)
    array is one cell. Decisions lie in the ball of radius R around 0.

    Subclasses provide:

    * ``params(seed, T)``: loss parameters of steps 0..T-1, one row per
      step, each a pure function of (seed, t);
    * ``loss_value(X, P)``: loss values (B,) at the points X (B, n), row b
      taking its parameters from P[b];
    * ``grad(X, P)``: loss gradients (B, n), likewise;
    * ``values(X)``: constraint values (B, m);
    * ``jacobian(X)``: constraint subgradient rows (B, m, n);
    * ``mean_loss(seed, T)``: the average of the T losses as a ConvexFn,
      whose ``argmin`` is its exact minimiser over the feasible set, or
      None where none is known;
    * ``A``: the constant (m, n) jacobian rows of affine constraints, or
      None (the default) when the jacobian depends on X;
    * ``project_feasible(x)``: an exact projection onto the feasible set,
      or None (the default).

    The run kernel calls only ``grad``, ``values`` and, unless ``A`` is
    set, ``jacobian`` in its step loop. After the loop it calls
    ``loss_value`` and ``values`` once per trace, over all of the trace's
    iterates. ``loss`` returns both loss parts, for callers that read them
    together.

    Each row's result depends on that row alone, bit for bit, whatever
    the batch around it. Per-row dot products go through ``np.vecdot``,
    which matches ``c @ x``, where ``(C * X).sum(1)`` does not, so that a
    row equals the per-point expression bit for bit. ``values`` gives the
    same bits for any memory layout of a (B, n) X: C-contiguous rows, or
    the transposed view of a coordinate-major (n, B) array, which
    ``grid_oracle`` passes.
    """

    A = None
    project_feasible = None

    def __init__(self, name: str, n: int, m: int, R: float, G: float, H1: Optional[float] = None):
        if not (R > 0):
            raise ValueError(f"ball radius must be positive, got {R}")
        self.name, self.n, self.m, self.R, self.G, self.H1 = name, n, m, R, G, H1

    def x0(self) -> Vector:
        return np.zeros(self.n)

    def loss(self, X, P):
        """Loss values (B,) and gradients (B, n) at the points X."""
        return self.loss_value(X, P), self.grad(X, P)

    # losses and constraint_values have no reader in this package; they stay
    # because the benchmark's tracer rebinds them by name on every problem
    def losses(self, seed: int, T: int) -> List[ConvexFn]:
        """The T losses of a stream, as one-row views of ``loss_value`` and
        ``grad``."""
        P = self.params(seed, T)
        return [self._loss_view(P[t : t + 1]) for t in range(T)]

    def constraint_values(self, x: Vector) -> np.ndarray:
        """All m constraint values at x: one row of ``values``."""
        return self.values(x[None])[0]

    def _loss_view(self, P) -> ConvexFn:
        """The loss on a one-row batch with the one parameter row P."""
        return ConvexFn(
            lambda x: float(self.loss_value(x[None], P)[0]), lambda x: self.grad(x[None], P)[0]
        )


def _stream_draws(seed: int, T: int, width: int) -> np.ndarray:
    """The loss stream's (T, width) uniform draws, width per step."""
    return _rng(seed, _STREAM_LOSS).uniform(size=(T, width))


# ---------------------------------------------------------------------------
# toy: 2-D linear losses inside the l1 ball
# ---------------------------------------------------------------------------


def toy_raw_costs(seed: int, T: int) -> np.ndarray:
    """Cost vectors of steps 0..T-1 before normalization: uniform on
    [0, 1.2] x [0, 1]."""
    return _stream_draws(seed, T, 2) * np.array([1.2, 1.0])


def toy_costs(seed: int, T: int) -> np.ndarray:
    """Unit-norm cost vectors c_t of steps 0..T-1, row t depending only on
    (seed, t)."""
    raw = toy_raw_costs(seed, T)
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def project_l1_ball(x: Vector, radius: float = 1.0) -> Vector:
    """Euclidean projection onto {x : ||x||_1 <= radius} (sort-based)."""
    a = np.abs(x)
    if a.sum() <= radius:
        return np.asarray(x, dtype=float)
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u > (css - radius) / np.arange(1, a.size + 1))[0][-1]
    theta = (css[rho] - radius) / (rho + 1)
    return np.sign(x) * np.maximum(a - theta, 0.0)


class ToyProblem(Problem):
    """min sum_t c_t.x  s.t.  |x1| + |x2| - l1_radius <= 0, decisions in the
    unit ball. The parameters are the cost vectors c_t.

    The l1 unit ball sits inside the l2 unit ball, so R = 1. The constraint
    subgradient is the sign vector (norm at most sqrt(2)), the losses have
    unit norm, hence G = sqrt(2). With l1_radius > sqrt(2) the constraint
    never binds inside the ball.
    """

    def __init__(self, l1_radius: float = 1.0):
        super().__init__("toy", n=2, m=1, R=1.0, G=float(np.sqrt(2.0)))
        self.l1_radius = l1_radius

    def params(self, seed, T):
        return toy_costs(seed, T)

    def loss_value(self, X, C):
        return np.vecdot(X, C)

    def grad(self, X, C):
        return C

    def values(self, X):
        return (np.abs(X).sum(axis=1) - self.l1_radius)[:, None]

    def jacobian(self, X):
        return np.sign(X)[:, None, :]

    def mean_loss(self, seed, T):
        cbar = toy_costs(seed, T).mean(axis=0)
        x_star = None
        if self.l1_radius <= 1.0:
            # linear loss over an l1 ball inside the unit ball: the optimum is
            # the vertex -sign(c_j) r e_j at the largest |mean cost| coordinate
            j = int(np.argmax(np.abs(cbar)))
            x_star = np.zeros(2)
            x_star[j] = -np.sign(cbar[j]) * self.l1_radius
        return ConvexFn(lambda x: float(cbar @ x), lambda x: cbar, eval_many=lambda X: X @ cbar, argmin=x_star)

    def project_feasible(self, x):
        return project_l1_ball(x, self.l1_radius)


def toy_problem(l1_radius: float = 1.0) -> ToyProblem:
    return ToyProblem(l1_radius)


# ---------------------------------------------------------------------------
# doubly stochastic matrix approximation
# ---------------------------------------------------------------------------


def permutation_batch(seed: int, T: int, d: int) -> np.ndarray:
    """Random permutations of range(d) for steps 0..T-1, via argsort of iid
    uniforms.

    argsort keeps per-step variate consumption fixed at d, preserving the
    (seed, t) purity that rejection-sampling shuffles would break.
    """
    return np.argsort(_stream_draws(seed, T, d), axis=1)


class DoublyStochasticProblem(Problem):
    """Track random permutation matrices with a doubly stochastic X.

    f_t(X) = 0.5 ||Y_t - X||_F^2 over flattened d x d matrices. The
    parameters are the flat positions of the ones of each target Y_t.
    Row/column sums are written as <=/>= inequality pairs and entrywise
    nonnegativity, m = 4d + d^2 in total: affine, with constant subgradient
    rows A (row sums <= 1 and >= 1, column sums <= 1 and >= 1, then
    x >= 0). A column sum adds the rows of the matrix one after another.
    Any doubly stochastic matrix has Frobenius norm at most sqrt(d); the
    ball radius is padded to d.
    """

    def __init__(self, d: int = 5):
        if d < 2:
            raise ValueError(f"need d >= 2, got d={d}")
        n = d * d
        rows, cols = np.repeat(np.eye(d), d, axis=1), np.tile(np.eye(d), d)  # (d, n)
        # 0.0 - M negates the ones and keeps the zeros +0.0
        self.A = np.concatenate([rows, 0.0 - rows, cols, 0.0 - cols, 0.0 - np.eye(n)])
        self.A.flags.writeable = False
        # sup ||X - Y_t|| <= R + sqrt(d); constraint grads <= sqrt(d)
        super().__init__("doubly-stochastic", n, len(self.A), R=float(d), G=float(d + np.sqrt(d)), H1=1.0)
        self.d = d
        self.offsets = np.arange(d) * d

    def params(self, seed, T):
        return permutation_batch(seed, T, self.d) + self.offsets

    def loss_value(self, X, P):
        return 0.5 * (self.grad(X, P) ** 2).sum(axis=1)

    def grad(self, X, P):
        # X - Y_t: the ones of Y_t sit at the row's positions P
        G = X.copy()
        G[np.arange(len(X))[:, None], P] -= 1.0
        return G

    def values(self, X):
        X3 = X.reshape(len(X), self.d, self.d)
        rows = X3.sum(axis=2)
        cols = X3.sum(axis=1)
        return np.concatenate([rows - 1.0, 1.0 - rows, cols - 1.0, 1.0 - cols, -X], axis=1)

    def jacobian(self, X):
        return np.broadcast_to(self.A, (len(X),) + self.A.shape)

    def mean_loss(self, seed, T):
        d = self.d
        perms = permutation_batch(seed, T, d)
        ybar = np.zeros((d, d))
        for j in range(d):
            counts = np.bincount(perms[:, j], minlength=d)
            ybar[j] = counts / T
        # the minimiser is the polytope projection of the mean target
        x_star = oracle.project_birkhoff(ybar).ravel()
        ybar = ybar.ravel()
        # mean of 0.5||Y_t - X||^2 = 0.5||X||^2 - <Ybar, X> + d/2
        return ConvexFn(
            lambda x: float(0.5 * np.sum(x * x) - ybar @ x + d / 2.0), lambda x: x - ybar, argmin=x_star
        )

    def project_feasible(self, x):
        return oracle.project_birkhoff(x.reshape(self.d, self.d)).ravel()


def doubly_stochastic_problem(d: int = 5) -> DoublyStochasticProblem:
    return DoublyStochasticProblem(d)


# ---------------------------------------------------------------------------
# economic dispatch
# ---------------------------------------------------------------------------


@dataclass
class DispatchParams:
    """Generator cost/emission coefficients and the demand series (MW)."""

    a: np.ndarray = field(default_factory=lambda: np.array([0.2, 0.12, 0.14]))
    b: np.ndarray = field(default_factory=lambda: np.array([1.5, 1.0, 0.6]))
    d_coef: np.ndarray = field(default_factory=lambda: np.array([0.26, 0.38, 0.37]))
    e_coef: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.0]))
    e_max: float = 100.0
    xi: float = 0.5
    x_max: np.ndarray = field(default_factory=lambda: np.array([20.0, 15.0, 18.0]))
    demand: Optional[np.ndarray] = None  # defaults to the synthetic fixture
    demand_rescale: float = 1.0

    def __post_init__(self):
        for name in ("a", "b", "d_coef", "e_coef", "x_max"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if np.any(arr < 0):
                raise ValueError(f"{name} must be nonnegative")
        if self.demand is None:
            self.demand = synthetic_demand()
        self.demand = np.asarray(self.demand, dtype=float) * self.demand_rescale
        if self.demand.size == 0:
            raise ValueError("demand series is empty")
        if not np.all((self.demand > 0) & (self.demand < np.inf)):
            raise ValueError("demand must be positive and finite")


# the synthetic demand fixture: ten days of 5-minute slots (MW)
_DEMAND_DAYS, _DEMAND_SLOTS_PER_DAY, _DEMAND_SEED = 10, 288, 0
_DEMAND_BASE, _DEMAND_AMPLITUDE, _DEMAND_NOISE, _DEMAND_FLOOR = 46.0, 9.0, 1.5, 5.0


def synthetic_demand() -> np.ndarray:
    """Stand-in for the 5-minute interval demand feed: diurnal sinusoid + noise.

    Scaled so magnitudes suit the default generator capacities; real data goes
    through load_demand_csv with a rescale factor instead.
    """
    T = _DEMAND_DAYS * _DEMAND_SLOTS_PER_DAY
    t = np.arange(T)
    phase = 2.0 * np.pi * (t % _DEMAND_SLOTS_PER_DAY) / _DEMAND_SLOTS_PER_DAY
    rng = _rng(_DEMAND_SEED, _STREAM_DEMAND)
    noise = _DEMAND_NOISE * rng.standard_normal(T)
    series = _DEMAND_BASE + _DEMAND_AMPLITUDE * np.sin(phase - 0.5 * np.pi) + noise
    return np.maximum(series, _DEMAND_FLOOR)


def load_demand_csv(path) -> np.ndarray:
    """Read a demand series: comma-separated, optional header, demand in the
    last column. Malformed rows and non-finite values are reported with their
    1-based line number."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) > 2:
                raise ValueError(f"line {lineno}: expected at most 2 columns, got {len(fields)}")
            raw = fields[-1].strip()
            try:
                value = float(raw)
            except ValueError:
                if lineno == 1:  # optional header
                    continue
                raise ValueError(f"line {lineno}: non-numeric demand {raw!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"line {lineno}: non-finite demand {raw!r}")
            values.append(value)
    if not values:
        raise ValueError(f"no demand values in {path}")
    return np.array(values)


class DispatchProblem(Problem):
    """Three-generator economic dispatch with an emission cap and box limits.

    f_t(x) = sum_i (0.5 a_i x_i^2 + b_i x_i) + xi (sum_i x_i - demand_t)^2;
    the parameters are the demand of each step. Constraints: total emission
    <= e_max, then x >= 0, then x <= x_max, all fed to the Lagrangian as
    ordinary g_i (only the ball is hard). Demand repeats cyclically when the
    horizon exceeds the series length. With every a_i > 0 the mean loss's
    minimiser is exact (``oracle.dispatch_optimum``).
    """

    def __init__(self, params: Optional[DispatchParams] = None):
        p = self.p = params if params is not None else DispatchParams()
        n = p.x_max.size
        R = 1.1 * float(np.linalg.norm(p.x_max))
        # gradient of f_t: a*x + b + 2 xi (sum x - d_t) * ones, bounded over the ball
        L_f = (
            float(p.a.max()) * R
            + float(np.linalg.norm(p.b))
            + 2.0 * p.xi * np.sqrt(n) * (np.sqrt(n) * R + float(p.demand.max()))
        )
        L_g = max(2.0 * float(p.d_coef.max()) * R + float(np.linalg.norm(p.e_coef)), 1.0)
        # the xi coupling adds a PSD term on top of H1
        super().__init__("dispatch", n, 1 + 2 * n, R, float(max(L_f, L_g)), H1=float(p.a.min()))
        self.half_a = 0.5 * p.a
        self.two_d = 2.0 * p.d_coef
        eye = np.eye(n)
        self.box = np.concatenate([0.0 - eye, eye])  # constant rows of -x <= 0, x <= x_max

    def params(self, seed, T):
        return self.p.demand[np.arange(T) % self.p.demand.size]

    @staticmethod
    def _residual(X, demand):
        """Total output minus demand, (B,)."""
        return X.sum(axis=1) - demand

    def loss_value(self, X, demand):
        p = self.p
        # float_power is the scalar power the closures apply to one row;
        # the array power r ** 2 rounds differently
        r2 = np.float_power(self._residual(X, demand), 2.0)
        return np.vecdot(X * X, self.half_a) + np.vecdot(X, p.b) + p.xi * r2

    def grad(self, X, demand):
        p = self.p
        return p.a * X + p.b + (2.0 * p.xi * self._residual(X, demand))[:, None]

    def values(self, X):
        p = self.p
        emission = np.vecdot(X * X, p.d_coef) + np.vecdot(X, p.e_coef) - p.e_max
        return np.concatenate([emission[:, None], -X, X - p.x_max], axis=1)

    def jacobian(self, X):
        J = np.empty((len(X), self.m, X.shape[1]))
        J[:, 0] = self.two_d * X + self.p.e_coef
        J[:, 1:] = self.box
        return J

    def mean_loss(self, seed, T):
        p = self.p
        d_run = self.params(seed, T)
        d_bar = float(d_run.mean())
        d_var = float(np.mean((d_run - d_bar) ** 2))

        def ev(x):
            s_ = x.sum()
            return float(
                0.5 * p.a @ (x * x) + p.b @ x + p.xi * ((s_ - d_bar) ** 2 + d_var)
            )

        def sg(x):
            return p.a * x + p.b + 2.0 * p.xi * (x.sum() - d_bar)

        def ev_many(X):
            s_ = X.sum(axis=1)
            return 0.5 * (X * X) @ p.a + X @ p.b + p.xi * ((s_ - d_bar) ** 2 + d_var)

        fbar = ConvexFn(ev, sg, eval_many=ev_many)
        if p.a.min() > 0:
            # a strictly convex quadratic under one convex quadratic cap and a
            # box: exact from the one-dimensional dual in the emission multiplier
            fbar.argmin = oracle.dispatch_optimum(p, fbar, d_bar)
        return fbar

    def project_feasible(self, x):
        p = self.p
        y = np.clip(x, 0.0, p.x_max)
        A = float(p.d_coef @ (y * y))
        B = float(p.e_coef @ y)
        if A + B <= p.e_max:
            return y
        if A == 0.0:  # a linear emission: shrink it to e_max
            return y * (p.e_max / B)
        # shrink toward 0: solve A s^2 + B s = e_max for s in (0, 1]
        s = (-B + np.sqrt(B * B + 4.0 * A * p.e_max)) / (2.0 * A)
        return y * min(s, 1.0)


def dispatch_problem(params: Optional[DispatchParams] = None) -> DispatchProblem:
    return DispatchProblem(params)
