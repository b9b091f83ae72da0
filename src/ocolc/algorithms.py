"""Online primal-dual algorithms and the batched run kernel.

Four variants:

* ``clipped-ogd``      constant stepsize, dual set by explicitly maximizing the
                       clipped augmented Lagrangian: lambda = [g(x)]_+ / (sigma*eta).
* ``strong-clipped-ogd``  same dual rule with the time-varying eta = 1/(H1 (t+1))
                       and theta = eta (m+1) G^2 of step t, for strongly convex
                       losses.
* ``mahdavi-ogd``      simultaneous gradient descent/ascent on the augmented
                       Lagrangian with a single stepsize; dual projected to >= 0.
* ``a-ogd``            gradient descent/ascent with distinct primal/dual stepsize
                       schedules and a decaying dual regularization theta,
                       always on the max-aggregated scalar constraint.

The Lagrangian follows from the variant: clipped-ogd and strong-clipped-ogd
use the clipped term lambda*[g]_+, and both baselines run in their published
form, with the plain term lambda*g; a-ogd also only under max aggregation.

A variant is a stepsize schedule and one of two dual rules. ``Schedule.steps``
gives a configuration's primal stepsize eta, dual ascent step mu and dual
regularization theta over a range of steps. The clipped variants set the dual
in closed form, [g]_+ / theta, the maximizer of lambda g - theta lambda^2 / 2;
the baselines ascend it, max(lambda + mu (g - theta lambda), 0).

``advance`` is the one kernel: it moves a (B, n) batch of iterates, one row
per (config, seed) cell, through the problem's array form; the rows may mix
variants but share an aggregation. ``run`` is a one-row
call; a ``Batch`` lets many ``run`` calls share one kernel call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import project_ball
from .problems import ProblemSpec

VARIANTS = ("clipped-ogd", "strong-clipped-ogd", "mahdavi-ogd", "a-ogd")
_ALIASES = {"strong": "strong-clipped-ogd", "ogd": "mahdavi-ogd", "aogd": "a-ogd"}
# the dual faces the max-aggregated constraint max_i g_i, or each g_i
AGGREGATIONS = ("max", "per_constraint")


class RunError(RuntimeError):
    """Raised when a run aborts; carries the 1-based step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


def canonical_variant(name: str) -> str:
    name = name.lower().replace("_", "-")
    name = _ALIASES.get(name, name)
    if name not in VARIANTS:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {VARIANTS}")
    return name


@dataclass(frozen=True)
class AlgoConfig:
    """Run configuration. beta trades regret vs violation; alpha enters sigma."""

    variant: str
    T: int
    beta: float = 0.5
    alpha: float = 0.5
    aggregation: str = "max"  # one of AGGREGATIONS
    eta_override: Optional[float] = None
    sigma_override: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "variant", canonical_variant(self.variant))
        if self.T < 1:
            raise ValueError(f"horizon T must be >= 1, got {self.T}")
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        for name in ("eta_override", "sigma_override"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.variant == "a-ogd" and self.aggregation != "max":
            raise ValueError("a-ogd runs in its published form: max aggregation")

    @property
    def lagrangian(self) -> str:
        """clipped for clipped-ogd and strong-clipped-ogd, plain for the baselines."""
        return "clipped" if self.variant in ("clipped-ogd", "strong-clipped-ogd") else "plain"


def tradeoff_eta(m: int, G: float, R: float, beta: float, T: int) -> float:
    """eta = 1 / (T^beta G sqrt(R (m+1))); equals the balanced eta at beta = 1/2."""
    if m < 1 or G <= 0 or R <= 0 or T < 1:
        raise ValueError("m, G, R, T must be positive")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    return float(1.0 / (T**beta * G * np.sqrt(R * (m + 1))))


class Schedule:
    """One configuration resolved on one problem: the dual dimension m_eff
    and the stepsizes of every step t (1-based), from ``steps``.

    Under max aggregation the dual faces one scalar constraint (m_eff = 1).
    """

    def __init__(self, problem: ProblemSpec, cfg: AlgoConfig):
        self.cfg = cfg
        self.m_eff = problem.m if cfg.aggregation == "per_constraint" else 1
        self.G = problem.G
        self.eta = self.sigma = None
        if cfg.variant == "strong-clipped-ogd":
            if cfg.eta_override is not None or cfg.sigma_override is not None:
                raise ValueError("the strongly convex variant has no constant eta/sigma to override")
            if problem.H1 is None or problem.H1 <= 0:
                raise ValueError(
                    f"{cfg.variant} needs a strongly convex problem (H1 > 0); "
                    f"{problem.name} has H1={problem.H1}"
                )
            self.H1 = float(problem.H1)
            return
        self.sigma = (
            cfg.sigma_override
            if cfg.sigma_override is not None
            else (self.m_eff + 1) * self.G**2 / (2.0 * (1.0 - cfg.alpha))
        )
        self.eta = (
            cfg.eta_override
            if cfg.eta_override is not None
            else tradeoff_eta(self.m_eff, self.G, problem.dom.radius, cfg.beta, cfg.T)
        )
        if cfg.variant == "a-ogd":
            # dual ascent at stepsize eta0 t^(beta-1) against the
            # regularization sigma eta0 t^(-beta)
            self.eta0 = 1.0 / (self.G * np.sqrt(problem.dom.radius * (self.m_eff + 1)))
            self.theta0 = self.sigma * self.eta0

    def steps(self, t0: int, t1: int) -> np.ndarray:
        """The stepsizes of steps t0..t1-1, a (3, t1 - t0) array with rows
        (eta, mu, theta): the primal stepsize, the dual ascent step and the
        dual regularization of each step.

        clipped-ogd and mahdavi-ogd: eta, eta and sigma eta, constant.
        strong-clipped-ogd: eta = 1/(H1 (t+1)), mu = eta and theta = eta (m+1) G^2.
        a-ogd: constant eta, mu = eta0 t^(beta-1) and theta = theta0 t^(-beta),
        each power Python's scalar ``t ** e``: np.power rounds differently on
        some steps. A closed-form variant never reads mu.
        """
        cfg = self.cfg
        if cfg.variant == "strong-clipped-ogd":
            eta = 1.0 / (self.H1 * np.arange(t0 + 1, t1 + 1))
            return np.array([eta, eta, eta * (self.m_eff + 1) * self.G**2])
        if cfg.variant == "a-ogd":
            return np.array([
                [self.eta] * (t1 - t0),
                [self.eta0 * t ** (cfg.beta - 1.0) for t in range(t0, t1)],
                [self.theta0 * t ** -cfg.beta for t in range(t0, t1)],
            ])
        return np.array([[self.eta], [self.eta], [self.sigma * self.eta]]).repeat(t1 - t0, axis=1)


def clipped_dual(agg: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The closed-form dual of clipped-ogd and strong-clipped-ogd, the
    explicit maximizer [g]_+ / theta of the clipped augmented Lagrangian;
    theta is sigma eta, or the strongly convex theta of the step."""
    return np.maximum(agg, 0.0) / theta


@dataclass
class RunTrace:
    """Per-step records of a single run plus the resolved parameters."""

    problem: str
    variant: str
    seed: int
    config: AlgoConfig
    x: np.ndarray  # (T, n)
    fx: np.ndarray  # (T,)
    g: np.ndarray  # (T, m) raw constraint values
    g_agg: np.ndarray  # (T, k) dual-facing values
    lam: np.ndarray  # (T, k)
    eta: Optional[float]
    sigma: Optional[float]
    meta: dict = field(default_factory=dict)

    @property
    def T(self) -> int:
        return self.fx.size

    @property
    def t(self) -> np.ndarray:
        """The step indices 1..T, computed on each access rather than stored."""
        return np.arange(1, self.T + 1)


def _aggregate(V: np.ndarray, mode: str) -> np.ndarray:
    """Dual-facing constraint values (B, k) from the raw values (B, m)."""
    if mode == "per_constraint" or V.shape[1] == 1:
        return V
    return np.maximum.reduce(V, axis=1, keepdims=True)


def _lagrangian_grad(form, X, V, lam, fgrad, mode):
    """Primal subgradients (B, n) of the Lagrangian at the rows of X.

    fgrad plus lam_i times the subgradient of dual-facing constraint i, over
    the i with lam_i > 0, added in index order. This is also the clipped
    Lagrangian's subgradient for every row whose duals are zero wherever a
    constraint is satisfied, as the closed-form duals [g]_+ / theta of
    clipped-ogd and strong-clipped-ogd are. max takes the lowest-index
    argmax row, straight from the form's constant rows ``A`` when it has
    them. Skipped
    terms are -0.0, which leaves every sum unchanged, so each result matches
    adding the terms one at a time.
    """
    pos = lam > 0.0
    if not np.count_nonzero(pos):
        return fgrad
    if mode == "max" and form.A is not None:
        D = form.A[V.argmax(axis=1)][:, None, :]
    else:
        D = form.jacobian(X)
    if mode == "max" and D.shape[1] > 1:
        D = D[np.arange(len(V)), V.argmax(axis=1)][:, None, :]
    if lam.shape[1] == 1:
        return np.where(pos, fgrad + lam * D[:, 0], fgrad)
    terms = np.where(pos[:, :, None], lam[:, :, None] * D, -0.0)
    return np.add.accumulate(np.concatenate([fgrad[:, None], terms], axis=1), axis=1)[:, -1]


# steps whose loss parameters are gathered at once; a block also ends where
# a row ends
_BLOCK = 256


@np.errstate(over="ignore", invalid="ignore")
def advance(problem: ProblemSpec, cfgs: List[AlgoConfig], seeds: List[int]) -> list:
    """Advance a batch of cells in lockstep: the run kernel.

    Row b runs cfgs[b] for cfgs[b].T steps on the loss stream of seeds[b],
    from the problem's x0. All rows share one aggregation, which fixes the
    dual width m_eff; variant, eta, sigma, beta, alpha, seed and horizon may
    differ per row. Each row computes exactly what its one-row
    call computes. Each row is recorded before each of its steps; the update
    after its last recorded step still runs, so that a row fails on a
    non-finite step T as on any earlier one. A row fails alone: it keeps
    its slot until its horizon, restarted from x0, and its records are
    never read.

    A step evaluates only the loss gradient, and records only x and lam.
    After the loop each trace gets its loss values from one ``loss_value``
    call and its constraint values from one ``values`` call over its
    recorded iterates.

    Returns one list, in input order: each row's RunTrace, or the RunError
    that stopped it.
    """
    B = len(cfgs)
    schedule = {cfg: Schedule(problem, cfg) for cfg in cfgs}
    mode = cfgs[0].aggregation
    if any(cfg.aggregation != mode for cfg in cfgs):
        raise ValueError("rows of one kernel call must share an aggregation")
    form = problem.arrays
    R = problem.dom.radius
    k, n = schedule[cfgs[0]].m_eff, problem.n

    # rows sorted by horizon, longest first. A failed row keeps its slot
    # until its horizon, so the rows running at step s are always the first
    # running[s]. Records are step-major with sum(T) rows: step s holds the
    # rows running at s, row i of them at off[s] + i, so nothing is padded
    order = sorted(range(B), key=lambda b: -cfgs[b].T)
    ends = np.array([cfgs[b].T for b in order])
    T_max = int(ends[0])
    running = B - np.searchsorted(ends[::-1], np.arange(T_max), side="right")
    off = np.concatenate(([0], np.cumsum(running)[:-1]))
    total = int(running.sum())

    def slots(i):
        """The record rows of sorted row i, one per step."""
        return off[: ends[i]] + i

    # one loss-parameter stream per seed, as long as its longest row (its
    # first in sorted order); row i reads step s at params[s + stream[i]]
    lengths = {}
    for i, b in enumerate(order):
        lengths.setdefault(seeds[b], int(ends[i]))
    stream_at = dict(zip(lengths, np.cumsum([0, *lengths.values()])))
    params = np.concatenate([form.params(seed, length) for seed, length in lengths.items()])
    stream = np.array([stream_at[seeds[b]] for b in order])

    # row i takes its stepsizes from schedule number cfg_id[i], one per
    # distinct config. The rows with the clipped Lagrangian set their duals
    # in closed form, the others by ascent; ``closed`` is that mask over the
    # live rows, resolved to True or False when they all agree, so that the
    # step loop uses the plain expression and skips np.where
    scheds = list(schedule.values())
    cfg_id = np.array([scheds.index(schedule[cfgs[b]]) for b in order])
    closes = np.array([[cfgs[b].lagrangian == "clipped"] for b in order])

    x0 = problem.x0()
    X = np.tile(x0, (B, 1))
    V = form.values(X)
    A = _aggregate(V, mode)
    lam = np.zeros((B, k))

    rec = {"x": np.empty((total, n)), "lam": np.empty((total, k))}
    errors = {}
    block_end = 0  # the step before which the block is gathered again

    for s in range(T_max):
        t = s + 1
        if s == block_end:
            # the live rows' loss parameters and stepsizes up to the next
            # row end, step-major; one stepsize table per live config. When
            # the live rows share one config its stepsizes are Python
            # floats, which numpy applies faster than a column
            live = int(running[s])
            if all(order[i] in errors for i in range(live)):
                break
            X, V, A, lam = X[:live], V[:live], A[:live], lam[:live]
            block_start, block_end = s, min(s + _BLOCK, ends[live - 1])
            block = params[np.arange(s, block_end)[:, None] + stream[:live]]
            ids, row = np.unique(cfg_id[:live], return_inverse=True)
            tables = np.stack([scheds[c].steps(t, block_end + 1) for c in ids], axis=-1)
            etas, mus, thetas = tables[:, :, 0].tolist() if ids.size == 1 else tables[:, :, row, None]
            is_closed = closes[:live]
            closed = True if is_closed.all() else is_closed if is_closed.any() else False
        j = s - block_start
        if closed is not False:
            new = clipped_dual(A, thetas[j])
            lam = new if closed is True else np.where(is_closed, new, lam)
        at = slice(off[s], off[s] + live)
        rec["x"][at] = X
        rec["lam"][at] = lam

        fgrad = form.grad(X, block[j])
        grad = _lagrangian_grad(form, X, V, lam, fgrad, mode)
        Y = X - etas[j] * grad
        if closed is not True:
            # every row's ascent; a closed-form row sets its dual again
            # before it reads it
            lam = np.maximum(lam + mus[j] * (A - thetas[j] * lam), 0.0)
        nrm = np.sqrt(np.vecdot(Y, Y))
        if not np.maximum.reduce(nrm) <= R:  # a row leaves the ball, or is not finite
            if not math.isfinite(np.add.reduce(nrm)):  # a non-finite step, or overflow
                bad = ~np.isfinite(Y).all(axis=1)
                if bad.any():
                    # a failed row restarts from x0 (norm 0) with a zero
                    # dual, so it stays finite until its horizon; its
                    # records are dropped. The next step starts a block,
                    # which ends the loop once every live row has failed
                    for i in np.flatnonzero(bad):
                        errors.setdefault(order[i], RunError(t, "non-finite step"))
                    Y[bad], lam[bad], nrm[bad] = x0, 0.0, 0.0
                    block_end = s + 1
                # finite rows whose squared norm overflows: scale each down by
                # its largest entry, then project; they land on the sphere
                huge = ~np.isfinite(nrm)
                if huge.any():
                    Z = Y[huge] / np.abs(Y[huge]).max(axis=1, keepdims=True)
                    Y[huge] = Z * (R / np.sqrt(np.vecdot(Z, Z)))[:, None]
                    nrm[huge] = R
            over = nrm > R
            if over.any():
                Y[over] = Y[over] * (R / nrm[over])[:, None]

        X = Y
        V = form.values(X)
        A = _aggregate(V, mode)

    # each trace gathers its own rows into arrays it owns, so holding one
    # trace keeps no other alive. One record is dropped before the next is
    # gathered, largest first, so the gather's peak is the records plus
    # one field of copies
    del block, tables, etas, mus, thetas
    kept = [(i, b) for i, b in enumerate(order) if b not in errors]
    fields = {b: {} for _, b in kept}
    for name in sorted(rec, key=lambda name: -rec[name].size):
        record = rec.pop(name)
        for i, b in kept:
            fields[b][name] = record[slots(i)]
    del record
    # each trace's constraint and loss values, from its iterates and its
    # stretch of the stream
    for i, b in kept:
        x = fields[b]["x"]
        fields[b]["fx"] = form.loss_value(x, params[stream[i] : stream[i] + ends[i]])
        fields[b]["g"] = g = form.values(x)
        g_agg = _aggregate(g, mode)
        fields[b]["g_agg"] = g.copy() if g_agg is g else g_agg
    del params

    traces = [errors.get(b) for b in range(B)]
    for i, b in kept:
        sched = schedule[cfgs[b]]
        traces[b] = RunTrace(
            problem=problem.name,
            variant=cfgs[b].variant,
            seed=seeds[b],
            config=cfgs[b],
            **fields[b],
            eta=sched.eta,
            sigma=sched.sigma,
            meta={
                "g_bar_x1": float(fields[b]["g_agg"][0].max()),
                "m_eff": sched.m_eff,
                "G_eff": problem.G,
            },
        )
    return traces


class Batch:
    """Cells (config, seed) on one problem that share kernel calls.

    ``run(batch, cfg, seed)`` returns the trace of one cell. The first such
    call advances every cell of its aggregation in one kernel call, whatever
    their variants; later calls return rows already computed. A cell is
    handed out as many times as it was listed, after which the batch drops
    it, so that a caller who reduces each trace as it goes holds one at a
    time. For any other attribute a batch stands in for its problem.
    """

    def __init__(self, problem: ProblemSpec, cells):
        self.problem = problem
        self._reads = Counter(cells)
        self._pending = list(self._reads)
        self._done = {}

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def trace(self, cfg: AlgoConfig, seed: int) -> RunTrace:
        key = (cfg, seed)
        if not self._reads[key]:
            raise KeyError(f"cell {key} is not in this batch, or was handed out already")
        if key not in self._done:
            group = [c for c in self._pending if c[0].aggregation == cfg.aggregation]
            self._pending = [c for c in self._pending if c not in group]
            traces = advance(self.problem, [c for c, _ in group], [s for _, s in group])
            self._done.update(zip(group, traces))
        self._reads[key] -= 1
        out = self._done[key] if self._reads[key] else self._done.pop(key)
        if isinstance(out, RunError):
            raise out
        return out


def run(problem: ProblemSpec, cfg: AlgoConfig, seed: int) -> RunTrace:
    """Run one algorithm for T steps from the ball center. Deterministic in seed.

    ``problem`` may be a Batch holding (cfg, seed), so that every cell of a
    grid is still one run() call while the grid advances in one kernel call.
    """
    if not isinstance(problem, Batch):
        problem = Batch(problem, [(cfg, seed)])
    return problem.trace(cfg, seed)


def projected_ogd_run(problem: ProblemSpec, seed: int, T: int, eta: float) -> np.ndarray:
    """Plain projected OGD reference, x_{t+1} = proj(x_t - eta grad f_t(x_t)).

    Returns the (T, n) iterate matrix; used to verify that clipped-ogd
    degenerates to it bitwise on never-violated instances. It reads the
    array form's ``params`` and ``loss`` one row at a time, independently of
    the kernel.
    """
    form = problem.arrays
    P = form.params(seed, T)
    x = problem.x0()
    xs = np.empty((T, problem.n))
    for t in range(T):
        xs[t] = x
        x = project_ball(x - eta * form.loss(x[None], P[t : t + 1])[1][0], problem.dom)
    return xs

