"""Online primal-dual algorithms and the batched run kernel.

Four variants:

* ``clipped-ogd``      constant stepsize, dual set by explicitly maximizing the
                       clipped augmented Lagrangian: lambda = [g(x)]_+ / (sigma*eta).
* ``strong-clipped-ogd``  same dual rule with time-varying eta_t = 1/(H1 (t+1))
                       and theta_t = eta_t (m+1) G^2, for strongly convex losses.
* ``mahdavi-ogd``      simultaneous gradient descent/ascent on the augmented
                       Lagrangian with a single stepsize; dual projected to >= 0.
* ``a-ogd``            gradient descent/ascent with distinct primal/dual stepsize
                       schedules and a decaying dual regularization theta_t,
                       always on the max-aggregated scalar constraint.

The baselines run with either the plain Lagrangian term lambda*g (their
original form, the default) or the clipped term lambda*[g]_+ (the retrofit).

``advance`` is the one kernel: it moves a (B, n) batch of iterates, one row
per (config, seed) cell, through the problem's array form; the rows may mix
variants and Lagrangians but share an aggregation. ``run`` is a one-row
call; a ``Batch`` lets many ``run`` calls share one kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .core import project_ball
from .problems import ProblemSpec

VARIANTS = ("clipped-ogd", "strong-clipped-ogd", "mahdavi-ogd", "a-ogd")
_ALIASES = {"strong": "strong-clipped-ogd", "ogd": "mahdavi-ogd", "aogd": "a-ogd"}


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
    lagrangian: Optional[str] = None  # None -> clipped for our algorithms, plain for baselines
    aggregation: str = "max"  # 'max' | 'logsumexp' | 'per_constraint'
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
        if self.aggregation not in ("max", "logsumexp", "per_constraint"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        for name in ("eta_override", "sigma_override"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        lag = self.lagrangian
        if lag is None:
            lag = "clipped" if self.variant in ("clipped-ogd", "strong-clipped-ogd") else "plain"
        if lag not in ("clipped", "plain"):
            raise ValueError(f"unknown lagrangian {lag!r}")
        if lag == "plain" and self.variant in ("clipped-ogd", "strong-clipped-ogd"):
            raise ValueError(f"{self.variant} is defined by the clipped Lagrangian")
        if self.variant == "a-ogd" and self.aggregation == "per_constraint":
            raise ValueError("a-ogd uses a scalar dual; pick max or logsumexp aggregation")
        object.__setattr__(self, "lagrangian", lag)


def tradeoff_eta(m: int, G: float, R: float, beta: float, T: int) -> float:
    """eta = 1 / (T^beta G sqrt(R (m+1))); equals the balanced eta at beta = 1/2."""
    if m < 1 or G <= 0 or R <= 0 or T < 1:
        raise ValueError("m, G, R, T must be positive")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    return float(1.0 / (T**beta * G * np.sqrt(R * (m + 1))))


class Schedule:
    """One configuration resolved on one problem: the dual dimension m_eff,
    the effective constants, and the stepsizes of every step t (1-based).

    Under max or logsumexp aggregation the dual faces one scalar constraint
    (m_eff = 1); logsumexp's Lipschitz bound is sqrt(m) G.
    """

    def __init__(self, problem: ProblemSpec, cfg: AlgoConfig):
        self.cfg = cfg
        m = problem.m
        self.m_eff = m if cfg.aggregation == "per_constraint" else 1
        self.G_eff = float(np.sqrt(m)) * problem.G if cfg.aggregation == "logsumexp" else problem.G
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
            else (self.m_eff + 1) * self.G_eff**2 / (2.0 * (1.0 - cfg.alpha))
        )
        self.eta = (
            cfg.eta_override
            if cfg.eta_override is not None
            else tradeoff_eta(self.m_eff, self.G_eff, problem.dom.radius, cfg.beta, cfg.T)
        )
        if cfg.variant == "a-ogd":
            # dual ascent at mu_t = eta0 t^(beta-1) against theta_t = sigma eta0 t^(-beta)
            self.eta0 = 1.0 / (self.G_eff * np.sqrt(problem.dom.radius * (self.m_eff + 1)))
            self.theta0 = self.sigma * self.eta0

    def eta_t(self, t: int) -> float:
        """Primal stepsize of the strongly convex variant, 1/(H1 (t+1))."""
        return 1.0 / (self.H1 * (t + 1))

    def theta_t(self, t: int) -> float:
        """Dual regularization: eta_t (m+1) G^2 for the strongly convex
        variant, sigma eta0 t^(-beta) for a-ogd."""
        if self.cfg.variant == "strong-clipped-ogd":
            return self.eta_t(t) * (self.m_eff + 1) * self.G_eff**2
        return self.theta0 * t ** (-self.cfg.beta)

    def mu_t(self, t: int) -> float:
        """Dual ascent stepsize of a-ogd."""
        return self.eta0 * t ** (self.cfg.beta - 1.0)


def clipped_dual(agg: np.ndarray, sigma_eta: np.ndarray) -> np.ndarray:
    """The clipped-ogd dual, the explicit maximizer [g]_+ / (sigma eta)."""
    return np.maximum(agg, 0.0) / sigma_eta


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
    if mode == "per_constraint":
        return V
    if mode == "max" and V.shape[1] == 1:
        return V
    top = V.max(axis=1, keepdims=True)
    if mode == "max":
        return top
    return top + np.log(np.exp(V - top).sum(axis=1, keepdims=True))


def _lagrangian_grad(form, X, V, A, lam, fgrad, mode, clipped):
    """Primal subgradients (B, n) of the Lagrangian at the rows of X.

    fgrad plus lam_i times the subgradient of dual-facing constraint i, over
    the i with lam_i > 0, added in index order; under the clipped Lagrangian
    a satisfied constraint contributes zero. ``clipped`` is True or False
    for every row, or a (B, 1) mask of the rows whose Lagrangian clips. max
    takes the lowest-index argmax row; logsumexp sums the softmax-weighted
    rows in index order from zero, skipping zero weights. Skipped terms are
    -0.0, which leaves every sum unchanged, so each result matches adding
    the terms one at a time.
    """
    pos = lam > 0.0
    if not np.count_nonzero(pos):
        return fgrad
    J = form.jacobian(X)
    if mode == "max":
        D = J if J.shape[1] == 1 else J[np.arange(len(V)), V.argmax(axis=1)][:, None, :]
    elif mode == "logsumexp":
        W = np.exp(V - V.max(axis=1, keepdims=True))
        W /= W.sum(axis=1, keepdims=True)
        terms = np.where((W > 0.0)[:, :, None], W[:, :, None] * J, -0.0)
        zero = np.zeros((len(V), 1, J.shape[2]))
        D = np.add.accumulate(np.concatenate([zero, terms], axis=1), axis=1)[:, -1:]
    else:
        D = J
    if clipped is not False:
        satisfied = A <= 0.0
        if clipped is not True:
            satisfied &= clipped
        D = np.where(satisfied[:, :, None], 0.0, D)
    if lam.shape[1] == 1:
        return np.where(pos, fgrad + lam * D[:, 0], fgrad)
    terms = np.where(pos[:, :, None], lam[:, :, None] * D, -0.0)
    return np.add.accumulate(np.concatenate([fgrad[:, None], terms], axis=1), axis=1)[:, -1]


def _uniform(mask):
    """True or False when every row of `mask` agrees, else the mask."""
    if mask.all():
        return True
    return mask if mask.any() else False


class _Rows:
    """The per-row constants of a kernel call's live rows.

    Stepsizes and row masks are (B, 1) columns that broadcast against the
    (B, k) duals; ``stream`` is each row's offset into the loss parameters.
    Each mask is also kept resolved over the live rows: True or False when
    they all agree, so that the step loop uses the plain expression and
    skips np.where, else the mask itself. ``keep`` drops rows and resolves
    again. Every row sets its duals in exactly one way: as the clipped-ogd
    maximizer (``cdual``), as the strongly convex one (``strong``), or by
    ascent (``ascent``, mahdavi-ogd and a-ogd).
    """

    def __init__(self, betas, **columns):
        self.betas = betas  # distinct a-ogd betas; other rows' beta_idx is len(betas)
        self._set(columns)

    def keep(self, mask):
        self._set({name: col[mask] for name, col in self.columns.items()})

    def _set(self, columns):
        self.columns = columns
        self.__dict__.update(columns)
        self.cdual = _uniform(self.is_cdual)
        self.strong = _uniform(self.is_strong)
        self.ascent = _uniform(self.is_ascent)
        self.clip = _uniform(self.is_clip)
        # only the ascent rows decide the ascent's Lagrangian and powers: the
        # other rows' ascent values are overwritten
        asc_clip = self.is_clip[self.is_ascent]
        self.asc_clip = True if asc_clip.all() else self.is_clip if asc_clip.any() else False
        asc_beta = np.unique(self.beta_idx[self.is_ascent])
        if asc_beta.size == 0 or asc_beta[0] == len(self.betas):
            self.beta = None  # no a-ogd row
        elif asc_beta.size == 1:
            self.beta = self.betas[asc_beta[0]]
        else:
            self.beta = self.beta_idx

    def ascent_steps(self, t):
        """The dual ascent stepsize and regularization of every row at step
        t: a-ogd's mu_t and theta_t, one Python power per (beta, t), and
        mahdavi-ogd's constant eta and sigma eta."""
        beta = self.beta
        if beta is None:
            return self.asc_step, self.asc_reg
        if isinstance(beta, np.ndarray):
            mu = np.array([t ** (b - 1.0) for b in self.betas] + [1.0]).take(beta)
            theta = np.array([t ** (-b) for b in self.betas] + [1.0]).take(beta)
        else:
            mu, theta = t ** (beta - 1.0), t ** (-beta)
        return self.asc_step * mu, self.asc_reg * theta


def advance(
    problem: ProblemSpec,
    cfgs: List[AlgoConfig],
    seeds: List[int],
    steps: Optional[List[int]] = None,
    x0: Optional[np.ndarray] = None,
    lam0: Optional[np.ndarray] = None,
    start: int = 0,
):
    """Advance a batch of cells in lockstep: the run kernel.

    Row b runs cfgs[b] on the loss stream of seeds[b] for steps[b] steps
    (default cfgs[b].T), reading losses start, start+1, ... of the stream.
    It starts from x0[b] (default the problem's x0) with duals lam0,
    broadcast to (B, m_eff) (default the variant's initial duals). All rows
    share one aggregation, which fixes the dual width m_eff; variant,
    Lagrangian, eta, sigma, beta, alpha, seed and horizon may differ per
    row. Each row computes exactly what its one-row call computes. Each row
    is recorded before each of its steps, and the step after its last
    recorded row still runs, so its state can be carried on.

    Returns (traces, x_next, lam_next): per row, in input order, its RunTrace
    or the RunError that stopped it, and its state after its final step.
    """
    B = len(cfgs)
    steps = [cfg.T for cfg in cfgs] if steps is None else list(steps)
    scheds = [Schedule(problem, cfg) for cfg in cfgs]
    mode = cfgs[0].aggregation
    if any(cfg.aggregation != mode for cfg in cfgs):
        raise ValueError("rows of one kernel call must share an aggregation")
    form = problem.arrays
    R = problem.dom.radius
    k, n, m = scheds[0].m_eff, problem.n, problem.m

    # rows sorted by horizon, longest first: the live rows are then a prefix
    # until a row fails. Records are step-major with sum(steps) rows: step s
    # holds the rows still running at s, row i of them at off[s] + i, so a
    # row keeps its slot at every step and nothing is padded
    order = sorted(range(B), key=lambda b: -steps[b])
    ends = np.array([steps[b] for b in order])
    if ends[-1] < 1:
        raise ValueError(f"every row needs at least one step, got {ends[-1]}")
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
    params = np.concatenate([form.params(seed, start + length, start) for seed, length in lengths.items()])

    cfg_of = [cfgs[b] for b in order]
    sched_of = [scheds[b] for b in order]
    variant_of = [cfg.variant for cfg in cfg_of]
    betas = sorted({cfg.beta for cfg in cfg_of if cfg.variant == "a-ogd"})
    strong = next((s for s, v in zip(sched_of, variant_of) if v == "strong-clipped-ogd"), None)

    def column(values, dtype=float):
        return np.array(values, dtype=dtype)[:, None]

    def stepsizes(sched):
        """(eta, sigma eta, ascent step, ascent regularization) of a row;
        a stepsize its variant does not use is 1.0, computed but never kept."""
        if sched.eta is None:  # strong-clipped-ogd: eta_t and theta_t are per step
            return 1.0, 1.0, 1.0, 1.0
        sigma_eta = sched.sigma * sched.eta
        if sched.cfg.variant == "a-ogd":
            return sched.eta, sigma_eta, sched.eta0, sched.theta0
        return sched.eta, sigma_eta, sched.eta, sigma_eta

    eta, sigma_eta, asc_step, asc_reg = zip(*map(stepsizes, sched_of))
    rows = _Rows(
        betas,
        stream=np.array([stream_at[seeds[b]] for b in order]),
        is_cdual=column([v == "clipped-ogd" for v in variant_of], bool),
        is_strong=column([v == "strong-clipped-ogd" for v in variant_of], bool),
        is_ascent=column([v in ("mahdavi-ogd", "a-ogd") for v in variant_of], bool),
        is_clip=column([cfg.lagrangian == "clipped" for cfg in cfg_of], bool),
        beta_idx=column(
            [betas.index(cfg.beta) if cfg.variant == "a-ogd" else len(betas) for cfg in cfg_of], int
        ),
        eta=column(eta),
        sigma_eta=column(sigma_eta),
        asc_step=column(asc_step),
        asc_reg=column(asc_reg),
    )

    def set_duals(A, lam, t):
        """lam with the duals of the rows that set them from A before step t;
        ascent rows keep theirs."""
        if rows.cdual is not False:
            new = clipped_dual(A, rows.sigma_eta)
            lam = new if rows.cdual is True else np.where(rows.is_cdual, new, lam)
        if rows.strong is not False:
            new = np.maximum(A, 0.0) / strong.theta_t(t)
            lam = new if rows.strong is True else np.where(rows.is_strong, new, lam)
        return lam

    X = np.tile(problem.x0(), (B, 1)) if x0 is None else np.asarray(x0, dtype=float)[order]
    V = form.values(X)
    A = _aggregate(V, mode)
    if lam0 is not None:
        lam = np.broadcast_to(np.asarray(lam0, dtype=float), (B, k))[order]
    else:
        lam = set_duals(A, np.zeros((B, k)), 1)

    # when the aggregation passes the values through, g_agg is a copy of g
    # and is not recorded
    through = A is V
    rec = {
        "x": np.empty((total, n)),
        "fx": np.empty(total),
        "g": np.empty((total, m)),
        "lam": np.empty((total, k)),
    }
    if not through:
        rec["g_agg"] = np.empty((total, k))
    x_next = np.empty((B, n))
    lam_next = np.empty((B, k))
    errors = {}

    live = np.arange(B)  # sorted positions of the rows still running
    prefix = True  # whether they are 0, 1, ..., live.size - 1
    next_end = ends[-1]

    def keep(mask):
        nonlocal live, prefix, next_end, X, V, A, lam
        live = live[mask]
        prefix = live.size == 0 or live[-1] == live.size - 1
        next_end = ends[live].min(initial=T_max)
        X, V, A, lam = X[mask], V[mask], A[mask], lam[mask]
        rows.keep(mask)

    def rows_at(s):
        """The record rows of the live rows at step s, as a slice while
        they are a prefix."""
        return slice(off[s], off[s] + live.size) if prefix else off[s] + live

    for s in range(T_max):
        t = s + 1
        at = rows_at(s)
        fx, fgrad = form.loss(X, params[s:].take(rows.stream, axis=0))  # cheaper than params[stream + s]
        rec["x"][at] = X
        rec["fx"][at] = fx
        rec["g"][at] = V
        if not through:
            rec["g_agg"][at] = A
        rec["lam"][at] = lam

        grad = _lagrangian_grad(form, X, V, A, lam, fgrad, mode, rows.clip)
        if rows.strong is False:
            eta = rows.eta
        elif rows.strong is True:
            eta = strong.eta_t(t)
        else:
            eta = np.where(rows.is_strong, strong.eta_t(t), rows.eta)
        Y = X - eta * grad
        nrm = np.sqrt(np.vecdot(Y, Y))
        if not math.isfinite(np.add.reduce(nrm)):  # a non-finite gradient, or overflow
            bad = ~np.isfinite(grad).all(axis=1)
            if bad.any():
                for i in live[bad]:
                    errors[order[i]] = RunError(t, "non-finite Lagrangian gradient")
                Y, nrm = Y[~bad], nrm[~bad]
                keep(~bad)
                if live.size == 0:
                    break
            if not np.isfinite(Y).all():
                raise ValueError("cannot project non-finite vector")
            # finite rows whose squared norm overflows: scale each down by its
            # largest entry, then project; they land on the sphere
            huge = ~np.isfinite(nrm)
            if huge.any():
                Z = Y[huge] / np.abs(Y[huge]).max(axis=1, keepdims=True)
                Y[huge] = Z * (R / np.sqrt(np.vecdot(Z, Z)))[:, None]
                nrm[huge] = R
        over = nrm > R
        if over.any():
            Y[over] = Y[over] * (R / nrm[over])[:, None]

        if rows.ascent is not False:
            # every row's ascent; set_duals then overwrites the other rows
            step, reg = rows.ascent_steps(t)
            clip = rows.asc_clip
            if clip is False:
                G = A
            elif clip is True:
                G = np.maximum(A, 0.0)
            else:
                G = np.where(clip, np.maximum(A, 0.0), A)
            lam = np.maximum(lam + step * (G - reg * lam), 0.0)
        X = Y
        V = form.values(X)
        A = _aggregate(V, mode)
        lam = set_duals(A, lam, t + 1)

        if t == next_end:
            done = ends[live] == t
            x_next[live[done]] = X[done]
            lam_next[live[done]] = lam[done]
            keep(~done)
            if live.size == 0:
                break

    # each trace gathers its own rows into arrays it owns, so holding one
    # trace keeps no other alive. One record is dropped before the next is
    # gathered, largest first, so the gather's peak is the records plus
    # one field of copies
    del params
    kept = [(i, b) for i, b in enumerate(order) if b not in errors]
    fields = {b: {} for _, b in kept}
    for name in sorted(rec, key=lambda name: -rec[name].size):
        record = rec.pop(name)
        for i, b in kept:
            fields[b][name] = record[slots(i)]
    del record
    if through:
        for _, b in kept:
            fields[b]["g_agg"] = fields[b]["g"].copy()

    traces = [errors.get(b) for b in range(B)]
    for i, b in kept:
        sched = scheds[b]
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
                "G_eff": sched.G_eff,
            },
        )
    inverse = np.argsort(order)
    return traces, x_next[inverse], lam_next[inverse]


class Batch:
    """Cells (config, seed) on one problem that share kernel calls.

    ``run(batch, cfg, seed)`` returns the trace of one cell. The first such
    call advances every cell of its aggregation in one kernel call, whatever
    their variants; later calls return rows already computed. For any other
    attribute a batch stands in for its problem.
    """

    def __init__(self, problem: ProblemSpec, cells):
        self.problem = problem
        self._pending = list(dict.fromkeys(cells))
        self._done = {}

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def trace(self, cfg: AlgoConfig, seed: int) -> RunTrace:
        key = (cfg, seed)
        if key not in self._done:
            if key not in self._pending:
                raise KeyError(f"cell {key} is not in this batch")
            group = [c for c in self._pending if c[0].aggregation == cfg.aggregation]
            self._pending = [c for c in self._pending if c not in group]
            traces, _, _ = advance(self.problem, [c for c, _ in group], [s for _, s in group])
            self._done.update(zip(group, traces))
        out = self._done[key]
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


def doubling_epochs(total: int) -> List[int]:
    """Epoch lengths 1, 2, 4, ... covering `total` steps (last one truncated)."""
    if total < 1:
        raise ValueError("total steps must be >= 1")
    out, nominal, remaining = [], 1, total
    while remaining > 0:
        out.append(min(nominal, remaining))
        remaining -= out[-1]
        nominal *= 2
    return out


def doubling_run(
    problem: ProblemSpec,
    cfg_factory: Callable[[int], AlgoConfig],
    total: int,
    seed: int,
) -> RunTrace:
    """Horizon-free wrapper: run epochs of doubling length with per-epoch
    parameters from cfg_factory(nominal_length).

    x carries across epoch boundaries; lambda resets to zero (its scale is
    tied to the epoch's sigma*eta). The loss sequence is the same one run()
    would see for the full horizon.
    """
    epochs, epoch_meta = [], []
    x, offset, nominal = None, 0, 1
    for length in doubling_epochs(total):
        cfg = cfg_factory(nominal)
        if cfg.T != nominal:
            raise ValueError(f"cfg_factory({nominal}) returned T={cfg.T}")
        (trace,), x, _ = advance(
            problem, [cfg], [seed], steps=[length], x0=x, lam0=0.0, start=offset
        )
        if isinstance(trace, RunError):
            raise trace
        epochs.append(trace)
        epoch_meta.append({"nominal": nominal, "length": length, "eta": trace.eta})
        offset += length
        nominal *= 2
    for name in ("x", "fx", "g", "g_agg", "lam"):
        setattr(trace, name, np.concatenate([getattr(e, name) for e in epochs]))
    trace.meta["g_bar_x1"] = epochs[0].meta["g_bar_x1"]
    trace.meta["epochs"] = epoch_meta
    return trace
