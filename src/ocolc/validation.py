"""Acceptance checks: exact invariants plus empirical scaling-law fits.

One check per criterion; the `validate` CLI subcommand and the acceptance
test module both call into AcceptanceSuite so they can never drift apart.
The suite plans, per problem, every (config, seed) cell its checks read.
The first check that needs a cell of a problem runs all of that problem's
planned cells in one kernel call per aggregation, whatever the variants in
it, so a quick suite makes five kernel calls in any check order. Each cell
is summarized against its comparator right after that call and cached as a
summary; no trace is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from .algorithms import AlgoConfig, Batch, projected_ogd_run, run
from .core import finite_diff_grad
from .metrics import RunSummary, fit_slope, positive_points, summarize
# offline_solve has no caller here; the benchmark's tracer rebinds it by name
from .oracle import (  # noqa: F401
    birkhoff_certificate,
    grid_oracle,
    offline_solve,
    offline_value,
    project_birkhoff,
)
from .problems import (
    derive_seed,
    dispatch_problem,
    doubly_stochastic_problem,
    toy_problem,
)

T_GRID = (1250, 2500, 5000, 10000, 20000)
BASE_SEED = 2024

# identical stepsizes for both sides of the dispatch contrast; the theorem
# stepsizes (built from the ball-wide Lipschitz bound) barely move x on this
# problem at desk horizons, so the contrast runs use an engaged, shared pair
CONTRAST_ETA = 0.01
CONTRAST_SIGMA = 100.0
CONTRAST_T = 2880


@dataclass
class Cell:
    """One run's summary plus its two trace checks (lambda_err: NaN if not clipped-ogd)."""

    summary: RunSummary
    ball_ok: bool
    lambda_err: float


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str

    def __post_init__(self):
        # a numpy comparison hands back numpy.bool_; keep the verdict a bool
        self.passed = bool(self.passed)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.details}"


class AcceptanceSuite:
    """Runs and caches everything the acceptance criteria need.

    Each problem has a plan: the (config, seed) cells its checks read,
    listed by the grid builders below. The first request for a cell not
    cached yet runs every planned cell of its problem not cached yet through
    one Batch, one kernel call per aggregation, and summarizes each row right
    after, so no trace outlives that call. Problems are built on first use.
    """

    def __init__(
        self,
        t_grid: Tuple[int, ...] = T_GRID,
        toy_seeds: int = 10,
        ds_seeds: int = 5,
        base_seed: int = BASE_SEED,
    ):
        self.t_grid = tuple(t_grid)
        self.toy_seeds = toy_seeds
        self.ds_seeds = ds_seeds
        self.base_seed = base_seed
        self._cells: Dict[tuple, Cell] = {}

    @cached_property
    def toy(self):
        return toy_problem()

    @cached_property
    def ds(self):
        return doubly_stochastic_problem(d=5)

    @cached_property
    def dispatch(self):
        return dispatch_problem()

    # ------------------------------------------------------------- grids

    def toy_grid(self, beta: float, variant="clipped-ogd", t_grid=None) -> List[tuple]:
        grid = self.t_grid if t_grid is None else t_grid
        return [
            (AlgoConfig(variant, T=T, beta=beta), derive_seed(self.base_seed, i))
            for T in grid
            for i in range(self.toy_seeds)
        ]

    def baseline_grid(self) -> List[tuple]:
        """The two toy baselines at the longest horizon, for check 2."""
        return [
            (AlgoConfig(variant, T=max(self.t_grid)), derive_seed(self.base_seed, 0))
            for variant in ("mahdavi-ogd", "a-ogd")
        ]

    def ds_grid(self) -> List[tuple]:
        return [
            (AlgoConfig("strong-clipped-ogd", T=T), derive_seed(self.base_seed, 100 + i))
            for T in self.t_grid
            for i in range(self.ds_seeds)
        ]

    def contrast_grid(self) -> List[tuple]:
        """clipped-ogd, then mahdavi-ogd, on dispatch with shared stepsizes."""
        return [
            (
                AlgoConfig(v, T=CONTRAST_T, eta_override=CONTRAST_ETA, sigma_override=CONTRAST_SIGMA),
                self.base_seed,
            )
            for v in ("clipped-ogd", "mahdavi-ogd")
        ]

    def per_constraint_grid(self) -> List[tuple]:
        """One dispatch run with per-constraint duals, for check 1."""
        return [(AlgoConfig("clipped-ogd", T=200, aggregation="per_constraint"), self.base_seed)]

    def _plan(self) -> Dict[str, List[tuple]]:
        """Every cell the checks read, by problem name."""
        return {
            "toy": self.toy_grid(0.5)
            + self.toy_grid(2.0 / 3.0)
            + self.baseline_grid()
            + self.toy_grid(0.5, "mahdavi-ogd", (max(self.t_grid),)),
            "doubly-stochastic": self.ds_grid(),
            "dispatch": self.contrast_grid() + self.per_constraint_grid(),
        }

    # ------------------------------------------------------------- cells

    def cells(self, problem, grid) -> List[Cell]:
        """The cells of `grid` on `problem`, run with the rest of its plan
        when any is not cached yet."""
        name = problem.name
        if any((name, cfg, seed) not in self._cells for cfg, seed in grid):
            todo = [
                (cfg, seed)
                for cfg, seed in dict.fromkeys(self._plan().get(name, []) + grid)
                if (name, cfg, seed) not in self._cells
            ]
            batch = Batch(problem, todo)
            for cfg, seed in todo:
                self._cells[name, cfg, seed] = self._cell(problem, cfg, seed, run(batch, cfg, seed))
        return [self._cells[name, cfg, seed] for cfg, seed in grid]

    @staticmethod
    def _cell(problem, cfg: AlgoConfig, seed: int, trace) -> Cell:
        """One run's summary against its comparator, plus its trace checks."""
        lambda_err = float("nan")
        if cfg.variant == "clipped-ogd":
            lhs = trace.lam * trace.sigma * trace.eta
            lambda_err = float(np.abs(lhs - np.maximum(trace.g_agg, 0.0)).max())
        ov = offline_value(problem, seed, cfg.T).value
        ball_ok = np.linalg.norm(trace.x, axis=1).max() <= problem.dom.radius * (1.0 + 1e-12)
        return Cell(summarize(trace, ov), bool(ball_ok), lambda_err)

    def _shared_cells(self) -> List[Cell]:
        """The theorem-1 toy grid, the strongly convex grid and the dispatch
        contrast: every run checks 2 and 10 read but the baselines."""
        return (
            self.cells(self.toy, self.toy_grid(0.5))
            + self.cells(self.ds, self.ds_grid())
            + self.cells(self.dispatch, self.contrast_grid())
        )

    def _mean_series(self, cells: List[Cell], field: str) -> List[Tuple[int, float]]:
        byT: Dict[int, list] = {}
        for c in cells:
            byT.setdefault(c.summary.T, []).append(getattr(c.summary, field))
        return [(T, float(np.mean(vs))) for T, vs in sorted(byT.items())]

    @staticmethod
    def _slope(points) -> Tuple[float, str]:
        """Fit after dropping near-zero values; say so when any were dropped.

        With fewer than 3 points left there is no fit: the slope is NaN,
        which fails every threshold, and the note says why.
        """
        kept = positive_points(points)
        note = "" if len(kept) == len(points) else f" [{len(points) - len(kept)} near-zero pts dropped]"
        if len(kept) < 3:
            return float("nan"), f"{note} [need at least 3 points, got {len(kept)}]"
        return fit_slope(kept), note

    def _regret_slope(self, cells: List[Cell]) -> Tuple[float, str]:
        """Slope of the mean regret; negative means clamp to 0 and drop out."""
        return self._slope([(T, max(v, 0.0)) for T, v in self._mean_series(cells, "regret")])

    # ------------------------------------------------------------ checks

    def check_lambda_identity(self) -> CheckResult:
        # per-constraint duals must satisfy the identity componentwise too
        cells = self.cells(self.toy, self.toy_grid(0.5)) + self.cells(
            self.dispatch, self.per_constraint_grid()
        )
        worst = max(c.lambda_err for c in cells if not np.isnan(c.lambda_err))
        return CheckResult(
            "1 lambda-update identity",
            worst <= 1e-12,
            f"max |lambda*sigma*eta - [g]_+| = {worst:.2e} (tol 1e-12)",
        )

    def check_ball_feasibility(self) -> CheckResult:
        cells = self._shared_cells() + self.cells(self.toy, self.baseline_grid())
        bad = sum(not c.ball_ok for c in cells)
        return CheckResult(
            "2 ball feasibility",
            bad == 0,
            f"{len(cells)} runs, {bad} with ||x|| > R(1+1e-12)",
        )

    def _tradeoff(self, name: str, beta: float) -> CheckResult:
        """Toy slopes of sum([g]+)^2 and regret against 1-beta and max(beta, 1-beta), + 0.15."""
        cells = self.cells(self.toy, self.toy_grid(beta))
        s_v, n_v = self._slope(self._mean_series(cells, "agg_sum_clip_sq"))
        s_r, n_r = self._regret_slope(cells)
        bound_v = (1.0 - beta) + 0.15
        bound_r = max(beta, 1.0 - beta) + 0.15
        return CheckResult(
            name,
            s_v <= bound_v and s_r <= bound_r,
            f"slope sum([g]+)^2 = {s_v:.3f} (<= {bound_v:.2f}){n_v}, "
            f"regret slope = {s_r:.3f} (<= {bound_r:.2f}){n_r}",
        )

    def check_theorem1_scaling(self) -> CheckResult:
        return self._tradeoff("3 theorem-1 scaling (beta=1/2)", 0.5)

    def check_prop3_tradeoff(self) -> CheckResult:
        return self._tradeoff("4 proposition-3 trade-off (beta=2/3)", 2.0 / 3.0)

    def check_theorem2_strong(self) -> CheckResult:
        cells = self.cells(self.ds, self.ds_grid())
        s_r, n_r = self._regret_slope(cells)
        s_c, n_c = self._slope(self._mean_series(cells, "agg_sum_clip"))
        ok = s_r <= 0.25 and s_c <= 0.65
        return CheckResult(
            "5 theorem-2 strongly convex",
            ok,
            f"regret slope = {s_r:.3f} (<= 0.25){n_r}, "
            f"sum [g]_+ slope = {s_c:.3f} (<= 0.65){n_c}",
        )

    def check_lemma1_per_step(self) -> CheckResult:
        series = self._mean_series(self.cells(self.toy, self.toy_grid(0.5)), "burnin_max_violation")
        slope, note = self._slope(series)
        pts = positive_points(series)
        final = pts[-1][1] if pts else float("nan")
        ok = slope <= 0.0 and final <= 0.05
        return CheckResult(
            "6 lemma-1 per-step violation",
            ok,
            f"slope = {slope:.3f} (<= 0){note}, final max [g]_+ = {final:.4f} (<= 0.05)",
        )

    def check_baseline_contrast(self) -> CheckResult:
        T = max(self.t_grid)
        toy_clip = self._mean_series(self.cells(self.toy, self.toy_grid(0.5)), "agg_sum_clip_sq")[-1][1]
        mah_cells = self.cells(self.toy, self.toy_grid(0.5, variant="mahdavi-ogd", t_grid=(T,)))
        toy_mah = self._mean_series(mah_cells, "agg_sum_clip_sq")[-1][1]
        clip, mah = self.cells(self.dispatch, self.contrast_grid())
        mv_clip = clip.summary.max_step_violation
        mv_mah = mah.summary.max_step_violation
        ok = toy_clip < toy_mah and mv_clip <= 0.5 * mv_mah
        return CheckResult(
            "7 baseline contrast",
            ok,
            f"toy sum([g]+)^2 {toy_clip:.3f} < {toy_mah:.3f}; "
            f"dispatch max violation {mv_clip:.3f} <= 0.5 * {mv_mah:.3f} "
            f"(shared eta={CONTRAST_ETA}, sigma={CONTRAST_SIGMA})",
        )

    def check_oracle_crosscheck(self) -> CheckResult:
        # each comparator the harness reports, against an independent answer
        T = 50
        # toy: the exact vertex against the exhaustive grid
        fbar = self.toy.mean_loss(self.base_seed, T)
        exact = offline_value(self.toy, self.base_seed, T).value / T
        d_toy = abs(exact - grid_oracle(self.toy, fbar, resolution=1e-3).value)
        # doubly stochastic: Dykstra on an off-polytope target, certified by
        # its duality gap and feasibility residual
        rng = np.random.default_rng(self.base_seed)
        M = rng.uniform(-0.3, 1.2, size=(4, 4))
        X = project_birkhoff(M)
        gap, residual = birkhoff_certificate(M, X)
        tol_ds = 1e-9 * max(1.0, float(0.5 * np.sum((X - M) ** 2)))
        # dispatch: one-sided, no feasible grid point may beat the exact
        # optimum; its KKT certificate covers the other direction
        disp = self.dispatch
        grid = grid_oracle(disp, disp.mean_loss(self.base_seed, T), resolution=1.0).value
        excess = offline_value(disp, self.base_seed, T).value / T - grid
        tol_disp = 1e-9 * max(1.0, abs(grid))
        ok = d_toy <= 1e-3 and abs(gap) <= tol_ds and residual <= tol_ds and excess <= tol_disp
        return CheckResult(
            "8 oracle cross-check",
            ok,
            f"toy |exact - grid| = {d_toy:.2e} (<= 1e-3); "
            f"ds(d=4) dykstra |gap| = {abs(gap):.2e}, residual = {residual:.2e} (<= {tol_ds:.1e}); "
            f"dispatch exact - grid = {excess:.2e} (<= {tol_disp:.1e})",
        )

    def check_gradient_correctness(self) -> CheckResult:
        rng = np.random.default_rng(self.base_seed)
        worst = 0.0
        checked = 0

        def check(fn, sampler, points=100):
            nonlocal worst, checked
            for _ in range(points):
                x = sampler(rng)
                fd = finite_diff_grad(fn, x, h=1e-6)
                sg = np.asarray(fn.subgrad(x), dtype=float)
                err = np.linalg.norm(fd - sg) / max(np.linalg.norm(sg), 1.0)
                worst = max(worst, err)
                checked += 1

        toy = self.toy
        toy_losses = toy.losses(self.base_seed, 5)
        for f in toy_losses:
            check(f, lambda r: r.uniform(-0.7, 0.7, size=2), points=20)
        ds = doubly_stochastic_problem(d=3)
        check(ds.losses(1, 1)[0], lambda r: r.uniform(0, 1, size=9))
        check(ds.gs[0], lambda r: r.uniform(0, 1, size=9))  # row-sum constraint
        disp = self.dispatch
        check(disp.losses(0, 1)[0], lambda r: r.uniform(0.0, 15.0, size=3))
        check(disp.gs[0], lambda r: r.uniform(0.0, 15.0, size=3))  # emission
        check(disp.gs[1], lambda r: r.uniform(0.0, 15.0, size=3))  # box
        ok = worst <= 1e-5
        return CheckResult(
            "9 gradient correctness",
            ok,
            f"{checked} finite-difference probes, worst rel err = {worst:.2e} (<= 1e-5)",
        )

    def check_cauchy_schwarz(self) -> CheckResult:
        cells = self._shared_cells()
        bad = sum(
            not s.agg_sum_clip**2 <= s.T * s.agg_sum_clip_sq * (1.0 + 1e-12) + 1e-18
            for s in (c.summary for c in cells)
        )
        return CheckResult(
            "10 Cauchy-Schwarz metric invariant",
            bad == 0,
            f"{len(cells)} traces, {bad} violations of (sum[g]+)^2 <= T*sum([g]+)^2",
        )

    def check_degeneration(self, l1_radius: float = 10.0) -> CheckResult:
        # the toy problem with an l1 constraint that never binds inside the
        # unit ball (radius > sqrt(2)); where it binds the check must fail
        p = toy_problem(l1_radius=l1_radius)
        cfg = AlgoConfig("clipped-ogd", T=500)
        trace = run(p, cfg, self.base_seed)
        ref = projected_ogd_run(p, self.base_seed, 500, eta=trace.eta)
        ok = np.array_equal(trace.x, ref) and np.all(trace.lam == 0.0)
        return CheckResult(
            "11 degeneration to projected OGD",
            ok,
            "bitwise trace match on a never-violated instance"
            if ok
            else "trace diverged from the projected-OGD reference",
        )

    CHECKS = (
        "check_lambda_identity",
        "check_ball_feasibility",
        "check_theorem1_scaling",
        "check_prop3_tradeoff",
        "check_theorem2_strong",
        "check_lemma1_per_step",
        "check_baseline_contrast",
        "check_oracle_crosscheck",
        "check_gradient_correctness",
        "check_cauchy_schwarz",
        "check_degeneration",
    )

    def run_all(self) -> List[CheckResult]:
        return [getattr(self, name)() for name in self.CHECKS]
