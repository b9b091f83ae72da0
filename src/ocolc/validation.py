"""Acceptance checks: exact invariants plus empirical scaling-law fits.

One check per criterion; the `validate` CLI subcommand and the acceptance
test module both call into AcceptanceSuite so they can never drift apart.
Sweep cells are cached inside the suite instance, letting several checks
share the same runs; each grid of cells advances in one kernel call,
whatever the variants in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .algorithms import AlgoConfig, Batch, projected_ogd_run, run
from .core import ConvexFn, finite_diff_grad
from .metrics import RunSummary, fit_slope, positive_points, summarize
from .oracle import grid_oracle, offline_solve, offline_value, project_birkhoff
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

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.details}"


class AcceptanceSuite:
    """Runs and caches everything the acceptance criteria need."""

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
        self.toy = toy_problem()
        self._cells: Dict[tuple, Cell] = {}
        self._ds = None

    @property
    def ds(self):
        if self._ds is None:
            self._ds = doubly_stochastic_problem(d=5)
        return self._ds

    # ------------------------------------------------------------- cells

    def _cell(self, problem, cfg: AlgoConfig, seed: int, with_oracle=True, batch=None) -> Cell:
        """One (problem, config, seed) run, from `batch` when one holds it."""
        key = (problem.name, cfg, seed)
        if key in self._cells:
            return self._cells[key]
        trace = run(problem if batch is None else batch, cfg, seed)
        lambda_err = float("nan")
        if cfg.variant == "clipped-ogd":
            lhs = trace.lam * trace.sigma * trace.eta
            lambda_err = float(np.abs(lhs - np.maximum(trace.g_agg, 0.0)).max())
        ov = offline_value(problem, seed, cfg.T).value if with_oracle else float("nan")
        ball_ok = np.linalg.norm(trace.x, axis=1).max() <= problem.dom.radius * (1.0 + 1e-12)
        cell = self._cells[key] = Cell(summarize(trace, ov), bool(ball_ok), lambda_err)
        return cell

    def _grid_cells(self, problem, cells, with_oracle=True) -> List[Cell]:
        """Cells of one grid; those not cached yet run in one kernel call."""
        todo = [(cfg, seed) for cfg, seed in cells if (problem.name, cfg, seed) not in self._cells]
        batch = Batch(problem, todo)
        return [self._cell(problem, cfg, seed, with_oracle, batch) for cfg, seed in cells]

    def toy_cells(self, beta: float, variant="clipped-ogd", t_grid=None) -> List[Cell]:
        grid = self.t_grid if t_grid is None else t_grid
        cells = [
            (AlgoConfig(variant, T=T, beta=beta), derive_seed(self.base_seed, i))
            for T in grid
            for i in range(self.toy_seeds)
        ]
        return self._grid_cells(self.toy, cells)

    def ds_cells(self) -> List[Cell]:
        cells = [
            (AlgoConfig("strong-clipped-ogd", T=T), derive_seed(self.base_seed, 100 + i))
            for T in self.t_grid
            for i in range(self.ds_seeds)
        ]
        return self._grid_cells(self.ds, cells)

    def contrast_cells(self) -> Dict[str, Cell]:
        variants = ("clipped-ogd", "mahdavi-ogd")
        cells = [
            (
                AlgoConfig(v, T=CONTRAST_T, eta_override=CONTRAST_ETA, sigma_override=CONTRAST_SIGMA),
                self.base_seed,
            )
            for v in variants
        ]
        return dict(zip(variants, self._grid_cells(dispatch_problem(), cells, with_oracle=False)))

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
        cells = self.toy_cells(0.5)
        # per-constraint duals must satisfy the identity componentwise too
        cfg = AlgoConfig("clipped-ogd", T=200, aggregation="per_constraint")
        cells.append(self._cell(dispatch_problem(), cfg, self.base_seed, with_oracle=False))
        worst = max(c.lambda_err for c in cells if not np.isnan(c.lambda_err))
        return CheckResult(
            "1 lambda-update identity",
            worst <= 1e-12,
            f"max |lambda*sigma*eta - [g]_+| = {worst:.2e} (tol 1e-12)",
        )

    def check_ball_feasibility(self) -> CheckResult:
        cells = self.toy_cells(0.5) + self.ds_cells() + list(self.contrast_cells().values())
        baselines = [
            (AlgoConfig(variant, T=max(self.t_grid)), derive_seed(self.base_seed, 0))
            for variant in ("mahdavi-ogd", "a-ogd")
        ]
        cells += self._grid_cells(self.toy, baselines, with_oracle=False)
        bad = sum(not c.ball_ok for c in cells)
        return CheckResult(
            "2 ball feasibility",
            bad == 0,
            f"{len(cells)} runs, {bad} with ||x|| > R(1+1e-12)",
        )

    def _tradeoff(self, name: str, beta: float) -> CheckResult:
        """Toy slopes of sum([g]+)^2 and regret against 1-beta and max(beta, 1-beta), + 0.15."""
        cells = self.toy_cells(beta)
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
        cells = self.ds_cells()
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
        series = self._mean_series(self.toy_cells(0.5), "burnin_max_violation")
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
        toy_clip = self._mean_series(self.toy_cells(0.5), "agg_sum_clip_sq")[-1][1]
        mah_cells = self.toy_cells(0.5, variant="mahdavi-ogd", t_grid=(T,))
        toy_mah = self._mean_series(mah_cells, "agg_sum_clip_sq")[-1][1]
        contrast = self.contrast_cells()
        mv_clip = contrast["clipped-ogd"].summary.max_step_violation
        mv_mah = contrast["mahdavi-ogd"].summary.max_step_violation
        ok = toy_clip < toy_mah and mv_clip <= 0.5 * mv_mah
        return CheckResult(
            "7 baseline contrast",
            ok,
            f"toy sum([g]+)^2 {toy_clip:.3f} < {toy_mah:.3f}; "
            f"dispatch max violation {mv_clip:.3f} <= 0.5 * {mv_mah:.3f} "
            f"(shared eta={CONTRAST_ETA}, sigma={CONTRAST_SIGMA})",
        )

    def check_oracle_crosscheck(self) -> CheckResult:
        # toy: penalty solver against the exhaustive grid
        fbar = self.toy.mean_loss(self.base_seed, 50)
        pen = offline_solve(self.toy, fbar, iters=20000)
        grid = grid_oracle(self.toy, fbar, resolution=1e-3)
        d_toy = abs(pen.value - grid.value)
        # matrix problem: penalty route against Dykstra on an off-polytope target
        ds4 = doubly_stochastic_problem(d=4)
        rng = np.random.default_rng(self.base_seed)
        M = rng.uniform(-0.3, 1.2, size=(4, 4))
        f = ConvexFn(
            lambda x: float(0.5 * np.sum((x - M.ravel()) ** 2)),
            lambda x: x - M.ravel(),
        )
        pen4 = offline_solve(ds4, f, iters=30000)
        v_dyk = float(0.5 * np.sum((project_birkhoff(M) - M) ** 2))
        d_ds = abs(pen4.value - v_dyk)
        ok = d_toy <= 1e-3 and d_ds <= 1e-4
        return CheckResult(
            "8 oracle cross-check",
            ok,
            f"toy |penalty - grid| = {d_toy:.2e} (<= 1e-3); "
            f"ds(d=4) |penalty - dykstra| = {d_ds:.2e} (<= 1e-4)",
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
        disp = dispatch_problem()
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
        cells = self.toy_cells(0.5) + self.ds_cells() + list(self.contrast_cells().values())
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
