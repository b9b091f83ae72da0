"""Acceptance criteria, one test per criterion.

The shared AcceptanceSuite instance caches every cell as a summary: the
first criterion test that reads a problem runs all the cells the suite plans
on it (toy at two betas and its baselines, the strongly convex matrix sweep,
the dispatch runs) in one kernel call per aggregation, and the later tests
read the cache. Each test prints its criterion's pass/fail line. A module-
scoped quick run_all, made under spies on the kernel and on the oracle,
serves the tests of the suite's own plan: its kernel calls, its comparators
and its independence of check order.
"""

import dataclasses
import gc

import numpy as np
import pytest

import ocolc.algorithms
import ocolc.oracle
import ocolc.problems
import ocolc.validation
from ocolc.algorithms import RunTrace, run
from ocolc.metrics import summarize
from ocolc.oracle import offline_value
from ocolc.validation import AcceptanceSuite

# the grid of `ocolc validate --quick`
QUICK = dict(t_grid=(250, 500, 1000, 2000, 4000), toy_seeds=3, ds_seeds=2)


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite()


@pytest.fixture(scope="module")
def quick_run():
    """A fresh quick suite's run_all results, the kernel calls it made, as
    (problem, rows, aggregation), and its comparators, as (problem, seed, T)."""
    calls, comparators = [], []
    advance = ocolc.algorithms.advance
    value = ocolc.validation.offline_value

    def spy(problem, cfgs, seeds):
        calls.append((problem.name, len(cfgs), cfgs[0].aggregation))
        return advance(problem, cfgs, seeds)

    def value_spy(problem, seed, T):
        comparators.append((problem.name, seed, T))
        return value(problem, seed, T)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ocolc.algorithms, "advance", spy)
        mp.setattr(ocolc.validation, "offline_value", value_spy)
        results = AcceptanceSuite(**QUICK).run_all()
    return results, calls, comparators


def _assert_check(result):
    print(result.line())
    assert result.passed, result.details


def test_criterion_01_lambda_update_identity(suite):
    _assert_check(suite.check_lambda_identity())


def test_criterion_02_ball_feasibility(suite):
    _assert_check(suite.check_ball_feasibility())


def test_criterion_03_theorem1_scaling(suite):
    _assert_check(suite.check_theorem1_scaling())


def test_criterion_04_prop3_tradeoff(suite):
    _assert_check(suite.check_prop3_tradeoff())


def test_criterion_05_theorem2_strongly_convex(suite):
    _assert_check(suite.check_theorem2_strong())


def test_criterion_06_lemma1_per_step_violation(suite):
    _assert_check(suite.check_lemma1_per_step())


def test_criterion_07_baseline_contrast(suite):
    _assert_check(suite.check_baseline_contrast())


def test_criterion_08_oracle_cross_check(suite):
    _assert_check(suite.check_oracle_crosscheck())


def test_criterion_09_gradient_correctness(suite):
    _assert_check(suite.check_gradient_correctness())


def test_criterion_10_cauchy_schwarz_invariant(suite):
    _assert_check(suite.check_cauchy_schwarz())


def test_criterion_11_degeneration_to_projected_ogd(suite):
    _assert_check(suite.check_degeneration())


def test_negative_control_fault_injection(monkeypatch):
    # a corrupted dual update must trip the lambda-identity check
    exact = ocolc.algorithms.clipped_dual
    monkeypatch.setattr(
        ocolc.algorithms, "clipped_dual", lambda agg, sigma_eta: exact(agg, sigma_eta) * 1.5 + 1e-3
    )
    small = AcceptanceSuite(t_grid=(100, 200, 400), toy_seeds=2, ds_seeds=1)
    result = small.check_lambda_identity()
    print(result.line())
    assert not result.passed


def figure(details, label):
    """The number a check's details print right after `label`."""
    return float(details.split(label, 1)[1].split()[0].rstrip(";,"))


def test_negative_control_frozen_dual(monkeypatch):
    # with the clipped-ogd dual frozen at 0 the iterates are plain OGD, which
    # leaves the l1 ball: each violation figure must cross its bound, and the
    # checks must report FAIL, not raise
    monkeypatch.setattr(ocolc.algorithms, "clipped_dual", lambda agg, sigma_eta: np.zeros_like(agg))
    quick = AcceptanceSuite(t_grid=(250, 500, 1000, 2000, 4000), toy_seeds=3, ds_seeds=2)
    results = [quick.check_theorem1_scaling(), quick.check_lemma1_per_step(), quick.check_baseline_contrast()]
    for result in results:
        print(result.line())
        assert not result.passed
    scaling, per_step, contrast = (r.details for r in results)
    assert figure(scaling, "slope sum([g]+)^2 =") > 0.65
    assert figure(per_step, "final max [g]_+ =") > 0.05
    assert figure(contrast, "toy sum([g]+)^2") > figure(contrast, "<")


def test_negative_control_ball_projection_skipped(monkeypatch):
    # a kernel that reads every step's norm as 0 never projects onto the
    # ball: the toy iterates step past the unit sphere and check 2 must FAIL
    class NormsReadZero:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def vecdot(a, b):
            return np.zeros(len(a))

    monkeypatch.setattr(ocolc.algorithms, "np", NormsReadZero())
    small = AcceptanceSuite(t_grid=(100, 200, 400), toy_seeds=2, ds_seeds=1)
    result = small.check_ball_feasibility()
    print(result.line())
    assert not result.passed
    assert figure(result.details, "runs,") > 0


def test_negative_control_cauchy_schwarz(monkeypatch):
    # summaries whose aggregated sum of squares shrank below (sum [g]+)^2 / T
    # must fail check 10, not raise
    exact = ocolc.validation.summarize

    def shrunk(trace, offline_value):
        s = exact(trace, offline_value)
        return dataclasses.replace(s, agg_sum_clip_sq=s.agg_sum_clip_sq / (2 * s.T))

    monkeypatch.setattr(ocolc.validation, "summarize", shrunk)
    small = AcceptanceSuite(t_grid=(100, 200, 400), toy_seeds=2, ds_seeds=1)
    result = small.check_cauchy_schwarz()
    print(result.line())
    assert not result.passed
    assert " 0 violations" not in result.details


def test_negative_control_degeneration_on_a_violated_instance(suite):
    # at l1 radius 1 the constraint binds inside the ball: the duals move and
    # the trace must leave the projected-OGD reference
    result = suite.check_degeneration(l1_radius=1.0)
    print(result.line())
    assert not result.passed


def test_too_few_points_fails_instead_of_raising():
    # one toy seed on a short grid leaves 2 positive regret means; the
    # scaling check has no fit and must say so in a FAIL line
    small = AcceptanceSuite(t_grid=(60, 120, 240), toy_seeds=1, base_seed=3)
    result = small.check_theorem1_scaling()
    print(result.line())
    assert not result.passed
    assert "need at least 3 points, got 2" in result.details


def test_negative_control_gradient_sign(monkeypatch):
    # central differences of the wrong sign disagree with every gradient:
    # check 9 must report FAIL, with a relative error near 2
    exact = ocolc.validation.central_differences
    monkeypatch.setattr(ocolc.validation, "central_differences", lambda f, X: -exact(f, X))
    result = AcceptanceSuite(base_seed=1).check_gradient_correctness()
    print(result.line())
    assert not result.passed
    assert figure(result.details, "worst rel err =") > 1.0


# the array form of each built-in probed by check 9, and the constraint row
# a flip negates: toy's l1 constraint, the doubly-stochastic (d = 3) sum of
# column 1 <= 1, and dispatch's x_1 <= x_max_1
FLIPPED_ROW = {"toy": ("_ToyArrays", 0), "ds": ("_DoublyStochasticArrays", 7), "dispatch": ("_DispatchArrays", 5)}


@pytest.mark.parametrize("part", ["values", "jacobian", "loss", "grad"])
@pytest.mark.parametrize("name", sorted(FLIPPED_ROW))
def test_negative_control_gradient_flip(monkeypatch, name, part):
    # one sign flipped in a column of values, a row of the jacobian or the
    # loss gradient of one built-in: its derivative and its differences
    # disagree, and check 9 must report FAIL. The gradient is flipped
    # either in what ``loss`` returns or in ``grad``, the one loss call of
    # the kernel's step loop
    cls = getattr(ocolc.problems, FLIPPED_ROW[name][0])
    row = FLIPPED_ROW[name][1]
    exact = getattr(cls, part)

    def flipped(self, X, *params):
        out = exact(self, X, *params)
        if part == "loss":
            return out[0], -out[1]
        if part == "grad":
            return -out
        out = np.array(out)  # a writable copy: ds's jacobian is a broadcast view
        out[:, row] = -out[:, row]
        return out

    monkeypatch.setattr(cls, part, flipped)
    result = AcceptanceSuite(base_seed=1).check_gradient_correctness()
    print(result.line())
    assert not result.passed
    assert figure(result.details, "worst rel err =") > 1.0


def _moved_reference(monkeypatch, part):
    """Break the answer that one of check 8's three parts compares."""
    if part == "grid":
        # the grid's value 1e-2 above the exact one; the dispatch part only
        # sees its grid move further above its comparator
        exact = ocolc.validation.grid_oracle

        def raised(*args, **kwargs):
            res = exact(*args, **kwargs)
            return dataclasses.replace(res, value=res.value + 1e-2)

        monkeypatch.setattr(ocolc.validation, "grid_oracle", raised)
    elif part == "dykstra":
        # a feasible point off the optimum, towards the reversal permutation
        exact = ocolc.validation.project_birkhoff
        monkeypatch.setattr(
            ocolc.validation, "project_birkhoff", lambda M: 0.99 * exact(M) + 0.01 * np.eye(len(M))[::-1]
        )
    elif part == "dykstra-off-polytope":
        exact = ocolc.validation.project_birkhoff
        monkeypatch.setattr(ocolc.validation, "project_birkhoff", lambda M: exact(M) + 1e-2)
    else:
        # the dispatch comparator 5 per step higher, above the grid's value
        # (the grid lies 2.71 per step above the exact optimum)
        exact = ocolc.validation.offline_value

        def raised(problem, seed, T):
            res = exact(problem, seed, T)
            if problem.name == "dispatch":
                res = dataclasses.replace(res, value=res.value + 5.0 * T)
            return res

        monkeypatch.setattr(ocolc.validation, "offline_value", raised)


@pytest.mark.parametrize("part", ["grid", "dykstra", "dykstra-off-polytope", "dispatch"])
def test_negative_control_oracle_cross_check(monkeypatch, part):
    # a reference or comparator moved off the optimum must fail check 8's
    # part that compares against it, and only that part
    _moved_reference(monkeypatch, part)
    result = AcceptanceSuite(base_seed=1).check_oracle_crosscheck()
    print(result.line())
    assert not result.passed
    d_toy = figure(result.details, "toy |exact - grid| =")
    gap = figure(result.details, "dykstra |gap| =")
    residual = figure(result.details, "residual =")
    excess = figure(result.details, "dispatch exact - grid =")
    ds_failed = gap > 1e-9 or residual > 1e-9
    assert (d_toy > 1e-3, ds_failed, excess > 1e-6) == (
        part == "grid", part.startswith("dykstra"), part == "dispatch"
    )
    if part == "dykstra":
        assert gap > 1e-4 and residual <= 1e-9
    if part == "dykstra-off-polytope":
        assert residual > 1e-3


def test_oracle_cross_check_makes_no_penalty_solve(monkeypatch):
    # check 8 compares the exact comparators; the penalty solver is never run
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    solve = ocolc.oracle.offline_solve
    monkeypatch.setattr(ocolc.validation, "offline_solve", spy)
    monkeypatch.setattr(ocolc.oracle, "offline_solve", spy)
    result = AcceptanceSuite(base_seed=1).check_oracle_crosscheck()
    assert result.passed, result.details
    assert calls == []


def test_every_verdict_is_a_bool(quick_run):
    # numpy comparisons give numpy.bool_, which `is` tests and JSON reject
    results, _, _ = quick_run
    assert [type(r.passed) for r in results] == [bool] * len(AcceptanceSuite.CHECKS)


def test_quick_suite_makes_one_kernel_call_per_problem_and_aggregation(quick_run):
    # every planned cell of a problem runs in the first call on it; check 11
    # runs its own l1_radius=10 toy instance
    _, calls, _ = quick_run
    assert calls == [
        ("toy", 34, "max"),
        ("dispatch", 2, "max"),
        ("dispatch", 1, "per_constraint"),
        ("doubly-stochastic", 10, "max"),
        ("toy", 1, "max"),
    ]


def test_quick_suite_computes_each_comparator_once(quick_run):
    # cells that share (problem, seed, T), as the two toy beta grids, the
    # baselines and the dispatch contrast pair do, share one offline_value
    # call: 15 toy, 10 doubly-stochastic and 2 dispatch keys, plus check 8's
    # toy and dispatch comparators at T = 50
    _, _, comparators = quick_run
    assert len(comparators) == len(set(comparators)) == 29


def test_checks_in_reverse_order_give_the_same_lines(quick_run):
    results, _, _ = quick_run
    backwards = AcceptanceSuite(**QUICK)
    lines = {name: getattr(backwards, name)().line() for name in reversed(AcceptanceSuite.CHECKS)}
    assert [lines[name] for name in AcceptanceSuite.CHECKS] == [r.line() for r in results]


def test_constructing_a_suite_builds_no_problem(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a problem was built")

    for ctor in ("toy_problem", "doubly_stochastic_problem", "dispatch_problem"):
        monkeypatch.setattr(ocolc.validation, ctor, refuse)
    AcceptanceSuite(**QUICK)


def test_a_cell_carries_its_comparator_whichever_check_runs_it_first():
    # check 2's seed-0 mahdavi-ogd baseline is also a cell of check 7; read
    # after check 2, it must carry the regret a run of its own gives
    suite = AcceptanceSuite(**QUICK, base_seed=3)
    suite.check_ball_feasibility()
    grid = suite.toy_grid(0.5, "mahdavi-ogd", (max(suite.t_grid),))
    (cfg, seed), cell = grid[0], suite.cells(suite.toy, grid)[0]
    alone = summarize(run(suite.toy, cfg, seed), offline_value(suite.toy, seed, cfg.T).value)
    assert np.isfinite(cell.summary.regret)
    assert cell.summary.regret == alone.regret
    # so must the baselines and the dispatch runs, which no check's line shows
    others = suite.cells(suite.toy, suite.baseline_grid()) + suite.cells(
        suite.dispatch, suite.contrast_grid() + suite.per_constraint_grid()
    )
    assert all(np.isfinite(c.summary.regret) for c in others)


def test_no_trace_outlives_the_kernel_call():
    # the suite keeps summaries only: a kept Batch would hold every trace of
    # its call for the suite's lifetime and raise the peak memory
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, RunTrace)}
    suite = AcceptanceSuite(**QUICK)
    suite.check_lambda_identity()
    gc.collect()
    held = [o for o in gc.get_objects() if isinstance(o, RunTrace) and id(o) not in before]
    assert held == []
