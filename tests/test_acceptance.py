"""Acceptance criteria, one test per criterion.

The shared AcceptanceSuite instance caches all sweep cells, so the expensive
grids (toy at two betas, the strongly convex matrix sweep) run once for the
whole module. Each test prints its criterion's pass/fail line.
"""

import dataclasses

import numpy as np
import pytest

import ocolc.algorithms
import ocolc.validation
from ocolc.validation import AcceptanceSuite


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite()


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
    # finite differences of the wrong sign disagree with every subgradient:
    # check 9 must report FAIL, with a relative error near 2
    exact = ocolc.validation.finite_diff_grad
    monkeypatch.setattr(ocolc.validation, "finite_diff_grad", lambda fn, x, h: -exact(fn, x, h=h))
    result = AcceptanceSuite(base_seed=1).check_gradient_correctness()
    print(result.line())
    assert not result.passed
    assert figure(result.details, "worst rel err =") > 1.0


_penalty_answers = {}


@pytest.mark.parametrize("half", ["grid", "dykstra"])
def test_negative_control_oracle_cross_check(monkeypatch, half):
    # a reference answer moved off the optimum must fail check 8's half
    # that compares against it, and only that half. The penalty answers do
    # not depend on the references, so both cases solve them once
    solve = ocolc.validation.offline_solve

    def solved_once(problem, f, iters):
        key = (problem.name, iters)
        if key not in _penalty_answers:
            _penalty_answers[key] = solve(problem, f, iters=iters)
        return _penalty_answers[key]

    monkeypatch.setattr(ocolc.validation, "offline_solve", solved_once)
    if half == "grid":
        exact = ocolc.validation.grid_oracle

        def raised(*args, **kwargs):
            res = exact(*args, **kwargs)
            return dataclasses.replace(res, value=res.value + 1e-2)

        monkeypatch.setattr(ocolc.validation, "grid_oracle", raised)
    else:
        exact = ocolc.validation.project_birkhoff
        monkeypatch.setattr(ocolc.validation, "project_birkhoff", lambda M: exact(M) + 1e-2)
    result = AcceptanceSuite(base_seed=1).check_oracle_crosscheck()
    print(result.line())
    assert not result.passed
    d_toy = figure(result.details, "toy |penalty - grid| =")
    d_ds = figure(result.details, "ds(d=4) |penalty - dykstra| =")
    assert (d_toy > 1e-3, d_ds > 1e-4) == (half == "grid", half == "dykstra")
