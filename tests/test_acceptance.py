"""Acceptance criteria, one test per criterion.

The shared AcceptanceSuite instance caches all sweep cells, so the expensive
grids (toy at two betas, the strongly convex matrix sweep) run once for the
whole module. Each test prints its criterion's pass/fail line.
"""

import dataclasses

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
