import numpy as np
import pytest

from ocolc.core import ConvexFn

from reference import fd_grad, logsumexp_aggregate, max_aggregate


def _lin(c, b=0.0):
    c = np.asarray(c, dtype=float)
    return ConvexFn(lambda x: float(c @ x + b), lambda x: c)


def test_max_single_is_identity():
    g = _lin([1.0, 0.0])
    agg = max_aggregate([g])
    x = np.array([0.7, -0.3])
    assert agg.eval(x) == g.eval(x)
    assert np.array_equal(agg.subgrad(x), g.subgrad(x))


def test_max_picks_argmax():
    g1 = _lin([1.0, 0.0])
    g2 = _lin([-1.0, 0.0])
    x = np.array([2.0, 0.0])
    agg = max_aggregate([g1, g2])
    assert agg.eval(x) == 2.0
    assert np.array_equal(agg.subgrad(x), [1.0, 0.0])


def test_max_tie_breaks_to_lowest_index():
    g1 = _lin([1.0, 0.0])
    g2 = _lin([0.0, 1.0])
    x = np.array([0.5, 0.5])  # exact tie
    agg = max_aggregate([g1, g2])
    assert np.array_equal(agg.subgrad(x), g1.subgrad(x))


def test_max_empty_rejected():
    with pytest.raises(ValueError):
        max_aggregate([])
    with pytest.raises(ValueError):
        logsumexp_aggregate([])


def test_max_nonpositive_iff_all_feasible(rng):
    gs = [_lin([1.0, 0.0], -0.2), _lin([0.0, -1.0], -0.1)]
    agg = max_aggregate(gs)
    for _ in range(200):
        x = rng.uniform(-1, 1, size=2)
        assert (agg.eval(x) <= 0.0) == all(g.eval(x) <= 0.0 for g in gs)


def test_logsumexp_single_is_exact():
    g = _lin([0.4, 0.3], 0.1)
    agg = logsumexp_aggregate([g])
    x = np.array([0.2, -0.5])
    assert abs(agg.eval(x) - g.eval(x)) < 1e-15


def test_logsumexp_duplicates_shift_by_log_m():
    g = _lin([0.4, 0.3], 0.1)
    agg = logsumexp_aggregate([g, g])
    x = np.array([0.2, -0.5])
    np.testing.assert_allclose(agg.eval(x), g.eval(x) + np.log(2.0), rtol=1e-15)


def test_logsumexp_gradient_matches_finite_differences(rng):
    gs = [_lin([1.0, 0.5], -0.3), _lin([-0.7, 1.2], 0.2), _lin([0.1, -0.9], 0.0)]
    agg = logsumexp_aggregate(gs)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        fd = fd_grad(agg, x, h=1e-6)
        np.testing.assert_allclose(agg.subgrad(x), fd, rtol=1e-5, atol=1e-8)


def test_logsumexp_sandwich(rng):
    gs = [_lin([1.0, 0.5], -0.3), _lin([-0.7, 1.2], 0.2), _lin([0.1, -0.9], 0.0)]
    agg = logsumexp_aggregate(gs)
    m = len(gs)
    for _ in range(500):
        x = rng.uniform(-2, 2, size=2)
        top = max(g.eval(x) for g in gs)
        v = agg.eval(x)
        assert top <= v <= top + np.log(m) + 1e-12


def test_logsumexp_subgrad_norm_bound(rng):
    cs = [[1.0, 0.5], [-0.7, 1.2], [0.1, -0.9]]
    gs = [_lin(c) for c in cs]
    G = max(np.linalg.norm(c) for c in cs)
    agg = logsumexp_aggregate(gs)
    for _ in range(500):
        x = rng.uniform(-2, 2, size=2)
        assert np.linalg.norm(agg.subgrad(x)) <= np.sqrt(len(gs)) * G + 1e-12


def test_logsumexp_overflow_safe():
    # constraint values around 1e4 would overflow exp without the max shift
    gs = [_lin([1e4, 0.0]), _lin([0.0, 1e4])]
    agg = logsumexp_aggregate(gs)
    x = np.array([1.0, 0.99])
    v = agg.eval(x)
    assert np.isfinite(v) and v >= 1e4
    assert np.all(np.isfinite(agg.subgrad(x)))
