import numpy as np
import pytest

from ocolc.core import ConvexFn

from reference import max_aggregate


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


def test_max_nonpositive_iff_all_feasible(rng):
    gs = [_lin([1.0, 0.0], -0.2), _lin([0.0, -1.0], -0.1)]
    agg = max_aggregate(gs)
    for _ in range(200):
        x = rng.uniform(-1, 1, size=2)
        assert (agg.eval(x) <= 0.0) == all(g.eval(x) <= 0.0 for g in gs)
