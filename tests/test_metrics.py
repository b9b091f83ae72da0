import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ocolc.algorithms import AlgoConfig, RunTrace
from ocolc.metrics import fit_slope, positive_points, summarize


def _trace(fx, g, lam=None):
    fx = np.asarray(fx, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    T = fx.size
    if lam is None:
        lam = np.zeros((T, 1))
    return RunTrace(
        problem="synthetic",
        variant="clipped-ogd",
        seed=0,
        config=AlgoConfig("clipped-ogd", T=T),
        x=np.zeros((T, 2)),
        fx=fx,
        g=g,
        g_agg=g.max(axis=1, keepdims=True),
        lam=lam,
        eta=0.1,
        sigma=1.0,
    )


def test_summarize_all_feasible():
    s = summarize(_trace([1.0, 2.0, 3.0], [-1.0, -0.5, -2.0]), offline_value=0.0)
    assert s.regret == 6.0
    assert s.sum_clip[0] == 0.0
    assert s.sum_clip_sq[0] == 0.0
    assert s.max_step_violation == 0.0
    assert s.sum_g[0] == -3.5


def test_summarize_constant_violation():
    T, v = 50, 0.3
    s = summarize(_trace(np.zeros(T), np.full(T, v)), offline_value=0.0)
    assert s.sum_clip[0] == pytest.approx(T * v)
    assert s.sum_clip_sq[0] == pytest.approx(T * v * v)
    assert s.max_step_violation == pytest.approx(v)


def test_summarize_cancellation_effect():
    # alternating +1/-1 over 2k steps: plain sum cancels, clipped sum does not
    k = 10
    g = np.tile([1.0, -1.0], k)
    s = summarize(_trace(np.zeros(2 * k), g), offline_value=0.0)
    assert s.sum_g[0] == 0.0
    assert s.sum_clip[0] == k


def test_summarize_linear_in_concatenation():
    fx1, g1 = [1.0, 2.0], [0.5, -0.5]
    fx2, g2 = [3.0, 4.0, 5.0], [0.2, 0.3, -1.0]
    sa = summarize(_trace(fx1, g1), 0.0)
    sb = summarize(_trace(fx2, g2), 0.0)
    sab = summarize(_trace(fx1 + fx2, g1 + g2), 0.0)
    assert sab.sum_clip[0] == pytest.approx(sa.sum_clip[0] + sb.sum_clip[0])
    assert sab.sum_clip_sq[0] == pytest.approx(sa.sum_clip_sq[0] + sb.sum_clip_sq[0])
    assert sab.sum_g[0] == pytest.approx(sa.sum_g[0] + sb.sum_g[0])


def test_summarize_invariants_on_random_traces(rng):
    for _ in range(50):
        T = int(rng.integers(2, 40))
        g = rng.normal(size=(T, 3))
        s = summarize(_trace(rng.normal(size=T), g), 0.0)
        assert np.all(s.sum_clip >= s.sum_g - 1e-12)
        assert np.all(s.sum_clip_sq >= 0)
        assert np.all(s.sum_clip**2 <= T * s.sum_clip_sq + 1e-9)


@st.composite
def traces(draw):
    T = draw(st.integers(1, 60))
    m = draw(st.integers(1, 5))
    elements = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    g = draw(hnp.arrays(np.float64, (T, m), elements=elements))
    fx = draw(hnp.arrays(np.float64, (T,), elements=elements))
    return _trace(fx, g)


@settings(max_examples=200, deadline=None)
@given(traces())
def test_summarize_aggregated_sums_are_consistent(trace):
    s = summarize(trace, float("nan"))
    T = trace.T
    # Cauchy-Schwarz on the sums of the aggregated clip
    assert s.agg_sum_clip**2 <= T * s.agg_sum_clip_sq * (1.0 + 1e-12) + 1e-18
    # [max_i g_i]_+ is at least each [g_i]_+ and at most their sum
    tol = 1e-9 * max(1.0, s.sum_clip.sum())
    assert s.sum_clip.max() <= s.agg_sum_clip + tol
    assert s.agg_sum_clip <= s.sum_clip.sum() + tol
    agg_clip = np.maximum(trace.g.max(axis=1), 0.0)
    assert s.max_step_violation == agg_clip.max()
    assert 0.0 <= s.burnin_max_violation <= s.max_step_violation
    assert s.agg_sum_g == trace.g.max(axis=1).sum()
    assert np.isnan(s.regret)


def test_summarize_burnin_skips_the_first_tenth():
    g = np.array([5.0] + [0.25] * 9 + [0.5] * 10)  # T = 20: rows 2.. count
    s = summarize(_trace(np.zeros(20), g), 0.0)
    assert s.max_step_violation == 5.0
    assert s.burnin_max_violation == 0.5
    assert s.agg_sum_clip == 5.0 + 9 * 0.25 + 10 * 0.5


def test_summarize_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        summarize(_trace([], []), 0.0)
    tr = _trace([1.0, 2.0], [0.0, 0.0])
    tr.fx = np.array([1.0])  # corrupt row count
    with pytest.raises(ValueError):
        summarize(tr, 0.0)


def test_fit_slope_power_law():
    Ts = [1000, 2000, 5000, 10000]
    pts = [(T, 3.7 * T**0.5) for T in Ts]
    assert fit_slope(pts) == pytest.approx(0.5, abs=1e-9)


def test_fit_slope_logarithmic_series_is_flat():
    Ts = np.geomspace(1e3, 1e5, 8)
    pts = [(T, 2.0 * np.log(T)) for T in Ts]
    assert 0.0 < fit_slope(pts) <= 0.2


def test_fit_slope_constant_is_zero():
    pts = [(T, 4.2) for T in (100, 1000, 10000)]
    assert fit_slope(pts) == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        fit_slope([(10, 1.0), (100, 0.0), (1000, 2.0)])
    with pytest.raises(ValueError):
        fit_slope([(10, 1.0), (100, 2.0)])


def test_positive_points_filters_burn_in():
    pts = [(10, 0.0), (100, 1e-12), (1000, 0.5), (10000, 0.7)]
    assert positive_points(pts) == [(1000, 0.5), (10000, 0.7)]
