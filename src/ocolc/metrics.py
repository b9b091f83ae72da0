"""Regret, violation aggregates, and log-log slope fits for scaling checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .algorithms import RunTrace


@dataclass
class RunSummary:
    """Aggregates of one run: regret, the three violation sums per constraint
    and of the max-aggregated constraint max_i g_i, and the worst step."""

    regret: float
    sum_g: np.ndarray  # (m,) plain sums, cancellations allowed
    sum_clip: np.ndarray  # (m,) sums of [g]_+
    sum_clip_sq: np.ndarray  # (m,) sums of ([g]_+)^2
    agg_sum_g: float  # sum_t max_i g_i
    agg_sum_clip: float  # sum_t [max_i g_i]_+
    agg_sum_clip_sq: float  # sum_t ([max_i g_i]_+)^2
    max_step_violation: float  # max over steps and constraints of [g]_+
    burnin_max_violation: float  # the same max over steps T//10 onward
    T: int


def summarize(trace: RunTrace, offline_value: float) -> RunSummary:
    """Reduce a trace against the offline optimum sum_t f_t(x*) (nan when
    there is none); the one place a trace becomes sums."""
    T = trace.T
    if T == 0:
        raise ValueError("empty trace")
    if not (trace.x.shape[0] == trace.fx.size == trace.g.shape[0] == trace.lam.shape[0] == T):
        raise ValueError("trace row arrays disagree on length")
    clip = np.maximum(trace.g, 0.0)
    sum_clip = clip.sum(axis=0)
    sum_clip_sq = np.square(clip, out=clip).sum(axis=0)  # in place: one (T, m) temporary
    gmax = trace.g.max(axis=1)
    agg_clip = np.maximum(gmax, 0.0)
    summary = RunSummary(
        regret=float(trace.fx.sum() - offline_value),
        sum_g=trace.g.sum(axis=0),
        sum_clip=sum_clip,
        sum_clip_sq=sum_clip_sq,
        agg_sum_g=float(gmax.sum()),
        agg_sum_clip=float(agg_clip.sum()),
        agg_sum_clip_sq=float((agg_clip * agg_clip).sum()),
        max_step_violation=float(agg_clip.max(initial=0.0)),
        burnin_max_violation=float(agg_clip[T // 10 :].max(initial=0.0)),
        T=T,
    )
    # Cauchy-Schwarz must hold on every real trace; a violation means the
    # sums were corrupted somewhere upstream
    if np.any(summary.sum_clip**2 > T * summary.sum_clip_sq * (1.0 + 1e-12) + 1e-18):
        raise AssertionError("(sum [g]_+)^2 > T * sum ([g]_+)^2 on a trace")
    return summary


def fit_slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(value) against log(T).

    Rejects nonpositive values outright rather than flooring them; callers
    that need to drop near-zero (feasible-run) points do so explicitly via
    positive_points so the omission is visible.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 points, got {len(points)}")
    Ts = np.array([p[0] for p in points], dtype=float)
    vs = np.array([p[1] for p in points], dtype=float)
    if np.any(vs <= 0.0):
        raise ValueError("nonpositive value in slope fit; filter first")
    if np.any(Ts <= 0.0):
        raise ValueError("nonpositive horizon in slope fit")
    return float(np.polyfit(np.log(Ts), np.log(vs), 1)[0])


def positive_points(
    points: Sequence[Tuple[float, float]], floor: float = 1e-9
) -> list:
    """Drop points whose value is below `floor`.

    Near-zero violation sums (fully feasible runs) would otherwise dominate a
    log fit; dropped points should be reported alongside the slope.
    """
    return [(T, v) for T, v in points if v >= floor]
