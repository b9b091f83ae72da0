"""Vector primitives: convex functions and the ball projection."""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray


class ConvexFn:
    """A convex function with a subgradient oracle.

    Wraps an evaluator ``f(x) -> float`` and a subgradient map
    ``subgrad(x) -> ndarray``. ``eval_many``, if given, evaluates a batch of
    points (k, n) -> (k,) and must agree with ``eval`` row by row; it lets
    the grid oracle evaluate a loss without a Python call per point.
    ``argmin``, if given, is an exact minimiser of the function over a
    problem's feasible set: a problem's mean loss carries it where one is
    known, and the offline oracle then solves nothing.
    """

    __slots__ = ("eval", "subgrad", "eval_many", "argmin")

    def __init__(
        self,
        eval: Callable[[Vector], float],
        subgrad: Callable[[Vector], Vector],
        eval_many: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        argmin: Optional[Vector] = None,
    ):
        self.eval = eval
        self.subgrad = subgrad
        self.eval_many = eval_many
        self.argmin = argmin

    def __call__(self, x: Vector) -> float:
        return self.eval(x)


def project_ball(x: Vector, R: float) -> Vector:
    """Euclidean projection onto the ball of radius R around 0: rescale iff
    ||x|| exceeds R."""
    nrm = float(np.linalg.norm(x))
    if nrm <= R:
        return x
    if not math.isfinite(nrm):
        if not np.all(np.isfinite(x)):
            raise ValueError("cannot project non-finite vector")
        # finite, but the squared norm overflows: scale down before the norm
        x = x / np.max(np.abs(x))
        nrm = float(np.linalg.norm(x))
    return x * (R / nrm)

