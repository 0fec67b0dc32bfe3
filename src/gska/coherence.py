"""Smoothed hinge-style surrogate loss with temperature sigma.

loss(u) = softplus((1 - u) / sigma) / softplus(1 / sigma), expressed in the
margin u = y * f(x). It is smooth, convex, strictly decreasing, equals 1 at
zero margin, and converges uniformly to the hinge max(0, 1 - u) as
sigma -> 0. All exponentials go through a stable softplus so margins with
|1 - u| / sigma up to 1e4 evaluate without overflow. `LabelledRisk` is the
class-weighted risk over fixed labels as a function of the scores, with
every factor that depends only on the labels computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

from .data import DataError


@dataclass(frozen=True)
class CoherenceParams:
    sigma: float = 1.0

    def __post_init__(self):
        # the solver divides by curvature_bound, which is positive and finite
        # only for sigma in about [1e-160, 1e154]
        try:
            with np.errstate(all="ignore"):
                bound = curvature_bound(self) if self.sigma > 0 else 0.0
        except OverflowError:       # sigma ** 2 past the largest float
            bound = 0.0
        if not 0 < bound < np.inf:
            raise DataError(f"sigma must be positive, with a positive, finite "
                            f"loss curvature bound, got {self.sigma!r}")

    @cached_property
    def normalizer(self) -> float:
        # log(1 + e^{1/sigma}), computed stably once per instance
        return _softplus(1.0 / self.sigma)


@dataclass(frozen=True)
class ClassWeights:
    weight_pos: float = 1.0
    weight_neg: float = 1.0

    def __post_init__(self):
        if self.weight_pos <= 0 or self.weight_neg <= 0:
            raise DataError("class weights must be positive")

    def per_sample(self, labels: np.ndarray) -> np.ndarray:
        return np.where(labels > 0, self.weight_pos, self.weight_neg)

    @classmethod
    def inverse_frequency(cls, labels: np.ndarray) -> "ClassWeights":
        """c(y) = n / (2 n_y): mean weight 1, upweights the rarer class."""
        labels = np.asarray(labels)
        n = labels.size
        n_pos = int(np.sum(labels > 0))
        n_neg = n - n_pos
        if n_pos == 0 or n_neg == 0:
            raise DataError("both classes required for inverse-frequency weights")
        return cls(n / (2.0 * n_pos), n / (2.0 * n_neg))


def _softplus(x):
    return np.logaddexp(0.0, x)


def _check_margin(margin):
    m = np.asarray(margin, dtype=float)
    if not np.all(np.isfinite(m)):
        raise DataError("margin must be finite")
    return m


def loss(margin, params: CoherenceParams):
    """Surrogate loss at the given margin(s); positive, decreasing."""
    m = _check_margin(margin)
    out = _softplus((1.0 - m) / params.sigma) / params.normalizer
    return float(out) if np.isscalar(margin) else out


def loss_grad(margin, params: CoherenceParams):
    """d loss / d margin: -(1/sigma) sigmoid((1-u)/sigma) / normalizer."""
    m = _check_margin(margin)
    out = -expit((1.0 - m) / params.sigma) / (params.sigma * params.normalizer)
    return float(out) if np.isscalar(margin) else out


def curvature_bound(params: CoherenceParams) -> float:
    """Global upper bound on loss'': s(1-s) / (sigma^2 normalizer) with
    s = sigmoid((1-u)/sigma), at most 1/4, attained at margin 1."""
    return 1.0 / (4.0 * params.sigma ** 2 * params.normalizer)


def slope_bound(params: CoherenceParams) -> float:
    """Global upper bound on |loss'(u)|: the sigmoid is at most 1."""
    return 1.0 / (params.sigma * params.normalizer)


def empirical_risk(margins, labels, weights: ClassWeights,
                   params: CoherenceParams) -> float:
    """Class-weighted mean loss over the sample margins."""
    m = np.asarray(margins, dtype=float)
    y = np.asarray(labels, dtype=float)
    if m.shape != y.shape:
        raise DataError("margins and labels must have equal length")
    c = weights.per_sample(y)
    return float(np.mean(c * loss(m, params)))


class LabelledRisk:
    """R(f, b) = empirical_risk(y (f + b)) and its slopes dR/df, fixed y.

    Both come from one u = (1 - y (f + b)) / sigma: R = sum_i c_i
    softplus(u_i) / (n N) and dR/df_i = -c_i y_i sigmoid(u_i) / (n sigma N),
    with N the loss normalizer. The per-sample factors are formed once; the
    margins are not checked for finiteness.
    """

    def __init__(self, labels, weights: ClassWeights,
                 params: CoherenceParams):
        y = np.asarray(labels, dtype=float)
        self._inv_sigma = 1.0 / params.sigma
        self._y_sigma = y / params.sigma
        # c_i / (n N), and -c_i y_i / (n sigma N)
        self._weights = weights.per_sample(y) / (y.size * params.normalizer)
        self._slope_weights = -self._weights * self._y_sigma

    def _u(self, f, b):
        return self._inv_sigma - self._y_sigma * (f + b)

    def risk(self, f, b=0.0) -> float:
        return float(self._weights @ _softplus(self._u(f, b)))

    def risk_and_slopes(self, f, b=0.0):
        u = self._u(f, b)
        return (float(self._weights @ _softplus(u)),
                self._slope_weights * expit(u))
