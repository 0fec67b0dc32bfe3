"""Smoothed hinge-style surrogate loss with temperature sigma.

loss(u) = softplus((1 - u) / sigma) / softplus(1 / sigma), expressed in the
margin u = y * f(x). It is smooth, convex, strictly decreasing, equals 1 at
zero margin, and converges uniformly to the hinge max(0, 1 - u) as
sigma -> 0. All exponentials go through a stable softplus so margins with
|1 - u| / sigma up to 1e4 evaluate without overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import DataError


@dataclass(frozen=True)
class CoherenceParams:
    sigma: float = 1.0

    def __post_init__(self):
        if not (self.sigma > 0):
            raise DataError("sigma must be positive")

    @property
    def normalizer(self) -> float:
        # log(1 + e^{1/sigma}), computed stably once per sigma
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


def loss_curvature(margin, params: CoherenceParams):
    """loss''(u) = s(1-s) / (sigma^2 normalizer), s = sigmoid((1-u)/sigma);
    s(1-s) is formed as sigmoid(x) sigmoid(-x), finite at every margin."""
    x = (1.0 - _check_margin(margin)) / params.sigma
    out = expit(x) * expit(-x) / (params.sigma ** 2 * params.normalizer)
    return float(out) if np.isscalar(margin) else out


def curvature_bound(params: CoherenceParams) -> float:
    """Global upper bound on loss_curvature: its value at margin 1."""
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
