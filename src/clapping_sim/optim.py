"""Per-worker optimizer updates.

Momentum SGD keeps a moving average of the gradient estimate:

    u <- (1 - m_t) * u + m_t * g,   w <- w - gamma * u

The Adam variant tracks elementwise first and second moments with NO bias
correction and no weight decay:

    u <- (1 - b1) * u + b1 * g
    s <- (1 - b2) * s + b2 * g**2
    w <- w - gamma * u / sqrt(s + eps)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import halves
from .errors import ConfigurationError
from .sampling import Schedule

MOMENTUM_SGD = "momentum_sgd"
ADAM = "adam"


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str
    gamma: Schedule
    momentum: Schedule = Schedule.constant(0.1)  # m_t for SGD, b1 for Adam
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in (MOMENTUM_SGD, ADAM):
            raise ConfigurationError(f"unknown optimizer {self.kind!r}")
        if any(not 0.0 < v < np.inf for _, v in self.gamma.table):
            raise ConfigurationError("optimizer.gamma: step sizes must be positive and finite")
        if any(not 0.0 < v <= 1.0 for _, v in self.momentum.table):
            raise ConfigurationError("optimizer.momentum: coefficients must be in (0, 1]")
        if self.kind == ADAM and not 0.0 < self.beta2 < 1.0:
            raise ConfigurationError("optimizer.beta2: must be in (0, 1)")
        if self.kind == ADAM and self.eps <= 0.0:
            raise ConfigurationError("optimizer.eps: must be positive")


def momentum_update(u: np.ndarray, w: np.ndarray, grad: np.ndarray, m_t: float, gamma: float,
                    defer: bool = False):
    """One momentum-SGD update, in place: u and w receive the new values
    and grad is consumed as scratch. Returns (u, w). With ``defer``, the
    arguments are checked here and the private body goes to
    ``halves.defer`` as one job: u and w hold the new values once
    ``halves.wait()`` returns."""
    if not 0.0 < m_t <= 1.0 or gamma <= 0.0:
        raise ConfigurationError("need m_t in (0, 1] and gamma > 0")
    if defer:
        halves.defer(_momentum, u, w, grad, m_t, gamma)
    else:
        _momentum(u, w, grad, m_t, gamma)
    return u, w


def _momentum(u, w, grad, m_t, gamma):
    # (1 - m_t) * u + m_t * grad, then w - gamma * u_new, in that order
    # (so in the same bits as the textbook expression)
    u *= 1.0 - m_t
    grad *= m_t
    u += grad
    np.multiply(u, gamma, out=grad)
    w -= grad


def adam_update(
    u: np.ndarray, s: np.ndarray, w: np.ndarray, grad: np.ndarray,
    beta1: float, beta2: float, eps: float, gamma: float, defer: bool = False,
):
    """One Adam-style update without bias correction, in place: u, s and
    w receive the new values and grad is consumed as scratch. Returns
    (u, s, w).

    Accepts degenerate beta = 1 or eps = 0 so single-step reductions can
    be exercised directly; run-level configs enforce the open ranges. Defers
    as ``momentum_update`` does.
    """
    if gamma <= 0.0 or eps < 0.0 or not (0.0 < beta1 <= 1.0 and 0.0 < beta2 <= 1.0):
        raise ConfigurationError("need gamma > 0, eps >= 0, betas in (0, 1]")
    if defer:
        halves.defer(_adam, u, s, w, grad, beta1, beta2, eps, gamma)
    else:
        _adam(u, s, w, grad, beta1, beta2, eps, gamma)
    return u, s, w


def _adam(u, s, w, grad, beta1, beta2, eps, gamma):
    # the textbook expressions, operation for operation:
    # u = (1 - b1) u + b1 g, s = (1 - b2) s + b2 g**2, w - gamma u / sqrt(s + eps)
    step = np.multiply(grad, beta1)
    u *= 1.0 - beta1
    u += step
    np.square(grad, out=grad)
    grad *= beta2
    s *= 1.0 - beta2
    s += grad
    np.add(s, eps, out=grad)
    np.sqrt(grad, out=grad)
    np.multiply(u, gamma, out=step)
    step /= grad
    w -= step
