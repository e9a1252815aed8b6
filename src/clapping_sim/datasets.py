"""Synthetic data generation and the reference optimum.

The logistic benchmark draws features xi = xi_star + eps with independent
zero-mean normal coordinates, labels from a hidden linear rule on the
noiseless part, and trains the two-worker regularized logistic chain on
rows (-label * xi, -label). The second parameter of each normal is read
as a VARIANCE by default; set ``second_param_is_std`` to treat it as a
standard deviation instead.

The optimal objective value of the logistic chain is found by full-batch
gradient descent with step 1/L (L from power iteration on the curvature
bound) until the gradient norm falls below ``GRAD_TOL``. It is solved once
per process and kept in memory, keyed by the dataset's content hash;
nothing is written to disk.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import stages as st
from .errors import ConfigurationError
from .rng import named_stream


@dataclass(frozen=True)
class LogisticDataset:
    features: np.ndarray  # (n, dim)
    labels: np.ndarray    # (n,) in {-1, +1}
    c_r: float

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def chain_inputs(self) -> np.ndarray:
        """Rows (-label * xi, -label) feeding the logistic chain, so the
        first stage computes the classification margin."""
        z = -self.labels[:, None]
        return np.concatenate([z * self.features, z], axis=1)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.features.tobytes())
        h.update(self.labels.tobytes())
        h.update(repr(self.c_r).encode())
        return h.hexdigest()


def gen_logistic_dataset(
    n: int,
    dim: int,
    seed: int,
    feature_scale: float = 0.5,
    noise_scale: float = 0.3,
    c_r: float = 0.005,
    second_param_is_std: bool = False,
) -> LogisticDataset:
    """Deterministic synthetic logistic-regression data.

    xi_star ~ N(0, feature_scale), eps ~ N(0, noise_scale), xi = xi_star
    + eps; labels are sign(xi_star @ w0 + b0) for a hidden (w0, b0) drawn
    once per seed, with ties broken to +1.
    """
    if n < 1 or dim < 1:
        raise ConfigurationError("n and dim must be >= 1")
    f_sd = feature_scale if second_param_is_std else float(np.sqrt(feature_scale))
    n_sd = noise_scale if second_param_is_std else float(np.sqrt(noise_scale))
    xi_star = named_stream(seed, "dataset/features").standard_normal((n, dim)) * f_sd
    eps = named_stream(seed, "dataset/noise").standard_normal((n, dim)) * n_sd
    truth = named_stream(seed, "dataset/truth")
    w0 = truth.standard_normal(dim)
    b0 = truth.standard_normal()
    margin = xi_star @ w0 + b0
    labels = np.where(margin >= 0.0, 1.0, -1.0)
    return LogisticDataset(features=xi_star + eps, labels=labels, c_r=c_r)


def _curvature_bound(x_rows: np.ndarray, c_r: float) -> float:
    """Upper bound on the objective's smoothness constant: logistic
    curvature is at most 1/4, plus the ridge term."""
    n = x_rows.shape[0]
    v = np.ones(x_rows.shape[1]) / np.sqrt(x_rows.shape[1])
    lam = 0.0
    for _ in range(200):
        v = x_rows.T @ (x_rows @ v) / n
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            break
        lam, v = nrm, v / nrm
    return 0.25 * lam + 2.0 * c_r


GRAD_TOL = 1e-10
MAX_ITERS = 10**6
_F_STAR: dict[str, float] = {}  # content hash -> optimum, for this process


def compute_f_star(dataset: LogisticDataset) -> float:
    """Minimum of the dataset's full-batch logistic objective by gradient
    descent. Deterministic, and solved once per process: a later call on
    the same data returns the same float. Raises with the final gradient
    norm if MAX_ITERS iterations do not reach GRAD_TOL.
    """
    key = dataset.content_hash()
    if key in _F_STAR:
        return _F_STAR[key]
    chain = st.logistic_chain(dataset.dim, dataset.c_r)
    x_rows = dataset.chain_inputs()
    step = 1.0 / _curvature_bound(x_rows, dataset.c_r)
    w_all = [np.zeros(s.param_dim) for s in chain.stages]
    for _ in range(MAX_ITERS):
        loss, grads = st.chain_gradients(chain, x_rows, w_all)
        gnorm = float(np.sqrt(sum(float(g @ g) for g in grads)))
        if gnorm <= GRAD_TOL:
            break
        w_all = [w - step * g for w, g in zip(w_all, grads)]
    else:
        raise ConfigurationError(
            f"optimum search did not converge in {MAX_ITERS} iterations "
            f"(final gradient norm {gnorm:.3e})"
        )
    _F_STAR[key] = float(loss)
    return _F_STAR[key]
