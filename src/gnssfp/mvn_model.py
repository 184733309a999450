"""Multivariate-normal fingerprint model: fitting, density scoring, averaging.

The fingerprint of a genuine satellite population is a fitted mean vector
and covariance; similarity of an observed feature vector is its MVN density

    f(x) = exp(-0.5 (x-mu)^T Sigma^-1 (x-mu)) / sqrt((2 pi)^k |Sigma|).

At k=6 with tight covariances these densities underflow binary64 (training
thresholds land around 1e-190), so all internal scoring runs in log space;
linear densities are materialized only at the reporting edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_REGULARIZATION_EPS = 1e-9  # covariance ridge, relative to the mean variance


@dataclass(frozen=True)
class MvnModel:
    """Fitted multivariate normal with precomputed scoring quantities."""

    mu: np.ndarray
    sigma: np.ndarray
    k: int
    sigma_inv: np.ndarray = field(repr=False)
    log_norm_const: float = 0.0  # -0.5 * (k ln 2pi + ln|Sigma|)


def fit(samples) -> MvnModel:
    """Fit an MvnModel to an n-by-k matrix of feature rows.

    mu is the column mean, sigma the unbiased (n-1) sample covariance plus a
    ridge of _REGULARIZATION_EPS * (trace/k) * I. When the empirical
    covariance is exactly zero (all rows equal) the ridge scale falls back
    to 1 so the model stays positive definite.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"samples must be 2-D (n, k), got shape {x.shape}")
    n, k = x.shape
    if n <= k:
        raise ValueError(f"need at least k+1={k + 1} samples to fit, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")

    mu = x.mean(axis=0)
    centered = x - mu
    sigma = centered.T @ centered / (n - 1)
    scale = np.trace(sigma) / k
    if scale <= 0.0:
        scale = 1.0
    sigma = sigma + _REGULARIZATION_EPS * scale * np.eye(k)
    return from_moments(mu, sigma)


def from_moments(mu, sigma) -> MvnModel:
    """Build an MvnModel from a mean vector and a k-by-k covariance."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    k = mu.shape[0]
    # Cholesky also certifies positive definiteness.
    chol = np.linalg.cholesky(sigma)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    log_norm_const = -0.5 * (k * np.log(2.0 * np.pi) + logdet)
    return MvnModel(mu=mu, sigma=sigma, k=k, sigma_inv=np.linalg.inv(sigma),
                    log_norm_const=float(log_norm_const))


def _check_vectors(x, model: MvnModel) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.k:
        raise ValueError(f"expected {model.k}-dimensional vectors, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    return x


def log_density(x, model: MvnModel):
    """Log of the MVN density at x (a k-vector or an (n, k) matrix)."""
    arr = _check_vectors(x, model)
    d = arr - model.mu
    maha = np.einsum("ni,ij,nj->n", d, model.sigma_inv, d)
    out = model.log_norm_const - 0.5 * maha
    return float(out[0]) if np.ndim(x) == 1 else out


def log_mean_of_scores(log_scores):
    """Log-sum-exp mean of already-computed log densities over the last axis.

    Averages n sample points whose individual log scores are known: a 1-D
    input gives a float, a 2-D input of blocks one value per row. A block
    whose scores are all -inf (all-zero densities) gives -inf.
    """
    log_scores = np.asarray(log_scores, dtype=np.float64)
    n = log_scores.shape[-1]
    if n == 0:
        raise ValueError("need at least one score")
    out = _logsumexp(log_scores) - np.log(n)
    return float(out) if np.ndim(out) == 0 else out


def _logsumexp(a):
    """log(sum(exp(a))) over the last axis, computed step for step as
    scipy.special.logsumexp (1.17) computes it for real input, so the bits
    agree: the tied maxima leave the sum and come back as log(count) + max,
    and where that is not finite (an all -inf row) the direct
    log(sum(exp(a))) is used."""
    a_max = np.max(a, axis=-1, keepdims=True)
    is_max = a == a_max
    m = np.sum(is_max, axis=-1, keepdims=True, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=-1, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        direct = np.log(np.sum(np.exp(a), axis=-1, keepdims=True))
    return np.where(np.isfinite(out), out, direct)[..., 0]
