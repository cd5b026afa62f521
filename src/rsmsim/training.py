"""Downlink pilot phase: ML estimation of the received amplitude from
envelope samples, and the statistics of the resulting threshold estimate.

During training every active antenna is energized, so each of the
N = n_pilots * n_active envelope samples is Rice distributed around the
common received amplitude. The amplitude estimator is the closed-form
joint-ML solution (derived under the large-argument Bessel
approximation, so it carries a small bias at low SNR); the estimated
high-SNR threshold is half the estimated amplitude. The asymptotic mean
and variance of that threshold follow from the 2x2 Fisher information
of the (amplitude, noise variance) pair.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import rice_moments

__all__ = [
    "DegenerateSample",
    "SingularFisher",
    "estimate_amplitude",
    "fisher_information",
    "threshold_estimate_stats",
]


class DegenerateSample(ArithmeticError):
    """Pilot sample too noisy for the closed-form amplitude estimator.

    Carries the negative radicand that made the square root undefined.
    """

    def __init__(self, radicand: float):
        super().__init__(
            f"amplitude estimator radicand is negative ({radicand:.6e}); "
            "SNR too low or too few pilot samples"
        )
        self.radicand = radicand


class SingularFisher(ArithmeticError):
    """Fisher information matrix is not positive definite at this point."""


def estimate_amplitude(amplitudes: np.ndarray) -> float:
    """Closed-form joint-ML estimate of the received pilot amplitude from
    the envelope samples ``a`` of every pilot and active antenna.

    theta_hat = (2/3) * mean(a) + (1/3) * sqrt(4*mean(a)^2 - 3*mean(a^2));
    raises ValueError on a negative sample and :class:`DegenerateSample`
    when the radicand is negative.
    """
    a = np.asarray(amplitudes, dtype=float)
    if np.any(a < 0):
        raise ValueError("amplitudes must be nonnegative")
    mean = float(a.mean())
    mean_sq = float(np.mean(a * a))
    radicand = 4.0 * mean * mean - 3.0 * mean_sq
    if radicand < 0.0:
        raise DegenerateSample(radicand)
    return (2.0 / 3.0) * mean + (1.0 / 3.0) * math.sqrt(radicand)


def fisher_information(theta: float, sigma2: float, n_samples: int) -> np.ndarray:
    """2x2 Fisher information of (theta, sigma2) for N Rice envelope samples.

    Entries are the closed forms obtained under the large-argument
    Bessel approximation, with the exact Rice moments filling in the
    expectations.
    """
    if theta <= 0 or sigma2 <= 0 or n_samples < 1:
        raise ValueError("theta, sigma2 must be positive and n_samples >= 1")
    n = float(n_samples)
    mu1, mu2 = rice_moments(theta, sigma2)
    i11 = 2.0 * n / sigma2 - n / (2.0 * theta * theta)
    i12 = 2.0 * n / sigma2**2 * (mu1 - theta)
    i22 = 2.0 * n / sigma2**3 * (mu2 + theta * theta - 2.0 * theta * mu1) - n / (
        2.0 * sigma2**2
    )
    return np.array([[i11, i12], [i12, i22]])


def threshold_estimate_stats(
    alpha_p: float, sigma2: float, n_samples: int
) -> tuple[float, float]:
    """Asymptotic (mean, variance) of the estimated high-SNR threshold.

    ``alpha_p`` is the received pilot power, so the Rice amplitude is
    theta = sqrt(alpha_p). The mean is theta/2 and the variance is a
    quarter of the (1,1) entry of the inverse Fisher matrix.
    """
    theta = math.sqrt(alpha_p)
    info = fisher_information(theta, sigma2, n_samples)
    det = info[0, 0] * info[1, 1] - info[0, 1] * info[1, 0]
    if det <= 0.0 or info[0, 0] <= 0.0:
        raise SingularFisher(
            f"Fisher matrix not positive definite at theta={theta:.4g}, "
            f"sigma2={sigma2:.4g} (det={det:.4g})"
        )
    var_theta = info[1, 1] / det
    return 0.5 * theta, 0.25 * var_theta

