"""Fully digital SVD baseline with equal-SNR mode power allocation.

The channel is diagonalized by its SVD; the strongest ``n_modes``
singular values carry independent streams whose transmit powers are
inversely proportional to the squared singular values, so every
activated mode sees the same received SNR. Detection happens in the
mode domain, which is statistically identical to applying the unitary
decoder to the antenna-domain signal, so a link keeps only its singular
values: a channel is factored once and :meth:`SvdLink.at_power` redoes
the power split for every SNR point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phy import Constellation, add_complex_noise, nearest_point

__all__ = ["RankDeficient", "SvdLink", "svd_link", "fd_ber"]

#: singular values below this fraction of the largest count as zero
RANK_TOL = 1e-10


class RankDeficient(ArithmeticError):
    """Channel does not support the requested number of modes."""


def _equal_snr_split(mode_gains: np.ndarray, power: float) -> np.ndarray:
    if power <= 0:
        raise ValueError("power must be positive")
    inv_sq = 1.0 / mode_gains**2
    return power * inv_sq / inv_sq.sum()


@dataclass(frozen=True)
class SvdLink:
    """Singular values plus the equal-SNR power split over the active modes."""

    s: np.ndarray
    n_modes: int
    power_per_mode: np.ndarray

    @property
    def mode_gains(self) -> np.ndarray:
        return self.s[: self.n_modes]

    @property
    def received_power_per_mode(self) -> np.ndarray:
        return self.power_per_mode * self.mode_gains**2

    def at_power(self, power: float) -> SvdLink:
        """The same channel with ``power`` split over its modes."""
        return SvdLink(
            s=self.s,
            n_modes=self.n_modes,
            power_per_mode=_equal_snr_split(self.mode_gains, power),
        )


def svd_link(h: np.ndarray, power: float, n_modes: int) -> SvdLink:
    """Split ``power`` over the top ``n_modes`` modes at equal received SNR."""
    if power <= 0 or n_modes < 1:
        raise ValueError("power must be positive and n_modes >= 1")
    # The full factorization, although only the singular values are kept:
    # LAPACK's values-only path rounds them differently.
    s = np.linalg.svd(np.asarray(h))[1]
    usable = int(np.sum(s > RANK_TOL * s[0])) if s.size else 0
    if usable < n_modes:
        raise RankDeficient(
            f"channel supports {usable} modes, {n_modes} requested"
        )
    return SvdLink(s=s, n_modes=n_modes, power_per_mode=_equal_snr_split(s[:n_modes], power))


def fd_ber(
    link: SvdLink,
    constellation: Constellation,
    sigma2: float,
    trials: int,
    rng: np.random.Generator,
) -> int:
    """Monte Carlo bit errors of the baseline, all modes combined.

    Each trial sends one symbol per active mode; minimum-distance
    detection runs per mode at that mode's (equalized) received SNR.
    Returns the error count over ``trials * n_modes * bits_per_symbol``
    bits.
    """
    if sigma2 <= 0 or trials < 1:
        raise ValueError("sigma2 must be positive and trials >= 1")
    gains = np.sqrt(link.received_power_per_mode)  # per-mode amplitude
    js = rng.integers(0, constellation.order, size=(trials, link.n_modes))
    y = add_complex_noise(gains[None, :] * constellation.points[js], sigma2, rng)
    j_hat = nearest_point(y, gains, constellation)
    labels = constellation.labels
    return int(np.bitwise_count(labels[js] ^ labels[j_hat]).sum())
