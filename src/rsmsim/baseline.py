"""Fully digital SVD baseline with equal-SNR mode power allocation.

The channel is diagonalized by its SVD; the strongest ``n_modes``
singular values carry independent streams whose transmit powers are
inversely proportional to the squared singular values, so every
activated mode sees the same received SNR. Detection happens in the
mode domain, which is statistically identical to applying the unitary
decoder to the antenna-domain signal, so a link keeps only its singular
values: a channel is factored once and :func:`received_power` redoes the
power split of a whole ensemble for every SNR point. :func:`fd_ber`
simulates a batch of links in one pass, each link on its own stream.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .phy import Constellation, add_complex_noise, nearest_point

__all__ = ["RankDeficient", "SvdLink", "svd_link", "received_power", "fd_ber"]

#: singular values below this fraction of the largest count as zero
RANK_TOL = 1e-10


class RankDeficient(ArithmeticError):
    """Channel does not support the requested number of modes."""


def _equal_snr_split(mode_gains: np.ndarray, power: float) -> np.ndarray:
    """Transmit power per mode, one split per row of ``(..., n_modes)`` gains."""
    if power <= 0:
        raise ValueError("power must be positive")
    inv_sq = 1.0 / mode_gains**2
    return power * inv_sq / inv_sq.sum(axis=-1, keepdims=True)


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


def received_power(mode_gains: np.ndarray, power: float) -> np.ndarray:
    """Received power per mode of ``(n_links, n_modes)`` gains at ``power``.

    Row ``i`` equals ``svd_link(h_i, power, n_modes).received_power_per_mode``
    bit for bit, where ``mode_gains[i]`` are the top singular values of h_i.
    """
    return _equal_snr_split(mode_gains, power) * mode_gains**2


def fd_ber(
    received: np.ndarray,
    constellation: Constellation,
    sigma2: float,
    words: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Monte Carlo bit errors of the baseline for a batch of links.

    ``received`` is the ``(n_links, n_modes)`` received power per mode
    and ``words`` the data words of the whole batch, ``words // n_links``
    per link. Each word sends one symbol per active mode; minimum-distance
    detection runs per mode at that mode's (equalized) received SNR.
    Link ``i`` draws its symbols and then its noise from ``rngs[i]``, so
    its count does not depend on the rest of the batch. Returns the
    ``(n_links,)`` error counts, each over ``words // n_links * n_modes *
    bits_per_symbol`` bits.
    """
    n_links, n_modes = received.shape
    if sigma2 <= 0 or n_links < 1 or words < n_links or words % n_links:
        raise ValueError("sigma2 must be positive and words a positive multiple of the links")
    if len(rngs) != n_links:
        raise ValueError("fd_ber needs one generator per link")
    trials = words // n_links
    js = np.empty((n_links, trials, n_modes), dtype=np.int64)
    for row, rng in zip(js, rngs):
        row[...] = rng.integers(0, constellation.order, size=(trials, n_modes))
    gains = np.sqrt(received)[:, None, :]  # per-mode amplitude
    y = add_complex_noise(gains * constellation.points[js], sigma2, rngs)
    j_hat = nearest_point(y, gains, constellation)
    labels = constellation.labels.astype(np.uint8)  # orders up to 64
    return np.bitwise_count(labels[js] ^ labels[j_hat]).sum(axis=(1, 2), dtype=np.int64)
