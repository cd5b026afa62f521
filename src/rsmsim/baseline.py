"""Fully digital SVD baseline with equal-SNR mode power allocation.

The channel is diagonalized by its SVD; the strongest ``n_modes``
singular values carry independent streams whose transmit powers are
inversely proportional to the squared singular values, so every
activated mode sees the same received SNR. Detection happens in the
mode domain, which is statistically identical to applying the unitary
decoder to the antenna-domain signal, so a link keeps only its singular
values: :func:`svd_link` factors a channel once, and
:func:`received_power` splits each SNR point's power over the modes of a
whole ensemble. :func:`fd_ber`
simulates a batch of links in one pass, each link on its own stream.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .phy import Constellation, add_complex_noise, nearest_point

__all__ = ["RankDeficient", "svd_link", "received_power", "fd_ber"]

#: singular values below this fraction of the largest count as zero
RANK_TOL = 1e-10


class RankDeficient(ArithmeticError):
    """Channel does not support the requested number of modes."""


def svd_link(h: np.ndarray, n_modes: int) -> np.ndarray:
    """The top ``n_modes`` singular values of ``h``, its mode gains.

    Raises :class:`RankDeficient` when fewer than ``n_modes`` singular
    values exceed ``RANK_TOL`` times the largest.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    # The full factorization, although only the singular values are kept:
    # LAPACK's values-only path rounds them differently.
    s = np.linalg.svd(np.asarray(h))[1]
    usable = int(np.sum(s > RANK_TOL * s[0])) if s.size else 0
    if usable < n_modes:
        raise RankDeficient(
            f"channel supports {usable} modes, {n_modes} requested"
        )
    return s[:n_modes]


def received_power(mode_gains: np.ndarray, power: float) -> np.ndarray:
    """Received power per mode of ``(..., n_modes)`` gains at total ``power``.

    The equal-SNR split: mode ``k`` transmits ``power * g_k^-2 /
    sum(g^-2)``, so every mode of a link receives the same power.
    """
    if power <= 0:
        raise ValueError("power must be positive")
    inv_sq = 1.0 / mode_gains**2
    return power * inv_sq / inv_sq.sum(axis=-1, keepdims=True) * mode_gains**2


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
