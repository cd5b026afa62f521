"""Fully digital SVD baseline with equal-SNR mode power allocation.

The channel is diagonalized by its SVD; the strongest ``n_modes``
singular values carry independent streams whose transmit powers are
inversely proportional to the squared singular values, so every
activated mode sees the same received SNR. Detection happens in the
mode domain, which is statistically identical to applying the unitary
decoder to the antenna-domain signal, so a link keeps only its singular
values: :func:`svd_link` factors a channel, or a stack of channels, once,
and :func:`received_power` splits each SNR point's power over the modes
of a whole ensemble. :func:`fd_ber` simulates a batch of links in
cache-sized pieces, each link on its own stream.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .phy import Constellation, add_complex_noise, nearest_point

__all__ = ["RankDeficient", "svd_link", "received_power", "fd_ber"]

#: singular values below this fraction of the largest count as zero
RANK_TOL = 1e-10

#: symbols per piece of an :func:`fd_ber` batch; a piece's arrays, about
#: 80 bytes per symbol, then stay within a core's cache
_PIECE_SYMBOLS = 1 << 14


class RankDeficient(ArithmeticError):
    """Channel does not support the requested number of modes."""


def svd_link(h: np.ndarray, n_modes: int) -> np.ndarray:
    """The top ``n_modes`` singular values of ``h``, its mode gains.

    ``h`` is one ``(n_rx, n_tx)`` channel, giving ``(n_modes,)`` gains, or
    a ``(links, n_rx, n_tx)`` stack factored by one call, giving
    ``(links, n_modes)``; each link's gains are bit-identical to factoring
    it alone. Raises :class:`RankDeficient` when fewer than ``n_modes``
    singular values exceed ``RANK_TOL`` times the largest, naming the
    first such channel of a stack.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    # The thin factorization, although only the singular values are kept:
    # its values are bit-identical to the full one's, while LAPACK's
    # values-only path rounds them differently.
    s = np.linalg.svd(np.asarray(h), full_matrices=False)[1]
    usable = np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)
    short = np.flatnonzero(usable < n_modes)
    if short.size:
        if s.ndim == 1:
            raise RankDeficient(f"channel supports {usable} modes, {n_modes} requested")
        first = int(short[0])
        raise RankDeficient(
            f"channel {first} supports {usable[first]} modes, {n_modes} requested"
        )
    return s[..., :n_modes]


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
    Link ``i`` draws its ``(trials, n_modes)`` symbols and then its noise
    from ``rngs[i]``, so its count does not depend on the rest of the
    batch. Returns the ``(n_links,)`` error counts, each over ``words //
    n_links * n_modes * bits_per_symbol`` bits.

    The batch runs in pieces of whole links of about ``_PIECE_SYMBOLS``
    symbols, so that each piece's arrays stay in a core's cache. A piece
    is held modes-major, ``(links, n_modes, trials)``: the amplitude and
    the slicer's scale of each (link, mode) broadcast along a contiguous
    trial axis, and only the symbol copy and the noise add follow the
    streams' trial-major order.
    """
    n_links, n_modes = received.shape
    if sigma2 <= 0 or n_links < 1 or words < n_links or words % n_links:
        raise ValueError("sigma2 must be positive and words a positive multiple of the links")
    if len(rngs) != n_links:
        raise ValueError("fd_ber needs one generator per link")
    trials = words // n_links
    labels = constellation.labels
    # Bit errors of every (sent, detected) pair, at sent * order + detected.
    errors = np.bitwise_count(labels[:, None] ^ labels).astype(np.uint8).ravel()
    step = max(1, _PIECE_SYMBOLS // (trials * n_modes))
    pieces = [slice(first, first + step) for first in range(0, n_links, step)]
    return np.concatenate(
        [
            _piece_errors(received[piece], constellation, sigma2, trials, rngs[piece], errors)
            for piece in pieces
        ]
    )


def _piece_errors(
    received: np.ndarray,
    constellation: Constellation,
    sigma2: float,
    trials: int,
    rngs: Sequence[np.random.Generator],
    errors: np.ndarray,
) -> np.ndarray:
    """The error counts of one piece of an :func:`fd_ber` batch."""
    (n_links, n_modes), order = received.shape, constellation.order
    sent = np.empty((n_links, n_modes, trials), dtype=np.int64)
    for row, rng in zip(sent, rngs):
        row.T[...] = rng.integers(0, order, size=(trials, n_modes))
    amplitude = np.sqrt(received)[..., None]
    y = constellation.points.take(sent)
    y *= amplitude
    add_complex_noise(y.swapaxes(1, 2), sigma2, rngs)
    sent *= order
    sent += nearest_point(y, amplitude, constellation)
    return errors.take(sent).sum(axis=(1, 2), dtype=np.int64)
