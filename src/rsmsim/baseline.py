"""Fully digital SVD baseline with equal-SNR mode power allocation.

The channel is diagonalized by its SVD; the strongest ``n_modes``
singular values carry independent streams whose transmit powers are
inversely proportional to the squared singular values, so every
activated mode sees the same received SNR. Detection happens in the
mode domain, which is statistically identical to applying the unitary
decoder to the antenna-domain signal, so a link keeps only its singular
values: :func:`svd_link` factors a stack of channels once, and
:func:`received_power` splits each SNR point's power over the modes of a
whole ensemble. :func:`fd_ber` simulates a batch of links in
cache-sized pieces, each link on its own stream.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .buffers import SCRATCH_SLACK, BlockBuffers, Scratch
from .phy import Constellation, _nearest_work_bytes, add_complex_noise, nearest_point

__all__ = ["RankDeficient", "svd_link", "received_power", "fd_ber"]

#: singular values below this fraction of the largest count as zero
RANK_TOL = 1e-10

#: symbols per piece of an :func:`fd_ber` batch; a piece's arrays, 67
#: bytes per symbol for square QAM (8 for the sent index, 16 for the
#: received sample and 8 + 35 for the scratch of :func:`_piece_errors`),
#: then stay within a core's cache
_PIECE_SYMBOLS = 1 << 14


class RankDeficient(ArithmeticError):
    """Channel does not support the requested number of modes."""


def svd_link(h: np.ndarray, n_modes: int) -> np.ndarray:
    """The top ``n_modes`` singular values of each channel, its mode gains.

    ``h`` is a ``(links, n_rx, n_tx)`` stack factored by one call, giving
    ``(links, n_modes)`` gains; each link's gains are bit-identical to
    factoring it alone. Raises :class:`RankDeficient` when fewer than
    ``n_modes`` singular values of a channel exceed ``RANK_TOL`` times its
    largest, naming the first such channel.
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
    buffers: BlockBuffers,
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
    streams' trial-major order. Every piece works in the same arrays from
    ``buffers``: the sent symbols, the received samples and one flat
    scratch array, which holds the noise rows, then the detected symbols
    and the slicer's arrays, then each symbol's bit errors. On a set that
    an earlier batch of the thread's already sized, a batch allocates no
    array of its pieces' size; only the full search of a constellation
    that is not sliced allocates its own.
    """
    n_links, n_modes = received.shape
    if sigma2 <= 0 or n_links < 1 or words < n_links or words % n_links:
        raise ValueError("sigma2 must be positive and words a positive multiple of the links")
    if len(rngs) != n_links:
        raise ValueError("fd_ber needs one generator per link")
    trials = words // n_links
    step = max(1, _PIECE_SYMBOLS // (trials * n_modes))
    cells = (min(step, n_links), n_modes, trials)
    sent = buffers.get("sent", cells, np.int64)
    y = buffers.get("y", cells, complex)
    # Bytes per symbol: the detected symbols and the slicer's arrays, which
    # cover the noise rows.
    per_symbol = 8 + _nearest_work_bytes(constellation)
    work = buffers.get("work", (sent.size * per_symbol + SCRATCH_SLACK,), np.uint8)
    counts = np.empty(n_links, dtype=np.int64)
    for first in range(0, n_links, step):
        piece, links = slice(first, first + step), min(step, n_links - first)
        counts[piece] = _piece_errors(
            received[piece], constellation, sigma2, rngs[piece], sent[:links], y[:links], work
        )
    return counts


def _piece_errors(
    received: np.ndarray,
    constellation: Constellation,
    sigma2: float,
    rngs: Sequence[np.random.Generator],
    sent: np.ndarray,
    y: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """The error counts of one piece of an :func:`fd_ber` batch, in the
    ``(links, n_modes, trials)`` arrays ``sent`` (int64) and ``y``
    (complex) and the flat scratch ``work``."""
    n_links, n_modes, trials = sent.shape
    order = constellation.order
    for row, rng in zip(sent, rngs):
        row.T[...] = rng.integers(0, order, size=(trials, n_modes))
    amplitude = np.sqrt(received)[..., None]
    # Every index is in range, so clipping changes none; unlike the default
    # mode it writes into ``out`` directly.
    constellation.points.take(sent, out=y, mode="clip")
    y *= amplitude
    noise = Scratch(work).take((n_links, trials, n_modes), np.float64)
    add_complex_noise(y.swapaxes(1, 2), sigma2, rngs, rows=noise)
    tail = Scratch(work)
    j_hat = tail.take(sent.shape, np.int64)
    sent *= order
    sent += nearest_point(y, amplitude, constellation, out=j_hat, work=tail.rest())
    errors = Scratch(work).take(sent.shape, np.uint8)
    return constellation.pair_errors.take(sent, out=errors, mode="clip").sum(
        axis=(1, 2), dtype=np.int64
    )
