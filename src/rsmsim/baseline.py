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
cache-sized pieces, each link on its own stream: a link draws its
symbols, and then both parts of its noise in one call, whatever the
constellation. Every formed sample is detected by
:func:`~rsmsim.phy.nearest_point`. Square QAM, the baseline's
constellation, first tries a shortcut: each sample is decided from its
sent levels and its scaled noise, so that a piece costs little beyond
its random draws. The shortcut settles a whole piece or none of it; a
piece it does not settle forms its samples from the same draw, as every
piece of every other constellation does.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from .buffers import SCRATCH_SLACK, BlockBuffers, Scratch
from .phy import (
    Constellation,
    _bit_errors,
    _decide_qam,
    _nearest_work_bytes,
    nearest_point,
)

__all__ = ["RankDeficient", "svd_link", "received_power", "fd_ber"]

#: singular values below this fraction of the largest count as zero
RANK_TOL = 1e-10

#: symbols per piece of an :func:`fd_ber` batch; a piece's arrays then
#: stay within a core's cache. Per symbol: 8 bytes for the sent index, 16
#: for the received sample (for square QAM, its level coordinates) and, in
#: the scratch of :func:`_piece_counts`, 16 for both noise parts, 40 in
#: all for the full search. Square QAM keeps the noise beside 8 for the
#: detected symbols and 19 for the decision's arrays, 67 in all; once a
#: piece's samples are formed, the detected symbols and the slicer's
#: arrays take the spent noise's place, 8 + 35 for square QAM and 8 + 18
#: for PSK (50 in all).
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
    from ``rngs[i]``, in the stream order of
    :func:`~rsmsim.phy.add_complex_noise`, so its count does not depend on
    the rest of the batch. Returns the ``(n_links,)`` error counts, each
    over ``words // n_links * n_modes * bits_per_symbol`` bits.

    The batch runs in pieces of whole links of about ``_PIECE_SYMBOLS``
    symbols, so that each piece's arrays stay in a core's cache. A piece
    is held modes-major, ``(links, n_modes, trials)``: the amplitude and
    the slicer's scale of each (link, mode) broadcast along a contiguous
    trial axis, and only the symbols and the noise follow the streams'
    trial-major order. In each piece (:func:`_piece_counts`) a link draws
    its real and then its imaginary noise parts in one call. Square QAM
    first decides each sample from its sent levels and its scaled noise,
    without forming it; that decision settles the whole piece or none of
    it. Every other piece forms its samples from the same draw, and every
    formed sample goes through :func:`nearest_point`. Every piece works
    in the same arrays from ``buffers``: the sent symbols, the received
    samples (for square QAM, first their level coordinates) and one flat
    scratch array. On a set that an earlier batch of the thread's already
    sized, a batch allocates no array of its pieces' size; only the full
    search, of a constellation that is not sliced or of the samples a
    slicer cannot prove, takes arrays of its own.
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
    # Bytes per symbol: both noise parts, or the detected symbols and the
    # slicer's arrays. Square QAM keeps the noise beside its detected
    # symbols and its decision's arrays, as many bytes as the slicer's
    # coordinates, which it forms in ``y``, would take beside them.
    per_symbol = max(16, 8 + _nearest_work_bytes(constellation))
    work = buffers.get("work", (sent.size * per_symbol + SCRATCH_SLACK,), np.uint8)
    counts = np.empty(n_links, dtype=np.int64)
    for first in range(0, n_links, step):
        piece, links = slice(first, first + step), min(step, n_links - first)
        counts[piece] = _piece_counts(
            received[piece], constellation, sigma2, rngs[piece], sent[:links], y[:links], work
        )
    return counts


def _piece_counts(
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
    (complex) and the flat scratch ``work``.

    The received samples, the point times the amplitude plus each noise
    part times ``sqrt(sigma2 / 2)``, are formed in ``y`` and detected by
    :func:`nearest_point`. Square QAM first tries a shortcut that settles
    the whole piece or none of it: each axis's coordinate, in level
    spacings, is the sent level plus the noise scaled by ``sqrt(sigma2 /
    2) / (amplitude * step)``; it is formed in the float view of ``y``
    and decided by :func:`~rsmsim.phy._decide_qam`, the decision step of
    :func:`nearest_point`, whose docstring proves these coordinates close
    enough. When that step proves every sample of the piece, the piece is
    counted from its decisions; otherwise the piece's samples are formed
    over the spent coordinates and take the path of every other
    constellation.
    """
    n_links, n_modes, trials = sent.shape
    scratch = Scratch(work)
    # A link's symbols, then its real noise parts and its imaginary ones in
    # one draw: the stream order of the two draws of ``add_complex_noise``.
    noise = scratch.take((n_links, 2, trials, n_modes), np.float64)
    for row, rows, rng in zip(sent, noise, rngs):
        row.T[...] = rng.integers(0, constellation.order, size=(trials, n_modes))
        rng.standard_normal(out=rows)
    amplitude = np.sqrt(received)[..., None]
    if constellation._qam_step is not None:
        side = math.isqrt(constellation.order)
        j_hat = scratch.take(sent.shape, np.int64)
        # The float view of ``y`` holds the real coordinates, then the imaginary.
        t = y.reshape(-1).view(np.float64).reshape(2, *sent.shape)
        with np.errstate(all="ignore"):
            gain = math.sqrt(sigma2 / 2.0) / (amplitude * constellation._qam_step)
            # The scaled noise takes the front of the bytes the decision takes next.
            scaled = Scratch(scratch.rest()).take(sent.shape, np.float64)
            for levels, part, axis in zip(_axis_levels(side), noise.swapaxes(0, 1), t):
                levels.take(sent, out=axis, mode="clip")
                axis += np.multiply(part.transpose(0, 2, 1), gain, out=scaled)
        if _decide_qam(t, amplitude, side, j_hat, scratch).all():
            return _bit_errors(constellation, sent, j_hat, work)
    # Every index is in range, so clipping changes none; unlike the default
    # mode it writes into ``out`` directly.
    constellation.points.take(sent, out=y, mode="clip")
    y *= amplitude
    noise *= math.sqrt(sigma2 / 2.0)
    for part, drawn in zip((y.real, y.imag), noise.swapaxes(0, 1)):
        part += drawn.transpose(0, 2, 1)
    # The noise is spent: the detection takes its bytes.
    tail = Scratch(work)
    j_hat = tail.take(sent.shape, np.int64)
    nearest_point(y, amplitude, constellation, out=j_hat, work=tail.rest())
    return _bit_errors(constellation, sent, j_hat, work)


@functools.cache
def _axis_levels(side: int) -> np.ndarray:
    """The column and the row level of each square-QAM point ``col * side
    + row``, as a read-only ``(2, side**2)`` float array."""
    levels = np.array(np.divmod(np.arange(side * side), side), dtype=np.float64)
    levels.flags.writeable = False
    return levels
