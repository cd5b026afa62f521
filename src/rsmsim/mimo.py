"""Zero-forcing precoding and exhaustive receive-antenna selection.

The precoder is the right pseudoinverse of the active-antenna channel,
so every active antenna receives its own stream without interference.
The per-link power normalization factor ``alpha`` equals
1 / trace((H_a H_a^H)^-1); antenna selection maximizes it over all
subsets of the requested size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularChannel",
    "TooManySubsets",
    "AntennaSelection",
    "Precoder",
    "zf_precoder",
    "select_antennas",
    "selection_for_indices",
]

#: reciprocal-condition floor below which the active channel is treated as singular
RCOND_MIN = 1e-12

#: cap on the number of subsets :func:`select_antennas` enumerates
MAX_SUBSETS = 10**6


class SingularChannel(ArithmeticError):
    """The active-antenna channel is numerically rank deficient."""


class TooManySubsets(ValueError):
    """Exhaustive enumeration would exceed the configured subset cap."""


@dataclass(frozen=True)
class Precoder:
    """Zero-forcing precoding matrix (n_tx, n_active) and its power factor."""

    matrix_b: np.ndarray
    alpha: float


@dataclass(frozen=True)
class AntennaSelection:
    """Chosen active-antenna subset, its power factor, its channel rows and
    their Gram matrix ``h_active @ h_active^H``."""

    active_indices: tuple[int, ...]
    alpha: float
    h_active: np.ndarray
    gram: np.ndarray


def _power_factor(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ZF power factor of one row set ``(n_active, n_tx)`` or of a stack
    ``(n_sets, n_active, n_tx)`` of them.

    Returns the row Gram matrices, their reciprocal conditions (0 where
    the Gram matrix has no positive eigenvalue) and ``alpha = 1 /
    sum(1 / eig)``; alpha is 0 wherever the smallest eigenvalue is not
    positive or the reciprocal condition is below ``RCOND_MIN``.
    """
    gram = rows @ np.swapaxes(rows.conj(), -1, -2)
    eigs = np.linalg.eigvalsh(gram)
    low, high = eigs[..., 0], eigs[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rcond = np.where(high > 0.0, np.maximum(low / high, 0.0), 0.0)
        alpha = 1.0 / np.sum(1.0 / eigs, axis=-1)
    return gram, rcond, np.where((low > 0.0) & (rcond >= RCOND_MIN), alpha, 0.0)


def zf_precoder(channel: np.ndarray | AntennaSelection) -> Precoder:
    """Build the zero-forcing precoder B = H_a^H (H_a H_a^H)^-1.

    ``channel`` is the active-antenna channel H_a, or an
    :class:`AntennaSelection`, whose Gram matrix and alpha are reused
    rather than computed again. Raises :class:`SingularChannel` where
    :func:`_power_factor` gives alpha 0.
    """
    if isinstance(channel, AntennaSelection):
        h_active, gram, alpha = channel.h_active, channel.gram, channel.alpha
    else:
        h_active = np.asarray(channel)
        gram, rcond, alpha = _power_factor(h_active)
        if alpha == 0.0:
            raise SingularChannel(
                f"active channel is numerically singular (rcond={rcond:.3e})"
            )
        alpha = float(alpha)
    b = h_active.conj().T @ np.linalg.inv(gram)
    # Both alpha expressions coincide for a zero-forcing precoder; a large
    # gap flags numerical trouble upstream of the rcond guard.
    alpha_from_b = 1.0 / float(np.real(np.trace(b.conj().T @ b)))
    if not math.isclose(alpha, alpha_from_b, rel_tol=1e-6):
        raise SingularChannel(
            f"inconsistent power factor: {alpha:.6e} vs {alpha_from_b:.6e}"
        )
    return Precoder(matrix_b=b, alpha=alpha)


def selection_for_indices(h: np.ndarray, indices: tuple[int, ...]) -> AntennaSelection:
    """Selection record for a caller-chosen antenna subset (no search)."""
    indices = tuple(sorted(int(i) for i in indices))
    h_active = np.asarray(h)[list(indices), :]
    gram, rcond, alpha = _power_factor(h_active)
    if alpha == 0.0:
        raise SingularChannel(
            f"subset {indices} is numerically singular (rcond={rcond:.3e})"
        )
    return AntennaSelection(
        active_indices=indices, alpha=float(alpha), h_active=h_active, gram=gram
    )


def select_antennas(h: np.ndarray, n_active: int) -> AntennaSelection:
    """Pick the antenna subset maximizing the received power factor.

    Every subset is enumerated; subsets that :func:`_power_factor` rejects
    are skipped, and ties break toward the lexicographically smallest
    index tuple. Raises :class:`TooManySubsets` beyond
    :data:`MAX_SUBSETS` subsets.
    """
    h = np.asarray(h)
    n_rx = h.shape[0]
    if n_active > n_rx:
        raise ValueError(f"n_active={n_active} exceeds n_rx={n_rx}")
    n_subsets = math.comb(n_rx, n_active)
    if n_subsets > MAX_SUBSETS:
        raise TooManySubsets(
            f"C({n_rx},{n_active}) = {n_subsets} subsets exceeds cap {MAX_SUBSETS}"
        )
    combos = np.array(list(itertools.combinations(range(n_rx), n_active)))
    grams, _, alphas = _power_factor(h[combos])  # rows (n_subsets, n_active, n_tx)
    best = int(np.argmax(alphas))  # first hit wins: lexicographic tie-break
    if alphas[best] == 0.0:
        raise SingularChannel("every candidate subset is numerically singular")
    indices = tuple(int(i) for i in combos[best])
    return AntennaSelection(
        active_indices=indices,
        alpha=float(alphas[best]),
        h_active=h[list(indices)],
        gram=grams[best].copy(),
    )
