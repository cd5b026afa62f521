"""Zero-forcing precoding and exhaustive receive-antenna selection.

The precoder is the right pseudoinverse of the active-antenna channel,
so every active antenna receives its own stream without interference.
The per-link power normalization factor ``alpha`` equals
1 / trace((H_a H_a^H)^-1); antenna selection maximizes it over all
subsets of the requested size, and a caller-chosen subset is scored as
a search over that one subset. The precoder is built from a selection
and reuses its Gram matrix. ZF is sound on a subset, and ``H_a B`` as
near the identity as the detector, the ABEP and the block assume, when
its Gram matrix's reciprocal condition is at least :data:`RCOND_MIN`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularChannel",
    "TooManySubsets",
    "AntennaSelection",
    "zf_precoder",
    "check_subset_count",
    "select_antennas",
    "selection_for_indices",
]

#: reciprocal-condition floor below which the active channel is treated as singular
RCOND_MIN = 1e-8

#: cap on the number of subsets :func:`select_antennas` enumerates
MAX_SUBSETS = 10**6


class SingularChannel(ArithmeticError):
    """The active-antenna channel is numerically rank deficient."""


class TooManySubsets(ValueError):
    """Exhaustive enumeration would exceed the configured subset cap."""


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
    sum(1 / eig)``; alpha is 0 wherever the reciprocal condition is below
    ``RCOND_MIN``, the one ZF soundness rule: ``H_a B - I = G inv(G) - I``
    for the Gram matrix G, which a computed inverse leaves within about
    ``3 eps / rcond`` (measured), so under 7e-8 at the floor.
    """
    gram = rows @ np.swapaxes(rows.conj(), -1, -2)
    eigs = np.linalg.eigvalsh(gram)
    low, high = eigs[..., 0], eigs[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rcond = np.where(high > 0.0, np.maximum(low / high, 0.0), 0.0)
        alpha = 1.0 / np.sum(1.0 / eigs, axis=-1)
    return gram, rcond, np.where(rcond >= RCOND_MIN, alpha, 0.0)


def zf_precoder(selection: AntennaSelection) -> np.ndarray:
    """The zero-forcing precoder B = H_a^H (H_a H_a^H)^-1 of a selection,
    from its Gram matrix; its power factor ``1 / tr(B^H B)`` is
    ``selection.alpha``, and the selection's rcond floor bounds ``|H_a B -
    I|`` (:func:`_power_factor`)."""
    return selection.h_active.conj().T @ np.linalg.inv(selection.gram)


def _best_subset(h: np.ndarray, subsets: np.ndarray) -> AntennaSelection:
    """The first of the index rows ``subsets`` ``(n_sets, n_active)`` of
    ``h`` with the largest power factor; rows that :func:`_power_factor`
    rejects are skipped, and :class:`SingularChannel` is raised when it
    rejects them all."""
    grams, rcond, alphas = _power_factor(h[subsets])  # (n_sets, n_active, n_tx) rows
    best = int(np.argmax(alphas))  # first hit wins: lexicographic tie-break
    if alphas[best] == 0.0:
        raise SingularChannel(
            f"every candidate subset is numerically singular (largest rcond={rcond.max():.3e})"
        )
    indices = tuple(int(i) for i in subsets[best])
    return AntennaSelection(
        active_indices=indices,
        alpha=float(alphas[best]),
        h_active=h[list(indices)],
        gram=grams[best].copy(),
    )


def selection_for_indices(h: np.ndarray, indices: Iterable[int]) -> AntennaSelection:
    """Selection record for a caller-chosen antenna subset, scored as a
    search over that one subset."""
    return _best_subset(np.asarray(h), np.array([sorted(int(i) for i in indices)]))


def check_subset_count(n_rx: int, n_active: int) -> None:
    """Raise :class:`TooManySubsets` when exhaustive selection of
    ``n_active`` of ``n_rx`` antennas would enumerate more than
    :data:`MAX_SUBSETS` subsets."""
    n_subsets = math.comb(n_rx, n_active)
    if n_subsets > MAX_SUBSETS:
        raise TooManySubsets(
            f"n_active = {n_active} of n_rx = {n_rx} under selection = exhaustive: "
            f"C({n_rx},{n_active}) = {n_subsets} subsets exceeds cap {MAX_SUBSETS}"
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
    check_subset_count(n_rx, n_active)
    return _best_subset(h, np.array(list(itertools.combinations(range(n_rx), n_active))))
