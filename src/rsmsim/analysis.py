"""Closed-form error analysis for the RSM link.

Spatial bit errors come from the Rice/Rayleigh envelope tails around
the detection threshold (Marcum Q with a perfect threshold, non-central
and doubly non-central t CDFs when the threshold is pilot-estimated).
Modulation bit errors are summed over the count classes of a
transmitted/detected spatial word pair: a pair's product-Bernoulli
transition probability and its combining SNR depend only on how many
antennas agree and disagree, so one term per class (weighted by the
number of pairs in it) replaces the 4^n pair enumeration with O(n^3)
terms. The Gray-coded constellation BEP is applied at each class's
combining SNR. The overall average bit error probability is the
rate-weighted mix of the two.

For non-constant-modulus constellations the energized-branch envelope
depends on which symbol was sent, so the miss probability is averaged
over the constellation's power levels; for PSK this collapses to the
single-amplitude expression.

Every function takes arrays over a link ensemble as well as scalars, so
one SNR point of a whole ensemble costs one call per kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phy import Constellation, threshold
from .specfun import (
    doubly_noncentral_t_cdf,
    gaussian_q,
    marcum_q1,
    noncentral_t_cdf,
)

__all__ = [
    "AbepBreakdown",
    "spatial_error_probs_perfect",
    "spatial_error_probs_estimated",
    "modulation_error_prob",
    "constellation_bep",
    "abep",
]


def _scalar_or_array(value) -> float | np.ndarray:
    """A float for a 0-d result, otherwise the array itself."""
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class AbepBreakdown:
    """Per-SNR error probabilities: spatial, modulation, and their mix.

    Fields are floats for one link and arrays over the links of an
    ensemble; in an array, NaN marks a link left out (see :func:`abep`).
    """

    p_es: float | np.ndarray
    p_em: float | np.ndarray
    abep: float | np.ndarray
    p1: float | np.ndarray
    p0: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("p_es", "p_em", "abep", "p1", "p0"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.ndim:
                value = value[~np.isnan(value)]
            if not np.all((0.0 <= value) & (value <= 1.0)):
                raise ValueError(f"{name} must be a probability, got {getattr(self, name)!r}")


def spatial_error_probs_perfect(
    gamma: float | np.ndarray, alpha_p: float | np.ndarray, sigma2: float
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Miss and false-alarm probabilities with a known threshold.

    P1 is the Rice CDF of an energized branch (amplitude sqrt(alpha_p))
    at gamma; P0 is the Rayleigh tail of a silent branch above gamma.
    ``gamma`` and ``alpha_p`` may be arrays: P1 broadcasts over both,
    while P0 depends on ``gamma`` alone and keeps its shape, so a second
    power axis on ``alpha_p`` does not repeat the false-alarm tail.
    """
    gamma = np.asarray(gamma, dtype=float)
    alpha_p = np.asarray(alpha_p, dtype=float)
    if np.any(gamma < 0) or np.any(alpha_p < 0) or sigma2 <= 0:
        raise ValueError("gamma, alpha_p must be >= 0 and sigma2 > 0")
    sigma = math.sqrt(sigma2)
    p1 = 1.0 - marcum_q1(np.sqrt(2.0 * alpha_p) / sigma, math.sqrt(2.0) * gamma / sigma)
    p0 = np.exp(-gamma * gamma / sigma2)
    return _scalar_or_array(p1), _scalar_or_array(p0)


def spatial_error_probs_estimated(
    stats: tuple, alpha_p: float | np.ndarray, sigma2: float
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Miss/false-alarm probabilities under a Gaussian threshold estimate.

    ``stats`` is the (mean, variance) of the estimated threshold. The
    ratio of the Gaussian threshold to a Rice envelope is a doubly
    non-central t variate (2 degrees of freedom, numerator
    non-centrality mean/std, denominator non-centrality
    2*alpha_p/sigma2); against a Rayleigh envelope the denominator
    non-centrality vanishes. ``alpha_p`` must be positive. Array
    arguments broadcast as in :func:`spatial_error_probs_perfect`: P0
    takes the shape of ``stats``.
    """
    mean, variance = (np.asarray(v, dtype=float) for v in stats)
    if np.any(variance <= 0):
        raise ValueError("threshold estimate variance must be positive")
    std = np.sqrt(variance)
    delta = mean / std
    ratio = math.sqrt(sigma2) / std
    lam = 2.0 * np.asarray(alpha_p, dtype=float) / sigma2
    p1 = 1.0 - doubly_noncentral_t_cdf(ratio, 2.0, delta, lam)
    p0 = noncentral_t_cdf(ratio, 2.0, delta)
    return _scalar_or_array(p1), _scalar_or_array(p0)


def _power_levels(constellation: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Distinct symbol power levels and their probabilities."""
    powers = np.round(np.abs(constellation.points) ** 2, 12)
    levels, counts = np.unique(powers, return_counts=True)
    return levels, counts / counts.sum()


def _near_neighbours(constellation: Constellation) -> list[tuple[int, float]]:
    """(Hamming distance, Euclidean distance) of every near-neighbour pair.

    The 4+12 APSK layout has a second distance shell under 4% beyond the
    first, so the neighbourhood window is 1.10 * d_min.
    """
    points = constellation.points
    bits = constellation.label_bits
    pairs = []
    for i in range(constellation.order):
        dists = np.abs(points - points[i])
        dists[i] = np.inf
        d_min = float(dists.min())
        for j in np.flatnonzero(dists <= d_min * 1.10):
            pairs.append((int(np.sum(bits[i] != bits[j])), float(dists[j])))
    return pairs


def constellation_bep(constellation: Constellation, snr: float | np.ndarray) -> float | np.ndarray:
    """Gray-coded approximate bit error probability at the given SNR.

    PSK and square QAM use the standard closed forms; 16-APSK uses a
    nearest-neighbour union bound over the 4+12 layout. These are
    approximations tied to Gray labeling, good to roughly 10% through
    the waterfall region. ``snr`` may be an array of any shape.
    """
    snr = np.asarray(snr, dtype=float)
    if np.any(snr < 0):
        raise ValueError("snr must be nonnegative")
    m = constellation.order
    k = constellation.bits_per_symbol
    if constellation.kind == "psk":
        if m == 2:
            return gaussian_q(np.sqrt(2.0 * snr))
        bep = np.minimum(
            1.0, (2.0 / k) * gaussian_q(np.sqrt(2.0 * snr) * math.sin(math.pi / m))
        )
    elif constellation.kind == "qam":
        bep = np.minimum(
            1.0,
            (4.0 / k) * (1.0 - 1.0 / math.sqrt(m)) * gaussian_q(np.sqrt(3.0 * snr / (m - 1))),
        )
    else:
        # Near-neighbour union bound, weighting each pair by its Hamming
        # distance under the shipped labeling; measured against Monte
        # Carlo this keeps the bound within ~6% through the 10-18 dB
        # waterfall.
        total = 0.0
        for d_h, dist in _near_neighbours(constellation):
            total = total + d_h * gaussian_q(dist * np.sqrt(snr / 2.0))
        bep = np.minimum(1.0, total / (m * k))
    return _scalar_or_array(bep)


def _count_classes(n_active: int) -> tuple[np.ndarray, ...]:
    """Count classes (w, b11, b01) of sent/detected word pairs.

    ``w`` is the weight of the sent word (1..n), ``b11`` how many of its
    energized antennas are flagged and ``b01`` how many of its silent
    ones are; the class holds C(n,w)*C(w,b11)*C(n-w,b01) word pairs.
    """
    rows = [
        (w, b11, b01, math.comb(n_active, w) * math.comb(w, b11) * math.comb(n_active - w, b01))
        for w in range(1, n_active + 1)
        for b11 in range(w + 1)
        for b01 in range(n_active - w + 1)
    ]
    return tuple(np.array(column, dtype=float) for column in zip(*rows))


def modulation_error_prob(
    constellation: Constellation,
    alpha_p: float | np.ndarray,
    sigma2: float,
    n_active: int,
    p1: float | np.ndarray,
    p0: float | np.ndarray,
) -> float | np.ndarray:
    """Average modulation bit error probability over spatial transitions.

    Sent words are uniform over the 2^n_active - 1 legal ones; detected
    words range over all 2^n_active, including all-zero. Antennas are
    energized and flagged (b11), energized but missed (b10), silent but
    flagged (b01) or silent and unflagged (b00). A pair's probability
    p1^b10 (1-p1)^b11 p0^b01 (1-p0)^b00 and its combining SNR
    b11^2 / (b11 + b01) * alpha_p / sigma2 depend only on these counts,
    so the sum runs over the count classes of :func:`_count_classes`.
    A class with no correctly flagged branch leaves the combiner with
    noise only, so its conditional BEP is 1/2.

    ``alpha_p``, ``p1`` and ``p0`` may be arrays over links; they
    broadcast together and one :func:`constellation_bep` call covers
    every (link, class) pair.
    """
    alpha_p, p1, p0 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float)[..., None] for v in (alpha_p, p1, p0))
    )
    if not (np.all((0.0 <= p1) & (p1 <= 1.0)) and np.all((0.0 <= p0) & (p0 <= 1.0))):
        raise ValueError("p1 and p0 must be probabilities")
    w, b11, b01, multiplicity = _count_classes(n_active)
    b10 = w - b11
    b00 = n_active - w - b01
    prob = p1**b10 * (1.0 - p1) ** b11 * p0**b01 * (1.0 - p0) ** b00
    flagged = b11 > 0
    bep = np.full(prob.shape, 0.5)
    bep[..., flagged] = constellation_bep(
        constellation,
        b11[flagged] ** 2 / (b11[flagged] + b01[flagged]) * (alpha_p / sigma2),
    )
    total = (multiplicity * bep * prob).sum(axis=-1) / ((1 << n_active) - 1)
    return _scalar_or_array(total)


def _point_fields(
    constellation: Constellation,
    n_active: int,
    alpha_p: np.ndarray,
    sigma2: float,
    gamma: np.ndarray | None = None,
    stats: np.ndarray | None = None,
) -> np.ndarray:
    """(p_es, p_em, abep, p1, p0) of one SNR point, one column per link.

    ``alpha_p`` holds each link's power factor at the point. Give either
    the designed thresholds ``gamma`` of a known threshold, or the
    ``(n_links, 2)`` (mean, variance) ``stats`` of a pilot-estimated one;
    a link whose stats are NaN is NaN in every field.
    """
    levels, weights = _power_levels(constellation)
    # One column per constellation power level feeds the miss tail.
    if stats is None:
        kept = np.ones(alpha_p.size, dtype=bool)
        p1_levels, p0 = spatial_error_probs_perfect(
            gamma[:, None], alpha_p[:, None] * levels, sigma2
        )
    else:
        kept = ~np.isnan(stats[:, 1])
        p1_levels, p0 = spatial_error_probs_estimated(
            (stats[kept, :1], stats[kept, 1:]), alpha_p[kept, None] * levels, sigma2
        )
    # Level average, accumulated level by level as a scalar loop would.
    p1 = sum(float(wt) * p1_levels[:, i] for i, wt in enumerate(weights))
    p0 = p0[:, 0]
    p_es = 0.5 * (p1 + p0)
    p_em = modulation_error_prob(constellation, alpha_p[kept], sigma2, n_active, p1, p0)
    k = constellation.bits_per_symbol
    value = (n_active * p_es + k * p_em) / (n_active + k)
    fields = np.full((5, alpha_p.size), np.nan)
    fields[:, kept] = (p_es, p_em, value, p1, p0)
    return fields


def abep(
    constellation: Constellation,
    n_active: int,
    alpha: float | np.ndarray,
    snr_db_grid,
    threshold_mode: str = "hsa",
    n_pilot_samples: int | None = None,
    sigma2: float = 1.0,
) -> list[tuple[float, AbepBreakdown]]:
    """Average bit error probability across an SNR grid.

    ``alpha`` is the zero-forcing power factor of the link under study,
    or a 1-D array of them for a link ensemble; each grid point has
    transmit power 10^(snr_db/10) * sigma2. With ``n_pilot_samples``
    set, the spatial probabilities model a threshold estimated from that
    many pilot envelopes (high-SNR design); otherwise the threshold of
    ``threshold_mode`` is assumed known.

    For an array ``alpha`` every breakdown field is an array over the
    links, and each tail kernel runs once per grid point for all of
    them. A link whose threshold estimate has a singular Fisher matrix
    is NaN in every field of that grid point; for a scalar ``alpha`` the
    :class:`~rsmsim.training.SingularFisher` propagates instead.
    """
    from .training import SingularFisher, threshold_estimate_stats  # local: avoid cycle at import

    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim > 1:
        raise ValueError("alpha must be a scalar or a 1-D array")
    if np.any(alphas <= 0) or sigma2 <= 0:
        raise ValueError("alpha and sigma2 must be positive")
    links = np.atleast_1d(alphas)
    beta = constellation.beta
    out: list[tuple[float, AbepBreakdown]] = []
    for snr_db in snr_db_grid:
        alpha_p = links * sigma2 * 10.0 ** (float(snr_db) / 10.0)
        if n_pilot_samples is None:
            gamma = [threshold(threshold_mode, a, sigma2, beta) for a in alpha_p.tolist()]
            fields = _point_fields(constellation, n_active, alpha_p, sigma2, gamma=np.array(gamma))
        else:
            stats = np.full((links.size, 2), np.nan)
            for i, a in enumerate(alpha_p.tolist()):
                try:
                    stats[i] = threshold_estimate_stats(beta * a, sigma2, n_pilot_samples)
                except SingularFisher:
                    if alphas.ndim == 0:
                        raise
            fields = _point_fields(constellation, n_active, alpha_p, sigma2, stats=stats)
        if alphas.ndim == 0:
            fields = fields[:, 0].tolist()
        out.append((float(snr_db), AbepBreakdown(*fields)))
    return out
