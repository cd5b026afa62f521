"""Closed-form error analysis for the RSM link.

Spatial bit errors come from the Rice/Rayleigh envelope tails around
the detection threshold (Marcum Q with a perfect threshold; the closed
2-dof non-central t and the doubly non-central t CDFs when the
threshold is pilot-estimated).
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

Every kernel takes arrays over a link ensemble and returns arrays, and
:func:`abep` evaluates one SNR point of a whole ensemble with one call
per kernel, for a known or a pilot-estimated threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ``threshold`` is unused here: bench/spans.py wraps rsmsim.analysis.threshold.
from .phy import Constellation, threshold  # noqa: F401
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


@dataclass(frozen=True)
class AbepBreakdown:
    """One SNR point's error probabilities: spatial, modulation, and
    their mix.

    :func:`abep` fills each field with an array over the links of an
    ensemble, where NaN marks a link left out.
    """

    p_es: np.ndarray
    p_em: np.ndarray
    abep: np.ndarray
    p1: np.ndarray
    p0: np.ndarray

    def __post_init__(self) -> None:
        for name in ("p_es", "p_em", "abep", "p1", "p0"):
            value = np.asarray(getattr(self, name), dtype=float)
            value = value[~np.isnan(value)]
            if not np.all((0.0 <= value) & (value <= 1.0)):
                raise ValueError(f"{name} must be a probability, got {getattr(self, name)!r}")


def spatial_error_probs_perfect(
    gamma: np.ndarray, alpha_p: np.ndarray, sigma2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Miss and false-alarm probabilities with a known threshold.

    P1 is the Rice CDF of an energized branch (amplitude sqrt(alpha_p))
    at gamma; P0 is the Rayleigh tail of a silent branch above gamma.
    P1 broadcasts over the arrays ``gamma`` and ``alpha_p``, while P0
    depends on ``gamma`` alone and keeps its shape, so a second power
    axis on ``alpha_p`` does not repeat the false-alarm tail.
    """
    gamma = np.asarray(gamma, dtype=float)
    alpha_p = np.asarray(alpha_p, dtype=float)
    if np.any(gamma < 0) or np.any(alpha_p < 0) or sigma2 <= 0:
        raise ValueError("gamma, alpha_p must be >= 0 and sigma2 > 0")
    sigma = math.sqrt(sigma2)
    p1 = 1.0 - marcum_q1(np.sqrt(2.0 * alpha_p) / sigma, math.sqrt(2.0) * gamma / sigma)
    p0 = np.exp(-gamma * gamma / sigma2)
    return p1, p0


def spatial_error_probs_estimated(
    stats: tuple, alpha_p: np.ndarray, sigma2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Miss/false-alarm probabilities under a Gaussian threshold estimate.

    ``stats`` is the (mean, variance) of the estimated threshold. The
    ratio of the Gaussian threshold to a Rice envelope is a doubly
    non-central t variate (2 degrees of freedom, numerator
    non-centrality mean/std, denominator non-centrality
    2*alpha_p/sigma2); against a Rayleigh envelope the denominator
    non-centrality vanishes, and P0 is the non-central t CDF's closed
    form. ``alpha_p`` must be positive. The arrays broadcast as in
    :func:`spatial_error_probs_perfect`: P0 takes the shape of ``stats``.
    """
    mean, variance = (np.asarray(v, dtype=float) for v in stats)
    if np.any(variance <= 0):
        raise ValueError("threshold estimate variance must be positive")
    std = np.sqrt(variance)
    delta = mean / std
    ratio = math.sqrt(sigma2) / std
    lam = 2.0 * np.asarray(alpha_p, dtype=float) / sigma2
    p1 = 1.0 - doubly_noncentral_t_cdf(ratio, delta, lam)
    p0 = noncentral_t_cdf(ratio, delta)
    return p1, p0


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


def constellation_bep(constellation: Constellation, snr: np.ndarray) -> np.ndarray:
    """Gray-coded approximate bit error probability at the given SNR.

    PSK and square QAM use the standard closed forms; 16-APSK uses a
    nearest-neighbour union bound over the 4+12 layout. These are
    approximations tied to Gray labeling, good to roughly 10% through
    the waterfall region. The result has the shape of the array ``snr``.
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
    return bep


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
    alpha_p: np.ndarray,
    sigma2: float,
    n_active: int,
    p1: np.ndarray,
    p0: np.ndarray,
) -> np.ndarray:
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

    ``alpha_p``, ``p1`` and ``p0`` are arrays over links; they broadcast
    together. The links run in groups of at most 2^14 (link, class)
    pairs, one :func:`constellation_bep` call per group, so the working
    arrays do not grow with the ensemble; each link's classes are summed
    alone, so the grouping changes no bit.
    """
    alpha_p, p1, p0 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha_p, p1, p0)))
    if not (np.all((0.0 <= p1) & (p1 <= 1.0)) and np.all((0.0 <= p0) & (p0 <= 1.0))):
        raise ValueError("p1 and p0 must be probabilities")
    w, b11, b01, multiplicity = _count_classes(n_active)
    b10 = w - b11
    b00 = n_active - w - b01
    flagged = b11 > 0
    combining = b11[flagged] ** 2 / (b11[flagged] + b01[flagged])
    columns = [v.reshape(-1, 1) for v in (alpha_p, p1, p0)]
    total = np.empty(alpha_p.size)
    step = max(1, (1 << 14) // w.size)
    for first in range(0, total.size, step):
        a, q1, q0 = (column[first : first + step] for column in columns)
        prob = q1**b10 * (1.0 - q1) ** b11 * q0**b01 * (1.0 - q0) ** b00
        bep = np.full(prob.shape, 0.5)
        bep[:, flagged] = constellation_bep(constellation, combining * (a / sigma2))
        total[first : first + step] = (multiplicity * bep * prob).sum(axis=-1)
    return total.reshape(alpha_p.shape) / ((1 << n_active) - 1)


def abep(
    constellation: Constellation,
    n_active: int,
    alpha_p: np.ndarray,
    sigma2: float,
    gamma: np.ndarray | None = None,
    n_pilot_samples: int | None = None,
) -> AbepBreakdown:
    """Average bit error probability of one SNR point, one entry per link.

    ``alpha_p`` is the 1-D array of each link's ZF power factor times the
    transmit power of the point. Give exactly one of ``gamma``, the
    designed thresholds of a known threshold, or ``n_pilot_samples``: the
    threshold is then estimated from that many pilot envelopes (high-SNR
    design), and a link whose estimate has a singular Fisher matrix is NaN
    in every field. Each tail kernel runs once for all the links.
    """
    # Looked up on the module at each call, so that a wrapper installed on
    # rsmsim.training (as bench/spans.py installs one) sees every call.
    from .training import SingularFisher, threshold_estimate_stats

    alpha_p = np.asarray(alpha_p, dtype=float)
    if alpha_p.ndim != 1:
        raise ValueError("alpha_p must be a 1-D array over links")
    if np.any(alpha_p <= 0) or sigma2 <= 0:
        raise ValueError("alpha_p and sigma2 must be positive")
    if (gamma is None) == (n_pilot_samples is None):
        raise ValueError("give exactly one of gamma and n_pilot_samples")
    levels, weights = _power_levels(constellation)
    # One column per constellation power level feeds the miss tail.
    if n_pilot_samples is None:
        gamma = np.asarray(gamma, dtype=float)
        kept = np.ones(alpha_p.size, dtype=bool)
        p1_levels, p0 = spatial_error_probs_perfect(
            gamma[:, None], alpha_p[:, None] * levels, sigma2
        )
    else:
        stats = np.full((alpha_p.size, 2), np.nan)
        for i, a in enumerate(alpha_p.tolist()):
            try:
                stats[i] = threshold_estimate_stats(constellation.beta * a, sigma2, n_pilot_samples)
            except SingularFisher:
                pass
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
    return AbepBreakdown(*fields)
