"""RSM transceiver primitives.

Covers constellation construction with Gray bit labeling, spatial/
modulation encoding of a data word, zero-forcing transmit-vector
construction, per-antenna envelope measurement, the three amplitude
threshold designs (exact, moderate-SNR, high-SNR), per-antenna and
joint-ML spatial detection, batch minimum-distance symbol detection,
switch-and-combine modulation-symbol detection, and the complex noise
draw shared by every Monte Carlo path.

Conventions: complex noise samples carry total variance sigma2 (half
per real component); a spatial word is a 0/1 vector over the active
antennas, never all-zero on the transmit side; thresholds are designed
for the minimum constellation symbol power ``beta * alpha_p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .mimo import Precoder
from .specfun import lambert_w_minus1_from_log, log_bessel_i0

__all__ = [
    "UnsupportedOrder",
    "IllegalSpatialWord",
    "NoRoot",
    "Constellation",
    "ThresholdSpec",
    "THRESHOLD_MODES",
    "build_constellation",
    "encode",
    "decode",
    "transmit",
    "receive_amplitudes",
    "threshold",
    "detect_spatial",
    "joint_ml_detect",
    "nearest_point",
    "combine_and_detect_modulation",
    "add_complex_noise",
]

THRESHOLD_MODES = ("exact", "msa", "hsa")

#: QAM samples closer than this to a decision boundary, in level spacings,
#: or farther than ``_GRID_REACH`` spacings from the grid centre, or on a
#: grid whose spacing is outside ``_UNIT_RANGE``, go to the full search;
#: so do PSK samples closer than this to a sector boundary, in sectors,
#: with ``|y| / scale`` outside ``_PSK_RATIO`` or a scale outside
#: ``_UNIT_RANGE``
_BOUNDARY_MARGIN = 1e-6
_GRID_REACH = 1e3
_UNIT_RANGE = (1e-250, 1e250)
_PSK_RATIO = (1e-5, 1e5)


class UnsupportedOrder(ValueError):
    """Requested constellation size/kind combination is not available."""


class IllegalSpatialWord(ValueError):
    """The all-zero spatial word cannot be transmitted."""


class NoRoot(ArithmeticError):
    """Exact-threshold root bracketing failed (SNR too low to matter)."""


def _gray(n: int) -> int:
    return n ^ (n >> 1)


@dataclass(frozen=True)
class Constellation:
    """Unit-average-power symbol set with integer bit labels.

    ``labels[k]`` is the bit pattern carried by ``points[k]``; ``beta``
    is the minimum-to-average symbol power ratio that rescales the
    spatial detection threshold for non-constant-modulus sets.
    """

    kind: str
    order: int
    points: np.ndarray
    labels: np.ndarray
    ring_ratio: float | None = None
    _index_of_label: np.ndarray = field(init=False, repr=False, default=None)
    _qam_step: float | None = field(init=False, repr=False, compare=False, default=None)
    _psk_layout: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self) -> None:
        mean_power = float(np.mean(np.abs(self.points) ** 2))
        if abs(mean_power - 1.0) > 1e-12:
            raise ValueError(f"average symbol power must be 1, got {mean_power!r}")
        if sorted(self.labels.tolist()) != list(range(self.order)):
            raise ValueError("labels must be a bijection onto 0..order-1")
        inverse = np.empty(self.order, dtype=np.int64)
        inverse[self.labels] = np.arange(self.order)
        object.__setattr__(self, "_index_of_label", inverse)
        object.__setattr__(self, "_qam_step", _square_grid_step(self.kind, self.points))
        object.__setattr__(
            self,
            "_psk_layout",
            self.kind == "psk" and np.array_equal(self.points, _psk_points(self.points.size)[0]),
        )

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    @property
    def beta(self) -> float:
        powers = np.abs(self.points) ** 2
        return float(powers.min() / powers.mean())

    @property
    def label_bits(self) -> np.ndarray:
        """(order, bits_per_symbol) 0/1 array, MSB first."""
        k = self.bits_per_symbol
        shifts = np.arange(k - 1, -1, -1)
        return (self.labels[:, None] >> shifts) & 1

    def index_of_label(self, label: int) -> int:
        """Point index carrying the given bit pattern."""
        return int(self._index_of_label[label])


def _square_grid_step(kind: str, points: np.ndarray) -> float | None:
    """Level spacing of a square QAM grid in the ``_qam_points`` layout.

    None when ``points`` are not such a grid: levels centred on zero,
    point ``col * side + row`` at ``level[col] + 1j * level[row]``.
    """
    side = math.isqrt(points.size)
    if kind != "qam" or side < 2 or side * side != points.size:
        return None
    step = float(points.real.max() - points.real.min()) / (side - 1)
    axis = (np.arange(side) - 0.5 * (side - 1)) * step
    layout = (axis[:, None] + 1j * axis[None, :]).ravel()
    return step if np.allclose(points, layout, rtol=0.0, atol=1e-12 * step) else None


def _psk_points(order: int) -> tuple[np.ndarray, np.ndarray]:
    angles = 2.0 * math.pi * np.arange(order) / order
    points = np.exp(1j * angles)
    labels = np.array([_gray(k) for k in range(order)], dtype=np.int64)
    return points, labels


def _qam_points(order: int) -> tuple[np.ndarray, np.ndarray]:
    side = math.isqrt(order)
    if side * side != order:
        raise UnsupportedOrder(f"square QAM needs a square order, got {order}")
    levels = np.arange(side) * 2.0 - (side - 1)
    k_axis = side.bit_length() - 1
    points, labels = [], []
    for col in range(side):
        for row in range(side):
            points.append(levels[col] + 1j * levels[row])
            labels.append((_gray(col) << k_axis) | _gray(row))
    points = np.array(points)
    points /= math.sqrt(float(np.mean(np.abs(points) ** 2)))
    return points, np.array(labels, dtype=np.int64)


def _apsk16_points(ring_ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """4+12 dual-ring layout: 4 inner points on the quadrant diagonals,
    12 outer points at radius ``ring_ratio``, three per quadrant.

    Labels use two Gray-coded quadrant bits followed by two in-quadrant
    bits (00 inner, then 01/11/10 across the outer arc).
    """
    points, labels = [], []
    inner_local = [math.pi / 4]
    outer_local = [math.pi / 12, 3 * math.pi / 12, 5 * math.pi / 12]
    for quadrant in range(4):
        base = quadrant * math.pi / 2
        quad_bits = _gray(quadrant) << 2
        points.append(np.exp(1j * (base + inner_local[0])))
        labels.append(quad_bits | 0b00)
        for sub_bits, angle in zip((0b01, 0b11, 0b10), outer_local):
            points.append(ring_ratio * np.exp(1j * (base + angle)))
            labels.append(quad_bits | sub_bits)
    points = np.array(points)
    points /= math.sqrt(float(np.mean(np.abs(points) ** 2)))
    return points, np.array(labels, dtype=np.int64)


def build_constellation(
    kind: str, order: int, ring_ratio: float | None = None
) -> Constellation:
    """Construct a PSK, square QAM, or 16-APSK constellation.

    Orders are limited to powers of two up to 64; APSK additionally
    requires order 16 and a ring ratio above 1.
    """
    kind = kind.lower()
    if order < 2 or order > 64 or order & (order - 1):
        raise UnsupportedOrder(f"order must be a power of 2 in [2, 64], got {order}")
    if kind == "psk":
        points, labels = _psk_points(order)
        ring_ratio = None
    elif kind == "qam":
        points, labels = _qam_points(order)
        ring_ratio = None
    elif kind == "apsk":
        if order != 16:
            raise UnsupportedOrder("APSK is implemented for order 16 only")
        if ring_ratio is None or ring_ratio <= 1.0:
            raise UnsupportedOrder("APSK requires ring_ratio > 1")
        points, labels = _apsk16_points(ring_ratio)
    else:
        raise UnsupportedOrder(f"unknown constellation kind {kind!r}")
    return Constellation(
        kind=kind, order=order, points=points, labels=labels, ring_ratio=ring_ratio
    )


def encode(bits: np.ndarray, constellation: Constellation) -> tuple[np.ndarray, int]:
    """Split a data word into (spatial bits, symbol index).

    The leading bits select which active antennas are energized (the
    all-zero pattern is rejected); the trailing ``bits_per_symbol`` bits
    pick the modulation symbol through the constellation labeling.
    """
    bits = np.asarray(bits, dtype=np.int64)
    k = constellation.bits_per_symbol
    if bits.size <= k:
        raise ValueError("data word too short for this constellation")
    spatial = bits[: bits.size - k]
    if not spatial.any():
        raise IllegalSpatialWord("all-zero spatial word is not allowed")
    label = 0
    for b in bits[bits.size - k :]:
        label = (label << 1) | int(b)
    return spatial.copy(), constellation.index_of_label(label)


def decode(
    spatial: np.ndarray, symbol_index: int, constellation: Constellation
) -> np.ndarray:
    """Inverse of :func:`encode` for a detected (spatial, symbol) pair."""
    k = constellation.bits_per_symbol
    label = int(constellation.labels[symbol_index])
    label_bits = [(label >> (k - 1 - i)) & 1 for i in range(k)]
    return np.concatenate([np.asarray(spatial, dtype=np.int64), label_bits])


def transmit(
    precoder: Precoder, spatial: np.ndarray, symbol: complex, power: float
) -> np.ndarray:
    """Transmit vector sqrt(alpha * power) * B @ spatial * symbol."""
    spatial = np.asarray(spatial, dtype=float)
    if spatial.shape[0] != precoder.matrix_b.shape[1]:
        raise ValueError("spatial word length must match precoder width")
    if not spatial.any():
        raise IllegalSpatialWord("all-zero spatial word is not allowed")
    return math.sqrt(precoder.alpha * power) * (precoder.matrix_b @ (spatial * symbol))


def receive_amplitudes(y_active: np.ndarray) -> np.ndarray:
    """Envelope per active antenna (what the amplitude detectors output)."""
    return np.abs(np.asarray(y_active))


@dataclass(frozen=True)
class ThresholdSpec:
    """Detection threshold plus the design inputs that produced it."""

    mode: str
    gamma: float
    alpha_p: float
    sigma2: float
    beta: float

    def __post_init__(self) -> None:
        if self.mode not in THRESHOLD_MODES:
            raise ValueError(f"mode must be one of {THRESHOLD_MODES}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


def exact_threshold_residual(gamma: float, min_power: float, sigma2: float) -> float:
    """Likelihood-ratio residual exp(-p/s2) * I0(2*gamma*sqrt(p)/s2) - 1.

    Zero exactly at the per-antenna ML decision boundary.
    """
    return math.exp(
        log_bessel_i0(2.0 * gamma * math.sqrt(min_power) / sigma2) - min_power / sigma2
    ) - 1.0


def threshold(mode: str, alpha_p: float, sigma2: float, beta: float = 1.0) -> ThresholdSpec:
    """Design the envelope detection threshold.

    All three designs substitute the minimum constellation symbol power
    ``beta * alpha_p`` for the average received power. ``exact`` root
    finds the per-antenna ML boundary, ``msa`` uses the closed Lambert-W
    form from the large-argument Bessel approximation, and ``hsa`` is
    the high-SNR limit, half the minimum received amplitude.
    """
    if alpha_p <= 0 or sigma2 <= 0:
        raise ValueError("alpha_p and sigma2 must be positive")
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    mode = mode.lower()
    min_power = beta * alpha_p
    root_amp = math.sqrt(min_power)
    if mode == "hsa":
        gamma = 0.5 * root_amp
    elif mode == "msa":
        # Argument of the Lambert branch, kept in log form so the design
        # survives SNRs where exp(-2*min_power/sigma2) underflows.
        log_neg_arg = -2.0 * min_power / sigma2 - math.log(math.pi)
        gamma = -sigma2 / (4.0 * root_amp) * lambert_w_minus1_from_log(log_neg_arg)
    elif mode == "exact":
        rho = min_power / sigma2
        # Solve log I0(u) = rho for u = 2*gamma*sqrt(min_power)/sigma2;
        # log I0 grows from 0 to infinity, so a root always brackets.
        hi = max(2.0 * rho + 2.0, 2.0)
        for _ in range(200):
            if log_bessel_i0(hi) >= rho:
                break
            hi *= 2.0
        else:
            raise NoRoot(f"could not bracket the exact threshold at rho={rho:.3e}")
        u = optimize.brentq(
            lambda v: log_bessel_i0(v) - rho, 0.0, hi, xtol=1e-14, rtol=1e-15
        )
        gamma = u * sigma2 / (2.0 * root_amp)
        if gamma <= 0.0:
            raise NoRoot(f"exact threshold degenerated to zero at rho={rho:.3e}")
    else:
        raise ValueError(f"mode must be one of {THRESHOLD_MODES}, got {mode!r}")
    return ThresholdSpec(mode=mode, gamma=gamma, alpha_p=alpha_p, sigma2=sigma2, beta=beta)


def detect_spatial(amplitudes: np.ndarray, spec: ThresholdSpec) -> np.ndarray:
    """Per-antenna one-bit decision: 1 where the envelope exceeds gamma.

    The all-zero output is possible and handled by the combiner.
    """
    return (np.asarray(amplitudes) > spec.gamma).astype(np.int64)


def joint_ml_detect(
    amplitudes: np.ndarray, alpha_p: float, sigma2: float
) -> np.ndarray:
    """Exhaustive joint-ML spatial detection over all candidate words.

    Scores every 0/1 word (including all-zero) under the product
    Rice/Rayleigh likelihood of the envelopes; exponential in the number
    of active antennas, so intended as a reference detector for small
    arrays. Ties resolve toward the word with fewer ones, then
    lexicographically.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    n = amplitudes.size
    # Per-antenna log-likelihood gain of deciding "on" versus "off".
    gain = np.array(
        [
            log_bessel_i0(2.0 * a * math.sqrt(alpha_p) / sigma2) - alpha_p / sigma2
            for a in amplitudes
        ]
    )
    candidates = sorted(range(1 << n), key=lambda w: (bin(w).count("1"), w))
    best_word, best_score = 0, -math.inf
    for word in candidates:
        bits = [(word >> k) & 1 for k in range(n)]
        score = float(np.dot(bits, gain))
        if score > best_score:
            best_word, best_score = word, score
    return np.array([(best_word >> k) & 1 for k in range(n)], dtype=np.int64)


def _nearest_by_search(y: np.ndarray, scale: np.ndarray, points: np.ndarray) -> np.ndarray:
    return np.argmin(np.abs(y[..., None] - scale[..., None] * points), axis=-1)


def _slice_qam(
    y: np.ndarray, scale: np.ndarray, step: float, side: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest level per axis, and where that decision is provably exact."""
    unit = scale * step
    with np.errstate(all="ignore"):
        # (real, imag) in level spacings from the grid centre, then from level 0.
        a = np.stack((y.real, y.imag), axis=-1) / unit[..., None]
        t = a + 0.5 * (side - 1)
        level = np.rint(np.fmin(np.fmax(t, 0.0), side - 1.0)).astype(np.int64)
        exact = (np.abs(t - np.floor(t) - 0.5) >= _BOUNDARY_MARGIN) & (np.abs(a) <= _GRID_REACH)
    low, high = _UNIT_RANGE
    exact = exact[..., 0] & exact[..., 1] & (np.abs(unit) >= low) & (np.abs(unit) <= high)
    return level[..., 0] * side + level[..., 1], exact


def _slice_psk(y: np.ndarray, scale: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest sector by angle, and where that decision is provably exact."""
    low, high = _UNIT_RANGE
    ratio_low, ratio_high = _PSK_RATIO
    with np.errstate(all="ignore"):
        # Angle in sectors: point k sits at k, the boundaries at half-integers.
        t = np.angle(y) * (order / (2.0 * math.pi))
        ratio = np.abs(y) / scale
        exact = (
            (np.abs(t - np.floor(t) - 0.5) >= _BOUNDARY_MARGIN)
            & (ratio >= ratio_low)
            & (ratio <= ratio_high)
            & (scale >= low)
            & (scale <= high)
        )
        index = np.rint(t).astype(np.int64) % order
    return np.broadcast_to(index, np.shape(exact)), exact


def nearest_point(
    y: complex | np.ndarray, scale: float | np.ndarray, constellation: Constellation
) -> np.ndarray:
    """Index of the point of ``scale * constellation.points`` nearest each sample.

    ``y`` and ``scale`` broadcast against each other and the result has
    their broadcast shape. Decisions equal
    ``argmin(abs(y[..., None] - scale[..., None] * points), axis=-1)``
    exactly, ties included (first index), which is how every other
    constellation is detected. Square QAM and PSK are sliced instead,
    and every sample whose sliced decision is not provably the argmin
    (zero scale, inf and nan included) goes to the full search.

    Square QAM slices each axis to its nearest level. A sample at least
    ``_BOUNDARY_MARGIN`` spacings from every boundary and within
    ``_GRID_REACH`` spacings of the grid centre has a squared-distance
    gap of at least 2e-6 squared spacings to every other point, so a
    distance gap above 7e-10 spacings, while rounding moves each
    computed distance by under 1e-11 spacings; its sliced point is
    therefore the argmin.

    PSK takes point ``rint(angle(y) * order / 2pi) mod order``. With r =
    ``|y|``, s = ``scale`` and the sample at least ``_BOUNDARY_MARGIN``
    sectors from a sector boundary, every other point is at least
    2pi/order - delta away in angle, where delta <= (1/2 - 1e-6) 2pi/order
    is the angle to the sliced point, so its squared distance is larger
    by 2rs(cos(delta) - cos(2pi/order - delta)) >= 4rs sin(pi/order)
    sin(2e-6 pi/order). Dividing by the sum of the two distances, at most
    2(r + s), and with ``r / s`` within ``_PSK_RATIO`` (so rs >= 9.9e-6
    (r + s)^2) and order <= 64, the distance gap exceeds 9e-14 (r + s).
    Rounding moves each computed distance by under 2e-15 (r + s): the
    points lie within 7e-16 of exp(2pi i k/order), and the product,
    difference and ``abs`` each add about one unit in the last place of
    r + s. The computed angle is off by under 1e-14 sectors, far inside
    the margin, and ``_UNIT_RANGE`` on the scale keeps every quantity a
    normal float. The sliced point is therefore the argmin.
    """
    y = np.asarray(y, dtype=complex)
    scale = np.asarray(scale, dtype=float)
    if constellation._qam_step is not None:
        index, exact = _slice_qam(y, scale, constellation._qam_step, math.isqrt(constellation.order))
    elif constellation._psk_layout:
        index, exact = _slice_psk(y, scale, constellation.order)
    else:
        return _nearest_by_search(y, scale, constellation.points)
    index = np.array(index)
    search = ~exact
    if search.any():
        y, scale = np.broadcast_arrays(y, scale)
        index[search] = _nearest_by_search(y[search], scale[search], constellation.points)
    return index


def combine_and_detect_modulation(
    y_active: np.ndarray,
    s_hat: np.ndarray,
    alpha_p: float,
    constellation: Constellation,
) -> tuple[int, np.ndarray]:
    """Combine the branches flagged active and detect the symbol.

    The receiver sums the flagged branch outputs and compares against
    sqrt(alpha_p) times its own count of combined branches (it cannot
    know how many were truly energized). An all-zero flag vector yields
    the fixed erasure fallback, symbol index 0.
    """
    s_hat = np.asarray(s_hat)
    n_combined = int(s_hat.sum())
    if n_combined == 0:
        index = 0
    else:
        y_c = complex(np.sum(np.asarray(y_active)[s_hat == 1]))
        index = int(nearest_point(y_c, math.sqrt(alpha_p) * n_combined, constellation))
    k = constellation.bits_per_symbol
    label = int(constellation.labels[index])
    bits = np.array([(label >> (k - 1 - i)) & 1 for i in range(k)], dtype=np.int64)
    return index, bits


def add_complex_noise(
    signal: np.ndarray, sigma2: float, rng: np.random.Generator
) -> np.ndarray:
    """Add circular complex Gaussian noise of variance ``sigma2`` to ``signal``.

    ``signal`` is a complex array, changed in place and returned. The
    real parts of the noise come from one ``standard_normal`` draw of
    ``(2, *signal.shape)`` ahead of the imaginary parts, which is the
    stream order, and the values, of
    ``sqrt(sigma2 / 2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))``.
    """
    noise = rng.standard_normal((2, *signal.shape))
    noise *= math.sqrt(sigma2 / 2.0)
    signal.real += noise[0]
    signal.imag += noise[1]
    return signal
