"""RSM transceiver primitives.

Covers constellation construction with Gray bit labeling, the three
amplitude threshold designs (exact, moderate-SNR, high-SNR), and the
transceiver chain in batch form: spatial words to bit matrices, the
noiseless received rows that zero forcing leaves (the effective channel
is the identity), per-antenna spatial detection,
minimum-distance symbol detection (its square-QAM decision step is
shared with the baseline's Monte Carlo), switch-and-combine modulation
detection, the complex noise draw of the RSM block's pilot rows, and the
bit-error count of both systems' blocks.
Every step of the chain takes (links, trials, n_active) arrays, one row
per data word of each link, with the per-link inputs (amplitude,
threshold, alpha_p) given one per link.

Conventions: complex noise samples carry total variance sigma2 (half
per real component); a spatial word is a bool row over the active
antennas, never all-zero on the transmit side; thresholds are designed
for the minimum constellation symbol power ``beta * alpha_p``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .buffers import Scratch
from .specfun import lambert_w_minus1_from_log, log_bessel_i0

__all__ = [
    "UnsupportedOrder",
    "IllegalSpatialWord",
    "NoRoot",
    "OutsideDesignDomain",
    "Constellation",
    "THRESHOLD_MODES",
    "DESIGN_RHO_RANGE",
    "DESIGN_SCALE_RANGE",
    "check_design_domain",
    "build_constellation",
    "spatial_bits",
    "transmit",
    "threshold",
    "detect_spatial",
    "nearest_point",
    "combine_and_detect_modulation",
    "add_complex_noise",
]

THRESHOLD_MODES = ("exact", "msa", "hsa")

#: Design SNRs rho = beta * alpha_p / sigma2 that :func:`threshold`
#: supports, -60 to +100 dB, and the range that sigma2 and the minimum
#: symbol power beta * alpha_p must each lie in (see :func:`check_design_domain`)
DESIGN_RHO_RANGE = (1e-6, 1e10)
DESIGN_SCALE_RANGE = (1e-300, 1e300)

#: Samples at a scale whose magnitude is outside ``_UNIT_RANGE`` go to the
#: full search; so do QAM samples closer than this to a decision boundary,
#: in level spacings, or farther than ``_GRID_REACH`` spacings beyond the
#: grid's outer edge, and PSK samples closer than this to a sector boundary, in
#: sectors, or with ``|y| / scale`` outside ``_PSK_RATIO``
_BOUNDARY_MARGIN = 1e-6
_GRID_REACH = 1e3
_UNIT_RANGE = (1e-250, 1e250)
_PSK_RATIO = (1e-5, 1e5)

#: bytes of complex differences and distances per chunk of the full search
_SEARCH_BYTES = 1 << 18


class UnsupportedOrder(ValueError):
    """Requested constellation size/kind combination is not available."""


class IllegalSpatialWord(ValueError):
    """The all-zero spatial word cannot be transmitted."""


class NoRoot(ArithmeticError):
    """Exact-threshold root finding failed to bracket or to converge."""


class OutsideDesignDomain(ValueError):
    """Threshold design inputs outside the domain :func:`threshold` supports."""


def _gray(n: int) -> int:
    return n ^ (n >> 1)


@dataclass(frozen=True)
class Constellation:
    """Unit-average-power symbol set with integer bit labels.

    ``labels[k]`` is the bit pattern carried by ``points[k]``; ``beta``
    is the minimum-to-average symbol power ratio that rescales the
    spatial detection threshold for non-constant-modulus sets.
    ``pair_errors[k * order + j]`` is the number of bits in error when
    ``points[k]`` is sent and ``points[j]`` detected, a read-only uint8
    table that both Monte Carlo systems count their symbol errors with.
    ``label_bits[k]`` holds the bits of ``labels[k]`` as 0/1, MSB first.
    ``beta``, ``label_bits`` and ``pair_errors`` are set at construction.
    """

    kind: str
    order: int
    points: np.ndarray
    labels: np.ndarray
    ring_ratio: float | None = None
    _qam_step: float | None = field(init=False, repr=False, compare=False, default=None)
    _psk_layout: bool = field(init=False, repr=False, compare=False, default=False)
    pair_errors: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    beta: float = field(init=False, repr=False, compare=False, default=None)
    label_bits: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        mean_power = float(np.mean(np.abs(self.points) ** 2))
        if not abs(mean_power - 1.0) <= 1e-12:
            raise ValueError(f"average symbol power must be 1, got {mean_power!r}")
        if sorted(self.labels.tolist()) != list(range(self.order)):
            raise ValueError("labels must be a bijection onto 0..order-1")
        object.__setattr__(self, "_qam_step", _square_grid_step(self.kind, self.points))
        object.__setattr__(
            self,
            "_psk_layout",
            self.kind == "psk"
            and self.order & (self.order - 1) == 0
            and np.array_equal(self.points, _psk_points(self.points.size)[0]),
        )
        pair_errors = np.bitwise_count(self.labels[:, None] ^ self.labels).astype(np.uint8)
        pair_errors = pair_errors.ravel()
        pair_errors.flags.writeable = False
        object.__setattr__(self, "pair_errors", pair_errors)
        powers = np.abs(self.points) ** 2
        object.__setattr__(self, "beta", float(powers.min() / powers.mean()))
        label_bits = (self.labels[:, None] >> np.arange(self.bits_per_symbol - 1, -1, -1)) & 1
        label_bits.flags.writeable = False
        object.__setattr__(self, "label_bits", label_bits)

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1


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
    requires order 16 and a ring ratio above 1. A non-finite ring ratio
    is refused whatever the kind.
    """
    kind = kind.lower()
    if ring_ratio is not None and not math.isfinite(ring_ratio):
        raise UnsupportedOrder(f"ring_ratio must be finite, got {ring_ratio}")
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


def spatial_bits(
    words: np.ndarray, n_active: int, out: np.ndarray | None = None
) -> np.ndarray:
    """(..., n_active) bool array of integer spatial words, one row per word.

    Antenna k carries bit k of its word; each row is read from a cached
    table of all 2^n_active words, into ``out`` when given. Raises
    :class:`IllegalSpatialWord` unless every word lies in [1,
    2^n_active): the all-zero word cannot be transmitted.
    """
    words = np.asarray(words)
    if words.min() < 1 or words.max() >> n_active:
        raise IllegalSpatialWord(f"spatial words must lie in [1, {1 << n_active})")
    # Every index is in range, so clipping changes none; unlike the default
    # mode it writes into ``out`` directly instead of through a buffer.
    return np.take(_word_table(n_active), words, axis=0, out=out, mode="clip")


@functools.cache
def _word_table(n_active: int) -> np.ndarray:
    """Read-only (2^n_active, n_active) bool table: row w is word w's bits."""
    table = ((np.arange(1 << n_active)[:, None] >> np.arange(n_active)) & 1).astype(bool)
    table.flags.writeable = False
    return table


def _per_link(value: np.ndarray, trailing: int) -> np.ndarray:
    """One value per link shaped to broadcast along the leading link axis
    of arrays with ``trailing`` more axes."""
    return np.asarray(value, dtype=float).reshape((-1,) + (1,) * trailing)


def transmit(
    spatial: np.ndarray,
    symbols: np.ndarray,
    amplitude: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One noiseless received row ``amplitude[l] * (symbols[l, t] *
    spatial[l, t])`` per link l and word t.

    ``spatial`` is (links, trials, n_active), ``symbols`` (links, trials)
    and ``amplitude`` (links,). With ``amplitude = sqrt(alpha * P)``, ZF
    on the selected rows ``H_a`` makes the effective channel ``H_a @ B``
    the identity: each active antenna sees the scaled symbol where its
    spatial bit is 1 and nothing where it is 0. The rows are formed in
    ``out`` when given.
    """
    rows = np.multiply(symbols[..., None], spatial, out=out)
    rows *= _per_link(amplitude, 2)
    return rows


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's method, step for step as scipy's C brentq.

    Same iteration, tolerance ``(xtol + rtol*|x|)/2`` and iteration cap as
    scipy's ``optimize.brentq``, so the root is the same to the last bit.
    Raises ValueError on a NaN function value or an unbracketed root and
    NoRoot when ``maxiter`` iterations do not converge.
    """

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x!r} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(xa) and f(xb) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic; C's division by zero gives inf or NaN
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                if denom != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / denom
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = call(xcur)
    raise NoRoot(f"brentq did not converge in {maxiter} iterations, last x={xcur!r}")


def exact_threshold_residual(gamma: float, min_power: float, sigma2: float) -> float:
    """Likelihood-ratio residual exp(-p/s2) * I0(2*gamma*sqrt(p)/s2) - 1.

    Zero exactly at the per-antenna ML decision boundary.
    """
    return math.exp(
        log_bessel_i0(2.0 * gamma * math.sqrt(min_power) / sigma2) - min_power / sigma2
    ) - 1.0


def check_design_domain(alpha_p: float, sigma2: float, beta: float = 1.0) -> None:
    """Raise :class:`OutsideDesignDomain` unless :func:`threshold` supports
    these inputs.

    ``alpha_p`` and ``sigma2`` must be finite and positive, ``beta`` in
    (0, 1], ``sigma2`` and ``beta * alpha_p`` in ``DESIGN_SCALE_RANGE``
    (so that no product or quotient of the designs leaves the normal
    float range) and the design SNR rho = beta * alpha_p / sigma2 in
    ``DESIGN_RHO_RANGE``. Below that range the exact design loses
    relative accuracy: the root tolerance of 1e-14 is absolute while the
    root is u ~ 2 sqrt(rho), and at 1e-300 the root search stopped at u ~
    1e-14 and gamma came out near 1e137 instead of sqrt(sigma2). Inside
    it, log I0(u) ~ u^2/4 is a logarithm near 1 with a relative error of
    about 1e-16 / rho wherever :func:`~rsmsim.specfun.log_bessel_i0` does
    not take its series (u >= 5e-2, rho above about 6e-4): against
    mpmath, the designed gamma is good to about 3e-13 just above that
    cutoff, and to about 1e-12 below it, down to rho = 1e-6. Above the
    range the exact residual, evaluated from gamma as exp(log I0(u) -
    rho) - 1, carries a rounding error of about rho * 1e-16 in its
    exponent (1e-6 at 1e10), and from about 1e18 it overflows.
    """
    if not (0.0 < alpha_p < math.inf and 0.0 < sigma2 < math.inf):
        raise OutsideDesignDomain(
            f"alpha_p and sigma2 must be finite and > 0, got {alpha_p!r} and {sigma2!r}"
        )
    if not 0.0 < beta <= 1.0:
        raise OutsideDesignDomain(f"beta must lie in (0, 1], got {beta!r}")
    min_power = beta * alpha_p
    low, high = DESIGN_SCALE_RANGE
    if not (low <= min_power <= high and low <= sigma2 <= high):
        raise OutsideDesignDomain(
            f"beta * alpha_p = {min_power:.3e} and sigma2 = {sigma2:.3e} must lie "
            f"in [{low:g}, {high:g}]"
        )
    rho = min_power / sigma2
    low, high = DESIGN_RHO_RANGE
    if not low <= rho <= high:
        raise OutsideDesignDomain(
            f"design SNR beta * alpha_p / sigma2 = {rho:.3e} is outside the "
            f"supported range [{low:g}, {high:g}]"
        )


def threshold(mode: str, alpha_p: float, sigma2: float, beta: float = 1.0) -> float:
    """Design the envelope detection threshold gamma.

    All three designs substitute the minimum constellation symbol power
    ``beta * alpha_p`` for the average received power. ``exact`` root
    finds the per-antenna ML boundary, ``msa`` uses the closed Lambert-W
    form from the large-argument Bessel approximation, and ``hsa`` is
    the high-SNR limit, half the minimum received amplitude. Raises
    :class:`OutsideDesignDomain` outside the domain of
    :func:`check_design_domain`.
    """
    check_design_domain(alpha_p, sigma2, beta)
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
        u = _brentq(lambda v: log_bessel_i0(v) - rho, 0.0, hi, xtol=1e-14, rtol=1e-15)
        gamma = u * sigma2 / (2.0 * root_amp)
        if gamma <= 0.0:
            raise NoRoot(f"exact threshold degenerated to zero at rho={rho:.3e}")
    else:
        raise ValueError(f"mode must be one of {THRESHOLD_MODES}, got {mode!r}")
    return gamma


def detect_spatial(
    envelopes: np.ndarray, gamma: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-antenna one-bit decision: True where the envelope exceeds gamma.

    ``envelopes`` is (links, trials, n_active) and ``gamma`` holds one
    threshold per link. A row with no flag is possible and handled by the
    combiner. The flags are written into ``out`` when given.
    """
    return np.greater(envelopes, _per_link(gamma, 2), out=out)


def _nearest_by_search(
    y: np.ndarray, scale: np.ndarray, points: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``argmin(abs(y[..., None] - scale[..., None] * points), axis=-1)``,
    into ``out`` when given, an int64 array of the broadcast shape.

    The samples are searched in chunks of at most ``_SEARCH_BYTES`` of
    distances and their differences, so the search allocates no table of
    the samples' size; each sample's distances are the same numbers, and
    ties still go to the first point.
    """
    chunk = max(1, _SEARCH_BYTES // (24 * len(points)))
    samples = np.nditer(
        [y, scale, out],
        flags=["external_loop", "buffered", "zerosize_ok"],
        op_flags=[["readonly"], ["readonly"], ["writeonly", "allocate"]],
        # The scale arrives as complex, the type the product is formed in,
        # so that no step casts through a buffer of its own.
        op_dtypes=[complex, complex, np.int64],
        buffersize=chunk,
    )
    size = min(chunk, samples.itersize)
    diff = np.empty((size, len(points)), complex)
    dist = np.empty((size, len(points)))
    with samples:
        for ys, ss, index in samples:
            n = len(ys)
            np.multiply(ss[:, None], points, out=diff[:n])
            np.subtract(ys[:, None], diff[:n], out=diff[:n])
            np.argmin(np.abs(diff[:n], out=dist[:n]), axis=-1, out=index)
        result = samples.operands[2]
    return result


def _nearest_work_bytes(constellation: Constellation) -> int:
    """Bytes per sample that :func:`nearest_point` carves from its ``work``:
    the QAM slicer's ``level``, ``t`` and margin flags, two of each per
    sample, and its exact flag, or the PSK slicer's ``t``, ``level``,
    exact flag and bool scratch; the full search takes none."""
    if constellation._qam_step is not None:
        return 2 * (8 + 8 + 1) + 1
    return 8 + 8 + 1 + 1 if constellation._psk_layout else 0


def _front(array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of the C-contiguous ``array`` as ``shape``."""
    return array.reshape(-1)[: math.prod(shape)].reshape(shape)


def _within(
    values: np.ndarray, low: float, high: float, exact: np.ndarray, flag: np.ndarray
) -> None:
    """``exact &= (values >= low) & (values <= high)``, with the bool array
    ``flag`` of ``values``' shape as scratch; nan is never within."""
    exact &= np.greater_equal(values, low, out=flag)
    exact &= np.less_equal(values, high, out=flag)


def _decide_qam(
    t: np.ndarray, scale: np.ndarray, side: int, index: np.ndarray, scratch: Scratch
) -> np.ndarray:
    """The square-QAM decision: nearest level per axis of the coordinates
    ``t``, joined into ``index``, and where that decision is provably
    exact.

    ``t`` is a float array of shape ``(2, *index.shape)``, the real and
    then the imaginary coordinate of each sample in level spacings from
    level 0, so that level ``k`` sits at ``k``; its values are spent.
    ``scale`` is the scale each sample was sliced at, broadcasting against
    ``index``. The level is ``rint(t)`` clipped to the grid, and point
    ``col * side + row`` joins the two axes' levels. A sample is flagged
    exact when both its coordinates lie at least ``_BOUNDARY_MARGIN``
    spacings from a decision boundary (``|t - rint(t)| <= 1/2 -
    _BOUNDARY_MARGIN``) and within ``_GRID_REACH`` spacings of the grid's
    outer edge, half a spacing beyond its outer levels: ``t`` is first
    clipped onto ``[-1/2 - _GRID_REACH, side - 1/2 + _GRID_REACH]``, whose
    ends are half-integers and so fail the margin check. Its decision is
    then the exact argmin, given coordinates as close as
    :func:`nearest_point` proves. Every other sample, nan and inf
    included, and every sample whose ``|scale|`` is outside
    ``_UNIT_RANGE``, is flagged for the full search; its index is left
    undefined. The arrays come from ``scratch``, and each one of
    ``scale``'s shape takes the front of one whose values are spent.
    """
    edge = _GRID_REACH + 0.5
    level = scratch.take(t.shape, np.float64)
    inside = scratch.take(t.shape, bool)
    exact = scratch.take(index.shape, bool)
    with np.errstate(all="ignore"):
        np.clip(t, -edge, side - 1.0 + edge, out=t)
        np.rint(t, out=level)
        t -= level
        np.less_equal(np.abs(t, out=t), 0.5 - _BOUNDARY_MARGIN, out=inside)
        np.logical_and(inside[0], inside[1], out=exact)
        np.clip(level, 0.0, side - 1.0, out=level)
        flat = np.multiply(level[0], side, out=t[0, ...])
        flat += level[1]
        np.copyto(index, flat, casting="unsafe")
        magnitude = np.abs(scale, out=_front(t, scale.shape))
        _within(magnitude, *_UNIT_RANGE, exact, _front(inside, scale.shape))
    return exact


def _slice_qam(
    y: np.ndarray, scale: np.ndarray, step: float, side: int, index: np.ndarray, scratch: Scratch
) -> np.ndarray:
    """Nearest level per axis into ``index``, and where that decision is
    provably exact (:func:`_decide_qam`).

    The coordinates are the real and the imaginary part of ``y``, each
    scaled by the reciprocal of one level spacing and shifted to level 0,
    ``t = y * (1 / (scale * step)) + (side - 1) / 2``. Each ``scale``
    element gives one reciprocal; it takes the front of the bytes that
    the decision's arrays take next.
    """
    t = scratch.take((2, *index.shape), np.float64)
    with np.errstate(all="ignore"):
        recip = Scratch(scratch.rest()).take(scale.shape, np.float64)
        np.divide(1.0, np.multiply(scale, step, out=recip), out=recip)
        np.multiply(y.real, recip, out=t[0, ...])
        np.multiply(y.imag, recip, out=t[1, ...])
        t += 0.5 * (side - 1)
    return _decide_qam(t, scale, side, index, scratch)


def _slice_psk(
    y: np.ndarray, scale: np.ndarray, order: int, index: np.ndarray, scratch: Scratch
) -> np.ndarray:
    """Nearest sector by angle into ``index``, and where that decision is
    provably exact.

    ``order`` is a power of two, so masking the low bits of the nearest
    sector reduces it mod ``order``. A sample whose ``|scale|`` is outside
    ``_UNIT_RANGE`` is never exact. The arrays come from ``scratch``.
    """
    t = scratch.take(index.shape, np.float64)
    level = scratch.take(index.shape, np.float64)
    exact = scratch.take(index.shape, bool)
    flag = scratch.take(index.shape, bool)
    with np.errstate(all="ignore"):
        # Angle in sectors: point k sits at k, the boundaries at half-integers.
        np.arctan2(y.imag, y.real, out=t)
        t *= order / (2.0 * math.pi)
        np.rint(t, out=level)
        # Sectors from the nearest point: at most 1/2 - margin is at least
        # the margin from a boundary.
        t -= level
        np.less_equal(np.abs(t, out=t), 0.5 - _BOUNDARY_MARGIN, out=exact)
        _within(np.divide(np.abs(y, out=t), scale, out=t), *_PSK_RATIO, exact, flag)
        magnitude = np.abs(scale, out=_front(t, scale.shape))
        _within(magnitude, *_UNIT_RANGE, exact, _front(flag, scale.shape))
        np.copyto(index, level, casting="unsafe")
        index &= order - 1
    return exact


def nearest_point(
    y: complex | np.ndarray,
    scale: float | np.ndarray,
    constellation: Constellation,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Index of the point of ``scale * constellation.points`` nearest each sample.

    ``y`` and ``scale`` broadcast against each other and the result has
    their broadcast shape. Decisions equal
    ``argmin(abs(y[..., None] - scale[..., None] * points), axis=-1)``
    exactly, ties included (first index), which is how every other
    constellation is detected. Square QAM and PSK are sliced instead,
    and every sample whose sliced decision is not provably the argmin
    (inf and nan included) goes to the full search. So does every sample
    whose ``|scale|`` is outside ``_UNIT_RANGE`` (zero included): the
    slicers flag it for the search, and inside the range every quantity
    below is a normal float.

    The indices are written into ``out`` when given, an int64 array of
    the broadcast shape. The slicers' arrays are carved from ``work``
    when given (see :class:`~rsmsim.buffers.Scratch`), which then needs
    ``_nearest_work_bytes`` bytes per sample and ``SCRATCH_SLACK`` more;
    the full search allocates its own.

    Square QAM slices each axis to its nearest level, at ``t = y * (1 /
    (scale * step))`` level spacings; the level spacing ``scale * step``
    is at least 0.3 (64-QAM) and at most 1.5 (4-QAM) times the scale.
    Each of the product, the reciprocal, the product with ``y`` and the
    shift to level 0 rounds once, so with every coordinate within
    ``_GRID_REACH`` spacings of the grid's outer edge (|t| below 1.1e3)
    the computed ``t`` is off by under 5e-12 spacings, and ``t - rint(t)``
    is exact. A sample the slicer flags exact is therefore at least
    ``_BOUNDARY_MARGIN`` - 5e-12 spacings from every boundary, so
    it has a squared-distance gap of at least 1.9e-6 squared spacings to
    every other point, and, being within 1.6e3 spacings of each point, a
    distance gap above 5e-10 spacings, while rounding moves each
    computed distance of the search by under 1e-11 spacings; its sliced
    point is therefore the argmin.

    The baseline's Monte Carlo (:func:`~rsmsim.baseline.fd_ber`) takes the
    same decision step (:func:`_decide_qam`) on coordinates it forms
    without ``y``: the sent point's level plus its noise ``n`` times ``g =
    sqrt(sigma2 / 2) / (scale * step)``, ``t = level + n * g``. Its sample
    is ``y = fl(fl(p * scale) + fl(n * sqrt(sigma2 / 2)))`` per axis, and
    the grid check puts each point ``p`` within 1e-12 spacings of its
    level, so ``y / (scale * step) + (side - 1) / 2 = level + u + d`` with
    ``u = n sqrt(sigma2 / 2) / (scale * step)`` exactly and |d| under 1e-12
    + 2 eps (|p / step| + |u|), |p / step| <= 3.5. The three roundings of
    ``g`` and its product with ``n`` add 4 eps |u|, and the sum eps |t| / 2.
    A coordinate the step flags exact has |t| below 1.1e3, so |u| is below
    1.11e3, and ``t`` is within 1e-12 + 6 eps 1.11e3 + eps 1.1e3 / 2 + 7 eps,
    under 3e-12 spacings, of the sample's own coordinate: within the 5e-12
    above, so its decision is the argmin too. Where ``n * g`` underflows,
    the error is absolute and under 1e-300 spacings.

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
    the margin; a negative scale fails the ratio check. The sliced point
    is therefore the argmin.
    """
    y = np.asarray(y, dtype=complex)
    scale = np.asarray(scale, dtype=float)
    if constellation._qam_step is None and not constellation._psk_layout:
        return _nearest_by_search(y, scale, constellation.points, out)
    if out is None:
        out = np.empty(np.broadcast_shapes(y.shape, scale.shape), dtype=np.int64)
    scratch = Scratch(work)
    if constellation._qam_step is not None:
        step, side = constellation._qam_step, math.isqrt(constellation.order)
        exact = _slice_qam(y, scale, step, side, out, scratch)
    else:
        exact = _slice_psk(y, scale, constellation.order, out, scratch)
    search = np.logical_not(exact, out=exact)
    if search.any():
        y, scale = np.broadcast_arrays(y, scale)
        out[search] = _nearest_by_search(y[search], scale[search], constellation.points)
    return out


def _combine_work_bytes(n_active: int, constellation: Constellation) -> int:
    """Bytes per row that :func:`combine_and_detect_modulation` carves from
    its ``work``: the flag count, the scale and the sum, then the larger of
    :func:`_antenna_sum`'s running sums and :func:`nearest_point`'s arrays."""
    sums = 0 if n_active < 4 else 1 if n_active < 8 else 4
    return 1 + 8 + 16 + max(16 * sums, _nearest_work_bytes(constellation))


def combine_and_detect_modulation(
    y: np.ndarray,
    s_hat: np.ndarray,
    alpha_p: np.ndarray,
    constellation: Constellation,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Combine the branches flagged active and detect the symbol, per row.

    ``y`` and the bool flags ``s_hat`` are (links, trials, n_active), and
    ``alpha_p`` holds one value per link. The receiver sums the flagged
    branch outputs and compares against sqrt(alpha_p) times its own count
    of combined branches (it cannot know how many were truly energized).
    A row with no flag yields the fixed erasure fallback, symbol index 0.
    Returns the symbol indices; ``constellation.label_bits`` maps them to
    bits. The flagged branch outputs are formed in ``y`` itself, a
    complex array, which is left holding them. The indices are written
    into ``out`` when given, an int64 array of the rows' shape; every
    other array of the rows' shape is carved from ``work`` when given
    (see :class:`~rsmsim.buffers.Scratch`), which then needs
    ``_combine_work_bytes`` bytes per row and ``SCRATCH_SLACK`` more.
    """
    flags = np.asarray(s_hat, dtype=bool).view(np.uint8)
    rows = flags.shape[:-1]
    scratch = Scratch(work)
    n_hat = scratch.take(rows, np.uint8)
    np.copyto(n_hat, flags[..., 0])
    for k in range(1, flags.shape[-1]):
        n_hat += flags[..., k]
    scale = np.multiply(np.sqrt(_per_link(alpha_p, 1)), n_hat, out=scratch.take(rows, np.float64))
    flagged = np.multiply(y, s_hat, out=y)
    total = _antenna_sum(flagged, out=scratch.take(rows, np.complex128), work=scratch.rest())
    j_hat = nearest_point(total, scale, constellation, out=out, work=scratch.rest())
    # Symbol 0 where nothing was combined: the count becomes a 0/1 factor.
    j_hat *= np.minimum(n_hat, 1, out=n_hat)
    return j_hat


def _bit_errors(
    constellation: Constellation, sent: np.ndarray, detected: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Each link's bit errors between the ``sent`` and the ``detected``
    symbol indices, int64 arrays of one shape with the links on the
    leading axis: one lookup in ``constellation.pair_errors`` at ``sent *
    order + detected``, summed over every other axis. ``sent`` is spent,
    and the per-symbol counts take the front of the flat scratch
    ``work``, which may hold ``detected``: it is read before they are
    written."""
    sent *= constellation.order
    sent += detected
    errors = Scratch(work).take(sent.shape, np.uint8)
    # Every index is in range, so clipping changes none; unlike the default
    # mode it writes into ``out`` directly.
    constellation.pair_errors.take(sent, out=errors, mode="clip")
    return errors.sum(axis=tuple(range(1, sent.ndim)), dtype=np.int64)


def _antenna_sum(
    z: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """``z.sum(axis=-1)`` of a complex array, bit for bit, one column at a time.

    numpy reduces a contiguous complex last axis of n < 4 entries left to
    right; from n = 4 up to its pairwise block of 64 entries it keeps four running sums ``c_k + c_{k+4} +
    ...`` over the first ``n - n % 4`` columns, combines them as ``(a0 +
    a1) + (a2 + a3)`` and adds the leftover columns in order. The
    reduction starts from the identity +0, so a zero sum is +0, never -0;
    starting the first running sum as ``c_0 + 0.0`` gives the same.
    Adding whole columns avoids numpy's per-row loop over a narrow axis.
    The sum is formed in ``out`` when given; the other running sums and
    ``a2 + a3`` are carved from ``work`` (see
    :class:`~rsmsim.buffers.Scratch`), one array of ``out``'s shape each.
    """
    n, rows = z.shape[-1], z.shape[:-1]
    lanes = 4 if n >= 4 else 1
    paired = n - n % lanes
    scratch = Scratch(work)
    running = [np.add(z[..., 0], 0.0, out=out)] + [z[..., k] for k in range(1, lanes)]
    for k in range(lanes, paired):
        lane = k % lanes
        if lane and k < 2 * lanes:
            # A lane's first addition gives it an array of its own.
            running[lane] = np.add(running[lane], z[..., k], out=scratch.take(rows, z.dtype))
        else:
            running[lane] += z[..., k]
    total = running[0]
    if lanes == 4:
        total += running[1]
        total += np.add(running[2], running[3], out=scratch.take(rows, z.dtype))
    for k in range(paired, n):
        total += z[..., k]
    return total


def add_complex_noise(
    signal: np.ndarray, sigma2: float, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Add circular complex Gaussian noise of variance ``sigma2`` to ``signal``.

    ``signal`` is a complex array, changed in place and returned, with one
    generator per leading row. Row ``i`` takes the real parts of its noise
    from one ``standard_normal`` draw of ``signal.shape[1:]`` ahead of the
    imaginary parts, which is the stream order, and the values, of
    ``sqrt(sigma2 / 2) * (rng.standard_normal(shape) + 1j *
    rng.standard_normal(shape))`` with ``rng = rngs[i]``, whatever the
    other rows. Each part is drawn for every row into one float buffer of
    ``signal``'s shape, scaled and added.
    """
    if len(rngs) != len(signal):
        raise ValueError("add_complex_noise needs one generator per leading row")
    rows = np.empty(signal.shape)
    for part in (signal.real, signal.imag):
        for i, gen in enumerate(rngs):
            gen.standard_normal(out=rows[i : i + 1])
        rows *= math.sqrt(sigma2 / 2.0)
        part += rows
    return signal
