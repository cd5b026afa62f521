"""Clustered narrowband mmWave channel generation for ULA links.

A realization is a sum over scattering clusters and rays per cluster of
rank-one outer products of uniform-linear-array responses, weighted by
complex ray gains and a sectorized transmit antenna pattern. Cluster
mean angles are uniform (over the transmit sector on the departure
side, over the full circle on the omnidirectional receive side) and ray
angles are Laplacian around their cluster mean. The array responses and
pattern gains of all rays are built by one vectorized call each, with
the same arithmetic as a per-ray evaluation, along a leading link axis:
a batch of draws takes one random stream per link, and each link is
bit-identical to drawing it ray by ray from its stream alone. A draw
returns the channel matrices only; the rays that built them stay inside.

The ray-gain variance is calibrated per parameter set so that the
average squared Frobenius norm of the channel equals
``n_tx * n_rx * gain_variance``; the calibration estimates the expected
in-sector ray fraction from a deterministic 1e4-draw angle pre-pass and
is cached. The pre-pass draws its ray offsets and counts their in-sector
rays a few hundred draws at a time, so its working memory stays under a
few MB whatever the cluster count.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelParams",
    "array_response",
    "sector_gain",
    "in_sector_fraction",
    "draw_channel",
]

# Entropy constant for the calibration pre-pass; independent of user seeds
# so identical params always calibrate identically.
_CALIBRATION_SEED = 0x5EC7_04CA
_CALIBRATION_DRAWS = 10_000
#: draws per chunk of the calibration pre-pass
_CALIBRATION_CHUNK = 250


@dataclass(frozen=True)
class ChannelParams:
    """Geometry and statistics of the clustered channel generator."""

    n_tx: int
    n_rx: int
    n_clusters: int = 8
    n_rays: int = 10
    angular_spread_deg: float = 1.0
    sector_center_deg: float = 0.0
    sector_width_deg: float = 50.0
    rx_omni: bool = True
    antenna_spacing_wavelengths: float = 0.5
    gain_variance: float = 1.0

    def __post_init__(self) -> None:
        for name in ("n_tx", "n_rx", "n_clusters", "n_rays"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.sector_width_deg <= 360.0:
            raise ValueError("sector_width_deg must lie in (0, 360]")
        if self.antenna_spacing_wavelengths <= 0:
            raise ValueError("antenna_spacing_wavelengths must be positive")
        if self.gain_variance <= 0:
            raise ValueError("gain_variance must be positive")
        if self.angular_spread_deg < 0:
            raise ValueError("angular_spread_deg must be nonnegative")

    @property
    def n_paths(self) -> int:
        return self.n_clusters * self.n_rays


def array_response(n: int, angle_deg: float | np.ndarray, spacing: float) -> np.ndarray:
    """Normalized ULA response: element m is exp(j*2*pi*spacing*m*sin(angle))/sqrt(n).

    An array of angles gives one response per angle along a new last axis.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    phase = 2.0 * math.pi * spacing * np.sin(np.radians(angle_deg))
    response = 1j * np.asarray(phase)[..., None] * np.arange(n)
    np.exp(response, out=response)
    response /= math.sqrt(n)
    return response


def sector_gain(
    angle_deg: np.ndarray, sector_center: float, sector_width: float
) -> np.ndarray:
    """Unit gain inside the sector, zero outside, with 360-degree wraparound:
    a boolean array of the angles' shape, True where the gain is one.
    """
    angle = np.asarray(angle_deg, dtype=float)
    offset = np.subtract(angle, sector_center, out=np.empty(angle.shape))
    offset += 180.0
    # The remainder of a value already in [0, 360) is that value exactly,
    # so only the others (nan and inf included) take the costly remainder.
    np.remainder(offset, 360.0, out=offset, where=~((offset >= 0.0) & (offset < 360.0)))
    offset -= 180.0
    return np.abs(offset, out=offset) <= sector_width / 2.0


def _draw_angles(params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """Per-ray (arrival, departure) azimuths in degrees, cluster-major, as
    an ``(n_paths, 2)`` array drawn around uniform cluster means."""
    half = params.sector_width_deg / 2.0
    departure_means = rng.uniform(
        params.sector_center_deg - half, params.sector_center_deg + half, params.n_clusters
    )
    if params.rx_omni:
        arrival_means = rng.uniform(0.0, 360.0, params.n_clusters)
    else:
        arrival_means = rng.uniform(
            params.sector_center_deg - half, params.sector_center_deg + half, params.n_clusters
        )
    means = np.column_stack([arrival_means, departure_means])
    # Spread is the standard deviation; the Laplacian scale is spread/sqrt(2).
    scale = params.angular_spread_deg / math.sqrt(2.0)
    offsets = rng.laplace(0.0, scale, size=(params.n_clusters, params.n_rays, 2))
    rays = means[:, None, :] + offsets
    return rays.reshape(params.n_paths, 2)


@functools.lru_cache(maxsize=None)
def in_sector_fraction(params: ChannelParams) -> float:
    """Expected fraction of rays with nonzero pattern gain.

    Estimated once per parameter set from a fixed-seed angle-only
    pre-pass; used to calibrate the ray-gain variance so the channel
    keeps its nominal average energy despite sector clipping.

    The pre-pass draws all departure cluster means, then the departure
    ray offsets, then (with a sectorized receiver) the same for the
    arrival side. The offsets are drawn ``_CALIBRATION_CHUNK`` draws at a
    time in stream order, and the in-sector rays are counted per chunk;
    with a sectorized receiver the departure mask is kept, one bool per
    ray, until the arrival side has been drawn. The count divided by the
    number of rays is the mean of the whole mask, exactly.
    """
    rng = np.random.default_rng([_CALIBRATION_SEED, params.n_clusters, params.n_rays])
    half = params.sector_width_deg / 2.0
    scale = params.angular_spread_deg / math.sqrt(2.0)
    shape = (_CALIBRATION_DRAWS, params.n_clusters, params.n_rays)
    center, width = params.sector_center_deg, params.sector_width_deg
    chunks = [
        slice(first, first + _CALIBRATION_CHUNK)
        for first in range(0, _CALIBRATION_DRAWS, _CALIBRATION_CHUNK)
    ]

    def side() -> Iterator[tuple[slice, np.ndarray]]:
        """One side's chunks and their in-sector masks, in stream order."""
        means = rng.uniform(center - half, center + half, shape[:2])
        for chunk in chunks:
            rays = rng.laplace(0.0, scale, means[chunk].shape + shape[2:])
            rays += means[chunk, :, None]
            yield chunk, sector_gain(rays, center, width)

    if params.rx_omni:
        count = sum(int(np.count_nonzero(inside)) for _, inside in side())
    else:
        departure = np.empty(shape, dtype=bool)
        for chunk, inside in side():
            departure[chunk] = inside
        count = sum(
            int(np.count_nonzero(np.logical_and(inside, departure[chunk], out=inside)))
            for chunk, inside in side()
        )
    frac = count / math.prod(shape)
    if frac <= 0.0:
        raise ValueError("sector configuration leaves no rays with nonzero gain")
    return frac


def draw_channel(params: ChannelParams, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """The ``(links, n_rx, n_tx)`` stack of one channel matrix per generator.

    Link ``i`` is exactly what ``rngs[i]`` alone draws in a batch of one.
    Each stream draws its cluster means and ray angles, then the real and
    then the imaginary parts of its ray gains, whose variance is
    ``gain_variance / in_sector_fraction(params)``.
    """
    n_links, n_paths = len(rngs), params.n_paths
    rays = np.empty((n_links, n_paths, 2))
    normals = np.empty((n_links, 2, n_paths))
    for i, gen in enumerate(rngs):
        rays[i] = _draw_angles(params, gen)
        gen.standard_normal(out=normals[i])
    gain_scale = params.gain_variance / in_sector_fraction(params)
    gains = math.sqrt(gain_scale / 2.0) * (normals[:, 0] + 1j * normals[:, 1])
    center, width = params.sector_center_deg, params.sector_width_deg
    pattern = sector_gain(rays[..., 1], center, width).astype(float)
    if not params.rx_omni:
        pattern *= sector_gain(rays[..., 0], center, width)
    spacing = params.antenna_spacing_wavelengths
    v_rx = array_response(params.n_rx, rays[..., 0], spacing)
    v_tx = array_response(params.n_tx, rays[..., 1], spacing)
    scale = math.sqrt(params.n_tx * params.n_rx / params.n_paths)
    weights = scale * gains * pattern
    return (v_rx.swapaxes(-1, -2) * weights[:, None, :]) @ np.conjugate(v_tx, out=v_tx)
