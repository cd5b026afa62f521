"""Monte Carlo engine for the RSM link and the fully digital baseline.

One run sweeps an SNR grid; at each grid point a fixed ensemble of
channel realizations is exercised with a block of data words per
channel. Every random quantity is drawn from a stream keyed by
(master seed, purpose tag, snr index, channel index), the generator
``np.random.default_rng([seed, tag, snr, channel])``, so results are
bit-identical regardless of how channels are batched and scheduled
across worker threads; error counts are integers and are reduced in
index order. Each system names the purpose tags its blocks draw from,
and :func:`_sweep_and_reduce` makes their streams: the first of an SNR
point's Monte Carlo tasks to run hashes the seeds of all of the point's
channels, one :func:`_stream_seeds` call per tag, and each task builds
the generators of its own channels from its slice of them; so a sweep
with no Monte Carlo task hashes none. Both systems run
their channels in batches, one Monte Carlo task per (SNR point, batch
of whole channels) of about 64k symbols, with every channel still on
its own stream; a task of one channel longer than that runs in pieces
of the same budget, so that of its working memory only the channel's
words, symbols and real noise parts grow with its length. The analytic
columns of each SNR point run as one more task on the same workers.
One driver (:func:`_sweep_and_reduce`) runs and reduces every sweep:
:func:`analytic_curves` and :func:`analytic_curves_fd` are the sweeps
of :func:`run` and :func:`run_fd` with no Monte Carlo task.
Each run logs one line per SNR point, in grid order, and where its time
went, its peak RSS and its minor page faults on the ``.timing`` child
logger; at DEBUG it also logs the seconds of every Monte Carlo task.
Each worker thread of a sweep reuses one set of block arrays from the
sweep's :class:`~rsmsim.buffers.BlockBuffers`, so that past its first
block a thread allocates no array of a block's size.

The channel ensemble is drawn once per run and shared by all SNR
points, which pairs the analytic and simulated curves (and different
runs under the same seed) on common randomness. The RSM ensemble build
also designs the detection threshold of every (SNR point, channel)
once; the design feeds both the Monte Carlo blocks and the perfect
analytic column. ZF on each link's selected antennas makes its
effective channel the identity, which both the threshold detector and
the closed-form ABEP assume: the selection's rcond floor bounds the
identity's error, and the blocks send through it, so no precoder is formed.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import resource
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analysis
from .baseline import fd_ber, received_power, svd_link
from .buffers import SCRATCH_SLACK, BlockBuffers, Scratch
from .channel import ChannelParams, draw_channel
from .mimo import check_subset_count, select_antennas, selection_for_indices
from .mimo import zf_precoder  # noqa: F401 - bench/spans.py wraps rsmsim.simulate.zf_precoder
from .phy import (
    DESIGN_RHO_RANGE,
    THRESHOLD_MODES,
    Constellation,
    OutsideDesignDomain,
    _bit_errors,
    _combine_work_bytes,
    add_complex_noise,
    build_constellation,
    combine_and_detect_modulation,
    detect_spatial,
    spatial_bits,
    threshold,
    transmit,
)
from .training import DegenerateSample, estimate_amplitude

__all__ = [
    "PointAborted",
    "LinkOutsideDesignDomain",
    "RsmConfig",
    "FdConfig",
    "SnrPoint",
    "ErrorReport",
    "run",
    "run_fd",
]

log = logging.getLogger(__name__)
#: one line per run: thread count and where the time went
timing_log = logging.getLogger(f"{__name__}.timing")

SELECTION_MODES = ("exhaustive", "all_antennas")
THRESHOLD_SOURCES = ("perfect", "estimated")

# Purpose tags for random-stream keying.
_TAG_CHANNEL = 1
_TAG_PILOT = 2
_TAG_DATA = 3
_TAG_FD = 4

#: abort an SNR point when more than this fraction of its trials error out
ERROR_BUDGET = 0.01

#: noise variance per receive antenna (per mode for the baseline); an SNR
#: point of ``snr_db`` sets the transmit power to ``10^(snr_db/10) * SIGMA2``
SIGMA2 = 1.0

#: symbols (words x symbols per word) per Monte Carlo task: each task
#: takes as many whole channels as fit, and at least one; an RSM task of
#: one longer channel runs in pieces of at most this many
_BATCH_SYMBOLS = 1 << 16

#: bytes of ray responses per ``draw_channel`` call of the ensemble draw
#: (and so per stacked ``svd_link`` call of the baseline): each call takes
#: as many links as fit, and at least one. This bounds their working
#: memory, and with it the heap that the draws of later stacks leave
#: resident once the first stack's freed arrays have raised glibc's mmap
#: threshold, which grows with the stack
_DRAW_BYTES = 1 << 19


class PointAborted(RuntimeError):
    """Too many trial failures at one SNR point."""

    def __init__(self, snr_db: float, failed_fraction: float):
        super().__init__(
            f"aborted SNR point {snr_db:g} dB: {failed_fraction:.1%} of trials failed"
        )
        self.snr_db = snr_db
        self.failed_fraction = failed_fraction


class LinkOutsideDesignDomain(RuntimeError):
    """A drawn link's threshold design falls outside the domain that
    :func:`~rsmsim.phy.threshold` supports, at an SNR point where other
    links' designs do not: a failure of the channel draw, not of the
    config."""


@dataclass(frozen=True)
class RsmConfig:
    """Complete description of one RSM simulation experiment."""

    channel: ChannelParams
    n_active: int
    snr_grid_db: tuple[float, ...]
    constellation_kind: str = "psk"
    constellation_order: int = 16
    ring_ratio: float | None = None
    threshold_mode: str = "hsa"
    threshold_source: str = "perfect"
    n_pilots: int = 1
    trials_per_point: int = 500
    channels_per_point: int = 200
    seed: int = 0
    selection: str = "exhaustive"

    def __post_init__(self) -> None:
        _check_shared(self, "n_active")
        if self.threshold_source not in THRESHOLD_SOURCES:
            raise ValueError(f"threshold_source must be one of {THRESHOLD_SOURCES}")
        if self.selection not in SELECTION_MODES:
            raise ValueError(f"selection must be one of {SELECTION_MODES}")
        if self.selection == "exhaustive":
            check_subset_count(self.channel.n_rx, self.n_active)
        if self.n_pilots < 1:
            raise ValueError("n_pilots must be >= 1")
        if self.threshold_mode.lower() not in THRESHOLD_MODES:
            raise ValueError(f"threshold_mode must be one of {THRESHOLD_MODES}")


@dataclass(frozen=True)
class FdConfig:
    """Fully digital SVD baseline experiment."""

    channel: ChannelParams
    snr_grid_db: tuple[float, ...]
    n_modes: int = 2
    constellation_kind: str = "qam"
    constellation_order: int = 16
    ring_ratio: float | None = None
    trials_per_point: int = 500
    channels_per_point: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        _check_shared(self, "n_modes")


def _check_shared(config: RsmConfig | FdConfig, key: str) -> None:
    """Check the rules both configs share, ``key`` naming the stream count,
    and store the SNR grid as a tuple of floats."""
    grid = tuple(float(s) for s in config.snr_grid_db)
    object.__setattr__(config, "snr_grid_db", grid)
    if not grid:
        raise ValueError("snr_grid_db must not be empty")
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"snr_grid_db must be finite, got {grid}")
    if config.trials_per_point < 1 or config.channels_per_point < 1:
        raise ValueError("trials_per_point and channels_per_point must be >= 1")
    # Each stream needs a receive antenna and a transmit degree of freedom:
    # more than the arrays support can only fail once the channels are drawn.
    streams, limit = getattr(config, key), min(config.channel.n_tx, config.channel.n_rx)
    if not 1 <= streams <= limit:
        raise ValueError(f"{key} must lie in [1, min(n_tx, n_rx)] = [1, {limit}], got {streams}")
    build_constellation(config.constellation_kind, config.constellation_order, config.ring_ratio)
    # Every stream is keyed by the seed, and numpy takes non-negative keys only.
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")


@dataclass(frozen=True)
class SnrPoint:
    """Aggregated results for one SNR grid point."""

    snr_db: float
    ber_total: float
    ber_spatial: float
    ber_modulation: float
    abep_analytic: float
    abep_analytic_estimated: float
    ci_halfwidth_95: float
    bits_counted: int
    #: links left out of ``abep_analytic_estimated`` (None for the baseline)
    excluded_links: int | None = None
    #: words left unsimulated because their link's pilot estimate degenerated
    failed_words: int = 0


@dataclass(frozen=True)
class ErrorReport:
    """Per-SNR error rates for one experiment."""

    points: tuple[SnrPoint, ...]
    seed: int

    def snr_at_ber(self, target: float) -> float:
        """SNR (dB) where the total BER crosses ``target``, by log-linear
        interpolation; NaN when the curve never crosses."""
        snrs = np.array([p.snr_db for p in self.points])
        bers = np.array([p.ber_total for p in self.points])
        return float(interpolate_snr_at(snrs, bers, target))


def interpolate_snr_at(snr_db: np.ndarray, ber: np.ndarray, target: float) -> float:
    """Log-linear interpolation of the SNR where a BER curve hits target."""
    for i in range(len(snr_db) - 1):
        hi, lo = ber[i], ber[i + 1]
        if hi >= target > lo and lo > 0:
            t = (math.log(target) - math.log(hi)) / (math.log(lo) - math.log(hi))
            return snr_db[i] + t * (snr_db[i + 1] - snr_db[i])
    return math.nan


def _batch_links(words: int, symbols_per_word: int) -> int:
    """Channels per Monte Carlo task for ``words`` words per channel."""
    return max(1, _BATCH_SYMBOLS // (words * symbols_per_word))


@dataclass(frozen=True)
class _Ensemble:
    """Per-channel state of an RSM run, shared by every SNR point.

    Channel ``ch`` is entry ``ch`` of ``alpha`` and column ``ch`` of the
    ``(n_snr, n_links)`` arrays.
    """

    alpha: np.ndarray  # ZF power factor
    alpha_p: np.ndarray  # alpha times the transmit power of each SNR point
    gamma: np.ndarray  # the ``threshold_mode`` design at each alpha_p


# SeedSequence's hash (numpy.random.bit_generator): a pool of four 32-bit
# words, mixed and then expanded with these constants. numpy keeps it fixed,
# since every seeded stream depends on it.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFF_FFFF


def _key_words(value: int) -> list[int]:
    """The 32-bit words ``SeedSequence`` makes of a non-negative int, least
    significant first (one word for zero)."""
    words = [value & _WORD]
    while value > _WORD:
        value >>= 32
        words.append(value & _WORD)
    return words


def _stream_seeds(key: tuple[int, ...], links: Iterable[int]) -> np.ndarray:
    """The PCG64 seed of the stream ``np.random.default_rng([*key, ch])`` of
    every link ``ch`` of ``links``, one ``(4,) uint64`` row each.

    Row ``i`` is ``SeedSequence([*key, links[i]]).generate_state(4,
    np.uint64)``: the words SeedSequence makes of that list form one
    ``uint32`` key row per link, and its hash runs on all rows at once.
    Raises ValueError for a negative key value, as SeedSequence does, and
    for a link index of 2^32 or more, which no run draws.
    """
    links = np.asarray(links, dtype=np.int64)
    in_words = not links.size or 0 <= links.min() <= links.max() <= _WORD
    if any(value < 0 for value in key) or not in_words:
        raise ValueError("stream keys must be non-negative and link indices below 2^32")
    prefix = [word for value in key for word in _key_words(value)]
    entropy = [np.full(links.size, word, dtype=np.uint32) for word in prefix]
    entropy.append(links.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _WORD
        value *= hash_const
        value ^= value >> 16
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_L - y * _MIX_R
        result ^= result >> 16
        return result

    zero = np.zeros(links.size, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = np.empty((links.size, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _WORD
        value *= hash_const
        value ^= value >> 16
        state[:, i] = value
    # Word pairs, low word first, read as 64-bit words on any byte order.
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_type() -> type:
    """The stand-in for ``SeedSequence`` that hands PCG64 one precomputed
    :func:`_stream_seeds` row. Defined on first use, so that importing the
    package does not import ``numpy.random`` (about 20 ms), which only the
    sampling paths need."""
    from numpy.random.bit_generator import ISeedSequence

    class Seed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("a stream seed holds the four 64-bit words of a PCG64 state")
            return self.state

    return Seed


def _streams(seeds: np.ndarray) -> list[np.random.Generator]:
    """The generators of :func:`_stream_seeds` rows; every random stream of
    a run is built here."""
    seed = _seed_type()
    return [np.random.Generator(np.random.PCG64(seed(row))) for row in seeds]


def _draw_channels(config: RsmConfig | FdConfig) -> Iterator[np.ndarray]:
    """The channel matrices of every link in index order, as
    ``(links, n_rx, n_tx)`` stacks of as many links as keep their ray
    responses, ``(n_rx + n_tx) n_paths`` complex values per link, within
    ``_DRAW_BYTES``, and at least one. Link ``ch`` is drawn from its own
    ``(seed, _TAG_CHANNEL, ch)`` stream, so :func:`run` and :func:`run_fd`
    under one seed see the same channels, whatever the stack sizes."""
    params = config.channel
    n_links = config.channels_per_point
    per_link = np.dtype(complex).itemsize * (params.n_rx + params.n_tx) * params.n_paths
    chunk = max(1, _DRAW_BYTES // per_link)
    seeds = _stream_seeds((config.seed, _TAG_CHANNEL), range(n_links))
    for first in range(0, n_links, chunk):
        yield draw_channel(params, _streams(seeds[first : first + chunk]))


def _build_ensemble(config: RsmConfig, constellation: Constellation) -> _Ensemble:
    """Draw the channel ensemble, keep each channel's selected power
    factor ``alpha``, and design the ``threshold_mode`` threshold of every
    (SNR point, channel) once.

    At the first SNR point, in grid order, where a link's design falls
    outside the design domain, the build raises: the
    :class:`~rsmsim.phy.OutsideDesignDomain` of the point's first link
    when every link of the point is outside, since the grid asks for it,
    and :class:`LinkOutsideDesignDomain`, naming the point, the first such
    link and its design SNR, when only some are.

    The selection's rcond floor is the one ZF soundness rule
    (:class:`~rsmsim.mimo.SingularChannel` otherwise); the blocks send
    through the identity that ZF makes of ``H_a @ B``, so no precoder is
    formed.
    """
    alphas = []
    for h in itertools.chain.from_iterable(_draw_channels(config)):
        if config.selection == "exhaustive":
            sel = select_antennas(h, config.n_active)
        else:
            sel = selection_for_indices(h, range(config.n_active))
        alphas.append(sel.alpha)
    alpha = np.array(alphas)
    alpha_p = np.array([alpha * (10.0 ** (snr / 10.0) * SIGMA2) for snr in config.snr_grid_db])
    mode, beta = config.threshold_mode, constellation.beta
    gamma = np.empty_like(alpha_p)
    for snr_db, row, designs in zip(config.snr_grid_db, alpha_p.tolist(), gamma):
        outside = []
        for ch, a in enumerate(row):
            try:
                designs[ch] = threshold(mode, a, SIGMA2, beta)
            except OutsideDesignDomain as err:
                outside.append((ch, err))
        if len(outside) == len(row):
            raise outside[0][1]
        if outside:
            ch = outside[0][0]
            low, high = DESIGN_RHO_RANGE
            raise LinkOutsideDesignDomain(
                f"threshold design of link {ch} at SNR point {snr_db:g} dB: design SNR "
                f"beta * alpha_p / sigma2 = {beta * row[ch] / SIGMA2:.3e} is outside the "
                f"supported range [{low:g}, {high:g}], while the designs of "
                f"{len(row) - len(outside)} of the point's {len(row)} links are inside it"
            )
    return _Ensemble(alpha=alpha, alpha_p=alpha_p, gamma=gamma)


@dataclass(frozen=True)
class _BlockCounts:
    """Counts of one Monte Carlo task, one entry per channel of its batch.

    ``failed`` counts the words of a channel left unsimulated because its
    pilot estimate degenerated; ``words`` is the batch total simulated.
    """

    spatial_errors: np.ndarray
    modulation_errors: np.ndarray
    failed: np.ndarray
    words: int


def _run_block(
    config: RsmConfig,
    constellation: Constellation,
    ensemble: _Ensemble,
    snr_idx: int,
    links: range,
    streams: dict[int, list[np.random.Generator]],
    buffers: BlockBuffers,
) -> _BlockCounts:
    """Simulate one (SNR point, batch of channels) block of data words.

    ``streams[tag][i]`` is the ``(seed, tag, snr_idx, links[i])`` stream:
    channel ``links[i]`` draws its words and noise from its
    ``_TAG_DATA`` stream and, with a pilot-estimated threshold, its
    pilots from its ``_TAG_PILOT`` one. Pilots and data
    words alike go through :func:`transmit`: ZF makes each link's
    effective channel the identity, so a word's noiseless received row is
    its amplitude-scaled symbol on the antennas its spatial word turns on.

    The words run in pieces of at most ``_BATCH_SYMBOLS`` antenna-words:
    a batch of several links fits in one piece, and one link longer than
    that runs in the fewest such pieces, in order, all of one width but
    the last, which is shorter by less than one word per piece. Each
    stream draws its spatial words, its symbols and the real parts of its
    noise for the whole link, and then the imaginary parts piece by piece,
    which are the values and the order of one draw of them; each link's
    counts are summed over its pieces. Only the words and the symbols,
    each in the narrowest unsigned dtype, and the real noise parts are
    held at the link's length; every other array has a piece's size.

    Every array comes from ``buffers``, so a block on a thread's reused
    set allocates none of its size: the words, the symbols, the spatial
    bits, the received rows and one flat work array. A piece first holds
    int64 copies of its words and symbols in the bytes of its rows, which
    are formed after them. The work array holds a front of bytes per
    piece word and then the real noise parts; the front holds the
    symbols' points until the rows are formed, and the imaginary noise
    parts of a piece are drawn into the bytes of its real ones once those
    are added. The detection tail then takes the front and the noise
    bytes of the first piece: the detected symbols, the detected flags
    beside the envelopes, then the combiner's and the slicer's arrays, and
    last the bit errors of each word's symbol pair. The spatial
    mismatches overwrite the sent bits.
    """
    trials = config.trials_per_point
    n_a, n_links = config.n_active, len(links)
    batch = slice(links.start, links.stop)
    alpha_p = ensemble.alpha_p[snr_idx, batch]
    failed = np.zeros(n_links, dtype=bool)
    if config.threshold_source == "perfect":
        gamma = ensemble.gamma[snr_idx, batch]
    else:
        # Pilots energize every active antenna and carry the minimum-amplitude
        # point, so the estimated threshold matches the beta-scaled design.
        n_p = config.n_pilots
        x_pilot = constellation.points[int(np.argmin(np.abs(constellation.points)))]
        pilots = transmit(
            np.ones((n_links, n_p, n_a), dtype=bool),
            np.full((n_links, n_p), x_pilot),
            np.sqrt(alpha_p),
        )
        amplitudes = np.abs(add_complex_noise(pilots, SIGMA2, streams[_TAG_PILOT]))
        gamma = np.zeros(n_links)
        for i, amps in enumerate(amplitudes):
            try:
                gamma[i] = 0.5 * estimate_amplitude(amps.ravel())
            except DegenerateSample:
                failed[i] = True
    kept = ~failed
    spatial = np.zeros(n_links, dtype=np.int64)
    modulation = np.zeros(n_links, dtype=np.int64)
    if kept.any():
        rngs = list(itertools.compress(streams[_TAG_DATA], kept))
        n = len(rngs)
        gamma, alpha_p = gamma[kept], alpha_p[kept]
        # A batch of several links fits in one piece; one link longer than the
        # budget runs in the fewest pieces of at most ``_BATCH_SYMBOLS // n_a``
        # words, all of one width but the last, which is shorter by less than
        # one word per piece.
        n_pieces = -(-trials // max(1, _BATCH_SYMBOLS // (n * n_a)))
        if n > 1 and n_pieces > 1:
            # The detection tail reuses spent noise bytes only where they lie
            # in one run, as they do for one link or one piece.
            raise ValueError(f"a batch of {n} links must fit in one piece of the batch budget")
        width = -(-trials // n_pieces)
        sent = buffers.get("sent", (n, width, n_a), bool)
        y = buffers.get("y", (n, width, n_a), complex)
        # Bytes per piece word at the front of the work array: the symbols'
        # points, or what the detection tail (the detected symbols, the flags,
        # and the envelopes or the combiner's arrays) needs beyond the first
        # piece's noise bytes.
        tail = 8 + n_a + max(8 * n_a, _combine_work_bytes(n_a, constellation))
        front = -(-(n * width * max(16, tail - 8 * n_a) + SCRATCH_SLACK) // 8) * 8
        work = buffers.get("work", (front + n * trials * n_a * 8,), np.uint8)
        real = work[front:].view(np.float64).reshape(n, trials, n_a)
        words = buffers.get("words", (n, trials), np.min_scalar_type((1 << n_a) - 1))
        js = buffers.get("symbols", (n, trials), np.min_scalar_type(constellation.order - 1))
        # Each stream draws its spatial words, its symbols and the real parts
        # of its noise here, and their imaginary parts piece by piece. The
        # words and the symbols come a piece at a time too, so that no int64
        # draw has the link's length; they are the values of one draw.
        for i, rng in enumerate(rngs):
            for values, low, high in ((words[i], 1, 1 << n_a), (js[i], 0, constellation.order)):
                for first in range(0, trials, width):
                    piece = values[first : first + width]
                    piece[...] = rng.integers(low, high, size=piece.size)
            rng.standard_normal(out=real[i])
        real *= math.sqrt(SIGMA2 / 2.0)
        amplitude = np.sqrt(alpha_p)

        def piece_arrays(size: int) -> tuple[np.ndarray, ...]:
            """The arrays of a piece of ``size`` words. The words and the
            symbols are indexed through an int64 copy in the bytes of the
            rows, which are formed after them and spent before the sent
            symbols are copied there again for the bit errors. The
            detection tail takes the front and the noise bytes of the first
            piece, which every piece has added to its rows before its tail."""
            rows, cells = (n, size), (n, size, n_a)
            y_piece = y[:, :size]
            index = Scratch(y_piece).take(rows, np.int64)
            points = Scratch(work).take(rows, complex)
            spent = Scratch(work[: front + real[:, :size].nbytes])
            detected = spent.take(rows, np.int64)
            flags = spent.rest()
            s_hat = spent.take(cells, bool)
            combiner = spent.rest()
            envelopes = spent.take(cells, np.float64)
            return (
                y_piece, sent[:, :size], index, points, detected, flags, s_hat, combiner, envelopes
            )

        link_spatial, link_modulation = np.zeros((2, n), dtype=np.int64)
        for first in range(0, trials, width):
            stop = min(first + width, trials)
            if first == 0 or stop - first < width:
                arrays = piece_arrays(stop - first)
            y_piece, bits, index, points, detected, flags, s_hat, combiner, envelopes = arrays
            np.copyto(index, words[:, first:stop])
            spatial_bits(index, n_a, out=bits)
            np.copyto(index, js[:, first:stop])
            # Every index is in range, so clipping changes none; unlike the
            # default mode it writes into ``out`` directly.
            np.take(constellation.points, index, out=points, mode="clip")
            transmit(bits, points, amplitude, out=y_piece)
            noise = real[:, first:stop]
            y_piece.real += noise
            for part, rng in zip(noise, rngs):
                rng.standard_normal(out=part)
            noise *= math.sqrt(SIGMA2 / 2.0)
            y_piece.imag += noise
            detect_spatial(np.abs(y_piece, out=envelopes), gamma, out=s_hat)
            mismatch = np.not_equal(bits, s_hat, out=bits)
            link_spatial += np.count_nonzero(mismatch, axis=(1, 2))
            j_hat = combine_and_detect_modulation(
                y_piece, s_hat, alpha_p, constellation, out=detected, work=combiner
            )
            np.copyto(index, js[:, first:stop])
            link_modulation += _bit_errors(constellation, index, j_hat, flags)
        spatial[kept], modulation[kept] = link_spatial, link_modulation
    return _BlockCounts(
        spatial_errors=spatial,
        modulation_errors=modulation,
        failed=np.where(failed, trials, 0),
        words=trials * int(kept.sum()),
    )


def _analytic_columns(
    config: RsmConfig, constellation: Constellation, ensemble: _Ensemble, snr_idx: int
) -> tuple[float, float, int]:
    """Channel-averaged analytic ABEP, perfect and pilot-estimated.

    Each column is one :func:`analysis.abep` call on the ensemble's
    ``alpha_p`` at the point: the perfect one with its designed
    thresholds, the estimated one with its pilot sample count. The third
    value counts the links left out of the estimated average because
    their threshold estimate has a singular Fisher matrix.
    """
    alpha_p = ensemble.alpha_p[snr_idx]
    perfect = analysis.abep(
        constellation, config.n_active, alpha_p, SIGMA2, gamma=ensemble.gamma[snr_idx]
    )
    estimated = analysis.abep(
        constellation,
        config.n_active,
        alpha_p,
        SIGMA2,
        n_pilot_samples=config.n_pilots * config.n_active,
    )
    n_links = len(ensemble.alpha)
    excluded = int(np.isnan(estimated.abep).sum())
    # With every link excluded the average is NaN; nanmean would also warn.
    mean = float(np.nanmean(estimated.abep)) if excluded < n_links else math.nan
    return float(np.mean(perfect.abep)), mean, excluded


def _fd_mode_gains(config: FdConfig) -> np.ndarray:
    """Draw the channel ensemble and factor each channel once, one stacked
    ``svd_link`` call per drawn chunk.

    Returns the ``(n_links, n_modes)`` top singular values;
    :func:`received_power` splits each SNR point's power over them.
    """
    return np.concatenate([svd_link(h, config.n_modes) for h in _draw_channels(config)])


def _fd_analytic(constellation: Constellation, received: np.ndarray) -> float:
    """Channel-averaged analytic BEP of the baseline from the ``(n_links,
    n_modes)`` received power of one SNR point; every mode of a link sees
    the SNR of its mode 0."""
    return float(np.mean(analysis.constellation_bep(constellation, received[:, 0] / SIGMA2)))


def _timed(fn: Callable, *args) -> tuple[object, float]:
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _ci95(ber: float, bits: int) -> float:
    """Wald 95% half-width of a BER measured over ``bits`` bits."""
    return 1.96 * math.sqrt(max(ber * (1.0 - ber), 0.0) / bits) if bits else math.nan


def _start() -> tuple[float, int]:
    """The ``time.perf_counter`` reading and the process's minor page
    faults so far, which a run's ``.timing`` line counts from."""
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _sweep_and_reduce(
    name: str,
    config: RsmConfig | FdConfig,
    n_threads: int,
    started: tuple[float, int],
    batches: list[range],
    tags: tuple[int, ...],
    block: Callable[[int, range, dict, BlockBuffers], object],
    analytic: Callable[[int], object],
    point: Callable[[float, list, object], tuple[SnrPoint, str]],
) -> ErrorReport:
    """Run ``block(snr_idx, links, streams, buffers)`` for every SNR point
    and batch of ``batches`` and ``analytic(snr_idx)`` for every SNR
    point, and reduce the grid point by point. ``streams[tag]`` holds the
    generators of the batch's ``(seed, tag, snr_idx, ch)`` streams for
    every tag of ``tags``, and ``buffers`` is the sweep's one
    :class:`~rsmsim.buffers.BlockBuffers`. The first of a point's Monte
    Carlo tasks to run hashes the seeds of all the point's channels, one
    :func:`_stream_seeds` call per tag, in its thread, so a sweep with no
    batches hashes none. Hashing in the workers rather than in the
    submitting thread kept ``mc_estimated``'s peak RSS down (the
    CHANGES.md entry "Baseline Monte Carlo down to its draws").

    With ``n_threads > 1`` every task goes to one pool up front, each
    point's analytic task ahead of its blocks, and the tasks still pending
    when the sweep ends or fails are cancelled; otherwise a point's tasks
    are made when the point is reached, so that no point's seeds outlive
    it, and each runs in the calling thread when its result is collected.
    A point's blocks are collected before its analytic result, so the
    first failure in grid order raises at any thread count.

    ``point(snr_db, block results, analytic result)`` returns the
    point's :class:`SnrPoint` and its log message, which is logged with
    the seconds elapsed since ``started`` (a :func:`_start` reading) and
    an estimate of the seconds left, after one DEBUG line per block with
    its seconds; the time from then to this call counts as the link build
    on the ``.timing`` line. That line also gives the process's peak RSS
    and the minor page faults since ``started``. Every point has the same
    number of blocks, so the share of the sweep's blocks that has
    finished is taken as the share of points reduced, and the estimate
    is the sweep's seconds so far scaled by the share still to come.
    """
    start, start_faults = started
    link_s = time.perf_counter() - start
    grid = config.snr_grid_db
    channels = range(config.channels_per_point)
    buffers = BlockBuffers()
    pool = ThreadPoolExecutor(max_workers=n_threads) if n_threads > 1 else None

    def task(fn: Callable, *args) -> Callable[[], tuple[object, float]]:
        if pool is None:
            return functools.partial(_timed, fn, *args)
        return pool.submit(_timed, fn, *args).result

    def point_tasks(snr_idx: int) -> tuple[Callable, list[Callable]]:
        lock, seeds = threading.Lock(), {}

        def run_batch(links: range) -> object:
            with lock:
                if not seeds:
                    for tag in tags:
                        seeds[tag] = _stream_seeds((config.seed, tag, snr_idx), channels)
            streams = {tag: _streams(seeds[tag][links.start : links.stop]) for tag in tags}
            return block(snr_idx, links, streams, buffers)

        return task(analytic, snr_idx), [task(run_batch, links) for links in batches]

    points = []
    blocks_s = analytic_s = 0.0
    try:
        tasks = map(point_tasks, range(len(grid)))
        if pool is not None:
            tasks = list(tasks)
        for done, (snr_db, (analytic_task, block_tasks)) in enumerate(zip(grid, tasks), 1):
            blocks = [result() for result in block_tasks]
            result, seconds = analytic_task()
            for block_idx, (_, block_s) in enumerate(blocks):
                log.debug("snr=%g dB block %d: %.3f s", snr_db, block_idx, block_s)
            blocks_s += sum(block_s for _, block_s in blocks)
            analytic_s += seconds
            snr_point, message = point(snr_db, [counts for counts, _ in blocks], result)
            points.append(snr_point)
            elapsed = time.perf_counter() - start
            left = (elapsed - link_s) * (len(grid) - done) / done
            log.info("%s, %.3f s elapsed, about %.3f s left", message, elapsed, left)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    sweep_s = time.perf_counter() - start - link_s
    usage = resource.getrusage(resource.RUSAGE_SELF)
    timing_log.info(
        "%s: %d thread(s); link build %.3f s, sweep %.3f s "
        "(summed over tasks: blocks %.3f s, analytic columns %.3f s); "
        "peak RSS %.1f MB, %d minor page faults",
        name,
        n_threads,
        link_s,
        sweep_s,
        blocks_s,
        analytic_s,
        usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        usage.ru_minflt - start_faults,
    )
    return ErrorReport(points=tuple(points), seed=config.seed)


def _batches(config: RsmConfig | FdConfig, symbols_per_word: int) -> list[range]:
    """The link batches of one SNR point's Monte Carlo tasks, in order."""
    n_links = config.channels_per_point
    step = _batch_links(config.trials_per_point, symbols_per_word)
    return [range(first, min(first + step, n_links)) for first in range(0, n_links, step)]


def _analytic_rows(report: ErrorReport) -> list[tuple[float, float, float]]:
    return [(p.snr_db, p.abep_analytic, p.abep_analytic_estimated) for p in report.points]


def run(config: RsmConfig, n_threads: int = 1) -> ErrorReport:
    """Execute the full RSM experiment described by ``config``.

    ``n_threads > 1`` runs the Monte Carlo blocks and the analytic
    columns of every SNR point on one pool of that many threads. Each
    Monte Carlo task runs :func:`_run_block` on one batch of channels;
    channel ``ch`` at SNR index ``s`` draws from its own
    ``(seed, tag, s, ch)`` streams whatever the batching.
    """
    return _run_rsm("run", config, n_threads, _batches(config, config.n_active))


def analytic_curves(config: RsmConfig) -> list[tuple[float, float, float]]:
    """(snr_db, perfect ABEP, estimated ABEP) rows without any sampling:
    the sweep of :func:`run` with no Monte Carlo tasks, so the analytic
    columns agree with a full simulation under the same seed."""
    return _analytic_rows(_run_rsm("analytic_curves", config, 1, []))


def _run_rsm(name: str, config: RsmConfig, n_threads: int, batches: list[range]) -> ErrorReport:
    """The RSM sweep, logged as ``name``, with Monte Carlo tasks on the
    link ``batches`` of each SNR point (none for the analytic columns
    alone)."""
    constellation = build_constellation(
        config.constellation_kind, config.constellation_order, config.ring_ratio
    )
    started = _start()
    ensemble = _build_ensemble(config, constellation)
    n_links = len(ensemble.alpha)
    k = constellation.bits_per_symbol
    tags = (_TAG_PILOT, _TAG_DATA) if config.threshold_source == "estimated" else (_TAG_DATA,)
    block = functools.partial(_run_block, config, constellation, ensemble)
    analytic = functools.partial(_analytic_columns, config, constellation, ensemble)

    def point(
        snr_db: float, blocks: list[_BlockCounts], columns: tuple[float, float, int]
    ) -> tuple[SnrPoint, str]:
        spatial = sum(int(c.spatial_errors.sum()) for c in blocks)
        modulation = sum(int(c.modulation_errors.sum()) for c in blocks)
        words = sum(c.words for c in blocks)
        failed = sum(int(c.failed.sum()) for c in blocks)
        if failed > ERROR_BUDGET * (words + failed):
            raise PointAborted(snr_db, failed / (words + failed))
        bits = words * (config.n_active + k)
        ber_total = (spatial + modulation) / bits if bits else math.nan
        ber_spatial = spatial / (words * config.n_active) if words else math.nan
        ber_modulation = modulation / (words * k) if words else math.nan
        abep_perfect, abep_estimated, excluded = columns
        message = (
            f"snr={snr_db:g} dB ber={ber_total:.3e} (spatial {ber_spatial:.3e}, "
            f"modulation {ber_modulation:.3e}, analytic {abep_perfect:.3e}, "
            f"estimated {abep_estimated:.3e} with {excluded} of {n_links} links "
            "excluded: singular Fisher)"
        )
        return (
            SnrPoint(
                snr_db=snr_db,
                ber_total=ber_total,
                ber_spatial=ber_spatial,
                ber_modulation=ber_modulation,
                abep_analytic=abep_perfect,
                abep_analytic_estimated=abep_estimated,
                ci_halfwidth_95=_ci95(ber_total, bits),
                bits_counted=bits,
                excluded_links=excluded,
                failed_words=failed,
            ),
            message,
        )

    return _sweep_and_reduce(
        name, config, n_threads, started, batches, tags, block, analytic, point
    )


def run_fd(config: FdConfig, n_threads: int = 1) -> ErrorReport:
    """Execute the fully digital SVD baseline experiment.

    Each Monte Carlo task runs :func:`fd_ber` on one batch of channels;
    channel ``ch`` at SNR index ``s`` draws from its own
    ``(seed, _TAG_FD, s, ch)`` stream whatever the batching.
    """
    return _run_fd("run_fd", config, n_threads, _batches(config, config.n_modes))


def analytic_curves_fd(config: FdConfig) -> list[tuple[float, float, float]]:
    """Analytic rows for the fully digital baseline (estimated column NaN):
    the sweep of :func:`run_fd` with no Monte Carlo tasks."""
    return _analytic_rows(_run_fd("analytic_curves_fd", config, 1, []))


def _run_fd(name: str, config: FdConfig, n_threads: int, batches: list[range]) -> ErrorReport:
    """The baseline sweep, logged as ``name``, with Monte Carlo tasks on
    the link ``batches`` of each SNR point (none for the analytic column
    alone)."""
    constellation = build_constellation(
        config.constellation_kind, config.constellation_order, config.ring_ratio
    )
    started = _start()
    gains = _fd_mode_gains(config)
    trials = config.trials_per_point
    received = [
        received_power(gains, 10.0 ** (snr_db / 10.0) * SIGMA2) for snr_db in config.snr_grid_db
    ]
    bits_per_link = trials * config.n_modes * constellation.bits_per_symbol

    def block(snr_idx: int, links: range, streams: dict, buffers: BlockBuffers) -> np.ndarray:
        words, rngs = len(links) * trials, streams[_TAG_FD]
        received_links = received[snr_idx][links.start : links.stop]
        return fd_ber(received_links, constellation, SIGMA2, words, rngs, buffers)

    def analytic(snr_idx: int) -> float:
        return _fd_analytic(constellation, received[snr_idx])

    def point(snr_db: float, blocks: list[np.ndarray], abep: float) -> tuple[SnrPoint, str]:
        bits = sum(counts.size for counts in blocks) * bits_per_link
        ber = sum(int(counts.sum()) for counts in blocks) / bits if bits else math.nan
        return (
            SnrPoint(
                snr_db=snr_db,
                ber_total=ber,
                ber_spatial=0.0,
                ber_modulation=ber,
                abep_analytic=abep,
                abep_analytic_estimated=math.nan,
                ci_halfwidth_95=_ci95(ber, bits),
                bits_counted=bits,
            ),
            f"snr={snr_db:g} dB ber={ber:.3e} (analytic {abep:.3e})",
        )

    return _sweep_and_reduce(
        name, config, n_threads, started, batches, (_TAG_FD,), block, analytic, point
    )
