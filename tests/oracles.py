"""Reference implementations that the tests check the simulator against.

Every transceiver, channel and analysis step takes a leading link axis;
:func:`batch_of_one` turns the inputs of a single link into a batch of one.
The oracles are the slow, one-link-at-a-time forms of the batched code:
:func:`reference_block` of ``simulate._run_block``, :func:`fd_ber_oracle`
of ``baseline.fd_ber`` and :func:`joint_ml_detect` of the per-antenna
threshold detector.
"""

import functools
import itertools
import math

import numpy as np
from scipy import special

from rsmsim.mimo import select_antennas, selection_for_indices, zf_precoder
from rsmsim.phy import (
    add_complex_noise,
    combine_and_detect_modulation,
    detect_spatial,
    spatial_bits,
    threshold,
)


def batch_of_one(value):
    """``value`` as a batch of one link.

    A generator becomes a list of one; anything else becomes an array with
    a leading axis of one, a view of ``value`` when it is an array, so a
    step that works in place changes ``value`` itself.
    """
    if isinstance(value, np.random.Generator):
        return [value]
    return np.asarray(value)[None]


@functools.lru_cache(maxsize=8)
def zf_links(config):
    """(alpha, H_a, B) of every link of an RSM config: its selection's
    power factor, its selected channel rows and their ZF precoder, from
    the channels the run draws and the config's selection rule."""
    from rsmsim import simulate

    links = []
    for h in itertools.chain.from_iterable(simulate._draw_channels(config)):
        if config.selection == "exhaustive":
            sel = select_antennas(h, config.n_active)
        else:
            sel = selection_for_indices(h, range(config.n_active))
        links.append((sel.alpha, sel.h_active, zf_precoder(sel)))
    return links


def reference_block(config, constellation, snr_idx, ch):
    """(spatial errors, modulation errors, failed words) of one channel.

    The per-channel block that the batched ``_run_block`` replaced, kept
    as its oracle: it designs or estimates its own threshold and runs the
    phy chain on a batch of one channel, with one generator per stream.
    Where the block sends through the identity that ZF makes, the oracle
    sends every row through the physical chain, the precoder ``B`` and
    then the selected channel rows ``H_a``.
    """
    from rsmsim import simulate
    from rsmsim.training import DegenerateSample, estimate_amplitude

    sigma2 = simulate.SIGMA2
    power = 10.0 ** (config.snr_grid_db[snr_idx] / 10.0) * sigma2
    alpha, h_active, precoder = zf_links(config)[ch]
    alpha_p = alpha * power
    trials, n_a = config.trials_per_point, config.n_active
    amplitude = math.sqrt(alpha_p)

    def received(spatial, symbols):
        return batch_of_one(amplitude * (spatial * symbols[:, None]) @ (h_active @ precoder).T)

    if config.threshold_source == "perfect":
        gamma = threshold(config.threshold_mode, alpha_p, sigma2, constellation.beta)
    else:
        # n_pilots rows with every active antenna on the minimum-amplitude point
        rng = np.random.default_rng([config.seed, simulate._TAG_PILOT, snr_idx, ch])
        n_p = config.n_pilots
        x_pilot = constellation.points[int(np.argmin(np.abs(constellation.points)))]
        pilots = received(np.ones((n_p, n_a), dtype=bool), np.full(n_p, x_pilot))
        amps = np.abs(add_complex_noise(pilots, sigma2, batch_of_one(rng))).ravel()
        try:
            gamma = 0.5 * estimate_amplitude(amps)
        except DegenerateSample:
            return 0, 0, trials
    rng = np.random.default_rng([config.seed, simulate._TAG_DATA, snr_idx, ch])
    sent = spatial_bits(rng.integers(1, 1 << n_a, size=trials), n_a)
    js = rng.integers(0, constellation.order, size=trials)
    y = add_complex_noise(received(sent, constellation.points[js]), sigma2, batch_of_one(rng))
    s_hat = detect_spatial(np.abs(y), batch_of_one(gamma))
    j_hat = combine_and_detect_modulation(y, s_hat, batch_of_one(alpha_p), constellation)[0]
    labels = constellation.labels
    return (
        int(np.count_nonzero(sent != s_hat[0])),
        int(np.bitwise_count(labels[js] ^ labels[j_hat]).sum()),
        0,
    )


def fd_ber_oracle(received, constellation, sigma2, trials, rng):
    """One link at a time, in the stream order of the batch simulator:
    symbols, then the real and the imaginary noise; full-search detection."""
    gains = np.sqrt(received)
    js = rng.integers(0, constellation.order, size=(trials, received.size))
    clean = gains[None, :] * constellation.points[js]
    y = add_complex_noise(batch_of_one(clean), sigma2, batch_of_one(rng))[0]
    j_hat = np.argmin(np.abs(y[..., None] - gains[:, None] * constellation.points), axis=-1)
    labels = constellation.labels
    return int(np.bitwise_count(labels[js] ^ labels[j_hat]).sum())


def joint_ml_detect(envelopes, alpha_p, sigma2):
    """Exhaustive joint-ML spatial detection over all candidate words.

    Scores every 0/1 word (the all-zero one included) of each row of the
    (trials, n_active) envelopes under the product Rice/Rayleigh
    likelihood, as one product with the candidate matrix; exponential in
    the number of active antennas, so a reference detector for small
    arrays. Ties resolve toward the word with fewer ones, then toward the
    smaller word (antenna k at bit k), as in ``test_phy.joint_ml_oracle``.
    """
    u = 2.0 * envelopes * math.sqrt(alpha_p) / sigma2
    # Per-antenna log-likelihood gain of deciding "on" versus "off".
    gain = u + np.log(special.i0e(u)) - alpha_p / sigma2
    n = envelopes.shape[1]
    # One column per word in tie order; argmax keeps the first best column.
    words = sorted(range(1 << n), key=lambda w: (w.bit_count(), w))
    candidates = ((np.array(words) >> np.arange(n)[:, None]) & 1).astype(float)
    best = np.argmax(gain @ candidates, axis=1)
    return candidates.T[best].astype(bool)
