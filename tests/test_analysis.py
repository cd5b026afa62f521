"""Tests for the closed-form error analysis."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmsim.analysis import (
    AbepBreakdown,
    abep,
    constellation_bep,
    modulation_error_prob,
    spatial_error_probs_estimated,
    spatial_error_probs_perfect,
)
from rsmsim.phy import (
    build_constellation,
    combine_and_detect_modulation,
    detect_spatial,
    threshold,
)
from rsmsim.training import SingularFisher, threshold_estimate_stats
from oracles import batch_of_one, gray_square_qam_bep

CONSTELLATIONS = {
    "psk": build_constellation("psk", 16),
    "qam": build_constellation("qam", 16),
    "apsk": build_constellation("apsk", 16, 2.0),
}


# Reference enumeration of every sent/detected spatial word pair, kept
# as the oracle for the count-class sum in rsmsim.analysis.


@dataclass(frozen=True)
class TransitionCounts:
    """Per-antenna agreement counts between a sent and a detected word.

    ``b11`` counts antennas energized and flagged, ``b10`` energized but
    missed, ``b01`` silent but flagged, ``b00`` silent and unflagged.
    """

    b11: int
    b10: int
    b01: int
    b00: int

    def __post_init__(self) -> None:
        if min(self.b11, self.b10, self.b01, self.b00) < 0:
            raise ValueError("transition counts must be nonnegative")

    @property
    def n_active(self) -> int:
        return self.b11 + self.b10 + self.b01 + self.b00

    @classmethod
    def from_words(cls, sent: int, detected: int, n_active: int) -> "TransitionCounts":
        """Counts for integer-encoded words (bit k = antenna k)."""
        mask = (1 << n_active) - 1
        sent &= mask
        detected &= mask
        b11 = bin(sent & detected).count("1")
        b10 = bin(sent & ~detected & mask).count("1")
        b01 = bin(~sent & detected & mask).count("1")
        return cls(b11=b11, b10=b10, b01=b01, b00=n_active - b11 - b10 - b01)


def transition_probability(counts: TransitionCounts, p1: float, p0: float) -> float:
    """Probability of one detected word given the sent word."""
    return (
        p1**counts.b10
        * (1.0 - p1) ** counts.b11
        * p0**counts.b01
        * (1.0 - p0) ** counts.b00
    )


def enumerated_modulation_error_prob(constellation, alpha_p, sigma2, n_active, p1, p0):
    """Modulation BEP summed over all (2^n - 1) x 2^n word pairs."""
    n_words = 1 << n_active
    prior = 1.0 / (n_words - 1)
    snr_base = alpha_p / sigma2
    bep_at = {}  # constellation_bep is pure; look each combining SNR up once
    total = 0.0
    for sent in range(1, n_words):
        for detected in range(n_words):
            counts = TransitionCounts.from_words(sent, detected, n_active)
            prob = transition_probability(counts, p1, p0)
            if prob == 0.0:
                continue
            if counts.b11 == 0:
                bep = 0.5
            else:
                snr_c = counts.b11**2 / (counts.b11 + counts.b01) * snr_base
                if snr_c not in bep_at:
                    bep_at[snr_c] = constellation_bep(constellation, snr_c)
                bep = bep_at[snr_c]
            total += bep * prob * prior
    return total


BREAKDOWN_FIELDS = ("p_es", "p_em", "abep", "p1", "p0")


def composed_point(constellation, n_active, alpha_p, gamma, n_pilot_samples=None):
    """(p_es, p_em, abep, p1, p0) of one link, composed from the public
    kernels: the spatial tails per constellation power level, their level
    average, the modulation sum, then the rate-weighted mix. All NaN when
    the pilot threshold's Fisher matrix is singular."""
    powers = np.round(np.abs(constellation.points) ** 2, 12)
    levels, counts = np.unique(powers, return_counts=True)
    weights = counts / counts.sum()
    if n_pilot_samples is None:
        tails = [spatial_error_probs_perfect(gamma, alpha_p * lv, 1.0) for lv in levels]
    else:
        try:
            stats = threshold_estimate_stats(constellation.beta * alpha_p, 1.0, n_pilot_samples)
        except SingularFisher:
            return (math.nan,) * 5
        tails = [spatial_error_probs_estimated(stats, alpha_p * lv, 1.0) for lv in levels]
    p1 = sum(float(wt) * q1 for wt, (q1, _) in zip(weights, tails))
    p0 = tails[0][1]
    p_es = 0.5 * (p1 + p0)
    p_em = modulation_error_prob(constellation, alpha_p, 1.0, n_active, p1, p0)
    k = constellation.bits_per_symbol
    return p_es, p_em, (n_active * p_es + k * p_em) / (n_active + k), p1, p0


def mc_constellation_bep(constellation, snr, n, seed):
    rng = np.random.default_rng(seed)
    k = constellation.bits_per_symbol
    js = rng.integers(0, constellation.order, n)
    sig = math.sqrt(1.0 / snr / 2.0)
    y = constellation.points[js] + sig * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    # Decide in chunks: one n x order distance matrix at n = 10^7 is 2.6 GB.
    j_hat = np.concatenate(
        [
            np.argmin(np.abs(chunk[:, None] - constellation.points[None, :]), axis=1)
            for chunk in np.array_split(y, -(-n // 2**18))
        ]
    )
    xor = constellation.labels[js] ^ constellation.labels[j_hat]
    return float(np.bitwise_count(xor).sum()) / (n * k)


class TestTransitionCounts:
    def test_worked_example(self):
        counts = TransitionCounts.from_words(0b1011, 0b0110, 4)
        assert (counts.b11, counts.b10, counts.b01, counts.b00) == (1, 2, 1, 0)

    @given(
        sent=st.integers(min_value=1, max_value=15),
        detected=st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_invariants(self, sent, detected):
        counts = TransitionCounts.from_words(sent, detected, 4)
        assert counts.n_active == 4
        assert counts.b11 + counts.b10 == bin(sent).count("1")
        assert counts.b01 + counts.b00 == 4 - bin(sent).count("1")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TransitionCounts(b11=-1, b10=0, b01=0, b00=2)


class TestSpatialProbsPerfect:
    def test_threshold_at_origin(self):
        p1, p0 = spatial_error_probs_perfect(0.0, 4.0, 1.0)
        assert p1 == 0.0
        assert p0 == 1.0

    def test_hsa_false_alarm_closed_form(self):
        # With gamma = sqrt(alpha_p)/2 the Rayleigh tail is exp(-alpha_p/4).
        alpha_p = 100.0
        gamma = threshold("hsa", alpha_p, 1.0)
        _, p0 = spatial_error_probs_perfect(gamma, alpha_p, 1.0)
        assert p0 == pytest.approx(math.exp(-alpha_p / 4.0), rel=1e-12)

    def test_against_envelope_monte_carlo(self):
        rng = np.random.default_rng(17)
        alpha_p, sigma2 = 12.0, 1.0
        gamma = threshold("hsa", alpha_p, sigma2)
        p1, p0 = spatial_error_probs_perfect(gamma, alpha_p, sigma2)
        n = 10**6
        sig_c = math.sqrt(sigma2 / 2)
        a_on = np.abs(
            math.sqrt(alpha_p)
            + sig_c * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        )
        a_off = np.abs(sig_c * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        for formula, mc in ((p1, (a_on < gamma).mean()), (p0, (a_off > gamma).mean())):
            band = 3 * math.sqrt(max(formula * (1 - formula), 1e-12) / n)
            assert abs(formula - mc) <= band + 1e-9


class TestSpatialProbsEstimated:
    def test_degenerate_estimator_recovers_perfect(self):
        alpha_p, sigma2 = 10 ** (15 / 10), 1.0
        mean, _ = threshold_estimate_stats(alpha_p, sigma2, 4)
        p1_ref, p0_ref = spatial_error_probs_perfect(mean, alpha_p, sigma2)
        prev_gap = math.inf
        for var in (1e-2, 1e-4, 1e-6, 1e-8):
            p1, p0 = spatial_error_probs_estimated((mean, var), alpha_p, sigma2)
            gap = abs(p1 - p1_ref) + abs(p0 - p0_ref)
            assert gap < prev_gap or gap < 1e-10
            prev_gap = gap
        assert prev_gap < 1e-8

    def test_zero_power_collapses_to_single_t(self):
        # As alpha_p -> 0+ the denominator non-centrality vanishes, so the
        # miss probability tends to the complementary non-central t CDF;
        # alpha_p = 0 itself is outside the kernel's domain (lam > 0).
        from rsmsim.specfun import DomainError, noncentral_t_cdf

        stats = (1.4, 0.09)
        p1, p0 = spatial_error_probs_estimated(stats, 1e-15, 1.0)
        ratio = 1.0 / math.sqrt(0.09)
        delta = 1.4 / math.sqrt(0.09)
        assert p1 == pytest.approx(1.0 - noncentral_t_cdf(ratio, delta), abs=1e-12)
        assert p0 == pytest.approx(noncentral_t_cdf(ratio, delta), abs=1e-12)
        with pytest.raises(DomainError):
            spatial_error_probs_estimated(stats, 0.0, 1.0)

    def test_operating_range_stays_in_kernel_domain(self):
        # -20...60 dB, power factors 0.05-2 and 1-256 pilot samples: no
        # kernel raises and every tail is a probability. Links with a
        # singular Fisher matrix are left out, as abep does.
        alpha_p = np.outer(10 ** (np.arange(-20.0, 61.0, 5.0) / 10), [0.05, 0.3, 2.0]).ravel()
        for n_samples in (1, 4, 16, 64, 256):
            kept, stats = [], []
            for a in alpha_p:
                try:
                    stats.append(threshold_estimate_stats(a, 1.0, n_samples))
                except SingularFisher:
                    continue
                kept.append(a)
            assert len(kept) > alpha_p.size / 2
            mean, variance = np.array(stats).T
            for p in spatial_error_probs_estimated((mean, variance), np.array(kept), 1.0):
                assert np.all((0.0 <= p) & (p <= 1.0))
        for mode in ("exact", "msa", "hsa"):
            gamma = np.array([threshold(mode, a, 1.0) for a in alpha_p])
            for p in spatial_error_probs_perfect(gamma, alpha_p, 1.0):
                assert np.all((0.0 <= p) & (p <= 1.0))

    def test_against_pilot_pipeline_monte_carlo(self):
        # End-to-end oracle: estimate the threshold from one pilot block,
        # then detect fresh envelopes against it; 15 dB, N = 4 samples.
        rng = np.random.default_rng(31)
        sigma2, alpha_p, n_samples = 1.0, 10 ** (15 / 10), 4
        theta = math.sqrt(alpha_p)
        stats = threshold_estimate_stats(alpha_p, sigma2, n_samples)
        p1_f, p0_f = spatial_error_probs_estimated(stats, alpha_p, sigma2)
        n_rep = 10**6
        sig_c = math.sqrt(sigma2 / 2)
        a_pil = np.abs(
            theta
            + sig_c
            * (
                rng.standard_normal((n_rep, n_samples))
                + 1j * rng.standard_normal((n_rep, n_samples))
            )
        )
        m = a_pil.mean(axis=1)
        q = (a_pil * a_pil).mean(axis=1)
        rad = 4 * m * m - 3 * q
        ok = rad >= 0
        assert ok.mean() > 0.9999
        gamma_hat = 0.5 * ((2 / 3) * m[ok] + (1 / 3) * np.sqrt(rad[ok]))
        k = gamma_hat.size
        a_on = np.abs(theta + sig_c * (rng.standard_normal(k) + 1j * rng.standard_normal(k)))
        a_off = np.abs(sig_c * (rng.standard_normal(k) + 1j * rng.standard_normal(k)))
        for formula, mc in (
            (p1_f, (a_on < gamma_hat).mean()),
            (p0_f, (a_off > gamma_hat).mean()),
        ):
            band = 3 * math.sqrt(max(formula * (1 - formula), 1e-12) / k)
            assert abs(formula - mc) <= band


class TestTransitionProbability:
    @pytest.mark.parametrize("n_active", [1, 2, 3, 4])
    @pytest.mark.parametrize("p1,p0", [(0.0, 0.0), (0.5, 0.5), (0.12, 0.03), (1.0, 1.0)])
    def test_completeness(self, n_active, p1, p0):
        # Detected words partition the outcome space for every sent word.
        for sent in range(1, 1 << n_active):
            total = sum(
                transition_probability(TransitionCounts.from_words(sent, det, n_active), p1, p0)
                for det in range(1 << n_active)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestModulationErrorProb:
    @given(
        kind=st.sampled_from(sorted(CONSTELLATIONS)),
        n_active=st.integers(min_value=1, max_value=6),
        alpha_p=st.floats(min_value=0.01, max_value=50.0),
        p1=st.floats(min_value=0.0, max_value=1.0),
        p0=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_class_sum_matches_enumeration(self, kind, n_active, alpha_p, p1, p0):
        c = CONSTELLATIONS[kind]
        value = modulation_error_prob(c, alpha_p, 1.0, n_active, p1, p0)
        expected = enumerated_modulation_error_prob(c, alpha_p, 1.0, n_active, p1, p0)
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_twelve_antennas_closed_form(self):
        # Without spatial errors only the sent word's weight w matters:
        # C(12, w) of the 4095 legal words combine w branches coherently.
        c = build_constellation("psk", 16)
        n_active, alpha_p = 12, 0.8
        value = modulation_error_prob(c, alpha_p, 1.0, n_active, 0.0, 0.0)
        expected = sum(
            math.comb(n_active, w) * constellation_bep(c, w * alpha_p)
            for w in range(1, n_active + 1)
        ) / (2**n_active - 1)
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_perfect_detection_reduces_to_weight_average(self):
        c = build_constellation("psk", 16)
        n_active, alpha_p, sigma2 = 3, 25.0, 1.0
        value = modulation_error_prob(c, alpha_p, sigma2, n_active, 0.0, 0.0)
        expected = 0.0
        for sent in range(1, 8):
            w = bin(sent).count("1")
            expected += constellation_bep(c, w * alpha_p / sigma2) / 7.0
        assert value == pytest.approx(expected, rel=1e-12)

    def test_single_antenna_two_term_form(self):
        c = build_constellation("psk", 8)
        alpha_p, sigma2 = 16.0, 1.0
        gamma = threshold("hsa", alpha_p, sigma2)
        p1, p0 = spatial_error_probs_perfect(gamma, alpha_p, sigma2)
        value = modulation_error_prob(c, alpha_p, sigma2, 1, p1, p0)
        expected = (1 - p1) * constellation_bep(c, alpha_p / sigma2) + p1 * 0.5
        assert value == pytest.approx(expected, rel=1e-12)

    def test_against_combine_pipeline_monte_carlo(self):
        # Full switch-and-combine simulation at 15 dB, two active antennas.
        c = build_constellation("psk", 16)
        n_active, sigma2 = 2, 1.0
        alpha_p = 10 ** (15 / 10)
        gamma = threshold("hsa", alpha_p, sigma2, c.beta)
        p1, p0 = spatial_error_probs_perfect(gamma, alpha_p, sigma2)
        formula = modulation_error_prob(c, alpha_p, sigma2, n_active, p1, p0)
        rng = np.random.default_rng(5)
        n = 10**6
        sent = rng.integers(1, 1 << n_active, n)
        s_bits = (sent[:, None] >> np.arange(n_active)) & 1
        js = rng.integers(0, 16, n)
        noise = math.sqrt(sigma2 / 2) * (
            rng.standard_normal((n, n_active)) + 1j * rng.standard_normal((n, n_active))
        )
        y = math.sqrt(alpha_p) * s_bits * c.points[js][:, None] + noise
        s_hat = detect_spatial(*map(batch_of_one, (np.abs(y), gamma)))
        j_hat = combine_and_detect_modulation(batch_of_one(y), s_hat, batch_of_one(alpha_p), c)[0]
        mc = float(np.bitwise_count(c.labels[js] ^ c.labels[j_hat]).sum()) / (n * 4)
        band = 3 * math.sqrt(formula * (1 - formula) / (n * 4))
        assert abs(formula - mc) <= band


class TestConstellationBep:
    def test_bpsk_textbook(self):
        from rsmsim.specfun import gaussian_q

        c = build_constellation("psk", 2)
        for snr in (0.5, 2.0, 8.0):
            assert constellation_bep(c, snr) == pytest.approx(
                gaussian_q(math.sqrt(2 * snr)), rel=1e-12
            )

    @pytest.mark.parametrize("kind,order,ring", [
        ("psk", 16, None), ("qam", 16, None), ("apsk", 16, 2.0),
    ])
    def test_zero_snr_near_coin_flip(self, kind, order, ring):
        c = build_constellation(kind, order, ring)
        assert 0.25 <= constellation_bep(c, 0.0) <= 0.6

    def test_qam16_within_ten_percent_of_exact(self):
        c = build_constellation("qam", 16)
        snr = 10 ** (15 / 10)
        exact = gray_square_qam_bep(16, snr)
        assert constellation_bep(c, snr) == pytest.approx(exact, rel=0.10)

    def test_psk16_within_ten_percent_of_monte_carlo(self):
        c = build_constellation("psk", 16)
        snr = 10 ** (14 / 10)
        mc = mc_constellation_bep(c, snr, n=10**6, seed=3)
        assert constellation_bep(c, snr) == pytest.approx(mc, rel=0.10)

    def test_apsk16_union_bound_accuracy(self):
        # Near-neighbour union bound measured at ~6% of Monte Carlo through
        # the waterfall; assert 15% to leave statistical headroom.
        c = build_constellation("apsk", 16, 2.0)
        for db, seed in ((12, 4), (15, 5)):
            snr = 10 ** (db / 10)
            mc = mc_constellation_bep(c, snr, n=10**6, seed=seed)
            assert constellation_bep(c, snr) == pytest.approx(mc, rel=0.15)

    def test_rejects_negative_snr(self):
        c = build_constellation("psk", 4)
        with pytest.raises(ValueError):
            constellation_bep(c, -1.0)


class TestBatchedEnsemble:
    """Array calls hold, element for element, what calls on a batch of
    one link return."""

    ALPHAS = np.array([0.05, 0.3, 1.0, 2.5, 8.0, 40.0])

    @pytest.mark.parametrize("kind", ["psk", "qam"])
    @pytest.mark.parametrize("n_pilot_samples", [None, 4])
    def test_abep_matches_per_link_calls(self, kind, n_pilot_samples):
        c = CONSTELLATIONS[kind]
        for snr in (0.0, 6.0, 14.0):
            alpha_p = self.ALPHAS * 10.0 ** (snr / 10.0)
            gamma = np.array([threshold("exact", a, 1.0, c.beta) for a in alpha_p])
            known = n_pilot_samples is None
            batch = abep(c, 3, alpha_p, 1.0, gamma if known else None, n_pilot_samples)
            assert np.isnan(batch.abep).sum() < len(alpha_p)
            for i in range(len(alpha_p)):
                link = slice(i, i + 1)
                b_1 = abep(c, 3, alpha_p[link], 1.0, gamma[link] if known else None, n_pilot_samples)
                expected = composed_point(c, 3, float(alpha_p[i]), float(gamma[i]), n_pilot_samples)
                for name, value in zip(BREAKDOWN_FIELDS, expected):
                    got = getattr(batch, name)[i]
                    assert np.array_equal(got, getattr(b_1, name)[0], equal_nan=True), name
                    assert np.array_equal(got, value, equal_nan=True), name

    def test_singular_fisher_link_is_nan_in_batch(self):
        # 0.2 received pilot power leaves the Fisher matrix singular.
        c = CONSTELLATIONS["psk"]
        b = abep(c, 4, np.array([0.2, 8.0]), 1.0, n_pilot_samples=4)
        b_1 = abep(c, 4, np.array([8.0]), 1.0, n_pilot_samples=4)
        for name in BREAKDOWN_FIELDS:
            assert math.isnan(getattr(b, name)[0])
            assert np.array_equal(getattr(b, name)[1], getattr(b_1, name)[0])

    def test_spatial_tails_match_per_link_calls(self):
        # Links down the rows, constellation power levels across columns;
        # the first link sits at the gamma = 0 and alpha_p = 0 branches of
        # the perfect tails. The estimated tails need alpha_p > 0, so their
        # first link keeps only gamma = 0 (a zero-mean estimate).
        gamma = np.array([0.0, 0.4, 1.1, 2.0, 3.5])[:, None]
        branch = np.array([0.0, 0.2, 1.0, 4.0, 60.0])[:, None] * np.array([0.2, 1.0, 1.8])
        variance = np.array([0.3, 0.1, 0.05, 0.02, 0.01])[:, None]
        powered = np.where(branch > 0.0, branch, 0.5)
        p1, p0 = spatial_error_probs_perfect(gamma, branch, 1.0)
        q1, q0 = spatial_error_probs_estimated((gamma, variance), powered, 1.0)
        assert p1.shape == q1.shape == branch.shape
        assert p0.shape == q0.shape == gamma.shape
        for i, j in np.ndindex(*branch.shape):
            g, a = batch_of_one(gamma[i, 0]), batch_of_one(branch[i, j])
            v, powered_a = batch_of_one(variance[i, 0]), batch_of_one(powered[i, j])
            perfect = spatial_error_probs_perfect(g, a, 1.0)
            assert np.array_equal((p1[i, j], p0[i, 0]), [p[0] for p in perfect])
            estimated = spatial_error_probs_estimated((g, v), powered_a, 1.0)
            assert np.array_equal((q1[i, j], q0[i, 0]), [q[0] for q in estimated])

    @pytest.mark.parametrize("kind", sorted(CONSTELLATIONS))
    def test_constellation_bep_matches_per_point_calls(self, kind):
        c = CONSTELLATIONS[kind]
        snr = np.array([[0.0, 0.3, 2.0], [10.0, 40.0, 300.0]])
        batch = constellation_bep(c, snr)
        assert batch.shape == snr.shape
        single = [[constellation_bep(c, batch_of_one(v))[0] for v in row] for row in snr]
        assert np.array_equal(batch, single)

    def test_modulation_error_prob_matches_per_link_calls(self):
        c = CONSTELLATIONS["psk"]
        alpha_p = np.array([0.1, 2.0, 30.0, 5.0])
        p1 = np.array([0.0, 0.3, 1.0, 0.02])
        p0 = np.array([0.5, 0.01, 0.0, 0.2])
        batch = modulation_error_prob(c, alpha_p, 1.0, 5, p1, p0)
        single = [
            modulation_error_prob(c, batch_of_one(a), 1.0, 5, batch_of_one(q1), batch_of_one(q0))[0]
            for a, q1, q0 in zip(alpha_p, p1, p0)
        ]
        assert np.array_equal(batch, single)

    def test_modulation_error_prob_memory_does_not_grow_with_the_links(self):
        # Past the first groups a link may add at most 64 bytes to the peak;
        # (link, class) arrays of the whole ensemble add about 1.1 KB.
        import tracemalloc

        c = CONSTELLATIONS["psk"]
        setup = np.random.default_rng(11)
        alpha_p = setup.uniform(0.1, 100.0, 4000)
        p1, p0 = setup.uniform(0.0, 0.5, (2, 4000))
        peaks, values = [], []
        for n_links in (1000, 4000):
            tracemalloc.start()
            try:
                links = slice(n_links)
                value = modulation_error_prob(c, alpha_p[links], 1.0, 4, p1[links], p0[links])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            values.append(value)
        assert peaks[1] - peaks[0] <= 3000 * 64
        assert np.array_equal(values[1][:1000], values[0])
        # Links on both sides of a group boundary, against each link alone.
        picked = [0, 545, 546, 1999, 3999]
        single = [
            modulation_error_prob(c, alpha_p[i : i + 1], 1.0, 4, p1[i : i + 1], p0[i : i + 1])[0]
            for i in picked
        ]
        assert np.array_equal(values[1][picked], single)


class TestAbep:
    @staticmethod
    def point(c, n_active, alpha, snr_db, n_pilot_samples=None):
        """One link's breakdown at one SNR point, its threshold designed
        with the high-SNR approximation unless it is pilot-estimated."""
        alpha_p = np.array([alpha * 10.0 ** (snr_db / 10.0)])
        if n_pilot_samples is not None:
            return abep(c, n_active, alpha_p, 1.0, n_pilot_samples=n_pilot_samples)
        gamma = np.array([threshold("hsa", alpha_p[0], 1.0, c.beta)])
        return abep(c, n_active, alpha_p, 1.0, gamma=gamma)

    def test_rate_weighted_mix(self):
        c = build_constellation("psk", 16)
        b = self.point(c, 4, 8.0, 6.0)
        assert b.abep[0] == pytest.approx((4 * b.p_es[0] + 4 * b.p_em[0]) / 8.0, rel=1e-12)
        assert min(b.p_es[0], b.p_em[0]) <= b.abep[0] <= max(b.p_es[0], b.p_em[0])

    def test_monotone_in_snr(self):
        c = build_constellation("psk", 16)
        values = [self.point(c, 4, 8.0, snr).abep[0] for snr in np.arange(0.0, 16.0, 2.0)]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_estimated_dominates_perfect(self):
        c = build_constellation("psk", 16)
        for snr in np.arange(0.0, 16.0, 2.0):
            perfect = self.point(c, 4, 8.0, snr)
            estimated = self.point(c, 4, 8.0, snr, n_pilot_samples=4)
            assert estimated.abep[0] >= perfect.abep[0] - 1e-9

    @pytest.mark.parametrize(
        "alpha_p,inputs",
        [
            (np.array([2.0]), {"gamma": np.array([0.7]), "n_pilot_samples": 4}),
            (np.array([2.0]), {}),
            (np.array([[2.0]]), {"gamma": np.array([[0.7]])}),
            (np.array([2.0, 0.0]), {"gamma": np.array([0.7, 0.7])}),
            (np.array([2.0, -1.0]), {"n_pilot_samples": 4}),
        ],
        ids=["both-inputs", "no-input", "2-d-alpha_p", "zero-alpha_p", "negative-alpha_p"],
    )
    def test_rejects_bad_arguments(self, alpha_p, inputs):
        with pytest.raises(ValueError):
            abep(CONSTELLATIONS["psk"], 2, alpha_p, 1.0, **inputs)

    def test_breakdown_validation(self):
        with pytest.raises(ValueError):
            AbepBreakdown(*map(batch_of_one, (1.5, 0.0, 0.0, 0.0, 0.0)))

    def test_qam_uses_level_averaged_miss_probability(self):
        # The 16-QAM miss probability must differ from the single-amplitude
        # expression because three power levels feed the energized branch.
        c = build_constellation("qam", 16)
        alpha_p, sigma2 = 10 ** (12 / 10), 1.0
        gamma = threshold("hsa", alpha_p, sigma2, c.beta)
        b = self.point(c, 2, 1.0, 12.0)
        single, _ = spatial_error_probs_perfect(gamma, alpha_p, sigma2)
        assert b.p1[0] != pytest.approx(single, rel=1e-6)
        levels = np.unique(np.round(np.abs(c.points) ** 2, 12))
        expected = np.mean(
            [
                spatial_error_probs_perfect(gamma, alpha_p * lv, sigma2)[0] * w
                for lv, w in zip(
                    levels,
                    [
                        np.mean(np.isclose(np.abs(c.points) ** 2, lv)) * len(levels)
                        for lv in levels
                    ],
                )
            ]
        )
        assert b.p1[0] == pytest.approx(float(expected), rel=1e-9)
