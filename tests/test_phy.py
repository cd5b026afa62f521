"""Tests for constellations, thresholds, and the RSM detection chain."""

import itertools
import math

import numpy as np
import pytest
from scipy import optimize, stats

from rsmsim.buffers import SCRATCH_SLACK
from rsmsim.mimo import select_antennas, selection_for_indices, zf_precoder
from rsmsim.phy import (
    DESIGN_RHO_RANGE,
    DESIGN_SCALE_RANGE,
    THRESHOLD_MODES,
    Constellation,
    IllegalSpatialWord,
    NoRoot,
    OutsideDesignDomain,
    _GRID_REACH,
    _SEARCH_BYTES,
    _antenna_sum,
    _brentq,
    _combine_work_bytes,
    _nearest_by_search,
    _nearest_work_bytes,
    add_complex_noise,
    UnsupportedOrder,
    build_constellation,
    combine_and_detect_modulation,
    detect_spatial,
    exact_threshold_residual,
    nearest_point,
    spatial_bits,
    threshold,
    transmit,
)
from rsmsim.specfun import log_bessel_i0
from oracles import batch_of_one, joint_ml_detect, random_channel


class TestConstellations:
    @pytest.mark.parametrize("kind,order,ring", [
        ("psk", 2, None), ("psk", 8, None), ("psk", 16, None),
        ("qam", 4, None), ("qam", 16, None), ("qam", 64, None),
        ("apsk", 16, 2.0),
    ])
    def test_unit_power_and_label_bijection(self, kind, order, ring):
        c = build_constellation(kind, order, ring)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert sorted(c.labels.tolist()) == list(range(order))
        weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
        np.testing.assert_array_equal(c.label_bits @ weights, c.labels)

    def test_psk_beta_is_one(self):
        c = build_constellation("psk", 16)
        assert c.beta == pytest.approx(1.0, abs=1e-12)

    def test_qam16_beta_by_enumeration(self):
        # +-1/+-3 grid: minimum energy 2, mean energy 10.
        c = build_constellation("qam", 16)
        powers = np.abs(c.points) ** 2
        assert c.beta == pytest.approx(float(powers.min() / powers.mean()), abs=1e-15)
        assert c.beta == pytest.approx(0.2, abs=1e-12)

    def test_apsk16_beta_by_enumeration(self):
        # 4 inner points at unit radius, 12 outer at radius 2:
        # beta = 1 / ((4 + 12*4)/16) = 4/13.
        c = build_constellation("apsk", 16, ring_ratio=2.0)
        assert c.beta == pytest.approx(4.0 / 13.0, abs=1e-12)
        radii = np.sort(np.unique(np.round(np.abs(c.points), 12)))
        assert radii.size == 2
        assert radii[1] / radii[0] == pytest.approx(2.0, abs=1e-12)

    def test_psk_gray_labels_adjacent(self):
        c = build_constellation("psk", 16)
        for k in range(16):
            a, b = c.labels[k], c.labels[(k + 1) % 16]
            assert bin(int(a) ^ int(b)).count("1") == 1

    def test_qam_gray_labels_adjacent_on_grid(self):
        c = build_constellation("qam", 16)
        pts, labels = c.points, c.labels
        for i in range(16):
            for j in range(16):
                if i == j:
                    continue
                # Nearest grid neighbours differ by the minimum distance.
                if abs(pts[i] - pts[j]) < 0.7:
                    assert bin(int(labels[i]) ^ int(labels[j])).count("1") == 1

    @pytest.mark.parametrize("kind,order,ring", [
        ("psk", 3, None), ("psk", 128, None), ("qam", 8, None), ("qam", 32, None),
        ("apsk", 32, 2.0), ("apsk", 16, None), ("apsk", 16, 0.5), ("weird", 4, None),
        ("apsk", 16, math.inf), ("apsk", 16, math.nan), ("psk", 4, math.nan),
    ])
    def test_unsupported(self, kind, order, ring):
        with pytest.raises(UnsupportedOrder):
            build_constellation(kind, order, ring)

    def test_nan_power_fails_the_unit_power_check(self):
        psk = build_constellation("psk", 4)
        points = np.where(np.arange(4) == 1, math.nan, psk.points)
        with pytest.raises(ValueError, match="average symbol power"):
            Constellation(kind="psk", order=4, points=points, labels=psk.labels)


class TestEncodeDecode:
    """Data words to spatial rows and symbols, and detected symbols to bits."""

    def test_direct_mapping(self):
        # Spatial word 0b01 energizes antenna 0 only; label 0b11 reads MSB first.
        c = build_constellation("psk", 4)
        np.testing.assert_array_equal(spatial_bits(np.array([0b01]), 2), [[True, False]])
        j = int(np.flatnonzero(c.labels == 0b11)[0])
        np.testing.assert_array_equal(c.label_bits[j], [1, 1])

    def test_training_word_is_all_ones(self):
        np.testing.assert_array_equal(spatial_bits(np.array([0b1111]), 4), np.ones((1, 4), bool))

    def test_all_zero_spatial_rejected(self):
        for words in ([3, 0, 1], [4], [-1]):
            with pytest.raises(IllegalSpatialWord):
                spatial_bits(np.array(words), 2)

    def test_round_trip_exhaustive(self):
        # Every legal word for 3 spatial bits + QPSK maps to a distinct
        # 5-bit row, and together they are every row with a spatial bit set.
        c = build_constellation("psk", 4)
        words, js = (g.ravel() for g in np.meshgrid(np.arange(1, 8), np.arange(4)))
        spatial = spatial_bits(words, 3)
        np.testing.assert_array_equal(spatial @ (1 << np.arange(3)), words)
        rows = np.column_stack([spatial, c.label_bits[js]]).astype(int)
        legal = [w for w in itertools.product((0, 1), repeat=5) if any(w[:3])]
        assert sorted(map(tuple, rows.tolist())) == sorted(legal)


class TestTransmit:
    def test_single_antenna_excitation(self):
        h = random_channel(3, 8, seed=0)
        sel = selection_for_indices(h, range(len(h)))
        b = zf_precoder(sel)
        x = 0.6 - 0.8j
        s = np.array([[False, True, False]])
        out = math.sqrt(sel.alpha * 4.0) * (s * x) @ b.T
        expected = math.sqrt(sel.alpha * 4.0) * x * b[:, 1]
        np.testing.assert_allclose(out, expected[None, :], atol=1e-12)

    def test_zero_forcing_identity_through_channel(self):
        h = random_channel(4, 16, seed=1)
        sel = selection_for_indices(h, range(len(h)))
        b = zf_precoder(sel)
        s = spatial_bits(np.arange(1, 16), 4)
        x = np.exp(1j * np.linspace(0.3, 2.0, 15))
        amplitude = math.sqrt(sel.alpha * 9.0)
        y = (amplitude * (s * x[:, None]) @ b.T) @ h.T
        np.testing.assert_allclose(y, amplitude * s * x[:, None], atol=1e-8)
        # The effective channel H B gives the received rows in one step.
        received = amplitude * (s * x[:, None]) @ (h @ b).T
        np.testing.assert_allclose(received, y, atol=1e-12)
        # transmit forms them through the identity that ZF makes of H B.
        rows = transmit(*map(batch_of_one, (s, x, amplitude)))[0]
        np.testing.assert_allclose(rows, y, atol=1e-8)

    def test_average_transmit_power(self):
        # E||x_tx||^2 over random words equals alpha*P*E||B s||^2*E|x|^2.
        h = random_channel(3, 12, seed=2)
        sel = selection_for_indices(h, range(len(h)))
        b = zf_precoder(sel)
        c = build_constellation("psk", 8)
        rng = np.random.default_rng(3)
        power = 2.0
        s = spatial_bits(rng.integers(1, 8, 2000), 3)
        x = c.points[rng.integers(0, 8, 2000)]
        tx = math.sqrt(sel.alpha * power) * (s * x[:, None]) @ b.T
        total = float(np.sum(np.abs(tx) ** 2))
        per_word = np.sum(np.abs(s @ b.T) ** 2, axis=1) * np.abs(x) ** 2
        assert total == pytest.approx(sel.alpha * power * float(per_word.sum()), rel=1e-9)

    def test_rejects_all_zero(self):
        # The transmit side builds its spatial rows with spatial_bits, which
        # refuses the all-zero word before any row reaches transmit.
        with pytest.raises(IllegalSpatialWord):
            spatial_bits(np.zeros(5, dtype=np.int64), 2)


class TestReceiveAmplitudes:
    def test_rice_and_rayleigh_conformance(self):
        # Envelope of signal+noise (noise total variance sigma2) follows the
        # Rice law on energized branches and Rayleigh on silent ones.
        rng = np.random.default_rng(5)
        alpha_p, sigma2 = 6.0, 1.3
        n = 10**6
        sig_c = math.sqrt(sigma2 / 2.0)
        on = batch_of_one(np.full(n, math.sqrt(alpha_p), complex))
        a_on = np.abs(add_complex_noise(on, sigma2, batch_of_one(rng))[0])
        stat_on = stats.kstest(a_on, lambda x: stats.rice.cdf(x, b=math.sqrt(alpha_p) / sig_c, scale=sig_c))
        assert stat_on.pvalue > 1e-3
        off = batch_of_one(np.zeros(n, complex))
        a_off = np.abs(add_complex_noise(off, sigma2, batch_of_one(rng))[0])
        stat_off = stats.kstest(a_off, lambda x: stats.rayleigh.cdf(x, scale=sig_c))
        assert stat_off.pvalue > 1e-3


class TestThreshold:
    def test_hsa_closed_form(self):
        gamma = threshold("hsa", alpha_p=4.0, sigma2=1.0, beta=1.0)
        assert gamma == pytest.approx(1.0, abs=1e-15)
        gamma = threshold("hsa", alpha_p=4.0, sigma2=1.0, beta=0.25)
        assert gamma == pytest.approx(0.5, abs=1e-15)

    def test_msa_tracks_hsa_at_high_snr(self):
        # The relative gap decays like log(snr)/snr: 3.3% at 20 dB,
        # 0.45% at 30 dB (computed from the closed forms themselves).
        for db, bound in ((20.0, 0.033), (25.0, 0.0125), (30.0, 0.0045)):
            pm = 10 ** (db / 10)
            hsa = threshold("hsa", pm, 1.0)
            msa = threshold("msa", pm, 1.0)
            assert abs(msa - hsa) / hsa < bound

    def test_exact_satisfies_likelihood_equation(self):
        for db in (10.0, 15.0, 20.0, 30.0):
            pm = 10 ** (db / 10)
            gamma = threshold("exact", pm, 1.0)
            assert abs(exact_threshold_residual(gamma, pm, 1.0)) < 1e-10

    def test_exact_close_to_msa(self):
        pm = 100.0
        exact = threshold("exact", pm, 1.0)
        msa = threshold("msa", pm, 1.0)
        assert abs(exact - msa) / msa < 0.05

    def test_beta_rescales_all_modes(self):
        # Designing for beta*alpha_p must equal designing for that power.
        for mode in ("exact", "msa", "hsa"):
            direct = threshold(mode, alpha_p=20.0, sigma2=1.0, beta=0.2)
            scaled = threshold(mode, alpha_p=4.0, sigma2=1.0, beta=1.0)
            assert direct == pytest.approx(scaled, rel=1e-12)

    def test_ordering_sanity_at_high_snr(self):
        # All three designs grow like sqrt(min power) and sit pairwise
        # within 10% once the minimum-symbol SNR clears ~14.5 dB (the gap
        # is 10.3% at 14 dB and decays like log(snr)/snr from there).
        gammas = {m: [] for m in ("exact", "msa", "hsa")}
        for db in np.arange(14.5, 31.0, 1.0):
            pm = 10 ** (db / 10)
            vals = {m: threshold(m, pm, 1.0) for m in gammas}
            for m, v in vals.items():
                gammas[m].append(v)
            pairs = list(itertools.combinations(vals.values(), 2))
            for a, b in pairs:
                assert abs(a - b) / min(a, b) < 0.10
        for series in gammas.values():
            assert all(x < y for x, y in zip(series, series[1:]))

    def test_high_snr_does_not_underflow(self):
        gamma = threshold("msa", alpha_p=10**4.0, sigma2=1.0)
        assert math.isfinite(gamma) and gamma > 0
        gamma = threshold("exact", alpha_p=10**4.0, sigma2=1.0)
        assert math.isfinite(gamma) and gamma > 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            threshold("hsa", alpha_p=0.0, sigma2=1.0)
        with pytest.raises(ValueError):
            threshold("hsa", alpha_p=1.0, sigma2=1.0, beta=0.0)
        with pytest.raises(ValueError):
            threshold("nope", alpha_p=1.0, sigma2=1.0)


class TestDesignDomain:
    """The designs hold on DESIGN_RHO_RANGE x DESIGN_SCALE_RANGE and refuse
    every input outside it."""

    @pytest.mark.parametrize(
        "alpha_p,sigma2",
        [(1e300, 1e-300), (1e300, 1.0), (1e-300, 1.0), (1e-7, 1.0), (1e11, 1.0)],
    )
    def test_outside_is_refused(self, alpha_p, sigma2):
        for mode in THRESHOLD_MODES:
            with pytest.raises(OutsideDesignDomain):
                threshold(mode, alpha_p, sigma2)

    @pytest.mark.parametrize(
        "alpha_p,sigma2,beta",
        [(1e-301, 1e-302, 1.0), (2e-300, 1e-301, 0.2), (1e302, 1e301, 1.0), (math.nan, 1.0, 1.0)],
    )
    def test_scales_outside_are_refused(self, alpha_p, sigma2, beta):
        # rho = 10 in each finite case: only the scale is out of range.
        with pytest.raises(OutsideDesignDomain):
            threshold("hsa", alpha_p, sigma2, beta)

    def test_corners_scale_with_sigma(self):
        # gamma(rho * sigma2, sigma2) = sqrt(sigma2) * gamma(rho, 1) > 0 at
        # every corner of the domain, and the exact residual stays small there.
        scale_low, scale_high = DESIGN_SCALE_RANGE
        for rho in (*DESIGN_RHO_RANGE, 1.0):
            for sigma2 in (scale_low / min(rho, 1.0), 1.0, scale_high / max(rho, 1.0)):
                min_power = rho * sigma2
                for mode in THRESHOLD_MODES:
                    gamma = threshold(mode, min_power, sigma2)
                    unit = threshold(mode, rho, 1.0)
                    assert gamma > 0.0
                    assert gamma == pytest.approx(math.sqrt(sigma2) * unit, rel=1e-9)
                gamma = threshold("exact", min_power, sigma2)
                assert abs(exact_threshold_residual(gamma, min_power, sigma2)) < 1e-5

    def test_exact_accuracy_at_the_low_end(self):
        # log I0(u) = u^2/4 - u^4/64 + ..., so gamma = 1 + rho/8 + O(rho^2).
        rho = DESIGN_RHO_RANGE[0]
        assert threshold("exact", rho, 1.0) == pytest.approx(1.0 + rho / 8.0, rel=1e-9)

    def test_exact_design_at_the_low_end_against_mpmath(self):
        # The root of log I0(u) = rho at 40 digits; gamma = u / (2 sqrt(rho)).
        import mpmath as mp

        rho = DESIGN_RHO_RANGE[0]
        with mp.workdps(40):
            u = mp.findroot(lambda v: mp.log(mp.besseli(0, v)) - rho, 2 * mp.sqrt(rho))
            expected = float(u / (2 * mp.sqrt(rho)))
        assert threshold("exact", rho, 1.0) == pytest.approx(expected, rel=1e-13, abs=0.0)


def brentq_or_error(solver, f, lo, hi, xtol, rtol, maxiter=100):
    try:
        return solver(f, lo, hi, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except (RuntimeError, NoRoot):  # scipy's and the port's non-convergence
        return "no convergence"


class TestBrentPort:
    """phy's Brent solver repeats scipy.optimize.brentq bit for bit."""

    def test_exact_threshold_matches_scipy_brentq(self):
        for rho in np.logspace(-6.0, 5.0, 20001).tolist():
            hi = max(2.0 * rho + 2.0, 2.0)
            while log_bessel_i0(hi) < rho:
                hi *= 2.0
            u = optimize.brentq(lambda v: log_bessel_i0(v) - rho, 0.0, hi, xtol=1e-14, rtol=1e-15)
            # alpha_p = rho and sigma2 = 1: gamma = u / (2 sqrt(rho)).
            assert threshold("exact", rho, 1.0) == u / (2.0 * math.sqrt(rho))

    def test_general_functions_and_non_convergence(self):
        # Roots of multiplicity 3 and 5 converge slowly enough that some
        # tolerances run out of iterations; both solvers must then fail on
        # the same inputs. The numpy-scalar values exercise the float casts.
        rng = np.random.default_rng(3)
        outcomes = []
        for _ in range(300):
            c, power = rng.uniform(-5.0, 5.0), rng.choice([1, 3, 5])

            def f(x):
                return (x - c) ** power

            for xtol, rtol in ((1e-14, 1e-15), (1e-3, 1e-10), (2e-12, 8.9e-16)):
                want = brentq_or_error(optimize.brentq, f, -10.0, 10.0, xtol, rtol)
                assert brentq_or_error(_brentq, f, -10.0, 10.0, xtol, rtol) == want
                outcomes.append(want == "no convergence")
        assert 0 < sum(outcomes) < len(outcomes)

    def test_iteration_cap(self):
        # Both solvers give up after the same number of iterations. Near-triple
        # roots: the smaller eps, the more iterations they take.
        outcomes = []
        for c, eps in itertools.product((-2.3, 0.4, 1.7), np.logspace(0.0, -12.0, 13).tolist()):
            def f(x):
                return (x - c) ** 3 + eps * (x - c)

            for maxiter in (1, 20, 40, 45, 50, 55, 60, 80):
                want = brentq_or_error(optimize.brentq, f, -10.0, 10.0, 1e-14, 1e-15, maxiter)
                assert brentq_or_error(_brentq, f, -10.0, 10.0, 1e-14, 1e-15, maxiter) == want
                outcomes.append(want == "no convergence")
        assert 0 < sum(outcomes) < len(outcomes)

    def test_raises_on_nan_and_unbracketed_root(self):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-14, 1e-15)
        with pytest.raises(ValueError, match="signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-14, 1e-15)


def joint_ml_oracle(envelopes, alpha_p, sigma2):
    """Slow joint-ML reference for one row of envelopes.

    Enumerates every 0/1 word in the documented tie order (fewer ones
    first, then the smaller word with antenna k at bit k) and keeps the
    first strictly better one. A word scores the Rice log-likelihood of
    its energized antennas plus the Rayleigh log-likelihood of the rest;
    the Rayleigh factor 2a/sigma2 exp(-a^2/sigma2) is common to both
    laws and to every word, so each energized antenna adds
    log I0(2 a sqrt(alpha_p) / sigma2) - alpha_p / sigma2.
    """
    n = len(envelopes)
    gain = [
        log_bessel_i0(2.0 * float(a) * math.sqrt(alpha_p) / sigma2) - alpha_p / sigma2
        for a in envelopes
    ]
    words = sorted(itertools.product((0, 1), repeat=n), key=lambda w: (sum(w), w[::-1]))
    best, best_score = None, -math.inf
    for word in words:
        score = sum(g for g, on in zip(gain, word) if on)
        if score > best_score:
            best, best_score = word, score
    return np.array(best, dtype=bool)


class TestSpatialDetection:
    def test_all_above_threshold(self):
        gamma = threshold("hsa", 4.0, 1.0)
        np.testing.assert_array_equal(
            detect_spatial(*map(batch_of_one, (np.full((1, 4), 10.0), gamma)))[0],
            np.ones((1, 4), bool),
        )

    def test_tie_resolves_to_zero(self):
        gamma = threshold("hsa", 4.0, 1.0)
        np.testing.assert_array_equal(
            detect_spatial(*map(batch_of_one, ([[gamma]], gamma)))[0], [[False]]
        )

    @pytest.mark.parametrize("mode", ["exact", "msa", "hsa"])
    def test_noiseless_detection_every_mode(self, mode):
        # With zero noise the energized amplitude sqrt(beta*alpha_p) clears
        # the threshold in every design at reasonable SNR.
        alpha_p, sigma2, beta = 40.0, 1.0, 0.2
        gamma = threshold(mode, alpha_p, sigma2, beta)
        s = spatial_bits(np.arange(1, 8), 3)
        a = math.sqrt(beta * alpha_p) * s
        np.testing.assert_array_equal(detect_spatial(*map(batch_of_one, (a, gamma)))[0], s)

    def test_joint_ml_worked_example(self):
        # One envelope below the exact threshold and one above decides [0, 1].
        alpha_p, sigma2 = 20.0, 1.0
        gamma = threshold("exact", alpha_p, sigma2)
        out = joint_ml_detect(np.array([[0.9 * gamma, 1.1 * gamma]]), alpha_p, sigma2)
        np.testing.assert_array_equal(out, [[False, True]])

    def test_joint_ml_can_output_all_zero(self):
        alpha_p, sigma2 = 20.0, 1.0
        out = joint_ml_detect(np.array([[0.01, 0.02]]), alpha_p, sigma2)
        np.testing.assert_array_equal(out, [[False, False]])

    @pytest.mark.parametrize("n_active", [1, 2, 3, 4])
    def test_equivalence_with_per_antenna(self, n_active):
        # Joint-ML and threshold detection agree off the tie set.
        alpha_p, sigma2 = 12.0, 1.0
        gamma = threshold("exact", alpha_p, sigma2)
        rng = np.random.default_rng(10 + n_active)
        a = rng.uniform(0.0, 2.0 * math.sqrt(alpha_p), (10_000, n_active))
        np.testing.assert_array_equal(
            detect_spatial(*map(batch_of_one, (a, gamma)))[0], joint_ml_detect(a, alpha_p, sigma2)
        )

    def test_equivalence_on_amplitude_grid(self):
        alpha_p, sigma2 = 10.0, 1.0
        gamma = threshold("exact", alpha_p, sigma2)
        grid = np.linspace(0.0, 2.0 * math.sqrt(alpha_p), 200)
        a = np.stack(np.meshgrid(grid, grid[::40], indexing="ij"), axis=-1).reshape(-1, 2)
        np.testing.assert_array_equal(
            detect_spatial(*map(batch_of_one, (a, gamma)))[0], joint_ml_detect(a, alpha_p, sigma2)
        )

    @pytest.mark.parametrize("n_active", [1, 2, 3, 4])
    def test_joint_ml_matches_enumeration_oracle(self, n_active):
        rng = np.random.default_rng(40 + n_active)
        for alpha_p, sigma2 in ((12.0, 1.0), (0.7, 2.5), (300.0, 0.8)):
            a = rng.uniform(0.0, 2.0 * math.sqrt(alpha_p), (300, n_active))
            expected = np.array([joint_ml_oracle(row, alpha_p, sigma2) for row in a])
            np.testing.assert_array_equal(joint_ml_detect(a, alpha_p, sigma2), expected)

    @pytest.mark.parametrize("n_active", [1, 2, 3, 4])
    def test_joint_ml_tie_order_on_exact_ties(self, n_active):
        # At the exact threshold the on/off log-likelihoods are equal to the
        # last bit, so every such antenna is a tie that resolves to "off";
        # with alpha_p = 0 the two laws coincide and every word ties.
        alpha_p, sigma2 = 12.0, 1.0
        gamma = threshold("exact", alpha_p, sigma2)
        assert log_bessel_i0(2.0 * gamma * math.sqrt(alpha_p) / sigma2) == alpha_p / sigma2
        levels = (0.5 * gamma, gamma, 1.5 * gamma)
        a = np.array(list(itertools.product(levels, repeat=n_active)))
        expected = np.array([joint_ml_oracle(row, alpha_p, sigma2) for row in a])
        np.testing.assert_array_equal(expected, a > gamma)
        np.testing.assert_array_equal(joint_ml_detect(a, alpha_p, sigma2), expected)
        flat = np.zeros_like(a, dtype=bool)
        np.testing.assert_array_equal(
            np.array([joint_ml_oracle(row, 0.0, sigma2) for row in a]), flat
        )
        np.testing.assert_array_equal(joint_ml_detect(a, 0.0, sigma2), flat)


def full_search(y, scale, c):
    """Reference detector: argmin over every distance, first index on ties."""
    y, scale = np.asarray(y, dtype=complex), np.asarray(scale, dtype=float)
    return np.argmin(np.abs(y[..., None] - scale[..., None] * c.points), axis=-1)


QAM_SCALES = (0.01, 0.37, 1.0, 13.0, 250.0)
PSK_ORDERS = [2, 4, 8, 16, 32, 64]


def psk_at(order, sectors, radius):
    """Samples at ``radius`` and angle ``sectors * 2 pi / order``."""
    return radius * np.exp(1j * (2.0 * math.pi / order) * np.asarray(sectors))


class TestNearestPoint:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_qam_random_samples(self, order):
        c = build_constellation("qam", order)
        rng = np.random.default_rng(order)
        edge = 1.3 * np.abs(c.points.real).max()
        for scale in QAM_SCALES:
            n = 20_000  # 1e5 samples per order over the five scales
            y = scale * edge * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            np.testing.assert_array_equal(nearest_point(y, scale, c), full_search(y, scale, c))
            per_sample = scale * rng.uniform(0.5, 2.0, n)
            np.testing.assert_array_equal(
                nearest_point(y, per_sample, c), full_search(y, per_sample, c)
            )

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_qam_boundary_and_far_samples(self, order):
        c = build_constellation("qam", order)
        rng = np.random.default_rng(100 + order)
        levels = np.unique(c.points.real)
        spacing = levels[1] - levels[0]
        offsets = spacing * np.array([0.0, 1e-17, 1e-16, 1e-14, 1e-11, 1e-8, 1e-6, 1.5e-6])
        offsets = np.concatenate([offsets, -offsets[1:]])
        far = spacing * np.outer([1.0, -1.0], [3.0, 1e2, 1e3, 1e4, 1e8, 1e12]).ravel()
        for scale in QAM_SCALES:
            boundaries = scale * (levels[:-1] + levels[1:]) / 2.0
            on_edge = (boundaries[:, None] + scale * offsets[None, :]).ravel()
            outside = scale * np.concatenate([far, (levels[[0, -1]] + far[:, None]).ravel()])
            coords = np.concatenate([on_edge, outside, scale * levels])
            other = rng.choice(coords, coords.size)
            y = np.concatenate(
                [coords + 1j * other, other + 1j * coords, coords + 1j * coords[::-1]]
            )
            y = np.concatenate([y, [np.inf, -np.inf + 1j, 1j * np.nan]])
            np.testing.assert_array_equal(nearest_point(y, scale, c), full_search(y, scale, c))

    @pytest.mark.parametrize(
        "kind,order,ring", [("psk", 8, None), ("psk", 16, None), ("apsk", 16, 2.6)]
    )
    def test_other_constellations_search_every_point(self, kind, order, ring):
        # APSK takes the full search; PSK goes through the sector slicer and
        # its fallback, which must give the same decisions.
        c = build_constellation(kind, order, ring)
        rng = np.random.default_rng(order)
        y = 2.0 * (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000))
        scale = rng.integers(0, 4, y.size) * 0.9
        np.testing.assert_array_equal(nearest_point(y, scale, c), full_search(y, scale, c))
        np.testing.assert_array_equal(nearest_point(y, 1.7, c), full_search(y, 1.7, c))

    @pytest.mark.parametrize(
        "kind,order,ring", [("qam", 16, None), ("psk", 16, None), ("apsk", 16, 2.6)]
    )
    def test_erasure_scale_zero_gives_symbol_zero(self, kind, order, ring):
        # n_hat = 0 combines nothing: every reference collapses to the origin.
        c = build_constellation(kind, order, ring)
        y = np.array([0.0, 0.3 - 2.0j, -5.0 + 1.0j])
        np.testing.assert_array_equal(nearest_point(y, 0.0, c), [0, 0, 0])
        np.testing.assert_array_equal(full_search(y, 0.0, c), [0, 0, 0])

    def test_broadcast_shapes(self):
        c = build_constellation("qam", 16)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
        gains = np.array([0.4, 2.5])
        got = nearest_point(y, gains, c)
        assert got.shape == (50, 2)
        np.testing.assert_array_equal(got, full_search(y, gains, c))
        assert nearest_point(0.2 + 0.1j, 1.0, c).shape == ()
        assert int(nearest_point(0.2 + 0.1j, 1.0, c)) == int(full_search(0.2 + 0.1j, 1.0, c))

    def test_non_grid_qam_points_search_every_point(self):
        # A "qam" set off the square layout must not be sliced.
        base = build_constellation("qam", 16)
        warped = base.points * np.exp(0.05j)
        c = type(base)(kind="qam", order=16, points=warped, labels=base.labels)
        y = 1.5 * (np.random.default_rng(4).standard_normal(5000) + 1j)
        np.testing.assert_array_equal(nearest_point(y, 1.0, c), full_search(y, 1.0, c))

    @pytest.mark.parametrize("order", PSK_ORDERS)
    def test_psk_layout_is_sliced(self, order):
        c = build_constellation("psk", order)
        assert c._psk_layout and c._qam_step is None
        rotated = type(c)(kind="psk", order=order, points=c.points * np.exp(0.01j), labels=c.labels)
        assert not rotated._psk_layout
        y = 1.5 * (np.random.default_rng(order).standard_normal(5000) + 0.5j)
        np.testing.assert_array_equal(nearest_point(y, 1.0, rotated), full_search(y, 1.0, rotated))

    @pytest.mark.parametrize("order", PSK_ORDERS)
    def test_psk_random_samples(self, order):
        c = build_constellation("psk", order)
        rng = np.random.default_rng(200 + order)
        for scale in QAM_SCALES:
            n = 20_000  # 1e5 samples per order over the five scales
            y = scale * 1.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            np.testing.assert_array_equal(nearest_point(y, scale, c), full_search(y, scale, c))
            per_sample = scale * rng.uniform(0.2, 4.0, n)
            np.testing.assert_array_equal(
                nearest_point(y, per_sample, c), full_search(y, per_sample, c)
            )

    @pytest.mark.parametrize("order", PSK_ORDERS)
    def test_psk_sector_boundaries(self, order):
        c = build_constellation("psk", order)
        offsets = np.array([0.0, 1e-17, 1e-16, 1e-14, 1e-11, 1e-8, 1e-6, 1.5e-6])
        offsets = np.concatenate([offsets, -offsets[1:]])
        boundaries = np.arange(order) + 0.5
        sectors = (boundaries[:, None] + offsets[None, :]).ravel()
        # The +-pi wrap: half a turn from either side, and +-0.0 imaginary parts.
        wrap = order / 2.0 + np.concatenate([offsets, [-0.5, 0.5, 1e-9, -1e-9]])
        sectors = np.concatenate([sectors, wrap, -wrap])
        for scale in QAM_SCALES:
            for radius in (0.05, 1.0, 7.0):
                y = psk_at(order, sectors, scale * radius)
                y = np.concatenate([y, scale * radius * np.array([-1.0 + 0.0j, complex(-1.0, -0.0)])])
                np.testing.assert_array_equal(nearest_point(y, scale, c), full_search(y, scale, c))

    @pytest.mark.parametrize("order", PSK_ORDERS)
    def test_psk_radius_limits_and_degenerate_inputs(self, order):
        c = build_constellation("psk", order)
        rng = np.random.default_rng(300 + order)
        ratios = np.array(
            [1e-20, 1e-16, 1e-12, 1e-8, 1e-5 * (1 - 1e-12), 1e-5, 1e-5 * (1 + 1e-12),
             1e5 * (1 - 1e-12), 1e5, 1e5 * (1 + 1e-12), 1e8, 1e12, 1e16, 1e20]
        )
        for scale in QAM_SCALES:
            sectors = rng.uniform(-order / 2.0, order / 2.0, (ratios.size, 400))
            y = psk_at(order, sectors, scale * ratios[:, None]).ravel()
            y = np.concatenate(
                [y, [0.0, -0.0, complex(0.0, -0.0), np.inf, -np.inf, 1j * np.inf,
                     np.nan, 1j * np.nan, complex(np.inf, np.nan), 1e-300, 1e300]]
            )
            np.testing.assert_array_equal(nearest_point(y, scale, c), full_search(y, scale, c))
        y = 1.3 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
        odd_scales = rng.choice([0.0, -1.0, 1e-300, 1e-251, 1e251, 1e300, np.inf, np.nan, 2.0], y.size)
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(
                nearest_point(y, odd_scales, c), full_search(y, odd_scales, c)
            )
        np.testing.assert_array_equal(nearest_point(y, 0.0, c), np.zeros(y.size, dtype=int))
        for tiny in (1e-300, 1e-310, 5e-322):  # subnormal scales and samples
            np.testing.assert_array_equal(
                nearest_point(tiny * y, tiny, c), full_search(tiny * y, tiny, c)
            )

    def test_psk_broadcast_shapes(self):
        c = build_constellation("psk", 16)
        rng = np.random.default_rng(5)
        y = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        scales = np.array([0.4, 0.0, 2.5])
        got = nearest_point(y, scales, c)
        assert got.shape == (50, 3)
        np.testing.assert_array_equal(got, full_search(y, scales, c))
        column = nearest_point(y[:1, :1], scales, c)
        assert column.shape == (1, 3)
        np.testing.assert_array_equal(column, full_search(y[:1, :1], scales, c))
        row = nearest_point(0.3 - 0.8j, scales[:, None] * np.ones(4), c)
        assert row.shape == (3, 4)
        np.testing.assert_array_equal(row, full_search(0.3 - 0.8j, scales[:, None] * np.ones(4), c))
        assert nearest_point(0.2 + 0.1j, 1.0, c).shape == ()
        assert int(nearest_point(0.2 + 0.1j, 1.0, c)) == int(full_search(0.2 + 0.1j, 1.0, c))


class TestQamScaleRange:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_extreme_and_degenerate_scales(self, order):
        # Outside the unit range the slicer must hand every sample to the
        # full search, whose rounding there is not the exact geometry.
        c = build_constellation("qam", order)
        rng = np.random.default_rng(400 + order)
        unit = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        for scale in (1e-300, 1e-310, 5e-322, 1e-250, 1e250, 1e300, -0.7, -1e-310):
            y = abs(scale) * 1.3 * unit
            np.testing.assert_array_equal(nearest_point(y, scale, c), full_search(y, scale, c))
        odd = rng.choice([0.0, -1.0, 1e-320, 1e-251, 1e251, 1e305, np.inf, np.nan, 2.0], unit.size)
        with np.errstate(invalid="ignore", over="ignore"):
            np.testing.assert_array_equal(nearest_point(unit, odd, c), full_search(unit, odd, c))


class TestQamSlicerModesMajor:
    """The baseline's layout: ``(links, modes, trials)`` samples, one scale
    per (link, mode) as a ``(links, modes, 1)`` array."""

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_matches_the_full_search(self, order):
        c = build_constellation("qam", order)
        side = math.isqrt(order)
        centre = 0.5 * (side - 1)
        # Coordinates in level spacings from the grid centre: every decision
        # boundary and its near neighbours, the levels, and both ends of the
        # slicer's reach (``_GRID_REACH`` beyond the outer edge) and of
        # ``_GRID_REACH`` from the centre, each approached from both sides.
        boundaries = np.arange(side - 1) + 0.5 - centre
        near = np.array([0.0, 1e-15, 1e-9, 1e-6, 1.01e-6, 1e-3])
        reach = np.array([_GRID_REACH, _GRID_REACH + centre + 0.5])
        coords = np.concatenate(
            [
                (boundaries[:, None] + np.concatenate([near, -near])).ravel(),
                np.arange(side) - centre,
                (reach[:, None] * np.array([1.0, 1 - 1e-15, 1 + 1e-15])).ravel(),
                (reach[:, None] + np.array([-0.25, 0.25, -1e-9, 1e-9])).ravel(),
            ]
        )
        coords = np.concatenate([coords, -coords])
        rng = np.random.default_rng(order)
        other = rng.choice(coords, coords.size)
        samples = np.concatenate([coords + 1j * other, other + 1j * coords])
        specials = np.array([np.inf, -np.inf + 1j, 1j * np.nan, complex(np.nan, np.inf), 0.0])
        scale = np.array([[0.37], [1.0], [13.0], [0.0]]).reshape(2, 2, 1)
        step = float(np.diff(np.unique(c.points.real))[0])
        y = np.concatenate(
            [scale * step * samples, np.broadcast_to(specials, (2, 2, specials.size))], axis=-1
        )
        got = nearest_point(y, scale, c)
        assert got.shape == y.shape
        yb, sb = np.broadcast_arrays(y, scale)
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(got, _nearest_by_search(yb, sb, c.points))
        assert not got[1, 1].any()  # the zero scale collapses every point to the origin


class TestChunkedSearch:
    """The full search runs over chunks of samples and gives, sample for
    sample, the one-table argmin it replaced, ties to the first point."""

    @pytest.mark.parametrize(
        "kind,order,ring",
        [("apsk", 16, 2.6), ("psk", 2, None), ("qam", 16, None), ("qam", 64, None)],
    )
    def test_matches_the_unchunked_argmin(self, kind, order, ring):
        c = build_constellation(kind, order, ring)
        chunk = _SEARCH_BYTES // (24 * order)
        rng = np.random.default_rng(300 + order)
        for n in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            y = 2.0 * random_rows(rng, n)
            scale = rng.integers(0, 4, n) * 0.9  # a zero scale ties every point
            # Exact ties: the origin is as far from every point of a
            # symmetric ring, and a midpoint from both of its points.
            y[: n // 3] = 0.0
            pairs = rng.integers(0, order, (2, n))
            mid = slice(n // 3, 2 * n // 3)
            y[mid] = scale[mid] * 0.5 * (c.points[pairs[0, mid]] + c.points[pairs[1, mid]])
            expected = full_search(y, scale, c)
            assert_same_bits(_nearest_by_search(y, scale, c.points), expected)
            out = rng.integers(-(2**62), 2**62, (n, 2))[:, 0]  # a strided view
            assert _nearest_by_search(y, scale, c.points, out) is out
            assert_same_bits(out, expected)
        # At a zero scale every distance is the same, so point 0 wins.
        erased = scale[: n // 3] == 0
        assert erased.any() and not expected[: n // 3][erased].any()

    def test_broadcast_scale_and_special_samples(self):
        # The baseline's layout: one scale per (link, mode) along the trials.
        c = build_constellation("apsk", 16, 2.6)
        rng = np.random.default_rng(7)
        y = 2.0 * random_rows(rng, (3, 2, 1000))
        y[0, 0, :4] = [np.nan, np.inf, complex(-np.inf, 1.0), 1j * np.nan]
        scale = rng.uniform(0.3, 3.0, (3, 2, 1))
        scale[2, 1] = 0.0
        with np.errstate(invalid="ignore"):
            assert_same_bits(_nearest_by_search(y, scale, c.points), full_search(y, scale, c))
            assert_same_bits(nearest_point(y[0, 0, 0], 1.0, c), full_search(y[0, 0, 0], 1.0, c))


class TestAddComplexNoise:
    @pytest.mark.parametrize("shape", [(7, 3), (5,), (2, 4, 3), (0, 3)])
    def test_matches_two_draw_form_and_rng_state(self, shape):
        sigma2 = 0.37
        clean = np.random.default_rng(1).standard_normal(shape) + 0.5j
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        got = add_complex_noise(batch_of_one(clean.copy()), sigma2, batch_of_one(ours))[0]
        noise = math.sqrt(sigma2 / 2.0) * (
            theirs.standard_normal(shape) + 1j * theirs.standard_normal(shape)
        )
        assert np.array_equal(got, clean + noise)
        zero = batch_of_one(np.zeros(shape, dtype=complex))
        zero = add_complex_noise(zero, sigma2, batch_of_one(ours))[0]
        noise = math.sqrt(sigma2 / 2.0) * (
            theirs.standard_normal(shape) + 1j * theirs.standard_normal(shape)
        )
        assert np.array_equal(zero, noise)
        assert np.array_equal(ours.standard_normal(3), theirs.standard_normal(3))

    def test_adds_in_place(self):
        signal = np.ones((4, 2), dtype=complex)
        batch = batch_of_one(signal)
        out = add_complex_noise(batch, 1.0, batch_of_one(np.random.default_rng(0)))
        assert out is batch and not np.array_equal(signal, np.ones((4, 2)))

    def test_transposed_view_gets_the_noise_of_its_own_axes(self):
        # The baseline passes the trial-major view of a modes-major batch.
        sigma2 = 0.37
        batch = np.random.default_rng(3).standard_normal((3, 2, 40)) + 0.5j
        view = batch.swapaxes(1, 2)
        expected = add_complex_noise(
            view.copy(), sigma2, [np.random.default_rng([4, i]) for i in range(3)]
        )
        out = add_complex_noise(view, sigma2, [np.random.default_rng([4, i]) for i in range(3)])
        assert out is view
        assert np.array_equal(batch.swapaxes(1, 2), expected)

    @pytest.mark.parametrize("shape", [(3, 7, 2), (4,), (1, 5), (0, 3)])
    def test_one_generator_per_row_matches_each_row_alone(self, shape):
        sigma2 = 0.37
        clean = np.random.default_rng(2).standard_normal(shape) + 0.5j
        ours = [np.random.default_rng([9, i]) for i in range(shape[0])]
        theirs = [np.random.default_rng([9, i]) for i in range(shape[0])]
        got = add_complex_noise(clean.copy(), sigma2, ours)
        expected = [
            add_complex_noise(batch_of_one(np.array(row)), sigma2, batch_of_one(rng))[0]
            for row, rng in zip(clean, theirs)
        ]
        assert np.array_equal(got, np.array(expected).reshape(shape))
        for a, b in zip(ours, theirs):
            assert np.array_equal(a.standard_normal(3), b.standard_normal(3))
        with pytest.raises(ValueError):
            add_complex_noise(clean.copy(), sigma2, ours + [np.random.default_rng(0)])


class TestCombineAndDetect:
    def test_noiseless_combining(self):
        c = build_constellation("psk", 16)
        alpha_p = 5.0
        s = np.array([[True, True, False, True]])
        j_true = 11
        y = math.sqrt(alpha_p) * c.points[j_true] * s
        j_hat = combine_and_detect_modulation(*map(batch_of_one, (y, s, alpha_p)), c)[0]
        np.testing.assert_array_equal(j_hat, [j_true])
        label = int(c.labels[j_true])
        bits = [(label >> (3 - i)) & 1 for i in range(4)]
        np.testing.assert_array_equal(c.label_bits[j_hat[0]], bits)

    def test_all_zero_flags_fall_back_to_symbol_zero(self):
        c = build_constellation("psk", 16)
        y = np.array([[1.0 + 0j, 0.3j], [2.0, -1.0]])
        flags = np.array([[False, False], [True, False]])
        j_hat = combine_and_detect_modulation(*map(batch_of_one, (y, flags, 5.0)), c)[0]
        assert j_hat[0] == 0 and j_hat[1] == 0
        assert c.label_bits[j_hat].shape == (2, 4)

    def test_combining_snr_matches_bpsk_closed_form(self):
        # With perfect flags on w branches the detector sees SNR w*alpha_p/
        # sigma2; BPSK errors then follow Q(sqrt(2*snr)) exactly.
        rng = np.random.default_rng(11)
        c = build_constellation("psk", 2)
        alpha_p, sigma2, w = 1.2, 1.0, 3
        n_trials = 200_000
        sig_c = math.sqrt(sigma2 / 2)
        js = rng.integers(0, 2, n_trials)
        noise = sig_c * (
            rng.standard_normal((n_trials, w)) + 1j * rng.standard_normal((n_trials, w))
        )
        y = math.sqrt(alpha_p) * c.points[js][:, None] + noise
        s = np.ones((n_trials, w), dtype=bool)
        j_hat = combine_and_detect_modulation(*map(batch_of_one, (y, s, alpha_p)), c)[0]
        errors = int(np.count_nonzero(j_hat != js))
        snr_c = w * alpha_p / sigma2
        p_expected = 0.5 * math.erfc(math.sqrt(snr_c))
        se = math.sqrt(p_expected * (1 - p_expected) / n_trials)
        assert abs(errors / n_trials - p_expected) < 3 * se


def assert_same_bits(actual, expected):
    """Same shape, dtype and bytes: signed zeros count as different."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    if actual.dtype.kind == "c":
        actual, expected = (np.ascontiguousarray(a).view(np.float64) for a in (actual, expected))
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def random_rows(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestExactRewrites:
    """The transceiver steps give, bit for bit, what the plain numpy
    expressions they replace give."""

    @pytest.mark.parametrize("n_active", range(1, 9))
    def test_spatial_bits_match_shift_form(self, n_active):
        words = np.arange(1, 1 << n_active)
        shifted = ((words[..., None] >> np.arange(n_active)) & 1).astype(bool)
        assert_same_bits(spatial_bits(words, n_active), shifted)
        # With a leading link axis.
        links = np.stack([words, words[::-1]])
        assert_same_bits(spatial_bits(links, n_active), np.stack([shifted, shifted[::-1]]))

    def test_transmit_matches_spatial_first_product(self):
        rng = np.random.default_rng(21)
        c = build_constellation("qam", 16)
        n_links, trials, n_active = 3, 500, 4
        spatial = spatial_bits(rng.integers(1, 1 << n_active, (n_links, trials)), n_active)
        symbols = c.points[rng.integers(0, 16, (n_links, trials))]
        amplitude = rng.uniform(0.5, 3.0, n_links)
        old = amplitude[:, None, None] * (spatial * symbols[..., None])
        assert_same_bits(transmit(spatial, symbols, amplitude), old)
        old = 1.7 * (spatial[0] * symbols[0][:, None])
        one = map(batch_of_one, (spatial[0], symbols[0], 1.7))
        assert_same_bits(transmit(*one)[0], old)

    def test_buffer_forms_give_the_same_bytes(self):
        # The Monte Carlo block writes each full-size step into arrays it
        # reuses; every step must give what its allocating form gives.
        rng = np.random.default_rng(22)
        c = build_constellation("psk", 16)
        n_links, trials, n_active = 3, 400, 4
        words = rng.integers(1, 1 << n_active, (n_links, trials))
        sent = np.ones((n_links, trials, n_active), dtype=bool)
        assert spatial_bits(words, n_active, out=sent) is sent
        assert_same_bits(sent, spatial_bits(words, n_active))

        js = rng.integers(0, 16, (n_links, trials))
        amplitude = rng.uniform(0.5, 3.0, n_links)
        expected = transmit(sent, c.points[js], amplitude)
        out = random_rows(rng, expected.shape)
        symbols = c.points[js]
        assert transmit(sent, symbols, amplitude, out=out) is out
        assert_same_bits(out, expected)
        assert_same_bits(symbols, c.points[js])  # left as given

        seeds = [[23, i] for i in range(n_links)]
        expected = add_complex_noise(out.copy(), 0.7, [np.random.default_rng(k) for k in seeds])
        rows = np.empty((n_links, trials, n_active))
        add_complex_noise(out, 0.7, [np.random.default_rng(k) for k in seeds], rows=rows)
        assert_same_bits(out, expected)

        gamma = rng.uniform(0.5, 2.0, n_links)
        s_hat = detect_spatial(np.abs(out), gamma)
        flags = rng.random(s_hat.shape) < 0.5
        assert detect_spatial(np.abs(out), gamma, out=flags) is flags
        assert_same_bits(flags, s_hat)

        # The combiner forms the flagged outputs in its y: give it a copy.
        expected = combine_and_detect_modulation(out.copy(), s_hat, amplitude**2, c)
        flagged = out * s_hat
        # The indices and the scratch start as garbage.
        j_hat = rng.integers(-(2**62), 2**62, expected.shape)
        size = expected.size * _combine_work_bytes(n_active, c) + SCRATCH_SLACK
        work = rng.integers(0, 256, size).astype(np.uint8)
        got = combine_and_detect_modulation(out, s_hat, amplitude**2, c, out=j_hat, work=work)
        assert got is j_hat
        assert_same_bits(got, expected)
        assert_same_bits(out, flagged)

    @pytest.mark.parametrize("n_active", range(1, 9))
    @pytest.mark.parametrize("kind,order,ring", [("psk", 16, None), ("qam", 16, None), ("apsk", 16, 2.0)])
    def test_combiner_matches_summed_form(self, n_active, kind, order, ring):
        rng = np.random.default_rng(n_active)
        c = build_constellation(kind, order, ring)
        n_links, trials = 2, 400
        alpha_p = rng.uniform(0.5, 4.0, n_links)
        y = math.sqrt(2.0) * random_rows(rng, (n_links, trials, n_active))
        s_hat = rng.random((n_links, trials, n_active)) < 0.6
        s_hat[:, :5] = False  # erased rows
        expected = nearest_point(
            (y * s_hat).sum(axis=-1), np.sqrt(alpha_p)[:, None] * s_hat.sum(axis=-1), c
        )
        expected[s_hat.sum(axis=-1) == 0] = 0
        assert_same_bits(combine_and_detect_modulation(y, s_hat, alpha_p, c), expected)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_antenna_sum_matches_numpy_reduction(self, n):
        # Fails if numpy changes the order in which it reduces a short
        # contiguous complex axis.
        rng = np.random.default_rng(100 + n)
        z = random_rows(rng, (2, 300, n)) * (rng.random((2, 300, n)) < 0.7)
        z[:, :3] = complex(-0.0, -0.0)  # numpy's sum of these rows is +0
        assert_same_bits(_antenna_sum(z), z.sum(axis=-1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_antenna_sum_into_out_matches_numpy_reduction(self, n):
        # ``out`` and the running sums carved from ``work`` start as
        # garbage, signed zeros and nan among it; ``z`` is left as it was.
        rng = np.random.default_rng(200 + n)
        z = random_rows(rng, (2, 300, n)) * (rng.random((2, 300, n)) < 0.7)
        z[:, :3] = complex(-0.0, -0.0)
        z[:, 3:6, : n // 2] = complex(0.0, -0.0)
        before = z.copy()
        out = random_rows(rng, (2, 300))
        out[0, :5] = complex(-0.0, np.nan)
        work = random_rows(rng, (4, 2, 300))  # room for four more sums
        work[:, 1, :5] = complex(np.nan, -0.0)
        assert _antenna_sum(z, out=out, work=work) is out
        assert_same_bits(out, z.sum(axis=-1))
        assert_same_bits(z, before)

    @pytest.mark.parametrize(
        "kind,order,ring",
        [("psk", 4, None), ("psk", 16, None), ("psk", 64, None), ("qam", 4, None),
         ("qam", 16, None), ("qam", 64, None), ("apsk", 16, 2.6)],
    )
    def test_nearest_point_into_out_matches_fresh_arrays(self, kind, order, ring):
        # ``out`` and the slicer arrays carved from ``work`` start as
        # garbage; so every index and every array must be written before
        # it is read, on the sliced samples and on those that take the full
        # search: nan, inf, a zero scale and points on a decision boundary.
        c = build_constellation(kind, order, ring)
        rng = np.random.default_rng(order)
        y = 2.0 * random_rows(rng, (3, 400))
        scale = rng.uniform(0.3, 3.0, (3, 400))
        y[0, :5] = [np.nan, np.inf, complex(-np.inf, 1.0), 1j * np.nan, complex(np.nan, np.inf)]
        scale[1, :40] = 0.0
        pairs = rng.integers(0, order, (2, 100))
        y[2, :100] = scale[2, :100] * 0.5 * (c.points[pairs[0]] + c.points[pairs[1]])
        with np.errstate(invalid="ignore"):
            expected = nearest_point(y, scale, c)
            np.testing.assert_array_equal(expected, full_search(y, scale, c))
            # One scale per row, broadcast along it, as the baseline slices.
            per_row = nearest_point(y, scale[:, :1], c)
            np.testing.assert_array_equal(per_row, full_search(y, scale[:, :1], c))
            for wanted, scales in ((expected, scale), (per_row, scale[:, :1])):
                out = rng.integers(-(2**62), 2**62, y.shape)
                work = rng.integers(0, 256, y.size * _nearest_work_bytes(c) + SCRATCH_SLACK)
                got = nearest_point(y, scales, c, out=out, work=work.astype(np.uint8))
                assert got is out
                assert_same_bits(got, wanted)


class TestNoiselessEndToEnd:
    def test_identity_on_legal_words(self):
        # Every legal word for 3 spatial bits + QPSK, in one batch.
        h = random_channel(6, 24, seed=12)
        sel = select_antennas(h, 3)
        b = zf_precoder(sel)
        c = build_constellation("qam", 4)
        power = 10.0
        alpha_p = sel.alpha * power
        gamma = threshold("exact", alpha_p, 1.0, c.beta)
        words, js = (g.ravel() for g in np.meshgrid(np.arange(1, 8), np.arange(4)))
        spatial = spatial_bits(words, 3)
        rows = math.sqrt(alpha_p) * (spatial * c.points[js][:, None]) @ b.T
        y = batch_of_one(rows @ sel.h_active.T)
        s_hat = detect_spatial(np.abs(y), batch_of_one(gamma))
        np.testing.assert_array_equal(s_hat[0], spatial)
        j_hat = combine_and_detect_modulation(y, s_hat, batch_of_one(alpha_p), c)[0]
        np.testing.assert_array_equal(j_hat, js)
        np.testing.assert_array_equal(c.label_bits[j_hat], c.label_bits[js])
