"""Tests for the pilot-phase estimators and their asymptotic statistics."""

import math

import numpy as np
import pytest

from rsmsim.training import (
    DegenerateSample,
    SingularFisher,
    estimate_amplitude,
    fisher_information,
    threshold_estimate_stats,
)


def rice_samples(theta, sigma2, shape, rng):
    sig_c = math.sqrt(sigma2 / 2)
    noise = sig_c * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return np.abs(theta + noise)


class TestAmplitudeEstimator:
    def test_exact_on_constant_samples(self):
        for c in (0.5, 2.0, 7.3):
            assert estimate_amplitude([c] * 12) == pytest.approx(c, abs=1e-12)

    def test_single_sample(self):
        assert estimate_amplitude([1.7]) == pytest.approx(1.7, abs=1e-12)

    def test_negative_amplitudes(self):
        with pytest.raises(ValueError):
            estimate_amplitude(np.array([-1.0, 1.0]))

    def test_degenerate_sample_surfaces_radicand(self):
        # Widely spread values make 4*mean^2 < 3*mean-square.
        with pytest.raises(DegenerateSample) as err:
            estimate_amplitude([0.0, 10.0])
        assert err.value.radicand < 0

    def test_consistency_against_rice_generator(self):
        # Batch means of the estimate land within 1% of the true amplitude.
        rng = np.random.default_rng(1)
        theta, sigma2 = 2.0, 0.5
        for n in (64, 256):
            batches = rice_samples(theta, sigma2, (2000, n), rng)
            ests = []
            for row in batches:
                ests.append(estimate_amplitude(row))
            assert np.mean(ests) == pytest.approx(theta, rel=0.01)

    def test_simultaneous_equation_identity(self):
        # Substituting the noise estimate back into the one-parameter ML
        # equation must reproduce the closed-form amplitude estimate.
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            a = rice_samples(3.0, 0.4, n, rng)
            try:
                theta = estimate_amplitude(a)
            except DegenerateSample:
                continue
            sigma2_hat = 2.0 * float(np.mean((a - theta) ** 2))  # ML noise estimate
            m = float(a.mean())
            inner = max(m * m - sigma2_hat, 0.0)
            theta_again = 0.5 * m + 0.5 * math.sqrt(inner)
            assert abs(theta_again - theta) < 1e-9


class TestThresholdStats:
    def test_mean_is_half_amplitude(self):
        ap = 10 ** (15 / 10)
        mean, _ = threshold_estimate_stats(ap, 1.0, 16)
        assert mean == pytest.approx(0.5 * math.sqrt(ap), rel=1e-12)

    def test_variance_scales_inversely_with_n(self):
        ap = 10 ** (15 / 10)
        _, v1 = threshold_estimate_stats(ap, 1.0, 8)
        _, v2 = threshold_estimate_stats(ap, 1.0, 16)
        assert v1 == pytest.approx(2.0 * v2, rel=1e-12)

    def test_variance_vanishes_asymptotically(self):
        ap = 10 ** (15 / 10)
        _, v = threshold_estimate_stats(ap, 1.0, 10**9)
        assert v < 1e-9

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_fisher_prediction_matches_simulation(self, n):
        # 15 dB pilot SNR: empirical variance of the estimated threshold
        # over 1e5 pilot runs within 15% of the asymptotic prediction.
        rng = np.random.default_rng(40 + n)
        ap, sigma2 = 10 ** (15 / 10), 1.0
        theta = math.sqrt(ap)
        _, var_pred = threshold_estimate_stats(ap, sigma2, n)
        a = rice_samples(theta, sigma2, (100_000, n), rng)
        m = a.mean(axis=1)
        q = (a * a).mean(axis=1)
        rad = 4 * m * m - 3 * q
        ok = rad >= 0
        gamma_hat = 0.5 * ((2 / 3) * m[ok] + (1 / 3) * np.sqrt(rad[ok]))
        assert ok.mean() > 0.999
        assert float(gamma_hat.var()) == pytest.approx(var_pred, rel=0.15)

    def test_singular_fisher_at_very_low_snr(self):
        # theta < sigma/2 makes the leading Fisher entry negative.
        with pytest.raises(SingularFisher):
            threshold_estimate_stats(0.2, 1.0, 8)

    def test_fisher_matrix_shape_and_symmetry(self):
        info = fisher_information(2.0, 0.5, 10)
        assert info.shape == (2, 2)
        assert info[0, 1] == info[1, 0]


class TestEstimateThreshold:
    def test_estimator_is_nearly_gaussian_at_n8(self):
        # Asymptotic-normality sanity: skewness and excess kurtosis of the
        # estimate stay small already at N = 8.
        rng = np.random.default_rng(6)
        ap, sigma2 = 10 ** (15 / 10), 1.0
        a = rice_samples(math.sqrt(ap), sigma2, (50_000, 8), rng)
        m = a.mean(axis=1)
        q = (a * a).mean(axis=1)
        rad = np.maximum(4 * m * m - 3 * q, 0.0)
        theta_hat = (2 / 3) * m + (1 / 3) * np.sqrt(rad)
        z = (theta_hat - theta_hat.mean()) / theta_hat.std()
        skew = float(np.mean(z**3))
        excess_kurtosis = float(np.mean(z**4) - 3.0)
        assert abs(skew) < 0.25
        assert abs(excess_kurtosis) < 0.5

