"""Tests for the fully digital SVD baseline."""

import math

import numpy as np
import pytest

from rsmsim.baseline import RankDeficient, fd_ber, svd_link
from rsmsim.phy import build_constellation
from rsmsim.specfun import gaussian_q


def random_channel(n_rx, n_tx, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))) / np.sqrt(2)


class TestSvdLink:
    def test_identity_channel_splits_evenly(self):
        link = svd_link(np.eye(4), power=6.0, n_modes=2)
        np.testing.assert_allclose(link.power_per_mode, [3.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(link.received_power_per_mode, [3.0, 3.0], atol=1e-12)

    def test_inverse_square_weighting(self):
        h = np.diag([2.0, 1.0]).astype(complex)
        link = svd_link(h, power=5.0, n_modes=2)
        np.testing.assert_allclose(link.power_per_mode, [1.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(link.received_power_per_mode, [4.0, 4.0], atol=1e-12)

    def test_equal_snr_on_random_channel(self):
        h = random_channel(6, 12, seed=0)
        link = svd_link(h, power=3.0, n_modes=4)
        received = link.received_power_per_mode
        assert float(received.max() - received.min()) < 1e-8
        assert float(link.power_per_mode.sum()) == pytest.approx(3.0, rel=1e-12)

    def test_scaling_channel_keeps_profile_flat(self):
        h = random_channel(4, 8, seed=1)
        for c in (0.5, 3.0):
            link = svd_link(c * h, power=2.0, n_modes=3)
            received = link.received_power_per_mode
            assert float(received.max() - received.min()) < 1e-8

    def test_at_power_matches_a_fresh_split(self):
        h = random_channel(8, 32, seed=9)
        unit = svd_link(h, power=1.0, n_modes=3)
        for power in (0.01, 1.0, 6.3):
            fresh = svd_link(h, power=power, n_modes=3)
            moved = unit.at_power(power)
            np.testing.assert_array_equal(moved.power_per_mode, fresh.power_per_mode)
            np.testing.assert_array_equal(
                moved.received_power_per_mode, fresh.received_power_per_mode
            )
        with pytest.raises(ValueError):
            unit.at_power(0.0)

    def test_rank_deficient_raises(self):
        h = np.outer(np.ones(4), np.ones(6)).astype(complex)  # rank one
        with pytest.raises(RankDeficient):
            svd_link(h, power=1.0, n_modes=2)


class TestFdBer:
    def test_noiseless_is_error_free(self):
        h = random_channel(4, 8, seed=2)
        link = svd_link(h, power=4.0, n_modes=2)
        c = build_constellation("qam", 16)
        errors = fd_ber(link, c, sigma2=1e-12, trials=2000, rng=np.random.default_rng(3))
        assert errors == 0

    def test_single_mode_bpsk_matches_q_function(self):
        h = np.array([[1.5 + 0j]])
        power, sigma2 = 2.0, 1.0
        link = svd_link(h, power=power, n_modes=1)
        c = build_constellation("psk", 2)
        trials = 400_000
        ber = fd_ber(link, c, sigma2, trials, np.random.default_rng(4)) / trials
        snr = power * 1.5**2 / sigma2
        expected = gaussian_q(math.sqrt(2 * snr))
        band = 3 * math.sqrt(expected * (1 - expected) / trials)
        assert abs(ber - expected) <= band

    def test_two_mode_qam_matches_analytic_average(self):
        h = random_channel(4, 8, seed=5)
        power, sigma2 = 10 ** (12 / 10) * 2, 1.0
        link = svd_link(h, power=power, n_modes=2)
        c = build_constellation("qam", 16)
        trials = 400_000
        ber = fd_ber(link, c, sigma2, trials, np.random.default_rng(6)) / (trials * 2 * 4)
        snr = float(link.received_power_per_mode[0]) / sigma2
        expected = (4 / 4) * (1 - 1 / 4) * gaussian_q(math.sqrt(3 * snr / 15))
        band = 3 * math.sqrt(expected * (1 - expected) / (trials * 2 * 4))
        # Closed form is a Gray approximation: allow it on top of noise.
        assert abs(ber - expected) <= band + 0.05 * expected

    def test_reproducible_for_same_stream(self):
        h = random_channel(4, 8, seed=7)
        link = svd_link(h, power=4.0, n_modes=2)
        c = build_constellation("qam", 16)
        a = fd_ber(link, c, 1.0, 10_000, np.random.default_rng(8))
        b = fd_ber(link, c, 1.0, 10_000, np.random.default_rng(8))
        assert isinstance(a, int)
        assert a == b
