"""Tests for the user-terminal power model."""

import pytest

from rsmsim.power import (
    PowerConfig,
    power_fd,
    power_proposed,
    power_ratio,
    ratio_approximation,
)


class TestProposedReceiver:
    def test_published_operating_point(self):
        cfg = PowerConfig(p_ref=20.0, n_rx=16)
        assert power_proposed(cfg) == pytest.approx(1700.0, abs=1e-9)

    def test_unit_reference_single_antenna(self):
        cfg = PowerConfig(p_ref=1.0, n_rx=1)
        assert power_proposed(cfg) == pytest.approx(3.75 + 24.0 + 1.0, abs=1e-12)

    def test_linear_in_antennas(self):
        slope = power_proposed(PowerConfig(p_ref=2.0, n_rx=11)) - power_proposed(
            PowerConfig(p_ref=2.0, n_rx=10)
        )
        assert slope == pytest.approx(3.75 * 2.0, abs=1e-12)


class TestFullyDigitalReceiver:
    def test_published_operating_point(self):
        cfg = PowerConfig(p_ref=20.0, n_rx=16)
        assert power_fd(cfg) == pytest.approx(8640.0, abs=1e-9)

    def test_unit_reference_single_antenna(self):
        cfg = PowerConfig(p_ref=1.0, n_rx=1)
        assert power_fd(cfg) == pytest.approx(26.0 + 1.0, abs=1e-12)


class TestRatio:
    def test_published_point(self):
        exact, approx = power_ratio(PowerConfig(p_ref=20.0, n_rx=16))
        assert exact == pytest.approx(1700.0 / 8640.0, rel=1e-12)
        assert approx == pytest.approx(0.14 + 0.9 / 16)
        assert abs(exact - approx) < 0.002

    @pytest.mark.parametrize("n_rx", [8, 16, 32, 64, 128, 256])
    def test_approximation_within_half_percent(self, n_rx):
        exact, approx = power_ratio(PowerConfig(p_ref=20.0, n_rx=n_rx))
        assert abs(exact - approx) < 0.005

    def test_large_array_limit(self):
        # The exact ratio tends to 3.75/27 ~ 0.1389, i.e. roughly the 0.14
        # constant of the published approximation.
        exact, _ = power_ratio(PowerConfig(p_ref=20.0, n_rx=10**6))
        assert exact == pytest.approx(3.75 / 27.0, rel=1e-4)
        assert abs(exact - 0.14) < 0.002

    def test_ratio_independent_of_reference(self):
        a, _ = power_ratio(PowerConfig(p_ref=1.0, n_rx=32))
        b, _ = power_ratio(PowerConfig(p_ref=123.0, n_rx=32))
        assert a == pytest.approx(b, rel=1e-12)

    def test_monotone_decreasing_toward_limit(self):
        ratios = [power_ratio(PowerConfig(p_ref=20.0, n_rx=n))[0] for n in (8, 16, 32, 64)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 3.75 / 27.0

    def test_approximation_helper(self):
        assert ratio_approximation(16) == pytest.approx(0.19625)


class TestValidation:
    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError):
            PowerConfig(p_ref=0.0, n_rx=4)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            PowerConfig(p_ref=1.0, n_rx=0)
