"""Tests for the clustered channel generator."""

import math

import numpy as np
import pytest

from rsmsim import channel
from rsmsim.channel import (
    ChannelParams,
    _draw_angles,
    array_response,
    draw_channel,
    in_sector_fraction,
    sector_gain,
)

from oracles import batch_of_one

DEFAULT = ChannelParams(n_tx=32, n_rx=8)


def scalar_array_response(n, angle_deg, spacing):
    phase = 2.0 * math.pi * spacing * math.sin(math.radians(angle_deg))
    return np.exp(1j * phase * np.arange(n)) / math.sqrt(n)


def scalar_sector_gain(angle_deg, center, width):
    offset = (angle_deg - center + 180.0) % 360.0 - 180.0
    return 1 if abs(offset) <= width / 2.0 else 0


def replay_rays(params, rng):
    """A link's (n_paths, 2) ray angles and its ray gains, replayed from its
    stream in the order ``draw_channel`` draws them."""
    rays = _draw_angles(params, rng)
    gain_scale = params.gain_variance / in_sector_fraction(params)
    gains = math.sqrt(gain_scale / 2.0) * (
        rng.standard_normal(params.n_paths) + 1j * rng.standard_normal(params.n_paths)
    )
    return rays, gains


def per_ray_draw(params, rng):
    """Reference generator: every response and pattern gain built ray by ray."""
    rays, gains = replay_rays(params, rng)
    center, width = params.sector_center_deg, params.sector_width_deg
    pattern = []
    for arr, dep in rays:
        gain = scalar_sector_gain(float(dep), center, width)
        if not params.rx_omni:
            gain *= scalar_sector_gain(float(arr), center, width)
        pattern.append(gain)
    spacing = params.antenna_spacing_wavelengths
    v_rx = np.stack([scalar_array_response(params.n_rx, float(a), spacing) for a in rays[:, 0]])
    v_tx = np.stack([scalar_array_response(params.n_tx, float(a), spacing) for a in rays[:, 1]])
    weights = math.sqrt(params.n_tx * params.n_rx / params.n_paths) * gains * np.array(
        pattern, dtype=float
    )
    return (v_rx.T * weights) @ v_tx.conj()


class TestArrayResponse:
    def test_broadside(self):
        np.testing.assert_allclose(array_response(4, 0.0, 0.5), np.full(4, 0.5))

    def test_endfire_half_wavelength(self):
        v = array_response(2, 90.0, 0.5)
        np.testing.assert_allclose(v, np.array([1.0, -1.0]) / math.sqrt(2), atol=1e-12)

    def test_array_of_angles_matches_scalar_calls(self):
        angles = np.random.default_rng(0).uniform(-400.0, 400.0, (3, 50))
        batch = array_response(6, angles, 0.7)
        assert batch.shape == (3, 50, 6)
        for index in np.ndindex(angles.shape):
            assert np.array_equal(
                batch[index], scalar_array_response(6, float(angles[index]), 0.7)
            )

    def test_matches_the_allocating_expression(self):
        # The response takes its exp and its division in place.
        angles = np.random.default_rng(1).uniform(-180.0, 180.0, (4, 80))
        for n, spacing in [(1, 0.5), (8, 0.5), (32, 0.7)]:
            phase = 2.0 * math.pi * spacing * np.sin(np.radians(angles))
            old = np.exp(1j * phase[..., None] * np.arange(n)) / math.sqrt(n)
            assert array_response(n, angles, spacing).tobytes() == old.tobytes()

    def test_unit_norm_and_phase_progression(self):
        v = array_response(8, 17.0, 0.5)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        step = 2 * math.pi * 0.5 * math.sin(math.radians(17.0))
        diffs = np.angle(v[1:] / v[:-1])
        np.testing.assert_allclose(diffs, step, atol=1e-12)


class TestSectorGain:
    @pytest.mark.parametrize(
        "angle,center,width,expected",
        [
            (0.0, 0.0, 50.0, 1),
            (26.0, 0.0, 50.0, 0),
            (-24.9, 0.0, 50.0, 1),
            (25.0, 0.0, 50.0, 1),
            (350.0, 0.0, 50.0, 1),  # wraparound
            (180.0, 170.0, 30.0, 1),
            (190.0, 170.0, 30.0, 0),
        ],
    )
    def test_membership(self, angle, center, width, expected):
        assert sector_gain(angle, center, width) == expected

    def test_array_of_angles_matches_scalar_calls(self):
        angles = np.concatenate(
            [np.random.default_rng(1).uniform(-540.0, 540.0, 2000), [150.0, 190.0, -170.0]]
        )
        gains = sector_gain(angles, 170.0, 40.0)
        assert gains.shape == angles.shape
        expected = [scalar_sector_gain(float(a), 170.0, 40.0) for a in angles]
        np.testing.assert_array_equal(gains, expected)
        assert 0 < gains.sum() < angles.size

    @pytest.mark.parametrize(
        "center,width", [(0.0, 50.0), (170.0, 40.0), (-90.0, 359.0), (1e-9, 360.0), (33.3, 0.0)]
    )
    def test_matches_remainder_form(self, center, width):
        # The mask once took the remainder of every angle; the remainder is
        # now skipped where the shifted angle already lies in [0, 360).
        def remainder_form(angles):
            offset = (np.asarray(angles, dtype=float) - center + 180.0) % 360.0 - 180.0
            return np.abs(offset) <= width / 2.0

        edges = np.array([center - 180.0, center + 180.0, center, center + 360.0, center - 360.0])
        angles = np.concatenate(
            [
                edges,
                np.nextafter(edges, np.inf),
                np.nextafter(edges, -np.inf),
                center + np.array([-540.0, -360.0, 360.0, 540.0, 720.0, -720.0]),
                [1e17, -1e17, 1e300, -1e300, 3.6e5 + 0.5, -3.6e5 - 0.5, 5e-324, -0.0, 0.0],
                [np.inf, -np.inf, np.nan],
                np.random.default_rng(7).uniform(-1e4, 1e4, 5000),
            ]
        )
        with np.errstate(invalid="ignore"):  # the remainder of +-inf is nan
            np.testing.assert_array_equal(
                sector_gain(angles, center, width), remainder_form(angles)
            )
            for angle in angles[:40]:
                assert sector_gain(float(angle), center, width) == int(remainder_form(angle))


GEOMETRIES = pytest.mark.parametrize(
    "params",
    [
        DEFAULT,
        ChannelParams(n_tx=16, n_rx=4, rx_omni=False, angular_spread_deg=20.0),
        # The sector spans 150..190 degrees, across the +-180 wrap.
        ChannelParams(
            n_tx=16,
            n_rx=4,
            sector_center_deg=170.0,
            sector_width_deg=40.0,
            angular_spread_deg=10.0,
            rx_omni=False,
        ),
        ChannelParams(n_tx=8, n_rx=4, n_clusters=3, n_rays=1, antenna_spacing_wavelengths=0.7),
    ],
    ids=["default", "rx-sector", "wrapping-sector", "one-ray-spacing-0.7"],
)


def one_shot_fraction(params):
    """The calibration as one pre-pass over all draws at once, which the
    chunked pre-pass of ``in_sector_fraction`` replaced, kept as its oracle."""
    rng = np.random.default_rng([channel._CALIBRATION_SEED, params.n_clusters, params.n_rays])
    half = params.sector_width_deg / 2.0
    scale = params.angular_spread_deg / math.sqrt(2.0)
    shape = (channel._CALIBRATION_DRAWS, params.n_clusters, params.n_rays)
    center, width = params.sector_center_deg, params.sector_width_deg
    dep_means = rng.uniform(center - half, center + half, shape[:2])
    mask = sector_gain(dep_means[:, :, None] + rng.laplace(0.0, scale, shape), center, width)
    if not params.rx_omni:
        arr_means = rng.uniform(center - half, center + half, shape[:2])
        mask &= sector_gain(arr_means[:, :, None] + rng.laplace(0.0, scale, shape), center, width)
    return float(mask.mean())


class TestCalibration:
    @pytest.mark.parametrize("rx_omni", [True, False])
    @pytest.mark.parametrize("n_clusters", [1, 8, 16])
    def test_chunked_prepass_matches_one_shot(self, rx_omni, n_clusters):
        # The 10-degree sector with a 30-degree spread clips most rays.
        grid = [(50.0, 1.0, 0.0), (360.0, 20.0, 0.0), (30.0, 0.0, 170.0), (10.0, 30.0, 0.0)]
        for width, spread, center in grid:
            params = ChannelParams(
                n_tx=4,
                n_rx=2,
                n_clusters=n_clusters,
                angular_spread_deg=spread,
                sector_center_deg=center,
                sector_width_deg=width,
                rx_omni=rx_omni,
            )
            frac = in_sector_fraction.__wrapped__(params)
            assert frac.hex() == one_shot_fraction(params).hex(), params

    @pytest.mark.parametrize("rx_omni", [True, False])
    def test_prepass_memory_is_bounded(self, rx_omni):
        # The one-shot pre-pass peaked at 29.4 MB at 16 clusters (43.6 MB
        # with a sectorized receiver).
        import tracemalloc

        params = ChannelParams(n_tx=32, n_rx=8, n_clusters=16, rx_omni=rx_omni)
        tracemalloc.start()
        try:
            in_sector_fraction.__wrapped__(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestDrawChannel:
    def test_matches_the_allocating_expressions(self):
        # The draw conjugates the departure responses in place.
        params = ChannelParams(n_tx=16, n_rx=4, rx_omni=False, angular_spread_deg=20.0)
        matrix = draw_channel(params, [np.random.default_rng([7, i]) for i in range(5)])
        replayed = [replay_rays(params, np.random.default_rng([7, i])) for i in range(5)]
        rays, gains = (np.stack(parts) for parts in zip(*replayed))
        pattern = sector_gain(rays[..., 1], 0.0, 50.0).astype(float)
        pattern *= sector_gain(rays[..., 0], 0.0, 50.0)
        weights = math.sqrt(16 * 4 / params.n_paths) * gains * pattern
        v_rx = array_response(4, rays[..., 0], 0.5)
        v_tx = array_response(16, rays[..., 1], 0.5)
        old = (v_rx.swapaxes(-1, -2) * weights[:, None, :]) @ v_tx.conj()
        assert matrix.tobytes() == old.tobytes()

    @GEOMETRIES
    def test_matches_per_ray_reference(self, params):
        for i in range(40):
            got = draw_channel(params, batch_of_one(np.random.default_rng([5, i])))[0]
            want = per_ray_draw(params, np.random.default_rng([5, i]))
            assert np.array_equal(got, want), f"draw {i}"

    @GEOMETRIES
    def test_batch_matches_one_draw_per_link(self, params):
        n_links = 40
        batch = draw_channel(params, [np.random.default_rng([6, i]) for i in range(n_links)])
        assert batch.shape == (n_links, params.n_rx, params.n_tx)
        for i in range(n_links):
            alone = draw_channel(params, batch_of_one(np.random.default_rng([6, i])))
            assert batch[i].tobytes() == alone[0].tobytes(), f"link {i}"

    def test_single_ray_closed_form(self):
        # One cluster, one ray, zero spread: H is a scaled rank-one outer
        # product with squared Frobenius norm n_tx*n_rx*|g|^2/frac.
        params = ChannelParams(
            n_tx=8, n_rx=4, n_clusters=1, n_rays=1, angular_spread_deg=0.0
        )
        h = draw_channel(params, batch_of_one(np.random.default_rng(3)))[0]
        rays, gains = replay_rays(params, np.random.default_rng(3))
        arr, dep = rays[0]
        v_r = array_response(4, float(arr), 0.5)
        v_t = array_response(8, float(dep), 0.5)
        g = gains[0]
        expected = math.sqrt(8 * 4) * g * np.outer(v_r, v_t.conj())
        np.testing.assert_allclose(h, expected, atol=1e-12)
        assert np.linalg.matrix_rank(h) == 1
        assert np.linalg.norm(h) ** 2 == pytest.approx(
            8 * 4 * abs(g) ** 2, rel=1e-12
        )

    def test_reproducible(self):
        a = draw_channel(DEFAULT, batch_of_one(np.random.default_rng(42)))
        b = draw_channel(DEFAULT, batch_of_one(np.random.default_rng(42)))
        np.testing.assert_array_equal(a, b)

    def test_energy_normalization(self):
        # Sample mean of ||H||_F^2 over many draws within 5% of n_tx*n_rx.
        params = ChannelParams(n_tx=16, n_rx=4)
        rng = np.random.default_rng(11)
        n_draws = 10_000
        acc = 0.0
        for _ in range(n_draws):
            h = draw_channel(params, batch_of_one(rng))[0]
            acc += float(np.sum(np.abs(h) ** 2))
        assert acc / n_draws / (16 * 4) == pytest.approx(1.0, abs=0.05)

    def test_out_of_sector_rays_do_not_contribute(self):
        # A narrow sector far from a forced ray mean: huge spread pushes many
        # rays out; their pattern gain must null them in the matrix sum.
        params = ChannelParams(
            n_tx=4, n_rx=2, n_clusters=2, n_rays=5, angular_spread_deg=40.0
        )
        h = draw_channel(params, batch_of_one(np.random.default_rng(5)))[0]
        rays, gains = replay_rays(params, np.random.default_rng(5))
        mask = np.array([sector_gain(float(dep), 0.0, 50.0) for dep in rays[:, 1]])
        v_r = np.stack([array_response(2, float(a), 0.5) for a in rays[:, 0]])
        v_t = np.stack([array_response(4, float(a), 0.5) for a in rays[:, 1]])
        w = math.sqrt(4 * 2 / 10) * gains * mask
        expected = (v_r.T * w) @ v_t.conj()
        np.testing.assert_allclose(h, expected, atol=1e-12)
        assert mask.sum() < 10  # the configuration really drops rays

    def test_rank_bounded_by_path_count(self):
        params = ChannelParams(n_tx=12, n_rx=6, n_clusters=1, n_rays=2)
        h = draw_channel(params, batch_of_one(np.random.default_rng(9)))[0]
        s = np.linalg.svd(h, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) <= 2

    def test_calibration_fraction_sane(self):
        frac = in_sector_fraction(DEFAULT)
        assert 0.9 < frac <= 1.0  # 1-degree spread rarely leaves a 50-degree sector


class TestChannelParamsValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ChannelParams(n_tx=0, n_rx=4)
        with pytest.raises(ValueError):
            ChannelParams(n_tx=4, n_rx=4, n_clusters=0)

    def test_rejects_bad_sector(self):
        with pytest.raises(ValueError):
            ChannelParams(n_tx=4, n_rx=4, sector_width_deg=0.0)
        with pytest.raises(ValueError):
            ChannelParams(n_tx=4, n_rx=4, sector_width_deg=400.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "name",
        [
            "angular_spread_deg",
            "sector_center_deg",
            "sector_width_deg",
            "antenna_spacing_wavelengths",
            "gain_variance",
        ],
    )
    def test_rejects_non_finite_floats(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ChannelParams(n_tx=4, n_rx=4, **{name: value})

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            ChannelParams(n_tx=4, n_rx=4, antenna_spacing_wavelengths=0.0)
        with pytest.raises(ValueError):
            ChannelParams(n_tx=4, n_rx=4, gain_variance=-1.0)
