"""Tests for the fully digital SVD baseline."""

import math

import numpy as np
import pytest

from rsmsim.baseline import RankDeficient, fd_ber, received_power, svd_link
from rsmsim.buffers import BlockBuffers
from rsmsim.phy import build_constellation
from rsmsim.simulate import _batch_links
from rsmsim.specfun import gaussian_q
from oracles import batch_of_one, fd_ber_oracle, gray_square_qam_bep, random_channel


class TestSvdLink:
    """``svd_link`` gives a channel's mode gains; ``received_power`` splits
    the power over them for equal received SNR, and the transmit power of
    mode k is its received power over g_k^2."""

    def test_mode_gains_are_the_top_singular_values(self):
        h = random_channel(6, 12, seed=0)
        assert np.array_equal(svd_link(batch_of_one(h), n_modes=4)[0], np.linalg.svd(h)[1][:4])

    def test_identity_channel_splits_evenly(self):
        gains = svd_link(batch_of_one(np.eye(4)), n_modes=2)[0]
        received = received_power(gains, 6.0)
        np.testing.assert_allclose(received / gains**2, [3.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(received, [3.0, 3.0], atol=1e-12)

    def test_inverse_square_weighting(self):
        gains = svd_link(batch_of_one(np.diag([2.0, 1.0]).astype(complex)), n_modes=2)[0]
        received = received_power(gains, 5.0)
        np.testing.assert_allclose(received / gains**2, [1.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(received, [4.0, 4.0], atol=1e-12)

    def test_equal_snr_on_random_channel(self):
        gains = svd_link(batch_of_one(random_channel(6, 12, seed=0)), n_modes=4)[0]
        received = received_power(gains, 3.0)
        assert float(received.max() - received.min()) < 1e-8
        assert float((received / gains**2).sum()) == pytest.approx(3.0, rel=1e-12)

    def test_scaling_channel_keeps_profile_flat(self):
        h = random_channel(4, 8, seed=1)
        for c in (0.5, 3.0):
            received = received_power(svd_link(batch_of_one(c * h), n_modes=3)[0], 2.0)
            assert float(received.max() - received.min()) < 1e-8

    def test_rejects_nonpositive_power(self):
        gains = svd_link(batch_of_one(random_channel(4, 8, seed=2)), n_modes=2)[0]
        for power in (0.0, -1.0):
            with pytest.raises(ValueError):
                received_power(gains, power)

    def test_rank_deficient_raises(self):
        h = np.outer(np.ones(4), np.ones(6)).astype(complex)  # rank one
        with pytest.raises(RankDeficient):
            svd_link(batch_of_one(h), n_modes=2)

    def test_stack_matches_per_channel_calls(self):
        stack = np.stack([random_channel(6, 12, seed=s) for s in range(5)])
        gains = svd_link(stack, n_modes=3)
        assert gains.shape == (5, 3)
        for h, row in zip(stack, gains):
            assert svd_link(batch_of_one(h), n_modes=3)[0].tobytes() == row.tobytes()

    def test_rank_deficient_stack_names_the_first_short_channel(self):
        stack = np.stack([random_channel(4, 6, seed=s) for s in range(5)])
        stack[2] = np.outer(np.ones(4), np.ones(6))  # rank one
        stack[4] = 0.0
        with pytest.raises(RankDeficient, match="channel 2 supports 1 modes, 2 requested"):
            svd_link(stack, n_modes=2)
        assert svd_link(stack[:2], n_modes=2).shape == (2, 2)


class TestThinFactorization:
    """The thin SVD ``svd_link`` runs gives the full factorization's bits."""

    @staticmethod
    def assert_full_bits(stack, n_modes):
        assert svd_link(stack, n_modes).tobytes() == np.linalg.svd(stack)[1][..., :n_modes].tobytes()

    @pytest.mark.parametrize("shape", [(40, 8, 32), (40, 32, 8), (40, 8, 8), (40, 3, 5)])
    def test_random_stacks(self, shape):
        rng = np.random.default_rng(sum(shape))
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.assert_full_bits(stack, min(shape[1:]))

    def test_near_rank_deficient_stack(self):
        # Rank two plus a perturbation at 1e-9, 1e-12 and 1e-15 relative.
        rng = np.random.default_rng(3)
        low = np.stack([random_channel(8, 2, s) @ random_channel(2, 32, s + 50) for s in range(30)])
        noise = rng.standard_normal(low.shape) + 1j * rng.standard_normal(low.shape)
        for scale in (1e-9, 1e-12, 1e-15):
            self.assert_full_bits(low + scale * noise, 2)

    @pytest.mark.parametrize("path", ["presets/fig2_fd_svd.cfg", "bench/configs/fd_baseline.cfg"])
    def test_config_ensembles(self, path):
        from pathlib import Path

        from rsmsim.cli import load_config
        from rsmsim.simulate import _draw_channels

        config = load_config(Path(__file__).resolve().parents[1] / path)
        for stack in _draw_channels(config):
            self.assert_full_bits(stack, config.n_modes)


def link_power(h, power, n_modes):
    """Received power per mode of one channel at total transmit ``power``."""
    return received_power(svd_link(batch_of_one(h), n_modes)[0], power)


def one_link(received, constellation, sigma2, trials, rng):
    """Error count of a single link through the batch simulator."""
    counts = fd_ber(received[None], constellation, sigma2, trials, [rng], BlockBuffers())
    assert counts.shape == (1,)
    return int(counts[0])


class TestFdBer:
    def test_noiseless_is_error_free(self):
        h = random_channel(4, 8, seed=2)
        received = link_power(h, 4.0, n_modes=2)
        c = build_constellation("qam", 16)
        errors = one_link(received, c, sigma2=1e-12, trials=2000, rng=np.random.default_rng(3))
        assert errors == 0

    def test_single_mode_bpsk_matches_q_function(self):
        h = np.array([[1.5 + 0j]])
        power, sigma2 = 2.0, 1.0
        received = link_power(h, power, n_modes=1)
        c = build_constellation("psk", 2)
        trials = 400_000
        ber = one_link(received, c, sigma2, trials, np.random.default_rng(4)) / trials
        snr = power * 1.5**2 / sigma2
        expected = gaussian_q(math.sqrt(2 * snr))
        band = 3 * math.sqrt(expected * (1 - expected) / trials)
        assert abs(ber - expected) <= band

    def test_two_mode_qam_matches_analytic_average(self):
        h = random_channel(4, 8, seed=5)
        power, sigma2 = 10 ** (12 / 10) * 2, 1.0
        received = link_power(h, power, n_modes=2)
        c = build_constellation("qam", 16)
        trials = 400_000
        ber = one_link(received, c, sigma2, trials, np.random.default_rng(6)) / (trials * 2 * 4)
        snr = float(received[0]) / sigma2
        expected = (4 / 4) * (1 - 1 / 4) * gaussian_q(math.sqrt(3 * snr / 15))
        band = 3 * math.sqrt(expected * (1 - expected) / (trials * 2 * 4))
        # Closed form is a Gray approximation: allow it on top of noise.
        assert abs(ber - expected) <= band + 0.05 * expected

    def test_reproducible_for_same_stream(self):
        h = random_channel(4, 8, seed=7)
        received = link_power(h, 4.0, n_modes=2)
        c = build_constellation("qam", 16)
        a = one_link(received, c, 1.0, 10_000, np.random.default_rng(8))
        b = one_link(received, c, 1.0, 10_000, np.random.default_rng(8))
        assert a == b

    def test_rejects_uneven_words_and_missing_streams(self):
        c = build_constellation("qam", 16)
        received = np.ones((3, 2))
        rngs = [np.random.default_rng(i) for i in range(3)]
        for words in (0, 2, 10):
            with pytest.raises(ValueError):
                fd_ber(received, c, 1.0, words, rngs, BlockBuffers())
        with pytest.raises(ValueError):
            fd_ber(received, c, 1.0, 9, rngs[:2], BlockBuffers())
        with pytest.raises(ValueError):
            fd_ber(received, c, 0.0, 9, rngs, BlockBuffers())


class TestExactQamBep:
    """``fd_ber`` estimates the exact Gray square-QAM bit error probability
    on single-mode unit-gain links, where the symbol SNR is the received
    power over the noise variance. At the lower SNR of 16- and 64-QAM the
    nearest-neighbour form of ``constellation_bep`` lies over 100 standard
    errors away."""

    @pytest.mark.parametrize(
        "order,snr_db", [(4, 0), (4, 8), (16, 2), (16, 12), (64, 8), (64, 18)]
    )
    def test_mean_link_ber_within_five_standard_errors(self, order, snr_db):
        c = build_constellation("qam", order)
        n_links, trials = 50, 20_000
        snr = 10 ** (snr_db / 10)
        rngs = [np.random.default_rng([order, snr_db, i]) for i in range(n_links)]
        counts = fd_ber(np.full((n_links, 1), snr), c, 1.0, n_links * trials, rngs, BlockBuffers())
        ber = counts / (trials * c.bits_per_symbol)
        standard_error = ber.std(ddof=1) / math.sqrt(n_links)
        assert abs(ber.mean() - gray_square_qam_bep(order, snr)) <= 5 * standard_error


TRIALS, N_MODES = 1000, 2
#: channels in one fully digital Monte Carlo task at TRIALS x N_MODES
BATCH = _batch_links(TRIALS, N_MODES)


class TestFdBerBatch:
    @pytest.mark.parametrize(
        "kind,order,ring",
        [("qam", 4, None), ("qam", 16, None), ("qam", 64, None),
         ("psk", 8, None), ("psk", 16, None), ("apsk", 16, 2.6)],
    )
    @pytest.mark.parametrize("n_links", [1, 2, BATCH + 1])
    @pytest.mark.parametrize("sigma2", [1e-20, 0.3, 1e8])
    def test_matches_the_per_link_oracle(self, kind, order, ring, n_links, sigma2):
        c = build_constellation(kind, order, ring)
        setup = np.random.default_rng([order, n_links])
        gains = np.sort(setup.uniform(0.2, 3.0, (n_links, N_MODES)), axis=1)[:, ::-1]
        received = received_power(gains, float(setup.uniform(1.0, 30.0)))
        seeds = setup.integers(0, 2**32, n_links)
        rngs = [np.random.default_rng(s) for s in seeds]
        counts = fd_ber(received, c, sigma2, n_links * TRIALS, rngs, BlockBuffers())
        expected = [
            fd_ber_oracle(received[i], c, sigma2, TRIALS, np.random.default_rng(s))
            for i, s in enumerate(seeds)
        ]
        assert counts.shape == (n_links,)
        assert np.array_equal(counts, expected)
        if sigma2 == 1e-20:
            assert not counts.any()
        if sigma2 == 1e8:
            # Pure noise: about half of every link's bits are wrong.
            bits = TRIALS * N_MODES * c.bits_per_symbol
            assert np.all(np.abs(counts / bits - 0.5) < 0.05)


class TestFdBerModeCounts:
    """The modes-major batch at other mode counts; 7 and 17 links run as
    several pieces with a short last one."""

    @pytest.mark.parametrize(
        "kind,order,ring",
        [("qam", 4, None), ("qam", 16, None), ("qam", 64, None), ("psk", 8, None),
         ("apsk", 16, 2.6)],
    )
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("n_links", [1, 7, 17])
    def test_matches_the_per_link_oracle(self, kind, order, ring, n_modes, n_links):
        c = build_constellation(kind, order, ring)
        setup = np.random.default_rng([n_modes, n_links])
        gains = np.sort(setup.uniform(0.2, 3.0, (n_links, n_modes)), axis=1)[:, ::-1]
        received = received_power(gains, float(setup.uniform(1.0, 30.0)))
        seeds = setup.integers(0, 2**32, n_links)
        sigma2 = float(received.max())  # at most 0 dB per mode: every link errs
        rngs = [np.random.default_rng(s) for s in seeds]
        counts = fd_ber(received, c, sigma2, n_links * TRIALS, rngs, BlockBuffers())
        expected = [
            fd_ber_oracle(received[i], c, sigma2, TRIALS, np.random.default_rng(s))
            for i, s in enumerate(seeds)
        ]
        assert np.array_equal(counts, expected)
        assert counts.all()


class CountingGenerator:
    """A generator that counts its ``integers`` and ``standard_normal`` calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = {"integers": 0, "standard_normal": 0}

    def integers(self, *args, **kwargs):
        self.calls["integers"] += 1
        return self.rng.integers(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.calls["standard_normal"] += 1
        return self.rng.standard_normal(*args, **kwargs)


class TestFdBerDraws:
    """Whatever the constellation, a link draws its symbols in one call and
    both parts of its noise in one more."""

    @pytest.mark.parametrize(
        "kind,order,ring",
        [("psk", 2, None), ("psk", 16, None), ("apsk", 16, 2.6), ("qam", 4, None),
         ("qam", 64, None)],
    )
    @pytest.mark.parametrize("n_links", [1, 17])
    def test_one_symbol_and_one_noise_draw_per_link(self, kind, order, ring, n_links):
        c = build_constellation(kind, order, ring)
        received, seeds = batch_setup(n_links, N_MODES, [order, n_links, 5])
        sigma2 = float(received.max())
        rngs = [CountingGenerator(s) for s in seeds]
        counts = fd_ber(received, c, sigma2, n_links * TRIALS, rngs, BlockBuffers())
        assert [rng.calls for rng in rngs] == [{"integers": 1, "standard_normal": 1}] * n_links
        assert counts.tolist() == oracle_counts(received, c, sigma2, TRIALS, seeds)


class TestSlicedQam:
    """Square QAM is decided from the sent levels and the scaled noise, a
    shortcut that settles a whole piece or none of it; a piece it does not
    settle is formed and detected by ``nearest_point``, as every other
    constellation's is."""

    @pytest.mark.parametrize("order", [4, 16, 64])
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("sigma2", [1e-20, 1e-3, 1.0, 1e3, 1e6, 1e8])
    def test_every_noise_level_matches_the_oracle(self, monkeypatch, order, n_modes, sigma2):
        # From no errors at all to coordinates far beyond the decision's
        # reach, which go to the full search.
        import rsmsim.baseline as baseline

        detected = []
        detect = baseline.nearest_point

        def counting(y, scale, constellation, out=None, work=None):
            detected.append(y.size)
            return detect(y, scale, constellation, out=out, work=work)

        monkeypatch.setattr(baseline, "nearest_point", counting)
        c = build_constellation("qam", order)
        received, seeds = batch_setup(7, n_modes, [order, n_modes])
        rngs = [np.random.default_rng(s) for s in seeds]
        counts = fd_ber(received, c, sigma2, 7 * TRIALS, rngs, BlockBuffers())
        assert counts.tolist() == oracle_counts(received, c, sigma2, TRIALS, seeds)
        if sigma2 == 1e-20:
            assert not counts.any()
        if sigma2 == 1e8:
            # Most coordinates lie beyond the decision's reach: the pieces
            # are formed and detected.
            assert sum(detected) > 7 * TRIALS * n_modes // 2

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_pieces_the_decision_settles_in_part(self, monkeypatch, order):
        # At this noise some coordinates of every piece lie beyond the
        # decision's reach and the rest within it, and the first link of
        # each piece receives its second mode at zero power, where the
        # decision's own index would differ: each piece is formed and
        # detected whole, its proven samples included.
        import rsmsim.baseline as baseline

        kinds = []
        decide = baseline._decide_qam

        def recording(*args):
            exact = decide(*args)
            kinds.append((bool(exact.any()), bool(not exact.all())))
            return exact

        monkeypatch.setattr(baseline, "_decide_qam", recording)
        c = build_constellation("qam", order)
        received, seeds = batch_setup(17, N_MODES, [order, 17, 3])
        sigma2 = 1e7 * float(received.mean())
        received[::8, 1] = 0.0  # pieces of 8, 8 and 1 links
        rngs = [np.random.default_rng(s) for s in seeds]
        with np.errstate(invalid="ignore"):
            counts = fd_ber(received, c, sigma2, 17 * TRIALS, rngs, BlockBuffers())
            expected = oracle_counts(received, c, sigma2, TRIALS, seeds)
        assert kinds == [(True, True)] * 3
        assert counts.tolist() == expected

    @pytest.mark.parametrize("order", [4, 16, 64])
    @pytest.mark.parametrize("sigma2", [1.0, np.inf])
    def test_samples_the_decision_cannot_slice(self, order, sigma2):
        # A mode received at zero power has a scale outside the unit range,
        # and infinite noise leaves no finite coordinate: the search decides
        # every such sample, and the decision's own index would differ.
        c = build_constellation("qam", order)
        received, seeds = batch_setup(5, 2, [order, 5])
        received[1:3, 1] = 0.0
        rngs = [np.random.default_rng(s) for s in seeds]
        with np.errstate(invalid="ignore"):
            counts = fd_ber(received, c, sigma2, 5 * TRIALS, rngs, BlockBuffers())
            expected = oracle_counts(received, c, sigma2, TRIALS, seeds)
        assert counts.tolist() == expected

    @pytest.mark.parametrize("order", [4, 16, 64])
    @pytest.mark.parametrize("sigma2", [1e-20, 1.0, 1e8])
    def test_formed_samples_are_the_bits_of_the_formed_piece(self, monkeypatch, order, sigma2):
        # Without noise the decision settles the piece, which is never
        # formed; in pure noise it settles none of it, and the whole piece
        # is formed and detected.
        captured, formed = detected_and_formed_pieces(
            monkeypatch, build_constellation("qam", order), sigma2
        )
        assert all(got.tobytes() == formed.tobytes() for got in captured)
        if sigma2 == 1e-20:
            assert not captured
        if sigma2 == 1e8:
            assert len(captured) == 1

    def test_formed_psk_samples_are_the_bits_of_the_formed_piece(self, monkeypatch):
        captured, formed = detected_and_formed_pieces(
            monkeypatch, build_constellation("psk", 16), 1e8
        )
        assert len(captured) == 1
        assert captured[0].tobytes() == formed.tobytes()


def detected_and_formed_pieces(monkeypatch, constellation, sigma2):
    """The samples ``fd_ber`` hands to ``nearest_point`` for a piece of 3
    links, modes-major, and that piece formed by the symbol copy, the
    amplitude product and the complex noise draw, trial-major."""
    import rsmsim.baseline as baseline
    from rsmsim.phy import add_complex_noise

    captured = []
    detect = baseline.nearest_point

    def capturing(y, scale, constellation, out=None, work=None):
        captured.append(y.swapaxes(1, 2).copy())
        return detect(y, scale, constellation, out=out, work=work)

    monkeypatch.setattr(baseline, "nearest_point", capturing)
    received, seeds = batch_setup(3, N_MODES, [constellation.order, 7])
    rngs = [np.random.default_rng(s) for s in seeds]
    fd_ber(received, constellation, sigma2, 3 * TRIALS, rngs, BlockBuffers())
    rngs = [np.random.default_rng(s) for s in seeds]
    sent = [rng.integers(0, constellation.order, size=(TRIALS, N_MODES)) for rng in rngs]
    formed = constellation.points.take(np.array(sent))
    formed *= np.sqrt(received)[:, None, :]
    return captured, add_complex_noise(formed, sigma2, rngs)


def oracle_counts(received, constellation, sigma2, trials, seeds):
    return [
        fd_ber_oracle(received[i], constellation, sigma2, trials, np.random.default_rng(s))
        for i, s in enumerate(seeds)
    ]


def batch_setup(n_links, n_modes, key):
    """Received powers of ``n_links`` links and one stream seed per link."""
    setup = np.random.default_rng(key)
    gains = np.sort(setup.uniform(0.2, 3.0, (n_links, n_modes)), axis=1)[:, ::-1]
    received = received_power(gains, float(setup.uniform(1.0, 30.0)))
    return received, setup.integers(0, 2**32, n_links)


class TestFdBerBuffers:
    """Batches that reuse one buffer set count, link for link, what the
    per-link oracle counts."""

    def run_batch(self, received, constellation, sigma2, seeds, buffers):
        rngs = [np.random.default_rng(s) for s in seeds]
        return fd_ber(received, constellation, sigma2, len(seeds) * TRIALS, rngs, buffers).tolist()

    def test_short_last_piece(self):
        # 19 links of 1000 x 2 symbols: pieces of 8, 8 and 3 links.
        from rsmsim.baseline import _PIECE_SYMBOLS
        from rsmsim.buffers import BlockBuffers

        assert _PIECE_SYMBOLS // (TRIALS * N_MODES) == 8
        c = build_constellation("qam", 16)
        buffers = BlockBuffers()
        for key in range(2):
            received, seeds = batch_setup(19, N_MODES, [19, key])
            got = self.run_batch(received, c, 1.0, seeds, buffers)
            assert got == oracle_counts(received, c, 1.0, TRIALS, seeds)
        assert len(buffers.arrays["y"]) == 8  # one full piece's arrays, reused

    def test_shapes_alternating_on_one_thread(self):
        # 16-QAM on 2 modes and 64-QAM on 3 modes take turns on one set:
        # each grows, or takes the leading part of, what the other left.
        from rsmsim.buffers import BlockBuffers

        cases = [
            (build_constellation("qam", 16), *batch_setup(11, 2, [16, 2])),
            (build_constellation("qam", 64), *batch_setup(9, 3, [64, 3])),
        ]
        buffers = BlockBuffers()
        for c, received, seeds in cases * 2:
            sigma2 = float(received.max())  # at most 0 dB per mode: every link errs
            got = self.run_batch(received, c, sigma2, seeds, buffers)
            assert got == oracle_counts(received, c, sigma2, TRIALS, seeds)
            assert all(got)

    def test_threads_at_once(self):
        # Two threads share one set, switching often: each must count on
        # arrays of its own.
        import sys
        import threading

        from rsmsim.buffers import BlockBuffers

        c = build_constellation("qam", 16)
        jobs = [batch_setup(10, N_MODES, [2, k]) for k in range(4)]
        expected = [oracle_counts(received, c, 0.5, TRIALS, seeds) for received, seeds in jobs]
        buffers = BlockBuffers()
        results = [[] for _ in jobs]
        start = threading.Barrier(2, timeout=60)

        def worker(mine):
            start.wait()
            for _ in range(3):
                for k in mine:
                    received, seeds = jobs[k]
                    results[k].append(self.run_batch(received, c, 0.5, seeds, buffers))

        threads = [threading.Thread(target=worker, args=(range(k, 4, 2),)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[counts] * 3 for counts in expected]
