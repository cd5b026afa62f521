"""Tests for the Monte Carlo engine."""

import dataclasses
import logging
import math
import re
import resource
import threading
from pathlib import Path

import numpy as np
import pytest

from rsmsim.buffers import BlockBuffers
from rsmsim.channel import ChannelParams
from rsmsim.phy import build_constellation
from rsmsim.simulate import (
    ErrorReport,
    FdConfig,
    PointAborted,
    RsmConfig,
    SnrPoint,
    interpolate_snr_at,
    run,
    run_fd,
)
from oracles import reference_block

PARAMS = ChannelParams(n_tx=32, n_rx=8)


def small_config(**overrides):
    base = dict(
        channel=PARAMS,
        n_active=4,
        snr_grid_db=(6.0, 10.0),
        constellation_kind="psk",
        constellation_order=16,
        threshold_mode="hsa",
        threshold_source="perfect",
        trials_per_point=100,
        channels_per_point=20,
        seed=42,
    )
    base.update(overrides)
    return RsmConfig(**base)


def block_streams(config, snr_idx, links):
    """The streams ``_sweep_and_reduce`` hands ``_run_block`` for ``links``:
    one generator list per purpose tag of the config's blocks."""
    from rsmsim.simulate import _TAG_DATA, _TAG_PILOT, _stream_seeds, _streams

    tags = (_TAG_PILOT, _TAG_DATA) if config.threshold_source == "estimated" else (_TAG_DATA,)
    return {tag: _streams(_stream_seeds((config.seed, tag, snr_idx), links)) for tag in tags}


class TestDeterminism:
    def test_identical_reports_for_identical_config(self):
        a = run(small_config())
        b = run(small_config())
        assert a == b

    def test_thread_count_does_not_change_results(self):
        sequential = run(small_config(), n_threads=1)
        threaded = run(small_config(), n_threads=8)
        assert sequential == threaded

    def test_seed_changes_results(self):
        a = run(small_config())
        b = run(small_config(seed=43))
        assert a != b


class TestErrorCounting:
    def test_noise_free_regime_is_error_free(self):
        report = run(small_config(snr_grid_db=(60.0,), trials_per_point=200))
        point = report.points[0]
        assert point.ber_total == 0.0
        assert point.ber_spatial == 0.0
        assert point.ber_modulation == 0.0

    def test_bit_accounting(self):
        report = run(small_config())
        for point in report.points:
            assert point.bits_counted == 100 * 20 * 8
            assert 0.0 <= point.ber_total <= 1.0
            total = (point.ber_spatial * 4 + point.ber_modulation * 4) / 8
            assert point.ber_total == pytest.approx(total, abs=1e-12)

    def test_monotone_in_snr(self):
        report = run(small_config(snr_grid_db=(2.0, 6.0, 10.0, 14.0)))
        bers = [p.ber_total for p in report.points]
        assert all(a >= b for a, b in zip(bers, bers[1:]))

    @pytest.mark.parametrize(
        "config_path,golden_name,grid",
        [
            ("presets/fig3.cfg", "fig3_ber", (0.0, 2.0)),
            ("bench/configs/mc_estimated.cfg", "mc_estimated", (6.0,)),
        ],
        ids=["fig3", "mc_estimated"],
    )
    def test_rsm_benchmark_prefix_matches_golden(self, config_path, golden_name, grid):
        # Links and block streams are keyed by index, so a prefix of the
        # grid reproduces the Monte Carlo columns of the committed rows.
        from rsmsim.cli import _fmt, load_config

        root = Path(__file__).resolve().parent.parent
        config = load_config(root / config_path)
        assert config.seed == 1
        config = dataclasses.replace(config, snr_grid_db=grid)
        lines = (root / "bench" / "golden" / f"{golden_name}.csv").read_text().splitlines()
        header = lines[0].split(",")
        points = run(config).points
        assert len(points) == len(grid)
        for point, line in zip(points, lines[1:]):
            golden = dict(zip(header, line.split(",")))
            assert float(golden["snr_db"]) == point.snr_db
            assert _fmt(point.ber_total) == golden["ber_total"]
            assert _fmt(point.ber_spatial) == golden["ber_spatial"]
            assert _fmt(point.ber_modulation) == golden["ber_mod"]


class TestAnalyticCrossOracle:
    def test_simulated_abep_matches_analysis_at_high_snr(self):
        # Exact threshold, perfect knowledge: the closed forms and the
        # simulation describe the same chain once the combining SNR is
        # high enough for the receiver-side reference approximation.
        report = run(
            small_config(
                threshold_mode="exact",
                snr_grid_db=(10.0, 12.0, 14.0, 16.0, 18.0),
                trials_per_point=400,
                channels_per_point=60,
            ),
            n_threads=4,
        )
        for point in report.points:
            band = 3.0 / 1.96 * point.ci_halfwidth_95
            assert abs(point.ber_total - point.abep_analytic) <= band + 1e-12

    def test_estimated_column_dominates_perfect(self):
        report = run(small_config(snr_grid_db=(4.0, 8.0, 12.0)))
        for point in report.points:
            assert point.abep_analytic_estimated >= point.abep_analytic - 1e-9


class TestConfidenceIntervals:
    def test_ci_honesty_at_high_snr(self):
        # Where the analysis and the simulated chain describe the same
        # model (PSK, perfect threshold, high combining SNR), the
        # analytic value must land inside the 95% CI at least 90% of
        # the time over repeated seeds.
        hits = total = 0
        for seed in range(15):
            report = run(
                small_config(
                    seed=100 + seed,
                    snr_grid_db=(14.0, 16.0),
                    trials_per_point=200,
                    channels_per_point=30,
                ),
                n_threads=4,
            )
            for point in report.points:
                total += 1
                hits += abs(point.ber_total - point.abep_analytic) <= point.ci_halfwidth_95
        assert hits / total >= 0.9


class TestAnalyticOnlyPath:
    def test_runs_fast_without_sampling(self):
        import time

        from rsmsim.simulate import analytic_curves

        config = small_config(
            snr_grid_db=tuple(float(s) for s in range(20)),
            trials_per_point=1,
            channels_per_point=40,
        )
        start = time.monotonic()
        rows = analytic_curves(config)
        elapsed = time.monotonic() - start
        assert len(rows) == 20
        assert elapsed < 5.0

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("system", ["rsm", "fd_svd"])
    def test_rows_are_the_analytic_columns_of_run(self, system, n_threads):
        from rsmsim.simulate import analytic_curves, analytic_curves_fd

        if system == "rsm":
            # Some links at -10 dB are left out of the estimated column.
            config = small_config(snr_grid_db=(-10.0, 4.0, 10.0), trials_per_point=10)
            rows, report = analytic_curves(config), run(config, n_threads=n_threads)
        else:
            config = FdConfig(
                channel=PARAMS, snr_grid_db=(-4.0, 4.0), trials_per_point=50, channels_per_point=9
            )
            rows, report = analytic_curves_fd(config), run_fd(config, n_threads=n_threads)
        columns = [(p.snr_db, p.abep_analytic, p.abep_analytic_estimated) for p in report.points]
        # float.hex compares bit for bit, and a NaN equal to a NaN.
        assert [tuple(map(float.hex, row)) for row in rows] == [
            tuple(map(float.hex, row)) for row in columns
        ]


def build_constellation_of(config):
    return build_constellation(
        config.constellation_kind, config.constellation_order, config.ring_ratio
    )


def excluded_links(config):
    """Links per SNR point whose pilot-threshold Fisher matrix is singular."""
    from rsmsim.simulate import _build_ensemble
    from rsmsim.training import SingularFisher, threshold_estimate_stats

    ensemble = _build_ensemble(config, build_constellation_of(config))
    counts = []
    for snr_db in config.snr_grid_db:
        singular = 0
        for alpha in ensemble.alpha.tolist():
            alpha_p = alpha * 10.0 ** (snr_db / 10.0)
            try:
                threshold_estimate_stats(alpha_p, 1.0, config.n_pilots * config.n_active)
            except SingularFisher:
                singular += 1
        counts.append(singular)
    return counts


def assert_analytic_columns_match(config_path, golden_name, snr_grid_db):
    """analytic_curves at seed 1 against ``bench/golden/<golden_name>``, rtol 1e-9."""
    from rsmsim.cli import load_config
    from rsmsim.simulate import analytic_curves

    root = Path(__file__).resolve().parent.parent
    config = load_config(root / config_path)
    assert config.seed == 1
    config = dataclasses.replace(config, snr_grid_db=snr_grid_db)
    lines = (root / "bench" / "golden" / golden_name).read_text().splitlines()
    header = lines[0].split(",")
    golden = {}
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        golden[row["snr_db"]] = (row["abep_analytic"], row["abep_estimated"])
    for snr_db, perfect, estimated in analytic_curves(config):
        assert perfect == pytest.approx(golden[snr_db][0], rel=1e-9, abs=0.0)
        assert estimated == pytest.approx(golden[snr_db][1], rel=1e-9, abs=0.0)


class TestAnalyticColumns:
    # The link ensemble does not depend on the grid, so a few points of a
    # config reproduce the analytic columns of its committed benchmark CSV.

    def test_fig3_matches_benchmark_golden(self):
        assert_analytic_columns_match("presets/fig3.cfg", "fig3_ber.csv", (0.0, 10.0, 20.0))

    def test_mc_estimated_matches_benchmark_golden(self):
        assert_analytic_columns_match(
            "bench/configs/mc_estimated.cfg", "mc_estimated.csv", (6.0, 12.0, 20.0)
        )
    def test_singular_fisher_links_are_counted_in_log(self, caplog):
        config = small_config(snr_grid_db=(-10.0, 10.0), trials_per_point=10)
        expected = excluded_links(config)
        assert 0 < expected[0] < 20 and expected[1] == 0
        with caplog.at_level(logging.INFO, logger="rsmsim.simulate"):
            run(config)
        lines = [r.getMessage() for r in caplog.records if r.name == "rsmsim.simulate"]
        assert len(lines) == 2
        for line, singular in zip(lines, expected):
            assert f"with {singular} of 20 links excluded: singular Fisher" in line


def without_elapsed(lines):
    """Per-SNR log lines without their wall-clock suffix (the seconds
    elapsed and the estimate of those left), which no run repeats."""
    return [re.sub(r", [\d.]+ s elapsed, about [\d.]+ s left$", "", line) for line in lines]


class TestThreadCountInvariance:
    """Blocks and analytic columns share one pool; nothing may depend on it."""

    THREADS = (1, 2, 3)

    def test_reports_and_log_lines(self, caplog):
        config = small_config(threshold_source="estimated", snr_grid_db=(-4.0, 4.0, 8.0))
        expected = excluded_links(config)
        assert expected[0] > 0
        reports, logs = [], []
        for n_threads in self.THREADS:
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="rsmsim.simulate"):
                reports.append(run(config, n_threads=n_threads))
            logs.append([r.getMessage() for r in caplog.records if r.name == "rsmsim.simulate"])
        for point in reports[0].points:
            # NaN would make the report comparison below fail for any thread count.
            assert not any(math.isnan(v) for v in dataclasses.astuple(point))
        assert reports[1] == reports[0] and reports[2] == reports[0]
        logs = [without_elapsed(lines) for lines in logs]
        assert logs[1] == logs[0] and logs[2] == logs[0]
        assert [line.split(" dB")[0] for line in logs[0]] == ["snr=-4", "snr=4", "snr=8"]
        for line, singular in zip(logs[0], expected):
            assert f"with {singular} of 20 links excluded: singular Fisher" in line

    def test_batches_of_several_channels_with_a_short_last_batch(self):
        from rsmsim.simulate import _batch_links

        config = small_config(
            threshold_mode="exact",
            snr_grid_db=(2.0, 8.0),
            trials_per_point=2000,
            channels_per_point=20,
        )
        per_batch = _batch_links(config.trials_per_point, config.n_active)
        assert 1 < per_batch < 20 and 20 % per_batch
        reports = [run(config, n_threads=n) for n in self.THREADS]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_abort_at_the_same_point(self, caplog):
        # 8 clusters instead of the benchmark's 16: at this seed a weak link
        # degenerates its 4-pilot estimate at 10 dB, the third grid point.
        from rsmsim.cli import load_config

        root = Path(__file__).resolve().parent.parent
        config = load_config(root / "bench" / "configs" / "mc_estimated.cfg")
        config = dataclasses.replace(
            config,
            channel=dataclasses.replace(config.channel, n_clusters=8),
            seed=29,
            trials_per_point=100,
        )
        logs = []
        for n_threads in self.THREADS:
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="rsmsim.simulate"):
                with pytest.raises(PointAborted) as aborted:
                    run(config, n_threads=n_threads)
            assert aborted.value.snr_db == 10.0
            logs.append([r.getMessage() for r in caplog.records if r.name == "rsmsim.simulate"])
        logs = [without_elapsed(lines) for lines in logs]
        assert [line.split(" dB")[0] for line in logs[0]] == ["snr=6", "snr=8"]
        assert logs[1] == logs[0] and logs[2] == logs[0]


def batched_counts(config):
    """Per-channel (spatial, modulation, failed) rows of every batch, per SNR point."""
    from rsmsim import simulate

    constellation = build_constellation_of(config)
    ensemble = simulate._build_ensemble(config, constellation)
    n_links = config.channels_per_point
    per_batch = simulate._batch_links(config.trials_per_point, config.n_active)
    buffers = BlockBuffers()
    points = []
    for snr_idx in range(len(config.snr_grid_db)):
        rows, words = [], 0
        for first in range(0, n_links, per_batch):
            links = range(first, min(first + per_batch, n_links))
            streams = block_streams(config, snr_idx, links)
            counts = simulate._run_block(
                config, constellation, ensemble, snr_idx, links, streams, buffers
            )
            rows += zip(
                counts.spatial_errors.tolist(),
                counts.modulation_errors.tolist(),
                counts.failed.tolist(),
            )
            words += counts.words
        points.append((rows, words))
    return constellation, per_batch, points


class TestPointCounts:
    def test_each_point_keeps_its_failed_words_and_excluded_links(self):
        # At 2 dB one of 200 one-pilot estimates degenerates, 20 of 4000
        # words and within the error budget; at 6 dB none does.
        config = small_config(
            threshold_source="estimated",
            snr_grid_db=(2.0, 6.0),
            trials_per_point=20,
            channels_per_point=200,
        )
        points = run(config).points
        assert [p.failed_words for p in points] == [20, 0]
        assert [p.bits_counted for p in points] == [(4000 - 20) * 8, 4000 * 8]
        assert [p.excluded_links for p in points] == [2, 0]
        fd = run_fd(FdConfig(channel=PARAMS, snr_grid_db=(0.0,), channels_per_point=5))
        assert (fd.points[0].excluded_links, fd.points[0].failed_words) == (None, 0)


class TestChannelEnsemble:
    def test_run_and_run_fd_draw_the_same_channels(self, monkeypatch):
        # The RSM-to-baseline comparison pairs the two systems on one ensemble.
        import rsmsim.simulate as simulate

        drawn = []
        real = simulate.draw_channel

        def recording(*args, **kwargs):
            matrices = real(*args, **kwargs)
            drawn.extend(matrices)  # one entry per link
            return matrices

        monkeypatch.setattr(simulate, "draw_channel", recording)
        config = small_config(snr_grid_db=(6.0,), trials_per_point=10, channels_per_point=6)
        run(config)
        rsm = list(drawn)
        drawn.clear()
        run_fd(
            FdConfig(
                channel=config.channel,
                snr_grid_db=config.snr_grid_db,
                trials_per_point=10,
                channels_per_point=6,
                seed=config.seed,
            )
        )
        assert len(rsm) == len(drawn) == 6
        for h_rsm, h_fd in zip(rsm, drawn):
            assert np.array_equal(h_rsm, h_fd)
        assert not np.array_equal(rsm[0], rsm[1])


class TestStreamKeys:
    """Every (seed, tag, ...) stream is ``default_rng([seed, tag, ..., ch])``."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("index", [(), (0,), (7,), (2**32 - 1,), (2**40 + 7, 3)])
    def test_same_streams_as_the_list_form(self, seed, index):
        from rsmsim.simulate import _stream_seeds, _streams

        links = [0, 1, 5, 2**31 + 9, 2**32 - 1]
        seeds = _stream_seeds((seed, 3, *index), links)
        assert seeds.shape == (len(links), 4) and seeds.dtype == np.uint64
        for row, ch in zip(seeds, links):
            want = np.random.SeedSequence([seed, 3, *index, ch]).generate_state(4, np.uint64)
            assert np.array_equal(row, want)
        for rng, ch in zip(_streams(seeds), links):
            want = np.random.default_rng([seed, 3, *index, ch])
            assert np.array_equal(rng.integers(0, 2**63, 4), want.integers(0, 2**63, 4))
            assert np.array_equal(rng.standard_normal(3), want.standard_normal(3))

    @pytest.mark.parametrize("n_words", range(1, 10))
    def test_hash_matches_seed_sequence_for_any_key_length(self, n_words):
        # Keys shorter than, equal to and longer than the four-word pool.
        from rsmsim.simulate import _stream_seeds

        setup = np.random.default_rng(n_words)
        for _ in range(20):
            key = tuple(int(w) for w in setup.integers(0, 2**32, n_words - 1))
            links = setup.integers(0, 2**32, 3)
            for row, ch in zip(_stream_seeds(key, links), links):
                want = np.random.SeedSequence([*key, int(ch)]).generate_state(4, np.uint64)
                assert np.array_equal(row, want)

    def test_seed_sequence_itself_outside_the_uint32_keys(self):
        from rsmsim.simulate import _seed_type, _stream_seeds

        for ch in (2**32, 2**45 + 1):
            with pytest.raises(ValueError):
                _stream_seeds((1, 4, 2), [ch])
        assert _stream_seeds((1, 4), range(0)).shape == (0, 4)
        with pytest.raises(ValueError):  # as default_rng([-1, 4, ch]) raises
            _stream_seeds((-1, 4), range(2))
        with pytest.raises(ValueError):
            _seed_type()(_stream_seeds((1, 4), [0])[0]).generate_state(8, np.uint32)


class TestSeedHashCount:
    """Each SNR point's stream seeds are hashed in one ``_stream_seeds`` call
    per purpose tag, for all of its channels, whatever the batches and the
    thread count; a sweep with no Monte Carlo task hashes none."""

    @staticmethod
    def monte_carlo_keys(monkeypatch):
        """The (tag, snr index) of every ``_stream_seeds`` call but the
        channel draw's, as the run makes them."""
        import rsmsim.simulate as simulate

        keys = []
        real = simulate._stream_seeds

        def counting(key, links):
            if key[1] != simulate._TAG_CHANNEL:
                keys.append(key[1:])
            return real(key, links)

        monkeypatch.setattr(simulate, "_stream_seeds", counting)
        return keys

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_run_fd_hashes_once_per_point(self, monkeypatch, n_threads):
        from rsmsim.simulate import _TAG_FD, _batch_links

        keys = self.monte_carlo_keys(monkeypatch)
        config = FdConfig(
            channel=PARAMS,
            snr_grid_db=tuple(range(-8, 9, 2)),
            trials_per_point=1000,
            channels_per_point=40,
        )
        assert _batch_links(1000, config.n_modes) < 40  # two batches per point
        run_fd(config, n_threads=n_threads)
        assert len(keys) == 9
        assert sorted(keys) == [(_TAG_FD, s) for s in range(9)]

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("source", ["perfect", "estimated"])
    def test_run_hashes_once_per_point_and_tag(self, monkeypatch, n_threads, source):
        from rsmsim.simulate import _TAG_DATA, _TAG_PILOT, _batch_links

        keys = self.monte_carlo_keys(monkeypatch)
        config = small_config(threshold_source=source, trials_per_point=2000)
        assert _batch_links(2000, config.n_active) < 20  # three batches per point
        run(config, n_threads=n_threads)
        tags = (_TAG_DATA, _TAG_PILOT) if source == "estimated" else (_TAG_DATA,)
        assert sorted(keys) == sorted((tag, s) for tag in tags for s in range(2))

    def test_abep_hashes_none(self, monkeypatch):
        from rsmsim.simulate import analytic_curves, analytic_curves_fd

        keys = self.monte_carlo_keys(monkeypatch)
        analytic_curves(small_config(threshold_source="estimated"))
        analytic_curves_fd(FdConfig(channel=PARAMS, snr_grid_db=(0.0, 4.0), channels_per_point=5))
        assert keys == []


class TestZeroForcingIdentity:
    """The blocks send through the identity that ZF makes of each link's
    effective channel ``H_a @ B``; on the preset ensembles it is the
    identity to far below the noise (at most 1.2e-12 measured). The
    selection's rcond floor is the only check that ZF is sound, and a run
    forms no precoder."""

    @pytest.mark.parametrize(
        "config_path",
        ["presets/fig3.cfg", "presets/fig2_noselection.cfg", "bench/configs/mc_estimated.cfg"],
        ids=["fig3", "fig2_noselection", "mc_estimated"],
    )
    def test_effective_channel_is_the_identity(self, config_path):
        from rsmsim.cli import load_config
        from oracles import zf_links

        config = load_config(Path(__file__).resolve().parent.parent / config_path)
        links = zf_links(config)
        assert len(links) == config.channels_per_point
        eye = np.eye(config.n_active)
        worst = max(float(np.abs(h_active @ b - eye).max()) for _, h_active, b in links)
        assert worst < 1e-10

    @pytest.mark.parametrize("selection", ["exhaustive", "all_antennas"])
    def test_a_run_forms_no_precoder(self, selection, monkeypatch):
        from rsmsim import mimo, simulate

        config = small_config(selection=selection)
        expected = run(config)

        def refuse(selection):
            raise AssertionError("a run formed a ZF precoder")

        monkeypatch.setattr(simulate, "zf_precoder", refuse)
        monkeypatch.setattr(mimo, "zf_precoder", refuse)
        assert run(config) == expected

    SEED_42 = RsmConfig(
        channel=ChannelParams(n_tx=32, n_rx=8),
        n_active=8,
        snr_grid_db=(4, 10),
        trials_per_point=100,
        channels_per_point=20,
        seed=42,
    )

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_a_link_below_the_rcond_floor_is_singular(self, n_threads):
        # Link 1's only subset, all 8 antennas, has rcond 1.847e-12: the floor
        # rejects it, where ZF would leave |H_a B - I| at 9.9e-6.
        from rsmsim.mimo import SingularChannel

        with pytest.raises(SingularChannel, match=r"numerically singular.*rcond=1\.847e-12"):
            run(self.SEED_42, n_threads=n_threads)

    def test_the_command_line_exits_3_below_the_rcond_floor(self, tmp_path, capsys):
        from rsmsim.cli import load_config, main

        config = tmp_path / "seed42.cfg"
        config.write_text(
            "n_tx = 32\nn_rx = 8\nn_active = 8\nsnr_db = 4,10\n"
            "trials_per_point = 100\nchannels_per_point = 20\nseed = 42\n"
        )
        assert load_config(config) == self.SEED_42
        assert main(["ber", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert "numerically singular" in err and "rcond=1.847e-12" in err


class TestBatchedBlock:
    """A batch of channels counts, channel for channel, what the per-channel
    block counted."""

    # 2000 words x 4 antennas: 8 channels per batch, the last batch of 20 short.
    SIZES = dict(trials_per_point=2000, channels_per_point=20)

    @pytest.mark.parametrize("mode", ["exact", "hsa"])
    def test_perfect_threshold_matches_per_channel_oracle(self, mode):
        config = small_config(threshold_mode=mode, snr_grid_db=(4.0, 10.0), **self.SIZES)
        constellation, per_batch, points = batched_counts(config)
        assert 1 < per_batch < 20 and 20 % per_batch
        for snr_idx, (rows, words) in enumerate(points):
            expected = [
                reference_block(config, constellation, snr_idx, ch) for ch in range(20)
            ]
            assert rows == expected
            assert words == 20 * 2000
        assert any(spatial for spatial, _, _ in points[0][0])

    @pytest.mark.parametrize(
        "n_active,kind", [(1, "psk"), (2, "psk"), (3, "psk"), (5, "psk"), (8, "psk"), (4, "qam")]
    )
    def test_other_antenna_counts_match_per_channel_oracle(self, n_active, kind):
        # Every preset has 4 active antennas; these reach the other branches
        # of the column-wise combiner. Six channels per batch, the last short;
        # 16 clusters keep all 8 antennas of a channel well conditioned.
        from rsmsim.simulate import _BATCH_SYMBOLS

        config = small_config(
            channel=dataclasses.replace(PARAMS, n_clusters=16),
            n_active=n_active,
            constellation_kind=kind,
            snr_grid_db=(4.0, 10.0),
            trials_per_point=_BATCH_SYMBOLS // (6 * n_active),
            channels_per_point=20,
        )
        constellation, per_batch, points = batched_counts(config)
        assert per_batch == 6
        for snr_idx, (rows, _) in enumerate(points):
            expected = [
                reference_block(config, constellation, snr_idx, ch) for ch in range(20)
            ]
            assert rows == expected
        assert any(modulation for _, modulation, _ in points[0][0])

    @pytest.mark.parametrize(
        "n_active,kind,order,trials",
        [(6, "psk", 2, 500), (7, "psk", 2, 500), (6, "psk", 16, 2000), (6, "apsk", 16, 2000)],
    )
    def test_table_path_with_many_antennas_matches_per_channel_oracle(
        self, n_active, kind, order, trials
    ):
        # More words per link than the (2^n_active - 1) * order distinct
        # rows; the scratch must hold the detected flags beside the
        # envelopes, 9 bytes per antenna and word, which is more than the
        # combiner's arrays here.
        config = small_config(
            channel=dataclasses.replace(PARAMS, n_clusters=16),
            n_active=n_active,
            constellation_kind=kind,
            constellation_order=order,
            ring_ratio=2.0 if kind == "apsk" else None,
            snr_grid_db=(4.0, 10.0),
            trials_per_point=trials,
            channels_per_point=6,
        )
        assert ((1 << n_active) - 1) * order <= trials
        constellation, _, points = batched_counts(config)
        for snr_idx, (rows, _) in enumerate(points):
            expected = [
                reference_block(config, constellation, snr_idx, ch) for ch in range(6)
            ]
            assert rows == expected
        assert any(modulation for _, modulation, _ in points[0][0])

    def test_degenerate_pilot_fails_only_its_channel(self):
        # At -6 dB only channel 5's one-pilot estimate degenerates; it sits
        # inside the first batch (channels 0-7).
        config = small_config(threshold_source="estimated", snr_grid_db=(-6.0, 6.0), **self.SIZES)
        constellation, per_batch, points = batched_counts(config)
        assert per_batch == 8
        for snr_idx, (rows, words) in enumerate(points):
            expected = [
                reference_block(config, constellation, snr_idx, ch) for ch in range(20)
            ]
            assert rows == expected
            failed = [ch for ch, (_, _, lost) in enumerate(rows) if lost]
            assert failed == ([5] if snr_idx == 0 else [])
            assert words == (20 - len(failed)) * 2000
        assert points[0][0][5] == (0, 0, 2000)
        # Its neighbours in the batch still ran and made errors.
        assert all(spatial for spatial, _, _ in points[0][0][:5] + points[0][0][6:8])


class TestBlockBuffers:
    """Blocks that reuse one set of worker arrays count, channel for
    channel, what the per-channel oracle counts."""

    def oracle_rows(self, config, constellation, snr_idx, links):
        return [
            reference_block(config, constellation, snr_idx, ch) for ch in links
        ]

    def block_rows(self, config, constellation, ensemble, snr_idx, links, buffers):
        from rsmsim.simulate import _run_block

        streams = block_streams(config, snr_idx, links)
        counts = _run_block(config, constellation, ensemble, snr_idx, links, streams, buffers)
        return list(
            zip(
                counts.spatial_errors.tolist(),
                counts.modulation_errors.tolist(),
                counts.failed.tolist(),
            )
        )

    def test_shapes_alternating_on_one_thread(self):
        # Batches of 8, 3, 5 and 8 links take turns on one set of arrays; at
        # -6 dB channel 5's one-pilot estimate fails, so the 5-link batch
        # simulates 4 links.
        from rsmsim.buffers import BlockBuffers
        from rsmsim.simulate import _build_ensemble

        config = small_config(
            threshold_source="estimated", snr_grid_db=(-6.0, 6.0), trials_per_point=300
        )
        constellation = build_constellation_of(config)
        ensemble = _build_ensemble(config, constellation)
        buffers = BlockBuffers()
        batches = [(1, range(0, 8)), (0, range(8, 11)), (0, range(3, 8)), (1, range(12, 20))]
        for snr_idx, links in batches * 2:
            got = self.block_rows(config, constellation, ensemble, snr_idx, links, buffers)
            assert got == self.oracle_rows(config, constellation, snr_idx, links)
        failed = self.block_rows(config, constellation, ensemble, 0, range(3, 8), buffers)
        assert [lost for _, _, lost in failed] == [0, 0, 300, 0, 0]
        assert len(buffers.arrays["y"]) == 8  # the 8-link batch's arrays, reused

    def test_threads_at_once(self):
        # Four threads, more than the cores, switching often: each must
        # count on arrays of its own.
        import sys

        from rsmsim.buffers import BlockBuffers
        from rsmsim.simulate import _build_ensemble

        config = small_config(snr_grid_db=(4.0, 10.0), trials_per_point=500)
        constellation = build_constellation_of(config)
        ensemble = _build_ensemble(config, constellation)
        buffers = BlockBuffers()
        jobs = [(s, range(first, first + 5)) for s in (0, 1) for first in (0, 5, 10, 15)]
        results = {}
        start = threading.Barrier(4, timeout=60)

        def worker(mine):
            start.wait()
            for _ in range(3):
                for snr_idx, links in mine:
                    rows = self.block_rows(config, constellation, ensemble, snr_idx, links, buffers)
                    results.setdefault((snr_idx, links.start), []).append(rows)

        threads = [threading.Thread(target=worker, args=(jobs[k::4],)) for k in range(4)]
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
        assert len(results) == len(jobs)
        for snr_idx, links in jobs:
            expected = self.oracle_rows(config, constellation, snr_idx, links)
            assert results[snr_idx, links.start] == [expected] * 3

    @pytest.mark.parametrize("n_active,kind", [(1, "psk"), (8, "psk"), (1, "qam")])
    def test_other_antenna_counts_on_reused_arrays(self, n_active, kind):
        # The block's scratch is sized per word for its detection tail: 44
        # bytes at one antenna of 16-PSK, 61 of 16-QAM, 97 at eight. Each
        # shape runs twice on one set, the second time on arrays the first
        # left.
        from rsmsim.buffers import BlockBuffers
        from rsmsim.simulate import _build_ensemble

        config = small_config(
            channel=dataclasses.replace(PARAMS, n_clusters=16),
            n_active=n_active,
            constellation_kind=kind,
            snr_grid_db=(4.0, 10.0),
            trials_per_point=400,
        )
        constellation = build_constellation_of(config)
        ensemble = _build_ensemble(config, constellation)
        buffers = BlockBuffers()
        for snr_idx, links in [(0, range(0, 6)), (1, range(6, 12)), (1, range(12, 15))]:
            got = self.block_rows(config, constellation, ensemble, snr_idx, links, buffers)
            assert got == self.oracle_rows(config, constellation, snr_idx, links)
        assert len(buffers.arrays["y"]) == 6

    def test_second_block_allocates_little(self):
        # A 50,000-trial link, as in the mc_estimated benchmark: the first
        # block allocates the worker's arrays (about 6.6 MB), a second one
        # only its two integer draws (0.4 MB) and arrays of its link count.
        # Allocating every array afresh took 9.6 MB; reusing only the
        # block's named arrays left 3.3 MB of temporaries.
        import tracemalloc

        from rsmsim.buffers import BlockBuffers
        from rsmsim.simulate import _build_ensemble, _run_block

        config = small_config(trials_per_point=50_000, channels_per_point=2, snr_grid_db=(8.0,))
        constellation = build_constellation_of(config)
        ensemble = _build_ensemble(config, constellation)
        buffers = BlockBuffers()
        first, second = (block_streams(config, 0, range(ch, ch + 1)) for ch in (0, 1))
        _run_block(config, constellation, ensemble, 0, range(0, 1), first, buffers)
        tracemalloc.start()
        try:
            _run_block(config, constellation, ensemble, 0, range(1, 2), second, buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_second_apsk_block_allocates_little(self):
        # 16-APSK is detected by the full search, which now runs over
        # bounded chunks of samples: a (words, order) distance table took
        # 7.9 MiB of a second 16,000-word block.
        import tracemalloc

        from rsmsim.buffers import BlockBuffers
        from rsmsim.simulate import _build_ensemble, _run_block

        config = small_config(
            constellation_kind="apsk",
            ring_ratio=2.6,
            trials_per_point=16_000,
            channels_per_point=2,
            snr_grid_db=(8.0,),
        )
        constellation = build_constellation_of(config)
        ensemble = _build_ensemble(config, constellation)
        buffers = BlockBuffers()
        first, second = (block_streams(config, 0, range(ch, ch + 1)) for ch in (0, 1))
        _run_block(config, constellation, ensemble, 0, range(0, 1), first, buffers)
        tracemalloc.start()
        try:
            counts = _run_block(config, constellation, ensemble, 0, range(1, 2), second, buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        expected = reference_block(config, constellation, 0, 1)
        assert (counts.spatial_errors[0], counts.modulation_errors[0], counts.failed[0]) == expected

    def test_second_fd_batch_allocates_little(self):
        # A batch of the fd_baseline benchmark, 32 links of 1000 words on 2
        # modes of 16-QAM in pieces of 8 links: past the first batch, a
        # batch allocates no array of a piece's size. Allocating them per
        # piece took about 1 MB.
        import tracemalloc

        from rsmsim.baseline import fd_ber
        from rsmsim.buffers import BlockBuffers
        from rsmsim.simulate import _batch_links

        n_links, trials = _batch_links(1000, 2), 1000
        assert n_links == 32
        constellation = build_constellation("qam", 16)
        received = np.random.default_rng(5).uniform(0.5, 8.0, (n_links, 2))
        buffers = BlockBuffers()

        def batch(key):
            rngs = [np.random.default_rng([key, ch]) for ch in range(n_links)]
            return lambda: fd_ber(received, constellation, 1.0, n_links * trials, rngs, buffers)

        batch(0)()
        second = batch(1)
        tracemalloc.start()
        try:
            second()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10


TIMING_LINE = re.compile(
    r"(run|run_fd|analytic_curves|analytic_curves_fd): (\d+) thread\(s\); "
    r"link build ([\d.]+) s, sweep ([\d.]+) s "
    r"\(summed over tasks: blocks ([\d.]+) s, analytic columns ([\d.]+) s\); "
    r"peak RSS ([\d.]+) MB, (\d+) minor page faults"
)


class TestTimingLog:
    def timing_lines(self, caplog, fn, *args, **kwargs):
        with caplog.at_level(logging.INFO, logger="rsmsim.simulate"):
            fn(*args, **kwargs)
        return [r.getMessage() for r in caplog.records if r.name == "rsmsim.simulate.timing"]

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_run_logs_one_line(self, caplog, n_threads):
        lines = self.timing_lines(caplog, run, small_config(), n_threads=n_threads)
        assert len(lines) == 1
        match = TIMING_LINE.fullmatch(lines[0])
        assert match and match[1] == "run" and int(match[2]) == n_threads
        link_s, sweep_s, blocks_s, analytic_s, peak_mb = map(float, match.groups()[2:7])
        assert blocks_s > 0 and link_s >= 0 and analytic_s >= 0
        # The peak so far of this process, which has imported numpy.
        assert 10 < peak_mb <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + 0.05
        assert int(match[8]) >= 0
        if n_threads == 1:
            # One thread runs every task inside the sweep.
            assert sweep_s >= blocks_s + analytic_s - 0.002

    def test_run_fd_logs_one_line(self, caplog):
        config = FdConfig(
            channel=PARAMS, snr_grid_db=(0.0, 4.0), trials_per_point=50, channels_per_point=5
        )
        lines = self.timing_lines(caplog, run_fd, config)
        assert len(lines) == 1
        match = TIMING_LINE.fullmatch(lines[0])
        assert match and match[1] == "run_fd" and match[2] == "1"

    @pytest.mark.parametrize("system", ["analytic_curves", "analytic_curves_fd"])
    def test_analytic_curves_log_one_line_without_blocks(self, caplog, system):
        from rsmsim import simulate

        if system == "analytic_curves":
            config = small_config()
        else:
            config = FdConfig(
                channel=PARAMS, snr_grid_db=(0.0, 4.0), trials_per_point=50, channels_per_point=5
            )
        lines = self.timing_lines(caplog, getattr(simulate, system), config)
        assert len(lines) == 1
        match = TIMING_LINE.fullmatch(lines[0])
        assert match and match[1] == system and match[2] == "1"
        assert match[5] == "0.000"


BLOCK_LINE = re.compile(r"snr=(\S+) dB block (\d+): ([\d.]+) s")


class TestBlockDebugLog:
    """At DEBUG every Monte Carlo task logs its SNR point, block index and seconds."""

    @pytest.mark.parametrize("system", ["run", "run_fd"])
    def test_one_line_per_task_in_grid_order(self, caplog, system):
        from rsmsim.simulate import _batch_links

        if system == "run":
            # 2000 words x 4 antennas: 8 channels per batch, 3 batches of 20.
            config = small_config(trials_per_point=2000, channels_per_point=20)
            fn, width = run, config.n_active
        else:
            config = FdConfig(
                channel=PARAMS, snr_grid_db=(0.0, 4.0), trials_per_point=1000, channels_per_point=40
            )
            fn, width = run_fd, config.n_modes
        n_blocks = -(-config.channels_per_point // _batch_links(config.trials_per_point, width))
        assert n_blocks > 1
        with caplog.at_level(logging.DEBUG, logger="rsmsim.simulate"):
            fn(config)
        lines = [
            r.getMessage()
            for r in caplog.records
            if r.name == "rsmsim.simulate" and r.levelno == logging.DEBUG
        ]
        assert len(lines) == len(config.snr_grid_db) * n_blocks
        matches = [BLOCK_LINE.fullmatch(line) for line in lines]
        assert all(matches)
        assert [(float(m[1]), int(m[2])) for m in matches] == [
            (snr, b) for snr in config.snr_grid_db for b in range(n_blocks)
        ]


FD_POINT_LINE = re.compile(
    r"snr=(\S+) dB ber=(\S+) \(analytic (\S+)\), ([\d.]+) s elapsed, about ([\d.]+) s left"
)


class TestFdProgressLog:
    CONFIG = FdConfig(
        channel=PARAMS, snr_grid_db=(-4.0, 0.0, 4.0), trials_per_point=1000, channels_per_point=40
    )

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_one_line_per_point_in_grid_order(self, caplog, n_threads):
        with caplog.at_level(logging.INFO, logger="rsmsim.simulate"):
            report = run_fd(self.CONFIG, n_threads=n_threads)
        lines = [r.getMessage() for r in caplog.records if r.name == "rsmsim.simulate"]
        matches = [FD_POINT_LINE.fullmatch(line) for line in lines]
        assert all(matches) and len(matches) == len(report.points)
        elapsed = []
        for match, point in zip(matches, report.points):
            assert float(match[1]) == point.snr_db
            assert match[2] == f"{point.ber_total:.3e}"
            assert match[3] == f"{point.abep_analytic:.3e}"
            elapsed.append(float(match[4]))
        assert elapsed == sorted(elapsed)
        assert float(matches[-1][5]) == 0.0

    def test_each_line_follows_its_own_blocks(self, caplog, monkeypatch):
        # One thread: a point is logged as soon as its blocks are done,
        # before any block of the next point runs.
        import rsmsim.simulate as simulate

        events = []
        real_fd_ber = simulate.fd_ber

        def counting_fd_ber(*args):
            events.append("block")
            return real_fd_ber(*args)

        monkeypatch.setattr(simulate, "fd_ber", counting_fd_ber)

        class Recorder(logging.Handler):
            def emit(self, record):
                if record.name == "rsmsim.simulate":
                    events.append("line")

        handler = Recorder()
        logging.getLogger("rsmsim.simulate").addHandler(handler)
        try:
            with caplog.at_level(logging.INFO, logger="rsmsim.simulate"):
                run_fd(self.CONFIG)
        finally:
            logging.getLogger("rsmsim.simulate").removeHandler(handler)
        per_point = -(-40 // simulate._batch_links(1000, self.CONFIG.n_modes))
        assert events == (["block"] * per_point + ["line"]) * 3


RSM_POINT_LINE = re.compile(
    r"snr=(\S+) dB ber=(\S+) \(spatial (\S+), modulation (\S+), analytic (\S+), "
    r"estimated (\S+) with (\d+) of (\d+) links excluded: singular Fisher\), ([\d.]+) s elapsed, "
    r"about ([\d.]+) s left"
)


class TestRsmProgressLog:
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_one_line_per_point_with_elapsed_seconds(self, caplog, n_threads):
        config = small_config(snr_grid_db=(-4.0, 4.0, 8.0))
        with caplog.at_level(logging.INFO, logger="rsmsim.simulate"):
            report = run(config, n_threads=n_threads)
        lines = [r.getMessage() for r in caplog.records if r.name == "rsmsim.simulate"]
        matches = [RSM_POINT_LINE.fullmatch(line) for line in lines]
        assert all(matches) and len(matches) == len(report.points)
        elapsed = []
        for match, point in zip(matches, report.points):
            assert float(match[1]) == point.snr_db
            assert match[2] == f"{point.ber_total:.3e}"
            assert match[3] == f"{point.ber_spatial:.3e}"
            assert match[4] == f"{point.ber_modulation:.3e}"
            assert match[5] == f"{point.abep_analytic:.3e}"
            assert match[6] == f"{point.abep_analytic_estimated:.3e}"
            assert match[8] == "20"
            elapsed.append(float(match[9]))
        assert elapsed == sorted(elapsed) and elapsed[0] > 0
        # The estimate of the seconds left reaches 0 at the last point.
        assert float(matches[0][10]) > 0.0 and float(matches[-1][10]) == 0.0


class TestAnalyticProgressLog:
    """``abep`` runs the sweep of ``ber`` with no Monte Carlo task, and logs
    its points as ``ber`` does: in grid order, with the seconds elapsed and
    an estimate of those left."""

    @pytest.mark.parametrize("system", ["analytic_curves", "analytic_curves_fd"])
    def test_one_line_per_point_in_grid_order(self, caplog, system):
        from rsmsim import simulate

        grid = (-4.0, 0.0, 4.0, 8.0)
        if system == "analytic_curves":
            config, pattern = small_config(snr_grid_db=grid), RSM_POINT_LINE
        else:
            config = FdConfig(
                channel=PARAMS, snr_grid_db=grid, trials_per_point=50, channels_per_point=5
            )
            pattern = FD_POINT_LINE
        with caplog.at_level(logging.INFO, logger="rsmsim.simulate"):
            rows = getattr(simulate, system)(config)
        lines = [r.getMessage() for r in caplog.records if r.name == "rsmsim.simulate"]
        matches = [pattern.fullmatch(line) for line in lines]
        assert all(matches) and len(matches) == len(grid)
        fields = [m.groups() for m in matches]
        assert [float(f[0]) for f in fields] == list(grid)
        # No word is simulated, so the BER column reads nan.
        assert {f[1] for f in fields} == {"nan"}
        analytic = 2 if system == "analytic_curves_fd" else 4
        assert [f[analytic] for f in fields] == [f"{row[1]:.3e}" for row in rows]
        elapsed = [float(f[-2]) for f in fields]
        assert elapsed == sorted(elapsed) and elapsed[0] > 0
        assert float(fields[-1][-1]) == 0.0


class TestSweepContract:
    """The span tracer of the benchmark follows only the calling thread, so
    at one thread every task must run there, in grid order."""

    def test_one_thread_runs_every_task_in_the_caller(self, monkeypatch):
        import rsmsim.simulate as simulate

        threads = []

        def recording(fn):
            def wrapper(*args):
                threads.append(threading.get_ident())
                return fn(*args)

            return wrapper

        for name in ("_run_block", "_analytic_columns", "fd_ber", "_fd_analytic"):
            monkeypatch.setattr(simulate, name, recording(getattr(simulate, name)))
        run(small_config())
        fd_config = FdConfig(
            channel=PARAMS, snr_grid_db=(0.0, 4.0), trials_per_point=50, channels_per_point=5
        )
        run_fd(fd_config)
        simulate.analytic_curves(small_config())
        simulate.analytic_curves_fd(fd_config)
        # 2 points x (1 batch of 20 links + 1 analytic), twice; then 2
        # analytic tasks, twice
        assert len(threads) == 12
        assert set(threads) == {threading.get_ident()}

    def abort_config(self):
        return small_config(
            threshold_source="estimated",
            snr_grid_db=(-20.0, 10.0, 14.0),
            trials_per_point=50,
            channels_per_point=10,
        )

    def recorded_blocks(self, monkeypatch):
        import rsmsim.simulate as simulate

        snr_indices = []
        real = simulate._run_block

        def recording(config, constellation, ensemble, snr_idx, links, *buffers):
            snr_indices.extend([snr_idx] * len(links))
            return real(config, constellation, ensemble, snr_idx, links, *buffers)

        monkeypatch.setattr(simulate, "_run_block", recording)
        return snr_indices

    def test_no_later_block_runs_after_an_abort(self, monkeypatch):
        snr_indices = self.recorded_blocks(monkeypatch)
        with pytest.raises(PointAborted) as aborted:
            run(self.abort_config())
        assert aborted.value.snr_db == -20.0
        assert snr_indices == [0] * 10

    def test_pool_stops_when_a_point_aborts(self, monkeypatch):
        snr_indices = self.recorded_blocks(monkeypatch)
        before = threading.active_count()
        with pytest.raises(PointAborted) as aborted:
            run(self.abort_config(), n_threads=2)
        # The pool is shut down before the error leaves run, even while the
        # error (and so the frame that raised it) is still held here.
        assert aborted.value.snr_db == -20.0
        assert threading.active_count() == before
        assert snr_indices.count(0) == 10


class TestThresholdDesign:
    def test_each_threshold_is_designed_once(self, monkeypatch):
        # The Monte Carlo blocks and the perfect analytic column share one
        # design per (channel, SNR point).
        from rsmsim import analysis, simulate

        calls = []
        for module in (simulate, analysis):
            real = module.threshold

            def counting(*args, real=real, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "threshold", counting)
        config = small_config(threshold_mode="exact", snr_grid_db=(4.0, 8.0, 12.0))
        run(config, n_threads=2)
        assert len(calls) == 3 * 20


class TestSelectionModes:
    def test_exhaustive_beats_fixed_subset(self):
        grid = (6.0, 10.0, 14.0)
        kwargs = dict(trials_per_point=300, channels_per_point=40, snr_grid_db=grid)
        chosen = run(small_config(**kwargs), n_threads=4)
        fixed = run(small_config(selection="all_antennas", **kwargs), n_threads=4)
        for a, b in zip(chosen.points, fixed.points):
            assert a.ber_total + a.ci_halfwidth_95 < b.ber_total - b.ci_halfwidth_95


class TestEstimatedThreshold:
    def test_close_to_perfect_with_one_pilot(self):
        grid = (8.0, 12.0)
        kwargs = dict(trials_per_point=300, channels_per_point=40, snr_grid_db=grid)
        perfect = run(small_config(**kwargs), n_threads=4)
        estimated = run(
            small_config(threshold_source="estimated", n_pilots=1, **kwargs),
            n_threads=4,
        )
        for a, b in zip(perfect.points, estimated.points):
            assert b.ber_total <= 1.6 * max(a.ber_total, 1e-6)

    def test_abort_when_pilots_degenerate(self):
        with pytest.raises(PointAborted):
            run(
                small_config(
                    threshold_source="estimated",
                    snr_grid_db=(-20.0,),
                    trials_per_point=50,
                    channels_per_point=10,
                )
            )


class TestFdBaseline:
    def test_runs_and_is_deterministic(self):
        cfg = FdConfig(
            channel=PARAMS,
            snr_grid_db=(-4.0, 0.0, 4.0),
            trials_per_point=200,
            channels_per_point=20,
            seed=7,
        )
        a = run_fd(cfg)
        b = run_fd(cfg, n_threads=4)
        assert a == b
        bers = [p.ber_total for p in a.points]
        assert all(x >= y for x, y in zip(bers, bers[1:]))
        for p in a.points:
            assert p.ber_spatial == 0.0
            assert p.ber_modulation == p.ber_total
            assert math.isnan(p.abep_analytic_estimated)

    def test_thread_count_with_a_short_last_batch(self):
        from rsmsim.simulate import _batch_links

        cfg = FdConfig(
            channel=PARAMS,
            snr_grid_db=(-2.0, 2.0),
            trials_per_point=1000,
            channels_per_point=40,
            seed=11,
        )
        per_batch = _batch_links(cfg.trials_per_point, cfg.n_modes)
        assert 1 < per_batch < 40 and 40 % per_batch
        reports = [run_fd(cfg, n_threads=n) for n in (1, 2, 3)]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_fd_benchmark_prefix_matches_golden(self):
        # The channel ensemble and every block stream are keyed by index, so
        # the first two grid points reproduce the committed benchmark rows.
        from rsmsim.cli import _fmt, load_config

        root = Path(__file__).resolve().parent.parent
        config = load_config(root / "bench" / "configs" / "fd_baseline.cfg")
        assert config.seed == 1
        config = dataclasses.replace(config, snr_grid_db=(-8.0, -6.0))
        lines = (root / "bench" / "golden" / "fd_baseline.csv").read_text().splitlines()
        header = lines[0].split(",")
        for point, line in zip(run_fd(config).points, lines[1:3]):
            golden = dict(zip(header, line.split(",")))
            assert float(golden["snr_db"]) == point.snr_db
            assert _fmt(point.ber_total) == golden["ber_total"]
            assert _fmt(point.ber_spatial) == golden["ber_spatial"]
            assert _fmt(point.ber_modulation) == golden["ber_mod"]
            assert point.abep_analytic == pytest.approx(
                float(golden["abep_analytic"]), rel=1e-9, abs=0.0
            )

    def test_matches_analytic_mode_bep(self):
        cfg = FdConfig(
            channel=PARAMS,
            snr_grid_db=(-2.0,),
            trials_per_point=2000,
            channels_per_point=30,
            seed=8,
        )
        report = run_fd(cfg, n_threads=4)
        point = report.points[0]
        band = 3.0 / 1.96 * point.ci_halfwidth_95
        # Gray-approximation slack on top of the sampling band.
        assert abs(point.ber_total - point.abep_analytic) <= band + 0.05 * point.abep_analytic


class TestEnsembleMemory:
    def test_fd_mode_gains_draws_in_chunks(self):
        # The stacked draw and SVD of the benchmark's 1500 channels in one
        # piece peak near 160 MB; in chunks they stay a few MB.
        import tracemalloc

        from rsmsim.channel import in_sector_fraction
        from rsmsim.cli import load_config
        from rsmsim.simulate import _fd_mode_gains

        root = Path(__file__).resolve().parent.parent
        config = load_config(root / "bench" / "configs" / "fd_baseline.cfg")
        in_sector_fraction(config.channel)  # cached calibration, not part of the draw
        tracemalloc.start()
        try:
            gains = _fd_mode_gains(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gains.shape == (config.channels_per_point, config.n_modes)
        assert peak < 16 * 2**20

    def test_draw_stacks_are_sized_in_bytes(self, monkeypatch):
        # 64 + 8 antennas and 80 paths: 92,160 bytes of ray responses per
        # link, so five links per 512 KB stack, and every link is what it
        # is when drawn alone.
        import rsmsim.simulate as simulate

        config = FdConfig(
            channel=ChannelParams(n_tx=64, n_rx=8),
            snr_grid_db=(0.0,),
            trials_per_point=10,
            channels_per_point=7,
            seed=3,
        )
        stacks = list(simulate._draw_channels(config))
        assert [len(h) for h in stacks] == [5, 2]
        monkeypatch.setattr(simulate, "_DRAW_BYTES", 1)
        alone = list(simulate._draw_channels(config))
        assert [len(h) for h in alone] == [1] * 7
        assert np.array_equal(np.concatenate(stacks), np.concatenate(alone))


class TestInterpolation:
    def test_crossing_found(self):
        snr = np.array([0.0, 2.0, 4.0])
        ber = np.array([1e-2, 1e-3, 1e-4])
        assert interpolate_snr_at(snr, ber, 1e-3) == pytest.approx(2.0)
        assert interpolate_snr_at(snr, ber, 3.16228e-3) == pytest.approx(1.0, abs=0.01)

    def test_no_crossing_is_nan(self):
        snr = np.array([0.0, 2.0])
        assert math.isnan(interpolate_snr_at(snr, np.array([1e-2, 2e-3]), 1e-3))

    def test_report_helper(self):
        points = tuple(
            SnrPoint(s, b, b, b, b, b, 0.0, 100)
            for s, b in ((0.0, 1e-2), (2.0, 1e-3), (4.0, 1e-4))
        )
        report = ErrorReport(points=points, seed=0)
        assert report.snr_at_ber(1e-3) == pytest.approx(2.0)


class TestConfigValidation:
    def test_empty_grid(self):
        with pytest.raises(ValueError):
            small_config(snr_grid_db=())

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_grid(self, value):
        with pytest.raises(ValueError, match="snr_grid_db must be finite"):
            small_config(snr_grid_db=(4.0, value))
        with pytest.raises(ValueError, match="snr_grid_db must be finite"):
            FdConfig(channel=PARAMS, snr_grid_db=(value,))

    def test_n_active_bounds(self):
        with pytest.raises(ValueError):
            small_config(n_active=9)

    def test_streams_within_both_arrays(self):
        # More streams than transmit or receive antennas could only fail
        # after the channel draw; the config is refused when it is read.
        narrow = ChannelParams(n_tx=2, n_rx=4)
        for n_active in (0, 3, 4):
            with pytest.raises(ValueError, match="n_active"):
                small_config(channel=narrow, n_active=n_active)
        assert small_config(channel=narrow, n_active=2).n_active == 2
        wide = ChannelParams(n_tx=16, n_rx=4)
        for channel, n_modes in ((wide, 0), (wide, 5), (wide, 10), (narrow, 3)):
            with pytest.raises(ValueError, match="n_modes"):
                FdConfig(channel=channel, snr_grid_db=(0.0,), n_modes=n_modes)
        assert FdConfig(channel=wide, snr_grid_db=(0.0,), n_modes=4).n_modes == 4

    def test_bad_modes(self):
        with pytest.raises(ValueError):
            small_config(threshold_source="psychic")
        with pytest.raises(ValueError):
            small_config(selection="random")
