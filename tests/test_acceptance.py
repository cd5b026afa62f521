"""Release-gate acceptance suite.

Each test prints one ``[ACCEPTANCE n] PASS/FAIL`` line (run with ``-s``
or ``-rA`` to see them all) and asserts the stated bound. Expensive
simulation runs are shared through module-scoped fixtures.

Criterion 2a holds the moderate-SNR (MSA) threshold to the exact ML
root and to the high-SNR (HSA) limit. The Rice/Rayleigh likelihood
equation ``log I0(u) = rho`` gives ``u ~ rho + ln(2*pi*rho)/2``, so the
exact root itself lies about ``ln(2*pi*rho)/(2*rho)`` above HSA: 8.5% at
15 dB, under 5% only from 18 dB. The MSA must therefore stay within
1e-3 of the exact root everywhere, approach HSA monotonically, and meet
the 5% HSA bound wherever the exact root does.

One check is expected to fail and is kept red on purpose rather than
weakened:

* 6c: the coherent SVD baseline (2 modes x 16-QAM) crosses BER 1e-3
  14.6 dB ahead of the exact-threshold envelope-detection link, against
  a 4 dB bound. About 10.9 dB of that is received SNR per stream (SVD
  top mode P + 16.0 dB against ZF ``alpha`` P + 5.1 dB, log-means over
  the ensemble), about 2.6 dB is transmit power (``alpha`` normalises
  unit-variance inputs, but 0/1 spatial words radiate 0.55 P on
  average), and about 1 dB is envelope against coherent detection.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

import rsmsim.analysis as analysis
from rsmsim.channel import ChannelParams, draw_channel
from rsmsim.mimo import select_antennas, zf_precoder
from rsmsim.phy import (
    detect_spatial,
    exact_threshold_residual,
    threshold,
)
from rsmsim.power import PowerConfig, power_fd, power_proposed, power_ratio
from rsmsim.simulate import FdConfig, RsmConfig, run, run_fd
from rsmsim.specfun import (
    doubly_noncentral_t_cdf,
    lambert_w_minus1,
    log_bessel_i0,
    marcum_q1,
    noncentral_t_cdf,
    rice_moments,
)
from rsmsim.training import threshold_estimate_stats
from test_phy import joint_ml_detect

SEED = 20260808
GRID = (8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0)
ENSEMBLE = dict(trials_per_point=500, channels_per_point=200, seed=SEED)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _rsm_config(**overrides) -> RsmConfig:
    base = dict(
        channel=ChannelParams(n_tx=32, n_rx=8),
        n_active=4,
        snr_grid_db=GRID,
        constellation_kind="psk",
        constellation_order=16,
        threshold_mode="hsa",
        threshold_source="perfect",
        **ENSEMBLE,
    )
    base.update(overrides)
    return RsmConfig(**base)


@pytest.fixture(scope="module")
def run_hsa8():
    return run(_rsm_config(), n_threads=4)


@pytest.fixture(scope="module")
def run_exact8():
    return run(_rsm_config(threshold_mode="exact"), n_threads=4)


@pytest.fixture(scope="module")
def run_estimated8():
    return run(
        _rsm_config(threshold_source="estimated", n_pilots=1), n_threads=4
    )


@pytest.fixture(scope="module")
def run_hsa16():
    return run(
        _rsm_config(channel=ChannelParams(n_tx=32, n_rx=16)), n_threads=4
    )


class TestCriterion1PowerModel:
    def test_criterion_1(self):
        cfg = PowerConfig(p_ref=20.0, n_rx=16)
        proposed = power_proposed(cfg)
        fully_digital = power_fd(cfg)
        exact_match = proposed == 1700.0 and fully_digital == 8640.0
        worst = 0.0
        for n_rx in (8, 16, 32, 64, 128):
            exact, approx = power_ratio(PowerConfig(p_ref=20.0, n_rx=n_rx))
            worst = max(worst, abs(exact - approx))
        _report(
            "1",
            exact_match and worst < 0.005,
            f"P_P={proposed:g} mW, P_FD={fully_digital:g} mW, "
            f"max |ratio - approximation| = {worst:.5f}",
        )


class TestCriterion2ThresholdAsymptotics:
    DB_GRID = np.arange(15.0, 30.5, 1.0)

    def test_criterion_2a_msa_tracks_hsa(self):
        # The 5% HSA bound is applied where the exact root meets it; the
        # low end of the grid, where no ML-consistent design can, is held
        # to the tighter 1e-3 bound against the exact root instead.
        to_exact, to_hsa, exact_within = [], [], []
        for db in self.DB_GRID:
            min_power = 10.0 ** (db / 10.0)
            hsa = threshold("hsa", min_power, 1.0)
            msa = threshold("msa", min_power, 1.0)
            exact = threshold("exact", min_power, 1.0)
            to_exact.append(abs(msa - exact) / exact)
            to_hsa.append(abs(msa - hsa) / hsa)
            exact_within.append(abs(exact - hsa) / hsa <= 0.05)
        to_exact, to_hsa = np.array(to_exact), np.array(to_hsa)
        exact_within = np.array(exact_within)
        tracks_exact = to_exact.max() <= 1e-3
        converges = bool(np.all(np.diff(to_hsa) < 0))
        near_hsa = bool(exact_within.any() and np.all(to_hsa[exact_within] <= 0.05))
        from_db = self.DB_GRID[exact_within][0] if exact_within.any() else math.nan
        _report(
            "2a",
            tracks_exact and converges and near_hsa,
            f"max |msa-exact|/exact = {to_exact.max():.2e}; "
            f"|msa-hsa|/hsa = {to_hsa[0]:.4f} at {self.DB_GRID[0]:g} dB, "
            f"decreasing={converges}, 5% HSA bound holds from {from_db:g} dB",
        )

    def test_criterion_2b_exact_residual(self):
        worst = 0.0
        for db in self.DB_GRID:
            min_power = 10.0 ** (db / 10.0)
            gamma = threshold("exact", min_power, 1.0)
            worst = max(worst, abs(exact_threshold_residual(gamma, min_power, 1.0)))
        _report("2b", worst <= 1e-10, f"max exact-threshold residual = {worst:.2e}")


class TestCriterion3DetectorEquivalence:
    def test_criterion_3(self):
        rng = np.random.default_rng(SEED)
        alpha_p, sigma2 = 12.0, 1.0
        gamma = threshold("exact", alpha_p, sigma2)
        disagreements = 0
        trials = 100_000
        for n_active in (1, 2, 3, 4):
            amps = rng.uniform(0.0, 2.0 * math.sqrt(alpha_p), size=(trials, n_active))
            per_antenna = detect_spatial(amps, gamma)
            joint = joint_ml_detect(amps, alpha_p, sigma2)
            disagreements += int(np.any(per_antenna != joint, axis=1).sum())
        _report(
            "3",
            disagreements == 0,
            f"{disagreements} disagreements over 4 x 1e5 random trials",
        )


class TestCriterion4SpatialErrorVsMonteCarlo:
    def test_criterion_4(self):
        rng = np.random.default_rng(SEED + 4)
        channel = draw_channel(
            ChannelParams(n_tx=32, n_rx=8), np.random.default_rng(SEED)
        ).matrix
        selection = select_antennas(channel, 4)
        alpha = zf_precoder(selection.h_active).alpha
        sigma2 = 1.0
        n_draws = 10**7
        chunk = 10**6
        failures = []
        for snr_db in (6.0, 10.0, 14.0):
            alpha_p = alpha * 10.0 ** (snr_db / 10.0)
            gamma = threshold("hsa", alpha_p, sigma2)
            p1, p0 = analysis.spatial_error_probs_perfect(gamma, alpha_p, sigma2)
            nu = math.sqrt(alpha_p)
            sig_c = math.sqrt(sigma2 / 2.0)
            miss = alarm = 0
            for _ in range(n_draws // chunk):
                noise = sig_c * (
                    rng.standard_normal(chunk) + 1j * rng.standard_normal(chunk)
                )
                miss += int((np.abs(nu + noise) < gamma).sum())
                noise = sig_c * (
                    rng.standard_normal(chunk) + 1j * rng.standard_normal(chunk)
                )
                alarm += int((np.abs(noise) > gamma).sum())
            for name, formula, count in (("P1", p1, miss), ("P0", p0, alarm)):
                band = 3.0 * math.sqrt(max(formula * (1 - formula), 1e-18) / n_draws)
                if abs(count / n_draws - formula) > band:
                    failures.append(
                        f"{name}@{snr_db:g}dB: mc={count / n_draws:.3e} vs {formula:.3e}"
                    )
        _report(
            "4",
            not failures,
            "all envelope tail probabilities within 3-sigma of the closed forms"
            if not failures
            else "; ".join(failures),
        )


class TestCriterion5ThresholdFamilies:
    def test_criterion_5a_hsa_close_to_exact(self, run_hsa8, run_exact8):
        shift = run_hsa8.snr_at_ber(1e-3) - run_exact8.snr_at_ber(1e-3)
        _report(
            "5a",
            math.isfinite(shift) and abs(shift) <= 1.0,
            f"HSA-vs-exact horizontal shift at BER 1e-3 = {shift:.3f} dB",
        )

    def test_criterion_5b_one_pilot_close_to_perfect(self, run_hsa8, run_estimated8):
        shift = run_estimated8.snr_at_ber(1e-3) - run_hsa8.snr_at_ber(1e-3)
        _report(
            "5b",
            math.isfinite(shift) and abs(shift) <= 0.5,
            f"estimated-vs-perfect shift at BER 1e-3 = {shift:.3f} dB (1 pilot)",
        )

    def test_criterion_5c_more_antennas_help(self, run_hsa8, run_hsa16):
        ok = True
        detail = []
        for a, b in zip(run_hsa8.points, run_hsa16.points):
            margin = a.ber_total - b.ber_total - (a.ci_halfwidth_95 + b.ci_halfwidth_95)
            ok &= margin > 0
            detail.append(f"{a.snr_db:g}dB:{margin:+.1e}")
        _report("5c", ok, "n_rx=16 beats n_rx=8 margins " + " ".join(detail))


class TestCriterion6RateMatchedComparisons:
    def test_criterion_6a_selection_gain(self, run_exact8):
        fixed = run(
            _rsm_config(threshold_mode="exact", selection="all_antennas"), n_threads=4
        )
        ok = all(
            a.ber_total + a.ci_halfwidth_95 < b.ber_total - b.ci_halfwidth_95
            for a, b in zip(run_exact8.points, fixed.points)
        )
        _report(
            "6a",
            ok,
            "exhaustive selection beats the fixed first-4 subset at every point",
        )

    def test_criterion_6b_constant_modulus_wins(self, run_exact8):
        qam = run(
            _rsm_config(
                threshold_mode="exact",
                constellation_kind="qam",
                snr_grid_db=tuple(np.arange(8.0, 24.5, 2.0)),
            ),
            n_threads=4,
        )
        psk_crossing = run_exact8.snr_at_ber(1e-3)
        qam_crossing = qam.snr_at_ber(1e-3)
        _report(
            "6b",
            math.isfinite(psk_crossing)
            and math.isfinite(qam_crossing)
            and psk_crossing < qam_crossing,
            f"BER 1e-3 at {psk_crossing:.2f} dB (16-PSK) vs {qam_crossing:.2f} dB (16-QAM)",
        )

    def test_criterion_6c_gap_to_fully_digital(self, run_exact8):
        # Known red (see the module docstring for the 14.6 dB breakdown):
        # the gap is asserted < 4 dB as specified and the measurement is
        # reported either way. Whether the RSM transmit power should be
        # normalised to P is for the paper's full text to settle.
        fd = run_fd(
            FdConfig(
                channel=ChannelParams(n_tx=32, n_rx=8),
                snr_grid_db=tuple(np.arange(-8.0, 8.5, 2.0)),
                n_modes=2,
                constellation_kind="qam",
                constellation_order=16,
                **ENSEMBLE,
            ),
            n_threads=4,
        )
        gap = run_exact8.snr_at_ber(1e-3) - fd.snr_at_ber(1e-3)
        _report(
            "6c",
            math.isfinite(gap) and gap < 4.0,
            f"measured RSM-to-FD gap at BER 1e-3 = {gap:.2f} dB "
            "(2 modes x 16-QAM baseline)",
        )


class TestCriterion7Estimator:
    def test_criterion_7a_exact_recovery(self):
        from rsmsim.training import PilotObservation, estimate_amplitude

        worst = 0.0
        for c in (0.3, 1.0, 4.7):
            obs = PilotObservation(
                amplitudes=np.full(8, c), n_pilots=2, n_active=4
            )
            worst = max(worst, abs(estimate_amplitude(obs) - c))
        _report("7a", worst <= 1e-12, f"constant-sample recovery error = {worst:.2e}")

    def test_criterion_7b_variance_prediction(self):
        rng = np.random.default_rng(SEED + 7)
        alpha_p, sigma2 = 10 ** (15 / 10), 1.0
        theta = math.sqrt(alpha_p)
        worst = 0.0
        for n in (4, 16, 64):
            _, predicted = threshold_estimate_stats(alpha_p, sigma2, n)
            draws = np.abs(
                theta
                + math.sqrt(sigma2 / 2)
                * (rng.standard_normal((100_000, n)) + 1j * rng.standard_normal((100_000, n)))
            )
            m = draws.mean(axis=1)
            q = (draws * draws).mean(axis=1)
            rad = 4 * m * m - 3 * q
            ok = rad >= 0
            gamma_hat = 0.5 * ((2 / 3) * m[ok] + (1 / 3) * np.sqrt(rad[ok]))
            worst = max(worst, abs(float(gamma_hat.var()) / predicted - 1.0))
        _report("7b", worst <= 0.15, f"max |empirical/Fisher - 1| = {worst:.3f}")

    def test_criterion_7c_estimated_probabilities(self):
        rng = np.random.default_rng(SEED + 77)
        alpha_p, sigma2, n_samples = 10 ** (15 / 10), 1.0, 4
        theta = math.sqrt(alpha_p)
        stats = threshold_estimate_stats(alpha_p, sigma2, n_samples)
        p1_f, p0_f = analysis.spatial_error_probs_estimated(stats, alpha_p, sigma2)
        n_rep = 2 * 10**6
        sig_c = math.sqrt(sigma2 / 2)
        pilots = np.abs(
            theta
            + sig_c
            * (
                rng.standard_normal((n_rep, n_samples))
                + 1j * rng.standard_normal((n_rep, n_samples))
            )
        )
        m = pilots.mean(axis=1)
        q = (pilots * pilots).mean(axis=1)
        rad = 4 * m * m - 3 * q
        ok = rad >= 0
        gamma_hat = 0.5 * ((2 / 3) * m[ok] + (1 / 3) * np.sqrt(rad[ok]))
        k = gamma_hat.size
        a_on = np.abs(theta + sig_c * (rng.standard_normal(k) + 1j * rng.standard_normal(k)))
        a_off = np.abs(sig_c * (rng.standard_normal(k) + 1j * rng.standard_normal(k)))
        failures = []
        for name, formula, mc in (
            ("P1", p1_f, float((a_on < gamma_hat).mean())),
            ("P0", p0_f, float((a_off > gamma_hat).mean())),
        ):
            band = 3.0 * math.sqrt(max(formula * (1 - formula), 1e-18) / k)
            if abs(formula - mc) > band:
                failures.append(f"{name}: formula={formula:.3e} mc={mc:.3e}")
        _report(
            "7c",
            not failures,
            "pilot-pipeline Monte Carlo within 3-sigma of both formulas"
            if not failures
            else "; ".join(failures),
        )


class TestCriterion8SpecialFunctionOracles:
    def test_criterion_8(self):
        rng = np.random.default_rng(SEED + 8)
        checks = []

        # Bessel I0 against direct quadrature, in the log domain.
        for x in (0.5, 2.0, 10.0):
            oracle, _ = integrate.quad(lambda t: math.exp(x * math.cos(t)), 0, math.pi)
            checks.append(abs(log_bessel_i0(x) - math.log(oracle / math.pi)) <= 1e-8)

        # Marcum Q1 against Rice-tail quadrature.
        for a, b in ((1.5, 2.0), (0.8, 0.3), (3.0, 5.0)):
            oracle, _ = integrate.quad(
                lambda t: t * math.exp(-(t * t + a * a) / 2 + a * t) * special.i0e(a * t),
                b,
                np.inf,
                limit=400,
            )
            checks.append(abs(marcum_q1(a, b) - oracle) <= 1e-8)

        # Lambert branch round trip on 1e3 random domain points.
        xs = rng.uniform(-math.exp(-1.0) + 1e-12, -1e-12, size=1000)
        checks.append(
            all(
                abs(lambert_w_minus1(float(x)) * math.exp(lambert_w_minus1(float(x))) - x)
                <= max(1e-10, 1e-8 * abs(x))
                for x in xs
            )
        )

        # Rice moments against density quadrature.
        for nu, s2 in ((1.0, 0.5), (3.0, 0.25)):
            def integrand(t, order):
                z = 2 * t * nu / s2
                return t**order * (2 * t / s2) * math.exp(-(t * t + nu * nu) / s2 + z) * special.i0e(z)

            mu1_o, _ = integrate.quad(integrand, 0, np.inf, args=(1,), limit=400)
            mu2_o, _ = integrate.quad(integrand, 0, np.inf, args=(2,), limit=400)
            mu1, mu2 = rice_moments(nu, s2)
            checks.append(abs(mu1 - mu1_o) <= 1e-8 and abs(mu2 - mu2_o) <= 1e-8)

        # Non-central and doubly non-central t against 1e7-draw samplers.
        n_mc = 10**7
        x, dof, delta = 1.0, 2, 1.5
        t_draws = (rng.standard_normal(n_mc) + delta) / np.sqrt(rng.chisquare(dof, n_mc) / dof)
        mc = float((t_draws <= x).mean())
        band = 3.0 * math.sqrt(mc * (1 - mc) / n_mc)
        checks.append(abs(noncentral_t_cdf(x, dof, delta) - mc) <= band)

        x, dof, delta, lam = 1.2, 2, 2.0, 3.0
        w = (math.sqrt(lam) + rng.standard_normal(n_mc)) ** 2 + rng.chisquare(dof - 1, n_mc)
        t_draws = (rng.standard_normal(n_mc) + delta) / np.sqrt(w / dof)
        mc = float((t_draws <= x).mean())
        band = 3.0 * math.sqrt(mc * (1 - mc) / n_mc)
        checks.append(abs(doubly_noncentral_t_cdf(x, dof, delta, lam) - mc) <= band)

        _report(
            "8",
            all(checks),
            f"{sum(checks)}/{len(checks)} special-function oracle checks passed",
        )


class TestCriterion9Determinism:
    def test_criterion_9(self, tmp_path):
        from rsmsim.cli import main

        config = tmp_path / "determinism.cfg"
        config.write_text(
            "\n".join(
                [
                    "system = rsm",
                    "n_tx = 32",
                    "n_rx = 8",
                    "n_active = 4",
                    "constellation = psk",
                    "order = 16",
                    "threshold_mode = hsa",
                    "threshold_source = perfect",
                    "snr_db = 4:12:4",
                    "trials_per_point = 300",
                    "channels_per_point = 60",
                    "seed = 11",
                    "selection = exhaustive",
                ]
            )
        )
        out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        code1 = main(["ber", "--config", str(config), "--out", str(out1), "--threads", "1"])
        code8 = main(["ber", "--config", str(config), "--out", str(out8), "--threads", "8"])
        identical = out1.read_bytes() == out8.read_bytes()
        _report(
            "9",
            code1 == 0 and code8 == 0 and identical,
            "CSV byte-identical across --threads 1 and --threads 8",
        )
