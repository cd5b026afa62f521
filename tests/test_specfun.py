"""Oracle tests for the special-function kernel.

Expected values were produced by independent brute-force oracles:
adaptive quadrature for the Bessel and Rice integrals, bisection on
w*exp(w) for the Lambert branch, and 1e7-draw Monte Carlo samplers for
the t-distribution CDFs (frozen together with their 3-sigma bands).
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from rsmsim import specfun
from rsmsim.specfun import (
    DomainError,
    _chord_tail_bound,
    _ncx2_tail,
    _poisson_windows,
    _saturated_suffix,
    _window_groups,
    doubly_noncentral_t_cdf,
    gaussian_q,
    lambert_w_minus1,
    log_bessel_i0,
    marcum_q1,
    noncentral_t_cdf,
    rice_moments,
)

# Quadrature oracle (1/pi) * int_0^pi exp(x cos t) dt
I0_ORACLE = {0.5: 1.0634833707413234, 2.0: 2.2795853023360673, 10.0: 2815.7166284662544}

# Adaptive quadrature of the Rice density tail (unit per-component variance)
MARCUM_ORACLE = {
    (1.5, 2.0): 0.4236792804780005,
    (0.8, 0.3): 0.967818735404975,
    (3.0, 5.0): 0.030677602084016507,
}

# Bisection on w*exp(w) = x over w <= -1
LAMBERT_ORACLE = {
    -0.1: -3.577152063957297,
    -0.3: -1.781337023421628,
    -0.05: -4.499755288523488,
}

# 1e7-draw Monte Carlo samplers, seed 20260808: (value, 3-sigma half width).
# The second point was drawn at (-0.5, 3, 0.7) as 0.1272713 and is stated
# through the reflection F(x; dof, delta) = 1 - F(-x; dof, -delta).
NCT_MC = {
    (1.0, 2, 1.5): (0.2869139, 4.3e-4),
    (0.5, 3, -0.7): (0.8727287, 3.2e-4),
}
DNCT_MC = {
    (1.2, 2, 2.0, 3.0): (0.4147017, 4.7e-4),
    (0.8, 2, 1.0, 8.0): (0.7314441, 4.3e-4),
}

# Quadrature of a*f(a) and a^2*f(a) against the Rice density
RICE_ORACLE = {
    (1.0, 0.5): (1.1361917140343714, 1.5),
    (3.0, 0.25): (3.0209072486748467, 9.25),
}


class TestBesselI0:
    """log I0(x), the one Bessel kernel, against oracles of I0 itself."""

    def test_at_zero(self):
        assert log_bessel_i0(0.0) == 0.0

    @pytest.mark.parametrize("x,expected", sorted(I0_ORACLE.items()))
    def test_against_quadrature(self, x, expected):
        assert log_bessel_i0(x) == pytest.approx(math.log(expected), rel=0.0, abs=1e-10)

    def test_large_argument_stays_finite_in_log_domain(self):
        val = log_bessel_i0(700.0)
        assert math.isfinite(val)
        # Leading asymptotic term: x - 0.5*log(2*pi*x)
        assert val == pytest.approx(700.0 - 0.5 * math.log(2 * math.pi * 700.0), rel=1e-5)
        assert math.isfinite(log_bessel_i0(1e300))

    def test_log_consistent_with_linear(self):
        # scipy's linear-domain I0, where it does not overflow.
        for x in (0.5, 3.0, 25.0, 300.0):
            assert log_bessel_i0(x) == pytest.approx(math.log(special.i0(x)), abs=1e-12)

    def test_monotone_and_asymptotic_floor(self):
        xs = np.linspace(0.0, 60.0, 121)
        vals = np.array([log_bessel_i0(float(x)) for x in xs])
        assert np.all(np.diff(vals) > 0)
        for x in (11.0, 20.0, 50.0, 200.0):
            floor = x - 0.5 * math.log(2 * math.pi * x) + math.log1p(-1e-2)
            assert log_bessel_i0(x) >= max(0.0, floor)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            log_bessel_i0(-1.0)


class TestMarcumQ1:
    def test_rayleigh_degenerate(self):
        for b in (0.3, 1.0, 2.5):
            assert marcum_q1(0.0, b) == pytest.approx(math.exp(-b * b / 2), rel=1e-12)

    def test_b_zero_is_one(self):
        assert marcum_q1(2.0, 0.0) == 1.0
        assert marcum_q1(0.0, 0.0) == 1.0

    @pytest.mark.parametrize("ab,expected", sorted(MARCUM_ORACLE.items()))
    def test_against_quadrature(self, ab, expected):
        assert marcum_q1(*ab) == pytest.approx(expected, rel=1e-8)

    @given(
        a=st.floats(min_value=0.0, max_value=20.0),
        b1=st.floats(min_value=0.0, max_value=20.0),
        b2=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_b(self, a, b1, b2):
        lo, hi = sorted((b1, b2))
        assert marcum_q1(a, lo) >= marcum_q1(a, hi) - 1e-12

    def test_increasing_in_a(self):
        b = 2.0
        vals = [marcum_q1(a, b) for a in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


class TestLambertWMinus1:
    def test_branch_point(self):
        assert lambert_w_minus1(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("x,expected", sorted(LAMBERT_ORACLE.items()))
    def test_against_bisection(self, x, expected):
        assert lambert_w_minus1(x) == pytest.approx(expected, rel=1e-10)

    def test_domain_errors(self):
        for x in (-1.0, 0.0, 0.5, -0.5):
            with pytest.raises(DomainError):
                lambert_w_minus1(x)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-math.exp(-1.0) + 1e-12, -1e-12, size=1000)
        for x in xs:
            w = lambert_w_minus1(float(x))
            assert w <= -1.0 + 1e-12
            assert abs(w * math.exp(w) - x) <= max(1e-10, 1e-8 * abs(x))

    def test_ufunc_matches_public_wrapper_bits(self):
        # specfun calls the ufunc behind special.lambertw with the wrapper's
        # default tolerance, on the whole domain lambert_w_minus1 accepts.
        branch = -math.exp(-1.0)
        z = np.concatenate(
            [
                np.nextafter(branch, 0.0) + np.arange(8) * 1e-17,
                [branch, -1e-300, -5e-324, np.nextafter(0.0, -1.0)],
                np.linspace(branch, -1e-6, 2000),
                -np.geomspace(1e-300, 0.3, 2000),
                np.random.default_rng(11).uniform(branch, 0.0, 2000),
            ]
        )
        z = z[(z >= branch) & (z < 0.0)]
        got = specfun._ufuncs._lambertw(z, -1, 1e-8)
        assert got.tobytes() == special.lambertw(z, k=-1).tobytes()
        for x in z[::50]:
            assert specfun._ufuncs._lambertw(float(x), -1, 1e-8) == special.lambertw(x, k=-1)


class TestNoncentralT:
    def test_zero_noncentrality_is_central_t(self):
        for x in (1e-3, 0.3, 0.7, 2.5):
            for n in (1, 2, 5):
                assert noncentral_t_cdf(x, n, 0.0) == pytest.approx(
                    float(stats.t.cdf(x, n)), abs=1e-12
                )

    def test_limits(self):
        # Phi(-delta) as x -> 0+ and 1 as x grows, at both ends of x > 0.
        assert noncentral_t_cdf(1e-300, 3, 1.0) == pytest.approx(special.ndtr(-1.0), rel=1e-12)
        assert noncentral_t_cdf(1e300, 3, 1.0) == 1.0

    @pytest.mark.parametrize("args,mc", sorted(NCT_MC.items()))
    def test_against_monte_carlo(self, args, mc):
        value, band = mc
        assert abs(noncentral_t_cdf(*args) - value) <= band

    def test_monotone_in_x(self):
        xs = np.linspace(0.1, 10, 60)
        vals = [noncentral_t_cdf(float(x), 2, 1.5) for x in xs]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestDoublyNoncentralT:
    def test_lambda_zero_reduces_to_noncentral(self):
        # lam = 0 is outside the domain; at lam = 1e-300 the leading window
        # weight is exactly 1, so the mixture is the single t bit for bit.
        xs = np.linspace(0.05, 8, 100)
        near = doubly_noncentral_t_cdf(xs, 2, 1.3, 1e-300)
        assert np.array_equal(near, noncentral_t_cdf(xs, 2, 1.3))

    def test_small_lambda_is_continuous(self):
        # As lam -> 0+ the mixture tends to the singly non-central t CDF.
        xs = np.linspace(0.05, 8, 100)
        near = doubly_noncentral_t_cdf(xs, 2, 1.3, 1e-9)
        np.testing.assert_allclose(near, noncentral_t_cdf(xs, 2, 1.3), rtol=0.0, atol=1e-7)

    def test_symmetric_numerator_at_origin(self):
        # P(Z <= x S) tends to 1/2 as x -> 0+ when delta = 0.
        assert doubly_noncentral_t_cdf(1e-12, 2, 0.0, 5.0) == pytest.approx(0.5, abs=1e-9)

    def test_limits(self):
        # Phi(-delta) as x -> 0+ and 1 as x grows, at both ends of x > 0.
        assert doubly_noncentral_t_cdf(1e-300, 2, 1.0, 3.0) == pytest.approx(
            special.ndtr(-1.0), rel=1e-12
        )
        assert doubly_noncentral_t_cdf(1e300, 2, 1.0, 3.0) == 1.0

    @pytest.mark.parametrize("args,mc", sorted(DNCT_MC.items()))
    def test_against_monte_carlo(self, args, mc):
        value, band = mc
        assert abs(doubly_noncentral_t_cdf(*args) - value) <= band

    def test_rejects_negative_lambda(self):
        with pytest.raises(DomainError):
            doubly_noncentral_t_cdf(1.0, 2, 1.0, -0.5)


class TestDomain:
    """The t kernels take finite x > 0, dof > 0, finite delta and (doubly)
    lam > 0 only."""

    @pytest.mark.parametrize("x", [0.0, -0.0, -1e-300, -2.0, math.inf, -math.inf, math.nan])
    def test_rejects_x(self, x):
        for args in ((x,), (np.array([1.0, x]),)):
            with pytest.raises(DomainError):
                noncentral_t_cdf(*args, 2.0, 1.0)
            with pytest.raises(DomainError):
                doubly_noncentral_t_cdf(*args, 2.0, 1.0, 3.0)

    @pytest.mark.parametrize("dof", [0.0, -1.0, math.nan])
    def test_rejects_dof(self, dof):
        with pytest.raises(DomainError):
            noncentral_t_cdf(1.0, dof, 1.0)
        with pytest.raises(DomainError):
            doubly_noncentral_t_cdf(1.0, dof, 1.0, 3.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_delta(self, delta):
        for args in ((delta,), (np.array([1.0, delta]),)):
            with pytest.raises(DomainError):
                noncentral_t_cdf(1.0, 2.0, *args)
            with pytest.raises(DomainError):
                doubly_noncentral_t_cdf(1.0, 2.0, *args, 3.0)

    @pytest.mark.parametrize("lam", [0.0, -0.0, math.inf, math.nan])
    def test_rejects_lam(self, lam):
        with pytest.raises(DomainError):
            doubly_noncentral_t_cdf(1.0, 2.0, 1.0, lam)


def nct_tail_mp(x, dof, delta):
    """mpmath oracle for the upper tail P(T > x), T = (Z + delta) / S, S = sqrt(V / dof).

    Integrates h(w) = f_S(e^w) e^w Q(x e^w - delta) over w = log S.
    For x > 0, log h is concave, so a float scan locates its one peak and
    the range within exp(-120) of it; the quadrature is split at the peak
    and at evenly spaced breakpoints on either side, which a single naive
    ``mp.quad`` over the whole line does not resolve.
    """
    import mpmath as mp

    def log_h(w):
        r = np.exp(w)
        return (
            math.log(2.0 * dof)
            + 2.0 * w
            + (0.5 * dof - 1.0) * (math.log(dof) + 2.0 * w)
            - 0.5 * dof * r * r
            - 0.5 * dof * math.log(2.0)
            - special.gammaln(0.5 * dof)
            + special.log_ndtr(delta - x * r)
        )

    w = np.linspace(-400.0, 10.0, 82001)
    scan = log_h(w)
    peak = w[np.argmax(scan)]
    inside = w[scan > scan.max() - 120.0]
    assert w[0] < inside[0] and inside[-1] < w[-1]
    knots = sorted({*np.linspace(inside[0], peak, 6), *np.linspace(peak, inside[-1], 6)})
    with mp.workdps(20):
        half = mp.mpf(dof) / 2

        def h(w):
            v = dof * mp.exp(2 * w)
            density = 2 * v * v ** (half - 1) * mp.exp(-v / 2) / (2**half * mp.gamma(half))
            return density * mp.erfc((x * mp.exp(w) - delta) / mp.sqrt(2)) / 2

        return mp.quad(h, [mp.mpf(k) for k in knots])


ROOT = Path(__file__).resolve().parent.parent

# Every config whose analytic columns evaluate the doubly non-central t;
# the fully digital ones (presets/fig2_fd_svd.cfg, bench/configs/
# fd_baseline.cfg) evaluate no t CDF.
WINDOW_CONFIGS = [
    "presets/fig3.cfg",
    "presets/fig3_hsa.cfg",
    "presets/fig3_hsa_estimated.cfg",
    "presets/fig3_nr16.cfg",
    "presets/fig2_psk.cfg",
    "presets/fig2_qam.cfg",
    "presets/fig2_noselection.cfg",
    "bench/configs/mc_estimated.cfg",
]


def fig3_excerpt():
    """fig3's geometry with 20 channels at 16-20 dB."""
    import dataclasses

    from rsmsim.cli import load_config

    config = load_config(ROOT / "presets" / "fig3.cfg")
    return dataclasses.replace(config, snr_grid_db=(16.0, 18.0, 20.0), channels_per_point=20)


def full_terms(x, dof, delta, j, sizes):
    """Every window term's ``(x sqrt(df / dof), df, delta)``, df = dof + 2j,
    built at full length as the one-pass kernel built them."""
    dof_r = np.repeat(dof, sizes)
    df = dof_r + 2.0 * j
    return np.repeat(x, sizes) * np.sqrt(df / dof_r), df, np.repeat(delta, sizes)


def window_indices(j_lo, sizes):
    """The concatenated term indices j of windows starting at ``j_lo``."""
    starts = np.cumsum(sizes) - sizes
    return np.arange(sizes.sum()) - np.repeat(starts - j_lo, sizes)


def chord_proved(x, dof, delta):
    """Where the two-chord bound proves the upper tail below 2^-56."""
    return _chord_tail_bound(x, dof, delta) < 2.0**-56


def chernoff_screen(x, dof, delta):
    """Where x > 0 and a one-bound per-term screen proves P(T > x) < 2^-55.

    The screen the kernel ran ahead of the backend before the two-chord
    bound became its only proof: delta < -8.5, or c = (delta + 8.5) / x in
    (0, 1) with the chi-square Chernoff exponent dof/2 (1 - c^2 + 2 ln c)
    below ln 2^-56. Its terms are where scipy may give 1 minus a few ulp or
    NaN; the chord bound must still answer them.
    """
    c = np.divide(delta + 8.5, x, out=np.zeros(x.shape), where=x > 0)
    inside = (c > 0.0) & (c < 1.0)
    c_in = c[inside]
    exponent = np.zeros(x.shape)
    exponent[inside] = 0.5 * dof[inside] * (1.0 - c_in * c_in + 2.0 * np.log(c_in))
    return (x > 0) & ((delta < -8.5) | (exponent < -56.0 * math.log(2.0)))


def window_terms(monkeypatch, config):
    """Every Poisson-window term that ``analytic_curves(config)`` evaluates.

    Returns the terms' (x, dof, delta), whether each lies in its window's
    saturated suffix, and whether it is the suffix's first term.
    """
    from rsmsim.simulate import analytic_curves

    calls = []

    def recording(x, dof, delta, j_lo, sizes):
        hi = _saturated_suffix(x, dof, delta, j_lo, sizes)
        starts = np.cumsum(sizes) - sizes
        index = np.arange(sizes.sum())
        first = np.repeat(starts + hi, sizes)
        terms = full_terms(x, dof, delta, window_indices(j_lo, sizes), sizes)
        calls.append((*terms, index >= first, index == first))
        return hi

    monkeypatch.setattr(specfun, "_saturated_suffix", recording)
    analytic_curves(config)
    return tuple(np.concatenate(v) for v in zip(*calls))


def record_p0_terms(monkeypatch):
    """A list that fills with the (x, dof, delta) of every P0 term, one
    entry per ``noncentral_t_cdf`` call the analysis makes."""
    from rsmsim import analysis

    calls, p0_cdf = [], analysis.noncentral_t_cdf

    def recording(x, dof, delta):
        calls.append([a.ravel() for a in np.broadcast_arrays(x, dof, delta)])
        return p0_cdf(x, dof, delta)

    monkeypatch.setattr(analysis, "noncentral_t_cdf", recording)
    return calls


class TestSaturationScreen:
    """x > 0 terms whose upper tail is provably below 2^-55 are exactly 1.0."""

    def test_fig3_window_terms_equal_backend(self, monkeypatch):
        # Every t CDF term abep evaluates on a fig3-geometry ensemble at
        # 16-20 dB: P0's terms, then the window terms, saturated suffixes
        # included.
        p0_calls = record_p0_terms(monkeypatch)
        *window, suffix, _ = window_terms(monkeypatch, fig3_excerpt())
        p0 = [np.concatenate(v) for v in zip(*p0_calls)]
        x, dof, delta = (np.concatenate(v) for v in zip(p0, window))
        # P0 is one term per link and SNR, a window one per Poisson term.
        assert p0[0].size == 3 * 20 and x.size > 10_000 and np.all(x > 0)
        want, proved = nct_terms_stats(x, dof, delta), chord_proved(x, dof, delta)
        # scipy returns NaN on a few terms, all of them proved.
        backend_nan = np.isnan(want)
        assert np.all(proved[backend_nan])
        got = noncentral_t_cdf(x, dof, delta)
        assert np.array_equal(got[~backend_nan], want[~backend_nan])
        assert np.count_nonzero(proved) > x.size / 2
        # The suffixes are exactly the proved window terms: the bound
        # proves no term ahead of its window's suffix.
        assert np.array_equal(suffix, proved[p0[0].size :])

    @pytest.mark.parametrize(
        "x,dof,delta",
        [(10.0, 2.0, -8.6), (4.0, 122.00731, -6.5)],
        ids=["delta-8.6", "chernoff-limit"],
    )
    def test_answers_just_inside(self, x, dof, delta):
        # Just inside the Chernoff screen's edges (delta below -8.5, and
        # the exponent just below ln 2^-56): the chord bound proves them
        # too, so they stay exactly 1.0 without a backend call.
        args = np.array([x]), np.array([dof]), np.array([delta])
        assert chernoff_screen(*args)[0] and chord_proved(*args)[0]
        assert noncentral_t_cdf(x, dof, delta) == 1.0
        assert nct_tail_mp(x, dof, delta) < 2.0**-55

    @pytest.mark.parametrize(
        "x,dof,delta",
        [
            # scipy gave 1 minus 1 or 2 ulp
            (6.183499007717468, 27.898677007831886, -7.746702113536621),
            (4.514151083141653, 2578.9879686625322, -5.003756844836396),
            (5.457169250071077, 2589.0156553683423, -4.510653337633414),
            (7.0269059384270625, 113.03027807658692, -8.122335453668718),
            # scipy gave NaN
            (42.18460385870764, 1.3092409910301284, -39.806488121858195),
            (17.115117572966515, 1.6932016272177042, -12.288705242295443),
            (110.36118955495444, 2.2110739697419457, -36.84073060975646),
            (91.14531301314528, 1.9426631834380539, -47.85787229987901),
            (25.21509440467257, 2.6480748777780523, -18.5493866762637),
            (23.51258568951363, 4.416422445960106, -13.319535713625626),
        ],
    )
    def test_answered_tails_below_half_ulp(self, x, dof, delta):
        # Points of the scipy parity grid where scipy gives less than 1.0
        # or NaN and the bound answers 1.0.
        args = np.array([x]), np.array([dof]), np.array([delta])
        assert chord_proved(*args)[0]
        assert not nct_terms_stats(*args)[0] >= 1.0  # below 1, or NaN
        assert noncentral_t_cdf(x, dof, delta) == 1.0
        assert nct_tail_mp(x, dof, delta) < 2.0**-55

    @pytest.mark.parametrize(
        "x,dof,delta", [(2.0, 5.0, 0.5), (6.0, 2.0, 1.0), (1.5, 0.5, 2.0), (20.0, 2.0, 3.0)]
    )
    def test_mpmath_oracle_against_backend(self, x, dof, delta):
        want = 1.0 - special.nctdtr(dof, delta, x)
        assert float(nct_tail_mp(x, dof, delta)) == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestWindowSuffix:
    """From the first term of a Poisson window that the two-chord bound
    proves saturated on, every term is 1.0 without a backend call."""

    @pytest.mark.parametrize("path", WINDOW_CONFIGS)
    def test_config_suffix_terms_are_backend_ones(self, path, monkeypatch):
        # Windows and suffixes come from the real kernel; only the backend
        # evaluation of the terms ahead of the suffixes is left out.
        from rsmsim.cli import load_config

        nctdtr = special.nctdtr
        ones = lambda dof, delta, x: np.ones(np.shape(x))  # noqa: E731
        monkeypatch.setattr(specfun._ufuncs, "nctdtr", ones)
        x, dof, delta, suffix, _ = window_terms(monkeypatch, load_config(ROOT / path))
        # The suffixes hold exactly the terms the bound proves, among them
        # every term the Chernoff screen answers; the other suffix terms
        # are exactly 1.0 in scipy too.
        assert np.array_equal(suffix, chord_proved(x, dof, delta))
        screened = chernoff_screen(x, dof, delta)
        assert np.all(suffix[screened])
        added = suffix & ~screened
        assert added.any()
        assert np.all(nctdtr(dof[added], delta[added], x[added]) == 1.0)

    def test_backend_sees_only_open_terms(self, monkeypatch):
        # No proved term reaches the backend: of the windows it sees the
        # terms ahead of the suffixes, and the rest of its terms are P0's
        # unproved ones.
        backend, nctdtr = [], specfun._ufuncs.nctdtr

        def recording_backend(dof, delta, x):
            backend.append((x, dof, delta))
            return nctdtr(dof, delta, x)

        monkeypatch.setattr(specfun._ufuncs, "nctdtr", recording_backend)
        p0_terms = record_p0_terms(monkeypatch)
        x, dof, delta, suffix, _ = window_terms(monkeypatch, fig3_excerpt())
        seen = [np.concatenate(v) for v in zip(*backend)]
        assert not np.any(chord_proved(*seen))
        p0_open = np.count_nonzero(~chord_proved(*(np.concatenate(v) for v in zip(*p0_terms))))
        window_open = np.count_nonzero(~suffix)
        assert seen[0].size == window_open + p0_open
        assert window_open < 0.5 * x.size

    def test_first_suffix_tails_below_half_ulp(self, monkeypatch):
        # First suffix terms of a fig3 excerpt: the three with the largest
        # bound and three more.
        x, dof, delta, _, first = window_terms(monkeypatch, fig3_excerpt())
        at = np.flatnonzero(first)
        bound = _chord_tail_bound(x[at], dof[at], delta[at])
        assert at.size > 20 and np.all(bound < 2.0**-56)
        rng = np.random.default_rng(15)
        picked = np.concatenate([at[np.argsort(bound)[-3:]], rng.choice(at, 3, replace=False)])
        for i in picked:
            assert nct_tail_mp(x[i], dof[i], delta[i]) < 2.0**-55

    @pytest.mark.parametrize(
        "x,dof,delta",
        [
            (1.0, 2.0, -6.0),
            (4.0, 2.0, -6.0),
            (15.0, 2.0, 0.0),
            (30.0, 8.0, 5.0),
            (4.0, 60.0, -6.0),
            (4.0, 60.0, 0.0),
            (15.0, 60.0, 0.0),
            (8.0, 200.0, -1.0),
            (2.0, 1000.0, -2.0),
            (6.0, 1000.0, 0.0),
        ],
    )
    def test_bound_above_mpmath_tail(self, x, dof, delta):
        bound = _chord_tail_bound(np.array([x]), np.array([dof]), np.array([delta]))[0]
        assert bound >= nct_tail_mp(x, dof, delta)

    def test_bound_below_z0(self):
        # delta <= -9: T > x > 0 needs Z > 9, so the bound is Q(9) alone.
        bound = _chord_tail_bound(np.array([1.0, 50.0]), np.full(2, 2.0), np.array([-9.0, -30.0]))
        assert np.array_equal(bound, np.full(2, 0.5 * special.erfc(9.0 / math.sqrt(2.0))))

    def test_bisection_stops_after_an_unproved_term(self):
        # The returned term is proved (or one past the window) and the
        # term before it is not, on windows of arbitrary first index and
        # size.
        rng = np.random.default_rng(16)
        sizes = rng.integers(1, 90, 400)
        n = sizes.size
        x, dof = log_uniform(rng, 0.5, 200.0, n), log_uniform(rng, 1.0, 4000.0, n)
        delta = rng.uniform(-12.0, 8.0, n)
        j_lo = rng.integers(0, 2000, n)
        starts = np.cumsum(sizes) - sizes
        hi = _saturated_suffix(x, dof, delta, j_lo, sizes)
        terms = full_terms(x, dof, delta, window_indices(j_lo, sizes), sizes)
        proved = chord_proved(*terms)
        for start, size, k in zip(starts, sizes, hi):
            assert 0 <= k <= size
            assert k == size or proved[start + k]
            assert k == 0 or not proved[start + k - 1]
        assert 0 < np.count_nonzero(hi < sizes) < sizes.size

    def test_one_pass_build_matches_windows_built_alone(self):
        # np.log misses math.log on a few in 10^4 arguments; 20,000 means
        # catch a window build that takes it.
        rng = np.random.default_rng(17)
        edges = [1e-3, 0.5, 1.0, 12.0, 143.5, 144.0, 1e4 + 0.5, 1e6]
        half = np.concatenate(
            [log_uniform(rng, 1e-3, 1e3, 20_000), log_uniform(rng, 1e3, 1e6, 40), edges]
        )
        j, weights, sizes = _poisson_windows(half)
        alone = [poisson_window(h) for h in half.tolist()]
        assert np.array_equal(sizes, [w.size for _, w in alone])
        assert np.array_equal(j, np.concatenate([i for i, _ in alone]))
        assert np.array_equal(weights, np.concatenate([w for _, w in alone]))


@pytest.fixture(scope="module")
def ensemble_calls():
    """The (x, dof, delta, lam) of every doubly_noncentral_t_cdf call that
    the analytic columns of fig3 and of the mc_estimated workload make."""
    from rsmsim import analysis
    from rsmsim.cli import load_config
    from rsmsim.simulate import analytic_curves

    calls, real = {}, analysis.doubly_noncentral_t_cdf
    for path in ("presets/fig3.cfg", "bench/configs/mc_estimated.cfg"):

        def recording(x, dof, delta, lam, recorded=calls.setdefault(path, [])):
            recorded.append(tuple(np.broadcast_arrays(x, dof, delta, lam)))
            return real(x, dof, delta, lam)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "doubly_noncentral_t_cdf", recording)
            analytic_curves(load_config(ROOT / path))
    return calls


class TestWindowGroups:
    """Windows built in groups of at most _TERM_BUDGET terms give, bit for
    bit, what building every term of every window at once gave."""

    def test_groups_fill_the_budget_in_order(self, monkeypatch):
        monkeypatch.setattr(specfun, "_TERM_BUDGET", 10)
        sizes = np.array([3, 4, 3, 1, 12, 2, 10, 9, 1, 5])
        groups = list(_window_groups(sizes))
        # The window of 12 terms is a group of its own.
        assert groups == [(0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 9), (9, 10)]
        assert list(_window_groups(sizes[:0])) == []

    @pytest.mark.parametrize("budget", [1, 1000, None], ids=["one-window", "split", "default"])
    @pytest.mark.parametrize("path", ["presets/fig3.cfg", "bench/configs/mc_estimated.cfg"])
    def test_config_ensembles(self, path, budget, ensemble_calls, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(specfun, "_TERM_BUDGET", budget)
        for x, dof, delta, lam in ensemble_calls[path]:
            want = single_pass_dnct(x, dof, delta, lam)
            assert np.array_equal(doubly_noncentral_t_cdf(x, dof, delta, lam), want)
            if budget == 1000:
                # Several groups, each of several windows.
                sizes = specfun._window_bounds(0.5 * lam.ravel())[1]
                assert 1 < len(list(_window_groups(sizes))) < lam.size

    @pytest.mark.parametrize("budget", [1, 1000, None], ids=["one-window", "split", "default"])
    def test_random_grid(self, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(specfun, "_TERM_BUDGET", budget)
        rng = np.random.default_rng(18)
        n = 400
        x, delta = log_uniform(rng, 1e-2, 1e2, n), rng.uniform(-5.0, 25.0, n)
        lam = log_uniform(rng, 1e-6, 3e3, n)
        # Where a term ahead of a suffix is a backend NaN, both builds raise.
        failing = []
        for i in range(n):
            try:
                single_pass_dnct(x[i], 2.0, delta[i], lam[i])
            except ArithmeticError:
                failing.append(i)
                with pytest.raises(ArithmeticError):
                    doubly_noncentral_t_cdf(x[i], 2.0, delta[i], lam[i])
        assert len(failing) < 5
        ok = np.setdiff1d(np.arange(n), failing)
        got = doubly_noncentral_t_cdf(x[ok], 2.0, delta[ok], lam[ok])
        assert np.array_equal(got, single_pass_dnct(x[ok], 2.0, delta[ok], lam[ok]))

    def test_working_memory_is_bounded(self):
        # 300 windows of about 1,000 terms, most of them open: the one-pass
        # build held every term at once and peaked at 35 MB.
        import tracemalloc

        half = np.linspace(2300.0, 2500.0, 300)
        x, delta = np.full(half.size, 0.1), np.linspace(0.0, 4.0, half.size)
        tracemalloc.start()
        try:
            p = doubly_noncentral_t_cdf(x, 2.0, delta, 2.0 * half)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all((p > 0.0) & (p < 1.0))
        assert peak < 4 * 2**20


class TestArrayArguments:
    """Array calls hold, element for element, what scalar calls return."""

    def test_marcum_q1_branches(self):
        # b == 0, a == 0, the far-tail cutoff, and the backend path.
        a = np.array([2.0, 0.0, 0.0, 15.0, 1.5, 3.0, 30.0])
        b = np.array([0.0, 0.0, 1.2, 4.0, 1.0, 3.5, 29.0])
        batch = marcum_q1(a, b)
        assert np.array_equal(batch, [marcum_q1(float(x), float(y)) for x, y in zip(a, b)])
        assert batch[0] == batch[1] == batch[3] == 1.0
        assert isinstance(marcum_q1(1.5, 1.0), float)

    def test_marcum_q1_broadcasts(self):
        a = np.array([0.0, 1.0, 4.0])[:, None]
        b = np.array([0.5, 2.0])
        assert marcum_q1(a, b).shape == (3, 2)
        with pytest.raises(DomainError):
            marcum_q1(a, -b)

    def test_noncentral_t_cdf(self):
        # The last element is saturated.
        x = np.array([1e-3, 0.3, 2.0, 1.5, 6.0, 40.0])
        delta = np.array([0.0, 1.3, 2.0, -0.5, 4.0, -9.0])
        batch = noncentral_t_cdf(x, 2.0, delta)
        assert np.array_equal(
            batch, [noncentral_t_cdf(float(u), 2.0, float(d)) for u, d in zip(x, delta)]
        )
        with pytest.raises(DomainError):
            noncentral_t_cdf(np.array([1.0, math.nan]), 2.0, 0.0)

    def test_doubly_noncentral_t_cdf(self, monkeypatch):
        # Windows of different lengths, from one term at lam = 1e-9 up, all
        # in one group and then one group per window.
        x = np.array([0.5, 2.0, 3.0, 1.2, 8.0])
        delta = np.array([1.3, 1.3, 6.0, 0.0, 20.0])
        lam = np.array([1e-9, 3.0, 40.0, 5.0, 900.0])
        for budget in (specfun._TERM_BUDGET, 1):
            monkeypatch.setattr(specfun, "_TERM_BUDGET", budget)
            batch = doubly_noncentral_t_cdf(x, 2.0, delta, lam)
            assert np.array_equal(
                batch,
                [
                    doubly_noncentral_t_cdf(float(u), 2.0, float(d), float(v))
                    for u, d, v in zip(x, delta, lam)
                ],
            )
        assert isinstance(doubly_noncentral_t_cdf(1.0, 2.0, 1.0, 3.0), float)
        assert doubly_noncentral_t_cdf(np.empty((0, 2)), 2.0, 1.0, 3.0).shape == (0, 2)
        with pytest.raises(DomainError):
            doubly_noncentral_t_cdf(x, 2.0, delta, -lam)


class TestRiceMoments:
    def test_rayleigh_mean(self):
        for sigma2 in (0.25, 1.0, 3.0):
            mu1, mu2 = rice_moments(0.0, sigma2)
            assert mu1 == pytest.approx(math.sqrt(math.pi * sigma2) / 2, rel=1e-12)
            assert mu2 == pytest.approx(sigma2, rel=1e-12)

    def test_noiseless_limit(self):
        nu = 2.0
        for sigma2 in (1e-2, 1e-4, 1e-6):
            mu1, mu2 = rice_moments(nu, sigma2)
            assert abs(mu1 - nu) <= sigma2  # mean error is O(sigma2/nu)
            assert abs(mu2 - nu * nu) <= sigma2 + 1e-12

    @pytest.mark.parametrize("args,expected", sorted(RICE_ORACLE.items()))
    def test_against_quadrature(self, args, expected):
        mu1, mu2 = rice_moments(*args)
        assert mu1 == pytest.approx(expected[0], rel=1e-10)
        assert mu2 == pytest.approx(expected[1], rel=1e-12)

    @given(
        nu=st.floats(min_value=0.0, max_value=50.0),
        sigma2=st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_second_moment_exact(self, nu, sigma2):
        _, mu2 = rice_moments(nu, sigma2)
        assert abs(mu2 - (nu * nu + sigma2)) <= 1e-12 * max(1.0, nu * nu + sigma2)

    def test_mean_matches_fresh_quadrature(self):
        # Independent oracle evaluated in-test for a couple of fresh points.
        for nu, sigma2 in ((0.7, 0.9), (2.5, 0.4)):
            def pdf(a):
                z = 2 * a * nu / sigma2
                return (2 * a / sigma2) * math.exp(-(a * a + nu * nu) / sigma2 + z) * special.i0e(z)

            oracle, _ = integrate.quad(lambda a: a * pdf(a), 0, np.inf, limit=400)
            mu1, _ = rice_moments(nu, sigma2)
            assert mu1 == pytest.approx(oracle, rel=1e-9)


class TestGaussianQ:
    def test_known_points(self):
        assert gaussian_q(0.0) == pytest.approx(0.5, abs=1e-15)
        assert gaussian_q(1.0) == pytest.approx(0.15865525393145707, rel=1e-12)
        assert gaussian_q(-1.0) + gaussian_q(1.0) == pytest.approx(1.0, abs=1e-15)


def marcum_q1_stats(a, b):
    """marcum_q1 through scipy.stats.ncx2, as computed before the ufunc calls."""
    a_, b_ = (v.ravel() for v in np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float)))
    q = np.ones(a_.shape)
    zero_a = (a_ == 0.0) & (b_ != 0.0)
    q[zero_a] = np.exp(-0.5 * b_[zero_a] * b_[zero_a])
    with np.errstate(over="ignore"):
        far = (b_ < a_) & ((a_ - b_) ** 2 > 76.0)
    rest = (b_ != 0.0) & (a_ != 0.0) & ~far
    a_r, b_r = a_[rest], b_[rest]
    q[rest] = stats.ncx2.sf(b_r * b_r, 2, a_r * a_r)
    return np.clip(q, 0.0, 1.0)


def nct_terms_stats(x, dof, delta):
    """Unclipped nct CDF through scipy.stats.nct, NaN where it fails."""
    return np.asarray(stats.nct.cdf(x, dof, delta), dtype=float)


def poisson_window(half):
    """Indices and renormalized weights of one Poisson(half) window, built alone."""
    width = 10.0 * math.sqrt(half) + 12.0
    j = np.arange(max(0, int(half - width)), int(half + width) + 1)
    log_w = -half + j * math.log(half) - special.gammaln(j + 1.0)
    log_w -= log_w.max()
    weights = np.exp(log_w)
    weights /= weights.sum()
    return j, weights


def dnct_cdf_stats(x, dof, delta, lam):
    """doubly_noncentral_t_cdf at x > 0, lam > 0, one window at a time."""
    p = []
    for x_i, dof_i, delta_i, lam_i in zip(x, dof, delta, lam):
        j, weights = poisson_window(0.5 * lam_i)
        df = dof_i + 2.0 * j
        terms = nct_terms_stats(x_i * np.sqrt(df / dof_i), df, np.full(j.size, delta_i))
        p.append(np.dot(weights, terms))
    return np.clip(p, 0.0, 1.0)


def full_length_suffix(x, dof, delta, starts, sizes):
    """Per window of the full-length term arrays, the offset of its first
    term proved saturated: the bisection of the one-pass build."""
    lo = np.full(sizes.shape, -1)
    hi = sizes.copy()
    while True:
        active = np.flatnonzero(hi - lo > 1)
        if not active.size:
            return hi
        mid = (lo[active] + hi[active]) // 2
        at = starts[active] + mid
        proved = chord_proved(x[at], dof[at], delta[at])
        hi[active[proved]] = mid[proved]
        lo[active[~proved]] = mid[~proved]


def single_pass_dnct(x, dof, delta, lam):
    """doubly_noncentral_t_cdf as one pass over every term of every window
    at once, the build that the grouped one replaced; kept as its oracle."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in (x, dof, delta, lam)))
    x, dof, delta, lam = (np.ravel(a) for a in np.broadcast_arrays(x, dof, delta, lam))
    j, weights, sizes = _poisson_windows(0.5 * lam)
    starts = np.cumsum(sizes) - sizes
    x_r, df, delta_r = full_terms(x, dof, delta, j, sizes)
    suffix = full_length_suffix(x_r, df, delta_r, starts, sizes)
    open_ = np.arange(j.size) < np.repeat(starts + suffix, sizes)
    terms = np.ones(j.size)
    terms[open_] = special.nctdtr(df[open_], delta_r[open_], x_r[open_])
    if np.isnan(terms).any():
        raise ArithmeticError("non-central t backend returned NaN")
    windows = zip(starts.tolist(), sizes.tolist())
    p = np.array([np.dot(weights[a : a + n], terms[a : a + n]) for a, n in windows])
    return np.clip(p, 0.0, 1.0).reshape(shape)


def log_uniform(rng, lo, hi, n):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)


class TestScipyStatsParity:
    """The scipy.special calls give, bit for bit, what scipy.stats gave.

    The kernels call the ufuncs behind ``stats.ncx2`` and ``stats.nct``
    plus the edge handling of those wrappers; these references are the
    earlier ``scipy.stats`` code, kept here only as an oracle.
    """

    # (x, dof, delta) where scipy's nct CDF returns NaN at x > 0; the
    # saturation bound answers the last two.
    NCT_NAN = [(0.0905924467944308, 0.26413949567557043, 37.366824186048035),
               (943.8271126928222, 0.11070807487815387, -43.658109528273705),
               (47.04540446930666, 32.37238555883154, -44.163732812689055)]

    def test_marcum_q1_random_grid(self):
        rng = np.random.default_rng(11)
        a, b = log_uniform(rng, 1e-3, 30.0, 3000), log_uniform(rng, 1e-3, 60.0, 3000)
        assert np.array_equal(marcum_q1(a, b), marcum_q1_stats(a, b))

    def test_marcum_q1_underflow_and_overflow(self):
        # b^2 underflows to 0, a^2 underflows to 0, b^2 (and a^2) overflow.
        a = np.array([0.5, 3.0, 1e-170, 1e-170, 1e-300, 1.0, 1e5, 1e160, 1.0, 1e-170])
        b = np.array([1e-170, 1e-170, 0.5, 2.0, 1.85e-305, 1e160, 1e160, 2e160, 1.85e-305, 1e-170])
        with np.errstate(over="ignore"):
            got = marcum_q1(a, b)
            assert np.array_equal(got, marcum_q1_stats(a, b))
        assert got[0] == got[1] == got[4] == got[8] == 1.0
        assert got[5] == got[6] == got[7] == 0.0

    def test_ncx2_tails_against_wrappers(self):
        # The survival function at x = 0, x = inf, nc = 0, subnormal x and
        # a random grid.
        rng = np.random.default_rng(12)
        x = [0.0, np.inf, 3.0, 5e-324, 1e-310, 2.0], log_uniform(rng, 1e-4, 1e4, 500)
        nc = [4.0, 4.0, 0.0, 50.0, 0.0, 1e-320], log_uniform(rng, 1e-4, 1e3, 500)
        x, nc = np.concatenate(x), np.concatenate(nc)
        assert np.array_equal(_ncx2_tail(x, nc), stats.ncx2.sf(x, 2, nc))

    def test_ncx2_backend_nan_raises(self, monkeypatch):
        def failing(x, dof, nc):
            return np.full(np.shape(x), np.nan)

        monkeypatch.setattr(specfun._ufuncs, "_ncx2_sf", failing)
        with pytest.raises(ArithmeticError):
            marcum_q1(np.array([1.5, 3.0]), 2.0)

    def test_noncentral_t_cdf_positive_x(self):
        rng = np.random.default_rng(13)
        n = 4000
        x = np.concatenate([log_uniform(rng, 1e-3, 1e3, n), [v[0] for v in self.NCT_NAN]])
        dof = np.concatenate([log_uniform(rng, 0.1, 1e4, n), [v[1] for v in self.NCT_NAN]])
        delta = np.concatenate([rng.uniform(-50.0, 60.0, n), [v[2] for v in self.NCT_NAN]])
        with np.errstate(invalid="ignore"):
            want = np.clip(nct_terms_stats(x, dof, delta), 0.0, 1.0)
        # Where the saturation bound proves the tail, the CDF is exactly 1;
        # there scipy gave 1.0, 1 minus a few ulp, or NaN.
        # TestSaturationScreen checks those tails by mpmath.
        proved = chord_proved(x, dof, delta)
        assert np.count_nonzero(np.isnan(want[proved])) == 52
        assert np.count_nonzero(want[proved] < 1.0) == 40
        # Elsewhere scipy's NaN is an ArithmeticError: at 13 points with
        # delta > 36 and at 4 with dof < 1 (3 of them both).
        failing = np.isnan(want) & ~proved
        assert np.count_nonzero(failing & (delta > 36)) == 13
        assert np.count_nonzero(failing & (dof < 1)) == 4
        assert np.count_nonzero(failing) == 14 and failing[n]
        for i in np.flatnonzero(failing):
            with pytest.raises(ArithmeticError):
                noncentral_t_cdf(x[i], dof[i], delta[i])
        with pytest.raises(ArithmeticError):
            noncentral_t_cdf(x, dof, delta)
        got = noncentral_t_cdf(x[~failing], dof[~failing], delta[~failing])
        assert np.all(got[proved[~failing]] == 1.0)
        assert np.array_equal(got[~proved[~failing]], want[~proved & ~failing])

    def test_doubly_noncentral_t_cdf_positive_x(self):
        rng = np.random.default_rng(14)
        n = 80
        x = np.concatenate([log_uniform(rng, 1e-2, 1e2, n), [self.NCT_NAN[0][0]]])
        dof = np.concatenate([log_uniform(rng, 1.0, 64.0, n), [self.NCT_NAN[0][1]]])
        delta = np.concatenate([rng.uniform(-5.0, 30.0, n), [self.NCT_NAN[0][2]]])
        lam = np.concatenate([log_uniform(rng, 1e-6, 100.0, n), [1e-3]])
        got = doubly_noncentral_t_cdf(x[:n], dof[:n], delta[:n], lam[:n])
        assert np.array_equal(got, dnct_cdf_stats(x[:n], dof[:n], delta[:n], lam[:n]))
        # The last point's leading window term is a backend NaN.
        with pytest.raises(ArithmeticError):
            doubly_noncentral_t_cdf(x, dof, delta, lam)
