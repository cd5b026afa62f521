"""Special-function kernel shared by the analytical modules.

Everything in here is a pure function of its arguments: the log of the
modified Bessel function I0, the first-order Marcum Q function, the
lower real branch of the Lambert W function, the Gaussian tail function,
Rice envelope moments, and the CDFs of the non-central and doubly
non-central t distributions.

The (doubly) non-central t CDFs have 2 degrees of freedom, the only
count the analysis uses, and are defined here for finite x > 0 and, for
the doubly non-central one, lam > 0: the domain of the
estimated-threshold analysis, which evaluates them at x = sqrt(sigma2) /
std with lam = 2 alpha_p / sigma2. Other arguments raise
:class:`DomainError`. The doubly non-central t CDF is a Poisson mixture
of non-central t CDFs with 2 + 2j degrees of freedom (the denominator's
non-central chi-square expanded over central chi-squares), each from
the ufunc behind scipy's ``nct.cdf``. Where a backend ufunc returns
NaN, the kernels raise ArithmeticError rather than substitute an
approximation.

The Gaussian tail, Marcum Q and (doubly) non-central t kernels take
NumPy arrays and return arrays of the broadcast shape, so a whole link
ensemble costs one backend call instead of one per link (the doubly
non-central t one call per group of windows of at most
:data:`_TERM_BUDGET` terms, which bounds its memory whatever the
ensemble size and lam); each element of a result is what a call on
that element alone returns.

Saturated window terms. With T = (Z + delta) / sqrt(V / df), V
central chi-square with df degrees of freedom, and x > 0, the CDF is
exactly 1.0 in double precision whenever the upper tail P(T > x) is
below 2^-55, under half the 2^-53 spacing of the doubles just below 1.
:func:`_chord_tail_bound` bounds that tail, with u = V / df and
c = (delta + z0) / x, z0 = :data:`_Z0_CHORD` = 9:

- T > x means Z + delta > x sqrt(u). Where sqrt(u) >= c that needs
  Z > z0, probability Q(9) = 1.1e-19. Where c <= 0 (delta <= -z0) that
  is every u, and Q(z0) is the whole bound.
- Otherwise split [0, c^2] at sqrt(u) = 0.7 c (:data:`_CHORD_KNOTS`). On
  each piece the concave sqrt(u) lies above its chord a_i u + b_i, so
  P(T > x, u in piece i) <= P(Z - k_i u > m_i) with k_i = x a_i and
  m_i = x b_i - delta. As E exp(-t V) = (1 + 2t)^(-df/2), the
  Chernoff bound exp(s^2/2 - s m_i - df/2 ln(1 + 2 s k_i / df)) holds for
  every s > 0; :func:`_chernoff_log_tail` takes its minimizer, the
  positive root of a quadratic.
- So P(T > x) <= Q(z0) + the two Chernoff bounds, and a term counts as
  proved where that sum is below :data:`_CHORD_TAIL` = 2^-56.

The computed Chernoff exponents carry a slack above their own rounding
error, and rounding in c, in the chords and in the term's computed x
moves the bound by a few ulp, far inside the factor of two between 2^-56
and 2^-55; a bound that overflows is NaN, which proves nothing. A proved
term is 1.0 without a backend call, which returns 1.0, 1 minus a few ulp
or NaN there.

Saturated window suffixes. Term j of a doubly non-central t window is a
non-central t CDF with df = 2 + 2j at x sqrt(df / 2), that is
P(Z + delta <= x sqrt(V_j / 2)) with V_j central chi-square with df
degrees of freedom. V_j increases stochastically with j, so for x > 0 no
term has a larger upper tail than the one before it: once one term's
tail is below 2^-55, every later term of its window is exactly 1.0 too.
:func:`_saturated_suffix` bisects each window for a term that the bound
proves, one :func:`_chord_tail_bound` per window and round, and only the
terms ahead of it go to the backend.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from ._loader import load

__all__ = [
    "DomainError",
    "log_bessel_i0",
    "gaussian_q",
    "marcum_q1",
    "lambert_w_minus1",
    "lambert_w_minus1_from_log",
    "noncentral_t_cdf",
    "doubly_noncentral_t_cdf",
    "rice_moments",
]

#: largest-magnitude negative argument of the Lambert W real branches, -1/e
_BRANCH_POINT = -math.exp(-1.0)

#: :func:`lambert_w_minus1` raises when |w e^w - x| exceeds the larger of these
_ABS_TOL = 1e-10
_REL_TOL = 1e-8


# Every kernel here calls these ufuncs, the very objects the public
# ``scipy.special`` names are, loaded without the package ``__init__``.
(_ufuncs,) = load("scipy.special", "_ufuncs")


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of a kernel."""


#: below this argument :func:`log_bessel_i0` sums the power series of I0
_I0_SERIES_CUTOFF = 5e-2


def log_bessel_i0(x: float) -> float:
    """Natural log of I0(x), stable for arbitrarily large x.

    ``x + log(i0e(x))`` takes the log of 1 + x^2/4 near 0 and keeps only
    about 1e-16 / (x^2/4) relative accuracy there, so below
    ``_I0_SERIES_CUTOFF`` the result is ``log1p`` of the series I0(x) - 1 =
    t + t^2/4 + t^3/36 + t^4/576 + ..., t = x^2/4, whose first omitted
    term is below 1.1e-17 of the sum there.
    """
    if not (x >= 0) or math.isinf(x):
        raise DomainError(f"log_bessel_i0 requires finite x >= 0, got {x!r}")
    if x < _I0_SERIES_CUTOFF:
        t = 0.25 * x * x
        return math.log1p(t * (1.0 + t * (0.25 + t * (1.0 / 36.0 + t / 576.0))))
    return x + math.log(float(_ufuncs.i0e(x)))


def _broadcast(*values) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Common shape of the arguments and their flat float64 broadcasts."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    return arrays[0].shape, [a.ravel() for a in arrays]


def gaussian_q(x: np.ndarray) -> np.ndarray:
    """Standard normal tail probability Q(x) = P(Z > x), elementwise."""
    return 0.5 * _ufuncs.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def marcum_q1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First-order Marcum Q function Q1(a, b).

    Tail probability of a Rice envelope with unit per-component noise
    variance: Q1(a, b) = P(sqrt((a + Z1)^2 + Z2^2) > b). Evaluated
    through the non-central chi-square survival function with two
    degrees of freedom and non-centrality a^2. The arguments broadcast
    and are evaluated in one backend call.
    """
    shape, (a_, b_) = _broadcast(a, b)
    if not (np.all(a_ >= 0) and np.all(b_ >= 0)) or np.isinf(a_).any() or np.isinf(b_).any():
        raise DomainError(f"marcum_q1 requires finite a, b >= 0, got {(a, b)!r}")
    q = np.ones(a_.shape)
    zero_a = (a_ == 0.0) & (b_ != 0.0)
    q[zero_a] = np.exp(-0.5 * b_[zero_a] * b_[zero_a])
    # For b well below a, 1 - Q1 <= 0.5*exp(-(a-b)^2/2) (standard Rice tail
    # bound), so the result rounds to 1.0 long before scipy's non-central
    # chi-square backend starts failing on extreme arguments.
    far = (b_ < a_) & ((a_ - b_) ** 2 > 76.0)
    rest = (b_ != 0.0) & (a_ != 0.0) & ~far
    if rest.any():
        a_r, b_r = a_[rest], b_[rest]
        q[rest] = _ncx2_tail(b_r * b_r, a_r * a_r)
    return np.clip(q, 0.0, 1.0).reshape(shape)


def _ncx2_tail(x: np.ndarray, nc: np.ndarray) -> np.ndarray:
    """Non-central chi-square survival function, two degrees of freedom.

    Calls the ufunc behind scipy's ``ncx2.sf`` with the edge handling
    that wrapper adds: the exact tail values at x <= 0 and x = inf, and
    the central chi-square tail where the non-centrality is 0 (the bare
    ufunc returns -0.0 at x = 0 and NaN at x = inf). Raises
    ArithmeticError where the ufunc returns NaN.
    """
    out = np.where(x <= 0.0, 1.0, 0.0)
    inside = (x > 0.0) & (x < np.inf)
    mixed, central = inside & (nc != 0.0), inside & (nc == 0.0)
    with np.errstate(over="ignore"):
        out[mixed] = _ufuncs._ncx2_sf(x[mixed], 2.0, nc[mixed])
        out[central] = _ufuncs.chdtrc(2.0, x[central])
    return _no_nan(out, "ncx2 survival", x=x, nc=nc)


def _no_nan(out: np.ndarray, backend: str, **args: np.ndarray) -> np.ndarray:
    """``out`` itself, or ArithmeticError naming the first NaN's arguments."""
    bad = np.flatnonzero(np.isnan(out))
    if bad.size:
        at = ", ".join(f"{name}={float(v[bad[0]])!r}" for name, v in args.items())
        raise ArithmeticError(f"{backend} backend returned NaN at {at}")
    return out


def lambert_w_minus1(x: float) -> float:
    """Lower real branch W_{-1}(x) of the Lambert W function.

    Solves w * exp(w) = x for the branch with w <= -1; defined for
    x in [-1/e, 0).
    """
    if not (_BRANCH_POINT <= x < 0.0):
        raise DomainError(f"lambert_w_minus1 requires x in [-1/e, 0), got {x!r}")
    w = float(_ufuncs._lambertw(x, -1, 1e-8).real)
    if math.isnan(w):
        # lambertw can fail within a few ulp of the branch point; the
        # expansion in p = -sqrt(2(1 + e*x)) is accurate there.
        p = -math.sqrt(max(2.0 * (1.0 + math.e * x), 0.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    # One Newton polish in the log form log|w| + w = log|x| keeps the
    # round-trip within tolerance away from the branch point.
    if w < -1.0 - 1e-9:
        f = math.log(-w) + w - math.log(-x)
        w -= f / (1.0 + 1.0 / w)
    residual = w * math.exp(w) - x
    if not abs(residual) <= max(_ABS_TOL, _REL_TOL * abs(x)):
        raise ArithmeticError(
            f"lambert_w_minus1 failed to converge at x={x!r} (residual {residual:.3e})"
        )
    return w


def lambert_w_minus1_from_log(log_neg_x: float) -> float:
    """W_{-1}(x) for x = -exp(log_neg_x), usable when x itself underflows.

    Requires log_neg_x <= -1 (i.e. x in [-1/e, 0)). For representable
    arguments this defers to :func:`lambert_w_minus1`; deep in the tail
    it switches to the standard two-log asymptotic expansion, whose
    truncation error is far below the residual tolerance there.
    """
    if not log_neg_x <= -1.0:
        raise DomainError(
            f"lambert_w_minus1_from_log requires log_neg_x <= -1, got {log_neg_x!r}"
        )
    if log_neg_x >= -700.0:
        return lambert_w_minus1(-math.exp(log_neg_x))
    l1 = log_neg_x
    l2 = math.log(-l1)
    return (
        l1
        - l2
        + l2 / l1
        + l2 * (l2 - 2.0) / (2.0 * l1 * l1)
        + l2 * (6.0 - 9.0 * l2 + 2.0 * l2 * l2) / (6.0 * l1**3)
    )


def _check_t_args(name: str, x: np.ndarray, delta: np.ndarray) -> None:
    """DomainError unless every x is finite and > 0 and every delta finite."""
    if not np.all((x > 0) & (x < np.inf)):
        raise DomainError(f"{name} requires finite x > 0")
    if not np.all(np.isfinite(delta)):
        raise DomainError(f"{name} requires finite delta")


def noncentral_t_cdf(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """CDF of the 2-dof non-central t distribution at finite x > 0, in closed form.

    Distribution of (Z + delta) / R, Z standard normal and R = sqrt(V / 2)
    with V central chi-square with 2 degrees of freedom, so R
    has density 2 r exp(-r^2). Integrating P(Z <= x r - delta) by parts
    and completing the square gives F = Phi(-delta) + (x / r) exp(-(delta
    / r)^2) Phi(delta x / r), r = hypot(x, sqrt 2): two non-negative
    terms, which keep the relative accuracy of their factors down to the
    subnormal range. The arguments broadcast.
    """
    shape, (x_, delta_) = _broadcast(x, delta)
    _check_t_args("noncentral_t_cdf", x_, delta_)
    r = np.hypot(x_, math.sqrt(2.0))
    tail = x_ / r * np.exp(-((delta_ / r) ** 2)) * _ufuncs.ndtr(delta_ * x_ / r)
    return np.clip(_ufuncs.ndtr(-delta_) + tail, 0.0, 1.0).reshape(shape)


#: z0 of the saturation bound: Q(9) = 1.1e-19 (module docstring)
_Z0_CHORD = 9.0

#: upper tail below which the saturation bound answers 1.0, 2^-56
_CHORD_TAIL = 2.0**-56

#: the chords of sqrt(u) run between sqrt(u) = f c for consecutive f here
_CHORD_KNOTS = (0.0, 0.7, 1.0)

#: Q(z0) of the saturation bound
_Q_Z0_CHORD = 0.5 * float(_ufuncs.erfc(_Z0_CHORD / math.sqrt(2.0)))


def _chernoff_log_tail(k: np.ndarray, m: np.ndarray, df: np.ndarray) -> np.ndarray:
    """ln of the Chernoff bound on P(Z - k V / df > m), 0 where it is vacuous.

    Z standard normal, V central chi-square with ``df`` degrees of
    freedom, k > 0. With E exp(-t V) = (1 + 2t)^(-df/2) the bound is
    exp(s^2/2 - s m - df/2 ln(1 + 2 s k / df)) for every s > 0; its
    minimizer is the positive root of (2k/df) s^2 + (1 - 2mk/df) s - (m + k).
    The exponent is raised by 2^-44 times the sum of its terms' magnitudes,
    more than the rounding error of its computed value; arguments that
    overflow give NaN, never a bound below 1.
    """
    a = 2.0 * k / df
    b = 1.0 - m * a
    excess = m + k
    root = np.sqrt(b * b + 4.0 * a * np.maximum(excess, 0.0))
    # The cancellation-free form of the positive root for either sign of b.
    s = np.where(b >= 0.0, 2.0 * excess / (b + root), (root - b) / (2.0 * a))
    square, linear, mgf = 0.5 * s * s, s * m, 0.5 * df * np.log1p(a * s)
    log_tail = square - linear - mgf + 2.0**-44 * (square + np.abs(linear) + mgf)
    return np.where(excess > 0.0, np.minimum(log_tail, 0.0), 0.0)


def _chord_tail_bound(x: np.ndarray, df: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Upper bound on the non-central t upper tail P(T > x), x > 0.

    Q(z0) plus one Chernoff bound per chord of sqrt(u) on [0, c^2], with
    c = (delta + z0) / x (module docstring); Q(z0) alone where c <= 0.
    NaN where the arguments are too extreme for the bound to be formed,
    so a comparison with it is false.
    """
    c = (delta + _Z0_CHORD) / x
    bound = np.full(x.shape, _Q_Z0_CHORD)
    inside = c > 0.0
    x_in, df_in, delta_in, c_in = x[inside], df[inside], delta[inside], c[inside]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo, hi in zip(_CHORD_KNOTS, _CHORD_KNOTS[1:]):
            # The chord of sqrt(u) through sqrt(u) = lo c and hi c: slope
            # 1 / ((lo + hi) c), intercept lo hi c / (lo + hi).
            k = x_in / ((lo + hi) * c_in)
            m = x_in * (lo * hi / (lo + hi) * c_in) - delta_in
            bound[inside] += np.exp(_chernoff_log_tail(k, m, df_in))
    return bound


def _term_args(
    x: np.ndarray, delta: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The non-central t arguments ``(x sqrt(df / 2), df, delta)``,
    df = 2 + 2j, of the mixture term ``j`` of each element's window.

    The one place these are formed, so a bisection probe and a term of a
    group hold the same bits.
    """
    df = 2.0 + 2.0 * j
    return x * np.sqrt(df / 2.0), df, delta


def _saturated_suffix(
    x: np.ndarray, delta: np.ndarray, j_lo: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Per window, the offset of a term whose CDF and later ones round to 1.0.

    The window of element i holds the terms ``j_lo[i]`` to ``j_lo[i] +
    sizes[i] - 1`` of its ``(x, delta)`` (:func:`_term_args`). A
    bisection, one vectorised round over every window at a time, keeps
    ``hi`` at a term that :func:`_chord_tail_bound` proves saturated (or
    one past the window) and ``lo`` below it; every later term of the
    window is saturated too (module docstring). ``sizes[i]`` where no
    term is proved. Only the probed terms are formed.
    """
    lo = np.full(sizes.shape, -1)
    hi = sizes.copy()
    while True:
        active = np.flatnonzero(hi - lo > 1)
        if not active.size:
            return hi
        mid = (lo[active] + hi[active]) // 2
        probe = _term_args(x[active], delta[active], j_lo[active] + mid)
        proved = _chord_tail_bound(*probe) < _CHORD_TAIL
        hi[active[proved]] = mid[proved]
        lo[active[~proved]] = mid[~proved]


def _window_bounds(half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and size of each Poisson(half) mixture window, which
    spans half +- (10 sqrt(half) + 12) (:func:`_poisson_windows`)."""
    width = 10.0 * np.sqrt(half) + 12.0
    j_lo = np.maximum(half - width, 0.0).astype(np.int64)
    return j_lo, (half + width).astype(np.int64) - j_lo + 1


def _poisson_windows(half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices and renormalized weights of the Poisson(half) mixture windows.

    Returns the concatenated indices ``j`` and weights of every window
    and the window sizes. Each window spans half +- (10 sqrt(half) + 12);
    its mass outside is below 1e-20, so renormalizing the enclosed
    weights both absorbs the truncation and cancels the common
    floating-point drift of the log-pmf at very large means. Every
    operation is elementwise or per window, so a window holds what it
    would if it were built alone: the logs go through ``math.log``,
    which ``np.log`` does not match everywhere, and each window is summed
    on its own, in numpy's pairwise order.
    """
    j_lo, sizes = _window_bounds(half)
    starts = np.cumsum(sizes) - sizes
    j = np.arange(sizes.sum()) - np.repeat(starts - j_lo, sizes)
    log_half = np.array([math.log(h) for h in half.tolist()])
    log_w = -np.repeat(half, sizes) + j * np.repeat(log_half, sizes) - _ufuncs.gammaln(j + 1.0)
    log_w -= np.repeat(np.maximum.reduceat(log_w, starts), sizes)
    weights = np.exp(log_w)
    sums = [weights[a : a + n].sum() for a, n in zip(starts.tolist(), sizes.tolist())]
    weights /= np.repeat(sums, sizes)
    return j, weights, sizes


#: mixture terms built at once by :func:`doubly_noncentral_t_cdf`: it
#: builds consecutive windows in groups of at most this many terms (a
#: larger window alone), which bounds its working memory
_TERM_BUDGET = 1 << 14


def _window_groups(sizes: np.ndarray) -> Iterator[tuple[int, int]]:
    """``(first, end)`` of consecutive windows, each group as many as fit
    in :data:`_TERM_BUDGET` terms and at least one."""
    ends = np.cumsum(sizes)
    first = 0
    while first < sizes.size:
        budget = ends[first] - sizes[first] + _TERM_BUDGET
        end = max(int(np.searchsorted(ends, budget, side="right")), first + 1)
        yield first, end
        first = end


def doubly_noncentral_t_cdf(x: np.ndarray, delta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """CDF of the doubly non-central t distribution at finite x > 0, lam > 0.

    Distribution of (Z + delta) / sqrt(W / 2) where W is non-central
    chi-square with 2 degrees of freedom and non-centrality
    ``lam``. The non-central chi-square is expanded as a Poisson(lam/2)
    mixture of central chi-squares with 2 + 2j degrees of freedom, so
    each mixture term is a rescaled non-central t CDF. Each window keeps
    the terms that hold all but 1e-20 of the mass (:func:`_poisson_windows`).

    The arguments broadcast. Each window's saturated suffix (module
    docstring) is found for every element at once and is 1.0 without a
    backend call. The windows are then built in consecutive groups of at
    most :data:`_TERM_BUDGET` terms: the open terms of a group go to one
    backend call, and each element is reduced over its own window exactly
    as a call on that element alone would, so the working memory is
    bounded whatever the number of elements and the size of lam.
    """
    shape, (x_, delta_, lam_) = _broadcast(x, delta, lam)
    _check_t_args("doubly_noncentral_t_cdf", x_, delta_)
    if not np.all((lam_ > 0) & (lam_ < np.inf)):
        raise DomainError(f"doubly_noncentral_t_cdf requires finite lam > 0, got {lam!r}")
    half = 0.5 * lam_
    j_lo, sizes = _window_bounds(half)
    suffix = _saturated_suffix(x_, delta_, j_lo, sizes)
    p = np.empty(half.shape)
    for first, end in _window_groups(sizes):
        group = slice(first, end)
        j, weights, group_sizes = _poisson_windows(half[group])
        starts = np.cumsum(group_sizes) - group_sizes
        # Terms ahead of their window's saturated suffix.
        n_open = suffix[group]
        open_ = np.arange(j.size) < np.repeat(starts + n_open, group_sizes)
        repeated = (np.repeat(a[group], n_open) for a in (x_, delta_))
        x_o, df_o, delta_o = _term_args(*repeated, j[open_])
        terms = np.ones(j.size)
        terms[open_] = _no_nan(
            _ufuncs.nctdtr(df_o, delta_o, x_o), "non-central t", x=x_o, dof=df_o, delta=delta_o
        )
        windows = zip(starts.tolist(), group_sizes.tolist())
        p[group] = [np.dot(weights[a : a + n], terms[a : a + n]) for a, n in windows]
    return np.clip(p, 0.0, 1.0).reshape(shape)


def rice_moments(nu: float, sigma2: float) -> tuple[float, float]:
    """First two moments of a Rice envelope.

    The envelope is |nu + n| of a complex Gaussian sample n with total
    variance ``sigma2`` (sigma2/2 per real component). Returns
    (E[a], E[a^2]); the second moment is nu^2 + sigma2 exactly, and the
    mean uses the exponentially scaled Bessel closed form so it is
    stable at any SNR.
    """
    if not (nu >= 0) or math.isinf(nu):
        raise DomainError(f"rice_moments requires finite nu >= 0, got {nu!r}")
    if not sigma2 > 0 or math.isinf(sigma2):
        raise DomainError(f"rice_moments requires finite sigma2 > 0, got {sigma2!r}")
    z = nu * nu / (2.0 * sigma2)
    mu1 = 0.5 * math.sqrt(math.pi * sigma2) * (
        (1.0 + 2.0 * z) * float(_ufuncs.i0e(z)) + 2.0 * z * float(_ufuncs.i1e(z))
    )
    mu2 = nu * nu + sigma2
    return mu1, mu2
