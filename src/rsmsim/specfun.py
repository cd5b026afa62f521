"""Special-function kernel shared by the analytical modules.

Everything in here is a pure function of its arguments: modified Bessel
I0 (linear and log domain), the first-order Marcum Q function, the
lower real branch of the Lambert W function, the Gaussian tail function,
Rice envelope moments, and the CDFs of the non-central and doubly
non-central t distributions.

The doubly non-central t CDF is evaluated as a Poisson mixture of
non-central t CDFs (the denominator's non-central chi-square expanded
over central chi-squares), which reduces exactly to the singly
non-central case when the denominator non-centrality vanishes.

The Gaussian tail, Marcum Q and (doubly) non-central t kernels take
NumPy arrays, so a whole link ensemble costs one backend call instead of
one per link; an array result holds, element for element, what a scalar
call with that element returns.

Saturated non-central t terms. With T = (Z + delta) / sqrt(V / dof),
V central chi-square, and x > 0, the CDF is exactly 1.0 in double
precision whenever the upper tail P(T > x) is below 2^-55, under half
the 2^-53 spacing of the doubles just below 1. :func:`_nct_saturated`
proves that bound from either of two sufficient conditions, each giving
Q(z0) + 2^-56 < 2^-55 with z0 = :data:`_Z0` = 8.5 (Q(8.5) = 9.5e-18 is
below 2^-56 = 1.4e-17):

- delta < -z0. T > x > 0 needs Z + delta > 0, so P(T > x) <= Q(-delta).
- c = (delta + z0) / x in (0, 1) and dof/2 (1 - c^2 + 2 ln c) below
  :data:`_LOG_TAIL_SHARE` = ln 2^-56. T > x needs either V / dof < c^2
  or Z > c x - delta = z0, so P(T > x) <= Q(z0) + P(V < c^2 dof); the
  chi-square Chernoff bound puts the second term below
  exp(dof/2 (1 - c^2 + 2 ln c)).

Rounding in the computed c and exponent shifts the effective z0 and
the exponent by a few ulp, far inside the factor-of-two margin between
2^-55 and the 2^-54 that correct rounding needs. Such terms are
answered without calling the backend, which returns 1.0, 1 minus a few
ulp, or NaN there; its NaN calls are the slowest of the doubly
non-central t windows.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special
from scipy.special import _ufuncs

__all__ = [
    "DomainError",
    "bessel_i0",
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


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of a kernel."""


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Computed from the exponentially scaled form so the result stays
    accurate for large arguments; overflows to ``inf`` only past the
    double-precision range (x > ~709), where :func:`log_bessel_i0`
    should be used instead.
    """
    if not (x >= 0) or math.isinf(x):
        raise DomainError(f"bessel_i0 requires finite x >= 0, got {x!r}")
    return float(special.i0e(x)) * math.exp(x) if x < 700 else math.exp(log_bessel_i0(x))


def log_bessel_i0(x: float) -> float:
    """Natural log of I0(x), stable for arbitrarily large x."""
    if not (x >= 0) or math.isinf(x):
        raise DomainError(f"log_bessel_i0 requires finite x >= 0, got {x!r}")
    return x + math.log(float(special.i0e(x)))


def _broadcast(*values) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Common shape of the arguments and their flat float64 broadcasts."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    return arrays[0].shape, [a.ravel() for a in arrays]


def _shaped(out: np.ndarray, shape: tuple[int, ...]) -> float | np.ndarray:
    """A float for scalar arguments, otherwise ``out`` in the broadcast shape."""
    return float(out[0]) if shape == () else out.reshape(shape)


def gaussian_q(x: float | np.ndarray) -> float | np.ndarray:
    """Standard normal tail probability Q(x) = P(Z > x), elementwise."""
    q = 0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    return float(q) if q.ndim == 0 else q


def marcum_q1(a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
    """First-order Marcum Q function Q1(a, b).

    Tail probability of a Rice envelope with unit per-component noise
    variance: Q1(a, b) = P(sqrt((a + Z1)^2 + Z2^2) > b). Evaluated
    through the non-central chi-square survival function with two
    degrees of freedom and non-centrality a^2. Array arguments broadcast
    and are evaluated in one backend call; scalars give a float.
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
        x_r, nc_r = b_r * b_r, a_r * a_r
        q_r = _ncx2_tail(x_r, nc_r, survival=True)
        bad = np.isnan(q_r)
        if bad.any():
            # The survival backend NaNs for subnormal arguments with large
            # non-centrality; the CDF path is well behaved there.
            q_r[bad] = 1.0 - _ncx2_tail(x_r[bad], nc_r[bad], survival=False)
        q[rest] = q_r
    return _shaped(np.clip(q, 0.0, 1.0), shape)


def _ncx2_tail(x: np.ndarray, nc: np.ndarray, survival: bool) -> np.ndarray:
    """Non-central chi-square survival function or CDF, two degrees of freedom.

    Calls the ufuncs behind scipy's ``ncx2.sf`` / ``ncx2.cdf`` with the
    edge handling those wrappers add: the exact tail values at x <= 0 and
    x = inf, and the central chi-square tail where the non-centrality is
    0 (the bare survival ufunc returns -0.0 at x = 0 and NaN at x = inf).
    """
    out = np.where(x <= 0.0, float(survival), float(not survival))
    inside = (x > 0.0) & (x < np.inf)
    mixed, central = inside & (nc != 0.0), inside & (nc == 0.0)
    with np.errstate(over="ignore"):
        if survival:
            out[mixed] = _ufuncs._ncx2_sf(x[mixed], 2.0, nc[mixed])
            out[central] = special.chdtrc(2.0, x[central])
        else:
            out[mixed] = special.chndtr(x[mixed], 2.0, nc[mixed])
            out[central] = special.chdtr(2.0, x[central])
    return out


def lambert_w_minus1(x: float) -> float:
    """Lower real branch W_{-1}(x) of the Lambert W function.

    Solves w * exp(w) = x for the branch with w <= -1; defined for
    x in [-1/e, 0).
    """
    if not (_BRANCH_POINT <= x < 0.0):
        raise DomainError(f"lambert_w_minus1 requires x in [-1/e, 0), got {x!r}")
    w = float(special.lambertw(x, k=-1).real)
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


def noncentral_t_cdf(
    x: float | np.ndarray, dof: float | np.ndarray, delta: float | np.ndarray
) -> float | np.ndarray:
    """CDF of the non-central t distribution.

    Distribution of (Z + delta) / sqrt(V / dof) with Z standard normal
    and V central chi-square with ``dof`` degrees of freedom. Array
    arguments broadcast and are evaluated in one backend call; scalars
    give a float.
    """
    shape, (x_, dof_, delta_) = _broadcast(x, dof, delta)
    if not np.all(dof_ > 0):
        raise DomainError(f"noncentral_t_cdf requires dof > 0, got {dof!r}")
    if np.isnan(x_).any():
        raise DomainError("noncentral_t_cdf requires x to be a number")
    p = (x_ > 0).astype(float)
    finite = np.isfinite(x_)
    if finite.any():
        p[finite] = _nct_cdf_finite(x_[finite], dof_[finite], delta_[finite])
    return _shaped(np.clip(p, 0.0, 1.0), shape)


#: z0 of the saturation screen: Q(8.5) = 9.5e-18 < 2^-56 (module docstring)
_Z0 = 8.5

#: ln 2^-56, the Chernoff share of the screen's 2^-55 tail bound
_LOG_TAIL_SHARE = -56.0 * math.log(2.0)


def _nct_saturated(x: np.ndarray, dof: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Where x > 0 and P(T > x) < 2^-55 provably, so the CDF rounds to 1.0.

    Either condition of the module docstring is enough: delta < -z0, or
    c = (delta + z0) / x in (0, 1) with a chi-square Chernoff exponent
    dof/2 (1 - c^2 + 2 ln c) below ln 2^-56.
    """
    positive = x > 0
    c = np.divide(delta + _Z0, x, out=np.zeros(x.shape), where=positive)
    inside = (c > 0.0) & (c < 1.0)
    c_in = c[inside]
    exponent = 0.5 * dof[inside] * (1.0 - c_in * c_in + 2.0 * np.log(c_in))
    chernoff = np.zeros(x.shape, dtype=bool)
    chernoff[inside] = exponent < _LOG_TAIL_SHARE
    return positive & ((delta < -_Z0) | chernoff)


def _nct_cdf_finite(x: np.ndarray, dof: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Non-central t CDF at finite x, unclipped.

    Elements with x > 0 whose CDF :func:`_nct_saturated` proves to round
    to 1 are exactly 1.0. The other elements with x > 0 go to the exact
    backend (the ufunc behind scipy's ``nct.cdf``); those with x <= 0,
    whose backend result has only an absolute accuracy of ~1e-16, and
    those where the backend returns NaN go to :func:`_nct_cdf_fallback`.
    """
    p = np.full(x.shape, np.nan)
    saturated = _nct_saturated(x, dof, delta)
    p[saturated] = 1.0
    rest = (x > 0) & ~saturated
    p[rest] = special.nctdtr(dof[rest], delta[rest], x[rest])
    bad = np.isnan(p)
    if bad.any():
        p[bad] = _nct_cdf_fallback(x[bad], dof[bad], delta[bad])
    return p


def _nct_cdf_fallback(x: np.ndarray, dof: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Non-central t CDF where the exact backend is not used or fails.

    Elements with x <= 0 are integrated by :func:`_nct_cdf_nonpositive`.
    Elements with x > 0 (where the backend returned NaN) take the
    large-dof normal approximation, whose accuracy is not established.
    The saturation screen answers, before the backend is called, the
    points where it was known to be wrong (0.834 at x = 42.18,
    dof = 1.31, delta = -39.8, where the CDF rounds to 1). Of the 4,003
    points of the scipy parity grid, 14 still reach it: 12 with
    delta > 36, where it returns values below 1e-200, and 2 with
    dof < 1, where it returns NaN.
    """
    p = np.empty(x.shape)
    low = x <= 0
    if low.any():
        p[low] = _nct_cdf_nonpositive(x[low], dof[low], delta[low])
    x, dof, delta = x[~low], dof[~low], delta[~low]
    shrink = 1.0 - 3.0 / (4.0 * dof - 1.0)
    z = (x * shrink - delta) / np.sqrt(1.0 + x * x / (2.0 * (dof - 1.0)))
    p[~low] = special.ndtr(z)
    return p


#: the integration range ends where the integrand is exp(-_LOG_DROP) of its peak
_LOG_DROP = 50.0


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """64-node rule for each side of the peak in :func:`_nct_cdf_nonpositive`.

    Built on first use: its eigensolver call costs ~1 MB of resident
    memory, which an import should not.
    """
    return np.polynomial.legendre.leggauss(64)


def _nct_cdf_nonpositive(x: np.ndarray, dof: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Non-central t CDF for x <= 0 by quadrature, accurate in the far tail.

    With R ~ chi(dof) and w = log R the CDF is the integral over w of
    h(w) = Phi(x e^w / sqrt(dof) - delta) f_R(e^w) e^w. For x <= 0,
    log h is concave (log Phi is concave and increasing, its argument
    concave in w), so it has one peak, found by bisection on the slope,
    and falls monotonically on either side. Each side is integrated up to
    where h has dropped by exp(-_LOG_DROP), beyond which concavity bounds
    the remaining mass, with a 64-node Gauss-Legendre rule in the log
    domain, so results far below the double-precision epsilon (or an
    underflow to 0) keep their relative accuracy.
    """
    # Column vectors, so the quadrature nodes run along the second axis.
    x, dof, delta = x[:, None], dof[:, None], delta[:, None]
    a = x / np.sqrt(dof)
    log_norm = (0.5 * dof - 1.0) * math.log(2.0) + special.gammaln(0.5 * dof)

    def log_h(w: np.ndarray) -> np.ndarray:
        r = np.exp(w)
        return special.log_ndtr(a * r - delta) + dof * w - 0.5 * r * r - log_norm

    def slope(w: np.ndarray) -> np.ndarray:
        r = np.exp(w)
        z = a * r - delta
        mills = np.exp(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - special.log_ndtr(z))
        return a * r * mills + dof - r * r

    # The slope is below dof - r^2 everywhere and near dof at the lower end.
    lo = 0.5 * np.log(dof) - np.log1p(np.abs(a) * (np.abs(delta) + 1.0)) - 20.0
    hi = 0.5 * np.log(dof) + 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        rising = slope(mid) > 0
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    peak = 0.5 * (lo + hi)
    top = log_h(peak)
    nodes, weights = _gauss_legendre()
    total = np.zeros(x.shape)
    for side in (-1.0, 1.0):
        far = peak + side
        while (short := log_h(far) > top - _LOG_DROP).any():
            far = np.where(short, peak + 2.0 * (far - peak), far)
        near = peak
        for _ in range(60):
            mid = 0.5 * (near + far)
            inside = log_h(mid) > top - _LOG_DROP
            near, far = np.where(inside, mid, near), np.where(inside, far, mid)
        half = 0.5 * (far - peak)
        w = peak + half * (nodes + 1.0)
        # A row sum, not a matrix product, so a row does not depend on the batch.
        total += np.abs(half) * (np.exp(log_h(w) - top) * weights).sum(axis=1, keepdims=True)
    return (np.exp(top) * total).ravel()


def _poisson_window(half: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices and renormalized weights of the Poisson(half) mixture window."""
    width = 10.0 * math.sqrt(half) + 12.0
    j_lo = max(0, int(half - width))
    j_hi = int(half + width)
    j = np.arange(j_lo, j_hi + 1)
    # Window mass outside +-10 sigma is below 1e-20, so renormalizing the
    # enclosed weights both absorbs the truncation and cancels the common
    # floating-point drift of the log-pmf at very large means.
    log_w = -half + j * math.log(half) - special.gammaln(j + 1.0)
    log_w -= log_w.max()
    weights = np.exp(log_w)
    weights /= weights.sum()
    return j, weights


def doubly_noncentral_t_cdf(
    x: float | np.ndarray,
    dof: float | np.ndarray,
    delta: float | np.ndarray,
    lam: float | np.ndarray,
) -> float | np.ndarray:
    """CDF of the doubly non-central t distribution.

    Distribution of (Z + delta) / sqrt(W / dof) where W is non-central
    chi-square with ``dof`` degrees of freedom and non-centrality
    ``lam``. The non-central chi-square is expanded as a Poisson(lam/2)
    mixture of central chi-squares with dof + 2j degrees of freedom, so
    each mixture term is a rescaled non-central t CDF. Truncation keeps
    all terms until the remaining Poisson mass is below 1e-14.

    Array arguments broadcast; the mixture terms of every element go
    through one backend call, and each element is then reduced over its
    own window exactly as a scalar call would. Scalars give a float.
    """
    shape, (x_, dof_, delta_, lam_) = _broadcast(x, dof, delta, lam)
    if not np.all(dof_ > 0):
        raise DomainError(f"doubly_noncentral_t_cdf requires dof > 0, got {dof!r}")
    if not np.all(lam_ >= 0):
        raise DomainError(f"doubly_noncentral_t_cdf requires lam >= 0, got {lam!r}")
    if np.isnan(x_).any():
        raise DomainError("doubly_noncentral_t_cdf requires x to be a number")
    p = (x_ > 0).astype(float)
    central = lam_ == 0.0
    if central.any():
        p[central] = noncentral_t_cdf(x_[central], dof_[central], delta_[central])
    mixed = np.flatnonzero(~central & np.isfinite(x_))
    if mixed.size:
        windows, args, dfs, deltas = [], [], [], []
        for i in mixed:
            j, weights = _poisson_window(0.5 * float(lam_[i]))
            df = dof_[i] + 2.0 * j
            windows.append(weights)
            args.append(x_[i] * np.sqrt(df / dof_[i]))
            dfs.append(df)
            deltas.append(np.full(j.size, delta_[i]))
        args, dfs, deltas = np.concatenate(args), np.concatenate(dfs), np.concatenate(deltas)
        terms = _nct_cdf_finite(args, dfs, deltas)
        start = 0
        for i, weights in zip(mixed, windows):
            stop = start + weights.size
            p[i] = np.dot(weights, terms[start:stop])
            start = stop
    return _shaped(np.clip(p, 0.0, 1.0), shape)


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
        (1.0 + 2.0 * z) * float(special.i0e(z)) + 2.0 * z * float(special.i1e(z))
    )
    mu2 = nu * nu + sigma2
    return mu1, mu2
