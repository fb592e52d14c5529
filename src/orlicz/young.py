"""Young-function calculus.

A Young function is A(s) = int_0^s a(r) dr with a non-decreasing,
left-continuous density a, possibly jumping to infinity at a finite
threshold (the L-infinity case).  This module provides the shipped
analytic families, Young conjugation, generalized inverses, Delta_2 /
nabla_2 growth classification, the domination relation B(s) <= A(Cs),
and the two integral balance conditions

    (I)   t * int_0^t B(s)/s^2 ds        <=  A(c t)
    (II)  t * int_0^t conj(A)(s)/s^2 ds  <=  conj(B)(c t)

whose joint finiteness makes a pair (A, B) admissible for the
negative-norm and divergence-equation estimates downstream.

Conjugates of the logarithmic families grow like exp(s), far past the
double range over the working grid, so conjugation and the balance
integrals run in log space: every family exposes log A(s), and the
slowly-growing ones also expose their density and log-value at
log-scale arguments, where s itself would overflow.

Instances are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

GRID_MIN = 1e-6
GRID_MAX = 1e6
GRID_POINTS = 600

# Span searched by the log-axis bisections: wide enough that every
# shipped family is tiny at the left end and huge (or infinite) at the
# right end.
_BISECT_LO = 1e-18
_BISECT_HI = 1e18
_BISECT_ITERS = 90

# abscissae of the balance and domination scans over [GRID_MIN, GRID_MAX]
_SCAN_POINTS = 240

_CONJ_TABLE_POINTS = 16384
_CONJ_TABLE_LO = 1e-9
_CONJ_TABLE_HI = 1e9
# the table's node inversion: density samples on a uniform log grid
# bracket every node, Illinois steps close each bracket to a width of
# _CONJ_RTOL * max(1, |log t|), and a node still open after _CONJ_STEPS
# steps is bisected instead
_CONJ_GRID_POINTS = 1024
_CONJ_RTOL = 1e-12
_CONJ_STEPS = 10

# log t beyond which exp(t) would overflow the node arithmetic; the
# log-domain bisection may range far past it since it never exponentiates
_U_SAFE = 650.0
_U_MAX = 1e8


def default_grid():
    """Geometric sample grid shared by all tabulated representations."""
    return np.geomspace(GRID_MIN, GRID_MAX, GRID_POINTS)


def _bisect_boundary_log(pred_u, shape, lo=-745.0, hi=_U_MAX):
    """Largest u with pred_u(u) True, for a vectorized monotone predicate
    of the log variable u = log s.

    pred_u maps an array of log abscissae to booleans, True on the low
    side, so the search can range over magnitudes whose exponential
    would overflow.  Points where pred_u is False already at lo come
    back as -inf, points where it still holds at hi come back as +inf.
    Once every midpoint equals an end of its bracket, no later step
    changes it, so the search stops there with the result of all
    _BISECT_ITERS steps.
    """
    lo_arr = np.full(shape, lo, dtype=float)
    hi_arr = np.full(shape, hi, dtype=float)
    ok_lo = pred_u(lo_arr)
    ok_hi = pred_u(hi_arr)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo_arr + hi_arr)
        if np.all((mid == lo_arr) | (mid == hi_arr)):
            break
        good = pred_u(mid)
        lo_arr = np.where(good, mid, lo_arr)
        hi_arr = np.where(good, hi_arr, mid)
    out = 0.5 * (lo_arr + hi_arr)
    out = np.where(ok_lo, out, -np.inf)
    out = np.where(ok_hi, np.inf, out)
    return out


def _bisect_boundary(pred, shape):
    """_bisect_boundary_log over [_BISECT_LO, _BISECT_HI] for a predicate
    of s itself, returning s: 0.0 where pred fails already at the left
    end, inf where it still holds at the right end."""
    return np.exp(_bisect_boundary_log(lambda u: pred(np.exp(u)), shape,
                                       math.log(_BISECT_LO),
                                       math.log(_BISECT_HI)))


class YoungFunction:
    """One Young function: analytic family member, tabulated density,
    or a numerically conjugated instance.

    Attributes
    ----------
    kind : str
        One of "power", "zygmund", "exponential", "eyring", "cap",
        "tabulated", "conjugate".
    params : tuple of float
        Family parameters (empty for eyring / tabulated / conjugate).
    allows_infinity : bool
        True when A(s) = inf beyond a finite threshold.
    """

    def __init__(self, kind, params, density_fn, eval_fn, *,
                 log_eval_fn=None, logarg_density_fn=None,
                 logarg_logeval_fn=None, inf_threshold=None, base=None,
                 knots=None):
        self.kind = kind
        self.params = tuple(float(p) for p in params)
        self._density_fn = density_fn
        self._eval_fn = eval_fn
        self._log_eval_fn = log_eval_fn
        self._logarg_density_fn = logarg_density_fn
        self._logarg_logeval_fn = logarg_logeval_fn
        self.inf_threshold = inf_threshold
        self.allows_infinity = inf_threshold is not None
        self.base = base          # underlying function for kind="conjugate"
        self.knots = knots        # (r, a) arrays for kind="tabulated"
        self._table = None        # lazy log-log value table (conjugate kind)
        self._conj_cache = None

    # -- evaluation ---------------------------------------------------

    def eval(self, s):
        """A(s), elementwise; inf beyond the threshold for capped kinds."""
        scalar = np.ndim(s) == 0
        s = np.asarray(s, float)
        if self.kind == "conjugate":
            with np.errstate(over="ignore"):
                out = np.exp(self._log_eval_conjugate(s))
            if not scalar:
                return out
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.asarray(self._eval_fn(s), float)
        return float(out[()]) if scalar and out.ndim == 0 else (
            float(out.ravel()[0]) if scalar else out)

    __call__ = eval

    def log_eval(self, s):
        """log A(s); -inf where A vanishes, +inf past a cap threshold.

        Stays finite where A itself would overflow the double range
        (exponential family, conjugates of the logarithmic families).
        """
        s = np.asarray(s, float)
        if self.kind == "conjugate":
            return self._log_eval_conjugate(s)
        if self._log_eval_fn is not None:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return self._log_eval_fn(s)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.log(self.eval(s))

    def density(self, r):
        r = np.asarray(r, float)
        with np.errstate(over="ignore"):
            return self._density_fn(r)

    def density_logarg(self, u):
        """Density at s = exp(u), valid for u past the overflow point.

        Only the slowly-growing analytic kinds need (and provide) a
        dedicated implementation; the rest go through exp(u).
        """
        u = np.asarray(u, float)
        if self._logarg_density_fn is not None:
            with np.errstate(over="ignore"):
                return self._logarg_density_fn(u)
        with np.errstate(over="ignore"):
            return self.density(np.exp(np.minimum(u, 709.0)))

    def logeval_logarg(self, u):
        """log A(exp(u)) for u past the overflow point."""
        u = np.asarray(u, float)
        if self._logarg_logeval_fn is not None:
            with np.errstate(over="ignore", divide="ignore"):
                return self._logarg_logeval_fn(u)
        with np.errstate(over="ignore", divide="ignore"):
            return self.log_eval(np.exp(np.minimum(u, 709.0)))

    # -- generalized inverses ----------------------------------------

    def inverse(self, r):
        """Right-continuous inverse sup{s : A(s) <= r}.

        Ties over a flat zero stretch resolve to the right endpoint, so
        e.g. the capped kind returns its threshold for every finite r;
        at r = 0 the test log A(s) <= -inf finds the end of A's zero set.
        """
        scalar = np.ndim(r) == 0
        r = np.atleast_1d(np.asarray(r, float))
        with np.errstate(divide="ignore"):
            logr = np.where(r > 0, np.log(np.maximum(r, 1e-300)), -np.inf)
        out = _bisect_boundary(lambda s: self.log_eval(s) <= logr, r.shape)
        return float(out[0]) if scalar else out

    def inverse_left(self, r):
        """Left inverse inf{s : A(s) >= r}; 0 at r = 0."""
        scalar = np.ndim(r) == 0
        r = np.atleast_1d(np.asarray(r, float))
        with np.errstate(divide="ignore"):
            logr = np.where(r > 0, np.log(np.maximum(r, 1e-300)), -np.inf)
        out = self.inverse_left_log(logr)
        if self.allows_infinity:
            out = np.where(np.isinf(r), self.inf_threshold, out)
        return float(out[0]) if scalar else out

    def inverse_left_log(self, logr):
        """inf{s : log A(s) >= logr}, taking the target in log form."""
        logr = np.asarray(logr, float)
        out = _bisect_boundary(lambda s: self.log_eval(s) < logr, logr.shape)
        return np.where(np.isneginf(logr), 0.0, out)

    # -- conjugation --------------------------------------------------

    def conjugate(self):
        """Young conjugate sup_r (r s - A(r)).

        Powers and the capped kind conjugate in closed form; tabulated
        densities flip their knots exactly (piecewise-linear Legendre
        duality); the remaining kinds conjugate by the Legendre formula
        at the density inverse, read from a table (_build_conj_table).
        """
        if self._conj_cache is not None:
            return self._conj_cache
        if self.kind == "power":
            p, coeff = self.params
            if p == 1.0:
                out = linear_cap(coeff)
            else:
                q = p / (p - 1.0)
                cq = ((p - 1.0) / p) * (coeff * p) ** (-1.0 / (p - 1.0))
                out = power(q, cq)
        elif self.kind == "cap":
            out = power(1.0, self.inf_threshold)
        elif self.kind == "tabulated":
            out = _flip_tabulated(self)
        else:
            # the conjugate refers to a cache-free copy of this function,
            # so the two are not a reference cycle, which only a full
            # garbage collection would free
            out = _numeric_conjugate(copy.copy(self))
        self._conj_cache = out
        return out

    def _log_eval_conjugate(self, s):
        # table abscissa is log(s - s_zero): the conjugate vanishes at
        # s_zero = a(0+), quadratically when the base density starts flat
        if self._table is None:
            self._table = _build_conj_table(self)
        x, coef, s_zero = self._table
        s = np.atleast_1d(np.asarray(s, float))
        if s.size and s.min() > s_zero:
            xs = np.log(s - s_zero)
            if x[0] <= xs.min() and xs.max() <= x[-1]:
                return _table_lookup(x, coef, xs)
        out = np.full(s.shape, -np.inf)
        pos = s > s_zero
        if np.any(pos):
            sp = s[pos]
            xs = np.log(sp - s_zero)
            lv = _table_lookup(x, coef, np.clip(xs, x[0], x[-1]))
            outside = (xs < x[0]) | (xs > x[-1])
            if np.any(outside):
                lv[outside] = _conj_log_eval_exact(self.base, sp[outside])
            out[pos] = lv
        return out

    def eval_exact(self, s):
        """Bisection-backed evaluation (no interpolation table).

        Same value as eval for analytic kinds; for conjugates this is
        the slow reference path the table is checked against.
        """
        s = np.atleast_1d(np.asarray(s, float))
        if self.kind != "conjugate":
            return self.eval(s)
        with np.errstate(over="ignore"):
            out = np.exp(_conj_log_eval_exact(self.base, s))
        return out if out.shape != () else float(out)

    # -- growth classes ----------------------------------------------

    def classify_delta2(self):
        """Growth class for A(2s) <= C A(s): global / near_infinity / fails."""
        return _classify(self, "delta2")

    def classify_nabla2(self):
        """Growth class for A(2s) >= C A(s) with C > 2."""
        return _classify(self, "nabla2")

    # -- serialization ------------------------------------------------

    def to_dict(self):
        d = {"kind": self.kind, "params": list(self.params)}
        if self.kind == "tabulated":
            d["grid"] = self.knots[0].tolist()
            d["density"] = self.knots[1].tolist()
        if self.kind == "conjugate":
            d["base"] = self.base.to_dict()
        return d

    def __repr__(self):
        if self.kind == "conjugate":
            return "conjugate(%r)" % (self.base,)
        inner = ":".join("%g" % p for p in self.params)
        return "%s(%s)" % (self.kind, inner) if inner else "%s()" % self.kind


# ---------------------------------------------------------------------------
# shipped families


def power(p, coeff=1.0):
    """A(s) = coeff * s**p, p >= 1.  The plain family has coeff = 1;
    conjugation introduces scaled members."""
    p = float(p)
    coeff = float(coeff)
    if p < 1.0:
        raise ValueError("power exponent must be >= 1, got %g" % p)
    if coeff <= 0.0:
        raise ValueError("power coefficient must be positive")

    def dens(r):
        r = np.asarray(r, float)
        if p == 1.0:
            return np.full_like(r, coeff)
        return coeff * p * r ** (p - 1.0)

    def lg(s):
        s = np.asarray(s, float)
        with np.errstate(divide="ignore"):
            return math.log(coeff) + p * np.log(s)

    return YoungFunction("power", (p, coeff), dens,
                         lambda s: coeff * s ** p, log_eval_fn=lg)


def zygmund(p, alpha):
    """A(s) = s**p * log(1+s)**alpha.

    The logarithmic-perturbation scale; alpha = 0 degenerates to the
    plain power.  The density is the closed-form derivative, and it must
    come out non-decreasing, which restricts alpha >= 0 when p = 1.
    """
    p = float(p)
    alpha = float(alpha)
    if p < 1.0:
        raise ValueError("zygmund exponent must be >= 1")
    if alpha == 0.0:
        # plain power; its bounded-density conjugate needs the closed form
        return power(p)

    def ev(s):
        s = np.asarray(s, float)
        return s ** p * np.log1p(s) ** alpha

    def dens(r):
        r = np.asarray(r, float)
        L = np.log1p(r)
        out = p * r ** (p - 1.0) * L ** alpha
        with np.errstate(invalid="ignore", divide="ignore"):
            out = out + alpha * r ** p * L ** (alpha - 1.0) / (1.0 + r)
        return np.where(r == 0.0, 0.0, out)

    # alpha < 0 can make the density fall, which no other family's
    # accepted parameters do, so only this family samples its density
    with np.errstate(over="ignore"):
        d = dens(default_grid())
    finite = d[np.isfinite(d)]
    if finite.size and np.any(np.diff(finite) < -1e-12 * max(finite.max(), 1.0)):
        raise ValueError("density must be non-decreasing")
    if finite.size and finite.min() < 0:
        raise ValueError("density must be non-negative")

    def lg(s):
        s = np.asarray(s, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = p * np.log(s) + alpha * np.log(np.log1p(s))
        return np.where(s == 0.0, -np.inf, out)

    def dens_logarg(u):
        # L(e^u) = u + log1p(e^-u), stable for huge u
        u = np.asarray(u, float)
        L = np.where(u > 0, u + np.log1p(np.exp(-np.abs(u))),
                     np.log1p(np.exp(np.minimum(u, 0.0))))
        with np.errstate(over="ignore"):
            lead = p * np.exp(np.minimum((p - 1.0) * u, 709.0)) * L ** alpha
            corr = alpha * np.exp(np.minimum(u * p - np.logaddexp(0.0, u), 709.0)) \
                * L ** (alpha - 1.0)
        return lead + corr

    def logeval_logarg(u):
        u = np.asarray(u, float)
        L = np.where(u > 0, u + np.log1p(np.exp(-np.abs(u))),
                     np.log1p(np.exp(np.minimum(u, 0.0))))
        with np.errstate(divide="ignore", invalid="ignore"):
            return p * u + alpha * np.log(L)

    return YoungFunction("zygmund", (p, alpha), dens, ev, log_eval_fn=lg,
                         logarg_density_fn=dens_logarg,
                         logarg_logeval_fn=logeval_logarg)


def exponential(beta):
    """Young function equivalent to exp(s**beta) - 1 near infinity.

    For beta >= 1 that expression is itself convex.  For beta < 1 it is
    concave near zero, so it is replaced below the tangent point t*
    (where the chord from the origin touches) by that chord; the result
    is convex, agrees with exp(s**beta) - 1 above t*, and joins C^1.
    """
    beta = float(beta)
    if beta <= 0.0:
        raise ValueError("exponential rate must be positive")

    g = lambda t: np.expm1(t ** beta)

    def gp(t):
        with np.errstate(over="ignore"):
            return beta * t ** (beta - 1.0) * np.exp(t ** beta)

    if beta >= 1.0:
        tstar, slope = 0.0, 0.0
    else:
        try:
            tc = ((1.0 - beta) / beta) ** (1.0 / beta)
        except OverflowError:
            tc = math.inf
        h = lambda t: t * gp(t) - g(t)
        hi = tc
        while math.isfinite(hi) and h(hi) <= 0.0:
            hi *= 2.0
        if not math.isfinite(hi):
            raise ValueError("exponential rate %g is too small: its tangent "
                             "point overflows" % beta)
        tstar = brentq(h, tc, hi, xtol=1e-15, rtol=8.9e-16)
        slope = float(g(tstar) / tstar)

    def ev(s):
        s = np.asarray(s, float)
        if tstar == 0.0:
            return g(s)
        return np.where(s > tstar, g(np.maximum(s, tstar)), slope * s)

    def dens(r):
        r = np.asarray(r, float)
        if tstar == 0.0:
            out = gp(np.maximum(r, 1e-300))
            return np.where(r == 0.0, beta if beta == 1.0 else 0.0, out)
        return np.where(r > tstar, gp(np.maximum(r, tstar)), slope)

    def lg(s):
        s = np.asarray(s, float)
        x = s ** beta
        with np.errstate(divide="ignore", invalid="ignore"):
            small_val = np.log(np.expm1(np.minimum(x, 30.0)))
            big_val = x + np.log1p(-np.exp(-np.minimum(x, 700.0)))
        out = np.where(x > 30.0, big_val, small_val)
        if tstar > 0.0:
            with np.errstate(divide="ignore"):
                out = np.where(s > tstar, out, np.log(slope * s))
        return out

    A = YoungFunction("exponential", (beta,), dens, ev, log_eval_fn=lg)
    _, d_lo, d_hi = _conj_table_span(A)
    if not d_hi > d_lo:
        raise ValueError("exponential rate %g is too small: its conjugate "
                         "vanishes over the whole table range" % beta)
    return A


def eyring():
    """Potential of the Eyring constitutive law: density arcsinh(r),
    hence A(s) = s*arcsinh(s) - sqrt(1+s^2) + 1."""

    def ev(s):
        s = np.asarray(s, float)
        # expm1/log1p form avoids cancellation near zero
        return s * np.arcsinh(s) - np.expm1(0.5 * np.log1p(s * s))

    def dens_logarg(u):
        # arcsinh(e^u) = u + log(1 + sqrt(1 + e^-2u))
        u = np.asarray(u, float)
        return np.where(u > 20.0, u + math.log(2.0),
                        np.arcsinh(np.exp(np.minimum(u, 21.0))))

    def logeval_logarg(u):
        u = np.asarray(u, float)
        big = u + np.log(np.maximum(dens_logarg(u) - 1.0, 1e-300))
        small = np.full_like(u, -np.inf)
        mod = u < 300.0
        if np.any(mod):
            small_vals = ev(np.exp(np.minimum(u, 300.0)))
            with np.errstate(divide="ignore"):
                small = np.where(mod, np.log(np.maximum(small_vals, 1e-300)), small)
        return np.where(u >= 300.0, big, small)

    return YoungFunction("eyring", (),
                         lambda r: np.arcsinh(np.asarray(r, float)), ev,
                         logarg_density_fn=dens_logarg,
                         logarg_logeval_fn=logeval_logarg)


def linear_cap(threshold=1.0):
    """The L-infinity Young function: A = 0 on [0, threshold], inf beyond.

    Conjugate of the linear power; its own conjugate is linear again.
    """
    th = float(threshold)
    if th <= 0.0:
        raise ValueError("threshold must be positive")

    def ev(s):
        s = np.asarray(s, float)
        return np.where(s <= th, 0.0, np.inf)

    def dens(r):
        r = np.asarray(r, float)
        return np.where(r <= th, 0.0, np.inf)

    def lg(s):
        s = np.asarray(s, float)
        return np.where(s <= th, -np.inf, np.inf)

    return YoungFunction("cap", (th,), dens, ev, log_eval_fn=lg,
                         inf_threshold=th)


def tabulated(grid, density):
    """Young function from density samples on given knots.

    The density is piecewise linear between knots, constant at its first
    value below the first knot and at its last value beyond the last.
    Evaluation integrates that interpolant exactly (no quadrature), so
    conjugation by knot flipping is an exact involution.
    """
    r = np.asarray(grid, float)
    a = np.asarray(density, float)
    if r.ndim != 1 or r.shape != a.shape or r.size < 2:
        raise ValueError("grid and density must be 1-d arrays of equal length >= 2")
    if np.any(np.diff(r) <= 0) or r[0] < 0:
        raise ValueError("grid must be nonnegative and strictly increasing")
    if np.any(np.diff(a) < 0) or a[0] < 0:
        raise ValueError("density must be non-negative and non-decreasing")
    return _tabulated_from_knots(r.copy(), a.copy())


def _tabulated_from_knots(r, a):
    # knots may repeat: a repeated abscissa is a jump of the density, the
    # device that makes conjugation by knot flipping exact (flat density
    # runs and jumps swap roles under the flip).  Zero-width segments
    # contribute nothing to the cumulative integral.
    segs = 0.5 * (a[:-1] + a[1:]) * np.diff(r)
    cum = np.concatenate([[a[0] * r[0]], a[0] * r[0] + np.cumsum(segs)])

    def ev(s):
        s = np.asarray(s, float)
        out = np.empty_like(s)
        below = s <= r[0]
        out[below] = a[0] * s[below]
        above = s >= r[-1]
        out[above] = cum[-1] + a[-1] * (s[above] - r[-1])
        mid = ~(below | above)
        if np.any(mid):
            sm = s[mid]
            idx = np.searchsorted(r, sm, side="right") - 1
            dr = sm - r[idx]
            wid = r[idx + 1] - r[idx]
            aa = np.where(wid > 0, a[idx] + (a[idx + 1] - a[idx]) * dr
                          / np.where(wid > 0, wid, 1.0), a[idx])
            out[mid] = cum[idx] + 0.5 * (a[idx] + aa) * dr
        return out

    def dens(q):
        q = np.asarray(q, float)
        # right-continuous at jumps: the last knot <= q wins
        idx = np.clip(np.searchsorted(r, q, side="right") - 1, 0, r.size - 1)
        nxt = np.minimum(idx + 1, r.size - 1)
        wid = r[nxt] - r[idx]
        frac = np.where(wid > 0,
                        (q - r[idx]) / np.where(wid > 0, wid, 1.0), 0.0)
        val = a[idx] + (a[nxt] - a[idx]) * np.clip(frac, 0.0, 1.0)
        return np.where(q < r[0], a[0], val)

    return YoungFunction("tabulated", (), dens, ev, knots=(r, a))


def _flip_tabulated(A):
    """Exact conjugate of a tabulated density: swap the knot axes.

    A leading (a0, 0) knot encodes the zero stretch of the inverse below
    the first density value; flat density runs become jumps, which the
    piecewise-linear calculus represents as merged knots.
    """
    r, a = A.knots
    fr, fa = a, r
    if fr[0] > 0.0:
        # the inverse vanishes below the first density value and jumps to
        # the first knot there; a duplicated abscissa encodes the jump
        fr = np.concatenate([[fr[0]], fr])
        fa = np.concatenate([[0.0], fa])
    # an exactly repeated pair carries no information
    keep = np.concatenate([[True], (fr[1:] != fr[:-1]) | (fa[1:] != fa[:-1])])
    fr = fr[keep]
    fa = fa[keep]
    if fr.size < 2:
        fr = np.concatenate([fr, [fr[-1] * 2.0 + 1.0]])
        fa = np.concatenate([fa, [fa[-1]]])
    return _tabulated_from_knots(fr, fa)


# ---------------------------------------------------------------------------
# numeric conjugation


def _invert_density_logdomain(A, sigma, lo=-745.0, hi=_U_MAX):
    """log of the density inverse, searched in the log variable.

    The largest u with a(e^u) < sigma, for each target sigma.  Targets
    that share a bracket share its midpoint, so sorted targets, such as
    the table nodes that _invert_density_table leaves open, probe in
    runs of equal midpoints.  The density is evaluated once per run of
    bitwise-equal midpoints, so each target sees the value it would see
    on its own.  lo and hi bound the search, per target or for all.
    """
    sigma = np.asarray(sigma, float)

    def pred_u(u):
        flat = u.ravel()
        bits = flat.view(np.int64)
        start = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
        dens = A.density_logarg(flat[start])
        runs = np.diff(np.append(start, flat.size))
        return np.repeat(dens, runs).reshape(u.shape) < sigma

    return _bisect_boundary_log(pred_u, sigma.shape, lo, hi)


def _invert_density_table(A, sigma):
    """_invert_density_logdomain for increasing 1-d targets, each to
    within _CONJ_RTOL * max(1, |u|) in u, from a few density
    evaluations per target.

    The two end targets are bisected, each from its bracket on a grid
    of _CONJ_GRID_POINTS values of u sinh-spaced over the whole search
    range: where the density is monotone in floating point, that ends
    on the same adjacent doubles as a search of the whole range, in
    about 30 fewer steps.  The density on a uniform grid of
    u between their inverses is a monotone column of pairs (a(e^u), u),
    the parametric form of the Legendre transform (Rockafellar, Convex
    Analysis, section 26), and a search of the targets in that column
    brackets each one.  Illinois regula falsi on g(u) = log a(e^u) -
    log sigma then closes every bracket at once, probing the secant
    root shifted by -tol/4 and then by +tol/4 as spaces.luxemburg_norm
    does.  A target the grid does not bracket, or whose bracket is still
    open after _CONJ_STEPS steps (where the density is flat, or
    log sigma sits at rounding level), is bisected.
    """
    u = np.empty(sigma.size)
    grid = np.sinh(np.linspace(math.asinh(-745.0), math.asinh(_U_MAX),
                               _CONJ_GRID_POINTS))
    grid[[0, -1]] = -745.0, _U_MAX
    k = np.searchsorted(A.density_logarg(grid), sigma[[0, -1]])
    u[[0, -1]] = ends = _invert_density_logdomain(
        A, sigma[[0, -1]], grid[np.maximum(k - 1, 0)],
        grid[np.minimum(k, grid.size - 1)])
    pending = np.ones(sigma.size, bool)
    pending[[0, -1]] = False
    if np.all(np.isfinite(ends)) and ends[0] < ends[1]:
        _close_brackets(A, np.log(sigma), ends, u, pending)
    rest = np.flatnonzero(pending)
    if rest.size:
        u[rest] = _invert_density_logdomain(A, sigma[rest])
    return u


def _log_density_gap(A, u, log_sigma):
    with np.errstate(divide="ignore"):
        return np.log(A.density_logarg(u)) - log_sigma


def _close_brackets(A, log_sigma, ends, u, pending):
    """The grid brackets and Illinois steps of _invert_density_table:
    writes u of every pending target whose bracket closes and clears
    its pending flag."""
    grid = np.linspace(ends[0], ends[1], _CONJ_GRID_POINTS)
    log_a = _log_density_gap(A, grid, 0.0)
    k = np.clip(np.searchsorted(np.maximum.accumulate(log_a), log_sigma),
                1, grid.size - 1)
    node = np.flatnonzero(pending & (log_a[k - 1] < log_sigma)
                          & (log_sigma <= log_a[k]))
    k, log_sigma = k[node], log_sigma[node]
    lo, hi = grid[k - 1], grid[k]
    g_lo, g_hi = log_a[k - 1] - log_sigma, log_a[k] - log_sigma
    last = np.zeros(node.size, np.int8)
    for step in range(_CONJ_STEPS + 1):
        closed = hi - lo <= _CONJ_RTOL * np.maximum(1.0, np.maximum(-lo, hi))
        u[node[closed]] = 0.5 * (lo[closed] + hi[closed])
        pending[node[closed]] = False
        if step == _CONJ_STEPS or np.all(closed):
            return
        keep = ~closed
        node, log_sigma = node[keep], log_sigma[keep]
        lo, hi, g_lo, g_hi = lo[keep], hi[keep], g_lo[keep], g_hi[keep]
        last = _illinois_step(A, lo, hi, g_lo, g_hi, log_sigma, last[keep])


def _illinois_step(A, lo, hi, g_lo, g_hi, log_sigma, last):
    """One step on the brackets [lo, hi] of g with ends g_lo < 0 <= g_hi,
    in place, as spaces.luxemburg_norm takes it.  last says which ends
    the step before moved; returns which ends this one moved: hi (1),
    lo (2), or, probing twice, either (3)."""
    shift = _CONJ_RTOL / 4.0 * np.maximum(1.0, np.maximum(-lo, hi))
    # where g is infinite at an end (the density vanishes or overflows)
    # the step is a midpoint
    with np.errstate(invalid="ignore", over="ignore"):
        slope = (g_hi - g_lo) / (hi - lo)
        root = hi - g_hi / slope
    down, up = root - shift, root + shift
    secant = np.isfinite(slope)
    down_in = secant & (lo < down) & (down < hi)
    up_in = secant & (lo < up) & (up < hi)
    probe = np.where(down_in, down, np.where(up_in, up, 0.5 * (lo + hi)))
    g = _log_density_gap(A, probe, log_sigma)
    below = g < 0.0
    np.copyto(lo, probe, where=below)
    np.copyto(g_lo, g, where=below)
    np.copyto(hi, probe, where=~below)
    np.copyto(g_hi, g, where=~below)
    moved = np.where(below, 2, 1).astype(np.int8)
    # the second probe is skipped unless the first lands below the root
    # and the secant does not put the root past the second
    again = np.flatnonzero(below & down_in & up_in
                           & (g >= -2.0 * slope * shift))
    if again.size:
        probe = up[again]
        g = _log_density_gap(A, probe, log_sigma[again])
        below = g < 0.0
        lo[again] = np.where(below, probe, lo[again])
        g_lo[again] = np.where(below, g, g_lo[again])
        hi[again] = np.where(below, hi[again], probe)
        g_hi[again] = np.where(below, g_hi[again], g)
        moved[again] = 3
    # Illinois: when one end moves two steps running, the value kept at
    # the other end is halved
    g_lo[(moved == 1) & (last == 1)] /= 2.0
    g_hi[(moved == 2) & (last == 2)] /= 2.0
    return moved


def _conj_log_eval_exact(A, s):
    """log conj(A)(s) by the Legendre formula at the bisected maximizer."""
    s = np.asarray(s, float)
    return _legendre_log(A, s, _invert_density_logdomain(A, s))


def _legendre_log(A, s, u):
    """log conj(A)(s) = log(s t - A(t)) at the maximizer t = e^u.

    Works where t = a^{-1}(s) itself overflows double range (conjugates
    of the logarithmic families grow like exp(s)): only log t is ever
    formed.  The value is stationary in t, so an error delta in u moves
    it by O(delta^2) only.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logm = A.logeval_logarg(u) - u      # log of A(t)/t
        frac = np.exp(np.minimum(logm - np.log(s), 0.0))
        out = np.log(s) + u + np.log1p(-np.where(frac >= 1.0, 1.0 - 1e-16, frac))
        out = np.where(np.isnan(logm) & np.isfinite(u), np.log(s) + u, out)
    out = np.where(np.isneginf(u), -np.inf, out)
    out = np.where(np.isposinf(u), np.inf, out)
    return out


def _conj_table_span(base):
    """(s_zero, d_lo, d_hi): the conjugate of base vanishes up to
    s_zero = a(0+), and its table spans s - s_zero in [d_lo, d_hi]; the
    span is empty unless d_hi > d_lo."""
    s_zero = float(np.asarray(base.density(np.asarray([1e-300]))).ravel()[0])
    a9 = float(np.asarray(base.density(np.asarray([1e9]))).ravel()[0])
    if not np.isfinite(a9):
        hi = _CONJ_TABLE_HI
    else:
        hi = max(_CONJ_TABLE_HI, a9 * 1e3)
        cap = float(np.asarray(
            base.density_logarg(np.asarray([_U_SAFE]))).ravel()[0])
        if np.isfinite(cap):
            hi = min(hi, cap * 0.98)
    if s_zero > 0.0:
        hi = max(hi, 2.0 * s_zero)
    return s_zero, max(_CONJ_TABLE_LO, s_zero * 1e-14), hi - s_zero


def _build_conj_table(C):
    """Monotone cubic table of log conj on a log abscissa grid.

    Node values come from the log-domain Legendre formula at maximizers
    found by _invert_density_table, a few density evaluations per node;
    evaluation outside the tabulated span takes the formula at a
    bisected maximizer per call.  The top end is confined so
    interpolation error stays tiny even for the exponential-type
    conjugates, whose log value is convex in log s.
    Returns the breakpoints x = log(s - s_zero), scipy's PCHIP
    coefficients on them (shape (4, len(x) - 1)) and s_zero.
    """
    base = C.base
    s_zero, d_lo, d_hi = _conj_table_span(base)
    if not d_hi > d_lo:
        raise ValueError("conjugate vanishes over the whole table range")

    d = np.geomspace(d_lo, d_hi, _CONJ_TABLE_POINTS)
    s = s_zero + d
    logv = _legendre_log(base, s, _invert_density_table(base, s))
    good = np.isfinite(logv)
    if not np.all(good):
        first = int(np.argmax(good))
        last = len(good) - int(np.argmax(good[::-1]))
        d, logv = d[first:last], logv[first:last]
        if d.size < 2:
            raise ValueError("degenerate conjugate table")
    x = np.log(d)
    coef = PchipInterpolator(x, logv).c
    return x, coef, s_zero


def _table_lookup(x, coef, xs):
    """The cubic table with breakpoints x and coefficients coef at xs.

    xs must lie in [x[0], x[-1]].  The grid x is the log of a geomspace,
    uniform to a few ulps, so the interval follows from one division and
    one correction against x[k] and x[k + 1] instead of a search; it is
    the interval scipy's PPoly picks (x[k] <= xs < x[k + 1], the last
    one closed).  The cubic is summed in the order of scipy's
    evaluate_poly1, so the result equals the PchipInterpolator's bit for
    bit.
    """
    n = x.size - 1
    k = ((xs - x[0]) * (n / (x[-1] - x[0]))).astype(np.intp)
    np.minimum(k, n - 1, out=k)
    k -= xs < x.take(k)
    k += xs >= x[1:].take(k)
    np.minimum(k, n - 1, out=k)
    d = xs - x.take(k)
    d2 = d * d
    c0, c1, c2, c3 = coef
    return c3.take(k) + c2.take(k) * d + c1.take(k) * d2 \
        + c0.take(k) * (d2 * d)


def _numeric_conjugate(A):
    # the conjugate density is the left-continuous inverse of A's; at e^u
    # it is a^{-1}(e^u), bisected against log a, so e^u may overflow
    def dens(sigma):
        return _bisect_boundary(lambda t: A.density(t) < sigma, sigma.shape)

    def dens_logarg(u):
        def pred(t):
            with np.errstate(divide="ignore", over="ignore"):
                return np.log(A.density(t)) < u
        return _bisect_boundary(pred, u.shape)

    return YoungFunction("conjugate", (), dens, None, base=A,
                         logarg_density_fn=dens_logarg)


# ---------------------------------------------------------------------------
# growth classification


@dataclass(frozen=True)
class GrowthClass:
    """Result of a doubling-condition test or a domination comparison.

    verdict is "global", "near_infinity" or, when the condition fails,
    "fails" (doubling) or "no" (domination); constant is the measured
    constant over the certified range, s0 the lower threshold for the
    near-infinity verdict (0 for global).
    """
    verdict: str
    constant: float
    s0: float

    def holds(self):
        return self.verdict in ("global", "near_infinity")


# Log-divergent least-c curves grow with top-window slope >= 1/log(range)
# (0.036 on the default span); slowly convergent ones measure <= 0.016.
# The cut sits between the two regimes.
_SLOPE_TOL = 0.025


def _window_log_slope(logt, logv):
    """Least-squares slope of log v against log t over a boundary window.

    nan when fewer than 4 finite points are available; callers treat
    that as no evidence of divergence.
    """
    good = np.isfinite(logv) & np.isfinite(logt)
    if np.count_nonzero(good) < 4:
        return math.nan
    x = logt[good]
    y = logv[good]
    x = x - x.mean()
    return float(np.dot(x, y) / np.dot(x, x))


def _diverges_top(t, vals):
    """True when vals grows with a definite positive log slope at the
    top of the range (log-type divergence, not slow convergence)."""
    win = t >= t[-1] / 100.0
    slope = _window_log_slope(np.log(t[win]), vals[win])
    return not math.isnan(slope) and slope > _SLOPE_TOL


def _diverges_bottom(t, vals):
    """True when vals grows as t decreases at the bottom of the range."""
    win = t <= t[0] * 100.0
    slope = _window_log_slope(np.log(t[win]), vals[win])
    return not math.isnan(slope) and slope < -_SLOPE_TOL


def _classify(A, mode):
    if mode == "delta2" and A.allows_infinity:
        # a finite threshold defeats doubling at every scale
        return GrowthClass("fails", math.inf, math.inf)
    s = default_grid()
    num = A.log_eval(2.0 * s)
    den = A.log_eval(s)
    both_zero = np.isneginf(num) & np.isneginf(den)
    both_inf = np.isposinf(num) & np.isposinf(den)
    neutral = both_zero | both_inf
    with np.errstate(invalid="ignore"):
        logratio = num - den
    logratio = np.where(np.isneginf(den) & ~np.isneginf(num), np.inf, logratio)
    logratio = np.where(neutral, np.nan, logratio)

    active = ~np.isnan(logratio)
    if not np.any(active):
        return GrowthClass("near_infinity", 1.0, float(s[0]))

    if mode == "delta2":
        masked = np.where(active, logratio, np.nan)
        top_vals = logratio[active & (s >= s[-1] / 100.0)]
        top_ok = (np.all(np.isfinite(top_vals)) and
                  not _diverges_top(s, masked))
        if not top_ok:
            return GrowthClass("fails", math.inf, math.inf)
        bot_vals = logratio[active & (s <= s[0] * 100.0)]
        bot_ok = (np.all(np.isfinite(bot_vals)) and
                  not _diverges_bottom(s, masked))
        if bot_ok and np.all(np.isfinite(logratio[active])):
            return GrowthClass("global",
                               float(np.exp(logratio[active].max())), 0.0)
        bad = np.where(active & ~np.isfinite(logratio))[0]
        start = int(bad.max()) + 1 if bad.size else 0
        tail_idx = np.where(active & (np.arange(s.size) >= start))[0]
        if tail_idx.size == 0:
            return GrowthClass("near_infinity", 1.0,
                               float(s[min(start, s.size - 1)]))
        return GrowthClass("near_infinity",
                           float(np.exp(logratio[tail_idx].max())),
                           float(s[start]))

    # nabla2: inf of the ratio must exceed 2 strictly.  A margin that
    # decays toward zero with a definite log slope (its negated log
    # diverges) means the infimum over the continuum is exactly 2, even
    # though every sampled point clears it.
    margin = math.log(2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        logmargin = np.where(
            active & np.isfinite(logratio) & (logratio > margin),
            np.log(np.maximum(logratio - margin, 1e-300)), np.nan)
    margin_decays = _diverges_top(s, -logmargin)
    ok = np.where(neutral, True, logratio > margin * (1.0 + 1e-12))
    if np.all(ok[active]):
        if margin_decays:
            return GrowthClass("fails", 2.0, math.inf)
        if _diverges_bottom(s, -logmargin):
            # margin vanishes toward zero: the condition only holds on
            # tails, starting where the ratio clears 2 by a fixed bite
            clear = active & np.isfinite(logmargin) & \
                (logmargin >= math.log(0.0247))
            if np.any(clear):
                i = int(np.argmax(clear))
                vals = logratio[i:][active[i:] & np.isfinite(logratio[i:])]
                cst = float(np.exp(vals.min())) if vals.size else math.inf
                return GrowthClass("near_infinity", cst, float(s[i]))
        vals = logratio[active & np.isfinite(logratio)]
        cst = float(np.exp(vals.min())) if vals.size else math.inf
        return GrowthClass("global", cst, 0.0)
    bad = np.where(active & ~ok)[0]
    start = int(bad.max()) + 1
    if start >= s.size or margin_decays:
        return GrowthClass("fails", math.nan, math.inf)
    tail = logratio[start:]
    tail_active = active[start:]
    vals = tail[tail_active & np.isfinite(tail)]
    cst = float(np.exp(vals.min())) if vals.size else math.inf
    return GrowthClass("near_infinity", cst, float(s[start]))


# ---------------------------------------------------------------------------
# balance conditions


@dataclass(frozen=True)
class BalanceReport:
    """Least constants of the two balance conditions for a pair (A, B).

    c_11 / c_12 are suprema over admissible t of the pointwise least
    constants; t0 is the smallest threshold (0 = global) at which both
    come out finite.  Inf everywhere means the pair is inadmissible.
    """
    c_11: float
    c_12: float
    t0: float
    admissible: bool

    def to_dict(self):
        return {"c_11": self.c_11, "c_12": self.c_12,
                "t0": self.t0, "admissible": self.admissible}


_GL4_X = np.array([-0.8611363115940526, -0.3399810435848563,
                   0.3399810435848563, 0.8611363115940526])
_GL4_W = np.array([0.3478548451374538, 0.6521451548625461,
                   0.6521451548625461, 0.3478548451374538])


def _cumulative_log_integral(B, t_grid):
    """log I(t_j), I(t_j) = int_{t_grid[0]}^{t_j} B(s)/s^2 ds.

    Gauss-Legendre per log-segment, accumulated with logaddexp so the
    exponential-type integrands never overflow.
    """
    u = np.log(t_grid)
    mid = 0.5 * (u[1:] + u[:-1])
    half = 0.5 * np.diff(u)
    nodes = mid[:, None] + half[:, None] * _GL4_X[None, :]
    s_nodes = np.exp(nodes)
    logvals = B.log_eval(s_nodes) - nodes          # log(B(s)/s) at the nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        stacked = logvals + np.log(_GL4_W)[None, :]
        seg_max = np.max(stacked, axis=1)
        safe = np.where(np.isfinite(seg_max), seg_max, 0.0)
        seg_log = np.where(
            np.isneginf(seg_max), -np.inf,
            np.where(np.isposinf(seg_max), np.inf,
                     safe + np.log(np.sum(np.exp(stacked - safe[:, None]), axis=1))))
        seg_log = seg_log + np.log(half)
    out = np.empty(t_grid.size)
    out[0] = -np.inf
    np.logaddexp.accumulate(np.concatenate([[-np.inf], seg_log]), out=out)
    return out


def _log_tail_below(B, t_lo):
    """log int_0^{t_lo} B(s)/s^2 ds from the local log-log slope at t_lo.

    Superlinear decay (slope > 1) gives a finite closed-form tail; a
    linear or sublinear function makes the integral diverge at zero.
    """
    lb1 = float(np.asarray(B.log_eval(np.asarray([t_lo]))).ravel()[0])
    if np.isneginf(lb1):
        return -math.inf
    if np.isposinf(lb1):
        return math.inf
    lb2 = float(np.asarray(B.log_eval(np.asarray([0.5 * t_lo]))).ravel()[0])
    if np.isneginf(lb2):
        return lb1 - math.log(t_lo)   # mass just below t_lo; crude, finite
    gamma = (lb1 - lb2) / math.log(2.0)
    if gamma <= 1.0 + 1e-9:
        return math.inf
    return lb1 - math.log(t_lo) - math.log(gamma - 1.0)


def _log_sub(la, lb):
    """log(exp(la) - exp(lb)) for la >= lb, elementwise, with inf rules:
    an infinite la wins (the integral really is infinite there)."""
    la = np.asarray(la, float)
    lb = np.asarray(lb, float)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        diff = np.exp(np.minimum(lb - la, 0.0))
        out = la + np.log1p(-np.where(diff >= 1.0, 1.0, diff))
    out = np.where(np.isneginf(lb), la, out)
    out = np.where(la <= lb, -np.inf, out)
    out = np.where(np.isposinf(la), np.inf, out)
    return out


def _least_c_curve_log(envelope, logL, t_grid):
    """Pointwise least c with envelope(c t) >= L(t), from log L."""
    c = np.zeros(logL.shape)
    pos = np.isfinite(logL)
    if np.any(pos):
        c[pos] = envelope.inverse_left_log(logL[pos]) / t_grid[pos]
    infmask = np.isposinf(logL)
    if np.any(infmask):
        if envelope.allows_infinity:
            c[infmask] = envelope.inf_threshold / t_grid[infmask]
        else:
            c[infmask] = np.inf
    return c


def _sup_with_guard(c, t_grid, check_bottom):
    """Sup of a least-c curve, guarding against boundary divergence.

    Divergence at either end of the sampled range means the sup over the
    continuum is infinite.
    """
    if c.size == 0:
        return 0.0
    if np.any(~np.isfinite(c)):
        return math.inf
    with np.errstate(divide="ignore"):
        logc = np.where(c > 0.0, np.log(np.maximum(c, 1e-300)), np.nan)
    if _diverges_top(t_grid, logc):
        return math.inf
    if check_bottom and _diverges_bottom(t_grid, logc):
        return math.inf
    return float(c.max())


def _one_side(envelope, t_grid, cum_log, log_tail, k0):
    """Least constant of one balance condition, thresholded at index k0.

    k0 = -1 requests the global condition (integral from zero, every t
    tested); k0 >= 0 drops mass below t_grid[k0] and restricts the
    tested range accordingly.
    """
    if k0 < 0:
        logL = np.log(t_grid) + np.logaddexp(log_tail, cum_log)
        c = _least_c_curve_log(envelope, logL, t_grid)
        return _sup_with_guard(c, t_grid, check_bottom=True)
    logI = _log_sub(cum_log[k0:], cum_log[k0])
    logL = np.log(t_grid[k0:]) + logI
    c = _least_c_curve_log(envelope, logL, t_grid[k0:])
    return _sup_with_guard(c, t_grid[k0:], check_bottom=False)


def check_balance(A, B, t0=None):
    """Least constants in the two balance conditions for the pair (A, B).

    Scans thresholds from zero upward and reports the first at which
    both conditions hold with finite constants; an inadmissible pair
    reports infinite constants.  Passing t0 pins the threshold instead
    of scanning (useful for symmetry checks).
    """
    t_grid = np.geomspace(GRID_MIN, GRID_MAX, _SCAN_POINTS)
    A_t = A.conjugate()
    B_t = B.conjugate()

    cum1 = _cumulative_log_integral(B, t_grid)
    cum2 = _cumulative_log_integral(A_t, t_grid)
    tail1 = _log_tail_below(B, GRID_MIN)
    tail2 = _log_tail_below(A_t, GRID_MIN)

    if t0 is not None:
        k0 = -1 if t0 == 0.0 else int(np.searchsorted(t_grid, t0 * (1 - 1e-12)))
        c11 = _one_side(A, t_grid, cum1, tail1, k0)
        c12 = _one_side(B_t, t_grid, cum2, tail2, k0)
        return BalanceReport(c11, c12, float(t0),
                             bool(np.isfinite(c11) and np.isfinite(c12)))

    for k0 in [-1] + list(range(0, _SCAN_POINTS - 8, 4)):
        c11 = _one_side(A, t_grid, cum1, tail1, k0)
        if not np.isfinite(c11):
            continue
        c12 = _one_side(B_t, t_grid, cum2, tail2, k0)
        if not np.isfinite(c12):
            continue
        t0_val = 0.0 if k0 < 0 else float(t_grid[k0])
        return BalanceReport(c11, c12, t0_val, True)
    return BalanceReport(math.inf, math.inf, math.inf, False)


# ---------------------------------------------------------------------------
# domination


def dominates(A, B):
    """Least C with B(s) <= A(C s), globally or near infinity, as a
    GrowthClass whose verdict is "no" when neither holds."""
    s = np.geomspace(GRID_MIN, GRID_MAX, _SCAN_POINTS)
    logB = B.log_eval(s)
    C = _least_c_curve_log(A, logB, s)
    sup = _sup_with_guard(C, s, check_bottom=True)
    if np.isfinite(sup):
        return GrowthClass("global", sup, 0.0)
    bad = np.where(~np.isfinite(C))[0]
    start = int(bad.max()) + 1 if bad.size else 0
    if start >= s.size:
        return GrowthClass("no", math.inf, math.inf)
    with np.errstate(divide="ignore"):
        logC = np.where(C > 0.0, np.log(np.maximum(C, 1e-300)), np.nan)
    if _diverges_top(s, logC):
        return GrowthClass("no", math.inf, math.inf)
    top = s >= s[-1] / 100.0
    c_top = float(np.max(C[top])) if np.any(top) else float(C[-1])
    suffix_sup = np.maximum.accumulate(C[::-1])[::-1]
    ok = (np.arange(s.size) >= start) & (suffix_sup <= 2.0 * c_top)
    if not np.any(ok):
        return GrowthClass("near_infinity", float(suffix_sup[start]),
                           float(s[start]))
    k = int(np.argmax(ok))
    return GrowthClass("near_infinity", float(suffix_sup[k]), float(s[k]))


# ---------------------------------------------------------------------------
# parsing / serialization

# literal name -> (constructor, parameter count of the literal).  The
# names are also the kinds young_from_dict accepts; to_dict writes
# "exponential" and "cap", and a conjugated power carries two params.
_FAMILIES = {"power": (power, 1), "zygmund": (zygmund, 2),
             "exp": (exponential, 1), "exponential": (exponential, 1),
             "eyring": (eyring, 0), "linf": (linear_cap, 0),
             "cap": (linear_cap, 1)}


def _family(name):
    if name not in _FAMILIES:
        raise ValueError("unknown Young family %r" % name)
    return _FAMILIES[name]


def _build(name, params):
    """The member of family name with the given parameters, which must
    be finite: nan and inf pass the constructors' range tests."""
    make, _ = _family(name)
    vals = [float(v) for v in params]
    if not all(map(math.isfinite, vals)):
        raise ValueError("family %s needs finite parameters, got %r"
                         % (name, list(params)))
    return make(*vals)


def parse_young(text):
    """Parse a family literal like "power:2", "zygmund:1:1", "exp:0.5",
    "eyring" or "linf"."""
    name, *args = str(text).strip().split(":")
    arity = _family(name)[1]
    if len(args) != arity:
        raise ValueError("family %s takes %d parameter(s), got %r"
                         % (name, arity, args))
    return _build(name, args)


def parse_pair(text):
    """Parse a colon-joined pair literal, e.g. "zygmund:1:1:power:1"."""
    parts = str(text).strip().split(":")
    cut = 1 + _family(parts[0])[1]
    A = parse_young(":".join(parts[:cut]))
    B = parse_young(":".join(parts[cut:]))
    return A, B


def young_from_dict(d):
    """Rebuild a YoungFunction from its to_dict form."""
    kind = d["kind"]
    if kind == "tabulated":
        return tabulated(d["grid"], d["density"])
    if kind == "conjugate":
        return young_from_dict(d["base"]).conjugate()
    return _build(kind, d.get("params", []))


def young_to_json(A):
    return json.dumps(A.to_dict(), sort_keys=True)
