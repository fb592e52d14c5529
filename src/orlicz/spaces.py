"""Sampled fields, decreasing rearrangements and Luxemburg norms.

The objects here are deliberately low-tech: a field is a finite list of
cells (centroid, measure, value) and a rearranged function is a
right-continuous non-increasing step function on (0, |Omega|].  All
reductions go through :func:`math.fsum`, which returns the correctly
rounded sum of its inputs.  Sums over the same multiset of terms are
therefore *identical* no matter how the cells are ordered, which is what
makes rearrangement invariance of the norm exact rather than approximate.

The two averaging operators

    (H phi)(s) = (1/s) * integral_0^s phi(r) dr
    (G phi)(s) = integral_s^T phi(r)/r dr

are evaluated in closed form on step inputs; the results live in
:class:`HardyProfile`, a piecewise function of the form c + d/s +
e*log(1/s) whose integrals of first and second powers are again exact.
Both operators, both integrals and the step bounds work on all cells at
once as arrays: H accumulates the mass left of each cell and G the tail
right of it with cumulative sums, and the integrals add their per-cell
closed forms with :func:`math.fsum`.  No quadrature is used anywhere in
this module.
"""

from __future__ import annotations

import csv
import math

import numpy as np

__all__ = [
    "SampledField",
    "StepFunction",
    "HardyProfile",
    "rearrange",
    "modular",
    "luxemburg_norm",
    "modular_level_scale",
    "holder_pairing_check",
    "hardy_average",
    "hardy_dual",
    "rearrangement_bound_rhs",
    "poincare_check",
    "grid_gradient",
    "square_grid",
    "field_to_csv",
    "field_from_csv",
]

_NORM_RTOL = 1e-12


def _fsum(arr):
    # exactly rounded, hence permutation invariant; a list of Python
    # floats carries the same doubles and is read faster than an array
    return math.fsum(np.asarray(arr, dtype=float).ravel().tolist())


class SampledField:
    """A function sampled on finitely many cells of a 2D domain.

    ``values`` has shape (N,) for scalars, (N, 2) for vectors and
    (N, 2, 2) for matrices.  A gradient is a field of its own on the same
    cells, one rank up: its values append an axis of length 2 (the
    derivative direction), so the gradient of a scalar field is (N, 2)
    and the gradient of a vector field is (N, 2, 2) with entry [i, j] =
    d u_i / d x_j.
    """

    __slots__ = ("centroids", "measures", "values")

    def __init__(self, centroids, measures, values):
        self.centroids = np.atleast_2d(np.asarray(centroids, dtype=float))
        self.measures = np.asarray(measures, dtype=float)
        self.values = np.asarray(values, dtype=float)
        n = self.centroids.shape[0]
        if self.centroids.shape != (n, 2):
            raise ValueError("centroids must have shape (N, 2)")
        if self.measures.shape != (n,):
            raise ValueError("one measure per cell required")
        if np.any(self.measures < 0):
            raise ValueError("cell measures must be nonnegative")
        if self.values.shape[0] != n or self.values.ndim not in (1, 2, 3):
            raise ValueError("values must be (N,), (N,2) or (N,2,2)")

    # -- basic queries -------------------------------------------------

    @property
    def n_cells(self):
        return self.centroids.shape[0]

    @property
    def rank(self):
        """0 scalar, 1 vector, 2 matrix."""
        return self.values.ndim - 1

    @property
    def domain_measure(self):
        return _fsum(self.measures)

    def magnitude(self):
        """Pointwise modulus as a flat array (Frobenius for matrices)."""
        if self.rank == 0:
            return np.abs(self.values)
        axes = tuple(range(1, self.values.ndim))
        return np.sqrt(np.sum(self.values ** 2, axis=axes))

    def max_abs(self):
        m = self.magnitude()
        return float(np.max(m)) if m.size else 0.0

    def mean(self):
        """Measure-weighted mean value (componentwise)."""
        omega = self.domain_measure
        if omega <= 0:
            raise ValueError("cannot average over a null domain")
        flat = self.values.reshape(self.n_cells, -1)
        comps = [_fsum(self.measures * flat[:, k]) / omega
                 for k in range(flat.shape[1])]
        out = np.array(comps).reshape(self.values.shape[1:])
        return float(out) if self.rank == 0 else out

    def mean_zero_project(self):
        """Subtract the mean; the result integrates to zero."""
        return self.with_values(self.values - self.mean())

    def magnitude_field(self):
        return SampledField(self.centroids, self.measures, self.magnitude())

    # -- algebra (shared cells assumed) --------------------------------

    def with_values(self, values):
        return SampledField(self.centroids, self.measures, values)

    def __add__(self, other):
        return self.with_values(self.values + other.values)

    def __mul__(self, c):
        return self.with_values(float(c) * self.values)

    # -- construction and serialization --------------------------------

    @staticmethod
    def from_grid(values, h):
        """Cell field on a uniform grid of spacing ``h``.

        ``values[i, j]`` is the sample at centroid
        ((i + 1/2) h, (j + 1/2) h); trailing axes beyond the first two
        are the component axes.
        """
        values = np.asarray(values, dtype=float)
        nx, ny = values.shape[:2]
        xs = (np.arange(nx) + 0.5) * h
        ys = (np.arange(ny) + 0.5) * h
        cx, cy = np.meshgrid(xs, ys, indexing="ij")
        cent = np.column_stack([cx.ravel(), cy.ravel()])
        meas = np.full(nx * ny, h * h)
        vals = values.reshape(nx * ny, *values.shape[2:])
        return SampledField(cent, meas, vals)

    def to_dict(self):
        return {
            "centroids": self.centroids.tolist(),
            "measures": self.measures.tolist(),
            "values": self.values.tolist(),
        }

    @staticmethod
    def from_dict(d):
        return SampledField(d["centroids"], d["measures"], d["values"])

    def __repr__(self):
        kind = ("scalar", "vector", "matrix")[self.rank]
        return "SampledField(%d %s cells, |domain|=%.6g)" % (
            self.n_cells, kind, self.domain_measure)


def grid_gradient(values, h):
    """Finite-difference gradient of grid samples.

    Centered differences inside, one-sided at the boundary.  ``values``
    is (nx, ny, ...); the result appends a length-2 axis after the grid
    axes with [..., 0] = d/dx and [..., 1] = d/dy.
    """
    values = np.asarray(values, dtype=float)
    gx = np.gradient(values, h, axis=0)
    gy = np.gradient(values, h, axis=1)
    return np.stack([gx, gy], axis=-1)


def square_grid(u, what):
    """(n, xs, ys) of a field on a uniform square n-by-n grid, n >= 2.

    Cell i * n + j must sit at (xs[i], ys[j]) with xs and ys increasing
    (row-major order); anything else raises ValueError naming ``what``.
    """
    n = int(round(math.sqrt(u.n_cells)))
    if n < 2 or n * n != u.n_cells:
        raise ValueError("%s needs a square-grid field" % what)
    cent = u.centroids
    xs = cent[::n, 0]
    ys = cent[:n, 1]
    if not (np.array_equal(cent[:, 0], np.repeat(xs, n))
            and np.array_equal(cent[:, 1], np.tile(ys, n))):
        raise ValueError("%s needs row-major grid ordering" % what)
    for c in (xs, ys):
        d = np.diff(c)
        if not (d[0] > 0.0 and np.all(np.abs(d - d[0]) <= 1e-6 * d[0])):
            raise ValueError("%s needs a uniform increasing grid" % what)
    return n, xs, ys


def field_to_csv(u, path):
    """Write a field as rows x, y, measure, value components."""
    flat = u.values.reshape(u.n_cells, -1)
    ncomp = flat.shape[1]
    if ncomp == 1:
        header = ["x", "y", "measure", "value"]
    else:
        header = ["x", "y", "measure"] + ["value_%d" % k for k in range(ncomp)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(u.n_cells):
            row = [repr(float(u.centroids[i, 0])), repr(float(u.centroids[i, 1])),
                   repr(float(u.measures[i]))]
            row += [repr(float(v)) for v in flat[i]]
            w.writerow(row)


def field_from_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    ncomp = len(header) - 3
    cent = np.array([[float(r[0]), float(r[1])] for r in body])
    meas = np.array([float(r[2]) for r in body])
    vals = np.array([[float(x) for x in r[3:]] for r in body])
    if ncomp == 1:
        vals = vals[:, 0]
    elif ncomp == 4:
        vals = vals.reshape(-1, 2, 2)
    return SampledField(cent, meas, vals)


class StepFunction:
    """Right-continuous step function on (0, T].

    Takes value ``values[k]`` on [edges[k], edges[k+1]) -- and at T
    itself -- with edges[0] = 0.  Widths are stored explicitly so that a
    rearrangement keeps the exact cell measures it was built from rather
    than differences of rounded cumulative sums.
    """

    __slots__ = ("edges", "values", "widths")

    def __init__(self, breakpoints, values, widths=None):
        bp = np.asarray(breakpoints, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if bp.size != self.values.size or bp.size == 0:
            raise ValueError("one breakpoint per step value required")
        if np.any(np.diff(bp) <= 0) or bp[0] <= 0:
            raise ValueError("breakpoints must be strictly increasing and positive")
        self.edges = np.concatenate([[0.0], bp])
        if widths is None:
            self.widths = np.diff(self.edges)
        else:
            self.widths = np.asarray(widths, dtype=float)
            if self.widths.shape != self.values.shape:
                raise ValueError("widths must match values")

    @property
    def total(self):
        return float(self.edges[-1])

    @property
    def n_cells(self):
        return self.values.size

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s <= 0) or np.any(s > self.total * (1 + 1e-12)):
            raise ValueError("argument outside (0, T]")
        idx = np.searchsorted(self.edges[1:-1], s, side="right")
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out

    def measure_above(self, t):
        """|{ s : value(s) > t }| as an exact multiset sum."""
        return _fsum(self.widths[self.values > float(t)])

    def is_nonincreasing(self):
        return bool(np.all(np.diff(self.values) <= 0))

    def __repr__(self):
        return "StepFunction(%d steps on (0, %.6g])" % (self.n_cells, self.total)


def rearrange(u):
    """Decreasing rearrangement |u|* as a step function on (0, |domain|].

    Cells are ordered by decreasing modulus (ties broken by cell index,
    so the result is deterministic); the breakpoints are the cumulative
    cell measures in that order.  Equimeasurability with ``u`` is exact:
    both distribution functions sum the same measures.
    """
    if isinstance(u, StepFunction):
        mags, meas = np.abs(u.values), u.widths
    else:
        mags, meas = u.magnitude(), u.measures
    keep = meas > 0
    mags, meas = mags[keep], meas[keep]
    if mags.size == 0:
        raise ValueError("cannot rearrange an empty field")
    order = np.lexsort((np.arange(mags.size), -mags))
    sm, sw = mags[order], meas[order]
    return StepFunction(np.cumsum(sw), sm, widths=sw)


def measure_above(u, t):
    """|{ |u| > t }| for a field, summed like the rearrangement sums it."""
    if isinstance(u, StepFunction):
        return u.measure_above(t)
    mask = (u.magnitude() > float(t)) & (u.measures > 0)
    return _fsum(u.measures[mask])


# ---------------------------------------------------------------------------
# modular and Luxemburg norm


def _norm_data(u):
    if isinstance(u, StepFunction):
        return np.abs(u.values), u.widths
    if isinstance(u, SampledField):
        return u.magnitude(), u.measures
    raise TypeError("expected a SampledField or StepFunction")


def modular(u, A):
    """integral of A(|u|) over the domain (exactly rounded sum)."""
    mags, meas = _norm_data(u)
    keep = (meas > 0) & (mags > 0)
    if not np.any(keep):
        return 0.0
    return _modular_scaled(mags[keep], meas[keep], A, 1.0)


def _modular_scaled(mags, meas, A, lam):
    with np.errstate(over="ignore", invalid="ignore"):
        terms = meas * A(mags / lam)
    if np.isinf(terms).any():
        return math.inf
    return _fsum(terms)


def _log(m):
    return math.log(m) if m > 0.0 else -math.inf


def luxemburg_norm(u, A):
    """inf { lam > 0 : integral A(|u|/lam) <= 1 }.

    A doubling search brackets the norm between powers of two.  The
    root of g(t) = log M(e^t), M(lam) the modular at scale lam, is then
    found by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) in
    t = log lam.  Each step probes the secant root shifted by -rtol/4
    and then by +rtol/4 in t, so a good estimate closes both ends of
    the bracket at once; the second probe is skipped when the first
    lands above the root or the secant puts the root past the second.
    Where M is 0 or inf at an end (capped and vanishing kinds) the step
    is a log-midpoint instead.  For a power, g is linear and the secant
    lands in one step.

    Returns the upper end hi of a bracket with hi - lo <= rtol * hi,
    rtol = 1e-12, and M(hi) <= 1: the modular of |u|/hi never exceeds
    1.  Every lower end the search keeps has M(lo) > 1, the final one
    included, so the modular of |u| / (hi (1 - rtol)) exceeds 1 for
    any nonzero result.  The shifted probes leave hi a margin above the
    root, which keeps the modular of u * (1/hi) at most 1 as well.  The iterates
    depend only on modular values, which are exactly rounded sums, so
    the result is invariant under rearrangement.  The zero field has
    norm 0.
    """
    mags, meas = _norm_data(u)
    keep = (meas > 0) & (mags > 0)
    mags, meas = mags[keep], meas[keep]
    if mags.size == 0:
        return 0.0
    hi = float(np.max(mags))
    for _ in range(4200):
        m_hi = _modular_scaled(mags, meas, A, hi)
        if m_hi <= 1.0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("no upper bracket for the Luxemburg norm")
    lo = hi / 2.0
    for _ in range(4200):
        m_lo = _modular_scaled(mags, meas, A, lo)
        if m_lo > 1.0:
            break
        hi, m_hi = lo, m_lo
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    g_lo, g_hi = _log(m_lo), _log(m_hi)
    shift = _NORM_RTOL / 4.0
    last = ""  # the end the previous step moved, when it moved one
    for _ in range(300):
        if hi - lo <= _NORM_RTOL * hi:
            break
        probes, slope = [math.sqrt(lo * hi)], None
        if math.isfinite(g_lo) and math.isfinite(g_hi):
            # g_lo > 0 >= g_hi, so the secant root lies in [t_lo, t_hi]
            t_lo, t_hi = math.log(lo), math.log(hi)
            slope = (g_hi - g_lo) / (t_hi - t_lo)
            t = t_hi - g_hi / slope
            probes = [lam for lam in (math.exp(t - shift),
                                      math.exp(t + shift))
                      if lo < lam < hi] or probes
        moved = ""
        for lam in probes:
            m = _modular_scaled(mags, meas, A, lam)
            if m <= 1.0:
                hi, g_hi = lam, _log(m)
                moved += "hi"
                break  # a larger probe cannot improve hi
            lo, g_lo = lam, _log(m)
            moved += "lo"
            if slope is not None and g_lo > -slope * 2.0 * shift:
                break  # the root lies past the second probe
        # Illinois: when one end moves two steps running, the value
        # kept at the other end is halved
        if moved == last == "hi":
            g_lo /= 2.0
        elif moved == last == "lo":
            g_hi /= 2.0
        last = moved
    return hi


def modular_level_scale(u, A, level):
    """Least c > 0 with integral A(c |u|) >= level, for a SampledField
    u and level > 0.

    For a finite level, the modular of u with its measures divided by
    level is M(c) / level, so the least c is 1/lam for lam that field's
    Luxemburg norm.  Its bracket's lower end lies within rtol of lam and
    has a modular above 1, so c = 1/(lam (1 - rtol)) reaches the level
    and errs high by at most rtol.  For level = inf, the modular is
    infinite once c |u| passes the cap of a capped A on some cell, so c
    is that cap over max |u|, widened the same way; an A without a cap
    turns infinite only by overflow, which bounds nothing, so c = inf.
    """
    if level < math.inf:
        scaled = SampledField(u.centroids, u.measures / level, u.values)
        return 1.0 / (luxemburg_norm(scaled, A) * (1.0 - _NORM_RTOL))
    mags, meas = _norm_data(u)
    mags = mags[meas > 0]
    if not A.allows_infinity or not np.any(mags > 0):
        return math.inf
    return A.inf_threshold / (float(np.max(mags)) * (1.0 - _NORM_RTOL))


# ---------------------------------------------------------------------------
# Hoelder pairing with a duality witness


def pairing(u, v):
    """integral u . v (scalar product contracting all component axes)."""
    if u.values.shape != v.values.shape:
        raise ValueError("fields must share shape")
    prods = (u.values * v.values).reshape(u.n_cells, -1).sum(axis=1)
    return _fsum(u.measures * prods)


def holder_pairing_check(u, v, A):
    """Check integral |u.v| <= 2 ||u||_A ||v||_Atilde and bracket the dual norm.

    The duality witnesses are the classical equality candidate
    atilde(|v|/lam) sign(v) together with thresholded sign fields
    sign(v) 1_{|v| >= q max|v|}; their best pairing-to-norm ratio lands
    in [||v||_Atilde, 2 ||v||_Atilde] whenever v is nonzero.
    """
    At = A.conjugate()
    norm_u = luxemburg_norm(u, A)
    norm_v = luxemburg_norm(v, At)
    pair = pairing(u, v)
    abs_pair = _fsum(u.measures * np.abs(
        (u.values * v.values).reshape(u.n_cells, -1).sum(axis=1)))
    bound = 2.0 * norm_u * norm_v
    report = {
        "pairing": pair,
        "abs_pairing": abs_pair,
        "norm_u": norm_u,
        "conj_norm_v": norm_v,
        "bound": bound,
        "holds": bool(abs_pair <= bound * (1 + 1e-9)),
        "dual_sup": 0.0,
        "bracket_ok": norm_v == 0.0,
    }
    if norm_v == 0.0:
        return report
    vm = v.magnitude()
    # per-cell scalars broadcast against the values; for a scalar field
    # v / |v| is sign(v)
    cell = (-1,) + (1,) * v.rank
    shaped = v.values / np.where(vm == 0, 1.0, vm).reshape(cell)
    best = 0.0
    witnesses = []
    with np.errstate(over="ignore", invalid="ignore"):
        dens = At.density(vm / norm_v)
    if np.all(np.isfinite(dens)):
        witnesses.append(v.with_values(dens.reshape(cell) * shaped))
    vmax = float(np.max(vm))
    for q in (1.0, 0.999, 0.9, 0.5):
        mask = vm >= q * vmax - 1e-300
        witnesses.append(v.with_values(np.where(mask.reshape(cell), shaped,
                                                0.0)))
    for w in witnesses:
        nw = luxemburg_norm(w, A)
        if nw == 0.0:
            continue
        best = max(best, pairing(w, v) / nw)
    report["dual_sup"] = best
    report["bracket_ok"] = bool(
        norm_v * (1 - 1e-9) <= best <= 2.0 * norm_v * (1 + 1e-9))
    return report


# ---------------------------------------------------------------------------
# Hardy-type averaging operators on step functions


class HardyProfile:
    """Piecewise c + d/s + e*log(1/s) on (0, T].

    Closed under the two averaging operators applied to step functions.
    First and second powers integrate in closed form, and on each piece
    the function is monotone whenever d, e >= 0, which gives two-sided
    step bounds for norm evaluation.
    """

    __slots__ = ("edges", "coeffs")

    def __init__(self, edges, coeffs):
        self.edges = np.asarray(edges, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (self.edges.size - 1, 3):
            raise ValueError("need one (c, d, e) triple per cell")

    @property
    def total(self):
        return float(self.edges[-1])

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if np.any(s <= 0) or np.any(s > self.total * (1 + 1e-12)):
            raise ValueError("argument outside (0, T]")
        idx = np.clip(np.searchsorted(self.edges, s, side="left") - 1,
                      0, self.coeffs.shape[0] - 1)
        out = self._eval_with(idx, s)
        return float(out[0]) if scalar else out

    def is_nonincreasing(self):
        # within cells: derivative -d/s^2 - e/s; across cells: continuity
        if np.any(self.coeffs[:, 1] < -1e-300) or np.any(self.coeffs[:, 2] < -1e-300):
            return False
        interior = self.edges[1:-1]
        left = self._eval_with(np.arange(len(interior)), interior)
        right = self._eval_with(np.arange(1, len(interior) + 1), interior)
        return bool(np.all(right <= left * (1 + 1e-12) + 1e-300))

    def _eval_with(self, idx, s):
        c, d, e = self.coeffs[idx].T
        return c + d / s + e * np.log(1.0 / s)

    def _from_zero(self, d, what):
        # cells starting at 0 (edge a <= 0): their 1/s term must vanish,
        # and a stand-in a = 1 keeps their dropped antiderivative finite
        a = self.edges[:-1]
        pos = a > 0
        if np.any(d[~pos] != 0.0):
            raise ValueError("1/s term is not %s down to 0" % what)
        return pos, np.where(pos, a, 1.0)

    def integral(self):
        """Exact integral over (0, T]."""
        a, b = self.edges[:-1], self.edges[1:]
        c, d, e = self.coeffs.T
        pos, a1 = self._from_zero(d, "integrable")
        ga = np.where(pos, a * (1 - np.log(a1)), 0.0)  # s (1 - log s) at a
        return _fsum(c * (b - a) + e * (b * (1 - np.log(b)) - ga) + d * np.log(b / a1))

    def integral_sq(self):
        """Exact integral of the square over (0, T]."""
        c, d, e = self.coeffs.T
        pos, a1 = self._from_zero(d, "square integrable")

        def F(s):
            ls = np.log(s)
            return c * c * s + 2 * c * e * s * (1 - ls) \
                + e * e * s * (ls * ls - 2 * ls + 2) \
                + (2 * c * d * ls - d * d / s - d * e * ls * ls)

        # on a cell from 0 every antiderivative term vanishes there
        return _fsum(F(self.edges[1:]) - np.where(pos, F(a1), 0.0))

    def step_bounds(self, refine=128):
        """Non-increasing step minorant and majorant (lower, upper).

        Each cell is subdivided geometrically.  If the profile diverges
        at 0 the first subcell starts at eps = 1e-9 T and the majorant is
        only a majorant on (eps, T]; callers comparing norms against a
        calibrated constant absorb the truncation.
        """
        first = int(self.edges[0] <= 0)  # a cell from 0 has no geometric grid
        a, b = self.edges[first:-1], self.edges[first + 1:]
        t = np.arange(1, refine + 1) / refine
        rights = a[:, None] * (b / a)[:, None] ** t
        lefts = np.column_stack([a, rights[:, :-1]])
        r0 = l0 = np.empty(0)
        if first:
            _, d, e = self.coeffs[0]
            if d == 0.0 and e == 0.0:
                r0 = l0 = self.edges[1:2]  # constant cell, no refining needed
            else:
                g = np.geomspace(1e-9 * self.total, self.edges[1], refine + 1)
                r0, l0 = g[1:], g[:-1]
        idx = np.concatenate([np.zeros(r0.size, dtype=int),
                              np.repeat(np.arange(first, len(self.coeffs)), refine)])
        knots = np.concatenate([r0, rights.ravel()])
        starts = np.concatenate([l0, lefts.ravel()])
        lo = self._eval_with(idx, knots)
        # monotone on each subcell, so the larger end value bounds it
        hi = np.maximum(self._eval_with(idx, starts), lo)
        return StepFunction(knots, lo), StepFunction(knots, hi)


def hardy_average(phi):
    """(1/s) integral_0^s phi, exactly, for a step function phi."""
    if not isinstance(phi, StepFunction):
        phi = rearrange(phi)
    v = phi.values
    # mass left of each cell, accumulated left to right
    cum = np.concatenate([[0.0], np.cumsum(v * phi.widths)[:-1]])
    return HardyProfile(phi.edges, np.column_stack(
        [v, cum - v * phi.edges[:-1], np.zeros_like(v)]))


def hardy_dual(phi):
    """integral_s^T phi(r)/r dr, exactly, for a step function phi."""
    if not isinstance(phi, StepFunction):
        phi = rearrange(phi)
    v, a, b = phi.values, phi.edges[:-1], phi.edges[1:]
    # integral of phi(r)/r right of each cell, accumulated right to left;
    # the first cell, from 0, is never to the right of another
    tail = np.zeros_like(v)
    tail[:-1] = np.cumsum((v[1:] * np.log(b[1:] / a[1:]))[::-1])[::-1]
    return HardyProfile(phi.edges, np.column_stack(
        [tail + v * np.log(b), np.zeros_like(v), v]))


def rearrangement_bound_rhs(f, s, C):
    """C * ((H f*)(s) + (G f*)(s)), the two-operator majorant at s.

    ``f`` may be a field (rearranged first) or an already non-increasing
    step function.
    """
    star = f if isinstance(f, StepFunction) else rearrange(f)
    H = hardy_average(star)
    G = hardy_dual(star)
    s = np.asarray(s, dtype=float)
    out = float(C) * (H(s) + G(s))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Poincare-type ratio


def poincare_check(u, grad, A):
    """Ratio ||u - mean|| / (|domain|^(1/2) ||grad||), both norms under A.

    ``grad`` is the gradient of u as a field on the same cells.  A zero
    gradient with a nonconstant field is rejected rather than reported
    as an infinite ratio.
    """
    num = luxemburg_norm(u.mean_zero_project(), A)
    den = math.sqrt(u.domain_measure) * luxemburg_norm(grad, A)
    if den == 0.0:
        if num > 1e-13 * max(u.max_abs(), 1.0):
            raise ValueError("zero gradient supplied for a nonconstant field")
        return {"ratio": 0.0, "lhs": num, "rhs": den}
    return {"ratio": num / den, "lhs": num, "rhs": den}
