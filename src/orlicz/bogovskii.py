"""Divergence-equation solution operator on star-shaped domains.

For a domain D star-shaped with respect to a ball B and a mean-zero
density f, the field

    u(x) = integral_D f(y) (x-y)/|x-y|^2 * I(x, y) dy,
    I(x, y) = integral_{|x-y|}^infty w(y + z (x-y)/|x-y|) z dz,

solves div u = f with u = 0 outside D; w is a fixed polynomial bump
supported in B.  Writing z = |x-y| + t turns the inner integral into a
line integral along the ray leaving x away from y,

    I = |x-y| * J0 + J1,   Jm = integral w(x + t e) t^m dt,

which is the form everything below evaluates.  On the ray, with
b = e.(x - z0), q = rho^2 - |x - z0|^2, Delta = b^2 + q and s = t + b,
the bump is c rho^-8 (Delta - s^2)^4.  From x outside B (q <= 0) only
rays with b < 0 meet B, each across its whole chord, so J0 = c rho^-8
(256/315) Delta^(9/2) and J1 = -b J0.  From inside, every ray runs from
s = b to sqrt(Delta): J0 = c rho^-8 ((128/315) Delta^(9/2) - P(b)), P
the degree-9 antiderivative of (Delta - s^2)^4 in Horner form in s^2,
and J1 = c rho^-8 q^5 / 10 - b J0.  Targets are split at B so that a
block takes one form; every power is a product, never `**`.

Densities are cell fields on a uniform grid clipped to the domain
(outside cells keep value and measure zero).  The outer integral is a
midpoint rule over far cells, a refined midpoint rule over cells near
the evaluation point, and an exact-in-radius polar rule over the cell
containing it, where only the angular integral needs quadrature.  One
evaluator serves one point and a whole grid alike: it takes targets in
blocks of a fixed kernel-evaluation budget, evaluates the far field of
an inside block as one (targets x cells) array, and adds the near
cells and the singular cell as gathered per-target corrections.  From
a target outside B most rays miss B and add exact zeros: a ray meets B
iff (x-y).(x-z0) < 0 and ((x-y).(x-z0))^2 > (|x-z0|^2 - rho^2)|x-y|^2
(b < 0 and Delta > 0 above, without a root), so an outside block
gathers only those far pairs, and splits into subcells only the near
cells that a cone around x - y_c may carry to B.  Every block-sized
pass writes into work arrays made once per call: on arrays this size
a fresh temporary (allocation and first-touch page faults) costs
several times the arithmetic done on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from orlicz.spaces import SampledField, grid_gradient, modular, \
    modular_level_scale, rearrange, rearrangement_bound_rhs, square_grid

__all__ = [
    "StarDomain",
    "DomainDecomposition",
    "grid_field",
    "bogovskii_apply",
    "bogovskii_field",
    "check_modular_bound",
    "check_rearrangement_estimate",
    "split_function",
    "bogovskii_general",
    "decomposition_norm_bound",
]


# Outer quadrature: cells within _NEAR_RADIUS grid spacings of x use a
# midpoint rule refined _NEAR_REFINE times per axis; the cell containing
# x uses a polar rule with _SINGULAR_THETA angular nodes.
_NEAR_RADIUS = 2.5
_NEAR_REFINE = 4
_SINGULAR_THETA = 96

# Targets are evaluated in blocks of at most this many kernel
# evaluations in the far field and again in the near field, so each
# work array stays near 256 KiB.
_PAIR_BLOCK = 1 << 15


class StarDomain:
    """Polygon star-shaped with respect to a reference ball.

    The mollifier is the normalized bump c (1 - |z - center|^2/rho^2)^4
    supported in the ball; c = 5/(pi rho^2) makes it integrate to 1.
    """

    def __init__(self, vertices, ball_center, ball_radius):
        self.vertices = np.asarray(vertices, dtype=float)
        self.ball_center = np.asarray(ball_center, dtype=float)
        self.ball_radius = float(ball_radius)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2 \
                or self.vertices.shape[0] < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if self.ball_radius <= 0:
            raise ValueError("ball radius must be positive")
        if not self.star_check():
            raise ValueError("polygon is not star-shaped for the given ball")

    # -- geometry -------------------------------------------------------

    @property
    def area(self):
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def contains(self, pts):
        """Crossing-number point-in-polygon test, vectorized."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(pts.shape[0], dtype=bool)
        v = self.vertices
        n = v.shape[0]
        for i in range(n):
            x1, y1 = v[i]
            x2, y2 = v[(i + 1) % n]
            crosses = (y1 > y) != (y2 > y)
            with np.errstate(invalid="ignore", divide="ignore"):
                xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (x < np.where(crosses, xc, 0.0))
        return inside

    def star_check(self):
        """Sample segments vertex-to-ball and test containment, all
        sample points in one contains call."""
        n_dirs, n_steps = 12, 9
        ang = np.linspace(0, 2 * math.pi, n_dirs, endpoint=False)
        ball_pts = self.ball_center + 0.999 * self.ball_radius * \
            np.column_stack([np.cos(ang), np.sin(ang)])
        ts = ((np.arange(1, n_steps + 1)) / (n_steps + 1.0))[:, None]
        seg = self.vertices[:, None, None, :] * (1 - ts) \
            + ball_pts[None, :, None, :] * ts
        return bool(np.all(self.contains(seg.reshape(-1, 2))))

    # -- the bump -------------------------------------------------------

    def mollifier(self, pts):
        z = np.asarray(pts, dtype=float) - self.ball_center
        return self._bump(z[..., 0] * z[..., 0] + z[..., 1] * z[..., 1])

    def _bump(self, d2):
        """The bump at squared distances d2 from the centre, computed in
        the storage of d2."""
        q = np.asarray(d2)
        q /= self.ball_radius ** 2
        np.subtract(1.0, q, out=q)
        np.maximum(q, 0.0, out=q)
        q *= q
        q *= q
        q *= 5.0 / (math.pi * self.ball_radius ** 2)
        return q[()]

    def mollifier_mass(self):
        """Midpoint-rule integral of the bump, a quadrature sanity check."""
        n = 400
        r = self.ball_radius
        lo = self.ball_center - r
        h = 2.0 * r / n
        dx = lo[0] + (np.arange(n) + 0.5) * h - self.ball_center[0]
        dy = lo[1] + (np.arange(n) + 0.5) * h - self.ball_center[1]
        d2 = (dx * dx)[:, None] + (dy * dy)[None, :]
        return float(np.sum(self._bump(d2)) * h * h)

    # -- stock shapes -----------------------------------------------------

    @staticmethod
    def disk(radius=1.0):
        """96-gon about the origin, star-shaped for the half-radius ball."""
        ang = np.linspace(0, 2 * math.pi, 96, endpoint=False)
        verts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
        return StarDomain(verts, (0.0, 0.0), 0.5 * radius)

    @staticmethod
    def rectangle(lo, hi):
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        verts = np.array([[lo[0], lo[1]], [hi[0], lo[1]],
                          [hi[0], hi[1]], [lo[0], hi[1]]])
        center = 0.5 * (lo + hi)
        radius = 0.35 * float(np.min(hi - lo))
        return StarDomain(verts, center, radius)

    def __repr__(self):
        return "StarDomain(%d vertices, ball r=%.3g at %s)" % (
            self.vertices.shape[0], self.ball_radius,
            np.round(self.ball_center, 3).tolist())


@dataclass
class DomainDecomposition:
    """Ordered star-shaped subdomains whose union covers the domain."""

    subdomains: list

    def __post_init__(self):
        if not self.subdomains:
            raise ValueError("need at least one subdomain")

    def contains(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        ok = np.zeros(pts.shape[0], dtype=bool)
        for D in self.subdomains:
            ok |= D.contains(pts)
        return ok

    def bounding_box(self):
        los, his = zip(*(D.bounding_box() for D in self.subdomains))
        return np.min(los, axis=0), np.max(his, axis=0)


# ---------------------------------------------------------------------------
# grid fields clipped to a domain


def grid_field(D, fn, n, bbox=None):
    """Sample fn on an n-by-n grid over the bounding box, clipped to D.

    Cells with centroid outside D get value 0 and measure 0, so means
    and norms see the staircase domain while finite differences can use
    the full rectangular grid.
    """
    if bbox is None:
        lo, hi = D.bounding_box()
    else:
        lo, hi = np.asarray(bbox[0], float), np.asarray(bbox[1], float)
    h = float(np.max(hi - lo)) / n
    xs = lo[0] + (np.arange(n) + 0.5) * h
    ys = lo[1] + (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    cent = np.column_stack([X.ravel(), Y.ravel()])
    inside = D.contains(cent)
    vals = np.where(inside, np.asarray(fn(X, Y), float).ravel(), 0.0)
    meas = np.where(inside, h * h, 0.0)
    return SampledField(cent, meas, vals)


def _grid_step(f, what):
    """(n, h) of a field on an n-by-n grid of square h-by-h cells.

    The layout is read by :func:`orlicz.spaces.square_grid`; a y spacing
    off the x spacing by more than its 1e-6 relative tolerance raises
    ValueError naming ``what`` as well.
    """
    n, xs, ys = square_grid(f, what)
    h = float(xs[1] - xs[0])
    if abs(ys[1] - ys[0] - h) > 1e-6 * h:
        raise ValueError("%s needs square grid cells" % what)
    return n, h


# ---------------------------------------------------------------------------
# kernel evaluation


def _views(work, shape, k):
    """k arrays of the given shape: views into the first k rows of work,
    a 2-d array of flat rows at least that large, or fresh float arrays
    when work is None."""
    if work is None:
        return [np.empty(shape) for _ in range(k)]
    n = math.prod(shape)
    return [row[:n].reshape(shape) for row in work[:k]]


def _ray_integrals(x, e, D, outside, work=None):
    """J0 = int w(x + t e) dt and J1 = int w(x + t e) t dt over t >= 0.

    The closed forms of the module docstring, for origins all outside
    the ball (``outside``) or all inside it.  x = (x0, x1) and e = (e0,
    e1) hold origin and unit-direction components as separate arrays
    that broadcast together, so an (n, 2) array of points goes in
    transposed.  Every pass over the broadcast shape writes into one of
    seven arrays, views of the rows of ``work`` when it is given (see
    _views); J0 and J1 come back in two of them.
    """
    zx = x[0] - D.ball_center[0]
    zy = x[1] - D.ball_center[1]
    rho2 = D.ball_radius ** 2
    q = rho2 - (zx * zx + zy * zy)   # fixed per origin
    shape = np.broadcast_shapes(np.shape(q), np.shape(e[0]),
                                np.shape(e[1]))
    b, delta, d2, d4, u, acc, t = _views(work, shape, 7)
    np.multiply(e[0], zx, out=b)
    b += np.multiply(e[1], zy, out=t)
    np.multiply(b, b, out=delta)
    delta += q
    scale = 5.0 / (math.pi * rho2 * rho2 ** 4)   # c rho^-8, c of the bump
    np.multiply(delta, delta, out=d2)
    np.multiply(d2, d2, out=d4)

    if outside:
        J0 = np.sqrt(np.maximum(delta, 0.0, out=delta), out=delta)
        J0 *= d4
        J0 *= scale * 256.0 / 315.0
        J0 *= np.less(b, 0.0, out=t)
        J1 = np.multiply(b, J0, out=d2)
        np.negative(J1, out=J1)
        return J0, J1

    # P(b) from (Delta - s^2)^4 = s^8 + c3 s^6 + c2 s^4 + c1 s^2 + Delta^4
    np.multiply(b, b, out=u)
    np.divide(u, 9.0, out=acc)
    acc += np.multiply(delta, -4.0 / 7.0, out=t)
    acc *= u
    acc += np.multiply(d2, 1.2, out=t)
    acc *= u
    np.multiply(d2, delta, out=t)
    acc += np.multiply(t, -4.0 / 3.0, out=t)
    acc *= u
    acc += d4
    acc *= b
    J0 = np.sqrt(delta, out=delta)
    J0 *= d4
    J0 *= 128.0 / 315.0
    J0 -= acc
    J0 *= scale
    J1 = np.multiply(b, J0, out=d2)
    np.subtract(q * q * q * q * q * (scale / 10.0), J1, out=J1)
    return J0, J1


def _kernel_sum(x, Y, w, D, outside, work=None):
    """sum_j w_j k(x, y_j) over the last axis, as an (..., 2) array.

    k(x, y) = (x-y)/|x-y|^2 * (|x-y| J0 + J1), ``outside`` as in
    _ray_integrals.  x = (x0, x1) and Y = (y0, y1) are component arrays
    broadcasting to (..., n), as does w; coincident points add zero.
    With ``work`` (12 rows, see _views) no pass allocates an array of
    the broadcast shape.
    """
    shape = np.broadcast_shapes(np.shape(x[0]), np.shape(Y[0]))
    dx, dy, safe, e0, e1 = _views(work, shape, 5)
    np.subtract(x[0], Y[0], out=dx)
    np.subtract(x[1], Y[1], out=dy)
    np.multiply(dx, dx, out=safe)
    safe += np.multiply(dy, dy, out=e0)
    np.sqrt(safe, out=safe)
    safe += np.equal(safe, 0.0, out=e0)
    np.divide(dx, safe, out=e0)
    np.divide(dy, safe, out=e1)
    J0, J1 = _ray_integrals(x, (e0, e1), D, outside,
                            None if work is None else work[5:])
    J0 /= safe
    safe *= safe
    J1 /= safe
    J0 += J1
    J0 *= w
    return np.stack([np.einsum("...n,...n->...", J0, dx),
                     np.einsum("...n,...n->...", J0, dy)], axis=-1)


def _singular_cells(X, C, h, D, outside):
    """integral of k(x, .) over the grid cell centred at c, per row.

    X and C are (S, 2): targets and the centres of the cells holding
    them, all on the ``outside`` side of the mollifier ball.  In polar
    coordinates around x the kernel is -n(theta)(J0 + J1/r), so the
    radial integral is exact and only theta is sampled: integral =
    -int n(theta) (J0 R^2/2 + J1 R) dtheta with R the exit distance of
    the ray from x to the cell boundary.
    """
    m = _SINGULAR_THETA
    theta = (np.arange(m) + 0.5) * (2 * math.pi / m)
    n_dir = np.column_stack([np.cos(theta), np.sin(theta)])
    # the midpoint angles never make a component of n_dir zero
    exits = []
    for k in (0, 1):
        nk = n_dir[:, k]
        wall = np.where(nk > 0, C[:, k:k + 1] + 0.5 * h,
                        C[:, k:k + 1] - 0.5 * h)
        exits.append((wall - X[:, k:k + 1]) / nk)
    R = np.minimum(*exits)
    J0, J1 = _ray_integrals(X.T[:, :, None], -n_dir.T, D, outside)
    radial = J0 * R * R / 2.0 + J1 * R
    dtheta = 2 * math.pi / m
    return -dtheta * np.einsum("sm,mc->sc", radial, n_dir)


def _ray_hits(d, z, k, hit=None, work=None):
    """Which rays leaving targets outside the ball along d = x - y meet it.

    d = (dx, dy) and z = x - z0 = (zx, zy) are component arrays that
    broadcast together, and k = |x - z0|^2 - rho^2 >= 0 broadcasts
    with z.  The ray meets the ball iff d.z < 0 and (d.z)^2 > k |d|^2
    (b < 0 and Delta > 0 of the module docstring, times |d|^2), tested
    as one sign, (d.z)|d.z| + k |d|^2 < 0, without a root.  The passes
    write into hit and three rows of work (see _views).
    """
    shape = np.broadcast_shapes(np.shape(d[0]), np.shape(z[0]))
    dz, s, t = _views(work, shape, 3)
    np.multiply(d[0], z[0], out=dz)
    dz += np.multiply(d[1], z[1], out=t)
    np.multiply(d[0], d[0], out=s)
    s += np.multiply(d[1], d[1], out=t)
    s *= k
    s += np.multiply(np.abs(dz, out=t), dz, out=t)
    return np.less(s, 0.0, out=hit)


def _cone_misses(v, z, rho2, reach):
    """Near cells that no subcell ray can carry to the ball, per row.

    v = x - y_c and z = x - z0 are (P, 2) rows for targets x outside
    the ball and cell centres y_c, whose subcells all lie within reach
    of y_c.  The ball subtends the half-angle arcsin(rho/|z|) about
    z0 - x, and the directions x - y the half-angle arcsin(reach/|v|)
    about v, so no ray meets the ball when the angle between v and
    z0 - x exceeds their sum.  Cells within reach of x are kept.
    """
    vv = np.sum(v * v, axis=1)
    reach2 = reach * reach
    angle = np.arctan2(np.abs(v[:, 0] * z[:, 1] - v[:, 1] * z[:, 0]),
                       -np.sum(v * z, axis=1))
    ball = np.arcsin(np.sqrt(rho2 / np.sum(z * z, axis=1)))
    cell = np.arcsin(np.sqrt(reach2 / np.maximum(vv, reach2)))
    return (vv > reach2) & (angle > ball + cell)


def _scatter_add(U, rows, c):
    """U[rows] += c, summing repeated rows in order, without BLAS."""
    for k in (0, 1):
        U[:, k] += np.bincount(rows, weights=c[:, k], minlength=U.shape[0])


def _field_at(f, D, X, h):
    """The solution field at the rows of X, a (T, 2) array of points.

    f is a mean-zero clipped grid field of spacing h.  Targets go in
    blocks sized by _PAIR_BLOCK, those outside the mollifier ball apart
    from those inside.  Per block, cells more than _NEAR_RADIUS + 1/2
    spacings away (Chebyshev) take the midpoint rule, nearer cells the
    refined midpoint rule, gathered as (pairs x subcells), and the cell
    holding a target the polar rule.  Inside targets evaluate their far
    field as one (B x N) array.  For outside targets most rays miss the
    ball and add exact zeros, so only far pairs that _ray_hits keeps
    are evaluated, and near cells that _cone_misses drops are never
    split into subcells; gathered pairs are summed per target with
    np.bincount.  The block-sized passes write into work arrays made
    once per call.  The sums avoid BLAS, so the result does not depend
    on its thread count.
    """
    X = np.asarray(X, dtype=float)
    U = np.zeros((X.shape[0], 2))
    act = np.nonzero((f.measures > 0) & (f.values != 0))[0]
    if act.size == 0:
        return U
    Y, meas, vals = f.centroids[act], f.measures[act], f.values[act]
    Yc = np.ascontiguousarray(Y.T)
    w = meas * vals
    r = _NEAR_REFINE
    offs = (np.arange(r) + 0.5) / r - 0.5
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    sub_off = np.vstack([ox.ravel(), oy.ravel()]) * h
    sub_reach = float(np.max(np.hypot(*sub_off)))
    sub_w = meas / (r * r) * vals
    near_reach = _NEAR_RADIUS * h + 0.5 * h
    own_reach = 0.5 * h * (1 + 1e-12)

    # a target has at most a side x side square of near cells
    side = 2 * math.floor(_NEAR_RADIUS + 0.5) + 1
    near_evals = side * side * r * r
    block = max(1, _PAIR_BLOCK // max(act.size, near_evals))
    # rows 0-1 hold kernel inputs (far weights or subcell centres), the
    # other 12 are _kernel_sum's and, before it runs, the masks' passes
    work = np.empty((14, block * max(act.size, near_evals)))
    flags = np.empty((2, work.shape[1]), dtype=bool)
    Z = X - D.ball_center
    rho2 = D.ball_radius ** 2
    excess = np.sum(Z * Z, axis=1) - rho2
    for out in (True, False):
        targets = np.nonzero((excess >= 0) == out)[0]
        for t0 in range(0, targets.size, block):
            rows = targets[t0:t0 + block]
            Xb = X[rows]
            xb = Xb.T[:, :, None]
            shape = (rows.size, act.size)
            dx, dy, cheb, t = _views(work[2:], shape, 4)
            near, hit = _views(flags, shape, 2)
            np.subtract(xb[0], Yc[0], out=dx)
            np.subtract(xb[1], Yc[1], out=dy)
            np.maximum(np.abs(dx, out=cheb), np.abs(dy, out=t), out=cheb)
            np.less_equal(cheb, near_reach, out=near)

            # the cell holding a target is left to the polar rule
            own = np.argmin(cheb, axis=1)
            holds = cheb[np.arange(rows.size), own] < own_reach
            # flat indices: nonzero of a 2-d mask is several times slower
            bi, j = np.divmod(np.flatnonzero(near), act.size)
            keep = ~(holds[bi] & (j == own[bi]))
            bi, j = bi[keep], j[keep]
            if out:
                zb = Z[rows].T[:, :, None]
                _ray_hits((dx, dy), zb, excess[rows, None], hit,
                          work[6:])
                hit &= np.logical_not(near, out=near)
                fi, fj = np.divmod(np.flatnonzero(hit), act.size)
                Ub = np.zeros((rows.size, 2))
                _scatter_add(Ub, fi, _kernel_sum(
                    xb[:, fi], Yc[:, fj, None], w[fj, None], D, True,
                    work[2:]))
                keep = ~_cone_misses(Xb[bi] - Y[j], Z[rows[bi]], rho2,
                                     sub_reach)
                bi, j = bi[keep], j[keep]
            else:
                wb = _views(work, shape, 1)[0]
                np.copyto(wb, w)
                np.copyto(wb, 0.0, where=near)
                Ub = _kernel_sum(xb, Yc, wb, D, False, work[2:])
            if bi.size:
                sub = _views(work, (bi.size, r * r), 2)
                for k in (0, 1):
                    np.add(Yc[k, j, None], sub_off[k], out=sub[k])
                _scatter_add(Ub, bi, _kernel_sum(
                    xb[:, bi], sub, sub_w[j, None], D, out, work[2:]))
            if np.any(holds):
                o = own[holds]
                Ub[holds] += vals[o][:, None] * _singular_cells(
                    Xb[holds], Y[o], h, D, out)
            U[rows] = Ub
    return U


def _project_mean_zero(f, report):
    mean = f.mean()
    scale = max(f.max_abs(), 1e-300)
    if abs(mean) > 1e-10 * scale:
        report["mean_projected"] = abs(mean)
        return f.mean_zero_project()
    return f


def bogovskii_apply(f, x, D, report=None):
    """The solution field at one point x.

    f is a clipped grid field on D (see grid_field).  x on a gridline of
    its own cell is nudged toward the cell centroid by h * 1e-6 and the
    shift is recorded in the report dict when one is supplied.
    """
    _, h = _grid_step(f, "bogovskii_apply")
    if report is None:
        report = {}
    f = _project_mean_zero(f, report)
    cent = f.centroids
    x = np.asarray(x, dtype=float)

    # locate the cell of x on the grid; nudge off internal gridlines
    d_all = np.max(np.abs(cent - x), axis=1)
    own = int(np.argmin(d_all))
    if d_all[own] < 0.5 * h * (1 + 1e-12):
        off = np.abs(np.abs(x - cent[own]) - 0.5 * h)
        if np.any(off < 1e-12 * h):
            x = x + 1e-6 * h * np.sign(cent[own] - x + 1e-300)
            report["shifted"] = float(1e-6 * h)
    return _field_at(f, D, x[None, :], h)[0]


def _erode(inside, rings=2):
    """Keep cells whose full (2 rings+1)-square neighborhood is inside.

    Two rings: the centered stencil at a kept cell reaches only cells
    that are themselves at least one full cell away from the staircase
    boundary, so the divergence measurement never sees the boundary
    layer of the kernel field.
    """
    interior = inside.copy()
    for _ in range(rings):
        nxt = interior.copy()
        for sx in (-1, 0, 1):
            for sy in (-1, 0, 1):
                nxt &= np.roll(np.roll(interior, sx, axis=0), sy, axis=1)
        interior = nxt
    interior[:rings, :] = interior[-rings:, :] = False
    interior[:, :rings] = interior[:, -rings:] = False
    return interior


def _div_residual(div, fv, interior):
    num = math.sqrt(float(np.sum((div - fv)[interior] ** 2)))
    den = math.sqrt(float(np.sum(fv[interior] ** 2)))
    return num / den if den > 0 else 0.0


def _divergence_check(U, f, n, h):
    """Finite differences of the cell vector field U against f.

    Returns the (n, n, 2, 2) gradient, [i,j] = d u_i/d x_j, the
    divergence, f's inside cells, their interior (eroded by two rings,
    see _erode) and the relative L2 residual of div U - f there, all on
    f's n-by-n grid of spacing h.
    """
    grad = grid_gradient(U.reshape(n, n, 2), h)
    div = grad[..., 0, 0] + grad[..., 1, 1]
    inside = (f.measures > 0).reshape(n, n)
    interior = _erode(inside)
    residual = _div_residual(div, f.values.reshape(n, n), interior)
    return grad, div, inside, interior, residual


def bogovskii_field(f, D):
    """Solution field, gradient and divergence on f's own grid.

    Returns a dict with the vector field u, the finite-difference
    gradient and divergence, the grid spacing, the relative L2
    divergence residual on interior cells (staircase boundary eroded by
    two rings, see _erode), and the boundary-adjacent |u| statistics
    used by the zero-trace check.
    """
    n, h = _grid_step(f, "bogovskii_field")
    report = {}
    f = _project_mean_zero(f, report)
    cent = f.centroids
    U = _field_at(f, D, cent, h)
    u_field = SampledField(cent, f.measures, U)
    grad, div, inside, interior, residual = _divergence_check(U, f, n, h)

    # |u| on the ring of inside cells touching the staircase boundary
    rim = inside & ~_erode(inside, rings=1)
    umag = np.sqrt(np.sum(U.reshape(n, n, 2) ** 2, axis=-1))
    gmag = np.sqrt(np.sum(grad ** 2, axis=(-2, -1)))
    rim_u = float(np.mean(umag[rim])) if np.any(rim) else 0.0
    interior_scale = h * float(np.mean(gmag[interior])) if np.any(
        interior) else 0.0

    grad_field = SampledField(cent, f.measures, grad.reshape(-1, 2, 2))
    div_field = SampledField(cent, f.measures, div.reshape(-1))
    report.update({
        "u": u_field, "gradient": grad_field, "divergence": div_field,
        "f": f, "h": h, "interior_mask": interior.reshape(-1),
        "div_residual": residual,
        "boundary_mean_u": rim_u,
        "interior_step_scale": interior_scale,
    })
    return report


# ---------------------------------------------------------------------------
# estimates around the field


def check_modular_bound(field_report, A, B):
    """Least C in [1e-6, 1e9] with integral B(|grad u|) <= integral
    A(C |f|); inf when even 1e9 falls short.

    C is `modular_level_scale` of f at the level integral B(|grad u|):
    one Luxemburg norm of f with its measures divided by that level, so
    C satisfies the inequality and errs high by at most the norm's
    relative tolerance.  An infinite left side (a capped B exceeded)
    needs an infinite right side, which a capped A reaches at its cap;
    for any other A, C is inf.
    """
    lhs = modular(field_report["gradient"].magnitude_field(), B)
    f = field_report["f"]
    if modular(f * 1e-6, A) >= lhs:
        return 1e-6
    if modular(f * 1e9, A) < lhs:
        return math.inf
    return modular_level_scale(f, A, lhs)


def check_rearrangement_estimate(f, gradient_field, C, n_s=100):
    """(|grad u|)*(s) <= C (H f*(s) + G f*(s)) at log-spaced s.

    Returns the pointwise comparison plus the least C that would make
    the inequality hold on this sample (useful for calibration).
    """
    gstar = rearrange(gradient_field.magnitude_field())
    fstar = rearrange(f)
    T = min(gstar.total, fstar.total)
    s = np.geomspace(T * 1e-4, T, n_s)
    lhs = gstar(s)
    rhs = rearrangement_bound_rhs(fstar, s, C)
    with np.errstate(divide="ignore", invalid="ignore"):
        base = rhs / C
        ratio = np.where(base > 0, lhs / base, np.inf)
    least = float(np.max(ratio[np.isfinite(ratio)])) if np.any(
        np.isfinite(ratio)) else math.inf
    return {
        "s": s, "lhs": lhs, "rhs": rhs,
        "ok": bool(np.all(lhs <= rhs * (1 + 1e-12))),
        "least_C": least,
    }


# ---------------------------------------------------------------------------
# decomposition of the density


def _memberships(f, dec):
    """Each subdomain's cells and G_i, the cells of the later ones.

    Two lists of boolean masks over f's cells in subdomain order; the
    last subdomain's G is empty.
    """
    inside = [D.contains(f.centroids) for D in dec.subdomains]
    later = [np.zeros(f.n_cells, dtype=bool)]
    for ind in inside[:0:-1]:
        later.insert(0, later[0] | ind)
    return inside, later


def split_function(f, dec):
    """Split a mean-zero density along the decomposition.

    Iteration over the subdomains: with G_i the union of the later
    ones, each step pushes the G_i-part of the running remainder g into
    the overlap with a correcting constant, so every piece is mean-zero,
    vanishes outside its subdomain, and the pieces telescope back to f
    no matter how the quadrature rounds: the identity f_i + g_i = g_{i-1}
    holds cellwise by construction.
    """
    report = {}
    f = _project_mean_zero(f, report)
    inside, unions = _memberships(f, dec)
    N = len(inside)
    covered = inside[0] | unions[0]
    if np.any((f.measures > 0) & (f.values != 0) & ~covered):
        raise ValueError("f has support outside the decomposition")
    if N == 1:
        return [SampledField(f.centroids, f.measures,
                             np.where(f.measures > 0, f.values, 0.0))]

    m = f.measures
    # zero-measure ghost cells carry no information; normalize them so
    # the pieces sum back to f cell by cell even off the domain
    g = np.where(m > 0, f.values, 0.0)
    pieces = []
    for i in range(N - 1):
        om = inside[i]
        Gi = unions[i]
        overlap = om & Gi
        over_m = math.fsum(m[overlap])
        if over_m <= 0:
            raise ValueError(
                "subdomain %d does not overlap the union of the later ones;"
                " reorder the decomposition" % (i + 1))
        int_omega = math.fsum((m * g)[om])
        int_g_minus = math.fsum((m * g)[Gi & ~om])
        fi = np.where(om, g - np.where(overlap, int_omega / over_m, 0.0), 0.0)
        g = np.where(Gi, np.where(overlap, -int_g_minus / over_m, g), 0.0)
        pieces.append(SampledField(f.centroids, m, fi))
    pieces.append(SampledField(f.centroids, m, g))
    return pieces


def decomposition_norm_bound(f, dec):
    """Product bound on ||f_i|| / ||f|| from the measured set sizes.

    For piece i (1-based): (1 + 4 |O_i| / |O_i cap G_i|) times the
    product over j < i of (1 + 4 max(1, |G_j| / |O_j cap G_j|)).  The
    ratios are measure ratios, so one bound serves every norm that is
    monotone under restriction and constant-shift, per piece.
    """
    m = f.measures
    inside, unions = _memberships(f, dec)
    N = len(inside)
    bounds = []
    running = 1.0
    for i in range(N):
        if i < N - 1:
            om, Gi = inside[i], unions[i]
            over = math.fsum(m[om & Gi])
            omega_i = math.fsum(m[om])
            gi = math.fsum(m[Gi])
            bounds.append(running * (1 + 4 * omega_i / over))
            running *= 1 + 4 * max(1.0, gi / over)
        else:
            bounds.append(running)
    return bounds


def bogovskii_general(f, dec):
    """Solution field on a union of star-shaped subdomains.

    Splits f, solves each piece on its own subdomain over the shared
    grid, and sums.  The pieces telescope to f minus its mean, so the
    divergence of the sum is compared against that projection on the
    interior of the whole union and, separately, on the interior of
    each subdomain (the per-subdomain residuals are the meaningful ones
    near the junctions, where the union's staircase is the roughest).
    """
    n, h = _grid_step(f, "bogovskii_general")
    f = _project_mean_zero(f, {})
    pieces = split_function(f, dec)
    total = np.zeros((f.n_cells, 2))
    sub_reports = []
    for fi, D in zip(pieces, dec.subdomains):
        rep = bogovskii_field(fi, D)
        sub_reports.append(rep)
        total += rep["u"].values
    u_field = SampledField(f.centroids, f.measures, total)

    _, div, inside, interior, residual = _divergence_check(total, f, n, h)

    # Per-subdomain consistency of each piece's solve.  The pieces are
    # only piecewise smooth (the recursion adds indicator-weighted
    # constants), and a difference quotient says nothing about the
    # divergence at a jump of the target, so each residual is measured
    # on the smoothness regions of the piece: cells grouped by their
    # membership pattern across all subdomains, each group eroded.
    memberships, _ = _memberships(f, dec)
    region_id = np.zeros(f.n_cells, dtype=np.int64)
    for j, ind in enumerate(memberships):
        region_id += ind.astype(np.int64) << j
    per_sub = []
    for i, rep in enumerate(sub_reports):
        own = memberships[i].reshape(n, n)
        mask = np.zeros((n, n), dtype=bool)
        for rid in np.unique(region_id[region_id > 0]):
            mask |= _erode((region_id == rid).reshape(n, n) & own & inside)
        di = rep["divergence"].values.reshape(n, n)
        fi = pieces[i].values.reshape(n, n)
        per_sub.append(_div_residual(di, fi, mask))
    return {
        "u": u_field,
        "pieces": pieces,
        "sub_reports": sub_reports,
        "divergence": SampledField(f.centroids, f.measures, div.reshape(-1)),
        "div_residual": residual,
        "div_residual_per_subdomain": per_sub,
        "interior_mask": interior.reshape(-1),
    }
