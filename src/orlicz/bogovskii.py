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
b = e.(x - z0), Delta = b^2 - |x - z0|^2 + rho^2 and s = t + b, the bump
is c rho^-8 (Delta - s^2)^4, so the chord of B is s in
[max(-sqrt(Delta), b), sqrt(Delta)] and both integrals are closed-form:
J0 is a degree-9 antiderivative in s, and J1 = c rho^-8 (Delta -
s_lo^2)^5 / 10 - b J0.

Densities are cell fields on a uniform grid clipped to the domain
(outside cells keep value and measure zero).  The outer integral is a
midpoint rule over far cells, a refined midpoint rule over cells near
the evaluation point, and an exact-in-radius polar rule over the cell
containing it, where only the angular integral needs quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from orlicz.spaces import SampledField, grid_gradient, luxemburg_norm, modular, \
    rearrange, rearrangement_bound_rhs
from orlicz.young import YoungFunction

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


class StarDomain:
    """Polygon star-shaped with respect to a reference ball.

    The mollifier is the normalized bump c (1 - |z - center|^2/rho^2)^4
    supported in the ball; c = 5/(pi rho^2) makes it integrate to 1.
    """

    def __init__(self, vertices, ball_center, ball_radius, check=True):
        self.vertices = np.asarray(vertices, dtype=float)
        self.ball_center = np.asarray(ball_center, dtype=float)
        self.ball_radius = float(ball_radius)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2 \
                or self.vertices.shape[0] < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if self.ball_radius <= 0:
            raise ValueError("ball radius must be positive")
        if check and not self.star_check():
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

    def star_check(self, n_dirs=12, n_steps=9):
        """Sample segments vertex-to-ball and test containment."""
        ang = np.linspace(0, 2 * math.pi, n_dirs, endpoint=False)
        ball_pts = self.ball_center + 0.999 * self.ball_radius * \
            np.column_stack([np.cos(ang), np.sin(ang)])
        ts = (np.arange(1, n_steps + 1)) / (n_steps + 1.0)
        for vert in self.vertices:
            for b in ball_pts:
                seg = vert[None, :] * (1 - ts[:, None]) + b[None, :] * ts[:, None]
                if not np.all(self.contains(seg)):
                    return False
        return True

    # -- the bump -------------------------------------------------------

    def mollifier(self, pts):
        pts = np.asarray(pts, dtype=float)
        d2 = np.sum((pts - self.ball_center) ** 2, axis=-1)
        q = 1.0 - d2 / self.ball_radius ** 2
        c = 5.0 / (math.pi * self.ball_radius ** 2)
        return c * np.where(q > 0, q, 0.0) ** 4

    def mollifier_mass(self, n=400):
        """Midpoint-rule integral of the bump, a quadrature sanity check."""
        r = self.ball_radius
        lo = self.ball_center - r
        h = 2.0 * r / n
        xs = lo[0] + (np.arange(n) + 0.5) * h
        ys = lo[1] + (np.arange(n) + 0.5) * h
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        return float(np.sum(self.mollifier(pts)) * h * h)

    # -- stock shapes -----------------------------------------------------

    @staticmethod
    def disk(center=(0.0, 0.0), radius=1.0, n_vertices=96, ball_frac=0.5):
        ang = np.linspace(0, 2 * math.pi, n_vertices, endpoint=False)
        verts = np.asarray(center, float) + radius * \
            np.column_stack([np.cos(ang), np.sin(ang)])
        return StarDomain(verts, center, ball_frac * radius, check=False)

    @staticmethod
    def rectangle(lo, hi, ball_frac=0.35):
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        verts = np.array([[lo[0], lo[1]], [hi[0], lo[1]],
                          [hi[0], hi[1]], [lo[0], hi[1]]])
        center = 0.5 * (lo + hi)
        radius = ball_frac * float(np.min(hi - lo))
        return StarDomain(verts, center, radius, check=False)

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

    def covers(self, pts):
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
    inside = D.contains(cent) if not isinstance(D, DomainDecomposition) \
        else D.covers(cent)
    vals = np.where(inside, np.asarray(fn(X, Y), float).ravel(), 0.0)
    meas = np.where(inside, h * h, 0.0)
    return SampledField(cent, meas, vals)


def _grid_shape(u):
    n = int(round(math.sqrt(u.n_cells)))
    if n * n != u.n_cells:
        raise ValueError("field is not on a square grid")
    return n


def _grid_spacing(u):
    n = _grid_shape(u)
    xs = np.unique(u.centroids[:, 0])
    return float(xs[1] - xs[0]) if xs.size > 1 else 1.0


# ---------------------------------------------------------------------------
# kernel evaluation


def _ray_integrals(x, e, D):
    """J0 = int w(x + t e) dt and J1 = int w(x + t e) t dt over t >= 0.

    Exact antiderivatives over the chord of the support ball cut by the
    ray (see the module docstring); rays that miss contribute zero.
    Vectorized over leading axes of e.
    """
    xz = x - D.ball_center
    rho2 = D.ball_radius ** 2
    b = np.sum(e * xz, axis=-1)
    delta = b * b - float(xz @ xz) + rho2
    s_hi = np.sqrt(np.maximum(delta, 0.0))
    s_lo = np.maximum(-s_hi, b)
    hit = s_hi > s_lo
    scale = 5.0 / (math.pi * rho2 * rho2 ** 4)   # c rho^-8, c of the bump

    def anti(s):
        # antiderivative of (delta - s^2)^4, Horner form in s^2
        u = s * s
        return s * (delta ** 4 + u * (-4.0 / 3.0 * delta ** 3 + u * (
            1.2 * delta ** 2 + u * (-4.0 / 7.0 * delta + u / 9.0))))

    J0 = scale * (anti(s_hi) - anti(s_lo))
    J1 = scale * (delta - s_lo * s_lo) ** 5 / 10.0 - b * J0
    return np.where(hit, J0, 0.0), np.where(hit, J1, 0.0)


def _kernel_at(x, Y, D):
    """k(x, y) for y in rows of Y: (x-y)/|x-y|^2 * (|x-y| J0 + J1)."""
    d = x - Y
    dist = np.sqrt(np.sum(d * d, axis=-1))
    safe = np.where(dist > 0, dist, 1.0)
    e = d / safe[..., None]
    J0, J1 = _ray_integrals(x, e, D)
    scale = np.where(dist > 0, J0 / safe + J1 / safe ** 2, 0.0)
    return d * scale[..., None]


def _singular_cell_kernel_integral(x, cell_center, h, D):
    """integral of k(x, .) over the grid cell containing x.

    In polar coordinates around x the kernel is -n(theta)(J0 + J1/r),
    so the radial integral is exact and only theta is sampled:
    integral = -int n(theta) (J0 R^2/2 + J1 R) dtheta with R the exit
    distance of the ray from x to the cell boundary.
    """
    m = _SINGULAR_THETA
    theta = (np.arange(m) + 0.5) * (2 * math.pi / m)
    n_dir = np.column_stack([np.cos(theta), np.sin(theta)])
    lo = cell_center - 0.5 * h
    hi = cell_center + 0.5 * h
    with np.errstate(divide="ignore"):
        tx = np.where(n_dir[:, 0] > 0, (hi[0] - x[0]) / n_dir[:, 0],
                      np.where(n_dir[:, 0] < 0, (lo[0] - x[0]) / n_dir[:, 0],
                               np.inf))
        ty = np.where(n_dir[:, 1] > 0, (hi[1] - x[1]) / n_dir[:, 1],
                      np.where(n_dir[:, 1] < 0, (lo[1] - x[1]) / n_dir[:, 1],
                               np.inf))
    R = np.minimum(tx, ty)
    J0, J1 = _ray_integrals(x, -n_dir, D)
    radial = J0 * R * R / 2.0 + J1 * R
    dtheta = 2 * math.pi / m
    return -dtheta * (n_dir * radial[:, None]).sum(axis=0)


def _project_mean_zero(f, report):
    mean = f.mean()
    scale = max(f.max_abs(), 1e-300)
    if abs(mean) > 1e-10 * scale:
        report["mean_projected"] = abs(mean)
        return f.mean_zero_project()
    return f


def bogovskii_apply(f, x, D, _prepared=None, report=None):
    """The solution field at one point x.

    f is a clipped grid field on D (see grid_field).  x on a gridline of
    its own cell is nudged toward the cell centroid by h * 1e-6 and the
    shift is recorded in the report dict when one is supplied.
    """
    if report is None:
        report = {}
    if _prepared is None:
        f = _project_mean_zero(f, report)
        _prepared = _prepare_cells(f)
    sub_Y, sub_w, sub_owner, h = _prepared
    cent, meas = f.centroids, f.measures
    x = np.asarray(x, dtype=float)

    # locate the cell of x on the grid; nudge off internal gridlines
    d_all = np.max(np.abs(cent - x), axis=1)
    own = int(np.argmin(d_all))
    if d_all[own] < 0.5 * h * (1 + 1e-12):
        off = np.abs(np.abs(x - cent[own]) - 0.5 * h)
        if np.any(off < 1e-12 * h):
            x = x + 1e-6 * h * np.sign(cent[own] - x + 1e-300)
            report["shifted"] = float(1e-6 * h)
    else:
        own = -1  # x outside the grid: no singular cell

    vals = f.values
    u = np.zeros(2)
    active = (meas > 0) & (vals != 0)
    near_mask = d_all <= _NEAR_RADIUS * h + 0.5 * h
    if own >= 0:
        near_mask[own] = False

    far_idx = np.nonzero(~near_mask & active)[0]
    if far_idx.size:
        k = _kernel_at(x, cent[far_idx], D)
        u += (meas[far_idx] * vals[far_idx]) @ k

    near_lookup = near_mask & active
    if np.any(near_lookup):
        take = near_lookup[sub_owner]
        Ys = sub_Y[take]
        k = _kernel_at(x, Ys, D)
        u += (sub_w[take] * vals[sub_owner[take]]) @ k

    if own >= 0 and active[own]:
        cell_int = _singular_cell_kernel_integral(x, cent[own], h, D)
        u += vals[own] * cell_int
    return u


def _prepare_cells(f):
    cent = f.centroids
    h = _grid_spacing(f)
    r = _NEAR_REFINE
    # subcell midpoints for the refined near-field midpoint rule
    offs = (np.arange(r) + 0.5) / r - 0.5
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    off = np.column_stack([ox.ravel(), oy.ravel()]) * h
    sub_owner = np.repeat(np.arange(f.n_cells), r * r)
    sub_Y = (cent[:, None, :] + off[None, :, :]).reshape(-1, 2)
    sub_w = np.repeat(f.measures / (r * r), r * r)
    return sub_Y, sub_w, sub_owner, h


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


def bogovskii_field(f, D):
    """Solution field, gradient and divergence on f's own grid.

    Returns a dict with the vector field u, the finite-difference
    gradient and divergence, the grid spacing, the relative L2
    divergence residual on interior cells (staircase boundary eroded by
    two rings, see _erode), and the boundary-adjacent |u| statistics
    used by the zero-trace check.
    """
    report = {}
    f = _project_mean_zero(f, report)
    prepared = _prepare_cells(f)
    n = _grid_shape(f)
    h = prepared[-1]
    cent = f.centroids
    U = np.empty((f.n_cells, 2))
    for i in range(f.n_cells):
        U[i] = bogovskii_apply(f, cent[i], D, _prepared=prepared)
    u_field = SampledField(cent, f.measures, U)

    ug = U.reshape(n, n, 2)
    grad = grid_gradient(ug, h)          # (n, n, 2, 2), [i,j] = d u_i/d x_j
    div = grad[..., 0, 0] + grad[..., 1, 1]
    inside = (f.measures > 0).reshape(n, n)
    interior = _erode(inside)
    fv = f.values.reshape(n, n)
    residual = _div_residual(div, fv, interior)

    # |u| on the ring of inside cells touching the staircase boundary
    rim = inside & ~_erode(inside, rings=1)
    umag = np.sqrt(np.sum(ug ** 2, axis=-1))
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


def check_modular_bound(field_report, A, B, c_lo=1e-6, c_hi=1e9):
    """Least C with integral B(|grad u|) <= integral A(C |f|)."""
    lhs = modular(field_report["gradient"].magnitude_field(), B)
    f = field_report["f"]

    def rhs(c):
        return modular(f * c, A)

    if rhs(c_lo) >= lhs:
        return c_lo
    if rhs(c_hi) < lhs:
        return math.inf
    lo, hi = c_lo, c_hi
    for _ in range(200):
        if hi - lo <= 1e-10 * hi:
            break
        mid = math.sqrt(lo * hi)
        if rhs(mid) >= lhs:
            hi = mid
        else:
            lo = mid
    return hi


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
    doms = dec.subdomains
    N = len(doms)
    inside = [D.contains(f.centroids) for D in doms]
    covered = np.zeros(f.n_cells, dtype=bool)
    for ind in inside:
        covered |= ind
    if np.any((f.measures > 0) & (f.values != 0) & ~covered):
        raise ValueError("f has support outside the decomposition")
    if N == 1:
        return [SampledField(f.centroids, f.measures,
                             np.where(f.measures > 0, f.values, 0.0))]

    g_union = inside[-1].copy()
    unions = [None] * N          # unions[i] = indicator of G_i (0-based i)
    for i in range(N - 2, -1, -1):
        unions[i] = g_union.copy()
        g_union |= inside[i]

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
    doms = dec.subdomains
    N = len(doms)
    m = f.measures
    inside = [D.contains(f.centroids) for D in doms]
    g_union = inside[-1].copy()
    unions = [None] * N
    for i in range(N - 2, -1, -1):
        unions[i] = g_union.copy()
        g_union |= inside[i]
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
    grid, and sums.  The divergence of the sum is compared against f on
    the interior of the whole union and, separately, on the interior of
    each subdomain (the per-subdomain residuals are the meaningful ones
    near the junctions, where the union's staircase is the roughest).
    """
    pieces = split_function(f, dec)
    total = np.zeros((f.n_cells, 2))
    sub_reports = []
    for fi, D in zip(pieces, dec.subdomains):
        rep = bogovskii_field(fi, D)
        sub_reports.append(rep)
        total += rep["u"].values
    u_field = SampledField(f.centroids, f.measures, total)

    n = _grid_shape(f)
    h = _grid_spacing(f)
    grad = grid_gradient(total.reshape(n, n, 2), h)
    div = grad[..., 0, 0] + grad[..., 1, 1]
    fv = f.values.reshape(n, n)
    inside = (f.measures > 0).reshape(n, n)
    interior = _erode(inside)

    # Per-subdomain consistency of each piece's solve.  The pieces are
    # only piecewise smooth (the recursion adds indicator-weighted
    # constants), and a difference quotient says nothing about the
    # divergence at a jump of the target, so each residual is measured
    # on the smoothness regions of the piece: cells grouped by their
    # membership pattern across all subdomains, each group eroded.
    memberships = [D.contains(f.centroids) for D in dec.subdomains]
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
        "div_residual": _div_residual(div, fv, interior),
        "div_residual_per_subdomain": per_sub,
        "interior_mask": interior.reshape(-1),
    }
