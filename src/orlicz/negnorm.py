"""Negative-norm estimation over finite families of smooth test fields.

The dual norm sup over all smooth compactly supported vector fields is
not computable; everything here produces certified one-sided numbers.
The test family consists of tensor-product bubble fields

    phi(x) = ((x1-a1)(b1-x1))^2 ((x2-a2)(b2-x2))^2 e_d

on dyadic sub-boxes of a rectangle, whose gradients are polynomial and
whose pairings with a cell field are exact: each cell integral of
div phi is a four-corner difference of the product antiderivative, and
the total is fsum'ed over the corner terms, so for a constant field the
terms cancel in exactly matched pairs and the lower bound is literally
zero.  Member gradient norms are Luxemburg norms of the sampled
gradient magnitude; they enter only as normalizations, and their
sampling resolution is fixed so that values are comparable across
members and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from orlicz.spaces import SampledField, luxemburg_norm, pairing
from orlicz.young import check_balance, young_to_json

__all__ = [
    "BubbleMember",
    "TestFamily",
    "neg_norm_lower",
    "member_ratios",
    "neg_norm_upper",
    "two_sided_check",
    "sup_approx_convergence",
]

_NORM_SAMPLES = 40  # per axis, per support box


def _bubble(t, a, b):
    t = np.clip(t, a, b)
    return ((t - a) * (b - t)) ** 2


def _bubble_prime(t, a, b):
    out = 2.0 * (t - a) * (b - t) * (a + b - 2.0 * t)
    return np.where((t > a) & (t < b), out, 0.0)


def _bubble_anti(t, a, b):
    """integral of the bubble from a to t, clipped to the support."""
    c = b - a
    s = np.clip(t - a, 0.0, c)
    return c * c * s ** 3 / 3.0 - c * s ** 4 / 2.0 + s ** 5 / 5.0


def _square_grid(u, what):
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


@dataclass(frozen=True)
class BubbleMember:
    """One tensor-product bubble field phi = g(x) e_orient."""

    lo: tuple
    hi: tuple
    orient: int
    scale: int

    def eval(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        g = _bubble(pts[:, 0], self.lo[0], self.hi[0]) * \
            _bubble(pts[:, 1], self.lo[1], self.hi[1])
        out = np.zeros((pts.shape[0], 2))
        out[:, self.orient] = g
        return out

    def grad(self, pts):
        """(n, 2, 2) analytic gradient, rows indexed by component."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        b1 = _bubble(pts[:, 0], self.lo[0], self.hi[0])
        b2 = _bubble(pts[:, 1], self.lo[1], self.hi[1])
        d1 = _bubble_prime(pts[:, 0], self.lo[0], self.hi[0])
        d2 = _bubble_prime(pts[:, 1], self.lo[1], self.hi[1])
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, self.orient, 0] = d1 * b2
        out[:, self.orient, 1] = b1 * d2
        return out

    def grad_magnitude_field(self, m=_NORM_SAMPLES):
        """|grad phi| sampled on an m-by-m midpoint grid of the box."""
        hx = (self.hi[0] - self.lo[0]) / m
        hy = (self.hi[1] - self.lo[1]) / m
        xs = self.lo[0] + (np.arange(m) + 0.5) * hx
        ys = self.lo[1] + (np.arange(m) + 0.5) * hy
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        g = self.grad(pts)
        mags = np.sqrt(np.sum(g * g, axis=(1, 2)))
        meas = np.full(pts.shape[0], hx * hy)
        return SampledField(pts, meas, mags)


class TestFamily:
    """Ordered bubble members on dyadic boxes of a rectangle.

    Scales are appended coarse to fine, so the family of a smaller depth
    is a prefix of the family of a larger one and enrichment claims are
    claims about prefixes.
    """

    def __init__(self, members):
        self.members = list(members)
        self._norm_cache = {}

    @staticmethod
    def bubbles(lo, hi, depth=3):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        members = []
        for scale in range(depth):
            parts = 2 ** scale
            ex = np.linspace(lo[0], hi[0], parts + 1)
            ey = np.linspace(lo[1], hi[1], parts + 1)
            for i in range(parts):
                for j in range(parts):
                    for orient in (0, 1):
                        members.append(BubbleMember(
                            (ex[i], ey[j]), (ex[i + 1], ey[j + 1]),
                            orient, scale))
        return TestFamily(members)

    def __len__(self):
        return len(self.members)

    def grad_norm(self, idx, Atilde):
        key = (idx, young_to_json(Atilde))
        if key not in self._norm_cache:
            field = self.members[idx].grad_magnitude_field()
            self._norm_cache[key] = luxemburg_norm(field, Atilde)
        return self._norm_cache[key]

    def pairing(self, idx, u):
        """integral of u div(phi_idx), exact for the cell field u.

        The cell integral of div phi is a difference of the separable
        antiderivative at the four cell corners; summing the signed
        corner terms with fsum makes shared corners cancel exactly, so
        a constant u pairs to exactly zero.
        """
        return _pair_member(self.members[idx], *_cell_grid(u))


def _cell_grid(u):
    """Cell edges ex, ey of a square-grid field and its (n, n) values."""
    n, xs, ys = _square_grid(u, "pairing")
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    ex = np.concatenate([xs - hx / 2.0, [xs[-1] + hx / 2.0]])
    ey = np.concatenate([ys - hy / 2.0, [ys[-1] + hy / 2.0]])
    return ex, ey, u.values.reshape(n, n)


def _pair_member(mem, ex, ey, values):
    """TestFamily.pairing of one member on a grid from _cell_grid."""
    n = len(values)
    # cell window covering the support box
    i0 = max(int(np.searchsorted(ex, mem.lo[0], "right")) - 1, 0)
    i1 = min(int(np.searchsorted(ex, mem.hi[0], "left")), n)
    j0 = max(int(np.searchsorted(ey, mem.lo[1], "right")) - 1, 0)
    j1 = min(int(np.searchsorted(ey, mem.hi[1], "left")), n)
    if i1 <= i0 or j1 <= j0:
        return 0.0

    if mem.orient == 0:
        px = _bubble(ex[i0:i1 + 1], mem.lo[0], mem.hi[0])
        py = _bubble_anti(ey[j0:j1 + 1], mem.lo[1], mem.hi[1])
    else:
        px = _bubble_anti(ex[i0:i1 + 1], mem.lo[0], mem.hi[0])
        py = _bubble(ey[j0:j1 + 1], mem.lo[1], mem.hi[1])
    P = np.outer(px, py)
    vals = values[i0:i1, j0:j1]
    terms = np.concatenate([
        (vals * P[1:, 1:]).ravel(),
        (-vals * P[:-1, 1:]).ravel(),
        (-vals * P[1:, :-1]).ravel(),
        (vals * P[:-1, :-1]).ravel(),
    ])
    return math.fsum(terms.tolist())


def member_ratios(u, A, family):
    """|pairing| / grad-norm for every member, in family order; the
    grid of u is checked once for all members."""
    if not family.members:
        raise ValueError("empty test family")
    Atilde = A.conjugate()
    grid = _cell_grid(u)
    out = np.empty(len(family.members))
    for idx, mem in enumerate(family.members):
        num = abs(_pair_member(mem, *grid))
        out[idx] = num / family.grad_norm(idx, Atilde)
    return out


def neg_norm_lower(u, A, family):
    """Finite-family lower bound for the dual norm, with its witness.

    Ties keep the earliest (coarsest) member.
    """
    ratios = member_ratios(u, A, family)
    witness = int(np.argmax(ratios))  # argmax takes the first maximum
    return float(ratios[witness]), witness


def neg_norm_upper(u, A, C2=1.0):
    """2 C2 ||u - mean||, the elementary upper estimate."""
    w = u.mean_zero_project()
    return 2.0 * C2 * luxemburg_norm(w, A)


def two_sided_check(u, A, B, family, C2=1.0):
    """Lower/upper data for the pair (A, B) on one field.

    r_high = lower / ||u - mean||_A is certified to stay below 2 C2 for
    any family (the lower bound underestimates the sup); r_low is only
    meaningful across a corpus and is reported, not asserted.  An
    inadmissible pair flags the report instead of asserting anything.
    """
    balance = check_balance(A, B)
    lower, witness = neg_norm_lower(u, A, family)
    w = u.mean_zero_project()
    nA = luxemburg_norm(w, A)
    nB = luxemburg_norm(w, B)
    return {
        "lower": lower,
        "upper": 2.0 * C2 * nA,
        "witness": witness,
        "r_low": lower / nB if nB > 0 else math.inf,
        "r_high": lower / nA if nA > 0 else math.inf,
        "admissible": balance.admissible,
        "degenerate": nA == 0.0,
    }


def _truncate(v, k):
    vals = v.values
    return v.with_values(np.sign(vals) * np.minimum(np.abs(vals), float(k)))


def _mollify(v, radius):
    """Partition-normalized mollification with the polynomial bump.

    out_i = sum_j w_ij m_j v_j / sum_j w_ij m_j, with the radial bump
    w_ij = ((1 - |x_i - x_j|^2/r^2)_+)^4 and cell measures m_j, so
    constants are reproduced exactly and the sup norm never grows.

    ``v`` must live on a uniform square row-major grid (ValueError
    otherwise).  The bump is then one stencil of at most n - 1 cells
    each way, and both sums are zero-padded FFT correlations with it.
    A cell with no nonzero value within reach is an exact zero: the
    correlation of the nonzero indicator with the disc footprint counts
    those values, and an integer count rounds exactly.
    """
    n, xs, ys = _square_grid(v, "mollification")
    vals = v.values.reshape(n, n)
    meas = v.measures.reshape(n, n)
    r2 = radius * radius
    h = [c[1] - c[0] for c in (xs, ys)]
    reach = [min(math.ceil(radius / hk), n - 1) for hk in h]
    ox, oy = [np.arange(-r, r + 1) * hk for r, hk in zip(reach, h)]
    d2 = ox[:, None] ** 2 + oy[None, :] ** 2
    footprint = d2 < r2
    bump = np.where(footprint, (1.0 - d2 / r2) ** 4, 0.0)

    # the bump takes measure * value and measure, the footprint the
    # nonzero indicator; the stencil is symmetric, so convolving is
    # correlating
    data = np.stack([meas * vals, meas, (meas > 0.0) & (vals != 0.0)])
    shape = [scipy.fft.next_fast_len(n + 2 * r, real=True) for r in reach]
    kern = scipy.fft.rfft2(np.stack([bump, footprint]), s=shape)[[0, 0, 1]]
    full = scipy.fft.irfft2(scipy.fft.rfft2(data, s=shape) * kern, s=shape)
    num, den, count = full[:, reach[0]:reach[0] + n, reach[1]:reach[1] + n]
    out = np.where(np.rint(count) > 0.0,
                   num / np.where(den > 0.0, den, 1.0), 0.0)
    return v.with_values(out.ravel())


def sup_approx_convergence(v, A, K=32, probe=None):
    """Truncate-restrict-mollify approximants of a dual density.

    For k = 1, 2, 4, ... K the density is truncated at height k,
    restricted to the cells at distance at least 2/k from the boundary
    of the bounding rectangle, and mollified at radius 1/k.  Reported
    per step: the Luxemburg norm of the approximant in the conjugate
    space (which should approach the norm of v), the norm of the bare
    truncation (nondecreasing), and the pairing with the probe field
    when one is given.

    ``v`` must be a scalar field on a uniform square row-major grid,
    as :meth:`TestFamily.pairing` requires, and K an integer >= 1;
    anything else raises ValueError.
    """
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise ValueError("K must be an integer >= 1, got %r" % (K,))
    n, _, _ = _square_grid(v, "sup_approx_convergence")
    Atilde = A.conjugate()
    target = luxemburg_norm(v, Atilde)
    cent = v.centroids
    lo = cent.min(axis=0)
    hi = cent.max(axis=0)
    # cell half-width back to the true box edge
    hx = (hi[0] - lo[0]) / (n - 1)
    lo = lo - hx / 2.0
    hi = hi + hx / 2.0
    dist = np.minimum.reduce([
        cent[:, 0] - lo[0], hi[0] - cent[:, 0],
        cent[:, 1] - lo[1], hi[1] - cent[:, 1],
    ])
    ks = []
    k = 1
    while k <= K:
        ks.append(k)
        k *= 2
    if ks[-1] != K:
        ks.append(K)
    rows = []
    for k in ks:
        vk = _truncate(v, k)
        wk = vk.with_values(np.where(dist >= 2.0 / k, vk.values, 0.0))
        phik = _mollify(wk, 1.0 / k)
        row = {
            "k": k,
            "norm": luxemburg_norm(phik, Atilde),
            "truncation_norm": luxemburg_norm(vk, Atilde),
            "mean_zero_residual": abs(vk.mean_zero_project().mean()),
        }
        if probe is not None:
            row["pairing"] = pairing(probe, phik)
        rows.append(row)
    report = {"target": target, "steps": rows}
    if probe is not None:
        report["target_pairing"] = pairing(probe, v)
    return report
