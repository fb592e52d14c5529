"""Negative-norm estimation over finite families of smooth test fields.

The dual norm sup over all smooth compactly supported vector fields is
not computable; everything here produces certified one-sided numbers.
The test family consists of tensor-product bubble fields

    phi(x) = ((x1-a1)(b1-x1))^2 ((x2-a2)(b2-x2))^2 e_d

on dyadic sub-boxes of a rectangle, whose gradients are polynomial and
whose pairings with a cell field are exact.  Each cell integral of
div phi is a four-corner difference of P = px (x) py, the separable
antiderivative at the cell corners.  Summation by parts moves the
differences onto the field: the pairing is sum_ab P[a,b] D[a,b], with D
the second difference of the zero-padded values on the corner grid.
For a constant field D vanishes exactly off the four corners of the
grid box, where every bubble vanishes, so the lower bound is literally
zero; a field of x alone leaves D exactly zero off the two columns at
the y ends, where every y-oriented bubble vanishes, and likewise for y.
Member gradient norms are Luxemburg norms of the sampled gradient
magnitude; they enter only as normalizations, and their sampling
resolution is fixed so that values are comparable across members and
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from orlicz.spaces import SampledField, luxemburg_norm, pairing, square_grid
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

    def grad_magnitude_field(self):
        """|grad phi| sampled on the _NORM_SAMPLES-square midpoint grid
        of the box."""
        m = _NORM_SAMPLES
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

    def grad_norms(self, Atilde):
        """Luxemburg norms in Atilde of |grad phi|, in family order.

        |grad(g e_d)| = |grad g| for either orientation d, and the
        samples move with the box, so one norm is taken per box width
        and height.
        """
        spec = young_to_json(Atilde)
        out = np.empty(len(self.members))
        for idx, mem in enumerate(self.members):
            key = (mem.hi[0] - mem.lo[0], mem.hi[1] - mem.lo[1], spec)
            if key not in self._norm_cache:
                self._norm_cache[key] = luxemburg_norm(
                    mem.grad_magnitude_field(), Atilde)
            out[idx] = self._norm_cache[key]
        return out

    def pairing(self, idx, u):
        """integral of u div(phi_idx), exact for the cell field u.

        Summed by parts as in :func:`_pairings`: a constant u has its
        second difference on the grid box's corners only, where the
        bubble vanishes, so it pairs to exactly zero.
        """
        return float(_pairings([self.members[idx]], u)[0])


def _pairings(members, u):
    """integral of u div(phi) for each member, on u's square grid.

    sum_ij u_ij (P[i+1,j+1] - P[i,j+1] - P[i+1,j] + P[i,j]) is summed by
    parts as sum_ab P[a,b] D[a,b], with D a difference of differences of
    the zero-padded values, so it is exactly zero across a field that is
    constant along an axis.  The cell edges are rebuilt from the
    centroids; one within 1e-9 h of a member's box end (a rounding
    error) is snapped to it, so the bubble vanishes there exactly and a
    constant pairs to exactly zero on every grid.  The contraction calls
    no BLAS, so its bits do not depend on the thread count.  A member
    whose box misses the grid pairs to exactly 0.
    """
    n, xs, ys = square_grid(u, "pairing")
    lo, hi = (np.array([getattr(m, end) for m in members])
              for end in ("lo", "hi"))
    orient = np.array([m.orient for m in members])[:, None]
    P = []
    meets = True
    for ax, c in enumerate((xs, ys)):
        h = c[1] - c[0]
        e = np.concatenate([c - h / 2.0, [c[-1] + h / 2.0]])
        a, b = lo[:, ax, None], hi[:, ax, None]
        tol = 1e-9 * h
        es = np.where(np.abs(e - a) <= tol, a,
                      np.where(np.abs(e - b) <= tol, b, e))
        P.append(np.where(orient == ax, _bubble(es, a, b),
                          _bubble_anti(es, a, b)))
        meets = meets & (a[:, 0] < e[-1]) & (b[:, 0] > e[0])
    D = np.diff(np.diff(np.pad(u.values.reshape(n, n), 1), axis=1), axis=0)
    return np.where(meets, np.einsum("ma,ab,mb->m", P[0], D, P[1]), 0.0)


def member_ratios(u, A, family):
    """|pairing| / grad-norm for every member, in family order."""
    if not family.members:
        raise ValueError("empty test family")
    return np.abs(_pairings(family.members, u)) / \
        family.grad_norms(A.conjugate())


def neg_norm_lower(u, A, family):
    """Finite-family lower bound for the dual norm, with its witness.

    Ties keep the earliest (coarsest) member.
    """
    ratios = member_ratios(u, A, family)
    witness = int(np.argmax(ratios))  # argmax takes the first maximum
    return float(ratios[witness]), witness


def neg_norm_upper(u, A):
    """2 ||u - mean||, the elementary upper estimate."""
    w = u.mean_zero_project()
    return 2.0 * luxemburg_norm(w, A)


def two_sided_check(u, A, B, family):
    """Lower/upper data for the pair (A, B) on one field.

    r_high = lower / ||u - mean||_A is certified to stay below 2 for
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
        "upper": 2.0 * nA,
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

    ``v`` must live on a uniform square row-major grid, as
    :func:`orlicz.spaces.square_grid` reads it (ValueError otherwise).
    The bump is then one stencil of at most n - 1 cells each way, and
    both sums are zero-padded FFT correlations with it.
    A cell with no nonzero value within reach is an exact zero: the
    correlation of the nonzero indicator with the disc footprint counts
    those values, and an integer count rounds exactly.
    """
    n, xs, ys = square_grid(v, "mollification")
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
    as :func:`orlicz.spaces.square_grid` reads it, and K an integer
    >= 1; anything else raises ValueError.
    """
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise ValueError("K must be an integer >= 1, got %r" % (K,))
    n, _, _ = square_grid(v, "sup_approx_convergence")
    Atilde = A.conjugate()
    target = luxemburg_norm(v, Atilde)
    cent = v.centroids
    lo = cent.min(axis=0)
    hi = cent.max(axis=0)
    # each axis's cell half-width back to the true box edge
    h = (hi - lo) / (n - 1)
    lo = lo - h / 2.0
    hi = hi + h / 2.0
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
