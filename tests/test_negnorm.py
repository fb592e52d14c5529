"""Negative-norm lower/upper machinery and the approximation sequence.

Corpus ratio bands were measured before being frozen: the widest
max/min spread of r_low over the ten-field corpus is 2.08 (any pair,
any depth), asserted at the contractual 4.  The supremum-approximation
rates were measured on the compactly supported bubble (1.6% at k=16,
0.5% at k=32) and are asserted at 2%.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import corpus_fields
from orlicz import negnorm
from orlicz import young
from orlicz.negnorm import (member_ratios, neg_norm_lower, neg_norm_upper,
                            sup_approx_convergence, two_sided_check)
from orlicz.spaces import SampledField, luxemburg_norm, pairing

N = 64
H = 1.0 / N


def _grid():
    xs = (np.arange(N) + 0.5) * H
    return np.meshgrid(xs, xs, indexing="ij")


def _field(arr):
    return SampledField.from_grid(arr, H)


@pytest.fixture(scope="module")
def family():
    return negnorm.TestFamily.bubbles((0.0, 0.0), (1.0, 1.0), depth=3)


# -- family layout ------------------------------------------------------

def test_family_counts():
    assert len(negnorm.TestFamily.bubbles((0, 0), (1, 1), depth=1)) == 2
    assert len(negnorm.TestFamily.bubbles((0, 0), (1, 1), depth=2)) == 10
    assert len(negnorm.TestFamily.bubbles((0, 0), (1, 1), depth=3)) == 42


def test_coarser_family_is_a_prefix(family):
    shallow = negnorm.TestFamily.bubbles((0.0, 0.0), (1.0, 1.0), depth=2)
    assert family.members[:10] == shallow.members


def test_members_vanish_on_box_boundary(family):
    mem = family.members[6]  # some finer-scale member
    lo, hi = mem.lo, mem.hi
    pts = [(lo[0], 0.5 * (lo[1] + hi[1])),
           (hi[0], 0.5 * (lo[1] + hi[1])),
           (0.5 * (lo[0] + hi[0]), lo[1]),
           (0.5 * (lo[0] + hi[0]), hi[1]),
           (lo[0] - 0.2, lo[1] - 0.3),
           (hi[0] + 1.0, hi[1] + 1.0)]
    assert np.all(mem.eval(pts) == 0.0)
    inside = [(0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1]))]
    assert np.any(mem.eval(inside) != 0.0)


def test_gradient_matches_finite_differences(family):
    rng = np.random.default_rng(3)
    step = 1e-6
    for idx in (0, 1, 5, 17, 41):
        mem = family.members[idx]
        pts = np.column_stack([
            rng.uniform(mem.lo[0] + 0.05 * (mem.hi[0] - mem.lo[0]),
                        mem.hi[0] - 0.05 * (mem.hi[0] - mem.lo[0]), 6),
            rng.uniform(mem.lo[1] + 0.05 * (mem.hi[1] - mem.lo[1]),
                        mem.hi[1] - 0.05 * (mem.hi[1] - mem.lo[1]), 6),
        ])
        an = mem.grad(pts)
        fd = np.zeros_like(an)
        for ax in range(2):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, ax] += step
            dm[:, ax] -= step
            fd[:, :, ax] = (mem.eval(dp) - mem.eval(dm)) / (2 * step)
        assert np.allclose(fd, an, rtol=1e-5, atol=1e-9)


# -- pairing ------------------------------------------------------------

def test_pairing_linear_profile_closed_form(family):
    # u = x against the whole-domain x-oriented bubble:
    #   integral x d/dx (B(x) B(y)) = -(integral B)^2 = -(1/30)^2
    X, _ = _grid()
    got = family.pairing(0, _field(X))
    assert got == pytest.approx(-1.0 / 900.0, abs=1e-9)


def test_pairing_cross_orientation_telescopes_to_zero(family):
    # u depending on x only, paired with the y-oriented member: the
    # column sums telescope and the corner terms cancel in exact pairs
    X, _ = _grid()
    assert family.pairing(1, _field(X)) == 0.0


def _gl_cell_div(mem, edges):
    """Cell integrals of div phi by three-node Gauss-Legendre on each
    cell's piece of the support, exact for the degree-4 pieces."""
    xg, wg = np.polynomial.legendre.leggauss(3)
    per_axis = []
    for ax in (0, 1):
        a, b = mem.lo[ax], mem.hi[ax]
        lo_c = np.clip(edges[:-1], a, b)[:, None]
        hi_c = np.clip(edges[1:], a, b)[:, None]
        t = 0.5 * (hi_c - lo_c) * xg + 0.5 * (hi_c + lo_c)
        if ax == mem.orient:
            f = 2.0 * (t - a) * (b - t) * (a + b - 2.0 * t)
        else:
            f = ((t - a) * (b - t)) ** 2
        per_axis.append(0.5 * (hi_c - lo_c)[:, 0] * np.sum(wg * f, axis=1))
    return np.outer(*per_axis)


def _noise(n, seed=11):
    vals = np.random.default_rng(seed).standard_normal((n, n))
    return SampledField.from_grid(vals, 1.0 / n)


@pytest.mark.parametrize("name,u", [("noise 64", _noise(64)),
                                    ("noise 48", _noise(48))]
                         + corpus_fields())
def test_batched_pairings_match_gauss_legendre(family, name, u):
    # relative to the sum of |u * cell integral|, the benchmark's bound
    n = int(round(math.sqrt(u.n_cells)))
    vals = u.values.reshape(n, n)
    edges = np.arange(n + 1) / n
    got = negnorm._pairings(family.members, u)
    for idx, mem in enumerate(family.members):
        cell = vals * _gl_cell_div(mem, edges)
        err = abs(got[idx] - np.sum(cell)) / np.sum(np.abs(cell))
        assert err <= 1e-12, (name, idx, err)
        assert family.pairing(idx, u) == \
            pytest.approx(got[idx], rel=1e-12, abs=1e-15 * np.abs(got).max())


def test_axis_fields_pair_exactly_zero_with_cross_members(family):
    # a field of x alone against every y-oriented member, and the
    # reverse: D is exactly zero off the ends where those bubbles vanish
    prof = np.random.default_rng(4).standard_normal(N)
    for arr, orient in ((np.tile(prof[:, None], (1, N)), 1),
                        (np.tile(prof[None, :], (N, 1)), 0)):
        got = negnorm._pairings(family.members, _field(arr))
        cross = [m.orient == orient for m in family.members]
        assert np.all(got[cross] == 0.0)
        assert np.all(got[np.logical_not(cross)] != 0.0)


def test_member_off_the_grid_pairs_to_zero():
    # boxes beside, below and beyond the unit-square grid, both
    # orientations; on the left the x antiderivative is a nonzero
    # constant, so only the box test makes these exact
    boxes = [((-1.0, 0.2), (-0.5, 0.6)), ((0.2, -1.0), (0.6, -0.5)),
             ((1.0, 0.2), (1.5, 0.6)), ((2.0, 2.0), (3.0, 3.0))]
    members = [negnorm.BubbleMember(lo, hi, orient, 0)
               for lo, hi in boxes for orient in (0, 1)]
    u = _noise(16, seed=0)
    assert np.all(negnorm._pairings(members, u) == 0.0)
    fam = negnorm.TestFamily(members)
    assert all(fam.pairing(i, u) == 0.0 for i in range(len(fam)))
    ratios = member_ratios(u, young.power(2.0), fam)
    assert np.all(ratios == 0.0)


def test_pairing_needs_square_grid(family):
    cells = np.column_stack([np.linspace(0.1, 0.9, 7),
                             np.full(7, 0.5)])
    u = SampledField(cells, np.full(7, 1.0 / 7.0), np.ones(7))
    with pytest.raises(ValueError):
        family.pairing(0, u)


def test_constant_field_scores_exactly_zero(family):
    u = _field(np.full((N, N), 3.7))
    assert all(family.pairing(i, u) == 0.0 for i in range(len(family)))
    val, witness = neg_norm_lower(u, young.power(2.0), family)
    assert val == 0.0
    assert witness == 0


def test_constants_pair_to_zero_on_every_grid(family):
    # the cell edges are rebuilt from the centroids; on most sizes that
    # are not powers of two an edge lands a rounding error inside a box
    # end unless it is snapped to it
    A = young.power(2.0)
    for n in range(2, 130):
        u = SampledField.from_grid(np.full((n, n), 3.7), 1.0 / n)
        assert not np.any(member_ratios(u, A, family)), n


def test_constant_shift_changes_little(family):
    X, Y = _grid()
    u = _field(np.sin(3 * X) + Y ** 2)
    A = young.power(2.0)
    v0, w0 = neg_norm_lower(u, A, family)
    v5, w5 = neg_norm_lower(_field(u.values.reshape(N, N) + 5.0), A, family)
    assert v5 == pytest.approx(v0, rel=1e-9)
    assert w5 == w0


def test_scaling_invariance(family):
    X, Y = _grid()
    u = _field(X ** 2 - Y ** 3)
    A = young.power(2.0)
    v1, w1 = neg_norm_lower(u, A, family)
    v7, w7 = neg_norm_lower(u * 7.0, A, family)
    assert v7 == pytest.approx(7.0 * v1, rel=1e-12)
    assert w7 == w1


def test_enrichment_never_decreases_and_can_increase(family):
    X, Y = _grid()
    A = young.power(2.0)
    # generic field: the coarse member already wins, prefix maxima flat
    ratios = member_ratios(_field(np.sign(X - 0.5)), A, family)
    maxima = [ratios[:2].max(), ratios[:10].max(), ratios.max()]
    assert maxima[0] <= maxima[1] <= maxima[2]
    # centered product mode: orthogonal to both depth-1 members up to
    # the sampling's rounding, picked up at the next scale
    sym = _field(np.sin(math.pi * X) * np.sin(math.pi * Y))
    ratios = member_ratios(sym, A, family)
    assert ratios[:2].max() < 1e-12
    assert ratios[:10].max() > 0.1


def test_witness_tie_breaks_to_lowest_index(family):
    # u = x makes the two left-column scale-1 x-oriented members exact
    # float ties (congruent boxes, identical columns of values)
    X, _ = _grid()
    u = _field(X)
    ratios = member_ratios(u, young.power(2.0), family)
    assert ratios[2] == ratios[4]
    sub = negnorm.TestFamily(family.members[2:6])
    _, witness = neg_norm_lower(u, young.power(2.0), sub)
    assert witness == 0


@pytest.mark.parametrize("lo,hi", [((0.0, 0.0), (1.0, 1.0)),
                                   ((0.0, 0.0), (2.0, 1.0))])
@pytest.mark.parametrize("literal", ["power:2", "zygmund:1:1", "exp:1"])
def test_grad_norms_per_shape_equal_per_member(lo, hi, literal):
    # one norm per box shape, bit-equal to each member's own norm
    fam = negnorm.TestFamily.bubbles(lo, hi, depth=3)
    At = young.parse_young(literal).conjugate()
    got = fam.grad_norms(At)
    want = [luxemburg_norm(m.grad_magnitude_field(), At)
            for m in fam.members]
    assert np.array_equal(got, want)
    assert len(fam._norm_cache) == 3


def test_member_ratios_bits_independent_of_blas_threads():
    script = ("import numpy as np; "
              "from orlicz import negnorm, young; "
              "from orlicz.spaces import SampledField; "
              "u = SampledField.from_grid(np.random.default_rng(5)"
              ".standard_normal((32, 32)), 1 / 32); "
              "fam = negnorm.TestFamily.bubbles((0, 0), (1, 1), depth=3); "
              "print(*map(repr, negnorm.member_ratios("
              "u, young.zygmund(1.0, 1.0), fam)))")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout.strip())
    assert out[0] == out[1]
    assert len(out[0].split()) == 42


def test_empty_family_raises():
    with pytest.raises(ValueError):
        neg_norm_lower(_field(np.ones((N, N))), young.power(2.0),
                       negnorm.TestFamily([]))


# -- upper bound and the two-sided report -------------------------------

def test_upper_vanishes_on_constants():
    assert neg_norm_upper(_field(np.full((N, N), 2.2)),
                          young.power(2.0)) == 0.0


def test_upper_is_mean_shift_invariant():
    X, Y = _grid()
    u = _field(X * Y)
    A = young.zygmund(1.0, 1.0)
    assert neg_norm_upper(_field(X * Y + 9.0), A) == \
        pytest.approx(neg_norm_upper(u, A), rel=1e-12)


def test_two_sided_report_on_inadmissible_pair(family):
    X, _ = _grid()
    rep = two_sided_check(_field(np.sign(X - 0.5)), young.power(1.0),
                          young.power(1.0), family)
    assert rep["admissible"] is False
    # the upper estimate needs no balance condition at all
    assert rep["r_high"] <= 2.0


def test_two_sided_linf_exponential_example(family):
    # L-infinity surrogate with the exponential partner: the pair the
    # logarithmic scale degenerates to at the top end
    X, _ = _grid()
    rep = two_sided_check(_field(np.sign(X - 0.5)), young.linear_cap(1.0),
                          young.exponential(1.0), family)
    assert rep["upper"] == pytest.approx(2.0, rel=1e-9)
    assert 0.3 < rep["r_low"] < 2.0
    assert rep["r_high"] <= 2.0


def test_zygmund_ratio_bounded_below(family):
    A = young.zygmund(1.0, 1.0)
    B = young.power(1.0)
    for _, u in corpus_fields():
        rep = two_sided_check(u, A, B, family)
        assert rep["r_low"] >= 0.2
        assert rep["r_high"] <= 2.0


def test_corpus_ratio_bands(negnorm_corpus, negnorm_pairs):
    """r_low spread over the corpus stays within a factor 4 at every
    depth and for every admissible pair; measured spread is 2.08."""
    fam = negnorm.TestFamily.bubbles((0.0, 0.0), (1.0, 1.0), depth=3)
    prefix = {1: 2, 2: 10, 3: 42}
    for label, A, B in negnorm_pairs:
        assert young.check_balance(A, B).admissible, label
        per_depth = {1: [], 2: [], 3: []}
        for name, u in negnorm_corpus:
            w = u.mean_zero_project()
            nA = luxemburg_norm(w, A)
            nB = luxemburg_norm(w, B)
            ratios = member_ratios(u, A, fam)
            for d in (1, 2, 3):
                lower = float(np.max(ratios[:prefix[d]]))
                assert lower / nA <= 2.0, (label, name, d)
                per_depth[d].append(lower / nB)
        for d, rls in per_depth.items():
            band = max(rls) / min(rls)
            assert band <= 4.0, (label, d, band)


# -- approximation sequence ---------------------------------------------

def _compact_bubble():
    X, Y = _grid()
    b = (((X - 0.25) * (0.75 - X)).clip(min=0) ** 2
         * ((Y - 0.25) * (0.75 - Y)).clip(min=0) ** 2)
    return _field(b * 256.0 ** 2)


def test_sup_approx_smooth_compact_support():
    # supported away from the boundary: truncation and the boundary
    # band are inert, only mollification acts; measured 1.6% at k=16
    v = _compact_bubble()
    X, Y = _grid()
    probe = _field(X + np.sin(math.pi * Y))
    for A in (young.power(2.0), young.zygmund(1.0, 1.0)):
        rep = sup_approx_convergence(v, A, K=32, probe=probe)
        assert [row["k"] for row in rep["steps"]] == [1, 2, 4, 8, 16, 32]
        target = rep["target"]
        by_k = {row["k"]: row for row in rep["steps"]}
        for k in (16, 32):
            assert abs(by_k[k]["norm"] - target) <= 0.02 * target
            assert abs(by_k[k]["pairing"] - rep["target_pairing"]) \
                <= 0.02 * abs(rep["target_pairing"])


def test_sup_approx_boundary_supported_field():
    # sine touching the boundary: the excluded band bites at every k,
    # convergence only at the contractual k=32 rate
    X, Y = _grid()
    v = _field(np.sin(math.pi * X) * np.sin(math.pi * Y))
    rep = sup_approx_convergence(v, young.power(2.0), K=32)
    target = rep["target"]
    final = rep["steps"][-1]
    assert final["k"] == 32
    assert abs(final["norm"] - target) <= 0.02 * target


def test_sup_approx_spike_truncation_monotone():
    v = _compact_bubble().values.reshape(N, N) * 0.5
    v[int(0.4 * N), int(0.55 * N)] = 100.0
    vf = _field(v)
    rep = sup_approx_convergence(vf, young.power(2.0), K=32)
    target = rep["target"]
    norms = [row["truncation_norm"] for row in rep["steps"]]
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert all(nm <= target * (1 + 1e-12) for nm in norms)
    for row in rep["steps"]:
        assert row["mean_zero_residual"] <= 1e-13 * vf.max_abs()


def test_sup_approx_band_uses_each_axis_spacing():
    # cells twice as wide as tall on [0, 2] x [0, 1]: the boundary band
    # must start half a cell out along each axis, not half an x cell
    from orlicz.negnorm import _mollify
    n = 16
    X, Y = np.meshgrid((np.arange(n) + 0.5) * (2.0 / n),
                       (np.arange(n) + 0.5) / n, indexing="ij")
    cent = np.column_stack([X.ravel(), Y.ravel()])
    meas = np.full(n * n, 2.0 / n ** 2)
    rng = np.random.default_rng(8)
    v = SampledField(cent, meas, rng.uniform(0.5, 3.0, n * n))
    probe = SampledField(cent, meas, rng.standard_normal(n * n))
    A = young.power(2.0)
    rep = sup_approx_convergence(v, A, K=8, probe=probe)
    dist = np.minimum.reduce([X, 2.0 - X, Y, 1.0 - Y]).ravel()
    assert [row["k"] for row in rep["steps"]] == [1, 2, 4, 8]
    for row in rep["steps"]:
        k = row["k"]
        kept = np.where(dist >= 2.0 / k, np.minimum(v.values, k), 0.0)
        want = _mollify(v.with_values(kept), 1.0 / k)
        assert row["norm"] == pytest.approx(
            luxemburg_norm(want, A.conjugate()), rel=1e-12)
        assert row["pairing"] == pytest.approx(pairing(probe, want),
                                               rel=1e-12)


def test_mollification_preserves_mean_support():
    # partition-normalized weights reproduce constants on interior
    # cells and never extend support beyond the kernel radius
    from orlicz.negnorm import _mollify
    X, Y = _grid()
    const = _field(np.ones((N, N)))
    out = _mollify(const, 0.1)
    assert np.allclose(out.values, 1.0, rtol=0, atol=1e-12)
    spot = np.zeros((N, N))
    spot[10, 10] = 1.0
    out = _mollify(_field(spot), 3.0 * H)
    dist = np.hypot(X - X[10, 10], Y - Y[10, 10])
    assert np.all(out.values.reshape(N, N)[dist > 3.5 * H] == 0.0)


def _dense_mollify(v, radius):
    # reference: the all-pairs form, one distance per (target, source)
    d2 = np.sum((v.centroids[:, None, :] - v.centroids[None, :, :]) ** 2,
                axis=-1)
    r2 = radius * radius
    w = np.where(d2 < r2, (1.0 - d2 / r2) ** 4, 0.0) * v.measures
    den = w.sum(axis=1)
    return (w @ v.values) / np.where(den > 0, den, 1.0)


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 32])
def test_grid_mollifier_matches_dense_oracle(k):
    from orlicz.negnorm import _mollify
    n = 32
    rng = np.random.default_rng(k)
    vals = rng.normal(size=(n, n))
    vals[:, 12:17] = 0.0  # a zero band wider than the small radii
    vals[:3] = 0.0
    v = SampledField.from_grid(vals, 1.0 / n)
    got = _mollify(v, 1.0 / k).values
    want = _dense_mollify(v, 1.0 / k)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(got == 0.0, want == 0.0)


def test_mollifier_rejects_scattered_field():
    from orlicz.negnorm import _mollify
    rng = np.random.default_rng(3)
    v = SampledField(rng.uniform(size=(16, 2)), np.full(16, 1.0 / 16),
                     rng.normal(size=16))
    with pytest.raises(ValueError, match="grid"):
        _mollify(v, 0.25)
    with pytest.raises(ValueError, match="grid"):
        sup_approx_convergence(v, young.power(2.0), K=4)


@pytest.mark.parametrize("K", [0, -1, 2.5])
def test_sup_approx_rejects_bad_K(K):
    with pytest.raises(ValueError, match="K"):
        sup_approx_convergence(_compact_bubble(), young.power(2.0), K=K)
