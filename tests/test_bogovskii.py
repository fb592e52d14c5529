"""Divergence-operator tests: kernel integrals, estimates, splitting.

The disk experiments use the density f(y) = |y| - 2/3, mean-zero on the
unit disk because the mean of |y| there is (1/pi) int_0^2pi int_0^1 r*r
dr dtheta = 2/3.  Tolerances on divergence residuals were measured once
on this implementation and carry a margin over the observed values; the
structural identities (linearity, support, splitting) are exact and
tested tight.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orlicz import bogovskii
from orlicz.bogovskii import (
    DomainDecomposition,
    StarDomain,
    _kernel_sum,
    _ray_integrals,
    bogovskii_apply,
    bogovskii_field,
    bogovskii_general,
    check_modular_bound,
    check_rearrangement_estimate,
    decomposition_norm_bound,
    grid_field,
    split_function,
)
from orlicz.spaces import SampledField, luxemburg_norm, modular
from orlicz.young import exponential, linear_cap, power, zygmund

DISK = StarDomain.disk(radius=1.0)
SQUARE = StarDomain.rectangle((0.0, 0.0), (1.0, 1.0))


def kink(X, Y):
    return np.sqrt(X ** 2 + Y ** 2) - 2.0 / 3.0


@pytest.fixture(scope="module")
def disk32():
    f = grid_field(DISK, kink, 32)
    return bogovskii_field(f, DISK)


@pytest.fixture(scope="module")
def disk64():
    f = grid_field(DISK, kink, 64)
    return bogovskii_field(f, DISK)


# -- domain geometry ------------------------------------------------------


def test_mollifier_integrates_to_one():
    assert abs(DISK.mollifier_mass() - 1.0) < 1e-8
    R = StarDomain.rectangle((0.0, 0.0), (2.0, 1.0))
    assert abs(R.mollifier_mass() - 1.0) < 1e-8
    # the 400^2 midpoint sum of the point-array evaluation it replaced
    assert abs(DISK.mollifier_mass() - 1.0000000000000586) <= 1e-15
    assert abs(R.mollifier_mass() - 1.0000000000000586) <= 1e-15


def test_mollifier_support():
    pts = np.array([[0.51, 0.0], [0.0, -0.6], [0.49, 0.0], [0.0, 0.0]])
    w = DISK.mollifier(pts)
    assert w[0] == 0.0 and w[1] == 0.0
    assert w[2] > 0.0 and w[3] == 20.0 / math.pi


def test_star_check_accepts_kernel_ball():
    ell = [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)]
    D = StarDomain(ell, (0.25, 0.25), 0.2)
    assert D.star_check()


def test_star_check_rejects_bad_ball():
    ell = [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)]
    with pytest.raises(ValueError):
        StarDomain(ell, (0.9, 0.4), 0.08)


def _star_check_loop(D):
    """star_check segment by segment: the reference for its one call."""
    n_dirs, n_steps = 12, 9
    ang = np.linspace(0, 2 * math.pi, n_dirs, endpoint=False)
    ball_pts = D.ball_center + 0.999 * D.ball_radius * \
        np.column_stack([np.cos(ang), np.sin(ang)])
    ts = (np.arange(1, n_steps + 1)) / (n_steps + 1.0)
    for vert in D.vertices:
        for b in ball_pts:
            seg = vert[None, :] * (1 - ts[:, None]) + b[None, :] * ts[:, None]
            if not np.all(D.contains(seg)):
                return False
    return True


def test_star_check_matches_segment_loop():
    ell = [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)]
    bad = StarDomain(ell, (0.25, 0.25), 0.2)
    # the constructor refuses this ball, so it is set afterwards
    bad.ball_center, bad.ball_radius = np.array([0.9, 0.4]), 0.08
    domains = [DISK, StarDomain.rectangle((0.0, 0.0), (2.0, 1.0)),
               StarDomain(DISK.vertices, (0.1, -0.2), 0.45),
               StarDomain(ell, (0.25, 0.25), 0.2), bad]
    verdicts = [D.star_check() for D in domains]
    assert verdicts == [_star_check_loop(D) for D in domains]
    assert verdicts == [True, True, True, True, False]


def test_contains_and_area():
    assert abs(DISK.area - math.pi) < 0.01
    inside = DISK.contains([[0.0, 0.0], [0.9, 0.0], [1.1, 0.0], [0.8, 0.7]])
    assert inside.tolist() == [True, True, False, False]


# -- operator basics ------------------------------------------------------


def test_zero_density_gives_zero_field():
    f = grid_field(DISK, lambda X, Y: 0.0 * X, 16)
    u = bogovskii_apply(f, [0.3, 0.1], DISK)
    assert np.all(u == 0.0)


def test_field_vanishes_outside_domain():
    f = grid_field(DISK, kink, 16)
    fp = f.mean_zero_project()
    for x in ([2.5, 1.7], [1.3, 0.0], [-1.2, 1.2]):
        u = bogovskii_apply(fp, x, DISK)
        assert np.all(u == 0.0)


def test_linearity_exact():
    f = grid_field(DISK, lambda X, Y: np.cos(np.pi * X) * np.sin(np.pi * Y), 24)
    g = grid_field(DISK, lambda X, Y: X * Y + np.sin(Y), 24)
    f, g = f.mean_zero_project(), g.mean_zero_project()
    x = np.array([0.3, -0.2])
    ua = bogovskii_apply(f, x, DISK)
    ub = bogovskii_apply(g, x, DISK)
    uc = bogovskii_apply(f * 2.0 + g * (-3.0), x, DISK)
    assert np.max(np.abs(uc - (2 * ua - 3 * ub))) < 1e-12


def _gauss_ray_integrals(x, e, D):
    """Oracle: Gauss-Legendre on the clipped chord, one ray at a time.

    The bump on a line is a degree-8 polynomial, so 16 nodes integrate
    J0 and J1 exactly up to roundoff.
    """
    gx, gw = np.polynomial.legendre.leggauss(16)
    xz = x - D.ball_center
    b = float(e @ xz)
    disc = b * b - float(xz @ xz) + D.ball_radius ** 2
    if disc <= 0:
        return 0.0, 0.0
    t_lo = max(-b - math.sqrt(disc), 0.0)
    t_hi = -b + math.sqrt(disc)
    if t_hi <= t_lo:
        return 0.0, 0.0
    half, mid = 0.5 * (t_hi - t_lo), 0.5 * (t_hi + t_lo)
    ts = mid + half * gx
    w = D.mollifier(x + ts[:, None] * e)
    return half * float(np.sum(w * gw)), half * float(np.sum(w * ts * gw))


def test_ray_integrals_match_gauss_legendre_oracle():
    rng = np.random.default_rng(3)
    D = StarDomain(DISK.vertices, (0.1, -0.2), 0.45)
    rays = []
    for _ in range(40):
        # start inside the ball, any direction
        r = D.ball_radius * math.sqrt(rng.uniform())
        a, th = rng.uniform(0, 2 * math.pi, 2)
        rays.append((D.ball_center + r * np.array([math.cos(a), math.sin(a)]),
                     np.array([math.cos(th), math.sin(th)])))
    for _ in range(40):
        # start outside: aim at a random ball point (hits), or away (misses)
        a, th = rng.uniform(0, 2 * math.pi, 2)
        x = D.ball_center + rng.uniform(1.2, 4.0) * D.ball_radius * \
            np.array([math.cos(a), math.sin(a)])
        target = D.ball_center + 0.9 * D.ball_radius * \
            np.array([math.cos(th), math.sin(th)])
        e = (target - x) / np.linalg.norm(target - x)
        rays.append((x, e))
        rays.append((x, -e))
    for eps in (1e-3, 1e-6, 1e-9, -1e-9):
        # near-tangent: offset rho (1 - eps) from the center, both sides
        for sign in (1.0, -1.0):
            x = D.ball_center + np.array([-2.0, sign * D.ball_radius
                                          * (1 - eps)])
            rays.append((x, np.array([1.0, 0.0])))
    # on the ball circle, aimed in (b < 0, hits) and out (b > 0, misses)
    x = D.ball_center + D.ball_radius * np.array([0.6, 0.8])
    e = np.array([-0.8, 0.6]) + 0.1 * np.array([-0.6, -0.8])
    e /= np.linalg.norm(e)
    rays += [(x, e), (x, -e)]
    xs, es = (np.array(col) for col in zip(*rays))
    d2 = np.sum((xs - D.ball_center) ** 2, axis=1)
    assert d2[-1] == D.ball_radius ** 2          # exactly on the circle
    outside = d2 >= D.ball_radius ** 2
    assert np.sum(~outside) == 40
    got = np.array([np.array(_ray_integrals(x, e[:, None], D, out))[:, 0]
                    for x, e, out in zip(xs, es, outside)])
    # one call per side of the ball: x broadcasts along with e
    got_all = np.zeros((len(rays), 2))
    for out in (True, False):
        got_all[outside == out] = np.column_stack(_ray_integrals(
            xs[outside == out].T, es[outside == out].T, D, out))
    want = np.array([_gauss_ray_integrals(x, e, D) for x, e in rays])
    assert np.sum(want[:, 0] == 0.0) >= 40       # the misses
    assert np.sum(want[:, 0] > 0.0) >= 80        # the hits
    assert want[-2, 0] > 0.0 and want[-1, 0] == 0.0
    for j in (0, 1):
        scale = np.max(np.abs(want[:, j]))
        assert np.max(np.abs(got[:, j] - want[:, j])) <= 1e-13 * scale
        assert np.max(np.abs(got_all[:, j] - want[:, j])) <= 1e-13 * scale


def test_gridline_evaluation_shifts_and_reports():
    f = grid_field(DISK, kink, 16)
    h = 2.0 / 16
    x = [-1.0 + 5 * h, -1.0 + 8.5 * h]  # on a vertical gridline
    report = {}
    u = bogovskii_apply(f, x, DISK, report=report)
    assert "shifted" in report
    assert np.all(np.isfinite(u))


def test_point_evaluation_is_continuous_inside_a_cell():
    # the cell holding x counts once, through its polar rule; a midpoint
    # term at its centroid on top would blow up like 1/|x - centroid|
    f = grid_field(DISK, kink, 16)
    U = bogovskii_field(f, DISK)["u"].values
    h = 2.0 / 16
    for c in ([0.3125, 0.0625], [-0.1875, 0.4375], [0.5625, -0.5625]):
        k = int(np.argmin(np.max(np.abs(f.centroids - c), axis=1)))
        for step in ([-1e-3, 0.0], [0.0, 1e-3], [7e-4, -7e-4]):
            u = bogovskii_apply(f, f.centroids[k] + h * np.array(step), DISK)
            assert np.max(np.abs(u - U[k])) <= 1e-2 * np.max(np.abs(U[k]))


@pytest.fixture(scope="module")
def square32():
    f = grid_field(SQUARE, lambda X, Y: np.sin(3.0 * X) + X * Y - Y, 32)
    return bogovskii_field(f, SQUARE)


def test_point_evaluation_matches_field_on_both_sides_of_the_ball(disk32,
                                                                  square32):
    # the field runs targets outside and inside the mollifier ball in
    # separate blocks and writes them back in cell order; each cell
    # evaluated alone must read the same
    for rep, D in ((disk32, DISK), (square32, SQUARE)):
        f, U = rep["f"], rep["u"].values
        d = np.linalg.norm(f.centroids - D.ball_center, axis=1)
        rho = D.ball_radius
        inner = np.nonzero(d < rho)[0]
        outer = np.nonzero((d >= rho) & (f.measures > 0))[0]
        ghost = np.nonzero(f.measures == 0)[0]
        cells = [inner[np.argmin(d[inner])], inner[np.argmax(d[inner])],
                 outer[np.argmin(d[outer])], outer[np.argmax(d[outer])]]
        if ghost.size:
            cells.append(ghost[np.argmin(d[ghost])])
        for k in cells:
            u = bogovskii_apply(f, f.centroids[k], D)
            assert np.max(np.abs(u - U[k])) <= 1e-13 * np.max(np.abs(U[k]))


@pytest.mark.parametrize("D", [DISK, SQUARE], ids=["disk", "square"])
def test_culled_pairs_add_exact_zeros(D):
    # Outside the ball, _field_at evaluates only the far pairs _ray_hits
    # keeps and splits only the near cells _cone_misses keeps.  Every
    # dropped ray must integrate to exactly zero, so the culled sums
    # equal the full ones over all far cells and all subcells, and the
    # field equals those full sums plus the polar rule.
    n = 16
    f = grid_field(D, kink, n).mean_zero_project()
    h = float(f.centroids[n, 0] - f.centroids[0, 0])
    act = (f.measures > 0) & (f.values != 0)
    Y, w = f.centroids[act], (f.measures * f.values)[act]
    rho2 = D.ball_radius ** 2
    r = bogovskii._NEAR_REFINE
    offs = ((np.arange(r) + 0.5) / r - 0.5) * h
    sub_off = np.array([(a, b) for a in offs for b in offs])
    reach = float(np.max(np.linalg.norm(sub_off, axis=1)))
    d_ball = np.linalg.norm(f.centroids - D.ball_center, axis=1)
    outer = np.nonzero(d_ball >= D.ball_radius)[0]
    outer = outer[np.argsort(d_ball[outer])]
    targets = f.centroids[outer[np.linspace(0, outer.size - 1, 10)
                                .astype(int)]]
    dropped = kept = 0
    for x in targets:
        z = x - D.ball_center
        d = x - Y
        cheb = np.max(np.abs(d), axis=1)
        near = cheb <= (bogovskii._NEAR_RADIUS + 0.5) * h
        own = cheb < 0.5 * h * (1 + 1e-12)
        far = ~near

        hits = bogovskii._ray_hits(d.T, z, z @ z - rho2)
        full_far = _kernel_sum(x, Y[far].T, w[far], D, True)
        culled_far = _kernel_sum(x, Y[far & hits].T, w[far & hits], D, True)
        miss = far & ~hits
        e = d[miss] / np.linalg.norm(d[miss], axis=1)[:, None]
        J0, J1 = _ray_integrals(x, e.T, D, True)
        assert np.all(J0 == 0.0) and np.all(J1 == 0.0)

        cells = np.nonzero(near & ~own)[0]
        cut = bogovskii._cone_misses(x - Y[cells], np.tile(z, (cells.size, 1)),
                                     rho2, reach)
        sums = []
        for c, drop in zip(cells, cut):
            sub = Y[c] + sub_off
            sums.append(_kernel_sum(x, sub.T, np.full(r * r, w[c] / (r * r)),
                                    D, True))
            if drop:
                e = (x - sub) / np.linalg.norm(x - sub, axis=1)[:, None]
                J0, J1 = _ray_integrals(x, e.T, D, True)
                assert np.all(J0 == 0.0) and np.all(J1 == 0.0)
        full_near = np.sum(sums, axis=0)
        culled_near = np.sum([s for s, drop in zip(sums, cut) if not drop],
                             axis=0)

        scale = np.max(np.abs(full_far)) + np.max(np.abs(full_near))
        assert np.max(np.abs(culled_far - full_far)) <= 1e-14 * scale
        assert np.max(np.abs(culled_near - full_near)) <= 1e-14 * scale
        whole = full_far + full_near
        if np.any(own):
            o = np.nonzero(own)[0][0]
            whole = whole + f.values[act][o] * bogovskii._singular_cells(
                x[None], Y[o][None], h, D, True)[0]
        got = bogovskii._field_at(f, D, x[None], h)[0]
        assert np.max(np.abs(got - whole)) <= 1e-14 * np.max(np.abs(whole))
        dropped += np.count_nonzero(miss) + np.count_nonzero(cut)
        kept += np.count_nonzero(far & hits) + np.count_nonzero(~cut)
    assert dropped > 0 and kept > 0


def test_outside_targets_evaluate_few_pairs(monkeypatch):
    # a work count, not a timing: far pairs reach _kernel_sum as
    # (pairs, 1) arrays, near cells as (cells, subcells); about 1% of
    # the far pairs and a quarter of the near cells of targets outside
    # the ball can carry a ray to it
    f = grid_field(DISK, kink, 32)
    shapes = []
    kernel_sum = bogovskii._kernel_sum

    def counting(x, Y, w, D, outside, work=None):
        if outside:
            shapes.append(np.broadcast_shapes(np.shape(x[0]),
                                              np.shape(Y[0])))
        return kernel_sum(x, Y, w, D, outside, work)

    monkeypatch.setattr(bogovskii, "_kernel_sum", counting)
    bogovskii_field(f, DISK)
    far_evaluated = sum(s[0] for s in shapes if s[-1] == 1)
    near_evaluated = sum(s[0] for s in shapes if s[-1] > 1)

    h = 2.0 / 32
    act = f.centroids[(f.measures > 0) & (f.values != 0)]
    X = f.centroids[np.linalg.norm(f.centroids - DISK.ball_center, axis=1)
                    >= DISK.ball_radius]
    cheb = np.max(np.abs(X[:, None, :] - act[None, :, :]), axis=2)
    near = cheb <= (bogovskii._NEAR_RADIUS + 0.5) * h
    far_pairs = np.count_nonzero(~near)
    near_pairs = np.count_nonzero(near & (cheb >= 0.5 * h))
    assert 0 < far_evaluated <= 0.05 * far_pairs
    assert 0 < near_evaluated <= 0.5 * near_pairs


def _shuffled(f):
    perm = np.random.default_rng(0).permutation(f.n_cells)
    return SampledField(f.centroids[perm], f.measures[perm], f.values[perm])


def _stretched_y(f):
    cent = f.centroids.copy()
    cent[:, 1] *= 2.0
    return SampledField(cent, f.measures, f.values)


@pytest.mark.parametrize("bend, why", [(_shuffled, "row-major"),
                                       (_stretched_y, "square grid cells")])
def test_solvers_need_a_grid_of_square_cells(bend, why):
    # reshaped onto an n-by-n grid, either field would solve a wrong problem
    f = bend(grid_field(DISK, kink, 16))
    with pytest.raises(ValueError, match="bogovskii_field needs .*" + why):
        bogovskii_field(f, DISK)
    with pytest.raises(ValueError, match="bogovskii_apply needs .*" + why):
        bogovskii_apply(f, [0.3, 0.1], DISK)
    with pytest.raises(ValueError, match="bogovskii_general needs .*" + why):
        bogovskii_general(f, DomainDecomposition([DISK]))


def test_mean_projection_is_reported():
    f = grid_field(DISK, lambda X, Y: X + 0.5, 16)
    report = {}
    bogovskii_apply(f, [0.1, 0.1], DISK, report=report)
    assert report.get("mean_projected", 0.0) > 0.0


def test_scaling_leaves_measured_constant(disk32):
    p2 = power(2.0)
    f = disk32["f"]
    rep2 = bogovskii_field(f * 37.5, DISK)
    c1 = luxemburg_norm(disk32["gradient"].magnitude_field(), p2) / \
        luxemburg_norm(f, p2)
    c2 = luxemburg_norm(rep2["gradient"].magnitude_field(), p2) / \
        luxemburg_norm(rep2["f"], p2)
    assert abs(c1 - c2) <= 1e-6 * c1


# -- divergence consistency ----------------------------------------------


def test_disk_divergence_residual_32(disk32):
    assert disk32["div_residual"] < 0.05


def test_disk_divergence_residual_64(disk64):
    assert disk64["div_residual"] < 0.05


def test_disk_solves_reproduce_pinned_values(disk32, disk64):
    # Regression anchor, measured with the per-target solver that the
    # blocked evaluator replaced: residual and least rearrangement
    # constant 0.039278682348116455 and 0.7099120821713862 at 32^2,
    # 0.02401058610237399 and 0.7058959575442927 at 64^2.
    pinned = [(disk32, 0.039278682348116455, 0.7099120821713862),
              (disk64, 0.02401058610237399, 0.7058959575442927)]
    for rep, residual, least_c in pinned:
        got = check_rearrangement_estimate(rep["f"], rep["gradient"], 2.5)
        assert rep["div_residual"] == pytest.approx(residual, rel=1e-12)
        assert got["least_C"] == pytest.approx(least_c, rel=1e-12)


def test_field_is_identical_across_blas_threads(tmp_path):
    # the kernel sums avoid BLAS, so neither the thread count nor the
    # process changes a single bit of u
    script = (
        "import sys, numpy as np\n"
        "from orlicz.bogovskii import StarDomain, bogovskii_field, "
        "grid_field\n"
        "D = StarDomain.disk(radius=1.0)\n"
        "f = grid_field(D, lambda X, Y: np.sqrt(X**2 + Y**2) - 2/3, 16)\n"
        "np.save(sys.argv[1], bogovskii_field(f, D)['u'].values)\n")
    src = str(Path(bogovskii.__file__).resolve().parents[1])
    fields = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=src)
        out = tmp_path / ("u%s.npy" % threads)
        proc = subprocess.run([sys.executable, "-c", script, str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        fields.append(np.load(out))
    assert fields[0].shape == (256, 2)
    assert fields[0].tobytes() == fields[1].tobytes()


def test_residual_decreases_under_refinement(disk32, disk64):
    f = grid_field(DISK, kink, 16)
    res = [bogovskii_field(f, DISK)["div_residual"],
           disk32["div_residual"], disk64["div_residual"]]
    for a, b in zip(res, res[1:]):
        assert b <= 1.1 * a


def test_boundary_decay(disk32):
    # |u| on the cells hugging the staircase boundary should sit at the
    # one-step discretization scale h |grad u|, not above it
    assert disk32["boundary_mean_u"] <= 3.0 * disk32["interior_step_scale"]


def test_divergence_integral_vanishes():
    # with the support strictly inside the frame the finite-difference
    # divergence telescopes to the (zero) boundary values exactly
    f = grid_field(DISK, kink, 40, bbox=((-1.2, -1.2), (1.2, 1.2)))
    rep = bogovskii_field(f, DISK)
    h = rep["h"]
    total = float(np.sum(rep["divergence"].values)) * h * h
    assert abs(total) < 1e-12


# -- measured constants ---------------------------------------------------


def _random_density(rng):
    a = rng.normal(size=6)

    def fn(X, Y):
        return (a[0] * np.cos(np.pi * X) + a[1] * np.sin(np.pi * Y)
                + a[2] * np.cos(2 * np.pi * X) * np.sin(np.pi * Y)
                + a[3] * X * Y + a[4] * np.sin(np.pi * X * Y) + a[5] * Y)

    return fn


@pytest.fixture(scope="module")
def random_reports():
    rng = np.random.default_rng(7)
    out = []
    for _ in range(5):
        f = grid_field(DISK, _random_density(rng), 32)
        out.append(bogovskii_field(f, DISK))
    return out


def test_gradient_constant_stable_across_densities(random_reports):
    pairs = [(power(2.0), power(2.0)), (zygmund(1.0, 1.0), power(1.0))]
    for A, B in pairs:
        cs = [luxemburg_norm(r["gradient"].magnitude_field(), B)
              / luxemburg_norm(r["f"], A) for r in random_reports]
        mid = sum(cs) / len(cs)
        assert all(abs(c - mid) <= 0.25 * mid for c in cs)


def test_modular_bound_stable_across_grids():
    p2 = power(2.0)
    cs = []
    for n in (16, 24, 32):
        f = grid_field(DISK, lambda X, Y: np.cos(np.pi * X) * np.sin(np.pi * Y), n)
        cs.append(check_modular_bound(bogovskii_field(f, DISK), p2, p2))
    mid = sum(cs) / len(cs)
    assert all(abs(c - mid) <= 0.25 * mid for c in cs)


def test_modular_bound_finite_for_zygmund_pair(disk32):
    c = check_modular_bound(disk32, zygmund(1.0, 1.0), power(1.0))
    assert 0 < c < 10.0


def test_modular_bound_is_sufficient_and_tight(disk32):
    f = disk32["f"]
    gmag = disk32["gradient"].magnitude_field()
    Z = zygmund(1.0, 1.0)
    for A, B in [(power(2.0), power(2.0)), (Z, power(1.0)),
                 (Z, Z.conjugate())]:
        lhs = modular(gmag, B)
        c = check_modular_bound(disk32, A, B)
        assert modular(f * c, A) >= lhs
        assert modular(f * ((1.0 - 1e-11) * c), A) < lhs
    # a cap below the largest gradient makes the left side infinite
    cap = linear_cap(0.5 * gmag.max_abs())
    assert modular(gmag, cap) == math.inf
    assert check_modular_bound(disk32, power(2.0), cap) == math.inf
    # a capped A meets it just past its own cap, an uncapped one never
    cap_a = linear_cap(0.5)
    c = check_modular_bound(disk32, cap_a, cap)
    assert modular(f * c, cap_a) == math.inf
    assert modular(f * ((1.0 - 1e-11) * c), cap_a) < math.inf
    assert check_modular_bound(disk32, exponential(0.5), cap) == math.inf


def test_modular_bound_zero_field():
    f = grid_field(DISK, lambda X, Y: 0.0 * X, 16)
    rep = bogovskii_field(f, DISK)
    assert check_modular_bound(rep, power(2.0), power(2.0)) == 1e-6


# calibrated once for the unit disk; the randomized densities above
# measured least_C in [1.37, 1.83] and the held-out inputs below stay
# under half of this value
DISK_REARRANGEMENT_C = 2.5


def test_rearrangement_estimate_random(random_reports):
    for rep in random_reports:
        r = check_rearrangement_estimate(
            rep["f"], rep["gradient"], DISK_REARRANGEMENT_C)
        assert r["ok"]


def test_rearrangement_estimate_held_out(disk32):
    helds = [
        lambda X, Y: ((X - 0.2) ** 2 + Y ** 2 < 0.09).astype(float),
        lambda X, Y: X ** 3 - Y ** 2 + 0.5 * X * Y,
    ]
    reports = [disk32]
    for fn in helds:
        reports.append(bogovskii_field(grid_field(DISK, fn, 32), DISK))
    for rep in reports:
        r = check_rearrangement_estimate(
            rep["f"], rep["gradient"], DISK_REARRANGEMENT_C)
        assert r["ok"]
        assert r["least_C"] < DISK_REARRANGEMENT_C


def test_rearrangement_rhs_monotone(disk32):
    r = check_rearrangement_estimate(disk32["f"], disk32["gradient"], 1.0)
    assert np.all(np.diff(r["rhs"]) <= 1e-12)


def test_rearrangement_zero_density():
    f = grid_field(DISK, lambda X, Y: 0.0 * X, 16)
    rep = bogovskii_field(f, DISK)
    r = check_rearrangement_estimate(rep["f"], rep["gradient"], 1.0)
    assert r["ok"]
    assert np.all(r["lhs"] == 0.0) and np.all(r["rhs"] == 0.0)


# -- splitting over a decomposition ---------------------------------------


R1 = StarDomain.rectangle((0.0, 0.0), (1.0, 0.5))
R2 = StarDomain.rectangle((0.0, 0.25), (0.5, 1.0))
LSHAPE = DomainDecomposition([R1, R2])


def lshape_density(n):
    return grid_field(LSHAPE, lambda X, Y: X, n, bbox=((0, 0), (1, 1)))


def test_split_single_subdomain_is_identity():
    dec = DomainDecomposition([R1])
    f = grid_field(dec, lambda X, Y: X, 16)
    f = f.with_values(np.where(f.measures > 0,
                               f.values - f.mean(), 0.0))
    (piece,) = split_function(f, dec)
    assert np.array_equal(piece.values, f.values)


def test_split_two_rectangles_exact():
    f = lshape_density(32)
    pieces = split_function(f, LSHAPE)
    assert len(pieces) == 2
    total = pieces[0].values + pieces[1].values
    active = f.measures > 0
    # the input needed a mean shift, so compare against the shifted f
    target = np.where(active, f.values - f.mean(), 0.0)
    assert np.max(np.abs(total - target)) < 1e-12
    for piece in pieces:
        assert abs(piece.mean()) < 1e-12
    in1 = R1.contains(f.centroids)
    in2 = R2.contains(f.centroids)
    assert np.all(pieces[0].values[~in1] == 0.0)
    assert np.all(pieces[1].values[~in2] == 0.0)


def test_split_rejects_disjoint_tail():
    A = StarDomain.rectangle((0.0, 0.0), (0.4, 0.4))
    B = StarDomain.rectangle((0.6, 0.6), (1.0, 1.0))
    dec = DomainDecomposition([A, B])
    f = grid_field(dec, lambda X, Y: X - 0.5, 16, bbox=((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="reorder"):
        split_function(f, dec)


def test_split_rejects_uncovered_support():
    dec = DomainDecomposition([R1, R2])
    f = grid_field(DISK, kink, 16)  # lives on [-1,1]^2, outside the union
    with pytest.raises(ValueError, match="support"):
        split_function(f, dec)


def test_split_norm_bound():
    f = lshape_density(32)
    pieces = split_function(f, LSHAPE)
    bounds = decomposition_norm_bound(f, LSHAPE)
    f0 = f.with_values(np.where(f.measures > 0, f.values - f.mean(), 0.0))
    for A in (power(2.0), zygmund(1.0, 1.0)):
        nf = luxemburg_norm(f0, A)
        for piece, bound in zip(pieces, bounds):
            assert luxemburg_norm(piece, A) <= bound * nf


def test_norm_bound_matches_measured_sets():
    f = lshape_density(32)
    bounds = decomposition_norm_bound(f, LSHAPE)
    m = f.measures
    in1 = R1.contains(f.centroids)
    in2 = R2.contains(f.centroids)
    ov = math.fsum(m[in1 & in2])
    w1 = math.fsum(m[in1])
    g1 = math.fsum(m[in2])
    assert abs(bounds[0] - (1 + 4 * w1 / ov)) < 1e-12
    assert abs(bounds[1] - (1 + 4 * max(1.0, g1 / ov))) < 1e-12


def test_split_three_rectangles():
    R3 = StarDomain.rectangle((0.3, 0.4), (1.0, 1.0))
    dec = DomainDecomposition([R1, R2, R3])
    f = grid_field(dec, lambda X, Y: X + np.sin(3 * Y), 32,
                   bbox=((0, 0), (1, 1)))
    pieces = split_function(f, dec)
    assert len(pieces) == 3
    target = np.where(f.measures > 0, f.values - f.mean(), 0.0)
    total = pieces[0].values + pieces[1].values + pieces[2].values
    assert np.max(np.abs(total - target)) < 1e-12
    ins = [D.contains(f.centroids) for D in dec.subdomains]
    for piece, ind in zip(pieces, ins):
        assert abs(piece.mean()) < 1e-12
        assert np.all(piece.values[~ind] == 0.0)

    # G_i, the union of the later subdomains, cell by cell
    G = [np.array([any(ins[j][c] for j in range(i + 1, 3))
                   for c in range(f.n_cells)]) for i in range(2)]
    m = f.measures
    want, running = [], 1.0
    for i in range(2):
        over = math.fsum(m[ins[i] & G[i]])
        want.append(running * (1 + 4 * math.fsum(m[ins[i]]) / over))
        running *= 1 + 4 * max(1.0, math.fsum(m[G[i]]) / over)
    want.append(running)
    assert decomposition_norm_bound(f, dec) == pytest.approx(want, rel=1e-12)


def test_general_operator_on_lshape():
    f = lshape_density(64)
    rep = bogovskii_general(f, LSHAPE)
    # each subdomain solve reproduces its piece where the piece is smooth
    for res in rep["div_residual_per_subdomain"]:
        assert res < 0.05
    # the pieces telescope to f - mean, and so does the union's divergence
    assert rep["div_residual"] < 0.1
    # composed field vanishes away from the union
    k = int(np.argmin(np.max(np.abs(f.centroids - np.array([0.9, 0.9])),
                             axis=1)))
    assert np.all(np.abs(rep["u"].values[k]) == 0.0)
    # the union touches the bounding frame, so the discrete divergence
    # integral only vanishes up to the boundary flux of u
    h = 1.0 / 64
    total = abs(float(np.sum(rep["divergence"].values)) * h * h)
    scale = float(np.sum(f.measures * np.abs(f.values - f.mean())))
    assert total <= 0.02 * scale
