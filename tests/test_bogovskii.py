"""Divergence-operator tests: kernel integrals, estimates, splitting.

The disk experiments use the density f(y) = |y| - 2/3, mean-zero on the
unit disk because the mean of |y| there is (1/pi) int_0^2pi int_0^1 r*r
dr dtheta = 2/3.  Tolerances on divergence residuals were measured once
on this implementation and carry a margin over the observed values; the
structural identities (linearity, support, splitting) are exact and
tested tight.
"""

import math

import numpy as np
import pytest

from orlicz.bogovskii import (
    DomainDecomposition,
    StarDomain,
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
from orlicz.spaces import luxemburg_norm
from orlicz.young import power, zygmund

DISK = StarDomain.disk(radius=1.0, n_vertices=96, ball_frac=0.5)


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
    D = StarDomain(DISK.vertices, (0.1, -0.2), 0.45, check=False)
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
    got = np.array([np.array(_ray_integrals(x, e[None, :], D))[:, 0]
                    for x, e in rays])
    want = np.array([_gauss_ray_integrals(x, e, D) for x, e in rays])
    assert np.sum(want[:, 0] == 0.0) >= 40       # the misses
    assert np.sum(want[:, 0] > 0.0) >= 80        # the hits
    for j in (0, 1):
        scale = np.max(np.abs(want[:, j]))
        assert np.max(np.abs(got[:, j] - want[:, j])) <= 1e-13 * scale


def test_gridline_evaluation_shifts_and_reports():
    f = grid_field(DISK, kink, 16)
    h = 2.0 / 16
    x = [-1.0 + 5 * h, -1.0 + 8.5 * h]  # on a vertical gridline
    report = {}
    u = bogovskii_apply(f, x, DISK, report=report)
    assert "shifted" in report
    assert np.all(np.isfinite(u))


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


def test_general_operator_on_lshape():
    f = lshape_density(64)
    rep = bogovskii_general(f, LSHAPE)
    # each subdomain solve reproduces its piece where the piece is smooth
    for res in rep["div_residual_per_subdomain"]:
        assert res < 0.05
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
