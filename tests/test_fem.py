"""FEM layer: meshes, assembly, reconstruction, inf-sup, interpolation.

Reference numbers marked "frozen" were produced by the quadrature and
factorization routines in this repository at the stated settings and
pinned; exact identities (counts, row sums, recoveries) are asserted at
roundoff scale.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import cholesky, lstsq, solve_triangular, svdvals

from orlicz import exponential, eyring, power, zygmund
from orlicz import fem

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


@pytest.fixture(scope="module")
def spaces():
    out = {}
    for h in (0.5, 0.25, 0.125, 0.0625):
        out[h] = fem.FESpacePair(fem.triangulate(SQUARE, h), k=2)
    return out


def sinsin(pts):
    return np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])


def sinsin_tensor(pts):
    """sinsin times the identity: a load off the range of the pairing."""
    return sinsin(pts)[:, None, None] * np.eye(2)[None, :, :]


def smooth_u(pts):
    x, y = pts[:, 0], pts[:, 1]
    b = 16.0 * x * (1 - x) * y * (1 - y)
    return np.stack([np.sin(2 * x + y) * b, np.cos(x - y) * b], axis=-1)


def smooth_grad_u(pts):
    eps = 1e-6
    out = np.empty((len(pts), 2, 2))
    for j in range(2):
        dp = np.zeros(2)
        dp[j] = eps
        out[:, :, j] = (smooth_u(pts + dp) - smooth_u(pts - dp)) / (2 * eps)
    return out


# -- triangulation --------------------------------------------------------

def test_unit_square_coarse_mesh():
    tri = fem.triangulate(SQUARE, 0.5)
    assert tri.n_simplices == 8
    assert tri.min_angle() == pytest.approx(45.0, abs=1e-9)
    assert float(tri.areas().sum()) == pytest.approx(1.0, abs=1e-15)
    assert tri.h == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)
    assert np.all(tri.areas() > 0)


def test_refinement_halves_diameter():
    tri = fem.triangulate(SQUARE, 0.5)
    fine = tri.refine()
    assert fine.n_simplices == 4 * tri.n_simplices
    assert fine.h == pytest.approx(tri.h / 2.0, rel=1e-15)
    assert fine.min_angle() == pytest.approx(45.0, abs=1e-9)
    assert float(fine.areas().sum()) == pytest.approx(1.0, abs=1e-14)
    # conforming: every edge belongs to one or two triangles, and the
    # boundary edge count doubles
    assert int(tri.boundary_edge_mask.sum()) == 8
    assert int(fine.boundary_edge_mask.sum()) == 16


def test_pitch_rounds_up():
    assert fem.triangulate(SQUARE, 0.25).n_simplices == 32
    assert fem.triangulate(SQUARE, 0.3).n_simplices == 32


def _lshape_mesh():
    verts = [(0, 0), (0.5, 0), (1, 0), (0, 0.5), (0.5, 0.5), (1, 0.5),
             (0, 1), (0.5, 1)]
    tris = [(0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4), (3, 4, 7),
            (3, 7, 6)]
    poly = [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)]
    return fem.triangulate(poly, 0.125, coarse=(verts, tris))


def test_l_shape_coarse_mesh_refines():
    mesh = _lshape_mesh()
    assert float(mesh.areas().sum()) == pytest.approx(0.75, abs=1e-14)
    assert mesh.min_angle() == pytest.approx(45.0, abs=1e-9)
    assert mesh.h <= 0.125 * math.sqrt(2.0) * (1 + 1e-12)


@pytest.mark.parametrize("mesh", ["lshape", "square8"])
def test_edge_numbering_matches_first_appearance_oracle(mesh):
    # the dof order, and with it the ascent's random directions, follows
    # the edge numbering: edges numbered in order of first appearance
    # over (simplex, local vertex), edge k opposite local vertex k
    tri = _lshape_mesh() if mesh == "lshape" \
        else fem.triangulate(SQUARE, 0.125)
    lookup, edges = {}, []
    simplex_edges = np.empty((tri.n_simplices, 3), dtype=int)
    for t, s in enumerate(tri.simplices):
        for k in range(3):
            key = tuple(sorted((int(s[(k + 1) % 3]), int(s[(k + 2) % 3]))))
            if key not in lookup:
                lookup[key] = len(edges)
                edges.append(key)
            simplex_edges[t, k] = lookup[key]
    counts = np.zeros(len(edges), dtype=int)
    for e in simplex_edges.ravel():
        counts[e] += 1
    boundary_vertex = np.zeros(tri.n_vertices, dtype=bool)
    for e in np.nonzero(counts == 1)[0]:
        boundary_vertex[list(edges[e])] = True
    assert np.array_equal(tri.edges, np.array(edges))
    assert np.array_equal(tri.simplex_edges, simplex_edges)
    assert np.array_equal(tri.boundary_edge_mask, counts == 1)
    assert np.array_equal(tri.boundary_vertex_mask, boundary_vertex)
    # the orientation signs: +1 exactly when the stored edge runs
    # counterclockwise around the simplex
    p = tri.vertices
    for t, s in enumerate(tri.simplices):
        for k in range(3):
            a, b = tri.edges[tri.simplex_edges[t, k]]
            left = fem._cross2(p[b] - p[a], p[s[k]] - p[a]) > 0
            assert tri.simplex_edge_signs[t, k] == (1 if left else -1)


def test_bad_meshes_rejected():
    with pytest.raises(ValueError):
        fem.triangulate(SQUARE, 0.0)
    with pytest.raises(ValueError):
        fem.triangulate([(0, 0), (1, 0)], 0.5)
    with pytest.raises(ValueError):
        fem.triangulate([(0, 0), (1, 0), (1, 1), (0.5, 1.5)], 0.5)
    with pytest.raises(ValueError):
        fem.Triangulation([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


# -- spaces and assembly ---------------------------------------------------

def test_dof_counts(spaces):
    V = spaces[0.25]
    assert V.tri.n_simplices == 32
    assert V.n_pressure == 31
    # 9 interior vertices and 40 interior edges
    assert V.n_velocity == 2 * (9 + 40)
    V1 = fem.FESpacePair(V.tri, k=1)
    assert V1.n_velocity == 2 * 9


def test_space_validation(spaces):
    with pytest.raises(ValueError):
        fem.FESpacePair(spaces[0.25].tri, k=3)


def test_raw_pairing_rows_sum_to_zero(spaces):
    # total divergence of a zero-trace field vanishes, so each raw row
    # must sum to zero; this is what lets the mean-zero basis drop to a
    # plain column deletion
    for h in (0.25, 0.125):
        araw = spaces[h].araw
        assert np.abs(araw.sum(axis=1)).max() <= 1e-14


def test_identity_tensor_gives_zero_load(spaces):
    V = spaces[0.25]
    sys_i = fem.assemble_pressure_system(
        lambda p: np.broadcast_to(np.eye(2), (len(p), 2, 2)), V)
    assert np.abs(sys_i["b"]).max() <= 1e-14


def test_manufactured_load_matches_pairing(spaces):
    V = spaces[0.25]
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(V.tri.n_simplices)
    areas = V.tri.areas()
    vals -= np.dot(vals, areas) / areas.sum()
    H = vals[:, None, None] * np.eye(2)[None, :, :]
    b = fem.assemble_pressure_system(H, V)["b"]
    assert np.abs(b - V.araw @ vals).max() <= 1e-12


def test_full_column_rank_on_square_family(spaces):
    for h in (0.25, 0.125):
        sv = svdvals(spaces[h].A_matrix)
        assert len(sv) >= spaces[h].n_pressure
        assert sv[-1] > 1e-10 * sv[0]


def test_h_input_forms_agree(spaces):
    V = spaces[0.25]
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(V.tri.n_simplices)
    arr = vals[:, None, None] * np.eye(2)[None, :, :]
    # the callable form looks each point up in its element
    owner = {tuple(x): t for t, pts in enumerate(V.tables()["qpts"])
             for x in pts}
    b_arr = fem.assemble_pressure_system(arr, V)["b"]
    b_fun = fem.assemble_pressure_system(
        lambda pts: arr[[owner[tuple(x)] for x in pts]], V)["b"]
    assert np.array_equal(b_arr, b_fun)
    with pytest.raises(ValueError):
        fem.assemble_pressure_system(arr[:5], V)


# -- pressure reconstruction ----------------------------------------------

def test_exact_p0_recovery(spaces):
    V = spaces[0.25]
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(V.tri.n_simplices)
    areas = V.tri.areas()
    vals -= np.dot(vals, areas) / areas.sum()
    H = vals[:, None, None] * np.eye(2)[None, :, :]
    rec = fem.reconstruct_pressure(fem.assemble_pressure_system(H, V),
                                   mode="exact")
    assert np.abs(rec["values"] - vals).max() <= 1e-10
    assert rec["residual"] <= 1e-10


def test_zero_load_gives_zero_pressure(spaces):
    V = spaces[0.25]
    rec = fem.reconstruct_pressure({"b": np.zeros(V.n_velocity), "space": V},
                                   mode="exact")
    assert np.abs(rec["values"]).max() == 0.0


def test_exact_mode_rejects_off_range_load(spaces):
    V = spaces[0.25]
    system = fem.assemble_pressure_system(sinsin_tensor, V)
    with pytest.raises(ValueError, match="least_squares"):
        fem.reconstruct_pressure(system, mode="exact")
    rec = fem.reconstruct_pressure(system, mode="least_squares")
    assert rec["residual"] > 1e-3


@pytest.mark.parametrize("h", [0.25, 0.125])
def test_least_squares_matches_dense_lstsq_oracle(spaces, h):
    # oracle: whiten by the Cholesky factor of the dense gradient Gram
    # and solve the least-squares problem directly; the library solves
    # the same problem through the normal equations of the Schur pencil
    V = spaces[h]
    system = fem.assemble_pressure_system(sinsin_tensor, V)
    b = system["b"]
    L = cholesky(V.velocity_gradient_gram(), lower=True)
    X = solve_triangular(L, V.A_matrix, lower=True)
    c = solve_triangular(L, b, lower=True)
    z, _, _, _ = lstsq(X, c)
    resid = np.linalg.norm(X @ z - c) / np.linalg.norm(c)
    rec = fem.reconstruct_pressure(system, mode="least_squares")
    gap = np.abs(rec["coefficients"] - z).max() / np.abs(z).max()
    assert gap <= 1e-10
    assert rec["residual"] == pytest.approx(resid, rel=1e-10)


@pytest.mark.parametrize("h", [0.25, 0.125])
def test_unstable_pair_error_names_it(spaces, h):
    V1 = fem.FESpacePair(spaces[h].tri, k=1)
    system = fem.assemble_pressure_system(
        lambda p: np.zeros((len(p), 2, 2)), V1)
    with pytest.raises(ValueError, match=r"k=1.*m=0"):
        fem.reconstruct_pressure(system)


def test_mode_validation(spaces):
    V = spaces[0.25]
    system = {"b": np.zeros(V.n_velocity), "space": V}
    with pytest.raises(ValueError):
        fem.reconstruct_pressure(system, mode="fastest")


# -- inf-sup constant ------------------------------------------------------

def test_infsup_eigen_frozen_values(spaces):
    p2 = power(2)
    frozen = {0.5: 1.163002724022, 0.25: 1.077660841329,
              0.125: 1.015304602329, 0.0625: 0.975153078295,
              1.0 / 32.0: 0.948010672388}
    for h, want in frozen.items():
        V = spaces.get(h) or fem.FESpacePair(fem.triangulate(SQUARE, h))
        rep = fem.compute_infsup(V, p2, p2, method="eigen")
        assert rep["value"] == pytest.approx(want, rel=1e-8)
        assert rep["method"] == "eigen"
        assert not rep["rank_deficient"]


def test_infsup_band_across_levels(spaces):
    p2 = power(2)
    vals = [fem.compute_infsup(spaces[h], p2, p2)["value"]
            for h in (0.25, 0.125, 0.0625)]
    mid = sum(vals) / len(vals)
    assert min(vals) > 0.1
    assert max(vals) <= 1.2 * mid
    assert min(vals) >= 0.8 * mid


def test_infsup_matches_whitened_svd_oracle(spaces):
    V = spaces[0.25]
    Lg = cholesky(V.velocity_gradient_gram(), lower=True)
    X = solve_triangular(Lg, V.A_matrix, lower=True)
    Lp = cholesky(V.pressure_gram(), lower=True)
    W = solve_triangular(Lp, X.T, lower=True).T
    oracle = 2.0 * svdvals(W)[-1]
    rep = fem.compute_infsup(V, power(2), power(2), method="eigen")
    assert rep["value"] == pytest.approx(oracle, rel=1e-8)


def test_infsup_ascent_agrees_with_eigen(spaces):
    V = spaces[0.25]
    p2 = power(2)
    eig = fem.compute_infsup(V, p2, p2, method="eigen")["value"]
    rep = fem.compute_infsup(V, p2, p2, method="ascent", seed=1)
    assert rep["method"] == "ascent"
    assert rep["value"] == pytest.approx(eig, rel=1e-6)
    assert rep["converged"]


@pytest.mark.parametrize("h", [0.25, 0.125])
def test_infsup_p1_p0_collapses(spaces, h):
    V1 = fem.FESpacePair(spaces[h].tri, k=1)
    rep = fem.compute_infsup(V1, power(2), power(2), method="eigen")
    assert rep["rank_deficient"]
    assert rep["value"] <= 1e-6


def test_infsup_dilated_pressure_norm(spaces):
    # replacing the pressure Young function t^2 by (2t)^2 doubles the
    # Luxemburg norm, so the constant halves exactly
    V = spaces[0.25]
    p2 = power(2)
    base = fem.compute_infsup(V, p2, p2)["value"]
    rep = fem.compute_infsup(V, p2, power(2, 4.0), seed=1)
    assert rep["value"] / base == pytest.approx(0.5, abs=0.02)


def test_infsup_general_pair_stable_in_h(spaces):
    zy = zygmund(1, 1)
    p1 = power(1)
    vals = {}
    for h in (0.25, 0.125):
        rep = fem.compute_infsup(spaces[h], zy, p1, seed=2)
        assert rep["method"] == "ascent"
        vals[h] = rep["value"]
    # frozen: 0.968877 at h=1/4, 1.051969 at h=1/8
    assert vals[0.25] == pytest.approx(0.968877, rel=1e-3)
    assert vals[0.125] == pytest.approx(1.051969, rel=1e-3)
    assert max(vals.values()) / min(vals.values()) < 1.3
    assert min(vals.values()) > 0.5


@pytest.mark.parametrize("h, value, evals", [(0.25, 1.0264427855362641, 278),
                                             (0.125, 1.1402872978601681,
                                              211)])
def test_infsup_general_pair_short_ascent_pinned(spaces, h, value, evals):
    # frozen: one restart of at most 100 steps from direction seed 2.
    # A faster norm evaluation must leave the iterates as they are, so
    # the number of ratio evaluations is pinned exactly
    rep = fem.compute_infsup(spaces[h], zygmund(1, 1), power(1), seed=2,
                             max_iter=100, restarts=1)
    assert rep["value"] == pytest.approx(value, rel=1e-12)
    assert rep["ratio_evals"] == evals


def test_infsup_method_validation(spaces):
    V = spaces[0.25]
    with pytest.raises(ValueError):
        fem.compute_infsup(V, zygmund(1, 1), power(1), method="eigen")
    with pytest.raises(ValueError):
        fem.compute_infsup(V, power(2), power(2), method="magic")


def test_two_triangle_mesh_has_no_pressure_modes():
    # a 2 x 2 pencil has no eigenpair past the constant one for ARPACK
    V = fem.FESpacePair(fem.triangulate(SQUARE, 1.0), k=2)
    with pytest.raises(ValueError, match="the mesh has 2"):
        V.pressure_modes()


def test_solvers_never_form_the_dense_gradient_gram(monkeypatch):
    # every solver goes through the space's sparse factors; the dense
    # interleaved Gram, pairing and pressure Gram are left to the oracles
    def refuse(self):
        raise AssertionError("dense matrix formed")

    monkeypatch.setattr(fem.FESpacePair, "velocity_gradient_gram", refuse)
    monkeypatch.setattr(fem.FESpacePair, "A_matrix", property(refuse))
    monkeypatch.setattr(fem.FESpacePair, "pressure_gram", refuse)
    V = fem.FESpacePair(fem.triangulate(SQUARE, 0.25), k=2)
    p2 = power(2)
    assert fem.compute_infsup(V, p2, p2, method="eigen")["value"] > 0.5
    rep = fem.compute_infsup(V, zygmund(1, 1), power(1), restarts=1,
                             max_iter=5)
    assert rep["value"] > 0.5
    system = fem.assemble_pressure_system(sinsin_tensor, V)
    assert fem.reconstruct_pressure(system, "least_squares")["residual"] > 0
    rows = fem.pressure_error_study(sinsin, [0.25], p2, p2)
    assert rows[0]["error"] > 0


def test_infsup_eigen_bits_independent_of_blas_threads():
    # the saddle factor and the Lanczos start are fixed, so the value
    # must not depend on how many threads the BLAS runs with
    script = ("from orlicz import fem, power; "
              "V = fem.FESpacePair(fem.triangulate(%r, 1 / 16)); "
              "print(repr(fem.compute_infsup(V, power(2), power(2), "
              "method='eigen')['value']))" % (SQUARE,))
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
    assert float(out[0]) == pytest.approx(0.975153078295, rel=1e-8)


# -- divergence-preserving interpolation -----------------------------------

def evaluate_velocity(V, coeffs, pts):
    """Velocity field values at arbitrary points, by brute-force element
    location: the pointwise oracle of the interpolation tests."""
    pts = np.atleast_2d(np.asarray(pts, float))
    out = np.zeros((len(pts), 2))
    p = V.tri.vertices
    t = V.tri.simplices
    for i, x in enumerate(pts):
        for e in range(V.tri.n_simplices):
            tri = p[t[e]]
            mat = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
            loc = np.linalg.solve(mat, x - tri[0])
            lam = np.array([1.0 - loc.sum(), loc[0], loc[1]])
            if lam.min() < -1e-12:
                continue
            shapes = fem._p2_shapes(lam) if V.k == 2 else lam
            # scalar node ids of the element, in the local shape order
            nodes = list(t[e])
            if V.k == 2:
                nodes += [V.tri.n_vertices + j for j in V.tri.simplex_edges[e]]
            for a, node in enumerate(nodes):
                d = V.node_dof[node]
                if d < 0:
                    continue
                out[i, 0] += coeffs[2 * d] * shapes[a]
                out[i, 1] += coeffs[2 * d + 1] * shapes[a]
            break
    return out


@pytest.mark.parametrize("k", [2, 1])
def test_samples_match_pointwise_oracle(k):
    # the value and gradient maps against brute-force evaluation; the
    # central difference is exact for quadratics up to rounding
    V = fem.FESpacePair(fem.triangulate(SQUARE, 0.25), k=k)
    coeffs = np.random.default_rng(4).standard_normal(V.n_velocity)
    pts = V.tables()["qpts"].reshape(-1, 2)
    vals = V.velocity_samples(coeffs).values
    assert np.abs(vals - evaluate_velocity(V, coeffs, pts)).max() <= 1e-12
    step = 1e-6
    fd = np.stack([(evaluate_velocity(V, coeffs, pts + step * e)
                    - evaluate_velocity(V, coeffs, pts - step * e))
                   / (2 * step) for e in np.eye(2)], axis=-1)
    grads = V.gradient_samples(coeffs).values
    assert np.abs(grads - fd).max() <= 1e-8


def test_projection_idempotent_on_p2(spaces):
    V = spaces[0.25]
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(V.n_velocity)
    rep = fem.projection_apply(
        lambda pts: evaluate_velocity(V, coeffs, pts), V)
    assert np.abs(rep["coeffs"] - coeffs).max() <= 1e-12


def test_projection_preserves_element_divergence(spaces):
    # oracle: analytic divergence of bubble-times-quadratic fields,
    # integrated per element with the degree-5 rule (exact here)
    V = spaces[0.25]
    tab = V.tables()
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.standard_normal(12) * 0.8

        def u(pts, c=c):
            x, y = pts[:, 0], pts[:, 1]
            b = x * (1 - x) * y * (1 - y)
            f1 = c[0] + c[1] * x + c[2] * y + c[3] * x * y \
                + c[4] * x * x + c[5] * y * y
            f2 = c[6] + c[7] * x + c[8] * y + c[9] * x * y \
                + c[10] * x * x + c[11] * y * y
            return np.stack([b * f1, b * f2], axis=-1)

        def div_u(pts, c=c):
            x, y = pts[:, 0], pts[:, 1]
            b = x * (1 - x) * y * (1 - y)
            bx = y * (1 - y) * (1 - 2 * x)
            by = x * (1 - x) * (1 - 2 * y)
            f1 = c[0] + c[1] * x + c[2] * y + c[3] * x * y \
                + c[4] * x * x + c[5] * y * y
            f2 = c[6] + c[7] * x + c[8] * y + c[9] * x * y \
                + c[10] * x * x + c[11] * y * y
            f1x = c[1] + c[3] * y + 2 * c[4] * x
            f2y = c[8] + c[9] * x + 2 * c[11] * y
            return bx * f1 + b * f1x + by * f2 + b * f2y

        want = np.einsum("tq,tq->t", tab["qw"],
                         div_u(tab["qpts"].reshape(-1, 2)).reshape(
                             V.tri.n_simplices, -1))
        rep = fem.projection_apply(u, V)
        got = V.araw.T @ rep["coeffs"]
        assert np.abs(got - want).max() <= 1e-12


def test_projection_zero_on_boundary(spaces):
    V = spaces[0.25]
    rep = fem.projection_apply(smooth_u, V)
    bpts = np.array([[0.0, 0.3], [1.0, 0.7], [0.55, 0.0], [0.25, 1.0],
                     [0.0, 0.0]])
    vals = evaluate_velocity(V, rep["coeffs"], bpts)
    assert np.abs(vals).max() <= 1e-13


def test_projection_exact_at_h32():
    # the dual-graph Laplacian solve and the sparse araw behind the
    # defect check keep the 1/32 projection cheap
    V = fem.FESpacePair(fem.triangulate(SQUARE, 1.0 / 32.0), k=2)
    rep = fem.projection_apply(smooth_u, V)
    assert rep["defect_after"] <= 1e-12
    assert rep["defect_before"] > 1e-8


def test_projection_on_corner_touching_squares():
    # two squares sharing one vertex: the bubble flow splits into two
    # pieces, and the least-squares flow leaves each piece's mean defect
    a = fem.Triangulation.structured_rectangle((0, 0), (1, 1), 4, 4)
    b = fem.Triangulation.structured_rectangle((1, 1), (2, 2), 4, 4)
    # b's first vertex is (1, 1), a's last one
    ids = np.concatenate([[a.n_vertices - 1],
                          a.n_vertices + np.arange(b.n_vertices - 1)])
    tri = fem.Triangulation(np.vstack([a.vertices, b.vertices[1:]]),
                            np.vstack([a.simplices, ids[b.simplices]]))
    V = fem.FESpacePair(tri, k=2)

    def u(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([np.sin(2 * x + y), np.cos(x - y)], axis=-1)

    def bumped(pts):
        x, y = pts[:, 0], pts[:, 1]
        return (np.sin(np.pi * x) * np.sin(np.pi * y))[:, None] ** 2 \
            * u(pts)

    # zero trace on both squares: every piece's defects sum to zero
    rep = fem.projection_apply(bumped, V)
    assert rep["defect_before"] > 1e-6
    assert rep["defect_after"] <= 1e-12
    # nonzero boundary flux: the residual is constant on each square
    rep = fem.projection_apply(u, V)
    resid = fem._flux_integrals(V, u) - V.araw.T @ rep["coeffs"]
    for piece in np.split(resid, [a.n_simplices]):
        assert np.ptp(piece) <= 1e-12
    assert np.ptp(resid) > 1e-3


def test_projection_needs_quadratic_space(spaces):
    V1 = fem.FESpacePair(spaces[0.25].tri, k=1)
    with pytest.raises(ValueError):
        fem.projection_apply(smooth_u, V1)


def test_local_stability_single_constant(spaces):
    worst = 0.0
    for h in (0.25, 0.125, 0.0625):
        rep = fem.projection_apply(smooth_u, spaces[h])
        worst = max(worst, fem.check_local_stability(
            smooth_u, smooth_grad_u, spaces[h], rep["coeffs"]))
    # frozen: measured maxima 1.136, 1.081, 1.031 over the three levels
    assert worst <= 1.5


def test_orlicz_stability_single_constant(spaces):
    fams = [power(1.5), power(3), zygmund(1, 1), exponential(1)]
    ratios = []
    for h in (0.25, 0.125, 0.0625):
        coeffs = fem.projection_apply(smooth_u, spaces[h])["coeffs"]
        for fam in fams:
            ratios.append(fem.check_orlicz_projection_stability(
                smooth_grad_u, spaces[h], coeffs, fam))
    # one constant across all four Young functions and all three levels
    assert max(ratios) <= 1.5
    assert min(ratios) >= 0.5


def test_orlicz_stability_scale_invariant(spaces):
    V = spaces[0.25]
    fam = zygmund(1, 1)
    base = fem.check_orlicz_projection_stability(
        smooth_grad_u, V, fem.projection_apply(smooth_u, V)["coeffs"], fam)
    lam = 37.0
    scaled = fem.check_orlicz_projection_stability(
        lambda p: lam * smooth_grad_u(p), V,
        fem.projection_apply(lambda p: lam * smooth_u(p), V)["coeffs"], fam)
    assert scaled == pytest.approx(base, rel=1e-9)


# -- pressure error study ---------------------------------------------------

def test_study_nested_p0_is_exact():
    rng = np.random.default_rng(11)
    cell = rng.standard_normal((4, 4))
    cell -= cell.mean()

    def pi(pts):
        i = np.clip((pts[:, 0] * 4).astype(int), 0, 3)
        j = np.clip((pts[:, 1] * 4).astype(int), 0, 3)
        return cell[i, j]

    rows = fem.pressure_error_study(pi, [0.25, 0.125], power(2), power(2))
    for r in rows:
        assert r["error"] <= 1e-10
        assert r["residual"] <= 1e-10


def test_study_first_order_rate_and_ratio_band():
    rows = fem.pressure_error_study(sinsin, [0.25, 0.125, 0.0625],
                                    power(2), power(2))
    errs = [r["error"] for r in rows]
    # frozen: 0.249415926, 0.129705619, 0.065389808
    assert errs[0] == pytest.approx(0.249415926, rel=1e-6)
    assert errs[1] == pytest.approx(0.129705619, rel=1e-6)
    assert errs[2] == pytest.approx(0.065389808, rel=1e-6)
    for a, b in zip(errs, errs[1:]):
        assert 1.6 <= a / b <= 2.4
    ratios = [r["ratio"] for r in rows]
    mid = sum(ratios) / len(ratios)
    assert max(ratios) <= 1.3 * mid
    assert min(ratios) >= 0.7 * mid
    stabs = [r["stability"] for r in rows]
    assert max(stabs) / min(stabs) <= 1.25


def test_study_general_pair_ratio_bounded():
    rows = fem.pressure_error_study(sinsin, [0.25, 0.125],
                                    zygmund(1, 1), power(1))
    ratios = [r["ratio"] for r in rows]
    # frozen: 1.092578470 and 1.070501000
    assert ratios[0] == pytest.approx(1.092578470, rel=1e-6)
    assert ratios[1] == pytest.approx(1.070501000, rel=1e-6)
    assert max(ratios) <= 1.3


# -- stress laws -------------------------------------------------------------

def test_power_law_quadratic_is_linear():
    xi = np.array([[0.3, 0.1], [0.1, -0.2]])
    out = fem.stress_eval(fem.StressLaw.power(2.5, 0.0, 2.0), xi)
    assert np.abs(out - 2.5 * xi).max() == 0.0


def test_power_law_shear_thinning_factor():
    law = fem.StressLaw.power(1.0, 0.5, 1.5)
    xi = np.array([[1.0, 0.0], [0.0, 1.0]])
    t = math.sqrt(2.0)
    want = (0.5 + t) ** (-0.5) * xi
    assert np.abs(fem.stress_eval(law, xi) - want).max() <= 1e-15


def test_eyring_slope_at_origin():
    law = fem.StressLaw.eyring(3.0, 1.0)
    xi = 1e-8 * np.eye(2)
    out = fem.stress_eval(law, xi)
    assert out[0, 0] / 1e-8 == pytest.approx(3.0, rel=1e-6)
    assert np.abs(fem.stress_eval(law, np.zeros((2, 2)))).max() == 0.0


def test_stress_parallel_with_nonnegative_factor():
    rng = np.random.default_rng(2)
    laws = [fem.StressLaw.power(2.0, 0.1, 1.7),
            fem.StressLaw.eyring(1.3, 2.0),
            fem.StressLaw.potential(power(3))]
    for law in laws:
        for _ in range(5):
            a = rng.standard_normal((2, 2))
            xi = 0.5 * (a + a.T)
            out = fem.stress_eval(law, xi)
            t = math.sqrt((xi * xi).sum())
            factor = math.sqrt((out * out).sum()) / t
            assert factor >= 0.0
            assert np.abs(out - factor * xi).max() <= 1e-12 * max(1.0, t)


def test_potential_law_matches_eyring():
    xi_stack = np.stack([np.array([[0.3, 0.1], [0.1, -0.2]]),
                         2.0 * np.eye(2)])
    a = fem.stress_eval(fem.StressLaw.potential(eyring()), xi_stack)
    b = fem.stress_eval(fem.StressLaw.eyring(1.0, 1.0), xi_stack)
    assert np.abs(a - b).max() <= 1e-12


def test_stress_eval_matches_per_kind_formulas():
    # oracle: each kind's factor written out, the power law with kappa0 > 0
    # taken at |xi| itself rather than at |xi| with 0 replaced by 1; the
    # outputs agree bit for bit
    def oracle(kind, xi, nu0=1.0, kappa0=0.0, p=2.0, lam0=1.0, phi=None):
        t = np.sqrt(np.sum(xi * xi, axis=(-2, -1)))
        safe = np.where(t > 0.0, t, 1.0)
        if kind == "power":
            base = kappa0 + (safe if kappa0 == 0.0 else t)
            factor = nu0 * base ** (p - 2.0)
        elif kind == "eyring":
            factor = nu0 * np.arcsinh(lam0 * safe) / (lam0 * safe)
        else:
            factor = phi.density(safe) / safe
        out = factor[..., None, None] * xi
        return np.where(t[..., None, None] > 0.0, out, 0.0)

    rng = np.random.default_rng(11)
    a = rng.standard_normal((500, 2, 2)) * rng.uniform(1e-6, 1e3, (500, 1, 1))
    xi = 0.5 * (a + np.swapaxes(a, -1, -2))
    xi[::50] = 0.0
    cases = [
        (fem.StressLaw.power(2.5, 0.0, 1.5),
         dict(kind="power", nu0=2.5, p=1.5)),
        (fem.StressLaw.power(0.7, 0.3, 2.6),
         dict(kind="power", nu0=0.7, kappa0=0.3, p=2.6)),
        (fem.StressLaw.power(1.0, 0.5, 1.2),
         dict(kind="power", kappa0=0.5, p=1.2)),
        (fem.StressLaw.eyring(1.3, 2.0),
         dict(kind="eyring", nu0=1.3, lam0=2.0)),
        (fem.StressLaw.potential(power(3)),
         dict(kind="potential", phi=power(3))),
        (fem.StressLaw.potential(eyring()),
         dict(kind="potential", phi=eyring())),
    ]
    for law, kw in cases:
        got = fem.stress_eval(law, xi)
        assert np.array_equal(got, oracle(xi=xi, **kw)), kw
        assert np.all(got[::50] == 0.0)


def test_stress_validation():
    with pytest.raises(ValueError):
        fem.StressLaw.power(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fem.StressLaw.eyring(0.0, 1.0)
    with pytest.raises(ValueError):
        fem.stress_eval(fem.StressLaw.eyring(1.0, 1.0),
                        np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        fem.stress_eval(fem.StressLaw.eyring(1.0, 1.0), np.eye(3))
