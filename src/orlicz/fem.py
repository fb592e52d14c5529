"""Simplicial FEM harness for discrete pressure reconstruction.

Velocity fields live in the vector P2 space with zero boundary values,
pressures in the mean-zero piecewise constants (the admissible (2, 0)
pair; (1, 0) is shipped only as the negative control).  The divergence
pairing matrix, assembled with an exact rule for the polynomial
integrands, drives three things: pressure recovery from a stress-type
tensor field, the discrete inf-sup constant (an eigenvalue problem in
the quadratic case, an alternating ascent for general Orlicz pairs),
and the divergence-preserving interpolation built from Scott-Zhang
local averaging plus an interior-edge bubble correction.

Assembly and sampling are products with two sparse maps per space,
from scalar coefficients to values and to gradients at quadrature points.

Norms of nonpolynomial quantities are Luxemburg norms of quadrature
samplings; they are used only in ratios asserted to be stable, never
as exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import bmat, csr_matrix, diags, identity, kron
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from orlicz.spaces import SampledField, luxemburg_norm

__all__ = [
    "Triangulation",
    "triangulate",
    "FESpacePair",
    "StressLaw",
    "stress_eval",
    "assemble_pressure_system",
    "reconstruct_pressure",
    "compute_infsup",
    "projection_apply",
    "check_local_stability",
    "check_orlicz_projection_stability",
    "pressure_error_row",
    "pressure_error_study",
]

# Seven-point degree-5 rule with positive weights; one rule serves every
# assembly here (required exactness is degree 2k - 1 <= 5).
_QA = (6.0 - math.sqrt(15.0)) / 21.0
_QB = (6.0 + math.sqrt(15.0)) / 21.0
_TRI_QP = np.array([
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    [_QA, _QA, 1.0 - 2.0 * _QA],
    [_QA, 1.0 - 2.0 * _QA, _QA],
    [1.0 - 2.0 * _QA, _QA, _QA],
    [_QB, _QB, 1.0 - 2.0 * _QB],
    [_QB, 1.0 - 2.0 * _QB, _QB],
    [1.0 - 2.0 * _QB, _QB, _QB],
])
_TRI_QW = np.array(
    [9.0 / 40.0]
    + [(155.0 - math.sqrt(15.0)) / 1200.0] * 3
    + [(155.0 + math.sqrt(15.0)) / 1200.0] * 3)
_N_QP = len(_TRI_QW)

# 4-point Gauss-Legendre on [0, 1], exact through degree 7; used for
# edge fluxes
_EG_X, _EG_W = np.polynomial.legendre.leggauss(4)
_EDGE_QP = 0.5 * (_EG_X + 1.0)
_EDGE_QW = 0.5 * _EG_W


def _cross2(u, v):
    """z-component of the cross product of planar vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


class Triangulation:
    """Conforming triangle mesh with oriented simplices and edge maps."""

    def __init__(self, vertices, simplices):
        self.vertices = np.asarray(vertices, dtype=float)
        simp = np.asarray(simplices, dtype=int).copy()
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be (n, 2)")
        if simp.ndim != 2 or simp.shape[1] != 3:
            raise ValueError("simplices must be (n, 3)")
        # orient counterclockwise
        p = self.vertices
        area2 = _cross2(p[simp[:, 1]] - p[simp[:, 0]],
                        p[simp[:, 2]] - p[simp[:, 0]])
        if np.any(area2 == 0.0):
            raise ValueError("degenerate simplex")
        flip = area2 < 0.0
        simp[flip, 1:] = simp[flip, :0:-1]
        self.simplices = simp
        self._build_edges()

    def _build_edges(self):
        """Edges numbered in order of first appearance over (simplex,
        local vertex); simplex_edges[t, k] is the edge opposite local
        vertex k.

        The edge opposite k runs counterclockwise from v[k+1] to v[k+2];
        simplex_edge_signs[t, k] is +1 when that direction agrees with
        the stored (sorted) endpoints and -1 otherwise, so the right
        normal of the stored edge points out of t exactly when it is +1.
        """
        s = self.simplices
        nv = len(self.vertices)
        a, b = s[:, [1, 2, 0]], s[:, [2, 0, 1]]
        keys = (np.minimum(a, b) * nv + np.maximum(a, b)).ravel()
        uniq, first, inverse = np.unique(keys, return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.edges = np.stack(np.divmod(uniq[order], nv), axis=1)
        self.simplex_edges = rank[inverse].reshape(s.shape)
        self.simplex_edge_signs = np.where(a < b, 1, -1)
        counts = np.bincount(self.simplex_edges.ravel())
        if counts.max() > 2:
            raise ValueError("non-manifold mesh")
        self.boundary_edge_mask = counts == 1
        self.boundary_vertex_mask = np.bincount(
            self.edges[self.boundary_edge_mask].ravel(), minlength=nv) > 0

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_simplices(self):
        return len(self.simplices)

    @property
    def n_edges(self):
        return len(self.edges)

    def areas(self):
        p = self.vertices
        t = self.simplices
        return 0.5 * _cross2(p[t[:, 1]] - p[t[:, 0]],
                             p[t[:, 2]] - p[t[:, 0]])

    def diameters(self):
        p = self.vertices
        t = self.simplices
        d = [np.linalg.norm(p[t[:, i]] - p[t[:, j]], axis=1)
             for i, j in ((0, 1), (1, 2), (0, 2))]
        return np.max(d, axis=0)

    @property
    def h(self):
        """Measured maximum simplex diameter."""
        return float(np.max(self.diameters()))

    def min_angle(self):
        p = self.vertices[self.simplices]  # (T, 3, 2)
        a = np.roll(p, -1, axis=1) - p
        b = np.roll(p, -2, axis=1) - p
        cosang = np.sum(a * b, axis=-1) / (np.linalg.norm(a, axis=-1)
                                           * np.linalg.norm(b, axis=-1))
        return math.degrees(float(np.arccos(np.clip(cosang, -1.0,
                                                    1.0)).min()))

    def refine(self):
        """Red refinement: every triangle into four via edge midpoints."""
        p = self.vertices
        mid = 0.5 * (p[self.edges[:, 0]] + p[self.edges[:, 1]])
        v0, v1, v2 = self.simplices.T
        m0, m1, m2 = (self.n_vertices + self.simplex_edges).T  # opposite v
        out = np.stack([v0, m2, m1, v1, m0, m2, v2, m1, m0, m0, m1, m2],
                       axis=1).reshape(-1, 3)
        return Triangulation(np.vstack([p, mid]), out)

    @staticmethod
    def structured_rectangle(lo, hi, nx, ny):
        """nx-by-ny squares, each split along the same diagonal."""
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        xs = np.linspace(lo[0], hi[0], nx + 1)
        ys = np.linspace(lo[1], hi[1], ny + 1)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        a = (i * (ny + 1) + j).ravel()  # vertex (i, j) of each square
        b = a + ny + 1
        tris = np.stack([a, b, b + 1, a, b + 1, a + 1],
                        axis=1).reshape(-1, 3)
        return Triangulation(np.column_stack([X.ravel(), Y.ravel()]), tris)


def triangulate(polygon, h_target, coarse=None):
    """Mesh a polygon at the requested pitch.

    Axis-aligned rectangles get the structured mesh (each grid square
    split into two right triangles whose legs equal the pitch).  Any
    other polygon needs a hand-given coarse mesh, which is refined
    until the measured diameter drops to the pitch times sqrt(2).
    """
    if h_target <= 0:
        raise ValueError("h_target must be positive")
    if coarse is not None:
        mesh = coarse if isinstance(coarse, Triangulation) \
            else Triangulation(*coarse)
        while mesh.h > h_target * math.sqrt(2.0) * (1 + 1e-12):
            mesh = mesh.refine()
        return mesh
    poly = np.asarray(polygon, dtype=float)
    if poly.ndim != 2 or len(poly) < 3:
        raise ValueError("degenerate polygon")
    if len(poly) == 4:
        lo = poly.min(axis=0)
        hi = poly.max(axis=0)
        corners = {(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])}
        if {tuple(v) for v in poly} == corners and np.all(hi > lo):
            nx = max(1, int(math.ceil((hi[0] - lo[0]) / h_target - 1e-9)))
            ny = max(1, int(math.ceil((hi[1] - lo[1]) / h_target - 1e-9)))
            return Triangulation.structured_rectangle(lo, hi, nx, ny)
    raise ValueError("non-rectangular polygon needs a coarse mesh")


# -- stress laws ---------------------------------------------------------

@dataclass(frozen=True)
class StressLaw:
    """Constitutive map S(xi) = factor(|xi|) xi: ``factor`` maps an
    array of s = |xi| > 0 (Frobenius) to the law's scalar factor."""

    factor: object

    @staticmethod
    def power(nu0, kappa0, p):
        if not all(map(math.isfinite, (nu0, kappa0, p))):
            raise ValueError("power law needs finite nu0, kappa0 and p, got "
                             "%r" % ((nu0, kappa0, p),))
        if p <= 1.0:
            raise ValueError("power-law exponent must exceed 1")
        if nu0 <= 0.0 or kappa0 < 0.0:
            raise ValueError("need nu0 > 0 and kappa0 >= 0")
        return StressLaw(lambda s: nu0 * (kappa0 + s) ** (p - 2.0))

    @staticmethod
    def eyring(nu0, lam0):
        if not all(map(math.isfinite, (nu0, lam0))):
            raise ValueError("eyring law needs finite nu0 and lam0, got %r"
                             % ((nu0, lam0),))
        if nu0 <= 0.0 or lam0 <= 0.0:
            raise ValueError("need nu0 > 0 and lam0 > 0")
        return StressLaw(lambda s: nu0 * np.arcsinh(lam0 * s) / (lam0 * s))

    @staticmethod
    def potential(phi):
        return StressLaw(lambda s: phi.density(s) / s)


def stress_eval(law, xi):
    """S(xi) = law.factor(s) xi for a symmetric 2x2 tensor (or a stack
    of them), s = |xi| with 0 replaced by 1, and S(xi) = 0 where |xi| = 0.

    Every shipped factor is nonnegative, so S(xi) is parallel to xi.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-2:] != (2, 2):
        raise ValueError("xi must be 2x2")
    sym_gap = np.abs(xi - np.swapaxes(xi, -1, -2)).max()
    if sym_gap > 1e-10 * max(1.0, np.abs(xi).max()):
        raise ValueError("xi must be symmetric")
    t = np.sqrt(np.sum(xi * xi, axis=(-2, -1)))
    out = law.factor(np.where(t > 0.0, t, 1.0))[..., None, None] * xi
    return np.where(t[..., None, None] > 0.0, out, 0.0)


# -- finite element spaces ----------------------------------------------

def _p2_shapes(lam):
    """P2 shape values at barycentric coordinates lam (..., 3).

    Order: three vertex functions, then the edge function opposite each
    vertex.
    """
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    return np.stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l1 * l2, 4 * l0 * l2, 4 * l0 * l1,
    ], axis=-1)


def _p2_grads(lam, grad_lam):
    """P2 shape gradients; grad_lam holds the three barycentric
    gradients, shape (..., 3, 2) broadcastable against lam."""
    l0 = lam[..., 0, None]
    l1 = lam[..., 1, None]
    l2 = lam[..., 2, None]
    g0 = grad_lam[..., 0, :]
    g1 = grad_lam[..., 1, :]
    g2 = grad_lam[..., 2, :]
    return np.stack([
        (4 * l0 - 1) * g0,
        (4 * l1 - 1) * g1,
        (4 * l2 - 1) * g2,
        4 * (l1 * g2 + l2 * g1),
        4 * (l0 * g2 + l2 * g0),
        4 * (l0 * g1 + l1 * g0),
    ], axis=-2)


class FESpacePair:
    """Vector P-k velocity with zero trace and mean-zero P0 pressure.

    Velocity dofs are (scalar node, component) pairs over interior
    nodes: mesh vertices, plus edge midpoints when k = 2.  The pressure
    basis is p_j = indicator(S_j) - |S_j|/|Omega| for all but the last
    simplex; each has exact zero mean, and the divergence pairing
    against it equals the raw per-element pairing because a zero-trace
    field has zero total divergence.
    """

    def __init__(self, tri, k=2):
        if k not in (1, 2):
            raise ValueError("velocity degree k must be 1 or 2")
        self.tri = tri
        self.k = k
        self._areas = tri.areas()
        self.domain_measure = float(self._areas.sum())

        # scalar nodes: vertices, then edge midpoints for k=2
        interior = ~tri.boundary_vertex_mask
        if k == 2:
            interior = np.concatenate([interior, ~tri.boundary_edge_mask])
        self.n_scalar = int(interior.sum())
        self.node_dof = np.full(len(interior), -1, dtype=int)
        self.node_dof[interior] = np.arange(self.n_scalar)
        self.n_velocity = 2 * self.n_scalar
        self.n_pressure = tri.n_simplices - 1

        self._tables = self._value_map = self._gradient_map = None
        self._araw = self._stiffness = None
        self._stiffness_factor = self._saddle = self._modes = None

    def tables(self):
        """Vectorized per-element quadrature tables.

        Returns a dict with qpts (T, q, 2), qw (T, q) already scaled by
        area, dofs (T, L) scalar dof ids (-1 on the boundary), shapes
        (q, L) reference shape values, and grads (T, q, L, 2).
        """
        if self._tables is not None:
            return self._tables
        tri = self.tri
        T = tri.n_simplices
        p = tri.vertices[tri.simplices]  # (T, 3, 2)
        qpts = np.einsum("qk,tkx->tqx", _TRI_QP, p)
        qw = _TRI_QW[None, :] * self._areas[:, None]

        # gradient of lambda_i: the edge opposite vertex i turned inward
        edge = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
        grad_lam = np.stack([-edge[..., 1], edge[..., 0]], axis=-1)
        grad_lam /= (2.0 * self._areas)[:, None, None]

        if self.k == 1:
            shapes = _TRI_QP.copy()
            grads = np.broadcast_to(grad_lam[:, None, :, :],
                                    (T, _N_QP, 3, 2)).copy()
            dofs = self.node_dof[tri.simplices]
        else:
            shapes = _p2_shapes(_TRI_QP)
            lam = np.broadcast_to(_TRI_QP, (T, _N_QP, 3))
            grads = _p2_grads(lam, grad_lam[:, None, :, :])
            node_ids = np.hstack([tri.simplices,
                                  tri.n_vertices + tri.simplex_edges])
            dofs = self.node_dof[node_ids]
        self._tables = {"qpts": qpts, "qw": qw, "dofs": dofs,
                        "shapes": shapes, "grads": grads}
        return self._tables

    def _quadrature_map(self, local):
        """Sparse map whose row (t, q, x) holds local[t, q, a, x], local
        broadcast to (T, q, L, m), in the column of the dof of node a of t;
        the one place where element data meets the global dofs."""
        dofs = self.tables()["dofs"]
        (T, L), m = dofs.shape, local.shape[-1]
        # rows (t, q, x) in order, each listing the dofs of t's nodes
        cols = np.broadcast_to(dofs[:, None, None, :], (T, _N_QP, m, L))
        keep = cols >= 0
        data = np.swapaxes(np.broadcast_to(local, (T, _N_QP, L, m)), 2, 3)
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=-1))])
        return csr_matrix((data[keep], cols[keep], indptr),
                          shape=(T * _N_QP * m, self.n_scalar))

    def value_map(self):
        """Sparse map from scalar coefficients to values at the points of
        tables()["qpts"], one row per (element t, point q)."""
        if self._value_map is None:
            shapes = self.tables()["shapes"][:, :, None]
            self._value_map = self._quadrature_map(shapes)
        return self._value_map

    def gradient_map(self):
        """Sparse map from scalar coefficients to gradients at the same
        points, one row per (element t, point q, direction x)."""
        if self._gradient_map is None:
            self._gradient_map = self._quadrature_map(self.tables()["grads"])
        return self._gradient_map

    @property
    def araw(self):
        """Sparse per-element divergence pairing, integral over S_e of
        div phi_i, in row 2i + c for component c of scalar node i: the
        gradient map's rows of direction c summed per element with the
        quadrature weights."""
        if self._araw is None:
            qw = self.tables()["qw"]
            T, q = qw.shape
            # row (t, q, x) of the gradient map is summed into row x T + t
            rows = np.repeat(np.arange(T)[:, None] + T * np.arange(2), q, 0)
            sums = csr_matrix((qw.repeat(2), (rows.ravel(),
                                              np.arange(rows.size))),
                              shape=(2 * T, rows.size))
            # the row-major reshape moves entry (i, x T + t) of the
            # transpose to (2i + x, t)
            self._araw = (sums @ self.gradient_map()).T.reshape(
                self.n_velocity, T).tocsr()
        return self._araw

    @property
    def A_matrix(self):
        """Dense pairing against the mean-zero pressure basis, built on
        every call for the test oracles; the solvers use araw.

        Equals the raw matrix with the last column dropped: the mean
        correction contributes the row sum of the raw matrix, which
        vanishes for zero-trace fields.
        """
        return self.araw[:, :-1].toarray()

    def pressure_gram(self):
        """Closed-form dense L2 Gram of the mean-zero P0 basis, for the
        test oracles."""
        a = self._areas[:-1]
        return np.diag(a) - np.outer(a, a) / self.domain_measure

    def scalar_stiffness(self):
        """Sparse scalar stiffness K, integral grad phi_i . grad phi_j
        over the scalar nodes, as the weighted Gram of the gradient map;
        the velocity Gram is G = kron(K, I2)."""
        if self._stiffness is None:
            gmap = self.gradient_map()
            weights = self.tables()["qw"].repeat(2)
            self._stiffness = (gmap.T @ diags(weights) @ gmap).tocsr()
        return self._stiffness

    def velocity_gradient_gram(self):
        """Dense integral grad phi_i : grad phi_j, built on every call
        for the test oracles; the solvers use gram_solve instead."""
        return np.kron(self.scalar_stiffness().toarray(), np.eye(2))

    def gram_solve(self, x):
        """G^-1 x for a velocity vector or an (n_velocity, m) stack, one
        component at a time against the factored scalar stiffness."""
        if self._stiffness_factor is None:
            self._stiffness_factor = _symmetric_lu(self.scalar_stiffness())
        x = np.asarray(x, float)
        # row 2i + c of x is component c at scalar node i
        cols = x.reshape(self.n_scalar, -1)
        return self._stiffness_factor.solve(cols).reshape(x.shape)

    def saddle_solve(self, f, g):
        """(u, p) solving [[G, araw], [araw^T, -tau D]] (u, p) = (f, g),
        with D = diag(areas) the mass of the full P0 basis and tau the
        module's _SADDLE_SHIFT.

        The Schur complement -(araw^T G^-1 araw + tau D) is negative
        definite, so the matrix is quasi-definite and factors without
        pivoting in a symmetric fill-reducing order; the factor is built
        once and serves the inf-sup modes, the rank flag and the
        pressure solve.
        """
        if self._saddle is None:
            G = kron(self.scalar_stiffness(), identity(2))
            self._saddle = _symmetric_lu(bmat(
                [[G, self.araw],
                 [self.araw.T, diags(-_SADDLE_SHIFT * self._areas)]]))
        x = self._saddle.solve(np.concatenate([f, g]))
        return x[:self.n_velocity], x[self.n_velocity:]

    def pressure_modes(self):
        """The two smallest eigenvalues of the pencil (S, D), with
        S = araw^T G^-1 araw on the full P0 basis, and the D-normalized
        mean-zero eigenvector of the second, built once.

        The first eigenvalue is 0 (the constant pressure); the second is
        the squared L2 inf-sup constant.  Shift-invert Lanczos at
        sigma = -tau applies (S + tau D)^-1 by one saddle solve; the
        shift must sit below 0, since a positive one returns the
        eigenvalues nearest it instead of the zero modes.  The start
        vector is fixed because ARPACK's default depends on call order,
        and the eigenvector's sign is fixed by a positive first entry.
        """
        if self._modes is None:
            T = self.tri.n_simplices
            if T < 3:
                raise ValueError("the pressure modes need at least 3 "
                                 "triangles, the mesh has %d" % T)
            zero = np.zeros(self.n_velocity)
            shift_inv = LinearOperator(
                (T, T), dtype=float,
                matvec=lambda y: self.saddle_solve(zero, -y)[1])
            # shift-invert mode reads the pencil only for its shape
            pencil = LinearOperator(
                (T, T), dtype=float,
                matvec=lambda y: self.araw.T @ self.gram_solve(
                    self.araw @ y))
            v0 = np.random.default_rng(0).standard_normal(T)
            lam, vec = eigsh(pencil, k=2, M=diags(self._areas),
                             sigma=-_SADDLE_SHIFT, OPinv=shift_inv, v0=v0)
            v = vec[:, 1] - np.dot(vec[:, 1], self._areas) \
                / self.domain_measure
            self._modes = lam, v if v[0] > 0.0 else -v
        return self._modes

    # -- field sampling helpers ------------------------------------------

    def pressure_field(self, values):
        cent = self.tri.vertices[self.tri.simplices].mean(axis=1)
        return SampledField(cent, self._areas, values)

    def _quadrature_field(self, values):
        tab = self.tables()
        return SampledField(tab["qpts"].reshape(-1, 2), tab["qw"].ravel(),
                            values)

    def velocity_samples(self, coeffs):
        """Velocity values at all quadrature points as a vector field."""
        return self._quadrature_field(
            self.value_map() @ np.reshape(coeffs, (-1, 2)))

    def gradient_samples(self, coeffs):
        """Velocity gradient at all quadrature points, as a matrix field.

        Cells are (element, quadrature point) pairs weighted by rule
        weights, so Luxemburg norms of the returned field are the
        sampled gradient norms used throughout this module.
        """
        # row (t, q, x), column c holds d_x u_c; the field wants [cell, c, x]
        grads = self.gradient_map() @ np.reshape(coeffs, (-1, 2))
        return self._quadrature_field(grads.reshape(-1, 2, 2).swapaxes(1, 2))


# -- pressure system -----------------------------------------------------

def _h_at(H, qpts):
    """Tensor H at the full quadrature table, shape (T, q, 2, 2)."""
    T, q = qpts.shape[:2]
    if callable(H):
        return np.asarray(H(qpts.reshape(-1, 2)),
                          float).reshape(T, q, 2, 2)
    H = np.asarray(H, float)
    if H.shape != (T, 2, 2):
        raise ValueError("H must be (n_simplices, 2, 2) or a callable")
    return np.broadcast_to(H[:, None, :, :], (T, q, 2, 2))


def assemble_pressure_system(H, V):
    """Load vector b_i = integral H : grad phi_i, the transposed
    gradient map applied to the weighted samples of H; the pairing
    matrix stays with the space."""
    tab = V.tables()
    Hq = _h_at(H, tab["qpts"])
    # H : grad(phi_i e_c) = sum_x H[c, x] d_x phi_i, so row (t, q, x) of
    # the weighted samples holds H[t, q, :, x]
    wh = tab["qw"][:, :, None, None] * np.swapaxes(Hq, -1, -2)
    b = V.gradient_map().T @ wh.reshape(-1, 2)
    return {"b": b.ravel(), "space": V}


# Shift of the saddle matrix's pressure block.  Any tau > 0 makes the
# matrix quasi-definite; the pressure solve contracts by
# tau / (lambda_1 + tau) per step, about 0.18 for P2/P0.
_SADDLE_SHIFT = 0.05

# The pairing is rank deficient, so the pair is not inf-sup stable, when
# the second pencil eigenvalue is this small.  The eigenvalues are at
# most 1, since ||div v|| <= ||grad v|| for zero-trace v, so the bound
# is absolute.  P1/P0 sits below 1e-15, P2/P0 above 0.2.
_RANK_TOL = 1e-10


def _symmetric_lu(matrix):
    """SuperLU factor of a quasi-definite (or definite) symmetric sparse
    matrix: symmetric minimum-degree order, no pivoting."""
    return splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _rank_deficient(lam):
    return bool(lam[1] <= _RANK_TOL)


def reconstruct_pressure(system, mode="exact"):
    """Solve the pairing system for the mean-zero pressure.

    The load is a functional on the velocity space, so the projection
    onto the range runs in the dual norm induced by the gradient Gram
    matrix G; that choice is what keeps the recovered pressure within a
    mesh-independent factor of the best approximation.  The normal
    equations S p = araw^T G^-1 b are solved on the space's saddle
    factor by the fixed point p <- (S + tau D)^-1 (araw^T G^-1 b +
    tau D p), one saddle solve per step, run for as many steps as the
    contraction tau / (lambda_1 + tau) needs to reach machine precision;
    the velocity block of the last solve is G^-1 (b - araw p).  exact
    mode enforces the orthogonality precondition (relative residual in
    the G^-1 norm at most 1e-10); least_squares mode reports the
    residual instead.  Rank deficiency means the velocity/pressure pair
    is not inf-sup stable and is a hard error naming the pair.
    """
    if mode not in ("exact", "least_squares"):
        raise ValueError("mode must be 'exact' or 'least_squares'")
    b = np.asarray(system["b"], float)
    V = system["space"]
    lam, _ = V.pressure_modes()
    if _rank_deficient(lam):
        raise ValueError(
            "divergence pairing is rank deficient: the (k=%d, m=0) "
            "pair is not inf-sup stable on this mesh" % V.k)
    rate = _SADDLE_SHIFT / (lam[1] + _SADDLE_SHIFT)
    steps = math.ceil(math.log(np.finfo(float).eps) / math.log(rate))
    areas = V.tri.areas()
    p = np.zeros(V.tri.n_simplices)
    for _ in range(steps):
        gr, p = V.saddle_solve(b, -_SADDLE_SHIFT * areas * p)
    p -= np.dot(p, areas) / V.domain_measure
    r = b - V.araw @ p
    bb = float(b @ V.gram_solve(b))
    rel = math.sqrt(max(float(r @ gr), 0.0) / bb) if bb > 0 else 0.0
    if mode == "exact" and rel > 1e-10:
        raise ValueError(
            "load vector is not orthogonal to the cokernel "
            "(relative residual %.3g); use least_squares mode" % rel)
    return {"coefficients": p[:-1] - p[-1], "values": p,
            "residual": rel, "mode": mode}


# -- inf-sup constant ----------------------------------------------------

def _is_plain_quadratic(A):
    return getattr(A, "kind", None) == "power" and \
        tuple(getattr(A, "params", ())) == (2.0, 1.0)


def compute_infsup(V, A, B, method="auto", seed=0, max_iter=200,
                   restarts=5):
    """Discrete inf-sup constant of the divergence pairing.

    inf over mean-zero p of sup over zero-trace phi of
    integral p div phi / (||p||_{L^B} ||grad phi||_{L^At}) with At the
    conjugate of A.

    The quadratic pair is solved exactly by the space's pressure modes:
    the value is twice the square root of the second pencil eigenvalue
    (the first belongs to the constant pressure).  The
    factor two is the conjugate-norm convention: the Luxemburg norm for
    the conjugate of the plain quadratic is half the L2 norm, so every
    L2-normalized ratio doubles.  Other pairs run an alternating scheme
    (inner maximization warm-started at the quadratic optimum, outer
    random line searches over the pressure sphere with seeded
    restarts).  Its result is the least, over the sampled pressures, of
    a lower estimate of the sup over phi, so it bounds the discrete
    constant from neither side; its tested property is stability in h,
    not exactness.
    """
    quadratic = _is_plain_quadratic(A) and _is_plain_quadratic(B)
    if method == "auto":
        method = "eigen" if quadratic else "ascent"
    if method not in ("eigen", "ascent"):
        raise ValueError("method must be 'auto', 'eigen', or 'ascent'")
    if method == "eigen" and not quadratic:
        raise ValueError("eigen method requires the quadratic pair")
    lam, v_eig = V.pressure_modes()
    report = {"h": V.tri.h, "n_velocity": V.n_velocity,
              "n_pressure": V.n_pressure,
              "rank_deficient": _rank_deficient(lam)}
    if method == "eigen":
        report.update(value=2.0 * math.sqrt(max(float(lam[1]), 0.0)),
                      method="eigen", converged=True)
        return report

    At = A.conjugate()
    araw = V.araw
    areas = V.tri.areas()

    def p_norm(v):
        return luxemburg_norm(V.pressure_field(v), B)

    def grad_norm(c):
        return luxemburg_norm(V.gradient_samples(c), At)

    def mean_zero(v):
        return v - np.dot(v, areas) / V.domain_measure

    evals = [0]

    def ratio(c, rhs):
        num = float(np.dot(c, rhs))
        den = grad_norm(c)
        evals[0] += 1
        return num / den if den > 0 else 0.0

    def sup_ratio(v, refine):
        rhs = araw @ v
        c = V.gram_solve(rhs)
        best = ratio(c, rhs)
        if not refine:
            return best
        # line-search ascent along preconditioned random directions
        rng_in = np.random.default_rng(seed + 1)
        scale = np.linalg.norm(c)
        for _ in range(8):
            d = V.gram_solve(rng_in.standard_normal(len(c)))
            d *= scale / max(np.linalg.norm(d), 1e-300)
            base = best
            c_next = c
            for t in (0.5, -0.5, 0.2, -0.2, 0.05, -0.05):
                val = ratio(c + t * d, rhs)
                if val > best:
                    best = val
                    c_next = c + t * d
            if best > base * (1 + 1e-12):
                c = c_next
            else:
                break
        return best

    # v_eig, the quadratic minimizer, is the informed start
    rng = np.random.default_rng(seed)
    best_val = math.inf
    best_settled = False
    for r in range(restarts):
        v = v_eig if r == 0 else mean_zero(rng.standard_normal(len(areas)))
        nv = p_norm(v)
        if nv == 0.0:
            continue
        v = v / nv
        cur = sup_ratio(v, refine=False)
        steps = 0
        stale = 0
        while steps < max_iter and stale < 12:
            steps += 1
            d = mean_zero(rng.standard_normal(len(areas)))
            improved = False
            for t in (0.4, -0.4, 0.15, -0.15):
                cand = mean_zero(v + t * d / np.linalg.norm(d))
                nn = p_norm(cand)
                if nn == 0.0:
                    continue
                val = sup_ratio(cand / nn, refine=False)
                if val < cur * (1 - 1e-9):
                    v, cur = cand / nn, val
                    improved = True
                    break
            stale = 0 if improved else stale + 1
        final = sup_ratio(v, refine=True)
        if final < best_val:
            best_val = final
            # settled means the descent stalled before the cap
            best_settled = steps < max_iter
    report.update(value=best_val, method="ascent", converged=best_settled,
                  ratio_evals=evals[0])
    return report


# -- divergence-preserving interpolation ---------------------------------

def _flux_integrals(V, u):
    """Integral over each simplex boundary of u . n, by edge quadrature.

    Every edge is evaluated once and credited to its simplices with
    their orientation signs, so interior contributions cancel exactly
    in the sum.
    """
    tri = V.tri
    p = tri.vertices
    start = p[tri.edges[:, 0]]
    tang = p[tri.edges[:, 1]] - start
    pts = start[:, None, :] + _EDGE_QP[None, :, None] * tang[:, None, :]
    uq = np.asarray(u(pts.reshape(-1, 2)), float).reshape(pts.shape)
    # u . (tang_y, -tang_x): the right normal, scaled by the edge length
    flux = _cross2(uq, tang[:, None, :]) @ _EDGE_QW
    return np.sum(tri.simplex_edge_signs * flux[tri.simplex_edges], axis=1)


def projection_apply(u, V):
    """Interpolate u onto the zero-trace P2 space, preserving element
    divergence integrals.

    Stage one is Scott-Zhang style averaging: each interior node takes
    the value of the local L2 projection of u onto P2 of one fixed
    incident element (the lowest-index one); P2 is nodal, so that value
    is the projection's coefficient for the node.  Stage two corrects
    with interior edge bubbles: each bubble moves divergence mass
    between the two elements sharing its edge at the rate (2/3)
    edge-length, so matching the per-element divergence of u is a flow
    problem B alpha = defect on the dual graph.  Its minimum-norm
    least-squares solution is alpha = B^T y, where y solves the weighted
    dual-graph Laplacian B B^T y = defect minus its mean over each
    connected piece, factored sparsely with one element per piece
    grounded.  The match is exact whenever the defects sum to zero over
    each piece, which holds for zero-trace u.
    """
    if V.k != 2:
        raise ValueError("projection needs the quadratic velocity space")
    tri = V.tri
    T = tri.n_simplices
    nv = tri.n_vertices
    tab = V.tables()

    # np.nonzero runs through the elements in order, so a dof's first
    # (element, slot) pair is in its owner, the lowest-index incident one
    t, a = np.nonzero(tab["dofs"] >= 0)
    d, first = np.unique(tab["dofs"][t, a], return_index=True)
    t, a = t[first], a[first]

    # local L2 projections: the element mass matrix is the area times a
    # reference one, and the area cancels against the moments
    wshapes = _TRI_QW[:, None] * tab["shapes"]
    proj = np.linalg.solve(tab["shapes"].T @ wshapes, wshapes.T)
    owners, slot = np.unique(t, return_inverse=True)
    uq = np.asarray(u(tab["qpts"][owners].reshape(-1, 2)), float)
    loc = np.einsum("aq,tqc->tac", proj, uq.reshape(len(owners), _N_QP, 2))
    coeffs = np.zeros(V.n_velocity)
    nodal = coeffs.reshape(-1, 2)  # view: one row of components per dof
    nodal[d] = loc[slot, a]

    target = _flux_integrals(V, u)
    defect = target - V.araw.T @ coeffs
    defect_before = float(np.abs(defect).max())

    # interior-edge flow: the bubble on edge e pointed along its unit
    # right normal moves (2/3)|e| of divergence out of the simplex that
    # normal leaves, into the other one
    p = tri.vertices
    tang = p[tri.edges[:, 1]] - p[tri.edges[:, 0]]
    length = np.linalg.norm(tang, axis=1)
    se = tri.simplex_edges
    inner = ~tri.boundary_edge_mask[se]
    rate = (2.0 / 3.0) * tri.simplex_edge_signs * length[se]
    B = csr_matrix((rate[inner], (np.nonzero(inner)[0], se[inner])),
                   shape=(T, tri.n_edges))
    lap = B @ B.T
    # the defect's mean over each connected piece of the dual graph is
    # outside the range of B; ground the first element of every piece
    _, piece = connected_components(lap, directed=False)
    free = np.ones(T, dtype=bool)
    free[np.unique(piece, return_index=True)[1]] = False
    mean = np.bincount(piece, defect) / np.bincount(piece)
    y = np.zeros(T)
    y[free] = splu(lap[free][:, free].tocsc()).solve(
        (defect - mean[piece])[free])
    alpha = B.T @ y
    e = np.nonzero(~tri.boundary_edge_mask)[0]
    normal = np.stack([tang[e, 1], -tang[e, 0]], axis=1) / length[e, None]
    nodal[V.node_dof[nv + e]] += alpha[e, None] * normal

    defect_after = float(np.abs(target - V.araw.T @ coeffs).max())
    return {"coeffs": coeffs, "defect_before": defect_before,
            "defect_after": defect_after,
            "defect_sum": float(defect.sum())}


def check_local_stability(u, grad_u, V, coeffs):
    """Worst per-simplex ratio of the averaged-interpolant bound.

    Numerator: mean of the interpolant magnitude plus the simplex
    diameter times the mean gradient magnitude, over the simplex.
    Denominator: the same two quantities for u, averaged over the patch
    of elements sharing a vertex with the simplex.
    """
    tri = V.tri
    T = tri.n_simplices
    diam = tri.diameters()
    areas = tri.areas()
    tab = V.tables()

    pi_vals = V.velocity_samples(coeffs).magnitude().reshape(T, _N_QP)
    pi_grads = V.gradient_samples(coeffs).magnitude().reshape(T, _N_QP)
    pts = tab["qpts"].reshape(-1, 2)
    uv = np.asarray(u(pts), float).reshape(T, _N_QP, 2)
    gv = np.asarray(grad_u(pts), float).reshape(T, _N_QP, 2, 2)
    wq = tab["qw"]
    pi_abs = np.einsum("tq,tq->t", wq, pi_vals) / areas
    pi_grad = np.einsum("tq,tq->t", wq, pi_grads) / areas
    u_abs = np.einsum("tq,tq->t", wq,
                      np.linalg.norm(uv, axis=-1)) / areas
    u_grad = np.einsum("tq,tq->t", wq,
                       np.sqrt(np.sum(gv * gv, axis=(-2, -1)))) / areas

    # patch[e, e2] = 1 when e and e2 share a vertex
    inc = csr_matrix((np.ones(3 * T), (np.repeat(np.arange(T), 3),
                                       tri.simplices.ravel())),
                     shape=(T, tri.n_vertices))
    patch = inc @ inc.T
    patch.data[:] = 1.0
    lhs = pi_abs + diam * pi_grad
    rhs = (patch @ (areas * u_abs)
           + diam * (patch @ (areas * u_grad))) / (patch @ areas)
    ok = rhs > 0
    return float(np.max(lhs[ok] / rhs[ok], initial=0.0))


def check_orlicz_projection_stability(grad_u, V, coeffs, A):
    """Luxemburg norm of the gradient of the interpolant with
    coefficients coeffs over that of grad_u, on the quadrature sampling."""
    num = luxemburg_norm(V.gradient_samples(coeffs), A)
    pts = V.tables()["qpts"].reshape(-1, 2)
    field = V._quadrature_field(np.asarray(grad_u(pts), float))
    return num / luxemburg_norm(field, A)


# -- pressure error study -------------------------------------------------

def _best_p0_approx(pi, V, A):
    """Mean-zero P0 candidate minimizing the elementwise modular of A.

    The elementwise mean seeds a 60-step golden section run on all
    elements at once, one evaluation of A over the whole quadrature
    table per step (the minimizer of the integrated A(|pi - c|) need not
    be the mean for non-quadratic A).  The result upper-bounds the
    best-approximation error actually achievable in P0.
    """
    gr = 0.5 * (math.sqrt(5.0) - 1.0)
    tab = V.tables()
    wq = tab["qw"]
    pv = np.asarray(pi(tab["qpts"].reshape(-1, 2)), float) \
        .reshape(wq.shape)
    mean = np.einsum("tq,tq->t", wq, pv) / wq.sum(axis=1)
    span = np.abs(pv - mean[:, None]).max(axis=1)

    def cost(c):
        return np.einsum("tq,tq->t", wq,
                         A.eval(np.abs(pv - c[:, None]).ravel())
                         .reshape(wq.shape))

    lo, hi = mean - span, mean + span
    x1 = hi - gr * (hi - lo)
    x2 = lo + gr * (hi - lo)
    f1, f2 = cost(x1), cost(x2)
    for _ in range(60):
        # keep [lo, x2] where f1 <= f2, else [x1, hi]; one new point each
        left = f1 <= f2
        lo = np.where(left, lo, x1)
        hi = np.where(left, x2, hi)
        x = np.where(left, hi - gr * (hi - lo), lo + gr * (hi - lo))
        f = cost(x)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, f, f2), np.where(left, f1, f)
    vals = np.where(span == 0.0, mean, 0.5 * (lo + hi))
    areas = V.tri.areas()
    return vals - np.dot(vals, areas) / V.domain_measure


def _p0_error_field(pi, values, V):
    """(P0 values - pi) sampled at the quadrature points."""
    pv = np.asarray(pi(V.tables()["qpts"].reshape(-1, 2)), float)
    return V._quadrature_field(np.repeat(np.asarray(values, float), _N_QP)
                               - pv)


def pressure_error_row(pi, V, A, B):
    """Reconstruction error against the best P0 approximation on V.

    Assemble H = pi I, recover the pressure in least-squares mode, and
    report the L^B reconstruction error, the best one-constant-per-
    element approximation error in L^A, their ratio, and the stability
    quotient ||pi_h||_B / ||H||_A.
    """
    def Hfun(pts):
        q = np.asarray(pi(pts), float)
        return q[:, None, None] * np.eye(2)[None, :, :]

    system = assemble_pressure_system(Hfun, V)
    rec = reconstruct_pressure(system, mode="least_squares")
    err = luxemburg_norm(_p0_error_field(pi, rec["values"], V), B)
    best_vals = _best_p0_approx(pi, V, A)
    best = luxemburg_norm(_p0_error_field(pi, best_vals, V), A)
    pi_samples = _p0_error_field(pi, np.zeros(V.tri.n_simplices), V)
    hmag = pi_samples.with_values(math.sqrt(2.0)
                                  * np.abs(pi_samples.values))
    hnorm = luxemburg_norm(hmag, A)
    pnorm = luxemburg_norm(V.pressure_field(rec["values"]), B)
    return {
        "error": err,
        "best": best,
        "ratio": err / best if best > 0 else math.inf,
        "stability": pnorm / hnorm if hnorm > 0 else math.inf,
        "residual": rec["residual"],
    }


def pressure_error_study(pi, hs, A, B):
    """pressure_error_row on the P2/P0 space of the unit square at each
    pitch h in hs, with h added to the row."""
    rows = []
    for h in hs:
        tri = triangulate([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                          h)
        V = FESpacePair(tri, k=2)
        rows.append({"h": h, **pressure_error_row(pi, V, A, B)})
    return rows
