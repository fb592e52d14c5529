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

Norms of nonpolynomial quantities are Luxemburg norms of quadrature
samplings; they are used only in ratios asserted to be stable, never
as exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import (cho_factor, cho_solve, cholesky, eigh, lstsq,
                          solve_triangular, svdvals)

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
    "evaluate_velocity",
    "check_local_stability",
    "check_orlicz_projection_stability",
    "pressure_error_study",
]

# Seven-point degree-5 rule with positive weights; one rule serves every
# assembly here (required exactness is degree k + max(k-1, m) <= 5).
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
_RULE_DEGREE = 5

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
        for t in simp:
            area2 = _cross2(p[t[1]] - p[t[0]], p[t[2]] - p[t[0]])
            if area2 == 0.0:
                raise ValueError("degenerate simplex")
            if area2 < 0.0:
                t[1], t[2] = t[2], t[1]
        self.simplices = simp
        self._build_edges()

    def _build_edges(self):
        lookup = {}
        edges = []
        # simplex_edges[t, k] is the edge opposite local vertex k
        self.simplex_edges = np.empty_like(self.simplices)
        for t, tri in enumerate(self.simplices):
            for k in range(3):
                key = tuple(sorted((tri[(k + 1) % 3], tri[(k + 2) % 3])))
                if key not in lookup:
                    lookup[key] = len(edges)
                    edges.append(key)
                self.simplex_edges[t, k] = lookup[key]
        self.edges = np.array(edges, dtype=int)
        counts = np.zeros(len(edges), dtype=int)
        self.edge_simplices = [[] for _ in edges]
        for t in range(len(self.simplices)):
            for e in self.simplex_edges[t]:
                counts[e] += 1
                self.edge_simplices[e].append(t)
        if counts.max() > 2:
            raise ValueError("non-manifold mesh")
        self.boundary_edge_mask = counts == 1
        self.boundary_vertex_mask = np.zeros(len(self.vertices), dtype=bool)
        for e in np.nonzero(self.boundary_edge_mask)[0]:
            self.boundary_vertex_mask[self.edges[e]] = True

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
        p = self.vertices
        worst = math.pi
        for tri in self.simplices:
            for k in range(3):
                a = p[tri[(k + 1) % 3]] - p[tri[k]]
                b = p[tri[(k + 2) % 3]] - p[tri[k]]
                cosang = np.dot(a, b) / (np.linalg.norm(a)
                                         * np.linalg.norm(b))
                worst = min(worst, math.acos(np.clip(cosang, -1.0, 1.0)))
        return math.degrees(worst)

    def refine(self):
        """Red refinement: every triangle into four via edge midpoints."""
        p = self.vertices
        mid = 0.5 * (p[self.edges[:, 0]] + p[self.edges[:, 1]])
        newv = np.vstack([p, mid])
        off = self.n_vertices
        out = []
        for t, tri in enumerate(self.simplices):
            v0, v1, v2 = tri
            m0, m1, m2 = off + self.simplex_edges[t]  # m[k] opposite v[k]
            out += [[v0, m2, m1], [v1, m0, m2], [v2, m1, m0],
                    [m0, m1, m2]]
        return Triangulation(newv, out)

    @staticmethod
    def structured_rectangle(lo, hi, nx, ny):
        """nx-by-ny squares, each split along the same diagonal."""
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        xs = np.linspace(lo[0], hi[0], nx + 1)
        ys = np.linspace(lo[1], hi[1], ny + 1)

        def vid(i, j):
            return i * (ny + 1) + j

        verts = [(xs[i], ys[j]) for i in range(nx + 1)
                 for j in range(ny + 1)]
        tris = []
        for i in range(nx):
            for j in range(ny):
                a, b = vid(i, j), vid(i + 1, j)
                c, d = vid(i + 1, j + 1), vid(i, j + 1)
                tris += [[a, b, c], [a, c, d]]
        return Triangulation(verts, tris)


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
    """Constitutive map S(xi); rho is carried along, never used here."""

    kind: str
    nu0: float = 1.0
    kappa0: float = 0.0
    p: float = 2.0
    lam0: float = 1.0
    phi: object = None
    rho: float = 1.0

    @staticmethod
    def power(nu0, kappa0, p, rho=1.0):
        if p <= 1.0:
            raise ValueError("power-law exponent must exceed 1")
        if nu0 <= 0.0 or kappa0 < 0.0:
            raise ValueError("need nu0 > 0 and kappa0 >= 0")
        return StressLaw("power", nu0=nu0, kappa0=kappa0, p=p, rho=rho)

    @staticmethod
    def eyring(nu0, lam0, rho=1.0):
        if nu0 <= 0.0 or lam0 <= 0.0:
            raise ValueError("need nu0 > 0 and lam0 > 0")
        return StressLaw("eyring", nu0=nu0, lam0=lam0, rho=rho)

    @staticmethod
    def potential(phi, rho=1.0):
        return StressLaw("potential", phi=phi, rho=rho)


def stress_eval(law, xi):
    """S(xi) for a symmetric 2x2 tensor (or a stack of them).

    Every shipped law is a scalar factor times xi, with the factor
    continuous at 0 wherever the law allows, so S(0) = 0 and S(xi) is
    parallel to xi with a nonnegative factor.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-2:] != (2, 2):
        raise ValueError("xi must be 2x2")
    sym_gap = np.abs(xi - np.swapaxes(xi, -1, -2)).max()
    if sym_gap > 1e-10 * max(1.0, np.abs(xi).max()):
        raise ValueError("xi must be symmetric")
    t = np.sqrt(np.sum(xi * xi, axis=(-2, -1)))
    safe = np.where(t > 0.0, t, 1.0)
    if law.kind == "power":
        base = law.kappa0 + (safe if law.kappa0 == 0.0 else t)
        factor = law.nu0 * base ** (law.p - 2.0)
    elif law.kind == "eyring":
        factor = law.nu0 * np.arcsinh(law.lam0 * safe) / (law.lam0 * safe)
    elif law.kind == "potential":
        factor = law.phi.density(safe) / safe
    else:
        raise ValueError("unknown stress law %r" % law.kind)
    out = factor[..., None, None] * xi
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

    def __init__(self, tri, k=2, m=0):
        if k not in (1, 2):
            raise ValueError("velocity degree k must be 1 or 2")
        if m != 0:
            raise ValueError("only piecewise-constant pressure shipped")
        need = k + max(k - 1, m)
        if need > _RULE_DEGREE:
            raise ValueError("quadrature degree insufficient: need %d"
                             % need)
        self.tri = tri
        self.k = k
        self.m = m
        self._areas = tri.areas()
        self.domain_measure = float(self._areas.sum())

        # scalar nodes: vertices, then edge midpoints for k=2
        nv = tri.n_vertices
        n_nodes = nv + (tri.n_edges if k == 2 else 0)
        self.node_dof = np.full(n_nodes, -1, dtype=int)
        idx = 0
        for v in range(nv):
            if not tri.boundary_vertex_mask[v]:
                self.node_dof[v] = idx
                idx += 1
        if k == 2:
            for e in range(tri.n_edges):
                if not tri.boundary_edge_mask[e]:
                    self.node_dof[nv + e] = idx
                    idx += 1
        self.n_scalar = idx
        self.n_velocity = 2 * idx
        self.n_pressure = tri.n_simplices - 1

        self._tables = None
        self._araw = None
        self._stiffness = None

    # scalar node ids per element, matching the local shape order
    def element_nodes(self, t):
        tri = self.tri
        if self.k == 1:
            return list(tri.simplices[t])
        return list(tri.simplices[t]) + \
            [tri.n_vertices + e for e in tri.simplex_edges[t]]

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

        grad_lam = np.empty((T, 3, 2))
        for i in range(3):
            edge = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
            grad_lam[:, i, 0] = -edge[:, 1]
            grad_lam[:, i, 1] = edge[:, 0]
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

    def _scatter(self, local):
        """Accumulate (T, L, 2) per-node, per-component values into a
        velocity vector."""
        dofs = self.tables()["dofs"]
        out = np.zeros(self.n_velocity)
        mask = dofs >= 0
        idx = dofs[mask]
        np.add.at(out, 2 * idx, local[..., 0][mask])
        np.add.at(out, 2 * idx + 1, local[..., 1][mask])
        return out

    def _assemble_araw(self):
        if self._araw is None:
            tab = self.tables()
            # integral of each shape gradient over the element
            div = np.einsum("tq,tqlx->tlx", tab["qw"], tab["grads"])
            T = self.tri.n_simplices
            araw = np.zeros((self.n_velocity, T))
            dofs = tab["dofs"]
            for t in range(T):
                for a in range(dofs.shape[1]):
                    d = dofs[t, a]
                    if d < 0:
                        continue
                    araw[2 * d, t] += div[t, a, 0]
                    araw[2 * d + 1, t] += div[t, a, 1]
            self._araw = araw
        return self._araw

    @property
    def araw(self):
        """Per-element divergence pairing, integral over S_e of
        div phi_i."""
        return self._assemble_araw()

    @property
    def A_matrix(self):
        """Pairing against the mean-zero pressure basis.

        Equals the raw matrix with the last column dropped: the mean
        correction contributes the row sum of the raw matrix, which
        vanishes for zero-trace fields.
        """
        return self._assemble_araw()[:, :-1]

    def pressure_gram(self):
        """Closed-form L2 Gram of the mean-zero P0 basis."""
        a = self._areas[:-1]
        return np.diag(a) - np.outer(a, a) / self.domain_measure

    def velocity_gradient_gram(self):
        """integral grad phi_i : grad phi_j (block diagonal over
        components)."""
        if self._stiffness is None:
            tab = self.tables()
            loc = np.einsum("tq,tqax,tqbx->tab", tab["qw"],
                            tab["grads"], tab["grads"])
            K = np.zeros((self.n_scalar, self.n_scalar))
            dofs = tab["dofs"]
            for t in range(self.tri.n_simplices):
                dd = dofs[t]
                keep = dd >= 0
                ii = dd[keep]
                K[np.ix_(ii, ii)] += loc[t][np.ix_(keep, keep)]
            self._stiffness = K
        G = np.zeros((self.n_velocity, self.n_velocity))
        G[0::2, 0::2] = self._stiffness
        G[1::2, 1::2] = self._stiffness
        return G

    # -- field sampling helpers ------------------------------------------

    def coeff_tables(self, coeffs):
        """Per-element coefficient arrays (T, L) for both components."""
        dofs = self.tables()["dofs"]
        safe = np.where(dofs >= 0, dofs, 0)
        coeffs = np.asarray(coeffs, float)
        c0 = np.where(dofs >= 0, coeffs[2 * safe], 0.0)
        c1 = np.where(dofs >= 0, coeffs[2 * safe + 1], 0.0)
        return c0, c1

    def pressure_values(self, coeffs):
        """Element values of the pressure with the given basis
        coefficients."""
        coeffs = np.asarray(coeffs, float)
        vals = np.concatenate([coeffs, [0.0]])
        shift = float(np.dot(coeffs, self._areas[:-1])) \
            / self.domain_measure
        return vals - shift

    def pressure_field(self, values):
        cent = self.tri.vertices[self.tri.simplices].mean(axis=1)
        return SampledField(cent, self._areas, values)

    def velocity_samples(self, coeffs):
        """Velocity values at all quadrature points as a vector field."""
        tab = self.tables()
        c0, c1 = self.coeff_tables(coeffs)
        v0 = np.einsum("tl,ql->tq", c0, tab["shapes"])
        v1 = np.einsum("tl,ql->tq", c1, tab["shapes"])
        vals = np.stack([v0, v1], axis=-1).reshape(-1, 2)
        return SampledField(tab["qpts"].reshape(-1, 2),
                            tab["qw"].ravel(), vals)

    def gradient_samples(self, coeffs):
        """Velocity gradient at all quadrature points, as a matrix field.

        Cells are (element, quadrature point) pairs weighted by rule
        weights, so Luxemburg norms of the returned field are the
        sampled gradient norms used throughout this module.
        """
        tab = self.tables()
        c0, c1 = self.coeff_tables(coeffs)
        g0 = np.einsum("tl,tqlx->tqx", c0, tab["grads"])
        g1 = np.einsum("tl,tqlx->tqx", c1, tab["grads"])
        vals = np.stack([g0, g1], axis=-2).reshape(-1, 2, 2)
        return SampledField(tab["qpts"].reshape(-1, 2),
                            tab["qw"].ravel(), vals)


def evaluate_velocity(V, coeffs, pts):
    """Velocity field values at arbitrary points (brute-force element
    location; meant for spot checks, not bulk sampling)."""
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
            shapes = _p2_shapes(lam) if V.k == 2 else lam
            for a, node in enumerate(V.element_nodes(e)):
                d = V.node_dof[node]
                if d < 0:
                    continue
                out[i, 0] += coeffs[2 * d] * shapes[a]
                out[i, 1] += coeffs[2 * d + 1] * shapes[a]
            break
    return out


# -- pressure system -----------------------------------------------------

def _h_at(H, V, qpts):
    """Tensor H at the full quadrature table, shape (T, q, 2, 2)."""
    T, q = qpts.shape[:2]
    if callable(H):
        return np.asarray(H(qpts.reshape(-1, 2)),
                          float).reshape(T, q, 2, 2)
    if isinstance(H, SampledField):
        if H.n_cells != T or H.rank != 2:
            raise ValueError("matrix field must have one cell per simplex")
        return np.broadcast_to(H.values[:, None, :, :], (T, q, 2, 2))
    H = np.asarray(H, float)
    if H.shape != (T, 2, 2):
        raise ValueError("H must be (n_simplices, 2, 2), a callable, "
                         "or a matrix SampledField")
    return np.broadcast_to(H[:, None, :, :], (T, q, 2, 2))


def assemble_pressure_system(H, V):
    """Divergence pairing matrix and load vector
    b_i = integral H : grad phi_i."""
    tab = V.tables()
    Hq = _h_at(H, V, tab["qpts"])
    # H : grad(shape_a e_c) = sum_s H[c, s] grad_a[s]
    contrib = np.einsum("tq,tqcs,tqas->tac", tab["qw"], Hq, tab["grads"])
    b = V._scatter(contrib)
    return {"A_matrix": V.A_matrix, "b": b, "space": V,
            "quad_degree": _RULE_DEGREE}


def reconstruct_pressure(system, mode="exact"):
    """Solve the pairing system for the mean-zero pressure.

    The load is a functional on the velocity space, so the projection
    onto the range runs in the dual norm induced by the gradient Gram
    matrix; that choice is what keeps the recovered pressure within a
    mesh-independent factor of the best approximation.  exact mode
    enforces the orthogonality precondition (relative residual at most
    1e-10); least_squares mode reports the residual instead.  Rank
    deficiency means the velocity/pressure pair is not inf-sup stable
    and is a hard error naming the pair.
    """
    if mode not in ("exact", "least_squares"):
        raise ValueError("mode must be 'exact' or 'least_squares'")
    A = system["A_matrix"]
    b = np.asarray(system["b"], float)
    V = system["space"]
    L = cholesky(V.velocity_gradient_gram(), lower=True)
    X = solve_triangular(L, A, lower=True)
    c = solve_triangular(L, b, lower=True)
    sv = svdvals(X)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    if rank < A.shape[1]:
        raise ValueError(
            "divergence pairing is rank deficient: the (k=%d, m=%d) "
            "pair is not inf-sup stable on this mesh" % (V.k, V.m))
    z, _, _, _ = lstsq(X, c)
    resid = float(np.linalg.norm(X @ z - c))
    cnorm = float(np.linalg.norm(c))
    rel = resid / cnorm if cnorm > 0 else 0.0
    if mode == "exact" and rel > 1e-10:
        raise ValueError(
            "load vector is not orthogonal to the cokernel "
            "(relative residual %.3g); use least_squares mode" % rel)
    values = V.pressure_values(z)
    return {"coefficients": z, "values": values,
            "residual": rel, "mode": mode}


# -- inf-sup constant ----------------------------------------------------

def _is_plain_quadratic(A):
    return getattr(A, "kind", None) == "power" and \
        tuple(getattr(A, "params", ())) == (2.0, 1.0)


def _infsup_eigen(V):
    """Twice the smallest generalized singular value of the pairing.

    The factor two is the conjugate-norm convention: the Luxemburg norm
    for the conjugate of the plain quadratic is half the L2 norm, so
    every L2-normalized ratio doubles.
    """
    A = V.A_matrix
    G = V.velocity_gradient_gram()
    Mp = V.pressure_gram()
    cf = cho_factor(G)
    S = A.T @ cho_solve(cf, A)
    vals = eigh(S, Mp, eigvals_only=True)
    lam_min = max(float(vals[0]), 0.0)
    return 2.0 * math.sqrt(lam_min)


def compute_infsup(V, A, B, method="auto", seed=0, max_iter=200,
                   restarts=5):
    """Discrete inf-sup constant of the divergence pairing.

    inf over mean-zero p of sup over zero-trace phi of
    integral p div phi / (||p||_{L^B} ||grad phi||_{L^At}) with At the
    conjugate of A.

    The quadratic pair reduces to a generalized eigenvalue problem and
    is solved exactly.  Other pairs run an alternating scheme (inner
    maximization warm-started at the quadratic optimum, outer random
    line searches over the pressure sphere with seeded restarts); the
    result is the minimum found, an upper bound whose tested property
    is stability in h, not exactness.
    """
    sv = svdvals(V.A_matrix)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    rank_def = rank < V.A_matrix.shape[1]
    report = {"h": V.tri.h, "n_velocity": V.n_velocity,
              "n_pressure": V.n_pressure, "rank_deficient": bool(rank_def)}
    if method == "auto":
        method = "eigen" if (_is_plain_quadratic(A)
                             and _is_plain_quadratic(B)) else "ascent"
    if method == "eigen":
        if not (_is_plain_quadratic(A) and _is_plain_quadratic(B)):
            raise ValueError("eigen method requires the quadratic pair")
        report["value"] = _infsup_eigen(V)
        report["method"] = "eigen"
        report["converged"] = True
        return report
    if method != "ascent":
        raise ValueError("method must be 'auto', 'eigen', or 'ascent'")

    At = A.conjugate()
    araw = V.araw
    G = V.velocity_gradient_gram()
    cf = cho_factor(G)
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
        c = cho_solve(cf, rhs)
        best = ratio(c, rhs)
        if not refine:
            return best
        # line-search ascent along preconditioned random directions
        rng_in = np.random.default_rng(seed + 1)
        scale = np.linalg.norm(c)
        for _ in range(8):
            d = cho_solve(cf, rng_in.standard_normal(len(c)))
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

    # quadratic minimizer as the informed start
    Mp = V.pressure_gram()
    S = V.A_matrix.T @ cho_solve(cf, V.A_matrix)
    _, vecs = eigh(S, Mp)
    v_eig = V.pressure_values(vecs[:, 0])

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
    report["value"] = best_val
    report["method"] = "ascent"
    report["converged"] = best_settled
    report["ratio_evals"] = evals[0]
    return report


# -- divergence-preserving interpolation ---------------------------------

def _element_divergence(V, coeffs):
    """Integral of the divergence of the FE field over each simplex."""
    return V.araw.T @ coeffs


def _flux_integrals(V, u):
    """Integral over each simplex boundary of u . n, by edge quadrature.

    Interior edges are evaluated once and credited to both sides with
    opposite signs, so their contributions cancel exactly in the sum.
    """
    tri = V.tri
    p = tri.vertices
    out = np.zeros(tri.n_simplices)
    for e in range(tri.n_edges):
        a, b = tri.edges[e]
        tang = p[b] - p[a]
        normal = np.array([tang[1], -tang[0]])  # length = edge length
        pts = p[a][None, :] + _EDGE_QP[:, None] * tang[None, :]
        un = np.asarray(u(pts), float) @ normal
        flux = float(np.dot(_EDGE_QW, un))
        for t in tri.edge_simplices[e]:
            # the normal is outward for t when t lies left of a->b
            verts = tri.simplices[t]
            other = [v for v in verts if v != a and v != b][0]
            side = _cross2(tang, p[other] - p[a])
            out[t] += flux if side > 0 else -flux
    return out


def projection_apply(u, V):
    """Interpolate u onto the zero-trace P2 space, preserving element
    divergence integrals.

    Stage one is Scott-Zhang style averaging: each interior node takes
    the value of the local L2 projection of u onto P2 of one fixed
    incident element (the lowest-index one).  Stage two corrects with
    interior edge bubbles: each bubble moves divergence mass between
    the two elements sharing its edge at the rate (2/3) edge-length, so
    matching the per-element divergence of u is a linear flow problem,
    solved in the least-squares sense (exact whenever the defects sum
    to zero, which holds for zero-trace u on a connected mesh).
    """
    if V.k != 2:
        raise ValueError("projection needs the quadratic velocity space")
    tri = V.tri
    nv = tri.n_vertices

    owner = np.full(nv + tri.n_edges, -1, dtype=int)
    for t in range(tri.n_simplices - 1, -1, -1):
        for v in tri.simplices[t]:
            owner[v] = t
        for e in tri.simplex_edges[t]:
            owner[nv + e] = t

    tab = V.tables()
    shapes_ref = tab["shapes"]
    coeffs = np.zeros(V.n_velocity)
    proj_cache = {}
    for node in range(nv + tri.n_edges):
        d = V.node_dof[node]
        if d < 0:
            continue
        t = owner[node]
        if t not in proj_cache:
            wq = tab["qw"][t]
            mass = np.einsum("q,qa,qb->ab", wq, shapes_ref, shapes_ref)
            uvals = np.asarray(u(tab["qpts"][t]), float)
            mom = np.einsum("q,qa,qc->ac", wq, shapes_ref, uvals)
            proj_cache[t] = np.linalg.solve(mass, mom)  # (6, 2)
        loc = proj_cache[t]
        if node < nv:
            k = list(tri.simplices[t]).index(node)
            lam = np.zeros(3)
            lam[k] = 1.0
        else:
            k = list(tri.simplex_edges[t]).index(node - nv)
            lam = np.full(3, 0.5)
            lam[k] = 0.0
        val = _p2_shapes(lam) @ loc
        coeffs[2 * d] = val[0]
        coeffs[2 * d + 1] = val[1]

    target = _flux_integrals(V, u)
    defect = target - _element_divergence(V, coeffs)
    defect_before = float(np.abs(defect).max())

    # interior-edge flow: the bubble on edge e pointed along the unit
    # normal moves (2/3)|e| of divergence from one side to the other
    p = tri.vertices
    int_edges = np.nonzero(~tri.boundary_edge_mask)[0]
    B = np.zeros((tri.n_simplices, len(int_edges)))
    dirs = np.zeros((len(int_edges), 2))
    for col, e in enumerate(int_edges):
        a, b = tri.edges[e]
        tang = p[b] - p[a]
        length = float(np.linalg.norm(tang))
        normal = np.array([tang[1], -tang[0]]) / length
        dirs[col] = normal
        s1, s2 = tri.edge_simplices[e]
        other = [v for v in tri.simplices[s1] if v != a and v != b][0]
        # the normal points out of s1 when s1 lies left of a->b
        sgn = 1.0 if _cross2(tang, p[other] - p[a]) > 0 else -1.0
        B[s1, col] = sgn * (2.0 / 3.0) * length
        B[s2, col] = -sgn * (2.0 / 3.0) * length
    # gelss for the exact-null-space system: the default divide-and-
    # conquer driver returns a non-minimal solution here
    alpha, _, _, _ = lstsq(B, defect, lapack_driver="gelss")
    for col, e in enumerate(int_edges):
        d = V.node_dof[nv + e]
        coeffs[2 * d] += alpha[col] * dirs[col, 0]
        coeffs[2 * d + 1] += alpha[col] * dirs[col, 1]

    defect_after = float(np.abs(target
                                - _element_divergence(V, coeffs)).max())
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
    t = tri.simplices
    diam = tri.diameters()
    v2e = [[] for _ in range(tri.n_vertices)]
    for e in range(tri.n_simplices):
        for v in t[e]:
            v2e[v].append(e)
    areas = tri.areas()
    tab = V.tables()

    pi_vals = V.velocity_samples(coeffs).magnitude() \
        .reshape(tri.n_simplices, _N_QP)
    pi_grads = V.gradient_samples(coeffs).magnitude() \
        .reshape(tri.n_simplices, _N_QP)
    pts = tab["qpts"].reshape(-1, 2)
    uv = np.asarray(u(pts), float).reshape(tri.n_simplices, _N_QP, 2)
    gv = np.asarray(grad_u(pts), float).reshape(tri.n_simplices,
                                                _N_QP, 2, 2)
    wq = tab["qw"]
    pi_abs = np.einsum("tq,tq->t", wq, pi_vals) / areas
    pi_grad = np.einsum("tq,tq->t", wq, pi_grads) / areas
    u_abs = np.einsum("tq,tq->t", wq,
                      np.linalg.norm(uv, axis=-1)) / areas
    u_grad = np.einsum("tq,tq->t", wq,
                       np.sqrt(np.sum(gv * gv, axis=(-2, -1)))) / areas

    worst = 0.0
    for e in range(tri.n_simplices):
        patch = sorted({e2 for v in t[e] for e2 in v2e[v]})
        pa = areas[patch]
        lhs = pi_abs[e] + diam[e] * pi_grad[e]
        rhs = (np.dot(pa, u_abs[patch])
               + diam[e] * np.dot(pa, u_grad[patch])) / pa.sum()
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return worst


def check_orlicz_projection_stability(u, grad_u, V, A):
    """Gradient Luxemburg norm of the interpolant over that of u, on
    the quadrature sampling."""
    rep = projection_apply(u, V)
    num = luxemburg_norm(V.gradient_samples(rep["coeffs"]), A)
    tab = V.tables()
    pts = tab["qpts"].reshape(-1, 2)
    field = SampledField(pts, tab["qw"].ravel(),
                         np.asarray(grad_u(pts), float))
    den = luxemburg_norm(field, A)
    return num / den


# -- pressure error study -------------------------------------------------

def _best_p0_approx(pi, V, A):
    """Mean-zero P0 candidate minimizing the elementwise modular of A.

    The elementwise mean seeds a golden-section pass per element (the
    minimizer of the integrated A(|pi - c|) need not be the mean for
    non-quadratic A).  The result upper-bounds the best-approximation
    error actually achievable in P0.
    """
    gr = 0.5 * (math.sqrt(5.0) - 1.0)
    tab = V.tables()
    T = V.tri.n_simplices
    vals = np.empty(T)
    for t in range(T):
        wq = tab["qw"][t]
        pv = np.asarray(pi(tab["qpts"][t]), float)
        mean = float(np.dot(wq, pv) / wq.sum())
        span = float(np.abs(pv - mean).max())
        if span == 0.0:
            vals[t] = mean
            continue

        def cost(c):
            return float(np.dot(wq, A.eval(np.abs(pv - c))))

        lo, hi = mean - span, mean + span
        x1 = hi - gr * (hi - lo)
        x2 = lo + gr * (hi - lo)
        f1, f2 = cost(x1), cost(x2)
        for _ in range(60):
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - gr * (hi - lo)
                f1 = cost(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + gr * (hi - lo)
                f2 = cost(x2)
        vals[t] = 0.5 * (lo + hi)
    areas = V.tri.areas()
    return vals - np.dot(vals, areas) / V.domain_measure


def _p0_error_field(pi, values, V):
    """(P0 values - pi) sampled at the quadrature points."""
    tab = V.tables()
    pts = tab["qpts"].reshape(-1, 2)
    pv = np.asarray(pi(pts), float)
    diff = np.repeat(np.asarray(values, float), _N_QP) - pv
    return SampledField(pts, tab["qw"].ravel(), diff)


def pressure_error_study(pi, hs, A, B, lo=(0.0, 0.0), hi=(1.0, 1.0)):
    """Reconstruction error against the best P0 approximation per mesh.

    For each pitch: assemble H = pi I, recover the pressure in
    least-squares mode, and report the L^B reconstruction error, the
    best one-constant-per-element approximation error in L^A, their
    ratio, and the stability quotient ||pi_h||_B / ||H||_A.
    """
    rows = []
    for h in hs:
        tri = triangulate([(lo[0], lo[1]), (hi[0], lo[1]),
                           (hi[0], hi[1]), (lo[0], hi[1])], h)
        V = FESpacePair(tri, k=2, m=0)

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
        rows.append({
            "h": h,
            "error": err,
            "best": best,
            "ratio": err / best if best > 0 else math.inf,
            "stability": pnorm / hnorm if hnorm > 0 else math.inf,
            "residual": rec["residual"],
        })
    return rows
