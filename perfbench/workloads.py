"""The four benchmark workloads.

Each workload has ``setup(seed)``, which builds the inputs (grids,
meshes, fields, bubble members, seeded coefficients), and
``run_round(inputs, ledger)``, which runs one round of operations
through the library's public functions and checks every result against
a separate computation or a property the method must have.

A round builds fresh library objects that cache work (Young functions
with their lazily built conjugate tables, test families with their norm
caches, finite-element spaces with their assembled matrices), so every
round does the same work a fresh process would.  Seeds change input
values, never sizes, so the work in a round does not depend on the
seed.
"""

import math

import numpy as np
from scipy.linalg import cholesky, solve_triangular, svdvals

from orlicz import bogovskii, fem, negnorm, spaces, young
from orlicz.spaces import SampledField

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


class Ledger:
    """Operations of one round: attempted, raised, or failed a check.

    An operation that raises counts as failed; one that returns a
    result that fails a check counts as failed and as incorrect.
    """

    def __init__(self):
        self.status = {}     # name -> None (passed) or a failure message
        self.incorrect = set()

    def attempt(self, name, fn):
        if name in self.status:
            raise KeyError("operation %r attempted twice in a round" % name)
        self.status[name] = None
        try:
            return fn()
        except Exception as exc:  # one failed operation must not end the run
            self.status[name] = "raised %s: %s" % (type(exc).__name__, exc)
            return None

    def check(self, names, ok, what):
        """Mark the named operations incorrect unless ``ok``.

        Checks over operations that raised are skipped: those are
        already counted as failed.
        """
        if isinstance(names, str):
            names = [names]
        if any(self.status[n] is not None and n not in self.incorrect
               for n in names):
            return
        if not ok:
            for n in names:
                self.incorrect.add(n)
                prev = self.status[n]
                self.status[n] = what if prev is None else prev + "; " + what

    @property
    def attempted(self):
        return len(self.status)

    @property
    def failed(self):
        return sum(1 for s in self.status.values() if s is not None)

    def failures(self):
        return {n: s for n, s in self.status.items() if s is not None}


def _grid(n):
    h = 1.0 / n
    xs = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return X, Y, h


def _max_abs(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


# ---------------------------------------------------------------------------
# bogovskii_solve


class BogovskiiSolve:
    """The disk divergence solver: one fine kink solve, coarse solves of
    the kink and of seeded random densities, and a seeded linear
    combination that must solve to the same combination of fields."""

    name = "bogovskii_solve"
    FINE = 32
    COARSE = 16
    N_RANDOM = 3
    RESIDUAL_BOUND = 0.05      # acceptance bound on the disk residual
    REARR_C = 2.5              # constant of the rearrangement estimate
    PAIRS = ("power:2:power:2", "zygmund:1:1:power:1")

    @staticmethod
    def _random_density(rng):
        a = rng.normal(size=6)

        def fn(X, Y):
            return (a[0] * np.cos(np.pi * X) + a[1] * np.sin(np.pi * Y)
                    + a[2] * np.cos(2 * np.pi * X) * np.sin(np.pi * Y)
                    + a[3] * X * Y + a[4] * np.sin(np.pi * X * Y)
                    + a[5] * Y)

        return fn

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        D = bogovskii.StarDomain.disk()

        def kink(X, Y):
            return np.sqrt(X ** 2 + Y ** 2) - 2.0 / 3.0

        randoms = [bogovskii.grid_field(D, self._random_density(rng),
                                        self.COARSE)
                   for _ in range(self.N_RANDOM)]
        a, b = rng.uniform(0.5, 2.0, size=2) * rng.choice([-1.0, 1.0], 2)
        return {
            "D": D,
            "fine": bogovskii.grid_field(D, kink, self.FINE),
            "coarse": bogovskii.grid_field(D, kink, self.COARSE),
            "randoms": randoms,
            "coef": (float(a), float(b)),
            "combo": randoms[0] * float(a) + randoms[1] * float(b),
        }

    def _rearrangement(self, ledger, name, rep):
        r = bogovskii.check_rearrangement_estimate(
            rep["f"], rep["gradient"], self.REARR_C)
        ledger.check(name, r["ok"] and r["least_C"] < self.REARR_C,
                     "rearrangement estimate needs C=%.4g > %g"
                     % (r["least_C"], self.REARR_C))

    def run_round(self, inp, ledger):
        D = inp["D"]
        solve = bogovskii.bogovskii_field

        fine = ledger.attempt("kink %d^2" % self.FINE,
                              lambda: solve(inp["fine"], D))
        if fine is not None:
            name = "kink %d^2" % self.FINE
            ledger.check(name, fine["div_residual"] < self.RESIDUAL_BOUND,
                         "residual %.4g >= %g" % (fine["div_residual"],
                                                  self.RESIDUAL_BOUND))
            mass = D.mollifier_mass()
            ledger.check(name, abs(mass - 1.0) <= 1e-12,
                         "mollifier mass %r != 1" % mass)
            self._rearrangement(ledger, name, fine)

        coarse = ledger.attempt("kink %d^2" % self.COARSE,
                                lambda: solve(inp["coarse"], D))
        if coarse is not None:
            self._rearrangement(ledger, "kink %d^2" % self.COARSE, coarse)
        if fine is not None and coarse is not None:
            ledger.check(["kink %d^2" % self.FINE, "kink %d^2" % self.COARSE],
                         fine["div_residual"] < coarse["div_residual"],
                         "residual does not fall under refinement: "
                         "%.4g -> %.4g" % (coarse["div_residual"],
                                           fine["div_residual"]))

        reports = []
        for i, f in enumerate(inp["randoms"]):
            name = "random %d" % i
            rep = ledger.attempt(name, lambda f=f: solve(f, D))
            reports.append(rep)
            if rep is not None:
                self._rearrangement(ledger, name, rep)

        # The constants are only checked to be finite and positive: on
        # 16^2 with three densities their spread about the mean reaches
        # 20% on some seeds (seed 19), too close to the 25% band of the
        # shipped config for a check that must pass on every seed.
        names = ["random %d" % i for i in range(len(reports))]
        if all(r is not None for r in reports):
            for literal in self.PAIRS:
                A, B = young.parse_pair(literal)
                cs = [spaces.luxemburg_norm(r["gradient"].magnitude_field(), B)
                      / spaces.luxemburg_norm(r["f"], A) for r in reports]
                ledger.check(names, all(0.0 < c < math.inf for c in cs),
                             "gradient constants %s for %s" % (cs, literal))

        combo = ledger.attempt("linear combination",
                               lambda: solve(inp["combo"], D))
        if combo is not None and reports[0] is not None \
                and reports[1] is not None:
            a, b = inp["coef"]
            want = a * reports[0]["u"].values + b * reports[1]["u"].values
            scale = _max_abs(a * reports[0]["u"].values) \
                + _max_abs(b * reports[1]["u"].values)
            gap = _max_abs(combo["u"].values - want)
            ledger.check(["linear combination"] + names[:2],
                         gap <= 1e-12 * scale,
                         "B(a f1 + b f2) misses a B f1 + b B f2 by %.3g "
                         "(scale %.3g)" % (gap, scale))


# ---------------------------------------------------------------------------
# negnorm_certify


def _gl_cell_div(lo, hi, orient, edges_x, edges_y, nodes=3):
    """Cell integrals of div phi for a bubble member, by Gauss-Legendre.

    div phi = d/dx_orient of g1(x) g2(y) with g = ((t-a)(b-t))^2 on
    [a, b]; the integrand is a polynomial of degree at most 4 per axis
    on each cell piece, so three nodes per axis are exact.  Cells are
    split at the support ends, where g is only C^1.
    """
    xg, wg = np.polynomial.legendre.leggauss(nodes)

    def axis_integrals(edges, a, b, deriv):
        out = np.zeros(len(edges) - 1)
        for i in range(len(edges) - 1):
            lo_c = max(edges[i], a)
            hi_c = min(edges[i + 1], b)
            if hi_c <= lo_c:
                continue
            t = 0.5 * (hi_c - lo_c) * xg + 0.5 * (hi_c + lo_c)
            if deriv:
                v = 2.0 * (t - a) * (b - t) * (a + b - 2.0 * t)
            else:
                v = ((t - a) * (b - t)) ** 2
            out[i] = 0.5 * (hi_c - lo_c) * float(np.dot(wg, v))
        return out

    ix = axis_integrals(edges_x, lo[0], hi[0], orient == 0)
    iy = axis_integrals(edges_y, lo[1], hi[1], orient == 1)
    return np.outer(ix, iy)


class NegnormCertify:
    """Negative-norm certification: the 10-field corpus against the
    depth-3 bubble family for three admissible pairs, a Gauss-Legendre
    oracle for every member pairing, and two sup-approximant ladders."""

    name = "negnorm_certify"
    N = 64
    DEPTH = 3
    PAIRS = ("power:2:power:2", "zygmund:1:1:power:1", "exp:1:exp:0.5")
    L2_PAIR = "power:2:power:2"   # its Luxemburg norm is the L2 norm
    R_HIGH = 2.0
    BAND = 4.0
    # the ladders run on a 32^2 grid up to K = 16, the same two-cell
    # mollifier radius at the last step as a 64^2 grid at K = 32
    SUP_N = 32
    SUP_K = 16
    SUP_GAP = 0.02
    SUP_FAMILIES = ("power:2", "zygmund:1:1")

    @staticmethod
    def _corpus(n):
        X, Y, h = _grid(n)
        rows = [
            ("step_x", np.sign(X - 0.5)),
            ("step_y", np.sign(Y - 1.0 / 3.0)),
            ("sine", np.sin(math.pi * (X - 0.15))
             * np.sin(math.pi * (Y - 0.35))),
            ("ramp", X + 2.0 * Y),
            ("poly", X ** 2 - Y ** 3),
            ("trig", np.cos(2 * math.pi * (X - 0.13))
             * np.cos(math.pi * (Y - 0.29))),
            ("gauss", np.exp(-20.0 * ((X - 0.4) ** 2 + (Y - 0.6) ** 2))),
            ("crease", np.abs(X - 0.3 * Y - 0.55)),
            ("bulge", 16.0 * X ** 2 * Y * (1 - X) * (1 - Y)),
            ("checker", np.sign((X - 0.3) * (Y - 0.65))),
        ]
        return [(name, SampledField.from_grid(arr, h)) for name, arr in rows]

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        n = self.N
        _, _, h = _grid(n)
        members = negnorm.TestFamily.bubbles((0.0, 0.0), (1.0, 1.0),
                                             depth=self.DEPTH).members
        Xs, Ys, hs = _grid(self.SUP_N)
        bubble = (((Xs - 0.25) * (0.75 - Xs)).clip(min=0) ** 2
                  * ((Ys - 0.25) * (0.75 - Ys)).clip(min=0) ** 2) * 256.0 ** 2
        return {
            "corpus": self._corpus(n),
            "members": members,
            "prefix": {d: sum(1 for m in members if m.scale < d)
                       for d in range(1, self.DEPTH + 1)},
            "ones": SampledField.from_grid(np.ones((n, n)), h),
            "probe": SampledField.from_grid(rng.standard_normal((n, n)), h),
            "edges": np.arange(n + 1) * h,
            "sup_field": SampledField.from_grid(bubble, hs),
        }

    def _band(self, inp, ledger, fam, literal):
        A, B = young.parse_pair(literal)
        name = "band %s" % literal
        prefix = inp["prefix"]

        def certify():
            lower_const, _ = negnorm.neg_norm_lower(inp["ones"], A, fam)
            per_depth = {d: [] for d in prefix}
            r_high = 0.0
            l2_gap = 0.0
            for _, u in inp["corpus"]:
                w = u.mean_zero_project()
                nA = spaces.luxemburg_norm(w, A)
                nB = spaces.luxemburg_norm(w, B)
                if literal == self.L2_PAIR:
                    l2 = math.sqrt(float(np.sum(w.measures * w.values ** 2)))
                    l2_gap = max(l2_gap, abs(nA - l2) / l2)
                ratios = negnorm.member_ratios(u, A, fam)
                for d, size in prefix.items():
                    lower = float(np.max(ratios[:size]))
                    r_high = max(r_high, lower / nA)
                    per_depth[d].append(lower / nB)
            bands = {d: max(r) / min(r) for d, r in per_depth.items()}
            return lower_const, r_high, max(bands.values()), l2_gap

        out = ledger.attempt(name, certify)
        if out is None:
            return
        lower_const, r_high, band, l2_gap = out
        ledger.check(name, lower_const == 0.0,
                     "constant field scores %r, not 0" % lower_const)
        ledger.check(name, r_high <= self.R_HIGH,
                     "r_high %.4g > %g" % (r_high, self.R_HIGH))
        ledger.check(name, band <= self.BAND,
                     "ratio band %.4g > %g" % (band, self.BAND))
        ledger.check(name, l2_gap <= 1e-10,
                     "power:2 norm differs from the L2 norm by %.3g"
                     % l2_gap)

    def run_round(self, inp, ledger):
        fam = negnorm.TestFamily(inp["members"])
        for literal in self.PAIRS:
            self._band(inp, ledger, fam, literal)

        probe = inp["probe"]
        pairs = ledger.attempt(
            "member pairings",
            lambda: [fam.pairing(i, probe) for i in range(len(fam))])
        if pairs is not None:
            n = self.N
            vals = probe.values.reshape(n, n)
            edges = inp["edges"]
            worst = 0.0
            for got, mem in zip(pairs, fam.members):
                cell = _gl_cell_div(mem.lo, mem.hi, mem.orient, edges, edges)
                want = float(np.sum(vals * cell))
                scale = float(np.sum(np.abs(vals * cell)))
                worst = max(worst, abs(got - want) / scale)
            ledger.check("member pairings", worst <= 1e-12,
                         "pairing differs from Gauss-Legendre by %.3g "
                         "relative" % worst)

        for literal in self.SUP_FAMILIES:
            name = "sup-approximants %s" % literal
            A = young.parse_young(literal)
            rep = ledger.attempt(name, lambda A=A: negnorm.sup_approx_convergence(
                inp["sup_field"], A, K=self.SUP_K))
            if rep is None:
                continue
            trunc = [row["truncation_norm"] for row in rep["steps"]]
            ledger.check(name, all(b >= a for a, b in zip(trunc, trunc[1:])),
                         "truncation norms decrease in k: %s" % trunc)
            final = rep["steps"][-1]
            gap = abs(final["norm"] - rep["target"]) / rep["target"]
            ledger.check(name, gap <= self.SUP_GAP,
                         "approximant at k=%d is %.4g from the target"
                         % (final["k"], gap))


# ---------------------------------------------------------------------------
# fem_refine


def _whitened_svd_infsup(V):
    """Twice the smallest singular value of the whitened pairing."""
    Lg = cholesky(V.velocity_gradient_gram(), lower=True)
    X = solve_triangular(Lg, V.A_matrix, lower=True)
    Lp = cholesky(V.pressure_gram(), lower=True)
    W = solve_triangular(Lp, X.T, lower=True).T
    return 2.0 * float(svdvals(W)[-1])


class FemRefine:
    """P2/P0 on the unit square at h = 1/4, 1/8, 1/16: eigen inf-sup,
    exact P0 recovery, the pressure error study and the
    divergence-preserving projection at every h, plus the P1/P0 control."""

    name = "fem_refine"
    HS = (0.25, 0.125, 0.0625)
    ORACLE_HS = (0.25, 0.125)   # whitened SVD is dense; keep it cheap
    INFSUP_BAND = 0.2
    STUDY_BAND = 0.3

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        tris = {h: fem.triangulate(SQUARE, h) for h in self.HS}
        p0 = {}
        for h, tri in tris.items():
            vals = rng.standard_normal(tri.n_simplices)
            areas = tri.areas()
            p0[h] = vals - np.dot(vals, areas) / areas.sum()
        return {"tris": tris, "p0": p0,
                "proj_coef": rng.standard_normal(12) * 0.8}

    @staticmethod
    def _velocity(c):
        def u(pts):
            x, y = pts[:, 0], pts[:, 1]
            b = x * (1 - x) * y * (1 - y)
            f1 = c[0] + c[1] * x + c[2] * y + c[3] * x * y \
                + c[4] * x * x + c[5] * y * y
            f2 = c[6] + c[7] * x + c[8] * y + c[9] * x * y \
                + c[10] * x * x + c[11] * y * y
            return np.stack([b * f1, b * f2], axis=-1)
        return u

    @staticmethod
    def _pressure(pts):
        return np.sin(2 * math.pi * pts[:, 0]) * np.sin(2 * math.pi * pts[:, 1])

    def run_round(self, inp, ledger):
        p2 = young.power(2.0)
        by_h = {}
        for h, tri in inp["tris"].items():
            V = fem.FESpacePair(tri, k=2)
            # assemble now, so the inf-sup spans time only their own work
            V.A_matrix
            V.velocity_gradient_gram()
            by_h[h] = V

        values = {}
        for h in self.HS:
            name = "inf-sup h=1/%d" % round(1 / h)
            rep = ledger.attempt(name, lambda V=by_h[h]: fem.compute_infsup(
                V, p2, p2, method="eigen"))
            if rep is None:
                continue
            values[name] = rep["value"]
            ledger.check(name, not rep["rank_deficient"],
                         "P2/P0 flagged rank-deficient")
            if h in self.ORACLE_HS:
                oracle = _whitened_svd_infsup(by_h[h])
                rel = abs(rep["value"] - oracle) / oracle
                ledger.check(name, rel <= 1e-8,
                             "eigen value %.12g differs from the whitened-SVD "
                             "oracle %.12g by %.3g" % (rep["value"], oracle, rel))
        if values:
            mid = sum(values.values()) / len(values)
            ledger.check(list(values), all(
                abs(v - mid) <= self.INFSUP_BAND * mid for v in values.values())
                and min(values.values()) > 0.1,
                "inf-sup constants %s leave the %g band" % (
                    list(values.values()), self.INFSUP_BAND))

        V1 = fem.FESpacePair(inp["tris"][self.HS[0]], k=1)
        rep1 = ledger.attempt("P1/P0 control", lambda: fem.compute_infsup(
            V1, p2, p2, method="eigen"))
        if rep1 is not None:
            ledger.check("P1/P0 control",
                         rep1["rank_deficient"] and rep1["value"] <= 1e-6,
                         "P1/P0 not flagged (value %.3g)" % rep1["value"])

        for h in self.HS:
            name = "P0 recovery h=1/%d" % round(1 / h)
            vals = inp["p0"][h]
            H = vals[:, None, None] * np.eye(2)[None, :, :]
            rec = ledger.attempt(name, lambda V=by_h[h], H=H:
                                 fem.reconstruct_pressure(
                                     fem.assemble_pressure_system(H, V),
                                     mode="exact"))
            if rec is not None:
                gap = _max_abs(rec["values"] - vals)
                ledger.check(name, gap <= 1e-10,
                             "P0 pressure recovered to %.3g only" % gap)

        rows = ledger.attempt("pressure error study",
                              lambda: fem.pressure_error_study(
                                  self._pressure, list(self.HS), p2, p2))
        if rows is not None:
            ratios = [r["ratio"] for r in rows]
            rmid = sum(ratios) / len(ratios)
            ledger.check("pressure error study",
                         all(abs(r - rmid) <= self.STUDY_BAND * rmid
                             for r in ratios),
                         "error ratios %s leave the %g band"
                         % (ratios, self.STUDY_BAND))

        u = self._velocity(inp["proj_coef"])
        for h in self.HS:
            name = "projection h=1/%d" % round(1 / h)
            rep = ledger.attempt(name, lambda V=by_h[h]:
                                 fem.projection_apply(u, V))
            if rep is not None:
                ledger.check(name, rep["defect_after"] <= 1e-12,
                             "divergence defect %.3g after projection"
                             % rep["defect_after"])


# ---------------------------------------------------------------------------
# fem_ascent


class FemAscent:
    """The ascent inf-sup for the general pair zygmund:1:1 / power:1 at
    h = 1/4 and 1/8, and the quadratic ascent at h = 1/4 as a cross-check
    against the eigen value.

    One restart of at most 100 descent steps each, against the
    defaults of five restarts of 200 steps, which take 24-29 s at
    h = 1/8 alone: the first restart, warm-started at the eigen
    minimizer, already runs the norm-evaluation path measured here, and
    a round stays near 4 s.  The general-pair ascent keeps the direction
    seed of the tests (2) whatever the benchmark seed: its search length
    depends on that seed (939 to 1038 ratio evaluations over seeds 0-11
    at 200 steps), which would put a 5% seed-to-seed spread into the
    workload's dominant cost.  The benchmark seed picks
    the quadratic ascent's directions, whose length does not vary.
    """

    name = "fem_ascent"
    HS = (0.25, 0.125)
    PAIR = "zygmund:1:1:power:1"
    PAIR_SEED = 2
    RESTARTS = 1
    MAX_ITER = 100
    H_FACTOR = 1.3
    FLOOR = 0.5

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        return {"tris": {h: fem.triangulate(SQUARE, h) for h in self.HS},
                "quad_seed": int(rng.integers(0, 2 ** 31))}

    def run_round(self, inp, ledger):
        by_h = {h: fem.FESpacePair(tri, k=2)
                for h, tri in inp["tris"].items()}
        values = {}
        for h in self.HS:
            name = "ascent %s h=1/%d" % (self.PAIR, round(1 / h))
            A, B = young.parse_pair(self.PAIR)
            rep = ledger.attempt(name, lambda V=by_h[h], A=A, B=B:
                                 fem.compute_infsup(V, A, B,
                                                    seed=self.PAIR_SEED,
                                                    max_iter=self.MAX_ITER,
                                                    restarts=self.RESTARTS))
            if rep is None:
                continue
            values[name] = rep["value"]
            ledger.check(name, rep["method"] == "ascent"
                         and rep["value"] > self.FLOOR,
                         "%s value %.6g (floor %g)" % (rep["method"],
                                                       rep["value"],
                                                       self.FLOOR))
        if len(values) == len(self.HS):
            vs = list(values.values())
            ledger.check(list(values), max(vs) / min(vs) < self.H_FACTOR,
                         "values %s differ by a factor >= %g"
                         % (vs, self.H_FACTOR))

        name = "quadratic ascent h=1/%d" % round(1 / self.HS[0])
        V = by_h[self.HS[0]]
        p2 = young.power(2.0)
        rep = ledger.attempt(name, lambda: fem.compute_infsup(
            V, p2, p2, method="ascent", seed=inp["quad_seed"],
            max_iter=self.MAX_ITER, restarts=self.RESTARTS))
        if rep is not None:
            eig = fem.compute_infsup(V, p2, p2, method="eigen")["value"]
            rel = abs(rep["value"] - eig) / eig
            ledger.check(name, rel <= 1e-6,
                         "quadratic ascent %.10g vs eigen %.10g (%.3g)"
                         % (rep["value"], eig, rel))


WORKLOADS = {w.name: w for w in (BogovskiiSolve(), NegnormCertify(),
                                 FemRefine(), FemAscent())}
