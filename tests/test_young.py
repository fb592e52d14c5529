"""Young-function calculus: conjugation, growth classes, balance conditions.

Expected values fall in three groups: closed forms checked against the
defining formulas, high-precision conjugate values frozen from an
independent 40-digit computation (noted inline), and regression
constants frozen from verified runs of this module so that numerical
drift shows up as a failure.
"""

import gc
import json
import math
import weakref

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from orlicz import young
from orlicz.young import (
    YoungFunction,
    power,
    zygmund,
    exponential,
    eyring,
    linear_cap,
    tabulated,
    parse_young,
    parse_pair,
    young_from_dict,
    young_to_json,
    check_balance,
    dominates,
)


def families():
    return [
        power(1.0),
        power(1.5),
        power(2.0),
        power(4.0),
        zygmund(1, 1),
        zygmund(2, 1),
        exponential(0.5),
        exponential(1.0),
        exponential(2.0),
        eyring(),
        linear_cap(1.0),
    ]


# ---------------------------------------------------------------------------
# evaluation closed forms


def test_power_eval_and_density():
    A = power(3.0, 2.0)
    s = np.array([0.0, 0.5, 1.0, 7.0])
    assert np.allclose(A(s), 2.0 * s ** 3, rtol=0, atol=0)
    assert np.allclose(A.density(s), 6.0 * s ** 2, rtol=0, atol=0)


def test_zygmund_eval():
    A = zygmund(1, 1)
    for s in [0.3, 1.0, 25.0]:
        assert A(s) == pytest.approx(s * math.log1p(s), rel=1e-15)


def test_zygmund_alpha_zero_is_power():
    A = zygmund(2, 0)
    assert A.kind == "power"
    assert A(3.0) == pytest.approx(9.0, rel=1e-15)


def test_exponential_eval():
    A = exponential(1.0)
    assert A(2.0) == pytest.approx(math.expm1(2.0), rel=1e-15)
    assert exponential(0.5)(4.0) == pytest.approx(math.expm1(2.0), rel=1e-12)


def test_eyring_eval_value():
    # integral_0^1 arcsinh(r) dr = asinh(1) - (sqrt(2) - 1)
    A = eyring()
    exact = math.asinh(1.0) - (math.sqrt(2.0) - 1.0)
    assert exact == pytest.approx(0.467160024646448, rel=1e-14)
    assert A(1.0) == pytest.approx(exact, rel=1e-12)


def test_cap_eval():
    A = linear_cap(2.0)
    assert A(1.9) == 0.0
    assert A(2.0) == 0.0
    assert np.isinf(A(2.1))
    assert A.allows_infinity


def test_young_function_properties():
    # A(0) = 0, monotone, convex on a sample grid, for every family
    s = np.geomspace(1e-4, 1e2, 41)
    for A in families():
        assert A(0.0) == 0.0
        v = A(s)
        fin = np.isfinite(v)
        assert np.all(np.diff(v[fin]) >= 0)
        lam = 0.37
        conv = lam * v[fin][:-1] + (1 - lam) * v[fin][1:]
        mid = A(lam * s[fin][:-1] + (1 - lam) * s[fin][1:])
        assert np.all(mid <= conv * (1 + 1e-12) + 1e-300)


# ---------------------------------------------------------------------------
# conjugation


def test_power_conjugate_closed_form():
    At = power(1.5).conjugate()
    assert At.kind == "power"
    p, c = At.params
    assert p == pytest.approx(3.0, rel=1e-15)
    assert c == pytest.approx((1.5 - 1) / 1.5 * 1.5 ** (-1 / (1.5 - 1)), rel=1e-14)
    assert At(2.0) == pytest.approx(1.1851851851851851, rel=1e-13)


def test_power_one_conjugates_to_cap():
    At = power(1.0, 3.0).conjugate()
    assert At.allows_infinity
    assert At(2.9) == 0.0
    assert np.isinf(At(3.1))
    back = At.conjugate()
    assert back(5.0) == pytest.approx(15.0, rel=1e-12)


def test_exponential_conjugate_closed_form_values():
    # conj of e^s - 1 is s log s - s + 1 for s >= 1
    At = exponential(1.0).conjugate()
    assert At(7.5) == pytest.approx(7.5 * math.log(7.5) - 7.5 + 1, rel=1e-9)
    assert At(1.0) == pytest.approx(0.0, abs=1e-12)


# 40-digit independent values for the log-perturbed and arcsinh kinds
ZYG11_CONJ = {2.0: 1.8695860194296959, 10.0: 8102.0839892752101,
              100.0: 9.8890303193469468e+42}
EYRING_CONJ = {1.0: 0.54308063481524378, 5.0: 73.209948524787844,
               20.0: 242582596.70489514}


def test_zygmund_conjugate_against_frozen_oracle():
    At = zygmund(1, 1).conjugate()
    for s, want in ZYG11_CONJ.items():
        assert At(s) == pytest.approx(want, rel=5e-8)


def test_eyring_conjugate_against_frozen_oracle():
    At = eyring().conjugate()
    for s, want in EYRING_CONJ.items():
        assert At(s) == pytest.approx(want, rel=5e-8)


def test_conjugate_involution():
    # second conjugate returns the function, to 1e-6 relative, with
    # infinities in exactly the same places
    s = np.geomspace(1e-6, 1e6, 100)
    for A in families():
        A2 = A.conjugate().conjugate()
        va, v2 = A(s), A2(s)
        assert not np.any(np.isposinf(va) ^ np.isposinf(v2)), A.kind
        m = ~np.isposinf(va) & (va > 0)
        if not np.any(m):
            # capped kind: only 0/inf values, handled by the mask check
            assert np.array_equal(v2, va)
            continue
        rel = np.abs(v2[m] - va[m]) / va[m]
        assert np.max(rel) <= 1e-6, (A.kind, A.params, float(np.max(rel)))


@pytest.mark.parametrize("spec", ["zygmund:1:1", "zygmund:2:1",
                                  "zygmund:1:2", "exp:1", "exp:0.5",
                                  "eyring"])
def test_conjugate_table_lookup_matches_pchip(spec, monkeypatch):
    # the oracle is scipy's own interpolant through the table's nodes,
    # recorded as the builder hands them over
    nodes = []

    def recording(x, y, **kw):
        nodes.append((x.copy(), y.copy()))
        return PchipInterpolator(x, y, **kw)

    monkeypatch.setattr(young, "PchipInterpolator", recording)
    C = parse_young(spec).conjugate()
    C.log_eval(1.0)
    (x, logv), = nodes
    oracle = PchipInterpolator(x, logv, extrapolate=False)
    tx, coef, s_zero = C._table
    assert np.array_equal(tx, x)

    rng = np.random.default_rng(11)
    inside = rng.uniform(x[0], x[-1], 10_000)
    # every breakpoint, its neighbouring doubles and every midpoint
    below, above = np.nextafter(x[1:], -np.inf), np.nextafter(x[:-1], np.inf)
    pts = np.concatenate([x, below, above, (x[:-1] + x[1:]) / 2.0,
                          [x[0], x[-1]], inside])
    assert np.array_equal(young._table_lookup(tx, coef, pts), oracle(pts))

    # through log_eval, on a 2-D input: all inside the table (the fast
    # path), then with one entry at s_zero, where the conjugate vanishes
    s = (s_zero + np.exp(inside)).reshape(100, 100)
    xs = np.log(s - s_zero)
    assert np.array_equal(C.log_eval(s), oracle(xs))
    s[3, 7] = s_zero
    lv = C.log_eval(s)
    assert lv.shape == (100, 100) and lv[3, 7] == -np.inf
    keep = np.ones(s.shape, bool)
    keep[3, 7] = False
    assert np.array_equal(lv[keep], oracle(xs[keep]))


def _fixed_step_bisection(pred_u, shape, lo=-745.0, hi=young._U_MAX):
    """young._bisect_boundary_log without its early stop: always
    young._BISECT_ITERS steps, each probing every target."""
    lo_arr = np.full(shape, lo, dtype=float)
    hi_arr = np.full(shape, hi, dtype=float)
    ok_lo = pred_u(lo_arr)
    ok_hi = pred_u(hi_arr)
    for _ in range(young._BISECT_ITERS):
        mid = 0.5 * (lo_arr + hi_arr)
        good = pred_u(mid)
        lo_arr = np.where(good, mid, lo_arr)
        hi_arr = np.where(good, hi_arr, mid)
    out = np.where(ok_lo, 0.5 * (lo_arr + hi_arr), -np.inf)
    return np.where(ok_hi, np.inf, out)


@pytest.mark.parametrize("spec", ["zygmund:1:1", "exp:0.5", "eyring"])
def test_density_inverse_matches_plain_bisection(spec, monkeypatch):
    # one density evaluation per run of equal midpoints must return what
    # probing every target returns, for sorted and shuffled targets;
    # pairs of targets a few ulps apart share a bracket until late steps.
    # The bisections stop once every bracket is two adjacent doubles, so
    # the inverses (r = 0 included), the conjugate's densities and its
    # table must also come out bit for bit as after all the fixed steps
    base = np.geomspace(1e-9, 600.0, 1000)
    sigma = np.ravel([base, base * (1.0 + 1e-14)], order="F")
    sigma = np.stack([sigma, np.random.default_rng(3).permutation(sigma)])
    r = np.concatenate([[0.0, 1e-300], np.geomspace(1e-12, 1e12, 49),
                        [np.inf]])
    logs = np.linspace(-40.0, 800.0, 43)
    A = parse_young(spec)
    plain = _fixed_step_bisection(
        lambda u: A.density_logarg(u) < sigma, sigma.shape)
    assert np.array_equal(young._invert_density_logdomain(A, sigma), plain)

    def outputs():
        A = parse_young(spec)
        C = A.conjugate()
        C.log_eval(1.0)
        x, coef, s_zero = C._table
        return [A.inverse(r), A.inverse_left(r), C.density(base),
                C.density_logarg(logs), C.inverse(r), x, coef,
                np.array(s_zero)]

    early = outputs()
    monkeypatch.setattr(young, "_bisect_boundary_log", _fixed_step_bisection)
    for got, want in zip(early, outputs()):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_only_out_of_table_points_take_the_exact_formula(monkeypatch):
    # a call that crosses the table ends hands the Legendre formula only
    # its out-of-table points, and every point comes out as on its own
    C = zygmund(1, 1).conjugate()
    C.log_eval(1.0)
    x, _, s_zero = C._table
    lo, hi = s_zero + math.exp(x[0]), s_zero + math.exp(x[-1])
    s = np.concatenate([np.geomspace(lo * 1e-3, lo, 30, endpoint=False),
                        np.geomspace(lo, hi, 200),
                        np.geomspace(hi * 1.001, hi * 1.3, 20),
                        [s_zero, 0.0]])
    s = np.random.default_rng(4).permutation(s)
    xs = np.log(np.maximum(s - s_zero, 1e-300))
    outside = (s > s_zero) & ((xs < x[0]) | (xs > x[-1]))
    seen = []
    exact = young._conj_log_eval_exact

    def recording(A, pts):
        seen.append(np.array(pts))
        return exact(A, pts)

    monkeypatch.setattr(young, "_conj_log_eval_exact", recording)
    lv = C.log_eval(s)
    assert len(seen) == 1 and np.array_equal(seen[0], s[outside])
    one = np.array([C.log_eval(np.array([v]))[0] for v in s])
    assert lv.tobytes() == one.tobytes()


def _table_nodes(C, monkeypatch):
    """(s, log value) of every node of C's table, recorded as the table
    builder hands its maximizers to the Legendre formula."""
    seen = []
    legendre = young._legendre_log

    def recording(A, s, u):
        out = legendre(A, s, u)
        if A is C.base:
            seen.append((s.copy(), out.copy()))
        return out

    monkeypatch.setattr(young, "_legendre_log", recording)
    C.log_eval(1.0)
    monkeypatch.undo()
    (nodes,) = seen
    return nodes


@pytest.mark.parametrize("spec", ["zygmund:1:1", "zygmund:2:1",
                                  "zygmund:1:2", "exp:1", "exp:0.5",
                                  "eyring", "zygmund:1:1 twice"])
def test_conjugate_table_nodes_match_the_legendre_formula(spec,
                                                          monkeypatch):
    # each node's maximizer comes from a grid bracket closed by Illinois
    # steps, not from a bisection; the formula is stationary in the
    # maximizer, so every node must read what the bisected one gives.
    # Within 1e-5 max(1, s0) of s0 the formula's s t - A(t) cancels, and
    # its rounding follows the maximizer's last bits: for exp:1 both
    # maximizers read up to 1.9e-9 off the closed form between 1e-6 and
    # 1e-5 (test_exp_conjugate_table_matches_closed_form) and differ by
    # up to 1.4e-9 there.  Worst deviation found farther out: 7.2e-11
    # (zygmund:1:1)
    C = parse_young(spec.split()[0]).conjugate()
    if spec.endswith("twice"):
        C = C.conjugate()
    s, logv = _table_nodes(C, monkeypatch)
    s_zero = C._table[2]
    exact = young._conj_log_eval_exact(C.base, s)
    assert np.array_equal(np.isfinite(logv), np.isfinite(exact))
    far = np.isfinite(exact) & (s - s_zero >= 1e-5 * max(1.0, s_zero))
    assert np.max(np.abs(logv[far] - exact[far])) <= 1e-9


def test_open_brackets_take_the_bisection(monkeypatch):
    # with no Illinois step every bracket stays open, so each node must
    # come out bit for bit as the bisected Legendre formula gives it
    monkeypatch.setattr(young, "_CONJ_STEPS", 0)
    C = exponential(1.0).conjugate()
    s, logv = _table_nodes(C, monkeypatch)
    assert logv.tobytes() == young._conj_log_eval_exact(C.base, s).tobytes()


def test_exp_conjugate_table_matches_closed_form(monkeypatch):
    # conj(e^s - 1)(s) = s log s - s + 1, at s = 1 + d summed as
    # sum_{k >= 2} (-d)^k / (k (k - 1)) for d < 0.1, so the truth does
    # not cancel where the table's formula does.  The bounds are the
    # worst log errors of the table built by bisecting every node:
    # 3.66e-6 over the table and 1.85e-9 where d >= 1e-6
    nodes = []

    def recording(x, y, **kw):
        nodes.append((x.copy(), y.copy()))
        return PchipInterpolator(x, y, **kw)

    monkeypatch.setattr(young, "PchipInterpolator", recording)
    exponential(1.0).conjugate().log_eval(2.0)
    (x, logv), = nodes
    s = 1.0 + np.exp(x)
    d = s - 1.0
    k = np.arange(2, 30)
    series = np.sum((-np.minimum(d, 0.1))[:, None] ** k / (k * (k - 1.0)),
                    axis=1)
    truth = np.log(np.where(d < 0.1, series, s * np.log(s) - s + 1.0))
    err = np.abs(logv - truth)
    assert np.max(err) <= 3.7e-6
    assert np.max(err[d >= 1e-6]) <= 1.9e-9


def test_conjugate_table_takes_few_density_evaluations(monkeypatch):
    # bisecting each of the 16 384 nodes evaluated the zygmund:1:1
    # density at 921 996 points
    points = []
    density_logarg = YoungFunction.density_logarg

    def counting(self, u):
        points.append(np.size(u))
        return density_logarg(self, u)

    monkeypatch.setattr(YoungFunction, "density_logarg", counting)
    zygmund(1, 1).conjugate().log_eval(1.0)
    assert sum(points) <= 200_000


def test_numeric_conjugate_leaves_no_reference_cycle():
    # A caches its conjugate, which evaluates through A: were the two a
    # cycle, each dropped pair (with its tables) would wait for a full
    # garbage collection
    gc.disable()
    try:
        for make in (lambda: zygmund(1, 1), lambda: exponential(1.0),
                     eyring):
            A = make()
            At = A.conjugate()
            At(np.geomspace(1e-3, 1e3, 7))
            refs = [weakref.ref(A), weakref.ref(At)]
            del A, At
            assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_inverse_sandwich():
    # r <= Ainv(r) * Atilde_inv(r) <= 2 r at 50 log-spaced points
    r = np.geomspace(1e-6, 1e6, 50)
    for A in families():
        prod = A.inverse(r) * A.conjugate().inverse(r)
        ratio = prod / r
        assert np.all(ratio >= 1 - 1e-9), (A.kind, ratio.min())
        assert np.all(ratio <= 2 + 2e-9), (A.kind, ratio.max())


def test_sandwich_exact_endpoints():
    r = np.geomspace(1e-3, 1e3, 7)
    ratio2 = power(2).inverse(r) * power(2).conjugate().inverse(r) / r
    assert np.allclose(ratio2, 2.0, rtol=1e-12)
    ratio1 = power(1).inverse(r) * power(1).conjugate().inverse(r) / r
    assert np.allclose(ratio1, 1.0, rtol=1e-12)


def test_young_inequality():
    rng = np.random.default_rng(11)
    r = rng.uniform(0, 30, size=10000)
    s = rng.uniform(0, 30, size=10000)
    for A in [power(1.5), power(2), zygmund(1, 1), exponential(1.0), eyring()]:
        At = A.conjugate()
        with np.errstate(over="ignore"):
            rhs = A(r) + At(s)
        viol = r * s - rhs
        viol = viol[np.isfinite(viol)]
        assert np.max(viol) <= 1e-9 * np.max(r * s)


def test_scaling_superhomogeneity():
    # lam * A(s) <= A(lam * s) for lam >= 1, from convexity and A(0)=0
    s = np.geomspace(1e-3, 50, 40)
    for A in families():
        for lam in [1.0, 1.7, 3.0, 12.0]:
            lhs = lam * A(s)
            rhs = A(lam * s)
            fin = np.isfinite(lhs) & np.isfinite(rhs)
            assert np.all(lhs[fin] <= rhs[fin] * (1 + 1e-12) + 1e-300)


def test_conjugate_cached():
    A = zygmund(1, 1)
    assert A.conjugate() is A.conjugate()


# ---------------------------------------------------------------------------
# generalized inverses


def test_inverse_conventions():
    A = power(2.0)
    assert A.inverse(4.0) == pytest.approx(2.0, rel=1e-12)
    assert A.inverse_left(4.0) == pytest.approx(2.0, rel=1e-12)
    assert A.inverse(0.0) == 0.0
    cap = linear_cap(1.0)
    # right inverse of the flat zero stretch is the threshold
    assert cap.inverse(0.5) == pytest.approx(1.0, rel=1e-12)
    assert cap.inverse(0.0) == pytest.approx(1.0, rel=1e-12)
    assert cap.inverse_left(0.5) == pytest.approx(1.0, rel=1e-12)
    assert cap.inverse_left(0.0) == 0.0


def test_inverse_round_trip():
    s = np.geomspace(1e-3, 1e3, 25)
    for A in [power(1.5), zygmund(1, 1), exponential(1.0), eyring()]:
        r = A(s)
        fin = np.isfinite(r) & (r > 0)
        back = A.inverse(r[fin])
        assert np.allclose(back, s[fin], rtol=1e-8)


# ---------------------------------------------------------------------------
# growth classification (regression-frozen verdicts and constants)


def test_delta2_matrix():
    cases = [
        (power(2), "global", 4.0),
        (power(1), "global", 2.0),
        (power(4), "global", 16.0),
        (zygmund(1, 1), "global", 4.0),
        (zygmund(2, 1), "global", 8.0),
        (eyring(), "global", 4.0),
        (exponential(0.5), "fails", None),
        (exponential(1.0), "fails", None),
        (exponential(2.0), "fails", None),
        (linear_cap(1.0), "fails", None),
    ]
    for A, verdict, const in cases:
        g = A.classify_delta2()
        assert g.verdict == verdict, (A.kind, A.params, g)
        if const is not None:
            assert g.constant == pytest.approx(const, rel=1e-4)


def test_nabla2_matrix():
    cases = [
        (power(2), "global", 4.0),
        (power(4), "global", None),
        (power(1), "fails", None),
        (zygmund(1, 1), "fails", None),
        (zygmund(2, 1), "global", None),
        (eyring(), "fails", None),
        (exponential(2.0), "global", None),
        (linear_cap(1.0), "global", None),
    ]
    for A, verdict, const in cases:
        g = A.classify_nabla2()
        assert g.verdict == verdict, (A.kind, A.params, g)
        if const is not None:
            assert g.constant == pytest.approx(const, rel=1e-4)


def test_nabla2_near_infinity_for_weak_exponential():
    g = exponential(1.0).classify_nabla2()
    assert g.verdict == "near_infinity"
    assert g.constant == pytest.approx(2.052357040719904, rel=1e-6)
    assert g.s0 == pytest.approx(0.05103244905427325, rel=1e-6)
    g = exponential(0.5).classify_nabla2()
    assert g.verdict == "near_infinity"
    assert g.s0 == pytest.approx(1.288794397200773, rel=1e-6)


def test_growth_class_holds():
    g = power(2).classify_delta2()
    s = np.geomspace(1e-3, 1e3, 30)
    A = power(2)
    assert np.all(A(2 * s) <= g.constant * A(s) * (1 + 1e-9))


def test_tabulated_classes_scan_past_the_knots():
    # the density is constant past its last knot, so A(2s)/A(s) -> 2:
    # nabla2 fails; Delta2 peaks at A(1.3)/A(0.65), about 6.48, between
    # knots that a scan of the knots alone never sees
    A = tabulated([0.0, 0.5, 1.0, 3.0], [0.2, 0.2, 1.5, 4.0])
    assert not A.classify_nabla2().holds()
    assert A.classify_delta2().constant >= 6.4


# ---------------------------------------------------------------------------
# balance conditions (regression-frozen constants)


def test_balance_power_pairs():
    # least constants for the power pair follow (p-1)^(-1/p)
    for p, c11, c12 in [
        (1.5, 1.587401051968203, 0.7937005259841009),
        (2.0, 1.0000000000000027, 1.0000000000000027),
        (4.0, 0.7598356856515933, 2.279507056954786),
    ]:
        r = check_balance(power(p), power(p))
        assert r.admissible
        assert r.t0 == 0.0
        assert r.c_11 == pytest.approx(c11, rel=1e-9)
        assert r.c_12 == pytest.approx(c12, rel=1e-9)
        assert r.c_11 == pytest.approx((p - 1) ** (-1 / p), rel=1e-6)


def test_balance_zygmund_chain():
    r = check_balance(zygmund(1, 1), zygmund(1, 0))
    assert r.admissible and r.t0 == pytest.approx(1e-6)
    assert r.c_11 == pytest.approx(606.5486316950979, rel=1e-9)
    assert r.c_12 == pytest.approx(890821.7149280729, rel=1e-9)
    r = check_balance(zygmund(1, 2), zygmund(1, 1))
    assert r.admissible and r.t0 == pytest.approx(1e-6)
    assert r.c_11 == pytest.approx(62.99867816212982, rel=1e-9)
    assert r.c_12 == pytest.approx(27.75089784737465, rel=1e-9)


def test_balance_exponential_chain():
    r = check_balance(exponential(1.0), exponential(0.5))
    assert r.admissible and r.t0 == pytest.approx(1e-6)
    assert r.c_11 == pytest.approx(13.404994426515549, rel=1e-9)
    assert r.c_12 == pytest.approx(1.457422317246313, rel=1e-9)
    r = check_balance(exponential(0.5), exponential(1 / 3))
    assert r.admissible
    assert r.c_11 == pytest.approx(5.9607451192047245, rel=1e-9)
    assert r.c_12 == pytest.approx(0.4185905466731273, rel=1e-9)


def test_balance_inadmissible_pairs():
    assert not check_balance(power(1), power(1)).admissible
    assert not check_balance(linear_cap(1.0), linear_cap(1.0)).admissible
    assert not check_balance(power(1), power(1), t0=1.0).admissible


def test_balance_eyring_against_power_one():
    r = check_balance(eyring(), power(1))
    assert r.admissible
    assert np.isfinite(r.c_11) and np.isfinite(r.c_12)


def test_balance_conjugation_symmetry():
    # second condition for (A, B) is the first for (conj B, conj A):
    # with the same pinned cutoff the two constants agree exactly
    A, B = zygmund(1, 1), zygmund(1, 0)
    r1 = check_balance(A, B, t0=1e-2)
    r2 = check_balance(B.conjugate(), A.conjugate(), t0=1e-2)
    assert r1.c_12 == r2.c_11


def test_balance_report_serializes():
    d = check_balance(power(2), power(2)).to_dict()
    assert d["admissible"] is True
    json.dumps(d)


# ---------------------------------------------------------------------------
# domination


def test_domination():
    rep = dominates(power(2), power(1))
    assert rep.verdict == "near_infinity"
    assert rep.holds()
    assert rep.constant == pytest.approx(0.01799824359908151, rel=1e-9)
    assert rep.s0 == pytest.approx(3087.0221735358805, rel=1e-9)
    no_rep = dominates(power(1), power(2))
    assert no_rep.verdict == "no"
    assert not no_rep.holds()
    self_rep = dominates(power(2), power(2))
    assert self_rep.verdict == "global"
    assert self_rep.holds()
    assert self_rep.constant == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# tabulated densities


def test_tabulated_matches_closed_form():
    knots = np.linspace(0.0, 10.0, 21)
    A = tabulated(knots, 2.0 * knots)  # density of s^2
    s = np.linspace(0.1, 9.9, 17)
    assert np.allclose(A(s), s ** 2, rtol=1e-12)


def test_tabulated_conjugate_flip_is_exact():
    knots = np.array([0.0, 1.0, 3.0, 10.0])
    dens = np.array([0.0, 2.0, 2.5, 4.0])
    A = tabulated(knots, dens)
    A2 = A.conjugate().conjugate()
    s = np.linspace(0.0, 9.5, 40)
    assert np.max(np.abs(A2(s) - A(s))) == 0.0


def test_tabulated_conjugate_value():
    # density jumps from 0 to 1 at s=1: A(s) = max(s-1, 0) capped view,
    # conjugate on [0,1] is s*1 at slope... direct check against sup formula
    knots = np.array([0.0, 1.0, 5.0])
    dens = np.array([1.0, 1.0, 3.0])
    A = tabulated(knots, dens)
    At = A.conjugate()
    sig = np.linspace(0.0, 2.9, 12)
    brute_t = np.linspace(0, 5, 20001)
    brute = np.max(sig[:, None] * brute_t[None, :] - A(brute_t)[None, :], axis=1)
    assert np.allclose(At(sig), brute, atol=2e-4)


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_young():
    A = parse_young("power:2")
    assert A.kind == "power" and A(3.0) == pytest.approx(9.0)
    B = parse_young("zygmund:1:1")
    assert B(1.0) == pytest.approx(math.log(2.0))
    assert parse_young("eyring").kind == "eyring"
    assert parse_young("linf").allows_infinity
    with pytest.raises(ValueError):
        parse_young("power")
    with pytest.raises(ValueError):
        parse_young("nosuch:1")


def test_zygmund_rejects_a_falling_density():
    with pytest.raises(ValueError, match="density must be non-decreasing"):
        zygmund(1, -0.5)
    assert zygmund(2, -1).params == (2.0, -1.0)


def test_double_conjugate_builds_without_bisection(monkeypatch):
    calls = []
    real = young._bisect_boundary
    monkeypatch.setattr(young, "_bisect_boundary",
                        lambda *a: calls.append(a) or real(*a))
    zygmund(1, 1).conjugate().conjugate()
    assert calls == []


@pytest.mark.parametrize("literal", [
    "cap:nan", "cap:inf", "power:inf", "zygmund:1:nan", "exp:inf",
    "exp:-inf"])
def test_parse_rejects_non_finite_parameters(literal):
    with pytest.raises(ValueError, match="needs finite parameters"):
        parse_young(literal)
    with pytest.raises(ValueError, match="needs finite parameters"):
        parse_pair("power:2:" + literal)
    name, *params = literal.split(":")
    with pytest.raises(ValueError, match="needs finite parameters"):
        young_from_dict({"kind": name, "params": [float(v) for v in params]})


@pytest.mark.parametrize("beta", [0.001, 0.00699])
def test_exponential_rate_too_small_names_the_rate(beta):
    # 0.001 overflows the critical point, 0.00699 the search past it
    with pytest.raises(ValueError, match="exponential rate %g" % beta):
        exponential(beta)


def test_from_dict_takes_the_literal_aliases():
    assert young_from_dict({"kind": "exp", "params": [0.5]}).kind \
        == "exponential"
    assert young_from_dict({"kind": "linf", "params": []}).inf_threshold \
        == 1.0
    with pytest.raises(ValueError, match="unknown Young family"):
        young_from_dict({"kind": "nosuch", "params": []})


def test_parse_pair():
    A, B = parse_pair("zygmund:1:1:zygmund:1:0")
    assert A.kind == "zygmund" and B.kind == "power"
    A, B = parse_pair("power:2:power:2")
    assert A(2.0) == B(2.0) == 4.0
    with pytest.raises(ValueError):
        parse_pair("power:2")
    with pytest.raises(ValueError):
        parse_pair("power:2:bogus:1")


def test_serialization_round_trip():
    for A in [power(2.5, 3.0), zygmund(1, 2), exponential(0.7), eyring(),
              linear_cap(2.0)]:
        B = young_from_dict(json.loads(young_to_json(A)))
        s = np.geomspace(0.1, 20, 9)
        va, vb = A(s), B(s)
        fin = np.isfinite(va)
        assert np.array_equal(np.isfinite(vb), fin)
        assert np.allclose(vb[fin], va[fin], rtol=1e-12)


def test_serialization_of_conjugate():
    At = zygmund(1, 1).conjugate()
    B = young_from_dict(json.loads(young_to_json(At)))
    s = np.array([0.5, 2.0, 7.0])
    assert np.allclose(B(s), At(s), rtol=1e-9)
