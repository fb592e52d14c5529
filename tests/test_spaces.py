"""Fields, rearrangements, Luxemburg norms and the averaging operators."""

import math

import numpy as np
import pytest

from orlicz.young import power, zygmund, exponential, linear_cap, tabulated
from orlicz import spaces as sp
from orlicz.spaces import (
    SampledField,
    StepFunction,
    rearrange,
    modular,
    luxemburg_norm,
    holder_pairing_check,
    hardy_average,
    hardy_dual,
    rearrangement_bound_rhs,
    poincare_check,
    grid_gradient,
)


def random_field(rng, n=6, scale=1.0):
    vals = rng.normal(size=(n, n)) * scale
    return SampledField.from_grid(vals, 1.0 / n)


NORM_FAMILIES = [power(1.5), power(4.0), zygmund(1, 1), exponential(1.0)]


# ---------------------------------------------------------------------------
# fields


def test_field_basics():
    u = SampledField.from_grid(np.ones((4, 4)), 0.25)
    assert u.rank == 0
    assert u.n_cells == 16
    assert u.domain_measure == pytest.approx(1.0, rel=1e-15)
    assert u.mean() == pytest.approx(1.0, rel=1e-15)


def test_mean_zero_projection():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = random_field(rng, scale=rng.uniform(0.1, 100))
        w = u.mean_zero_project()
        assert abs(w.mean()) <= 1e-12 * max(u.max_abs(), 1e-300)


def test_vector_and_matrix_magnitude():
    cent = np.array([[0.5, 0.5]])
    v = SampledField(cent, [1.0], np.array([[3.0, 4.0]]))
    assert v.rank == 1
    assert v.magnitude()[0] == pytest.approx(5.0)
    m = SampledField(cent, [1.0], np.array([[[1.0, 2.0], [2.0, 0.0]]]))
    assert m.rank == 2
    assert m.magnitude()[0] == pytest.approx(3.0)


def test_field_validation():
    with pytest.raises(ValueError):
        SampledField(np.zeros((2, 2)), [1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        SampledField(np.zeros((2, 2)), [1.0, -0.5], [1.0, 2.0])


def test_field_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    u = random_field(rng)
    p = tmp_path / "f.csv"
    sp.field_to_csv(u, p)
    v = sp.field_from_csv(p)
    assert np.array_equal(u.values, v.values)
    assert np.array_equal(u.measures, v.measures)
    assert np.array_equal(u.centroids, v.centroids)


def test_field_dict_round_trip():
    rng = np.random.default_rng(4)
    u = random_field(rng)
    v = SampledField.from_dict(u.to_dict())
    assert np.array_equal(u.values, v.values)


# ---------------------------------------------------------------------------
# rearrangement


def test_rearrangement_shape():
    rng = np.random.default_rng(8)
    u = random_field(rng)
    star = rearrange(u)
    assert star.is_nonincreasing()
    assert star.total == pytest.approx(u.domain_measure, rel=1e-15)
    assert np.all(star.values >= 0)


def test_equimeasurability_exact():
    rng = np.random.default_rng(9)
    for _ in range(10):
        u = random_field(rng, n=5, scale=rng.uniform(0.5, 3))
        star = rearrange(u)
        for t in [0.0, 0.1, 0.7, 1.9, 10.0]:
            assert sp.measure_above(u, t) == star.measure_above(t)


def test_rearrangement_eval_right_continuous():
    f = StepFunction([0.5, 1.0], [2.0, 1.0])
    assert f(0.25) == 2.0
    assert f(0.5) == pytest.approx(1.0)  # value switches at the breakpoint
    assert f(0.75) == 1.0
    assert f(1.0) == 1.0
    with pytest.raises(ValueError):
        f(0.0)
    with pytest.raises(ValueError):
        f(1.5)


def test_rearrangement_of_step_function():
    f = StepFunction([0.3, 0.6, 1.0], [1.0, 5.0, 2.0])
    star = rearrange(f)
    assert star.is_nonincreasing()
    assert star.measure_above(1.5) == f.measure_above(1.5)


# ---------------------------------------------------------------------------
# modular and norm


def test_modular_simple():
    u = SampledField.from_grid(2.0 * np.ones((2, 2)), 0.5)
    assert modular(u, power(2)) == pytest.approx(4.0, rel=1e-15)


def test_norm_of_zero_field():
    u = SampledField.from_grid(np.zeros((3, 3)), 1.0 / 3)
    assert luxemburg_norm(u, power(2)) == 0.0


def test_characteristic_function_closed_form():
    # ||c 1_E||_A = c / Ainv(1/|E|)
    rng = np.random.default_rng(21)
    n = 8
    for A in NORM_FAMILIES:
        for _ in range(5):
            c = rng.uniform(0.2, 8.0)
            k = int(rng.integers(1, n * n))
            vals = np.zeros(n * n)
            vals[:k] = c
            u = SampledField.from_grid(vals.reshape(n, n), 1.0 / n)
            measure = k / n ** 2
            want = c / A.inverse(1.0 / measure)
            assert luxemburg_norm(u, A) == pytest.approx(want, rel=1e-8)


def test_power_norm_is_discrete_p_norm():
    rng = np.random.default_rng(22)
    for p in [1.5, 2.0, 3.0]:
        A = power(p)
        for _ in range(10):
            u = random_field(rng, scale=rng.uniform(0.1, 10))
            want = (np.sum(u.measures * np.abs(u.values) ** p)) ** (1 / p)
            assert luxemburg_norm(u, A) == pytest.approx(want, rel=1e-10)


def test_norm_invariance_under_rearrangement():
    # the modular is a sum over the same cell multiset, so the two norms
    # agree exactly, well inside the 1e-10 budget
    rng = np.random.default_rng(24)
    for A in NORM_FAMILIES:
        for _ in range(25):
            u = random_field(rng, n=int(rng.integers(2, 9)),
                             scale=rng.uniform(0.05, 20))
            nu = luxemburg_norm(u, A)
            ns = luxemburg_norm(rearrange(u), A)
            assert abs(nu - ns) <= 1e-10 * max(nu, 1e-300)


def test_norm_homogeneity():
    rng = np.random.default_rng(25)
    u = random_field(rng)
    for A in NORM_FAMILIES:
        base = luxemburg_norm(u, A)
        for lam in [0.3, 2.0, 17.5]:
            assert luxemburg_norm(u * lam, A) == pytest.approx(
                lam * base, rel=1e-10)


def test_norm_triangle_inequality():
    rng = np.random.default_rng(26)
    for A in NORM_FAMILIES:
        for _ in range(10):
            u = random_field(rng, scale=rng.uniform(0.1, 5))
            v = random_field(rng, scale=rng.uniform(0.1, 5))
            lhs = luxemburg_norm(u + v, A)
            rhs = luxemburg_norm(u, A) + luxemburg_norm(v, A)
            assert lhs <= rhs * (1 + 1e-9)


def test_norm_under_cap():
    # L-infinity surrogate: the norm is max|u| / threshold
    u = SampledField.from_grid(np.array([[1.0, -3.0], [2.0, 0.5]]), 0.5)
    assert luxemburg_norm(u, linear_cap(1.0)) == pytest.approx(3.0, rel=1e-10)
    assert luxemburg_norm(u, linear_cap(2.0)) == pytest.approx(1.5, rel=1e-10)


def _bisection_norm(u, A, rtol=1e-12):
    # reference: the geometric bisection in log lam that the root-finder
    # replaced, on the same doubling bracket
    mags, meas = sp._norm_data(u)
    keep = (meas > 0) & (mags > 0)
    mags, meas = mags[keep], meas[keep]
    if mags.size == 0:
        return 0.0
    hi = float(np.max(mags))
    while sp._modular_scaled(mags, meas, A, hi) > 1.0:
        hi *= 2.0
    lo = hi / 2.0
    while sp._modular_scaled(mags, meas, A, lo) <= 1.0:
        hi = lo
        lo /= 2.0
    for _ in range(300):
        if hi - lo <= rtol * hi:
            break
        mid = math.sqrt(lo * hi)
        if sp._modular_scaled(mags, meas, A, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


class _CountingYoung:
    """Calls through to A and counts the calls (one per modular)."""

    def __init__(self, A):
        self.A = A
        self.calls = 0

    def __call__(self, s):
        self.calls += 1
        return self.A(s)


def _norm_corpus(rng):
    fields = []
    for i in range(12):
        u = random_field(rng, n=int(rng.integers(2, 9)),
                         scale=float(rng.uniform(0.05, 20)))
        if i % 3 == 0:  # zero cells, which the norm skips
            vals = u.values.copy()
            vals[: vals.size // 3] = 0.0
            u = u.with_values(vals)
        fields.append(u)
    return fields


_TABULATED = tabulated([0.0, 0.5, 1.0, 3.0], [0.2, 0.2, 1.5, 4.0])


@pytest.mark.parametrize("A", NORM_FAMILIES
                         + [A.conjugate() for A in NORM_FAMILIES]
                         + [linear_cap(1.5), _TABULATED,
                            _TABULATED.conjugate()], ids=repr)
def test_norm_agrees_with_bisection_oracle(A):
    rng = np.random.default_rng(41)
    for u in _norm_corpus(rng):
        got = luxemburg_norm(u, A)
        want = _bisection_norm(u, A)
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("A", [power(1.5), power(4.0), zygmund(1, 1),
                               exponential(1.0)], ids=repr)
def test_norm_takes_few_modular_evaluations(A):
    # bisection took about 43; the secant steps need at most 16
    rng = np.random.default_rng(42)
    for B in (A, A.conjugate()):
        counts = []
        for u in _norm_corpus(rng):
            counter = _CountingYoung(B)
            luxemburg_norm(u, counter)
            counts.append(counter.calls)
        assert np.median(counts) <= 16, (B, counts)


def _modular_at_norm_cases():
    rng = np.random.default_rng(23)
    cases = [(A, random_field(rng, scale=3.0)) for A in NORM_FAMILIES]
    # conjugates, a tabulated function and fields with zero cells
    corpus = _norm_corpus(np.random.default_rng(43))
    cases += [(A, u) for A in NORM_FAMILIES
              + [A.conjugate() for A in NORM_FAMILIES] + [_TABULATED]
              for u in corpus]
    return cases


def test_modular_at_norm_is_one():
    for A, u in _modular_at_norm_cases():  # finite continuous kinds
        lam = luxemburg_norm(u, A)
        m = modular(u * (1.0 / lam), A)
        assert m <= 1.0
        assert m == pytest.approx(1.0, abs=1e-8)
        # the root-finder's own form, mags / lam, is <= 1 as well
        mags, meas = sp._norm_data(u)
        keep = (meas > 0) & (mags > 0)
        assert sp._modular_scaled(mags[keep], meas[keep], A, lam) <= 1.0


# ---------------------------------------------------------------------------
# pairing


def test_holder_pairing_random_trials():
    rng = np.random.default_rng(27)
    for A in [power(1.5), zygmund(1, 1), exponential(1.0)]:
        for _ in range(100):
            n = int(rng.integers(2, 7))
            u = random_field(rng, n=n, scale=rng.uniform(0.1, 10))
            v = random_field(rng, n=n, scale=rng.uniform(0.1, 10))
            rep = holder_pairing_check(u, v, A)
            assert rep["holds"], rep
            assert rep["bracket_ok"], rep


def test_holder_pairing_edge_kinds():
    rng = np.random.default_rng(28)
    for A in [power(1.0), linear_cap(1.0)]:
        for _ in range(20):
            u = random_field(rng, scale=2.0)
            v = random_field(rng, scale=2.0)
            rep = holder_pairing_check(u, v, A)
            assert rep["holds"] and rep["bracket_ok"], (A.kind, rep)


def test_holder_pairing_vector_fields():
    rng = np.random.default_rng(29)
    n = 5
    cent = SampledField.from_grid(np.zeros((n, n)), 1.0 / n).centroids
    meas = np.full(n * n, 1.0 / n ** 2)
    u = SampledField(cent, meas, rng.normal(size=(n * n, 2)))
    v = SampledField(cent, meas, rng.normal(size=(n * n, 2)))
    rep = holder_pairing_check(u, v, power(2))
    assert rep["holds"] and rep["bracket_ok"]


def test_pairing_zero_field():
    u = SampledField.from_grid(np.zeros((2, 2)), 0.5)
    rep = holder_pairing_check(u, u, power(2))
    assert rep["bracket_ok"] and rep["pairing"] == 0.0


# ---------------------------------------------------------------------------
# averaging operators


def test_average_of_half_indicator():
    H = hardy_average(StepFunction([0.5, 1.0], [1.0, 0.0]))
    assert H(0.3) == 1.0
    assert H(0.5) == 1.0
    for s in [0.6, 0.75, 1.0]:
        assert H(s) == pytest.approx(1.0 / (2 * s), rel=1e-15)


def test_dual_of_full_indicator():
    G = hardy_dual(StepFunction([1.0], [1.0]))
    for s in [0.01, 0.3, 1.0]:
        assert G(s) == pytest.approx(math.log(1.0 / s), abs=1e-15)


def test_average_preserves_nonincrease():
    rng = np.random.default_rng(30)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        w = rng.uniform(0.05, 1.0, size=n)
        v = np.sort(rng.uniform(0, 5, size=n))[::-1]
        phi = StepFunction(np.cumsum(w), v, widths=w)
        assert hardy_average(phi).is_nonincreasing()
        assert hardy_dual(phi).is_nonincreasing()


def test_average_against_dense_grid_oracle():
    cases = [
        ([1.0], [1.0]),
        ([0.25, 1.0], [2.0, 0.5]),
        ([0.1, 0.4, 1.0], [3.0, 1.0, 0.2]),
    ]
    for bp, vv in cases:
        phi = StepFunction(bp, vv)
        H = hardy_average(phi)
        G = hardy_dual(phi)
        s = np.linspace(1e-4, 1.0, 200001)
        pv = phi(s)
        cum = np.concatenate(
            [[0.0], np.cumsum((pv[1:] + pv[:-1]) / 2 * np.diff(s))])
        cum += phi(s[0] / 2) * s[0]  # the missed initial sliver
        dense_H = cum / s
        good = s >= 0.01
        assert np.max(np.abs(dense_H[good] - H(s[good]))) <= 2e-4
        dual_cum = np.concatenate([[0.0], np.cumsum(
            ((pv[1:] / s[1:] + pv[:-1] / s[:-1]) / 2) * np.diff(s))])
        dense_G = dual_cum[-1] - dual_cum
        assert np.max(np.abs(dense_G[good] - G(s[good]))) <= 2e-4
        # exact second-moment formula against the dense grid; H is
        # constant on the first step cell so the initial sliver is exact
        dense_sq = np.trapezoid(H(s) ** 2, s) + s[0] * H(s[0]) ** 2
        assert H.integral_sq() == pytest.approx(dense_sq, rel=1e-6)


def test_hardy_operator_norm_p2():
    # ||H phi||_2 <= p' ||phi||_2 with p' = 2, exact integrals both sides
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 12))
        w = rng.uniform(0.01, 1.0, size=n)
        v = np.sort(rng.uniform(0, 5.0, size=n))[::-1]
        phi = StepFunction(np.cumsum(w), v, widths=w)
        num = math.sqrt(hardy_average(phi).integral_sq())
        den = math.sqrt(math.fsum(w * v ** 2))
        if den > 0:
            worst = max(worst, num / den)
    assert worst <= 2.01
    assert worst > 1.0  # the bound is not vacuous on this corpus


def test_profile_step_bounds_bracket():
    phi = StepFunction([0.5, 1.0], [1.0, 0.0])
    H = hardy_average(phi)
    lo, hi = H.step_bounds(refine=64)
    s = np.geomspace(1e-3, 1.0, 50)
    assert np.all(lo(s) <= H(s) * (1 + 1e-12))
    assert np.all(hi(s) >= H(s) * (1 - 1e-12))
    nlo, nhi = H.luxemburg_bracket(power(2), refine=128)
    exact = math.sqrt(H.integral_sq())  # L2 norm has a closed form
    assert nlo <= exact * (1 + 1e-9) and exact <= nhi * (1 + 1e-9)
    assert (nhi - nlo) / nhi < 0.01


def test_hardy_boundedness_on_balance_pairs():
    # both averaging operators stay bounded from the A-norm to the
    # B-norm on every shipped admissible pair; 4.0 calibrated with a
    # wide margin over the measured worst ratio near 2.9
    rng = np.random.default_rng(123)
    pairs = [
        (power(1.5), power(1.5)),
        (power(2), power(2)),
        (power(4), power(4)),
        (zygmund(1, 1), zygmund(1, 0)),
        (zygmund(1, 2), zygmund(1, 1)),
        (exponential(1.0), exponential(0.5)),
        (exponential(0.5), exponential(1 / 3)),
    ]
    for A, B in pairs:
        for _ in range(12):
            n = int(rng.integers(1, 10))
            w = rng.uniform(0.02, 0.6, size=n)
            v = np.sort(rng.uniform(0, 4.0, size=n))[::-1]
            phi = StepFunction(np.cumsum(w), v, widths=w)
            na = luxemburg_norm(phi, A)
            if na == 0:
                continue
            _, h_hi = hardy_average(phi).luxemburg_bracket(B, refine=64)
            _, g_hi = hardy_dual(phi).luxemburg_bracket(B, refine=64)
            assert h_hi <= 4.0 * na, (A.kind, A.params, h_hi / na)
            assert g_hi <= 4.0 * na, (A.kind, A.params, g_hi / na)


def test_rearrangement_bound_rhs_values():
    f = StepFunction([1.0], [1.0])
    assert rearrangement_bound_rhs(f, 0.5, 1.0) == pytest.approx(
        1.0 + math.log(2.0), rel=1e-15)
    assert rearrangement_bound_rhs(f, 0.5, 3.0) == pytest.approx(
        3.0 * (1.0 + math.log(2.0)), rel=1e-15)


def test_rearrangement_bound_rhs_monotone():
    rng = np.random.default_rng(31)
    w = rng.uniform(0.1, 0.5, size=5)
    v = np.sort(rng.uniform(0, 3, size=5))[::-1]
    f = StepFunction(np.cumsum(w), v, widths=w)
    s = np.linspace(0.05, f.total, 60)
    r = rearrangement_bound_rhs(f, s, 2.0)
    assert np.all(np.diff(r) <= 1e-12)
    r1 = rearrangement_bound_rhs(f, 0.4, 1.0)
    r2 = rearrangement_bound_rhs(f, 0.4, 2.5)
    assert r2 == pytest.approx(2.5 * r1, rel=1e-12)


def test_profile_integral_closed_forms():
    # G of the full indicator: integral log(1/s) = 1, integral log^2 = 2
    G = hardy_dual(StepFunction([1.0], [1.0]))
    assert G.integral() == pytest.approx(1.0, rel=1e-12)
    assert G.integral_sq() == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient ratio


def _linear_field(n):
    """u = x1 on an n-by-n grid and its gradient field."""
    h = 1.0 / n
    xs = (np.arange(n) + 0.5) * h
    X, _ = np.meshgrid(xs, xs, indexing="ij")
    grad = np.zeros((n, n, 2))
    grad[..., 0] = 1.0
    return SampledField.from_grid(X, h), SampledField.from_grid(grad, h)


def test_poincare_linear_oracle():
    # u = x1 on the unit square under power(2): the ratio is the L2 norm
    # of x1 - 1/2, that is 1/sqrt(12)
    rep = poincare_check(*_linear_field(64), power(2))
    assert rep["ratio"] == pytest.approx(1 / math.sqrt(12), rel=2e-3)


def test_poincare_family_independent():
    u, grad = _linear_field(32)
    ratios = [poincare_check(u, grad, A)["ratio"] for A in NORM_FAMILIES]
    assert max(ratios) <= 0.5
    assert min(ratios) >= 0.2


def test_poincare_rejects_inconsistent_input():
    u, grad = _linear_field(8)
    with pytest.raises(ValueError):
        poincare_check(u, grad.with_values(np.zeros((u.n_cells, 2))),
                       power(2))


def test_grid_gradient_linear_exact():
    n = 10
    h = 1.0 / n
    xs = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    g = grid_gradient(3.0 * X - 2.0 * Y, h)
    assert np.allclose(g[..., 0], 3.0, rtol=0, atol=1e-12)
    assert np.allclose(g[..., 1], -2.0, rtol=0, atol=1e-12)


def _fsum_outcome(fn, arr):
    try:
        return ("value", fn(arr).hex())
    except (ValueError, OverflowError) as exc:
        return ("error", type(exc).__name__)


@pytest.mark.parametrize("extra", [[], [math.inf], [math.nan],
                                   [math.inf, -math.inf],
                                   [1e308, 1e308, -1e308]])
def test_fsum_of_list_equals_fsum_of_array(extra):
    rng = np.random.default_rng(23)
    for _ in range(10):
        arr = rng.standard_normal(300) * 10.0 ** rng.integers(-320, 300, 300)
        arr[:6] = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.2e-315]
        arr = rng.permutation(np.concatenate([arr, extra]))
        for a in (arr, arr.reshape(-1, 1)):
            assert _fsum_outcome(sp._fsum, a) == \
                _fsum_outcome(math.fsum, a.ravel())
