"""Weight-function evaluation, transforms, and condition constants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from campanato_lab import phi as phimod
from campanato_lab import (almost_monotone_constants, classify_regime,
                           default_grid, doubling_constant, eval_phi,
                           int_condition_constant, int_condition_power_weight,
                           one, phi_report, phi_star, power, powerlog, psi,
                           quotient_phi, table)

GRID = default_grid()


def test_eval_basics():
    assert eval_phi(one(), 0.37) == 1
    assert type(eval_phi(one(), 0.37)) is int  # keeps exact chain sums exact
    assert eval_phi(psi(), 1.0) == pytest.approx(1.0)
    assert eval_phi(power(1), 0.5) == pytest.approx(0.5)


def test_eval_domain_errors():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            eval_phi(one(), bad)
        with pytest.raises(ValueError):
            phi_star(psi(), bad)


def test_powerlog_factors():
    r = 0.1
    expected = r ** 0.3 * (1 - math.log(r)) ** -0.5 \
        * math.log(math.e - math.log(r)) ** -0.25
    assert eval_phi(powerlog(0.3, 0.5, 0.25), r) == pytest.approx(expected)
    # the log-log factor is 1 at r = 1 and positive everywhere
    assert eval_phi(powerlog(0, 0, 3.0), 1.0) == pytest.approx(1.0)
    assert eval_phi(powerlog(0, 0, 3.0), 1e-9) > 0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-0.9, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=1e-12, max_value=1.0))
def test_powerlog_always_positive_finite(alpha, beta, gamma, r):
    v = eval_phi(powerlog(alpha, beta, gamma), r)
    assert v > 0
    assert math.isfinite(v)


def test_phi_star_at_one_is_one():
    for spec in (one(), psi(), power(0.5), powerlog(0.2, 1.0, 0.0)):
        assert phi_star(spec, 1.0) == 1.0


def test_phi_star_closed_forms():
    assert phi_star(one(), 0.25) == pytest.approx(1 + math.log(4))
    assert phi_star(power(0.5), 0.25) == pytest.approx(3 - 2 * 0.5)
    assert phi_star(power(-0.3), 0.1) == pytest.approx(
        1 + (0.1 ** -0.3 - 1) / 0.3)
    assert phi_star(psi(), 0.1) == pytest.approx(
        1 + math.log(1 - math.log(0.1)))


@pytest.mark.parametrize("spec,closed", [
    (one(), lambda r: 1 + math.log(1 / r)),
    (power(0.5), lambda r: 3 - 2 * math.sqrt(r)),
    (power(-0.3), lambda r: 1 + (r ** -0.3 - 1) / 0.3),
    (psi(), lambda r: 1 + math.log(1 - math.log(r))),
])
def test_phi_star_quadrature_matches_closed_form(spec, closed):
    for r in (1e-6, 1e-4, 0.01, 0.3, 0.9, 1.0):
        quad = phi_star(spec, r, force_quadrature=True)
        assert abs(quad - closed(r)) <= 1e-8 * max(1.0, closed(r))
        # with the quadrature memoised for (spec, r), each path still
        # answers with its own value
        assert phi_star(spec, r, force_quadrature=True) == quad
        assert phi_star(spec, r) == phimod._phi_star_closed(spec, r)


def test_phi_star_nonincreasing():
    grid = sorted(GRID)
    for spec in (one(), psi(), power(0.7), power(-0.4), powerlog(0.1, 2.0)):
        vals = [phi_star(spec, r) for r in grid]
        for a, b in zip(vals, vals[1:]):
            assert a >= b - 1e-12


def test_doubling_constants():
    assert doubling_constant(one(), GRID) == 1.0
    assert doubling_constant(power(1), GRID) == pytest.approx(2.0)
    assert doubling_constant(power(-0.5), GRID) == pytest.approx(math.sqrt(2))


def test_doubling_lower_bounds_phi_star_difference():
    # doubling gives phi(r) <= D * (phi_star(r) - phi_star(2r)) / log 2
    # for r <= 1/2; checked on the power-log family
    for spec in (one(), power(0.5), power(-0.3), powerlog(0.2, 1.0, 0.5)):
        D = doubling_constant(spec, GRID)
        for r in (r for r in GRID if r <= 0.5):
            gap = phi_star(spec, r) - phi_star(spec, min(2 * r, 1.0))
            assert float(eval_phi(spec, r)) <= D * gap / math.log(2) + 1e-9


def test_int_condition_constants():
    assert int_condition_constant(one(), 1, GRID) == 1.0
    assert int_condition_constant(one(), 2, GRID) == 1.0
    assert int_condition_constant(power(-0.5), 1, GRID) == pytest.approx(2.0)
    for alpha in (-0.5, 0.0, 0.3, 1.0):
        for p in (1, 2):
            expected = alpha * p + 1
            got = int_condition_constant(power(alpha), p, GRID)
            if expected <= 0:
                assert got == math.inf
            else:
                assert got == pytest.approx(1 / expected)


def test_int_condition_quadrature_matches_analytic():
    grid = default_grid(k_max=20)
    for alpha in (-0.5, 0.0, 0.3, 1.0):
        for p in (1, 2):
            denom = alpha * p + 1
            got = int_condition_constant(power(alpha), p, grid,
                                         force_quadrature=True)
            if denom <= 0:
                assert got == math.inf
            else:
                assert abs(got - 1 / denom) <= 1e-6


def test_int_condition_power_weight():
    assert int_condition_power_weight(one(), 1, GRID) == 1.0
    assert int_condition_power_weight(one(), 2, GRID) == 2.0
    assert int_condition_power_weight(power(1), 1, GRID) == pytest.approx(0.5)
    got = int_condition_power_weight(one(), 2, default_grid(12),
                                     force_quadrature=True)
    assert got == pytest.approx(2.0, rel=1e-6)


def test_almost_monotone_constants():
    ai, ad = almost_monotone_constants(one(), GRID)
    assert ai == 1.0 and ad == 1.0
    ai, ad = almost_monotone_constants(power(1), GRID)
    assert ai == 1.0
    assert ad == pytest.approx(1.0 / min(GRID))
    ai, ad = almost_monotone_constants(psi(), GRID)
    assert ai == 1.0
    assert ad > 10  # increasing weight: almost-decreasing constant grows


def test_quotient_weight():
    assert quotient_phi(one()).family == "psi"
    q = quotient_phi(power(0.5))
    # phi_star stays in [1, 3], so the quotient tracks phi within that factor
    for r in (1e-5, 0.01, 0.5, 1.0):
        val = eval_phi(q, r)
        base = eval_phi(power(0.5), r)
        assert base / 3 <= val <= base
    assert eval_phi(q, 1.0) == pytest.approx(eval_phi(power(0.5), 1.0))


def test_classify_regimes():
    assert classify_regime(power(-0.3), GRID).label == "phi_star~phi"
    res = classify_regime(power(-0.3), GRID)
    assert res.sup_star_over_phi <= 4.0
    res = classify_regime(power(0.5), GRID)
    assert res.label == "phi_star~1"
    assert res.sup_star <= 3.0
    res = classify_regime(one(), GRID)
    assert res.label == "neither"
    assert res.quotient_at_rmin < 0.05  # the quotient drains to zero


def test_table_weight_interpolation():
    pts = [(2.0 ** -k, (2.0 ** -k) ** 0.5) for k in range(0, 21, 2)]
    spec = table(pts)
    for r in (1.0, 0.3, 2 ** -7, 2 ** -15):
        assert eval_phi(spec, r) == pytest.approx(r ** 0.5, rel=1e-9)
    # log-linear extrapolation continues the boundary slope
    assert eval_phi(spec, 2.0 ** -25) == pytest.approx(2.0 ** -12.5, rel=1e-6)


def test_table_divergent_condition_flagged():
    pts = [(2.0 ** -k, (2.0 ** -k) ** -0.6) for k in range(0, 21, 2)]
    spec = table(pts)
    assert int_condition_constant(spec, 2, default_grid(8)) == math.inf


def test_phi_report_shape():
    rep = phi_report(power(0.3), ps=(1.0, 2.0), grid=default_grid(20))
    d = rep.to_dict()
    assert d["regime"]["label"] == "phi_star~1"
    assert d["doubling"] >= 1.0
    assert d["almost_increasing"] >= 1.0
    assert d["almost_decreasing"] >= 1.0
    assert float(d["int_condition"]["1.0"]) == pytest.approx(1 / 1.3)


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        doubling_constant(one(), [])
    with pytest.raises(ValueError):
        int_condition_constant(one(), 0.5, GRID)


def test_phi_star_quadrature_memoised(monkeypatch):
    quad = phimod._quad
    calls = []

    def counting_quad(*args):
        calls.append(args)
        return quad(*args)

    monkeypatch.setattr(phimod, "_quad", counting_quad)
    phimod._phi_star_quadrature.cache_clear()
    spec = quotient_phi(powerlog(0.2, 1))
    first = phi_star(spec, 0.01)
    cold = len(calls)
    assert cold > 1  # the quotient's quadrature and its base's, inside it
    assert phi_star(spec, 0.01) == first
    assert len(calls) == cold
    info = phimod._phi_star_quadrature.cache_info()
    assert info.maxsize == phimod.STAR_MEMO_SIZE
    assert info.currsize <= cold


def test_phi_report_cold_and_warm_agree():
    spec = quotient_phi(powerlog(0.2, 1))
    grid = default_grid(10)
    phimod._phi_star_quadrature.cache_clear()
    cold = phi_report(spec, grid=grid).to_dict()
    assert phi_report(spec, grid=grid).to_dict() == cold


def table_reference(points, r):
    """Log-linear interpolation by a linear search over the segments."""
    logs_r = [math.log(p[0]) for p in points]
    logs_v = [math.log(p[1]) for p in points]
    x = math.log(r)
    if x <= logs_r[0]:
        i = 0
    elif x >= logs_r[-1]:
        i = len(points) - 2
    else:
        i = max(j for j in range(len(points) - 1) if logs_r[j] <= x)
    slope = (logs_v[i + 1] - logs_v[i]) / (logs_r[i + 1] - logs_r[i])
    return math.exp(logs_v[i] + slope * (x - logs_r[i]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=1e-9, max_value=1.0),
                          st.floats(min_value=1e-3, max_value=1e3)),
                min_size=2, max_size=8, unique_by=lambda pt: pt[0]),
       st.floats(min_value=1e-12, max_value=1.0))
def test_table_weight_matches_segment_search(points, r):
    logs = sorted(math.log(r) for r, _ in points)
    if len(set(logs)) < len(logs):
        # a zero-width segment: the weight is refused
        with pytest.raises(ValueError, match="same logarithm"):
            table(points)
        return
    spec = table(points)

    def outcome(fn):
        # steep extrapolation overflows
        try:
            return fn()
        except OverflowError as exc:
            return type(exc)

    assert outcome(lambda: eval_phi(spec, r)) \
        == outcome(lambda: table_reference(spec.points, r))
