"""Weight-function evaluation, transforms, and condition constants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

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


RMIN = GRID[0]
S0 = math.log(2) / math.log(1000)  # phi(t) = t^S0 for the table below


REGIME_CASES = [
    # phi_star = 1 + log(1/r) -> inf, and phi / phi_star drains to 0
    (one(), "neither", lambda res: res.quotient_at_rmin < 0.05
     and res.star_at_rmin == pytest.approx(1 - math.log(RMIN))),
    # phi_star = 1 + log(1 - log r) -> inf
    (psi(), "neither", lambda res: res.star_at_rmin
     == pytest.approx(1 + math.log(1 - math.log(RMIN)))),
    # phi_star = 1 + log phi_star_psi -> inf
    (quotient_phi(psi()), "neither", lambda res: res.star_at_rmin
     == pytest.approx(1 + math.log(1 + math.log(1 - math.log(RMIN))))),
    # int_r^1 phi dt/t >= log log(e - log r), since e + u >= 1 + u
    (powerlog(0, 1, 1), "neither", lambda res: res.star_at_rmin
     >= 1 + math.log(math.log(math.e - math.log(RMIN)))),
    # phi_star = 1 + (1 - r^0.01) / 0.01 <= 101
    (power(0.01), "phi_star~1", lambda res: res.sup_star <= 101),
    # phi_star / phi = r^0.01 + 100 (1 - r^0.01) <= 100
    (power(-0.01), "phi_star~phi", lambda res: res.sup_star_over_phi <= 100),
    (table([(0.001, 0.5), (1, 1)]), "phi_star~1",
     lambda res: res.sup_star <= 1 + 1 / S0),
    (power(0.3), "phi_star~1", lambda res: res.sup_star <= 1 + 1 / 0.3),
    (power(-0.3), "phi_star~phi",
     lambda res: res.sup_star_over_phi <= 1 / 0.3),
    (power(0.5), "phi_star~1", lambda res: res.sup_star <= 3.0),
    # phi <= t^0.2, so phi_star <= 1 + 5
    (powerlog(0.2, 1), "phi_star~1", lambda res: res.sup_star <= 6.0),
    (quotient_phi(powerlog(0.2, 1)), "phi_star~1",
     lambda res: res.sup_star <= 1 + math.log(6.0)),
    # phi_star = 1 + log(1 + (r^-0.3 - 1) / 0.3) -> inf
    (quotient_phi(power(-0.3)), "neither", lambda res: res.star_at_rmin
     == pytest.approx(1 + math.log(1 + (RMIN ** -0.3 - 1) / 0.3))),
]


@pytest.mark.parametrize("spec,label,check", REGIME_CASES,
                         ids=[case[0].describe() for case in REGIME_CASES])
def test_classify_regimes(spec, label, check):
    res = classify_regime(spec, GRID)
    assert res.label == label
    assert check(res)
    # the label is read off phi at 0, not off the grid's depth
    assert classify_regime(spec, default_grid(8)).label == label


def test_table_weight_interpolation():
    pts = [(2.0 ** -k, (2.0 ** -k) ** 0.5) for k in range(0, 21, 2)]
    spec = table(pts)
    for r in (1.0, 0.3, 2 ** -7, 2 ** -15):
        assert eval_phi(spec, r) == pytest.approx(r ** 0.5, rel=1e-9)
    # log-linear extrapolation continues the boundary slope
    assert eval_phi(spec, 2.0 ** -25) == pytest.approx(2.0 ** -12.5, rel=1e-6)


def test_table_nan_value_rejected():
    # a NaN weight would make every phi value of its segments NaN
    with pytest.raises(ValueError, match=r"r=0\.5"):
        table([(0.5, math.nan), (1, 1)])


def test_table_infinite_value_rejected():
    with pytest.raises(ValueError, match=r"r=0\.5"):
        table([(0.5, math.inf), (1, 1)])


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
    # every point is checked, a NaN between valid points too
    for bad in ([0.5, math.nan, 1.0], [0.25, 0.0, 1.0], [0.5, 1.5]):
        with pytest.raises(ValueError, match="must lie in"):
            doubling_constant(psi(), bad)


def test_phi_star_quadrature_memoised(monkeypatch):
    quad = phimod._quad
    calls = []

    def counting_quad(*args):
        calls.append(args)
        return quad(*args)

    monkeypatch.setattr(phimod, "_quad", counting_quad)
    phimod._phi_star_quadrature.cache_clear()
    base = powerlog(0.2, 1)
    first = phi_star(base, 0.01)
    assert len(calls) == 1  # cold: one quadrature
    assert phi_star(base, 0.01) == first
    assert len(calls) == 1  # warm: none
    # a quotient's phi_star is a closed form in its base's: it runs no
    # quadrature beyond the base's, and that one is memoised too
    quot = quotient_phi(base)
    assert phi_star(quot, 0.01) == 1.0 + math.log(first)
    assert len(calls) == 1
    phi_star(quot, 0.02)
    phi_star(base, 0.02)
    assert len(calls) == 2
    info = phimod._phi_star_quadrature.cache_info()
    assert info.maxsize == phimod.STAR_MEMO_SIZE
    assert info.currsize == 2


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


TWO_POINT = table([(0.001, 0.5), (1, 1)])
FOUR_POINT = table([(0.01, 2), (0.1, 0.5), (0.5, 1.5), (1, 1)])


@pytest.mark.parametrize("base", [powerlog(0.2, 1), powerlog(0.5, 2, 1),
                                  TWO_POINT])
def test_quotient_phi_star_closed_form_matches_nested_quadrature(base):
    spec = quotient_phi(base)
    for r in (1e-6, 1e-4, 0.01, 0.3, 0.9, 1.0):
        closed = phi_star(spec, r)
        nested = phi_star(spec, r, force_quadrature=True)
        assert abs(closed - nested) <= 1e-9 * closed


def piecewise_quad_phi_star(spec, r):
    """1 + int_r^1 phi(t)/t dt by _quad in u = log(1/t), split at the
    table's knots and into pieces at most one unit long."""
    phi = phimod.evaluator(spec)
    cuts = {0.0, math.log(1.0 / r)}
    cuts |= {math.log(1.0 / k) for k, _ in spec.points if r < k < 1.0}
    cuts = sorted(cuts)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        n = math.ceil(b - a)
        for j in range(n):
            lo, hi = a + (b - a) * j / n, a + (b - a) * (j + 1) / n
            value, ok = phimod._quad(lambda u: phi(math.exp(-u)), lo, hi)
            assert ok
            total += value
    return 1.0 + total


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 36), min_size=2, max_size=5, unique=True),
       st.data())
def test_table_phi_star_closed_form_matches_piecewise_quad(exponents, data):
    # values drawn from a short list repeat, so flat (slope 0) pieces occur
    values = st.sampled_from((0.25, 0.5, 1.0, 3.0)) \
        | st.floats(min_value=0.1, max_value=10.0)
    spec = table([(2.0 ** -k, data.draw(values)) for k in exponents])
    r = data.draw(st.floats(min_value=2.0 ** -40, max_value=1.0))
    closed = phi_star(spec, r)
    assert closed == phimod._phi_star_closed(spec, r)
    reference = piecewise_quad_phi_star(spec, r)
    assert abs(closed - reference) <= 1e-12 * reference


def test_table_phi_star_flat_piece():
    spec = table([(0.25, 2.0), (0.5, 2.0), (1.0, 1.0)])
    # phi = 2 (log-slope 0) below 1/2 and 1/t on [1/2, 1]
    expected = 1.0 + 2.0 * math.log(8.0) + 1.0
    assert phi_star(spec, 2.0 ** -4) == pytest.approx(expected, rel=1e-15)


def per_point_int_condition(spec, p, grid, power_weight):
    """Either integral condition with one adaptive quadrature from 0 to
    each grid point r, in t = r e^-s, of the integrand over its value at
    r: the ratio at r itself."""
    phi = phimod.evaluator(spec)
    # both conditions diverge when the first table segment's log-slope s
    # has s p <= -1
    if spec.family == "table":
        (r0, v0), (r1, v1) = spec.points[:2]
        slope = ((math.log(v1) - math.log(v0))
                 / (math.log(r1) - math.log(r0)))
        if slope * p <= -1.0:
            return math.inf
    a, b = (1.0, 1.0 / p) if power_weight else (p, 1.0)
    worst = 0.0
    for r in sorted(grid):

        def integrand(s, r=r, phi_r=float(phi(r))):
            t = r * math.exp(-s)
            if t <= 0.0:
                return 0.0
            return (float(phi(t)) / phi_r) ** a * math.exp(-b * s)

        value, ok = phimod._quad(integrand, 0.0, math.inf)
        if not ok:
            return math.inf
        worst = max(worst, value)
    return worst


# Weights on which the per-point quadrature from 0 either converges or
# flags its divergence.  power(-0.7) is left out: at p = 2 its integrand
# grows like e^(0.4 s) until t underflows, a finite value that the
# per-point quadrature does not flag.
CONDITION_WEIGHTS = [
    one(), psi(), power(0.5), power(-0.3), power(-0.5), powerlog(0.2, 1),
    powerlog(0.5, 2, 1), powerlog(0, 0, 3), TWO_POINT, FOUR_POINT,
    table([(1e-4, 3.0), (0.01, 3.0), (0.2, 0.5), (1, 2)]),
    quotient_phi(powerlog(0.2, 1)), quotient_phi(FOUR_POINT),
    quotient_phi(psi()), quotient_phi(power(0.5)), quotient_phi(power(-0.7)),
]
# the last grid starts above the second point of each table with more
# than two points, so a closed-form pass starts below the grid
CONDITION_GRIDS = [default_grid(), default_grid(12), (1e-6, 1e-3, 0.1, 1.0),
                   (0.3, 0.6, 1.0)]


def pair_loop_doubling(spec, grid):
    """doubling_constant as the loop over grid pairs (r, s), r <= s <= 2 r:
    the reference of the vectorised pairs."""
    grid = sorted(float(r) for r in grid)
    vals = [float(eval_phi(spec, r)) for r in grid]
    worst = 1.0
    for i, r in enumerate(grid):
        for j in range(i, len(grid)):
            if grid[j] > 2.0 * r + 1e-15:
                break
            ratio = vals[i] / vals[j]
            worst = max(worst, ratio, 1.0 / ratio)
    return worst


@pytest.mark.parametrize("spec", CONDITION_WEIGHTS,
                         ids=phimod.PhiSpec.describe)
def test_doubling_constant_matches_the_pair_loop(spec):
    # the same quotients and the same max, so the same float
    for grid in CONDITION_GRIDS + [GRID[::-1], (0.5, 0.5, 1.0), (1.0,)]:
        got = doubling_constant(spec, grid)
        assert type(got) is float
        assert got == pair_loop_doubling(spec, grid), grid


@pytest.mark.parametrize("spec", CONDITION_WEIGHTS,
                         ids=phimod.PhiSpec.describe)
def test_cumulative_int_conditions_match_per_point_quadrature(spec):
    for p in (1, 1.5, 2):
        for grid in CONDITION_GRIDS:
            for fn, power_weight in ((int_condition_constant, False),
                                     (int_condition_power_weight, True)):
                got = fn(spec, p, grid, force_quadrature=True)
                want = per_point_int_condition(spec, p, grid, power_weight)
                assert math.isinf(got) == math.isinf(want), (fn, p, grid)
                if math.isfinite(want):
                    assert abs(got - want) <= 1e-9 * want, (fn, p, grid)


@pytest.mark.parametrize("spec,p,power_weight", [
    (power(-0.5), 2, False),   # int_0^r dt / t
    (power(-0.7), 1.5, False),
    (power(-0.7), 1.5, True),
])
def test_cumulative_int_conditions_flag_divergence(spec, p, power_weight):
    fn = int_condition_power_weight if power_weight else int_condition_constant
    for grid in CONDITION_GRIDS:
        assert fn(spec, p, grid, force_quadrature=True) == math.inf
        assert per_point_int_condition(spec, p, grid, power_weight) == math.inf


@pytest.mark.parametrize("spec", [w for w in CONDITION_WEIGHTS
                                  if w.family == "table"],
                         ids=phimod.PhiSpec.describe)
def test_table_int_conditions_closed_form_match_quadrature(spec,
                                                          monkeypatch):
    cases = [(fn, p, grid) for fn in (int_condition_constant,
                                      int_condition_power_weight)
             for p in (1, 1.5, 2) for grid in CONDITION_GRIDS]
    forced = [fn(spec, p, grid, force_quadrature=True)
              for fn, p, grid in cases]

    def no_quad(*args):
        raise AssertionError("a table ran an adaptive quadrature")

    # below its second point a table is an exact power: no quadrature
    monkeypatch.setattr(phimod, "_quad", no_quad)
    for (fn, p, grid), want in zip(cases, forced):
        got = fn(spec, p, grid)
        assert math.isinf(got) == math.isinf(want), (fn, p, grid)
        if math.isfinite(want):
            assert abs(got - want) <= 1e-9 * want, (fn, p, grid)


@pytest.mark.parametrize("s0", [-0.97, -0.98, -0.99])
def test_table_int_condition_steep_tail(s0):
    # phi(t) = t^s0 on (0, 1]: int_0^r t^s0 dt / (r r^s0) = 1 / (1 + s0)
    spec = table([(0.001, 0.001 ** s0), (1, 1)])
    got = int_condition_constant(spec, 1, default_grid())
    assert got == pytest.approx(1 / (1 + s0), rel=1e-12)


def test_int_condition_tail_relative_accuracy():
    # phi / phi_star of r^-0.7 is 0.7 / (1 - 0.3 r^0.7), increasing from
    # 0.7, so the ratio at r is at least 0.7 / phi(r) = 1 - 0.3 r^0.7
    grid = default_grid()
    got = int_condition_constant(quotient_phi(power(-0.7)), 1, grid)
    assert 1.0 - 0.3 * grid[0] ** 0.7 <= got <= 1.0


def test_int_condition_power_weight_flags_log_divergence():
    # phi(t) t^(1/p - 1) = 1/t for alpha = -1/2 and p = 2
    assert int_condition_power_weight(power(-0.5), 2, default_grid(12),
                                      force_quadrature=True) == math.inf


@pytest.mark.parametrize("r", [2.0 ** -40, 2.0 ** -20, 0.5])
def test_psi_int_condition_matches_exponential_integral(r):
    # with L = log(e/r), int_0^r dt / log(e/t) = r e^L E_1(L), so the
    # ratio at r is L e^L E_1(L)
    L = 1.0 - math.log(r)
    want = L * math.exp(L) * float(special.exp1(L))
    got = int_condition_constant(psi(), 1, (r,))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("spec,p,fn", [
    # alpha a + b = 0, and the log factors do not decay fast enough
    (power(-0.5), 2, int_condition_constant),
    (power(-0.5), 2, int_condition_power_weight),
    (powerlog(-1, 1), 1, int_condition_constant),
    (powerlog(-1, 1, 1), 1, int_condition_constant),
])
def test_int_condition_boundary_divergence(spec, p, fn, force):
    assert fn(spec, p, default_grid(12), force_quadrature=force) == math.inf


@pytest.mark.xfail(strict=True, reason="the tail decays only like s^-1.5, "
                   "which the adaptive quadrature does not resolve")
def test_int_condition_slowly_convergent_boundary():
    # phi(t) = 1 / (t log(e/t)^1.5): with L = log(e/r), I(r) = 2 / sqrt(L)
    # and phi(r) r = L^-1.5, so the ratio is 2L, largest at 2^-40
    want = 2.0 * (1.0 - math.log(2.0 ** -40))
    got = int_condition_constant(powerlog(-1, 1.5), 1, default_grid())
    assert abs(got - want) <= 1e-9 * want
