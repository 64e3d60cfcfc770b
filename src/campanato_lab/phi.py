"""Weight functions on (0,1]: evaluation, growth conditions, and the
upper-integral transform phi_star(r) = 1 + int_r^1 phi(t)/t dt.

Condition constants (doubling, almost monotone, integral conditions) are
suprema over a grid, so they are lower bounds for the analytic constants;
reports label them "measured over grid".  Weight specs are immutable and
hashable, and each spec's evaluator is built once and kept.

One profile describes each weight near 0 (_near_zero): phi(t) is
comparable to t^s log(e/t)^-beta log(e - log t)^-gamma as t -> 0, and an
exact power on (0, k].  The regime label, whether an integral condition
diverges and the conditions' ratio below k all read it.

phi_star is a closed form except for powerlog weights with log factors:
tables integrate piece by piece, and a quotient's is
1 + log phi_star_base(r), since (d/dr) phi_star = -phi(r)/r.  The
quadrature is memoised process-wide by (spec, r), at most STAR_MEMO_SIZE
entries, as a quotient of such a weight asks for its base's phi_star at
the same points many times; the memo returns only what the quadrature
would, so concurrent use is safe.  Both integral conditions are one pass
of Gauss-Legendre panels in log t over the grid, started from the exact
ratio 1/(s a + b) below k or, for log-factor powerlog weights, psi and
quotients, from one adaptive quadrature.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate

from .functions import check_p

QUAD_RELTOL = 1e-9
QUAD_LIMIT = 200
STAR_MEMO_SIZE = 1 << 16  # perfbench/configs/phi_weights.json makes 1,812

PANEL_LOG_WIDTH = 1.0  # the integral conditions' longest panel in log t

_E = math.e


@dataclass(frozen=True)
class PhiSpec:
    """A positive weight on (0,1].

    Families:
      one       -- identically 1
      psi       -- 1/log(e/r), the reciprocal-log weight
      powerlog  -- r^alpha * log(e/r)^-beta * loglog-factor^-gamma
      quotient  -- base / base_star, the multiplier-space weight
      table     -- log-linear interpolation through (r, value) points
    """

    family: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    base: "PhiSpec | None" = None
    points: tuple = ()

    def describe(self):
        if self.family == "powerlog":
            return (f"powerlog(alpha={self.alpha:g}, beta={self.beta:g}, "
                    f"gamma={self.gamma:g})")
        if self.family == "quotient":
            return f"quotient[{self.base.describe()}]"
        if self.family == "table":
            return f"table[{len(self.points)} points]"
        return self.family


def one():
    return PhiSpec("one")


def psi():
    return PhiSpec("psi")


def powerlog(alpha, beta=0.0, gamma=0.0):
    return PhiSpec("powerlog", alpha=float(alpha), beta=float(beta),
                   gamma=float(gamma))


def power(alpha):
    return powerlog(alpha)


def table(points):
    pts = tuple(sorted((float(r), float(v)) for r, v in points))
    if len(pts) < 2:
        raise ValueError("table weight needs at least two points")
    for r, v in pts:
        if not 0 < r <= 1:
            raise ValueError(f"table point r={r} outside (0,1]")
        if not 0 < v < math.inf:
            raise ValueError(f"table value {v} at r={r} is not positive "
                             "and finite")
    for (r0, _), (r1, _) in zip(pts, pts[1:]):
        if math.log(r0) == math.log(r1):
            raise ValueError(f"table points r={r0!r} and r={r1!r} have the "
                             "same logarithm")
    return PhiSpec("table", points=pts)


def quotient_phi(spec):
    """The derived weight r -> phi(r)/phi_star(r).

    For the constant weight this is exactly the reciprocal-log weight, so
    that case returns the closed form instead of a quadrature-backed spec.
    """
    if spec.family == "one":
        return psi()
    return PhiSpec("quotient", base=spec)


def eval_phi(spec, r):
    """phi(r) for r in (0,1].  Exact int 1 for the constant family."""
    r = _check_r(r)
    return evaluator(spec)(r)


def _check_r(r):
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r={r!r} outside (0,1]")
    return r


@lru_cache(maxsize=256)
def evaluator(spec):
    """The function r -> phi(r) of one weight, for a float r in (0,1].

    Built once per spec, so the family dispatch and the table's logarithms
    stay out of the quadrature integrands; callers check r.
    """
    if spec.family == "one":
        return lambda r: 1
    if spec.family == "psi":
        return lambda r: 1.0 / (1.0 - math.log(r))
    if spec.family == "powerlog":
        alpha, beta, gamma = spec.alpha, spec.beta, spec.gamma

        def powerlog_phi(r):
            val = 1.0
            if alpha:
                val *= r ** alpha
            if beta:
                # log(e/r) = 1 - log r
                val *= (1.0 - math.log(r)) ** (-beta)
            if gamma:
                # inner constant e^e keeps the factor positive on all of (0,1]
                val *= math.log(_E - math.log(r)) ** (-gamma)
            return val

        return powerlog_phi
    if spec.family == "quotient":
        base, base_phi = spec.base, evaluator(spec.base)
        return lambda r: float(base_phi(r)) / phi_star(base, r)
    if spec.family == "table":
        logs_r, logs_v, slopes = _table_logs(spec.points)

        def table_phi(r):
            x = math.log(r)
            i = _table_segment(logs_r, x)
            return math.exp(logs_v[i] + slopes[i] * (x - logs_r[i]))

        return table_phi
    raise ValueError(f"unknown weight family {spec.family!r}")


@lru_cache(maxsize=256)
def _table_logs(pts):
    """log r and log v of each table point, and the slope of each segment
    in log-log coordinates."""
    logs_r = [math.log(p[0]) for p in pts]
    logs_v = [math.log(p[1]) for p in pts]
    slopes = [(logs_v[i + 1] - logs_v[i]) / (logs_r[i + 1] - logs_r[i])
              for i in range(len(pts) - 1)]
    return logs_r, logs_v, slopes


def _table_segment(logs_r, x):
    """The segment whose log-linear piece holds log r = x: log-linear
    interpolation between the points, extended past both ends."""
    if x <= logs_r[0]:
        return 0
    if x >= logs_r[-1]:
        return len(logs_r) - 2
    return bisect.bisect_right(logs_r, x) - 1


# -- phi_star ----------------------------------------------------------------


def phi_star(spec, r, force_quadrature=False):
    """1 + int_r^1 phi(t)/t dt, by closed form when available.

    The quadrature path (the only one when force_quadrature) integrates
    phi(e^-s) on [0, log(1/r)] (the log substitution removes the 1/t
    singularity scale).  Non-convergent quadrature is reported as +inf.
    """
    r = _check_r(r)
    if r == 1.0:
        return 1.0
    if not force_quadrature:
        closed = _phi_star_closed(spec, r)
        if closed is not None:
            return closed
    return _phi_star_quadrature(spec, r)


@lru_cache(maxsize=STAR_MEMO_SIZE)
def _phi_star_quadrature(spec, r):
    phi = evaluator(spec)

    def integrand(s):
        return float(phi(math.exp(-s)))

    value, ok = _quad(integrand, 0.0, math.log(1.0 / r))
    return 1.0 + value if ok else math.inf


def _phi_star_closed(spec, r):
    if spec.family == "one":
        return 1.0 + math.log(1.0 / r)
    if spec.family == "psi":
        # int_r^1 dt / (t log(e/t)) = log(log(e/r))
        return 1.0 + math.log(1.0 - math.log(r))
    if spec.family == "powerlog" and spec.beta == 0.0 and spec.gamma == 0.0:
        a = spec.alpha
        if a == 0.0:
            return 1.0 + math.log(1.0 / r)
        return 1.0 + (1.0 - r ** a) / a
    if spec.family == "quotient":
        # (d/dt) phi_star_base = -phi_base(t)/t, so the quotient's
        # integrand phi_base / (t phi_star_base) is -d log phi_star_base
        return 1.0 + math.log(phi_star(spec.base, r))
    if spec.family == "table":
        return _table_phi_star(spec, r)
    return None


def _table_phi_star(spec, r):
    """1 + int_r^1 phi(t)/t dt of a table weight, piece by piece.

    On a piece [a, b] of log-slope s, phi(t) = phi(a) (t/a)^s, so the
    piece integrates to phi(a) expm1(s L) / s with L = log(b/a), and to
    phi(a) L when s = 0.  An overflow gives +inf.
    """
    phi, (logs_r, _, slopes) = evaluator(spec), _table_logs(spec.points)
    cuts = [r] + [k for k, _ in spec.points if r < k < 1.0] + [1.0]
    total = 0.0
    try:
        for a, b in zip(cuts, cuts[1:]):
            s = slopes[_table_segment(logs_r, math.log(a))]
            length = math.log(b / a)
            total += phi(a) * (math.expm1(s * length) / s if s else length)
    except OverflowError:
        return math.inf
    return 1.0 + total if math.isfinite(total) else math.inf


def _quad(fn, a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, err = integrate.quad(fn, a, b, epsabs=1e-14,
                                        epsrel=QUAD_RELTOL, limit=QUAD_LIMIT)
        except (integrate.IntegrationWarning, OverflowError):
            return math.inf, False
    if not math.isfinite(value) or err > max(1e-6 * abs(value), 1e-10):
        return value, False
    return value, True


# -- condition constants ------------------------------------------------------


def default_grid(k_max=40):
    """Geometric grid 2^-k (k = 0..k_max) with the 3/4-offset points
    0.75 * 2^-k (k < k_max).

    Matches dyadic tree measures so tree computations and weight reports
    line up; sorted ascending.
    """
    pts = {0.5 ** k for k in range(k_max + 1)}
    pts |= {0.75 * 0.5 ** k for k in range(k_max)}
    return tuple(sorted(pts))


def doubling_constant(spec, grid):
    """sup of phi(r)/phi(s) over grid pairs with r/s in [1/2, 2].

    A lower bound for the analytic doubling constant; exact for monotone
    families on geometric grids.
    """
    grid, phi = np.array(_check_grid(grid)), evaluator(spec)
    vals = np.array([float(phi(r)) for r in grid.tolist()])  # r in (0,1]
    # the pairs (i, j): i <= j while grid[j] <= 2 grid[i] + 1e-15, run i
    # of the repeated i starting at searchsorted(i, i)
    first = np.arange(len(grid))
    i = np.repeat(first, np.searchsorted(
        grid, 2.0 * grid + 1e-15, side="right") - first)
    ratio = vals[i] / vals[i + np.arange(len(i)) - np.searchsorted(i, i)]
    # fmax skips a NaN ratio, as max(worst, ratio, 1 / ratio) did
    return float(np.fmax.reduce(np.concatenate([ratio, 1.0 / ratio]),
                                initial=1.0))


def almost_monotone_constants(spec, grid):
    """(almost-increasing, almost-decreasing) constants over the grid.

    First component: sup of phi(r)/phi(s) over r <= s.  Second: sup of
    phi(s)/phi(r) over r <= s.  A genuinely monotone weight scores 1 on
    the matching side.
    """
    grid = _check_grid(grid)
    vals = [float(eval_phi(spec, r)) for r in grid]
    ai = ad = 1.0
    run_max = run_min = vals[0]
    for v in vals[1:]:
        ai = max(ai, run_max / v)
        ad = max(ad, v / run_min)
        run_max = max(run_max, v)
        run_min = min(run_min, v)
    return ai, ad


def int_condition_constant(spec, p, grid, force_quadrature=False):
    """sup over the grid of (int_0^r phi^p dt) / (r phi(r)^p); +inf when
    the integral diverges (the growth condition fails)."""
    return _int_condition(spec, check_p(p), 1.0, grid, force_quadrature)


def int_condition_power_weight(spec, p, grid, force_quadrature=False):
    """sup over the grid of (int_0^r phi(t) t^(1/p-1) dt) / (phi(r) r^(1/p))."""
    return _int_condition(spec, 1.0, check_p(p), grid, force_quadrature)


def _int_condition(spec, a, q, grid, force_quadrature):
    """sup over the sorted grid of I(r) / g(r), where g(t) = phi(t)^a t^b
    with b = 1/q and I(r) = int_0^r g(t) dt/t, in one pass.

    +inf flags a divergent I (_diverges).  Where phi = c t^s on (0, k]
    (_near_zero), I/g = 1/(s a + b): the answer when k covers the grid,
    else the start of the pass at min(r0, k), r0 the smallest grid point.
    Otherwise, and under force_quadrature, I(r0)/g(r0) is one adaptive
    quadrature of g(r0 e^-s)/g(r0) over s in [0, inf), of order one, so
    its absolute tolerance acts as a relative one.  Gauss-Legendre panels
    in log t (_log_panels) then add I between neighbours.  A tail the
    quadrature cannot resolve, or an overflow, also reads +inf.
    """
    grid = _check_grid(grid)
    b = 1.0 / q
    if _diverges(spec, a, b):
        return math.inf
    phi, r0 = evaluator(spec), grid[0]
    slope, _, _, k = _near_zero(spec)

    def g(t):
        return float(phi(t)) ** a * t ** b

    if k > 0.0 and not force_quadrature:
        worst = q / (slope * a * q + 1.0)
        if k >= grid[-1]:
            return worst
        value = worst * g(min(r0, k))
        if k < r0:  # the ratio at k is no grid value
            grid, worst = [k] + grid, 0.0
    else:
        phi0 = float(phi(r0))

        def tail(s):  # g(r0 e^-s) / g(r0)
            t = r0 * math.exp(-s)
            if t <= 0.0:
                return 0.0
            return (float(phi(t)) / phi0) ** a * math.exp(-b * s)

        worst, ok = _quad(tail, 0.0, math.inf)
        if not ok:
            return math.inf
        value = worst * g(r0)
    while spec.family == "quotient":  # a quotient has its base's knots
        spec = spec.base
    logs_k = [math.log(x) for x, _ in spec.points]
    try:
        for lo, hi in zip(grid, grid[1:]):
            value += _log_panels(g, math.log(lo), math.log(hi), logs_k)
            if not math.isfinite(value):
                return math.inf
            worst = max(worst, value / g(hi))
    except OverflowError:
        return math.inf
    return worst


def _near_zero(spec):
    """phi's profile at 0, (s, beta, gamma, k): phi(t) is comparable to
    t^s log(e/t)^-beta log(e - log t)^-gamma as t -> 0, and phi = c t^s
    exactly on (0, k] (k = 0: on no interval).  A table is its first
    segment's power up to its second point, or on all of (0, 1] with two
    points.  A quotient gets (0, 0, 0, 0), which says only that it is
    bounded near 0; _diverges asks its base at b = 0.
    """
    if spec.family == "one":
        return 0.0, 0.0, 0.0, 1.0
    if spec.family == "psi":
        return 0.0, 1.0, 0.0, 0.0
    if spec.family == "powerlog":
        exact = spec.beta == 0.0 and spec.gamma == 0.0
        return spec.alpha, spec.beta, spec.gamma, 1.0 if exact else 0.0
    if spec.family == "table":
        pts = spec.points
        return (_table_logs(pts)[2][0], 0.0, 0.0,
                pts[1][0] if len(pts) > 2 else 1.0)
    return 0.0, 0.0, 0.0, 0.0


def _diverges(spec, a, b):
    """Whether int_0^r phi(t)^a t^b dt/t diverges, for b >= 0: with
    e = s a + b from phi's profile at 0, for e < 0, and for e = 0 unless
    the log factors decay fast enough.  At b = 0 (and a = 1) a quotient's
    integral is log phi_star_base, unbounded iff the base's phi_star is.
    """
    if spec.family == "quotient" and b == 0.0:
        return _diverges(spec.base, 1.0, 0.0)
    s, beta, gamma, _ = _near_zero(spec)
    e, beta, gamma = s * a + b, beta * a, gamma * a
    return e < 0.0 or (e == 0.0 and not (beta > 1.0
                                         or (beta == 1.0 and gamma > 1.0)))


@lru_cache(maxsize=1)
def _gl_rule():
    """20 Gauss-Legendre nodes and weights mapped to [0, 1].  Built on
    first use: leggauss's eigensolver adds about 1 MB to the process."""
    return tuple((x / 2 + 0.5, w / 2)
                 for x, w in zip(*(a.tolist() for a in leggauss(20))))


def _log_panels(integrand, lo, hi, logs_k):
    """int over log t in [lo, hi] of integrand(t): Gauss-Legendre panels
    at most PANEL_LOG_WIDTH long, none straddling a knot in logs_k."""
    cuts = [lo] + [x for x in logs_k if lo < x < hi] + [hi]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        n = max(1, math.ceil((b - a) / PANEL_LOG_WIDTH))
        h = (b - a) / n
        for j in range(n):
            start = a + j * h
            total += h * sum(w * integrand(math.exp(start + x * h))
                             for x, w in _gl_rule())
    return total


def _check_grid(grid):
    grid = sorted(float(r) for r in grid)
    if not grid:
        raise ValueError("grid is empty")
    if not all(0.0 < r <= 1.0 for r in grid):  # NaN included
        raise ValueError("grid points must lie in (0,1]")
    return grid


# -- regime classification ----------------------------------------------------

REGIME_EQUIV_PHI = "phi_star~phi"
REGIME_EQUIV_ONE = "phi_star~1"
REGIME_NEITHER = "neither"


@dataclass(frozen=True)
class RegimeResult:
    label: str
    sup_star_over_phi: float
    sup_star: float
    ratio_at_rmin: float
    star_at_rmin: float
    quotient_at_rmin: float

    def to_dict(self):
        return asdict(self)


def classify_regime(spec, grid):
    """Whether phi_star tracks phi, stays bounded, or neither, from phi's
    profile at 0 (_near_zero); the grid gives only the measured fields.

    phi_star ~ 1 iff int_0^1 phi dt/t converges.  Else phi_star ~ phi iff
    phi's power s at 0 is negative (phi_star ~ phi/|s|), which a quotient,
    bounded near 0, never is.  Else neither: phi_star grows without bound
    but slower than any power, as 1 + log(1/r) does for phi = 1.
    """
    grid = _check_grid(grid)
    stars = [phi_star(spec, r) for r in grid]
    phis = [float(eval_phi(spec, r)) for r in grid]
    ratios = [s / v for s, v in zip(stars, phis)]
    if not _diverges(spec, 1.0, 0.0):
        label = REGIME_EQUIV_ONE
    elif _near_zero(spec)[0] < 0.0:
        label = REGIME_EQUIV_PHI
    else:
        label = REGIME_NEITHER
    return RegimeResult(
        label=label,
        sup_star_over_phi=max(ratios),
        sup_star=max(stars),
        ratio_at_rmin=ratios[0],
        star_at_rmin=stars[0],
        quotient_at_rmin=phis[0] / stars[0],
    )


# -- report -------------------------------------------------------------------


@dataclass
class PhiReport:
    spec: PhiSpec
    doubling: float
    almost_increasing: float
    almost_decreasing: float
    int_condition: dict
    int_condition_power: dict
    regime: RegimeResult
    grid: tuple = field(repr=False, default=())

    def to_dict(self):
        d = {
            "phi": self.spec.describe(),
            "semantics": "constants measured over grid (lower bounds)",
            "doubling": self.doubling,
            "almost_increasing": self.almost_increasing,
            "almost_decreasing": self.almost_decreasing,
            "int_condition": {str(p): v for p, v in self.int_condition.items()},
            "int_condition_power_weight": {str(p): v for p, v
                                           in self.int_condition_power.items()},
            "regime": self.regime.to_dict(),
            "grid_size": len(self.grid),
            "grid_min": min(self.grid) if self.grid else None,
        }
        if self.spec.family == "powerlog" and self.spec.gamma:
            d["notes"] = ("log-log factor evaluated with inner constant e^e "
                          "to stay positive at r = 1")
        return d


def phi_report(spec, ps=(1.0, 2.0), grid=None):
    if grid is None:
        grid = default_grid()
    grid = tuple(_check_grid(grid))
    increasing, decreasing = almost_monotone_constants(spec, grid)
    return PhiReport(
        spec=spec,
        doubling=doubling_constant(spec, grid),
        almost_increasing=increasing,
        almost_decreasing=decreasing,
        int_condition={p: int_condition_constant(spec, p, grid) for p in ps},
        int_condition_power={p: int_condition_power_weight(spec, p, grid)
                             for p in ps},
        regime=classify_regime(spec, grid),
        grid=grid,
    )
