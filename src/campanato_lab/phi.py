"""Weight functions on (0,1]: evaluation, growth conditions, and the
upper-integral transform phi_star(r) = 1 + int_r^1 phi(t)/t dt.

Condition constants (doubling, almost monotone, integral conditions) are
suprema over a grid, so they are lower bounds for the analytic constants;
reports label them "measured over grid".  Weight specs are immutable and
hashable, and each spec's evaluator is built once and kept.  The
quadrature branch of phi_star is memoised process-wide, keyed by
(spec, r) and bounded by STAR_MEMO_SIZE entries: a quotient weight's
integrands ask for its base's phi_star at the same points many times,
and each is one quadrature of about 100 integrand calls.  Closed forms
are not memoised.  Evaluation stays pure, since the memo only returns
what the quadrature would, so concurrent use is safe; two threads
missing on the same key at once both integrate and store equal values.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

from scipy import integrate

QUAD_RELTOL = 1e-9
QUAD_LIMIT = 200
STAR_MEMO_SIZE = 1 << 16  # perfbench/configs/phi_weights.json makes 19,113

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
        if v <= 0:
            raise ValueError(f"table value {v} at r={r} is not positive")
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
        return _table_evaluator(spec.points)
    raise ValueError(f"unknown weight family {spec.family!r}")


def _table_evaluator(pts):
    """Log-linear interpolation through the points, extended linearly in
    log-log coordinates past both ends."""
    logs_r = [math.log(p[0]) for p in pts]
    logs_v = [math.log(p[1]) for p in pts]
    last = len(pts) - 2

    def table_phi(r):
        x = math.log(r)
        if x <= logs_r[0]:
            i = 0
        elif x >= logs_r[-1]:
            i = last
        else:
            i = bisect.bisect_right(logs_r, x) - 1
        slope = (logs_v[i + 1] - logs_v[i]) / (logs_r[i + 1] - logs_r[i])
        return math.exp(logs_v[i] + slope * (x - logs_r[i]))

    return table_phi


def _table_zero_slope(spec):
    """Asymptotic power of a table weight as r -> 0 (first segment's slope)."""
    (r0, v0), (r1, v1) = spec.points[0], spec.points[1]
    return (math.log(v1) - math.log(v0)) / (math.log(r1) - math.log(r0))


# -- phi_star ----------------------------------------------------------------


def phi_star(spec, r, force_quadrature=False):
    """1 + int_r^1 phi(t)/t dt, by closed form when available.

    The quadrature path integrates phi(e^-s) on [0, log(1/r)] (the log
    substitution removes the 1/t singularity scale).  Non-convergent
    quadrature is reported as +inf.
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
    return None


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


def default_grid(k_max=40, densify=True):
    """Geometric grid 2^-k (k = 0..k_max), optionally with 3/4-offset points.

    Matches dyadic tree measures so tree computations and weight reports
    line up; sorted ascending.
    """
    pts = {0.5 ** k for k in range(k_max + 1)}
    if densify:
        pts |= {0.75 * 0.5 ** k for k in range(k_max)}
    return tuple(sorted(pts))


def doubling_constant(spec, grid):
    """sup of phi(r)/phi(s) over grid pairs with r/s in [1/2, 2].

    A lower bound for the analytic doubling constant; exact for monotone
    families on geometric grids.
    """
    grid = _check_grid(grid)
    vals = [float(eval_phi(spec, r)) for r in grid]
    worst = 1.0
    for i, r in enumerate(grid):
        for j in range(i, len(grid)):
            if grid[j] > 2.0 * r + 1e-15:
                break
            ratio = vals[i] / vals[j]
            worst = max(worst, ratio, 1.0 / ratio)
    return worst


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
    """sup over the grid of (int_0^r phi^p dt) / (r phi(r)^p).

    +inf flags a divergent lower integral (the growth condition fails).
    """
    _check_p(p)
    grid = _check_grid(grid)
    if not force_quadrature:
        if spec.family == "one":
            return 1.0
        if spec.family == "powerlog" and spec.beta == 0.0 and spec.gamma == 0.0:
            a = spec.alpha * p
            return math.inf if a <= -1.0 else 1.0 / (a + 1.0)
    if spec.family == "table" and _table_zero_slope(spec) * p <= -1.0:
        return math.inf
    phi = evaluator(spec)
    worst = 0.0
    for r in grid:
        denom = r * float(eval_phi(spec, r)) ** p

        def integrand(s, r=r):
            t = r * math.exp(-s)
            if t <= 0.0:
                return 0.0
            return float(phi(t)) ** p * r * math.exp(-s)

        value, ok = _quad(integrand, 0.0, math.inf)
        if not ok:
            return math.inf
        worst = max(worst, value / denom)
    return worst


def int_condition_power_weight(spec, p, grid, force_quadrature=False):
    """sup over the grid of (int_0^r phi(t) t^(1/p-1) dt) / (phi(r) r^(1/p))."""
    _check_p(p)
    grid = _check_grid(grid)
    if not force_quadrature:
        if spec.family == "one":
            return float(p)
        if spec.family == "powerlog" and spec.beta == 0.0 and spec.gamma == 0.0:
            a = spec.alpha + 1.0 / p
            return math.inf if a <= 0.0 else 1.0 / a
    if spec.family == "table" and _table_zero_slope(spec) + 1.0 / p <= 0.0:
        return math.inf
    phi = evaluator(spec)
    worst = 0.0
    for r in grid:
        denom = float(eval_phi(spec, r)) * r ** (1.0 / p)

        def integrand(s, r=r):
            t = r * math.exp(-s)
            if t <= 0.0:
                return 0.0
            return float(phi(t)) * t ** (1.0 / p)

        value, ok = _quad(integrand, 0.0, math.inf)
        if not ok:
            return math.inf
        worst = max(worst, value / denom)
    return worst


def _check_grid(grid):
    grid = sorted(float(r) for r in grid)
    if not grid:
        raise ValueError("grid is empty")
    if grid[0] <= 0.0 or grid[-1] > 1.0:
        raise ValueError("grid points must lie in (0,1]")
    return grid


def _check_p(p):
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")


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
    anchor_r: float

    def to_dict(self):
        return {
            "label": self.label,
            "sup_star_over_phi": self.sup_star_over_phi,
            "sup_star": self.sup_star,
            "ratio_at_rmin": self.ratio_at_rmin,
            "star_at_rmin": self.star_at_rmin,
            "quotient_at_rmin": self.quotient_at_rmin,
            "anchor_r": self.anchor_r,
        }


def classify_regime(spec, grid):
    """Decide whether phi_star tracks phi, stays bounded, or neither.

    Grid evidence only: a quantity counts as bounded when its value at the
    smallest grid point is within a factor 2 of its value at the grid point
    nearest r = 0.1.  Slowly unbounded quantities (logarithmic growth) keep
    drifting away from the anchor as the grid deepens, while genuinely
    bounded ones stabilize, so the test sharpens with grid depth.
    """
    grid = _check_grid(grid)
    if len(grid) < 3:
        raise ValueError("regime classification needs a multi-decade grid")
    stars = [phi_star(spec, r) for r in grid]
    phis = [float(eval_phi(spec, r)) for r in grid]
    ratios = [s / v for s, v in zip(stars, phis)]
    anchor_i = min(range(len(grid)), key=lambda i: abs(grid[i] - 0.1))
    sup_ratio = max(ratios)
    sup_star = max(stars)
    if ratios[0] <= 2.0 * ratios[anchor_i]:
        label = REGIME_EQUIV_PHI
    elif stars[0] <= 2.0 * stars[anchor_i]:
        label = REGIME_EQUIV_ONE
    else:
        label = REGIME_NEITHER
    return RegimeResult(
        label=label,
        sup_star_over_phi=sup_ratio,
        sup_star=sup_star,
        ratio_at_rmin=ratios[0],
        star_at_rmin=stars[0],
        quotient_at_rmin=phis[0] / stars[0],
        anchor_r=grid[anchor_i],
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
