"""Reference computations for the benchmark's output checks.

Everything here is written from the definitions and imports nothing
from campanato_lab, so a fault in the package cannot hide in its own
check.  A tree is a `Shape`: per-level atom measures and leaf-span
lengths in left-to-right order, derived from the benchmark's own
generator description (or, for dyadic trees, analytically).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

LD = np.longdouble  # prefix sums of tiny atoms need more than float64


class Shape:
    """Level measures and span lengths of a finite atom tree."""

    def __init__(self, measures, lengths):
        self.measures = measures  # list over levels of per-atom measures
        self.lengths = lengths    # list over levels of int64 span lengths
        self.starts = [np.concatenate(([0], np.cumsum(ln)[:-1])).astype(np.int64)
                       for ln in lengths]

    @property
    def depth(self):
        return len(self.lengths) - 1

    @property
    def leaf_count(self):
        return int(self.lengths[-1].size)

    @property
    def leaf_measures(self):
        return self.measures[-1]

    def ancestor(self, level, leaf):
        """Index of the level-`level` atom that contains the leaf."""
        return int(np.searchsorted(self.starts[level], leaf, side="right")) - 1

    def span(self, level, index):
        s = int(self.starts[level][index])
        return s, s + int(self.lengths[level][index])


def dyadic_shape(depth):
    """Level n has 2**n atoms of measure 2**-n and span 2**(depth-n)."""
    measures = [np.full(2 ** n, 0.5 ** n) for n in range(depth + 1)]
    lengths = [np.full(2 ** n, 2 ** (depth - n), dtype=np.int64)
               for n in range(depth + 1)]
    return Shape(measures, lengths)


def shape_from_arities(arities, fractions, exact=False):
    """arities[k][j]: children of atom j at level k; fractions[k]: the
    child fractions of level k, flattened left to right (1 for a
    persistence step).  Exact shapes keep Fraction measures."""
    if exact:
        measures = [[Fraction(1)]]
        for ar, fr in zip(arities, fractions):
            parents = [m for m, a in zip(measures[-1], ar) for _ in range(int(a))]
            measures.append([m * Fraction(q) for m, q in zip(parents, fr)])
    else:
        measures = [np.ones(1)]
        for ar, fr in zip(arities, fractions):
            measures.append(np.repeat(measures[-1], ar) * np.asarray(fr, dtype=float))
    lengths = [np.ones(len(measures[-1]), dtype=np.int64)]
    for ar in reversed(arities):
        offsets = np.concatenate(([0], np.cumsum(ar)[:-1]))
        lengths.insert(0, np.add.reduceat(lengths[0], offsets))
    return Shape(measures, lengths)


def shape_from_spec(spec):
    """Shape of a nested split description (the config `splits` form):
    {"fractions": [...], "children": [...]}, {"persist": sub}, "persist"
    or null; shorter branches persist down to the deepest level."""

    def parse(node):
        if node is None:
            return []
        if node == "persist":
            return [(Fraction(1), [])]
        if "persist" in node:
            return [(Fraction(1), parse(node["persist"]))]
        subs = node.get("children") or [None] * len(node["fractions"])
        return [(Fraction(q), parse(s)) for q, s in zip(node["fractions"], subs)]

    def height(children):
        return 0 if not children else 1 + max(height(c) for _, c in children)

    root = parse(spec)
    depth = height(root)
    exact = not any(isinstance(q, float) for q in _fraction_literals(spec))
    arities, fractions = [], []
    frontier = [root]
    for _ in range(depth):
        ar, fr, nxt = [], [], []
        for children in frontier:
            if not children:  # padding: a persistence step
                children = [(Fraction(1), [])]
            ar.append(len(children))
            for q, sub in children:
                fr.append(q if exact else float(q))
                nxt.append(sub)
        arities.append(np.array(ar, dtype=np.int64))
        fractions.append(fr)
        frontier = nxt
    return shape_from_arities(arities, fractions, exact=exact)


def _fraction_literals(node):
    if not isinstance(node, dict):
        return
    if "persist" in node:
        yield from _fraction_literals(node["persist"])
        return
    yield from node["fractions"]
    for sub in node.get("children") or []:
        yield from _fraction_literals(sub)


# -- weights --------------------------------------------------------------------
# A weight is ("one",), ("psi",), ("powerlog", alpha, beta),
# ("quotient", base) or ("table", ((r0, v0), (r1, v1))).


def phi(weight, r):
    """Closed-form weight values at the measures r (float array)."""
    r = np.asarray(r, dtype=float)
    kind = weight[0]
    if kind == "one":
        return np.ones_like(r)
    if kind == "psi":
        return 1.0 / (1.0 - np.log(r))
    if kind == "powerlog":
        _, alpha, beta = weight
        return r ** alpha * (1.0 - np.log(r)) ** (-beta)
    if kind == "quotient":
        return phi(weight[1], r) / phi_star(weight[1], r)
    if kind == "table":
        (r0, v0), (r1, v1) = weight[1]
        s = math.log(v1 / v0) / math.log(r1 / r0)
        return v0 * (r / r0) ** s
    raise ValueError(f"no closed form for weight {weight!r}")


def phi_star(weight, r):
    """Closed forms of 1 + int_r^1 phi(t)/t dt."""
    r = np.asarray(r, dtype=float)
    kind = weight[0]
    if kind == "one":
        return 1.0 + np.log(1.0 / r)
    if kind == "psi":
        return 1.0 + np.log(1.0 - np.log(r))
    if kind == "powerlog":
        _, alpha, beta = weight
        if beta == 0.0:
            if alpha == 0.0:
                return 1.0 + np.log(1.0 / r)
            return 1.0 + (1.0 - r ** alpha) / alpha
        if beta == 1.0 and alpha > 0.0:
            from scipy.special import exp1
            return 1.0 + math.exp(alpha) * (exp1(alpha)
                                            - exp1(alpha * (1.0 - np.log(r))))
    if kind == "quotient":
        # d/dr phi_star = -phi/r, so the quotient's integral is log phi_star.
        return 1.0 + np.log(phi_star(weight[1], r))
    if kind == "table":
        (r0, v0), (r1, v1) = weight[1]
        s = math.log(v1 / v0) / math.log(r1 / r0)
        return 1.0 + v0 * r0 ** (-s) * (1.0 - r ** s) / s
    raise ValueError(f"no closed form for phi_star of {weight!r}")


# -- seminorms --------------------------------------------------------------------


def seminorm(shape, f, p, weight):
    """sup over levels n < N and atoms B of
    (1/phi(P(B))) ((1/P(B)) int_B |f - f_B|^p dP)^(1/p),
    from prefix sums in extended precision."""
    f = np.asarray(f, dtype=LD)
    w = np.asarray(shape.leaf_measures, dtype=LD)
    cw = np.concatenate(([LD(0)], np.cumsum(w)))
    cwf = np.concatenate(([LD(0)], np.cumsum(w * f)))
    best = 0.0
    for n in range(shape.depth):
        s, ln = shape.starts[n], shape.lengths[n]
        e = s + ln
        mass = cw[e] - cw[s]
        avg = (cwf[e] - cwf[s]) / mass
        dev = np.abs(f - np.repeat(avg, ln)) ** p * w
        cd = np.concatenate(([LD(0)], np.cumsum(dev)))
        osc = ((cd[e] - cd[s]) / mass) ** (LD(1) / p)
        vals = osc.astype(float) / phi(weight, np.asarray(shape.measures[n], dtype=float))
        best = max(best, float(vals.max()))
    return best


def mean(shape, f):
    return float(np.dot(np.asarray(f, dtype=LD),
                        np.asarray(shape.leaf_measures, dtype=LD)))


def norm(shape, f, p, weight):
    return seminorm(shape, f, p, weight) + abs(mean(shape, f))


def exact_norm(shape, f):
    """p = 1, constant weight, integer f on a rational tree: integer
    segment sums over the common denominator D of the leaf measures.
    With a_i = D P(leaf i), A = sum a_i and S = sum a_i f_i over B,
    the atom's value is sum a_i |A f_i - S| / A^2."""
    leafm = shape.leaf_measures
    D = math.lcm(*(Fraction(m).denominator for m in leafm))
    a = [int(Fraction(m) * D) for m in leafm]
    f = [int(v) for v in f]
    af = [x * y for x, y in zip(a, f)]
    best = Fraction(0)
    for n in range(shape.depth):
        for s, ln in zip(shape.starts[n].tolist(), shape.lengths[n].tolist()):
            A = sum(a[s:s + ln])
            S = sum(af[s:s + ln])
            N = sum(ai * abs(A * fi - S) for ai, fi in zip(a[s:s + ln], f[s:s + ln]))
            if N * best.denominator > best.numerator * A * A:
                best = Fraction(N, A * A)
    return best + Fraction(abs(sum(af)), D)


# -- functions --------------------------------------------------------------------


def chain_function(shape, leaf, coeff_weight):
    """1 + sum_k phi(P(B_k)) (P(B_{k-1})/P(B_k) chi_{B_k} - chi_{B_{k-1}})
    along the ancestor chain B_0 > ... > B_N of the leaf."""
    values = np.ones(shape.leaf_count)
    prev = shape.span(0, 0)
    prev_m = float(shape.measures[0][0])
    for k in range(1, shape.depth + 1):
        j = shape.ancestor(k, leaf)
        cur = shape.span(k, j)
        cur_m = float(shape.measures[k][j])
        c = float(phi(coeff_weight, cur_m))
        values[prev[0]:prev[1]] -= c
        values[cur[0]:cur[1]] += c * (prev_m / cur_m)
        prev, prev_m = cur, cur_m
    return values


def sin_h(shape, leaf):
    """sin of the chain sum with the reciprocal-log coefficients: the
    multiplier built for the constant weight."""
    return np.sin(chain_function(shape, leaf, ("psi",)) - 1.0)


def indicator(shape, level, index):
    values = np.zeros(shape.leaf_count)
    s, e = shape.span(level, index)
    values[s:e] = 1.0
    return values


def random_member(shape, seed, chains, k):
    """The k-th seeded random member of the certificate's test family:
    the same generator draws as the family (chain picks, then normals)."""
    rng = np.random.default_rng(seed)
    count = min(chains, shape.leaf_count)
    if count > 0:
        rng.choice(shape.leaf_count, size=count, replace=False)
    for _ in range(k):
        rng.standard_normal(shape.leaf_count)
    return rng.standard_normal(shape.leaf_count)


def family_member(shape, label, seed, chains, weight):
    """A certificate family member from its label."""
    kind, _, rest = label.partition(":")
    if kind == "const":
        return np.ones(shape.leaf_count)
    if kind == "chi":
        level, index = (int(x) for x in rest.split(","))
        return indicator(shape, level, index)
    if kind == "chain":
        return chain_function(shape, int(rest.split("=")[1]), weight)
    if kind == "rand":
        return random_member(shape, seed, chains, int(rest))
    raise ValueError(f"unknown family member label {label!r}")


def rel_err(a, b):
    a, b = float(a), float(b)
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale
