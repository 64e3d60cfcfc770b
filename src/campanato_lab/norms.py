"""Mean-oscillation seminorms over atom-tree filtrations.

The seminorm of f is the sup over levels n and level-n atoms B of

    (1/phi(P(B))) * ((1/P(B)) * int_B |f - E_n f|^p dP)^(1/p),

and the norm adds |Ef|.  For functions measurable at the deepest level
the sup over deeper levels vanishes, so finite trees give exact values.
One per-level reduction serves every float scan, and one driver,
scan_block, turns it into sups.  For p = 2 the reduction is one pass up
the tree, O(atoms) per level, from M_B = int_B |f - f_B|^2 dP = sum over
B's children C of [M_C + P(C) (f_C - f_B)^2], within 1e-14 of exact
rationals.  Other p sum the atom integrals int_B f dP up the tree and
make one leaf pass per level (level_reductions).  For p = 1 with the
constant weight on a rational tree with rational values the scan is exact
instead, on integer numerators: with leaf measures a_i / D and values u_i
/ E, the oscillation of atom B is I_B / (E S_B^2), where S_B = sum a_i,
T_B = sum a_i u_i and I_B = sum a_i |u_i S_B - T_B| over the leaves of B.
A level whose integers are bounded below 2^62 sums them in int64; one
where only the deviations |u_i S_B - T_B| are ranks its atoms by float
I_B / S_B^2 and sums Python ints for the atoms near the largest; any
other level sums Python ints (_exact_scan).  The sups are Fractions
either way.  Ties in the sup are broken by (level, atom index).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import phi as phimod
from .filtration import RATIO_TOL, first_max_ratio
from .functions import (_integer_sums, _leaf_ints, _machine_ints, check_p,
                        level_sums)


@dataclass(frozen=True)
class NormResult:
    """A computed sup with its witness and the per-level sup table."""

    value: object
    witness: tuple = None
    per_level: tuple = ()
    mean_abs: object = None
    note: str = ""

    def __float__(self):
        return float(self.value)


# -- weights at atom measures ---------------------------------------------------


def _weigh(fn, measures):
    """fn at every entry of a float array of measures in (0,1], as a float
    array; fn takes a float and is called once per distinct value."""
    distinct, where = np.unique(measures, return_inverse=True)
    phimod._check_r(distinct[0])
    phimod._check_r(distinct[-1])
    return np.array([float(fn(m)) for m in distinct.tolist()])[where]


def _level_weights(tree, key, fn):
    """fn at every atom measure, one float array per level, cached on the
    tree under `key`."""
    cached = tree._phi_cache.get(key)
    if cached is None:
        measures = [tree.level_arrays(n)[2] for n in range(tree.depth + 1)]
        cached = np.split(_weigh(fn, np.concatenate(measures)),
                          tree.offsets[1:-1])
        tree._phi_cache[key] = cached
    return cached


def phi_level_values(tree, spec):
    """phi evaluated at every atom measure, one float array per level."""
    return _level_weights(tree, ("phi", spec), phimod.evaluator(spec))


def phi_star_level_values(tree, spec):
    """phi_star at every atom measure, one float array per level."""
    return _level_weights(tree, ("phi_star", spec),
                          partial(phimod.phi_star, spec))


# -- core scans -----------------------------------------------------------------

# Leaf values per block of rows.  A block scan keeps a few temporaries of
# this size, so many short rows cost about as much memory as one row of
# BLOCK_ELEMENTS leaves.
BLOCK_ELEMENTS = 1 << 14


def level_reductions(tree, block, p):
    """Yield (n, averages, central integrals, measures) for every level n
    above the deepest.

    `block` is a float64 array whose last axis runs over the leaves (one
    row or a block of rows); the averages f_B and the integrals
    int_B |f - f_B|^p dP have one entry per level-n atom along the last
    axis, and measures holds the P(B).  The deepest level is left out:
    every leaf function is measurable there.  `block` is only read, and
    no yielded array shares memory with it or with another.

    p = 2 makes one pass up the tree, O(atoms) per level, as martingale
    differences are orthogonal.  With the anchor a_B, f at B's first
    leaf, and e_C = d_C + (a_C - a_B) over B's children C: f_B = a_B +
    d_B, d_B = sum_C P(C) e_C / P(B), and M_B = int_B |f - f_B|^2 dP =
    sum_C [M_C + P(C) (e_C - d_B)^2], where d = M = 0 at a leaf.  Against
    exact rationals the averages read within 1e-14 of the atom's largest
    |f| and the integrals within 1e-14 relative (at most 6.4e-16 measured;
    a leaf pass read up to 1e-8 at an offset of 1e9).  Other p sum
    S_B = int_B f dP up the tree (f P(leaf) at a leaf, sum_C S_C above)
    for f_B = S_B / P(B), a tree-shaped sum of the pairwise leaf sum's
    error order: at p = 1 the averages read within 1e-14 of the atom's
    largest |f| and the integrals within 1e-14 of that |f| times P(B)
    against exact rationals (at most 3.6e-16 and 3.9e-16 measured).  Then
    each level makes one leaf pass for |f - f_B|^p P(leaf), in place in
    one leaf-sized buffer.
    """
    if p == 2:
        a, d, cint, levels = block, 0.0, 0.0, []
        for n in reversed(range(tree.depth)):
            starts, _, measures = tree.level_arrays(n)
            up, pc = tree.child_arrays(n)[1], tree.level_arrays(n + 1)[2]
            anchor = block.take(starts, axis=-1)
            e = anchor.take(up, axis=-1)
            np.subtract(a, e, out=e)  # a_C - a_B, in place: fewer new arrays
            e += d
            d = tree.child_sums(n, e * pc) / measures
            e -= d.take(up, axis=-1)
            np.square(e, out=e)
            e *= pc
            e += cint
            cint = tree.child_sums(n, e)
            levels.append((n, anchor + d, cint, measures))
            a = anchor
        yield from reversed(levels)
        return
    leafm = tree.leaf_measures_f()
    dev = block * leafm
    sums = [dev]  # S_B = int_B f dP per level, from the leaves up
    for n in reversed(range(tree.depth)):
        sums.append(tree.child_sums(n, sums[-1]))
    for n in range(tree.depth):
        measures = tree.level_arrays(n)[2]
        avg = sums[tree.depth - n] / measures
        tree.spread(n, avg, np.subtract, block, out=dev)
        np.abs(dev, out=dev)
        if p != 1:
            dev **= p
        dev *= leafm
        yield n, avg, tree.atom_sums(n, dev), measures


def scan_block(tree, rows, p, spec, want_fb=False):
    """Sup scan of leaf functions, one per row: the one per-level sup loop
    of float rows.

    `rows` is an iterable of leaf-value rows, consumed lazily, at most
    BLOCK_ELEMENTS leaf values (and at least one row) at a time, and
    each level reduces a whole block at once in float64.  Returns four
    arrays with one entry per row: the per-level sups (the deepest zero:
    every leaf function is measurable there), the first atom attaining
    each, the mean Ef, and the sup over all atoms of
    |f_B| / phi_star(P(B)), None unless want_fb.
    """
    check_p(p)
    phis = None if spec.family == "one" else phi_level_values(tree, spec)
    stars = phi_star_level_values(tree, spec) if want_fb else None
    empty = np.zeros((0, tree.depth + 1))
    sups, atoms = [empty], [empty.astype(np.int64)]
    means, fbs = [empty[:, 0]], [empty[:, 0]]
    for block in _blocks(rows, max(1, BLOCK_ELEMENTS // tree.leaf_count)):
        sup, at, fb = [], [], []
        for n, avg, cint, measures in level_reductions(tree, block, p):
            ratios = (cint / measures) ** (1.0 / p)  # x ** 1.0 copies x
            if phis is not None:
                ratios /= phis[n]
            sup.append(ratios.max(axis=1))
            at.append(ratios.argmax(axis=1))
            if want_fb:
                fb.append((np.abs(avg) / stars[n]).max(axis=1))
        sups.append(np.array(sup + [np.zeros(len(block))]).T)
        atoms.append(np.array(at + [np.zeros(len(block), np.int64)]).T)
        means.append((block * tree.leaf_measures_f()).sum(axis=1))
        if want_fb:
            fb.append((np.abs(block) / stars[tree.depth]).max(axis=1))
            fbs.append(np.max(fb, axis=0))
    return (np.concatenate(sups), np.concatenate(atoms), np.concatenate(means),
            np.concatenate(fbs) if want_fb else None)


def _blocks(rows, size):
    """Stack an iterable of leaf rows `size` rows at a time, lazily, as
    float64 blocks; a block of one float64 row is a view of it, as the
    scan only reads its blocks."""
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, size)):
        yield (np.asarray(chunk[0], dtype=np.float64)[None] if len(chunk) == 1
               else np.array(chunk, dtype=np.float64))


class _ScanResult(tuple):
    """oscillation_scan's (sup, witness, per_level, fb_sup).  `mean` is
    the Ef that the scan summed on the way: a Fraction from the exact
    scan's integer sums, a float from scan_block's pairwise row sum."""

    mean = None


# An atom of at most RANKED_SPAN leaves has a float I_B / S_B^2 within
# RATIO_TOL / 2 of the exact one, relative (_exact_scan).
RANKED_SPAN = 1 << 22


def _exact_scan(f, spec, want_fb):
    """The exact p = 1, constant-weight scan on integer numerators, as
    oscillation_scan's result with Fraction sups and the Fraction mean.

    Each level sums S_B, T_B and I_B (module docstring) over every atom
    at once, and the first atom with the largest I_B / S_B^2 wins.  With
    m = max(|u|, 1) and S the level's largest S_B, every |u_i S_B|,
    |T_B| and deviation |u_i S_B - T_B| is at most 2 m S, and every
    a_i times a deviation, I_B and S_B^2 at most 2 m S^2.  So a level runs
    in one of three ways:

    - 2 m S^2 < 2^62: all in int64, and first_max_ratio picks the atom;
    - 2 m S < 2^62: deviations in int64, and floats rank the atoms, as
      first_max_ratio does with its quotients.  Each float I_B / S_B^2
      is the exact one times 1 + e, |e| <= gamma(L + 6) = (L + 6) u /
      (1 - (L + 6) u), u = 2^-53 and L the atom's leaf count: 3 roundings
      per term (a_i, the deviation, their product), L - 1 in any order
      of summing L terms >= 0, 2 for S_B, 1 for its square and 1 for the
      division.  An atom that attains the exact largest ratio is thus
      within 2 gamma(L + 6) (< RATIO_TOL below RANKED_SPAN leaves) of
      the largest float, so the atoms within RATIO_TOL of it are summed
      again in Python ints, and first_max_ratio picks among them.  A
      level with a larger atom makes every atom such a candidate;
    - otherwise all in Python ints.

    Only the dtypes differ, and the sups and the mean leave as Fractions
    of Python ints.  u and the leaf numerators a convert to int64 once
    (_leaf_ints), shared with level_sums, and when D < 2^63 each level's
    S_B are the int64 atom sums of a, with no pass over Python ints
    before the level's way is chosen.  fb_sup divides the float of
    each |T_B| / (E S_B) by phi_star, as the float scan does with its
    averages; E S_B is formed in Python ints, as E may be beyond int64.
    """
    tree = f.tree
    (u, den), (nums, tree_den) = f.numerators, tree.numerator_arrays()
    leaf_ints = v, a, umax = _leaf_ints(tree, u)
    sums = level_sums(tree, u, range(max(tree.depth, 1)), leaf_ints)  # 0: mean
    stars = phi_star_level_values(tree, spec) if want_fb else None
    fb = [(np.abs(u) / den / stars[-1]).max()] if want_fb else None
    top = 2 * max(umax, 1)
    per_level, atoms = [], []
    for n in range(tree.depth):
        # below 2^63 the S_B <= D sum exactly from the int64 leaf numerators
        s = tree.atom_sums(n, a) if tree_den < 1 << 63 else nums[n]
        largest = int(s.max())
        s = _machine_ints(nums[n] if top * largest >= 1 << 62 else s,
                          top * largest)
        t = sums[n].astype(s.dtype)
        dev = (u if s.dtype == object else v) * tree.spread(n, s)
        dev -= tree.spread(n, t)
        np.abs(dev, out=dev)
        if s.dtype == object or top * largest ** 2 < 1 << 62:
            i_b = tree.atom_sums(n, a * dev)
            i = first_max_ratio(i_b, s * s)
            i_b = int(i_b[i])
        else:
            i, i_b = _ranked_max(tree, n, a, dev, s)
        per_level.append(Fraction(i_b, den * nums[n][i] ** 2))
        atoms.append(i)
        if want_fb:
            fb.append((np.abs(t) / (den * nums[n]) / stars[n]).max())
    per_level.append(Fraction(0))
    atoms.append(0)
    n = max(range(len(per_level)), key=per_level.__getitem__)
    result = _ScanResult((per_level[n], (n, atoms[n]), tuple(per_level),
                          float(max(fb)) if want_fb else None))
    result.mean = Fraction(int(sums[0][0]), tree_den * den)
    return result


def _ranked_max(tree, n, a, dev, s):
    """(i, I_B of atom i): the first level-n atom with the largest
    I_B / S_B^2, for int64 leaf numerators `a`, deviations `dev` and S_B
    `s`, with floats ranking the atoms and Python ints deciding
    (_exact_scan)."""
    nums = tree.numerator_arrays()[0]
    approx = tree.atom_sums(n, np.multiply(a, dev, dtype=np.float64)) \
        / np.square(s, dtype=np.float64)
    if int(tree.level_arrays(n)[1].max()) <= RANKED_SPAN:
        cand = np.flatnonzero(approx >= approx.max() * (1 - RATIO_TOL))
    else:
        cand = np.arange(len(s))
    leaves = tree.atom_leaves(n, cand)
    i_b = tree.atom_sums(n, nums[-1][leaves] * dev[leaves], cand)
    j = first_max_ratio(i_b, nums[n][cand] ** 2)
    return int(cand[j]), i_b[j]


def _use_exact(f, p, spec):
    return p == 1 and spec.family == "one" and _integer_sums(f)


def oscillation_scan(f, p, spec, want_fb=False, exact=None):
    """Sup scan of one function: returns (sup, witness, per_level, fb_sup).

    The exact path sums integer numerators, so its sup and per-level sups
    are Fractions; the float path is the one-row case of scan_block and
    returns Python floats.  The witness (n, i) is the first level, then
    the first atom, attaining the sup.  fb_sup is the sup over all atoms
    of |f_B| / phi_star(P(B)), None unless requested.
    """
    if exact is None:
        exact = _use_exact(f, p, spec)
    if exact and not _use_exact(f, p, spec):
        raise ValueError("exact scan needs a rational tree and values, "
                         "p = 1 and the constant weight")
    if exact:
        return _exact_scan(f, spec, want_fb)
    sups, atoms, means, fb = scan_block(f.tree, [f.values_array], p, spec,
                                        want_fb)
    n = int(np.argmax(sups[0]))
    per_level = tuple(sups[0].tolist())
    result = _ScanResult((per_level[n], (n, int(atoms[0, n])), per_level,
                          float(fb[0]) if want_fb else None))
    result.mean = float(means[0])
    return result


# -- public norms ----------------------------------------------------------------


def campanato_seminorm(f, p, spec, exact=None):
    """Weighted mean-oscillation seminorm with witness.

    On the exact path it is 0 iff f is constant.  The float path averages
    in float64, so on non-dyadic measures a constant f can give a sup of
    a few ulps of max |f| instead of 0.
    """
    value, witness, per_level, _ = oscillation_scan(f, p, spec, exact=exact)
    return NormResult(value=value, witness=witness, per_level=per_level)


def campanato_norm(f, p, spec, exact=None):
    """Seminorm plus |Ef| (a genuine norm; zero only for f = 0).  The
    scan hands over its own Ef: exact from the exact scan, a pairwise
    float64 sum from the float one, so the value does not depend on how
    a BLAS library splits a dot product."""
    scan = oscillation_scan(f, p, spec, exact=exact)
    value, witness, per_level, _ = scan
    mean = abs(scan.mean)
    return NormResult(value=value + mean, witness=witness,
                      per_level=per_level, mean_abs=mean)


def chi_norm_closed_form(B, p, phi_spec):
    """Seminorm of an indicator from its ancestor chain alone.

    Only strict ancestors A of the atom carry oscillation, and with r =
    P(B)/P(A) the term of A is ((P(B) (1 - r)^p + (P(A) - P(B)) r^p) /
    P(A))^(1/p).  From the numerators s of P(B) and S of P(A) over D (1 on
    a float tree), p = 1 on an exact tree gives the Fraction 2 s (S - s) /
    S^2; other terms are floats, of int / int divisions on an exact tree,
    which round as float(Fraction) does.  Agrees with the full sup scan.
    """
    check_p(p)
    nums, den = B.tree.numerator_arrays()
    d, s = den or 1, nums[B.level].item(B.index)
    per_level = []
    for n, i in enumerate(B.tree.ancestors(B.level, B.index)[:-1]):
        S = nums[n].item(i)
        if p == 1 and den:
            core = Fraction(2 * s * (S - s), S * S)
        else:
            r = s / S
            core = ((s / d * (1.0 - r) ** p + (S - s) / d * r ** p)
                    / (S / d)) ** (1.0 / p)
        per_level.append(core / phimod.eval_phi(phi_spec, S / d))
    if not per_level:
        return NormResult(value=0, witness=None, per_level=())
    n = max(range(len(per_level)), key=per_level.__getitem__)
    return NormResult(value=per_level[n], witness=(n,),
                      per_level=tuple(per_level))


# -- measurable-set (union-of-atoms) norm variants --------------------------------

F_NORM_LEVEL_BOUND = 20  # enumeration refuses levels with more atoms than this


def _level_cints(tree, block, p):
    """Yield (central integrals, measures) for every level of the tree,
    the deepest (where the integrals vanish) included."""
    for _, _, cint, measures in level_reductions(tree, block, p):
        yield cint, measures
    measures = tree.level_arrays(tree.depth)[2]
    yield np.zeros(block.shape[:-1] + measures.shape), measures


def _union_sup(f, p, spec, unions, note=""):
    """The union-of-atoms sup over the unions that unions(cints, measures)
    tries on each level: it returns their summed central integrals and
    measures, and a map from a union's index to its atoms in increasing
    order.  Each level's witness is its first largest union."""
    phi = phimod.evaluator(spec)
    per_level, witnesses = [], []
    for n, (cints, measures) in enumerate(
            _level_cints(f.tree, f.values_array, p)):
        csum, msum, members = unions(cints, measures)
        vals = (csum / msum) ** (1.0 / p) / _weigh(phi, msum)
        i = int(np.argmax(vals))
        per_level.append(float(vals[i]))
        witnesses.append((n, members(i)))
    n = max(range(len(per_level)), key=per_level.__getitem__)
    return NormResult(value=max(per_level[n], 0.0), witness=witnesses[n],
                      per_level=tuple(per_level), note=note)


def f_norm_exact(f, p, spec):
    """Sup over levels and nonempty unions of level atoms.

    Replaces single atoms by arbitrary measurable sets of the level;
    brute-force enumeration, refused beyond 2^20 subsets per level.
    """
    check_p(p)
    tree = f.tree
    for n in range(tree.depth + 1):
        count = len(tree.level_arrays(n)[2])
        if count > F_NORM_LEVEL_BOUND:
            raise ValueError(
                f"level {n} has {count} atoms, above the enumeration bound "
                f"{F_NORM_LEVEL_BOUND}; use f_norm_lower instead")

    def every_union(cints, measures):  # union i: the bits of i + 1
        k = len(measures)
        masks = np.arange(1, 2 ** k, dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(k)) & 1).astype(np.float64)
        return (bits @ cints, np.minimum(bits @ measures, 1.0),
                lambda i: tuple(np.flatnonzero(bits[i]).tolist()))

    return _union_sup(f, p, spec, every_union)


def f_norm_lower(f, p, spec, budget):
    """Greedy lower bound for the union-of-atoms norm.

    Candidates are every singleton, then (losing ties to them) prefixes of
    the atoms sorted by oscillation density, up to `budget` atoms per
    level.  Always at least the plain seminorm, never above f_norm_exact.
    """
    check_p(p)
    if budget < 1:
        raise ValueError("budget must be >= 1")

    def singles_and_prefixes(cints, measures):
        k = len(measures)
        order = np.lexsort((np.arange(k), -(cints / measures)))[:budget]
        return (np.concatenate([cints, np.cumsum(cints[order])]),
                np.concatenate([measures, np.minimum(
                    np.cumsum(measures[order]), 1.0)]),
                lambda i: (i,) if i < k else tuple(sorted(
                    order[:i - k + 1].tolist())))

    return _union_sup(f, p, spec, singles_and_prefixes, note="lower bound")
