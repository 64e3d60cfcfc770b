"""Functions on tree leaves, conditional expectations, and martingales.

Every integrable function on a finite atom tree is determined by its
values on the deepest-level atoms, so LeafFunction is the universe of all
computations here.  Its values are exact rationals or float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .filtration import common_denominator, own_atom


class LeafFunction:
    """A real function constant on each deepest-level atom.

    It holds float64 values, or exact ones as numerators u (an object
    array of Python ints) over one int E > 0, with gcd(E, u_1, ..., u_n) = 1
    so that equal functions have equal arrays.  `values` and an exact
    `values_array` are made on first access.  Immutable; reads are safe.
    """

    __slots__ = ("tree", "_array", "_nums", "_den", "_values")

    def __init__(self, tree, values):
        values = list(values)
        if len(values) != tree.leaf_count:
            raise ValueError(f"expected {tree.leaf_count} leaf values, "
                             f"got {len(values)}")
        if all(isinstance(v, (int, Fraction)) for v in values):
            nums, den = common_denominator(values)  # reduced already
            self._set(tree, None, np.array(nums, dtype=object), den)
        else:
            self._set(tree, _finite(np.asarray(values, dtype=np.float64)),
                      None, None)

    def _set(self, tree, array, nums, den):
        self.tree, self._array, self._nums, self._den = tree, array, nums, den
        self._values = None
        return self

    @classmethod
    def from_float_array(cls, tree, arr):
        """Fast construction from a float array; skips type classification."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != (tree.leaf_count,):
            raise ValueError(f"expected {tree.leaf_count} leaf values, "
                             f"got shape {arr.shape}")
        return cls.__new__(cls)._set(tree, _finite(arr), None, None)

    @classmethod
    def _from_numerators(cls, tree, nums, den):
        """nums / den for an object array of Python ints and an int
        den > 0, reduced to the canonical form."""
        g = math.gcd(den, *nums.tolist()) if den != 1 else 1
        return cls.__new__(cls)._set(tree, None, nums // g, den // g)

    @property
    def values(self):
        """The leaf values as a tuple: floats, or for exact values ints
        when E = 1 and Fraction(u, E) otherwise."""
        if self._values is None and self._nums is None:
            self._values = tuple(self._array.tolist())
        elif self._values is None:
            den = self._den
            self._values = tuple(u if den == 1 else Fraction(u, den)
                                 for u in self._nums.tolist())
        return self._values

    @property
    def values_array(self):
        """float64 values; an exact u / E is Python int division, which
        rounds as float(Fraction(u, E)) does."""
        if self._array is None:
            self._array = (self._nums / self._den).astype(np.float64)
        return self._array

    @property
    def has_exact_values(self):
        return self._nums is not None

    @property
    def numerators(self):
        """(u, E) of exact values: f = u / E leaf by leaf."""
        return self._nums, self._den

    def apply(self, fn):
        return LeafFunction(self.tree, [fn(v) for v in self.values])

    def _combine(self, other, np_op):
        # Exact operands stay exact, on numerators; anything float goes
        # through numpy (the IEEE results of scalar Python arithmetic).
        exact = None
        if isinstance(other, LeafFunction):
            if other.tree is not self.tree:
                raise ValueError("functions live on different trees")
            exact = other.has_exact_values and other.numerators
        elif isinstance(other, (int, Fraction)):
            exact = other.numerator, other.denominator
        if self.has_exact_values and exact:
            (u, e), (v, d) = self.numerators, exact
            if np_op is np.multiply:
                return LeafFunction._from_numerators(self.tree, u * v, e * d)
            den = math.lcm(e, d)
            return LeafFunction._from_numerators(
                self.tree, np_op(u * (den // e), v * (den // d)), den)
        return LeafFunction.from_float_array(self.tree, np_op(
            self.values_array, other.values_array
            if isinstance(other, LeafFunction) else float(other)))

    def __add__(self, other):
        return self._combine(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, other):
        return self._combine(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __repr__(self):
        head = ", ".join(repr(v) for v in self.values[:4])
        tail = ", ..." if self.tree.leaf_count > 4 else ""
        return f"LeafFunction(depth={self.tree.depth}, values=[{head}{tail}])"


def _finite(arr):
    if not np.isfinite(arr).all():
        raise ValueError("leaf values must be finite")
    return arr


def constant(tree, c):
    return LeafFunction(tree, [c] * tree.leaf_count)


def indicator(tree, atom, exact=False):
    """Characteristic function of an atom (any level) as a leaf function.

    Float values by default; exact=True uses ints for rational-mode work.
    """
    own_atom(tree, atom)
    values = _indicator_row(tree, atom.level, atom.index,
                            object if exact else np.float64)
    return (LeafFunction._from_numerators(tree, values, 1) if exact
            else LeafFunction.from_float_array(tree, values))


def _indicator_row(tree, n, i, dtype=np.float64):
    """The indicator of atom (n, i) as leaf values: zeros and ones of dtype."""
    starts, lengths, _ = tree.level_arrays(n)
    row = np.zeros(tree.leaf_count, dtype=dtype)
    row[starts[i]:starts[i] + lengths[i]] = 1
    return row


def random_functions(tree, count, seed):
    """Deterministic standard-normal leaf functions for test families."""
    rng = np.random.default_rng(seed)
    return [LeafFunction.from_float_array(tree,
                                          rng.standard_normal(tree.leaf_count))
            for _ in range(count)]


# -- conditional expectation and friends -------------------------------------


def _leaf_terms(f, B):
    """(value, measure) of each leaf of atom B in order, measures as
    Atom.measure gives them: Fraction(a_i, D) on an exact tree."""
    nums, den = f.tree.numerator_arrays()
    leaves = slice(B.leaf_start, B.leaf_end)
    m = nums[-1][leaves].tolist()
    return zip(f.values[leaves],
               m if den is None else [Fraction(a, den) for a in m])


def atom_average(f, B):
    """Mean of f over the atom: (1/P(B)) * sum of f * P over B's leaves."""
    own_atom(f.tree, B)
    return sum(v * m for v, m in _leaf_terms(f, B)) / B.measure


def level_means(tree, n, values):
    """Averages over every level-n atom of leaf-value rows.

    `values` is an array whose last axis runs over the leaves (one
    function, or a block of them); the last axis of the result runs over
    the level-n atoms.  Float rows are averaged in float64.  An object
    array of floats is averaged adding the leaves of each atom one after
    another, which gives the bits of the same sum written as a loop; on a
    rational tree those are the bits of a loop over Fraction measures, as
    a float times a Fraction is a float times its correctly rounded float.
    """
    values = np.asarray(values)
    if values.dtype != object:
        values = values.astype(np.float64, copy=False)
    return (tree.atom_sums(n, values * tree.leaf_measures_f())
            / tree.level_arrays(n)[2])


def level_projection(tree, n, values):
    """E_n of leaf-value rows, as leaf-value rows: each leaf takes the
    average of its level-n atom, computed as in level_means."""
    return tree.spread(n, level_means(tree, n, values))


def _machine_ints(a, bound):
    """An int64 copy of the integer array `a` when `bound`, a bound on the
    absolute value of every number that will be formed from it, is below
    2^62; otherwise `a` itself.  Below 2^62 every such number, and the
    sum or difference of two of them, fits in an int64."""
    return a.astype(np.int64) if bound < 1 << 62 else a


def _leaf_ints(tree, u):
    """(v, a, max |u_i|) for integer numerators u on an exact tree: u and
    the leaf measure numerators a, each converted to int64 once where
    every entry fits and left as Python ints otherwise.  The maximum is
    read off the conversion, not from a Python-int pass."""
    v, a = (_int64_if_fits(x) for x in (u, tree.numerator_arrays()[0][-1]))
    return v, a, max(int(v.max()), -int(v.min()))


def _int64_if_fits(a):
    try:
        return a.astype(np.int64)
    except OverflowError:
        return a


def level_sums(tree, u, levels, leaf_ints=None):
    """The exact twin of level_means: with leaf measures a_i / D and an
    integer array u of numerators, T_B = sum of a_i u_i over every atom B
    of each level in `levels`.  The average of u / E over B is
    T_B / (E S_B), S_B the numerator of P(B) (tree.numerator_arrays()).
    `leaf_ints` is _leaf_ints(tree, u), when the caller has it.

    Every partial sum is at most max |u_i| D in absolute value; when that
    is below 2^62 the sums are int64 arrays, otherwise object arrays of
    Python ints."""
    nums, den = tree.numerator_arrays()
    v, a, umax = leaf_ints or _leaf_ints(tree, u)
    au = a * v if umax * den < 1 << 62 else nums[-1] * v  # else Python ints
    return [tree.atom_sums(n, au) for n in levels]


def _integer_sums(f):
    """True when f's integrals are exact sums of integer numerators: a
    rational tree and rational values."""
    return f.tree.mode == "exact" and f.has_exact_values


def conditional_expectation(f, n):
    """Average f over every level-n atom; returns a leaf function.

    On a rational tree with rational values f = u / E the average over B
    is T_B / (E S_B) (level_sums), put over the one denominator
    E lcm(S_B); float values are averaged in level_means' object loop,
    which keeps the bits of a leaf-by-leaf sum."""
    tree = f.tree
    if not 0 <= n <= tree.depth:
        raise ValueError(f"level {n} out of range [0, {tree.depth}]")
    if n == tree.depth:
        return f
    if not _integer_sums(f):
        return LeafFunction.from_float_array(tree, level_projection(
            tree, n, f.values_array.astype(object)).astype(np.float64))
    u, den = f.numerators
    sums, = level_sums(tree, u, [n])
    s = tree.numerator_arrays()[0][n]
    lcm = math.lcm(*set(s.tolist()))
    return LeafFunction._from_numerators(
        tree, tree.spread(n, sums * (lcm // s)), den * lcm)


def martingale_of(f):
    """The martingale (E_0 f, ..., E_N f) of a leaf function."""
    return MartingaleSequence(f.tree,
                              [conditional_expectation(f, n)
                               for n in range(f.tree.depth + 1)])


def check_p(p):
    """p, for p in the paper's range [1, inf); a ValueError otherwise, NaN
    included."""
    if not 1 <= p < math.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    return p


def central_p_integral(f, B, n, p):
    """Integral over B of |f - E_n f|^p, for B an atom at level n.

    E_n f is constant on B, equal to the atom average, so only that
    average is needed.  Exact for p = 1 with exact inputs; floats
    otherwise (p-th powers of rationals are irrational in general).
    """
    check_p(p)
    if B.level != n:
        raise ValueError(f"atom {B.id} is at level {B.level}, not {n}")
    avg = atom_average(f, B)  # which refuses an atom of another tree
    return sum(abs(v - avg) * m if p == 1 else
               abs(float(v) - float(avg)) ** p * float(m)
               for v, m in _leaf_terms(f, B))


def _integral(f, absolute):
    """int f dP, or int |f| dP when `absolute`.  A Fraction from integer
    numerators on a rational tree with rational values; otherwise a
    float, summed leaf by leaf for rational values on a float tree."""
    if _integer_sums(f):
        u, den = f.numerators
        total, = level_sums(f.tree, np.abs(u) if absolute else u, [0])
        return Fraction(int(total[0]), f.tree.numerator_arrays()[1] * den)
    leafm = f.tree.leaf_measures_f()
    values = f.values_array
    if not f.has_exact_values:
        # the pairwise sum of scan_block's mean, not a BLAS dot product
        return float(((np.abs(values) if absolute else values) * leafm).sum())
    total = 0
    for v, m in zip(values.tolist(), leafm.tolist()):
        total += (abs(v) if absolute else v) * m
    return total


def expectation(f):
    return _integral(f, absolute=False)


def linf_norm(f):
    if not f.has_exact_values:
        return float(np.max(np.abs(f.values_array)))
    u, den = f.numerators
    top = np.abs(u).max()
    return top if den == 1 else Fraction(top, den)


def lp_norm(f, p):
    check_p(p)
    if p == 1:
        return _integral(f, absolute=True)
    total = float((np.abs(f.values_array) ** p
                   * f.tree.leaf_measures_f()).sum())
    return total ** (1.0 / p)


@dataclass
class MartingaleSequence:
    """The sequence (f_0, ..., f_N) with f_n constant on level-n atoms."""

    tree: object
    levels: tuple

    def __init__(self, tree, levels):
        levels = tuple(levels)
        if len(levels) != tree.depth + 1:
            raise ValueError(f"expected {tree.depth + 1} levels, got {len(levels)}")
        for g in levels:
            if g.tree is not tree:
                raise ValueError("sequence member lives on a different tree")
        self.tree = tree
        self.levels = levels

    def martingale_defect(self):
        """max over n of sup |E_n f_{n+1} - f_n|; 0 for a martingale."""
        return max((linf_norm(conditional_expectation(self.levels[n + 1], n)
                              - self.levels[n])
                    for n in range(self.tree.depth)), default=0)
