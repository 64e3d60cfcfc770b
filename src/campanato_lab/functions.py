"""Functions on tree leaves, conditional expectations, and martingales.

Every integrable function on a finite atom tree is determined by its
values on the deepest-level atoms, so LeafFunction is the universe of all
computations here.  Values may be ints/Fractions (exact) or floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .filtration import common_denominator


class LeafFunction:
    """A real function constant on each deepest-level atom.

    Immutable after construction; concurrent reads are safe.
    """

    __slots__ = ("tree", "values", "_array", "_exact")

    def __init__(self, tree, values):
        values = tuple(values)
        if len(values) != tree.leaf_count:
            raise ValueError(f"expected {tree.leaf_count} leaf values, "
                             f"got {len(values)}")
        self.tree = tree
        self.values = values
        self._array = None
        self._exact = None
        try:
            arr = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            arr = None
            for v in values:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"leaf value {v!r} is not finite")
        if arr is not None:
            if not np.isfinite(arr).all():
                raise ValueError("leaf values must be finite")
            self._array = arr

    @classmethod
    def from_float_array(cls, tree, arr):
        """Fast construction from a float array; skips type classification."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != (tree.leaf_count,):
            raise ValueError(f"expected {tree.leaf_count} leaf values, "
                             f"got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("leaf values must be finite")
        f = cls.__new__(cls)
        f.tree = tree
        f.values = tuple(arr.tolist())
        f._array = arr
        f._exact = False
        return f

    @property
    def values_array(self):
        if self._array is None:
            self._array = np.array([float(v) for v in self.values],
                                   dtype=np.float64)
        return self._array

    @property
    def has_exact_values(self):
        if self._exact is None:
            self._exact = all(isinstance(v, (int, Fraction)) for v in self.values)
        return self._exact

    def apply(self, fn):
        return LeafFunction(self.tree, [fn(v) for v in self.values])

    def _check_same_tree(self, other):
        if other.tree is not self.tree:
            raise ValueError("functions live on different trees")

    def _combine(self, other, op, np_op):
        # Exact operands stay exact; anything float goes through numpy
        # (same IEEE results as scalar Python arithmetic, much faster).
        if isinstance(other, LeafFunction):
            self._check_same_tree(other)
            if self.has_exact_values and other.has_exact_values:
                return LeafFunction(self.tree,
                                    [op(a, b) for a, b
                                     in zip(self.values, other.values)])
            return LeafFunction.from_float_array(
                self.tree, np_op(self.values_array, other.values_array))
        if self.has_exact_values and isinstance(other, (int, Fraction)):
            return LeafFunction(self.tree, [op(v, other) for v in self.values])
        return LeafFunction.from_float_array(
            self.tree, np_op(self.values_array, float(other)))

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b, np.subtract)

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return LeafFunction(self.tree, [-v for v in self.values])

    def __repr__(self):
        head = ", ".join(repr(v) for v in self.values[:4])
        tail = ", ..." if len(self.values) > 4 else ""
        return f"LeafFunction(depth={self.tree.depth}, values=[{head}{tail}])"


def constant(tree, c):
    return LeafFunction(tree, [c] * tree.leaf_count)


def indicator(tree, atom, exact=False):
    """Characteristic function of an atom (any level) as a leaf function.

    Float values by default; exact=True uses ints for rational-mode work.
    """
    if exact:
        values = [0] * tree.leaf_count
        for i in range(atom.leaf_start, atom.leaf_end):
            values[i] = 1
        return LeafFunction(tree, values)
    values = np.zeros(tree.leaf_count)
    values[atom.leaf_start:atom.leaf_end] = 1.0
    return LeafFunction.from_float_array(tree, values)


def random_functions(tree, count, seed):
    """Deterministic standard-normal leaf functions for test families."""
    rng = np.random.default_rng(seed)
    return [LeafFunction.from_float_array(tree,
                                          rng.standard_normal(tree.leaf_count))
            for _ in range(count)]


# -- conditional expectation and friends -------------------------------------


def atom_average(f, B):
    """Mean of f over the atom: (1/P(B)) * sum of f * P over B's leaves."""
    total = 0
    for i in range(B.leaf_start, B.leaf_end):
        total += f.values[i] * f.tree.leaves[i].measure
    return total / B.measure


def level_means(tree, n, values):
    """Averages over every level-n atom of leaf-value rows.

    `values` is an array whose last axis runs over the leaves (one
    function, or a block of them); the last axis of the result runs over
    the level-n atoms.  Float rows are averaged in float64.  An object
    array is averaged with the tree's own measures, adding the leaves of
    each atom one after another: exact values stay exact, and float
    values get the bits of the same sum written as a loop.
    """
    values = np.asarray(values)
    if values.dtype != object:
        values = values.astype(np.float64, copy=False)
    leafm, measures = tree.measure_arrays(values.dtype)
    starts = tree.level_arrays(n)[0]
    return np.add.reduceat(values * leafm, starts, axis=-1) / measures[n]


def level_projection(tree, n, values):
    """E_n of leaf-value rows, as leaf-value rows: each leaf takes the
    average of its level-n atom, computed as in level_means."""
    return np.repeat(level_means(tree, n, values), tree.level_arrays(n)[1],
                     axis=-1)


def leaf_numerators(f):
    """f's rational values as integer numerators over one denominator:
    (an object array of Python ints u, the lcm E of the denominators),
    so that f = u / E leaf by leaf."""
    nums, den = common_denominator(f.values)
    return np.array(nums, dtype=object), den


def _integer_sums(f):
    """True when f's integrals are exact sums of integer numerators: a
    rational tree and rational values."""
    return f.tree.mode == "exact" and f.has_exact_values


def conditional_expectation(f, n):
    """Average f over every level-n atom; returns a leaf function.

    On a rational tree with rational values the average over B is
    T_B / (E S_B), with S_B the numerator of P(B) and T_B the sum of the
    leaf numerator products over B; any other values are averaged in
    level_means' object loop."""
    tree = f.tree
    if not 0 <= n <= tree.depth:
        raise ValueError(f"level {n} out of range [0, {tree.depth}]")
    if n == tree.depth:
        return f
    if not _integer_sums(f):
        return LeafFunction(tree, level_projection(
            tree, n, np.array(f.values, dtype=object)))
    (u, den), (nums, _) = leaf_numerators(f), tree.numerator_arrays()
    starts, lengths, _ = tree.level_arrays(n)
    sums = np.add.reduceat(nums[-1] * u, starts).tolist()
    means = [Fraction(t, den * s) for t, s in zip(sums, nums[n].tolist())]
    return LeafFunction(tree, np.repeat(np.array(means, dtype=object),
                                        lengths))


def martingale_of(f):
    """The martingale (E_0 f, ..., E_N f) of a leaf function."""
    return MartingaleSequence(f.tree,
                              [conditional_expectation(f, n)
                               for n in range(f.tree.depth + 1)])


def central_p_integral(f, B, n, p):
    """Integral over B of |f - E_n f|^p, for B an atom at level n.

    E_n f is constant on B, equal to the atom average, so only that
    average is needed.  Exact for p = 1 with exact inputs; floats
    otherwise (p-th powers of rationals are irrational in general).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if B.level != n:
        raise ValueError(f"atom {B.id} is at level {B.level}, not {n}")
    avg = atom_average(f, B)
    total = 0
    if p == 1:
        for i in range(B.leaf_start, B.leaf_end):
            total += abs(f.values[i] - avg) * f.tree.leaves[i].measure
    else:
        for i in range(B.leaf_start, B.leaf_end):
            total += abs(float(f.values[i]) - float(avg)) ** p \
                * float(f.tree.leaves[i].measure)
    return total


def _integral(f, absolute):
    """int f dP, or int |f| dP when `absolute`.  A Fraction from integer
    numerators on a rational tree with rational values; otherwise a
    float, summed leaf by leaf for rational values on a float tree."""
    if _integer_sums(f):
        (u, den), (nums, tree_den) = (leaf_numerators(f),
                                      f.tree.numerator_arrays())
        return Fraction(np.dot(nums[-1], np.abs(u) if absolute else u),
                        tree_den * den)
    leafm = f.tree.leaf_measures_f()
    if not f.has_exact_values:
        values = f.values_array
        return float(np.dot(np.abs(values) if absolute else values, leafm))
    total = 0
    for v, m in zip(f.values, leafm.tolist()):
        total += (abs(v) if absolute else v) * m
    return total


def expectation(f):
    return _integral(f, absolute=False)


def linf_norm(f):
    if not f.has_exact_values:
        return float(np.max(np.abs(f.values_array)))
    return max(abs(v) for v in f.values)


def lp_norm(f, p):
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 1:
        return _integral(f, absolute=True)
    total = float(np.dot(np.abs(f.values_array) ** p,
                         f.tree.leaf_measures_f()))
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
        """max over n and leaves of |E_n f_{n+1} - f_n|; 0 for a martingale."""
        worst = 0
        for n in range(self.tree.depth):
            projected = conditional_expectation(self.levels[n + 1], n)
            for a, b in zip(projected.values, self.levels[n].values):
                d = abs(a - b)
                if d > worst:
                    worst = d
        return worst
