"""Finite atom-generated filtrations modeled as rooted measure trees.

Level n of the tree is the atom partition of the n-th sigma-algebra; the
root is the whole space with measure 1.  An atom that survives unsplit to
the next level is encoded as a single child of equal measure, so every
level is a full partition and all leaves sit at the deepest level.

The level arrays are the tree: for each level, the parent index and the
measure of every atom.  Each level lists its atoms in parent order, so
the children of an atom, and its leaves, are contiguous.  An `Atom` is a
value (tree, level, index) that reads these arrays, made when asked for.
Sums over a level's leaf spans, and spreads back to the leaves, go
through the tree: `atom_sums` sums leaf rows over a level's atoms, and
`spread` puts per-atom values back on the leaves.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .report import VerificationReport, count_check

# Allowed drift of level measure sums (and other structural identities)
# when measures are floats.  Exact mode tolerates nothing.
PARTITION_TOL = 1e-12

# Relative gap below the largest float quotient within which
# first_max_ratio settles the order in integers.
RATIO_TOL = 1e-9

# Sums over runs (an atom's leaves, or a parent's children) of at most
# L = COLUMN_SPAN entries add float64 and int64 rows by columns
# (FiltrationTree._run_sums) when they form at least COLUMN_MIN * L sums.
# Up to 8 entries np.add.reduceat adds a run one entry after another;
# from 9 on its pairwise sum takes another order, whose bits columns
# would not keep, so longer runs stay with reduceat.  A level whose runs
# all have one length L reads an (..., runs, L) view; a ragged level
# gathers a (..., L, runs) array through a table of each run's j-th index
# (L its longest run, built on first use), where short runs point at a
# pad of -0.0 (0 in int64), which leaves every sum's bits.  Each of the
# L - 1 column adds has a fixed cost of about a microsecond, against
# reduceat's 11-20 ns per sum, so columns pay from about 50 (L - 1) sums.
COLUMN_SPAN, COLUMN_MIN = 8, 128
_COLUMN_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))

# FiltrationTree.spread with an op and a buffer broadcasts over rows of
# more values than this, and forms np.repeat's spread for fewer.  A spread
# of 2^16 float64 values no longer stays in cache, and broadcasting saves
# writing and reading it (4-11 % of level_reductions on one dyadic
# depth-16 row); on the certificate's blocks of 16 x 1024 values the
# broadcast's short inner loops cost about 5 % more.
BROADCAST_MIN = 1 << 15

# The deepest dyadic tree a config may ask for.  Its arrays hold about
# 2^(depth + 2) entries: depth 20 builds in 0.4 s with a peak RSS of
# about 210 MB, and each further level doubles both.
MAX_DYADIC_DEPTH = 20


class TreeSpecError(ValueError):
    """A tree description violates the partition rules."""


@dataclass(frozen=True, slots=True)
class Atom:
    """One cell of a filtration level: a value (tree, level, index) that
    reads the tree's level arrays, equal to another with the same tree
    (by identity), level and index.  ``leaf_start:leaf_end`` is the
    contiguous range of leaves in the atom, and its measure is a reduced
    Fraction on an exact tree, a float on a float tree.
    """

    tree: FiltrationTree
    level: int
    index: int

    @property
    def id(self):
        return (self.level, self.index)

    @property
    def measure(self):
        m, den = self.tree._levels[self.level].item(self.index), self.tree._den
        return m if den is None else Fraction(m, den)

    @property
    def parent(self):
        n, tree = self.level, self.tree
        return Atom(tree, n - 1, tree._parents[n - 1].item(self.index)) \
            if n else None

    @property
    def leaf_start(self):
        return self.tree._starts[self.level].item(self.index)

    @property
    def leaf_end(self):
        return self.leaf_start + self.tree._lengths[self.level].item(self.index)

    def __repr__(self):
        return f"Atom(level={self.level}, index={self.index}, measure={self.measure})"


class FiltrationTree:
    """A finite filtration: one atom partition per level, refining downward.

    ``parents[n - 1]`` gives, for each level-n atom, the index of its
    parent at level n - 1; it is non-decreasing, so each atom's children
    are contiguous.  ``measures[n]`` gives the level-n atom measures.
    ``offsets``, read-only, holds the cumulative atom counts of the levels:
    atom (n, i) is number ``offsets[n] + i`` in level order.
    ``mode`` is "exact" when all measures are rationals (Fraction/int) and
    "float" otherwise.  An exact tree stores one integer D, the lcm of the
    denominators of every atom measure, and each level's measures as
    integer numerators over D (object arrays of Python ints); a float
    tree stores them as float64.  Structural checks are exact integer
    sums in the former and use PARTITION_TOL in the latter.  Trees are
    immutable after construction (their weight cache only fills).
    """

    def __init__(self, parents, measures, mode):
        if mode not in ("exact", "float"):
            raise TreeSpecError(f"unknown arithmetic mode {mode!r}")
        if mode == "float":
            self._setup(parents, measures, None)
            return
        try:
            nums, den = common_denominator([m for ms in measures for m in ms])
        except AttributeError:
            raise TreeSpecError("exact measures must be ints or Fractions") \
                from None
        ends = np.cumsum([len(ms) for ms in measures], dtype=np.int64)
        self._setup(parents, np.split(np.array(nums, dtype=object), ends[:-1]),
                    den)

    @classmethod
    def _exact(cls, parents, numerators, den):
        """An exact tree from integer numerators over the denominator den."""
        tree = cls.__new__(cls)
        tree._setup(parents, numerators, den)
        return tree

    def _setup(self, parents, levels, den):
        self.mode = "float" if den is None else "exact"
        self._den = den
        dtype = np.float64 if den is None else object
        self._levels = tuple(np.asarray(m, dtype=dtype) for m in levels)
        self._parents = tuple(np.asarray(p, dtype=np.int64) for p in parents)
        self._validate()
        # leaf-span lengths upward (an atom spans its children's leaves;
        # a leaf's 1s are one broadcast value), then starts from lengths
        lengths = [np.broadcast_to(np.int64(1), (self.leaf_count,))]
        for up in reversed(self._parents):
            lengths.append(np.bincount(up, weights=lengths[-1]).astype(np.int64))
        self._lengths = tuple(reversed(lengths))
        self._starts = tuple(np.cumsum(n) - n for n in self._lengths)
        self.offsets = np.cumsum([0] + [len(m) for m in self._levels])
        self.offsets.flags.writeable = False
        # the one span length of a level whose atoms all have it, else 0
        self._spans = tuple(int(n[0]) if (n == n[0]).all() else 0
                            for n in self._lengths)
        # int / int rounds correctly, as float(Fraction) does
        self._float = (self._levels if den is None else
                       tuple((m / den).astype(np.float64) for m in self._levels))
        # a level's one child count k (else 0, as _spans) and first-child
        # offsets: on a level of one k, the view 0, k, ... of the leaf starts
        self._arity, self._firsts = (), ()
        for up in self._parents:
            counts = np.bincount(up)
            k = int(counts[0]) if (counts == counts[0]).all() else 0
            self._arity += (k,)
            self._firsts += (self._starts[-1][:len(up):k] if k else
                             np.cumsum(counts) - counts,)
        self._phi_cache, self._tables = {}, {}

    # -- structure ---------------------------------------------------------

    @property
    def depth(self):
        return len(self._levels) - 1

    @property
    def leaf_count(self):
        return len(self._levels[-1])

    @property
    def levels(self):
        """The atom handles of every level, made anew on each access."""
        return tuple(map(self.atoms, range(self.depth + 1)))

    @property
    def leaves(self):
        return self.atoms(self.depth)

    @property
    def root(self):
        return Atom(self, 0, 0)

    def atoms(self, n):
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} out of range [0, {self.depth}]")
        return tuple(Atom(self, n, i) for i in range(len(self._levels[n])))

    def atom(self, level, index):
        level, index = operator.index(level), operator.index(index)
        if 0 <= level <= self.depth and 0 <= index < len(self._levels[level]):
            return Atom(self, level, index)
        raise ValueError(f"no atom ({level}, {index}) in tree")

    def ancestors(self, n, i):
        """[i_0, ..., i_n]: the index of atom (n, i)'s ancestor on every
        level, the root's first."""
        path = [i]
        for up in reversed(self._parents[:n]):
            i = up.item(i)
            path.append(i)
        return path[::-1]

    def same_structure(self, other):
        """True when both trees have identical shape and measures."""
        return (self.depth == other.depth and self._den == other._den
                and all(map(np.array_equal, self._parents, other._parents))
                and all(map(np.array_equal, self._levels, other._levels)))

    def _validate(self):
        levels, den = self._levels, self._den
        exact = den is not None

        def show(x):  # an exact numerator as the measure it stands for
            return Fraction(x, den) if exact else x

        if not levels or len(levels[0]) != 1:
            raise TreeSpecError("level 0 must contain exactly one atom")
        if len(self._parents) != len(levels) - 1:
            raise TreeSpecError(
                f"{len(self._parents)} parent arrays for {len(levels)} "
                f"levels, expected one per level below the root")
        root = levels[0].tolist()[0]
        if root != (den if exact else 1):
            raise TreeSpecError(f"root measure must be 1, got {show(root)}")
        for n, m in enumerate(levels):
            if not len(m):
                raise TreeSpecError(f"level {n} is empty")
            total = m.sum()
            if exact:
                if total != den:
                    raise TreeSpecError(
                        f"level {n} measures sum to {show(total)}, expected 1")
            elif abs(total - 1) > PARTITION_TOL:
                raise TreeSpecError(
                    f"level {n} measures sum to {float(total)!r}, drift "
                    f"exceeds {PARTITION_TOL}")
            bad = np.flatnonzero(~(m > 0))
            if bad.size:
                raise TreeSpecError(
                    f"atom {(n, int(bad[0]))} has non-positive measure")
            if n == 0:
                continue
            up, above = self._parents[n - 1], levels[n - 1]
            if up.shape != m.shape:
                raise TreeSpecError(f"level {n} has {len(m)} atoms but "
                                    f"{len(up)} parent indices")
            bad = np.flatnonzero((up < 0) | (up >= len(above)))
            if bad.size:
                raise TreeSpecError(
                    f"atom {(n, int(bad[0]))} has no level-{n - 1} parent")
            bad = np.flatnonzero(np.diff(up) < 0)
            if bad.size:
                raise TreeSpecError(
                    f"atom {(n, int(bad[0]) + 1)} is out of parent order")
            counts = np.bincount(up, minlength=len(above))
            bad = np.flatnonzero(counts == 0)
            if bad.size:
                raise TreeSpecError(
                    f"non-leaf atom {(n - 1, int(bad[0]))} has no children")
            sums = np.add.reduceat(m, np.cumsum(counts) - counts)
            bad = np.flatnonzero(sums != above if exact else
                                 np.abs(sums - above) > PARTITION_TOL)
            if bad.size:
                j = int(bad[0])
                got, want = sums[j], above[j]
                if exact:
                    raise TreeSpecError(f"children of {(n - 1, j)} sum to "
                                        f"{show(got)}, expected {show(want)}")
                raise TreeSpecError(f"children of {(n - 1, j)} sum to "
                                    f"{float(got)!r}, expected {float(want)!r}")

    # -- the level arrays ----------------------------------------------------

    def leaf_measures_f(self):
        return self._float[-1]

    def level_arrays(self, n):
        """(span starts, span lengths, atom measures) as int64/float64 arrays."""
        return self._starts[n], self._lengths[n], self._float[n]

    def atom_sums(self, n, rows, atoms=None):
        """Sums of leaf rows over every level-n atom, along the last axis.

        Float rows get np.add.reduceat's bits: _run_sums adds float64 and
        int64 rows by columns when every atom spans at most COLUMN_SPAN
        leaves, the first leaf plus the left-to-right sum of the rest,
        without a call per atom (on a ragged level, through a -0.0 or 0
        pad).  Longer spans and object rows (whose sums are the
        leaf-by-leaf loop) use reduceat itself.  With `atoms`, ascending
        level-n indices, `rows` holds only those atoms' leaves, in order
        (atom_leaves), and the sums are over those atoms.  No result
        shares memory with `rows`.
        """
        if atoms is not None:
            lengths = self._lengths[n][atoms]
            return np.add.reduceat(rows, np.cumsum(lengths) - lengths,
                                   axis=-1)
        return self._run_sums(rows, ("atoms", n), self._starts[n],
                              self._spans[n])

    def child_sums(self, n, rows):
        """Sums of level-(n + 1) rows over every level-n atom's children,
        along the last axis, with reduceat's bits: by columns as in
        atom_sums when no atom of the level has more than COLUMN_SPAN
        children, by reduceat otherwise."""
        return self._run_sums(rows, ("children", n), self._firsts[n],
                              self._arity[n])

    def _run_sums(self, rows, key, starts, span):
        """Sums along the last axis of the runs that begin at `starts`, in
        reduceat's order: the first entry plus the rest's sum.  Runs all
        of length `span` add the columns of an (..., runs, span) view.  On
        a ragged level (span 0) whose longest run L is at most COLUMN_SPAN,
        column j gathers each run's j-th entry through an (L, runs) table,
        built on first use and kept under `key`, in which a shorter run
        points at a pad appended to the rows.  Rows outside _COLUMN_DTYPES,
        longer runs and fewer than COLUMN_MIN * L sums use reduceat."""
        table = None
        if rows.dtype not in _COLUMN_DTYPES:
            span = 0
        elif not span:
            if key not in self._tables:
                size = rows.shape[-1]
                lengths = np.diff(starts, append=size)
                j = np.arange(lengths.max())[:, None]
                self._tables[key] = (np.where(j < lengths, starts + j, size)
                                     if len(j) <= COLUMN_SPAN else None)
            table = self._tables[key]
            span = 0 if table is None else len(table)
        if not (0 < span <= COLUMN_SPAN and rows.size // rows.shape[-1]
                * len(starts) >= COLUMN_MIN * span):
            return np.add.reduceat(rows, starts, axis=-1)
        if table is None:
            cols = rows.reshape(rows.shape[:-1] + (-1, span))
        else:  # x + -0.0 is x, signed zeros included; int64 pads with 0
            pad = np.full(rows.shape[:-1] + (1,), -0.0, rows.dtype)
            cols = np.concatenate((rows, pad), axis=-1).take(
                table, axis=-1).swapaxes(-1, -2)
        if span == 1:
            return cols[..., 0].copy()
        if span == 2:
            return cols[..., 0] + cols[..., 1]
        rest = cols[..., 1] + cols[..., 2]
        for j in range(3, span):
            rest += cols[..., j]
        return np.add(cols[..., 0], rest, out=rest)

    def child_arrays(self, n):
        """(first-child offsets of the level-n atoms, the parent of each
        level-(n + 1) atom) as int64 arrays, for n above the deepest."""
        return self._firsts[n], self._parents[n]

    def atom_leaves(self, n, atoms):
        """The leaf indices of the given level-n atoms (ascending), in
        order: the layout of atom_sums' `rows` for those atoms."""
        starts, lengths = self._starts[n][atoms], self._lengths[n][atoms]
        return (np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
                + np.arange(lengths.sum()))

    def spread(self, n, values, op=None, rows=None, out=None):
        """Per-atom values on the leaves: each leaf of a level-n atom takes
        the atom's entry along the last axis of `values` (np.repeat, by
        one count on a level whose atoms all span the same number of
        leaves, which costs less than a count per atom).

        With a binary ufunc `op`, returns op(rows, that spread) for leaf
        rows `rows`, written into `out` when given.  Rows of more than
        BROADCAST_MIN values with an `out` on such a level broadcast the
        op over an (..., atoms, span) view instead of forming the spread.
        """
        span = self._spans[n]
        if span and out is not None and rows.size > BROADCAST_MIN:
            shape = rows.shape[:-1] + (-1, span)
            op(rows.reshape(shape), values[..., None], out=out.reshape(shape))
            return out
        spread = np.repeat(values, span or self._lengths[n], axis=-1)
        return spread if op is None else op(rows, spread, out=out)

    def numerator_arrays(self):
        """(per-level measure numerators, D): on an exact tree each level's
        measures as an object array of Python ints over the one integer D,
        on a float tree the float64 measures and None."""
        return self._levels, self._den


def common_denominator(values):
    """Rationals (ints or Fractions) as (a list of integer numerators, D)
    over the lcm D of their denominators."""
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


def first_max_ratio(nums, dens):
    """Index of the first largest nums[i] / dens[i], for integer arrays,
    int64 or object arrays of Python ints, with nums >= 0 and dens > 0.

    Floats pick the candidates within RATIO_TOL of the largest quotient
    (an int64 quotient is off by a few ulps at most, an object one is
    correctly rounded), and cross-multiplication in Python ints picks the
    exact winner among them; when a quotient is too large for a float,
    every index is a candidate.
    """
    try:
        approx = np.asarray(nums / dens, dtype=np.float64)
    except OverflowError:
        candidates = range(len(nums))
    else:
        candidates = np.flatnonzero(
            approx >= approx.max() * (1 - RATIO_TOL)).tolist()
    nums, dens = nums.tolist(), dens.tolist()
    best = candidates[0]
    for i in candidates[1:]:
        if nums[i] * dens[best] > nums[best] * dens[i]:
            best = i
    return best


# -- builders ---------------------------------------------------------------


def build_dyadic(depth):
    """Dyadic tree: level n splits [0,1) into 2**n half-open intervals.

    Measures are exact rationals.
    """
    if depth < 0:
        raise TreeSpecError("depth must be >= 0")
    return FiltrationTree._exact(
        [np.arange(2 ** n) // 2 for n in range(1, depth + 1)],
        [np.full(2 ** n, 2 ** (depth - n), dtype=object)
         for n in range(depth + 1)],
        2 ** depth)


def _parse_fraction(value, where):
    if isinstance(value, bool):
        raise TreeSpecError(f"{where}: fraction must be a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value), True
    if isinstance(value, Fraction):
        return value, True
    if isinstance(value, str):
        try:
            return Fraction(value), True
        except (ValueError, ZeroDivisionError) as exc:
            raise TreeSpecError(f"{where}: cannot parse fraction {value!r}: {exc}")
    if isinstance(value, float):
        return value, False
    raise TreeSpecError(f"{where}: unsupported fraction type {type(value).__name__}")


def _split(spec, measure, where):
    """The children of one spec node as (spec, measure, where) triples,
    and whether the node's own fractions are exact.

    ``spec`` may be None (stop splitting), the string "persist", or
    {"fractions": [...], "children": [...]} / {"persist": subspec}.  A
    stopped or persisting node has one child of its own measure.
    """
    if spec is None:
        return [(None, measure, where)], True
    if spec == "persist":
        return [(None, measure, where + ".persist")], True
    if not isinstance(spec, dict):
        raise TreeSpecError(f"{where}: expected dict, 'persist' or null, got {spec!r}")
    if "persist" in spec:
        return [(spec["persist"], measure, where + ".persist")], True
    fractions = spec.get("fractions")
    if not isinstance(fractions, list) or not fractions:
        raise TreeSpecError(f"{where}: node needs a non-empty 'fractions' "
                            f"list, got {fractions!r}")
    child_specs = spec.get("children")
    if child_specs is None:
        child_specs = [None] * len(fractions)
    if not isinstance(child_specs, list) or len(child_specs) != len(fractions):
        raise TreeSpecError(f"{where}: 'children' must list one entry per "
                            f"fraction, got {child_specs!r}")
    all_exact = True
    parsed = []
    for i, raw in enumerate(fractions):
        frac, exact = _parse_fraction(raw, f"{where}.fractions[{i}]")
        all_exact = all_exact and exact
        if not frac > 0:
            raise TreeSpecError(f"{where}.fractions[{i}]: fraction {frac} is not positive")
        parsed.append(frac)
    total = sum(parsed)
    if all_exact:
        if total != 1:
            raise TreeSpecError(f"{where}: fractions sum to {total}, expected 1")
    elif abs(float(total) - 1.0) > PARTITION_TOL:
        raise TreeSpecError(f"{where}: fractions sum to {float(total)!r}, expected 1")
    return [(child, measure * frac, f"{where}.children[{i}]")
            for i, (frac, child) in enumerate(zip(parsed, child_specs))], all_exact


def build_from_spec(spec):
    """Build a tree from a nested split description.

    Each node gives positive child fractions summing to 1, "persist" for a
    single equal-measure child, or null to stop splitting; shorter branches
    are padded with persistence steps so all leaves share the deepest level.
    Fractions given as strings or ints are parsed exactly and produce an
    exact-mode tree; float fractions switch the tree to floating mode.  A
    measure is the product of the fractions on its path, exact until a
    float fraction appears on that path.

    The spec is expanded one level at a time, children in order, so its
    nesting depth is not limited by the interpreter's recursion limit.
    """
    frontier = [(spec, Fraction(1), "root")]
    parents, measures, all_exact = [], [[Fraction(1)]], True
    while any(node is not None for node, _, _ in frontier):
        level, up = [], []
        for i, node in enumerate(frontier):
            children, exact = _split(*node)
            all_exact = all_exact and exact
            level.extend(children)
            up.extend([i] * len(children))
        frontier = level
        parents.append(up)
        measures.append([m for _, m, _ in level])
    return FiltrationTree(parents, measures, "exact" if all_exact else "float")


def parse_tree_config(config):
    """Build a tree from the JSON config form.

    {"type": "dyadic", "depth": N} or {"type": "splits", "root": {...}}.
    """
    if not isinstance(config, dict) or "type" not in config:
        raise TreeSpecError("tree config must be a dict with a 'type' key")
    kind = config["type"]
    if kind == "dyadic":
        depth = config.get("depth")
        if not isinstance(depth, int) or isinstance(depth, bool) \
                or not 0 <= depth <= MAX_DYADIC_DEPTH:
            raise TreeSpecError(f"tree.depth must be an int in [0, "
                                f"{MAX_DYADIC_DEPTH}], got {depth!r}")
        return build_dyadic(depth)
    if kind == "splits":
        if "root" not in config:
            raise TreeSpecError("tree config of type 'splits' needs a 'root' entry")
        return build_from_spec(config["root"])
    raise TreeSpecError(f"unknown tree type {kind!r}")


# -- queries ----------------------------------------------------------------


def regularity_constant(tree):
    """Least R bounding every parent/child measure ratio.

    This is the regularity constant of the filtration: conditioning a
    non-negative function one level up shrinks atom averages by at most R.
    A tree with no splits (or depth 0) gets R = 1.
    """
    exact = tree.mode == "exact"
    best = Fraction(1) if exact else 1.0
    for up, above, m in zip(tree._parents, tree._levels, tree._levels[1:]):
        if exact:
            parent = above[up]
            i = first_max_ratio(parent, m)
            ratio = Fraction(parent[i], m[i])
        else:
            ratio = float((above[up] / m).max())
        if ratio > best:
            best = ratio
    return best


def is_dyadic(tree):
    """True when level n holds 2**n atoms, each of measure exactly 2**-n."""
    den = tree._den
    return all(len(m) == 2 ** n and bool(
        (m == 0.5 ** n).all() if den is None else (m * 2 ** n == den).all())
        for n, m in enumerate(tree._levels))


def chain_to_root(tree, leaf):
    """Ancestor chain [B_0, ..., B_N] ending at the given deepest-level atom."""
    if leaf.level != tree.depth:
        raise ValueError(f"atom {leaf.id} is at level {leaf.level}, "
                         f"not at the deepest level {tree.depth}")
    own_atom(tree, leaf)
    return [Atom(tree, n, i)
            for n, i in enumerate(tree.ancestors(leaf.level, leaf.index))]


def own_atom(tree, atom):
    """The atom, if it is this tree's own handle; else a ValueError."""
    if atom.tree is not tree:
        raise ValueError(f"atom {atom.id} does not belong to this tree")
    return atom


def truncate(tree, depth):
    """Fresh tree consisting of levels 0..depth of the given one."""
    if not 0 <= depth <= tree.depth:
        raise ValueError(f"truncation depth {depth} out of range [0, {tree.depth}]")
    parents, levels = tree._parents[:depth], tree._levels[:depth + 1]
    if tree.mode == "float":
        return FiltrationTree(parents, levels, "float")
    # the leaf numerators' common factor with D divides every level's
    g = math.gcd(tree._den, *levels[-1].tolist())
    return FiltrationTree._exact(parents, [m // g for m in levels],
                                 tree._den // g)


def check_chain_gaps(tree, R):
    """Check the two-sided gap property of every refinement edge.

    Each edge must be a persistence step (equal measures) or satisfy
    (1 + 1/R) P(child) <= P(parent) <= R P(child).  Each level's edges are
    checked at once, `above[up]` against the level as in
    regularity_constant: an exact tree takes R at its exact value a/b and
    compares numerators, P == C, (a + b) C <= a P and b P <= a C, a float
    tree float64 measures with PARTITION_TOL of slack.  Violations are
    reported, not raised.  Returns a VerificationReport.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    den = tree._den
    if den is None:
        show, k, r = float, 1 + 1 / float(R), float(R)
    else:
        a, b = Fraction(R).as_integer_ratio()
        show = lambda x: str(Fraction(x, den))
    edges = persistence = violations = 0
    witness = []  # the first 8 violations in level order
    for n, (up, above, m) in enumerate(
            zip(tree._parents, tree._levels, tree._levels[1:]), 1):
        parent = above[up]
        if den is None:
            lo = k * m <= parent + PARTITION_TOL
            hi = parent <= r * m + PARTITION_TOL
        else:
            lo, hi = (a + b) * m <= a * parent, b * parent <= a * m
        persist = parent == m
        bad = np.flatnonzero(~persist & ~(lo & hi))
        edges += len(m)
        persistence += int(np.count_nonzero(persist))
        violations += len(bad)
        witness += [{"child": (n, i), "parent": (n - 1, int(up[i])),
                     "child_measure": show(m[i]),
                     "parent_measure": show(parent[i]),
                     "lower_ok": bool(lo[i]), "upper_ok": bool(hi[i])}
                    for i in bad[:8 - len(witness)].tolist()]
    return VerificationReport(suite="chain_gaps", checks=[count_check(
        "chain_gap_two_sided",
        "refinement-edge gap bounds for regular filtrations",
        {"R": float(R), "edges": edges, "persistence_steps": persistence,
         "violations": violations}, "violations", witness=witness or None)])
