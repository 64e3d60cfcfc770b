"""Finite atom-generated filtrations modeled as rooted measure trees.

Level n of the tree is the atom partition of the n-th sigma-algebra; the
root is the whole space with measure 1.  An atom that survives unsplit to
the next level is encoded as a single child of equal measure, so every
level is a full partition and all leaves sit at the deepest level.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Allowed drift of level measure sums (and other structural identities)
# when measures are floats.  Exact mode tolerates nothing.
PARTITION_TOL = 1e-12


class TreeSpecError(ValueError):
    """A tree description violates the partition rules."""


class Atom:
    """One cell of a filtration level.

    Atoms are identified by (level, index) in construction order.  After
    the tree is built, ``leaf_start:leaf_end`` is the contiguous range of
    deepest-level atoms contained in this one.
    """

    __slots__ = ("level", "index", "measure", "parent", "children",
                 "leaf_start", "leaf_end")

    def __init__(self, level, index, measure, parent=None):
        self.level = level
        self.index = index
        self.measure = measure
        self.parent = parent
        self.children = []
        self.leaf_start = -1
        self.leaf_end = -1

    @property
    def id(self):
        return (self.level, self.index)

    @property
    def is_leaf(self):
        return not self.children

    def __repr__(self):
        return f"Atom(level={self.level}, index={self.index}, measure={self.measure})"


class FiltrationTree:
    """A finite filtration: one atom partition per level, refining downward.

    ``mode`` is "exact" when all measures are rationals (Fraction/int) and
    "float" otherwise; structural checks are exact in the former and use
    PARTITION_TOL in the latter.  Trees are immutable after construction;
    concurrent reads are safe.
    """

    def __init__(self, levels, mode):
        if mode not in ("exact", "float"):
            raise TreeSpecError(f"unknown arithmetic mode {mode!r}")
        self.levels = tuple(tuple(level) for level in levels)
        self.mode = mode
        self._assign_leaf_spans()
        self._validate()
        self._arrays = {}
        self._phi_cache = {}

    # -- structure ---------------------------------------------------------

    @property
    def depth(self):
        return len(self.levels) - 1

    @property
    def leaves(self):
        return self.levels[-1]

    @property
    def leaf_count(self):
        return len(self.levels[-1])

    @property
    def root(self):
        return self.levels[0][0]

    def atoms(self, n):
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} out of range [0, {self.depth}]")
        return self.levels[n]

    def all_atoms(self):
        for level in self.levels:
            yield from level

    def atom(self, level, index):
        try:
            return self.levels[level][index]
        except IndexError:
            raise ValueError(f"no atom ({level}, {index}) in tree") from None

    def same_structure(self, other):
        """True when both trees have identical shape and measures."""
        if self.depth != other.depth:
            return False
        for mine, theirs in zip(self.levels, other.levels):
            if len(mine) != len(theirs):
                return False
            for a, b in zip(mine, theirs):
                if a.measure != b.measure:
                    return False
                pa = None if a.parent is None else a.parent.index
                pb = None if b.parent is None else b.parent.index
                if pa != pb:
                    return False
        return True

    def _assign_leaf_spans(self):
        for i, leaf in enumerate(self.levels[-1]):
            leaf.leaf_start = i
            leaf.leaf_end = i + 1
        for level in reversed(self.levels[:-1]):
            for atom in level:
                if not atom.children:
                    raise TreeSpecError(
                        f"non-leaf atom {atom.id} has no children")
                atom.leaf_start = atom.children[0].leaf_start
                atom.leaf_end = atom.children[-1].leaf_end

    def _validate(self):
        if len(self.levels) == 0 or len(self.levels[0]) != 1:
            raise TreeSpecError("level 0 must contain exactly one atom")
        root = self.levels[0][0]
        if root.measure != 1:
            raise TreeSpecError(f"root measure must be 1, got {root.measure}")
        for n, level in enumerate(self.levels):
            if not level:
                raise TreeSpecError(f"level {n} is empty")
            total = sum(atom.measure for atom in level)
            if self.mode == "exact":
                if total != 1:
                    raise TreeSpecError(
                        f"level {n} measures sum to {total}, expected 1")
            elif abs(total - 1) > PARTITION_TOL:
                raise TreeSpecError(
                    f"level {n} measures sum to {total!r}, drift exceeds "
                    f"{PARTITION_TOL}")
            for atom in level:
                if atom.measure <= 0:
                    raise TreeSpecError(f"atom {atom.id} has non-positive measure")
                if n == 0:
                    continue
                if atom.parent is None or atom.parent.level != n - 1:
                    raise TreeSpecError(f"atom {atom.id} has no level-{n-1} parent")
        for n, level in enumerate(self.levels[:-1]):
            for atom in level:
                child_total = sum(c.measure for c in atom.children)
                if self.mode == "exact":
                    if child_total != atom.measure:
                        raise TreeSpecError(
                            f"children of {atom.id} sum to {child_total}, "
                            f"expected {atom.measure}")
                elif abs(child_total - atom.measure) > PARTITION_TOL:
                    raise TreeSpecError(
                        f"children of {atom.id} sum to {child_total!r}, "
                        f"expected {atom.measure!r}")

    # -- array views for the vectorized norm scans --------------------------

    def leaf_measures_f(self):
        arr = self._arrays.get("leafm")
        if arr is None:
            arr = np.array([float(a.measure) for a in self.leaves], dtype=np.float64)
            self._arrays["leafm"] = arr
        return arr

    def level_arrays(self, n):
        """(span starts, span lengths, atom measures) as float64/int64 arrays."""
        key = ("level", n)
        arrs = self._arrays.get(key)
        if arrs is None:
            level = self.atoms(n)
            starts = np.array([a.leaf_start for a in level], dtype=np.int64)
            lengths = np.array([a.leaf_end - a.leaf_start for a in level],
                               dtype=np.int64)
            measures = np.array([float(a.measure) for a in level], dtype=np.float64)
            arrs = (starts, lengths, measures)
            self._arrays[key] = arrs
        return arrs

    def measure_arrays(self, dtype):
        """(leaf measures, per-level atom measures) for rows of the given
        dtype: the tree's own numbers as object arrays for object rows, so
        that sums of exact values stay exact, and float64 otherwise."""
        exact = np.dtype(dtype) == object
        arrs = self._arrays.get(("measures", exact))
        if arrs is None:
            if exact:
                levels = tuple(np.array([a.measure for a in level], dtype=object)
                               for level in self.levels)
            else:
                levels = tuple(self.level_arrays(n)[2]
                               for n in range(self.depth + 1))
            arrs = (levels[-1], levels)
            self._arrays[("measures", exact)] = arrs
        return arrs


# -- builders ---------------------------------------------------------------


def build_dyadic(depth):
    """Dyadic tree: level n splits [0,1) into 2**n half-open intervals.

    Measures are exact rationals.
    """
    if depth < 0:
        raise TreeSpecError("depth must be >= 0")
    levels = [[Atom(0, 0, Fraction(1))]]
    for n in range(1, depth + 1):
        prev = levels[-1]
        level = []
        for parent in prev:
            half = parent.measure / 2
            for _ in range(2):
                child = Atom(n, len(level), half, parent)
                parent.children.append(child)
                level.append(child)
        levels.append(level)
    return FiltrationTree(levels, "exact")


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


class _Node:
    __slots__ = ("fraction", "children")

    def __init__(self, fraction):
        self.fraction = fraction
        self.children = []


def _expand_spec(spec, fraction, where):
    """Recursively expand a split description into a _Node tree.

    Returns (node, all_exact).  ``spec`` may be None (stop splitting),
    the string "persist", or {"fractions": [...], "children": [...]}
    / {"persist": subspec}.
    """
    node = _Node(fraction)
    if spec is None:
        return node, True
    if spec == "persist":
        child, _ = _expand_spec(None, fraction, where + ".persist")
        node.children.append(child)
        return node, True
    if not isinstance(spec, dict):
        raise TreeSpecError(f"{where}: expected dict, 'persist' or null, got {spec!r}")
    if "persist" in spec:
        child, exact = _expand_spec(spec["persist"], fraction, where + ".persist")
        node.children.append(child)
        return node, exact
    fractions = spec.get("fractions")
    if not fractions:
        raise TreeSpecError(f"{where}: node needs a non-empty 'fractions' list")
    child_specs = spec.get("children")
    if child_specs is None:
        child_specs = [None] * len(fractions)
    if len(child_specs) != len(fractions):
        raise TreeSpecError(
            f"{where}: 'children' length {len(child_specs)} does not match "
            f"'fractions' length {len(fractions)}")
    all_exact = True
    parsed = []
    for i, raw in enumerate(fractions):
        frac, exact = _parse_fraction(raw, f"{where}.fractions[{i}]")
        all_exact = all_exact and exact
        if frac <= 0:
            raise TreeSpecError(f"{where}.fractions[{i}]: fraction {frac} is not positive")
        parsed.append(frac)
    total = sum(parsed)
    if all_exact:
        if total != 1:
            raise TreeSpecError(f"{where}: fractions sum to {total}, expected 1")
    elif abs(float(total) - 1.0) > PARTITION_TOL:
        raise TreeSpecError(f"{where}: fractions sum to {float(total)!r}, expected 1")
    for i, (frac, child_spec) in enumerate(zip(parsed, child_specs)):
        child_fraction = fraction * frac if all_exact else float(fraction) * float(frac)
        child, exact = _expand_spec(child_spec, child_fraction, f"{where}.children[{i}]")
        all_exact = all_exact and exact
        node.children.append(child)
    return node, all_exact


def _node_depth(node):
    if not node.children:
        return 0
    return 1 + max(_node_depth(c) for c in node.children)


def _pad_to_depth(node, depth):
    # Shallow branches persist (single equal-measure child) down to `depth`.
    if depth == 0:
        return
    if not node.children:
        node.children.append(_Node(node.fraction))
    for child in node.children:
        _pad_to_depth(child, depth - 1)


def build_from_spec(spec):
    """Build a tree from a nested split description.

    Each node gives positive child fractions summing to 1, "persist" for a
    single equal-measure child, or null to stop splitting; shorter branches
    are padded with persistence steps so all leaves share the deepest level.
    Fractions given as strings or ints are parsed exactly and produce an
    exact-mode tree; float fractions switch the tree to floating mode.
    """
    root_node, all_exact = _expand_spec(spec, Fraction(1), "root")
    depth = _node_depth(root_node)
    _pad_to_depth(root_node, depth)
    if not all_exact:
        _to_float(root_node)
    levels = [[] for _ in range(depth + 1)]
    root_atom = Atom(0, 0, root_node.fraction)
    levels[0].append(root_atom)
    stack = [(root_node, root_atom)]
    # DFS keeps each atom's leaves contiguous in construction order.
    while stack:
        node, atom = stack.pop()
        for child_node in reversed(node.children):
            n = atom.level + 1
            child_atom = Atom(n, 0, child_node.fraction, atom)
            atom.children.append(child_atom)
            stack.append((child_node, child_atom))
    _collect_levels(root_atom, levels)
    for level in levels:
        for i, atom in enumerate(level):
            atom.index = i
    return FiltrationTree(levels, "exact" if all_exact else "float")


def _to_float(node):
    node.fraction = float(node.fraction)
    for child in node.children:
        _to_float(child)


def _collect_levels(root_atom, levels):
    # Children were appended in reversed DFS pop order; restore left-to-right.
    for level in levels:
        level.clear()
    frontier = [root_atom]
    n = 0
    while frontier:
        levels[n].extend(frontier)
        nxt = []
        for atom in frontier:
            atom.children.reverse()
            nxt.extend(atom.children)
        frontier = nxt
        n += 1


def parse_tree_config(config):
    """Build a tree from the JSON config form.

    {"type": "dyadic", "depth": N} or {"type": "splits", "root": {...}}.
    """
    if not isinstance(config, dict) or "type" not in config:
        raise TreeSpecError("tree config must be a dict with a 'type' key")
    kind = config["type"]
    if kind == "dyadic":
        depth = config.get("depth")
        if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
            raise TreeSpecError(f"tree.depth must be a non-negative int, got {depth!r}")
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
    best = Fraction(1) if tree.mode == "exact" else 1.0
    for level in tree.levels[1:]:
        for atom in level:
            ratio = atom.parent.measure / atom.measure
            if ratio > best:
                best = ratio
    return best


def is_dyadic(tree):
    """True when level n holds 2**n atoms, each of measure exactly 2**-n."""
    return all(len(level) == 2 ** n and
               all(a.measure == Fraction(1, 2 ** n) for a in level)
               for n, level in enumerate(tree.levels))


def chain_to_root(tree, leaf):
    """Ancestor chain [B_0, ..., B_N] ending at the given deepest-level atom."""
    if leaf.level != tree.depth:
        raise ValueError(f"atom {leaf.id} is at level {leaf.level}, "
                         f"not at the deepest level {tree.depth}")
    if tree.atom(leaf.level, leaf.index) is not leaf:
        raise ValueError(f"atom {leaf.id} does not belong to this tree")
    chain = [leaf]
    while chain[-1].parent is not None:
        chain.append(chain[-1].parent)
    chain.reverse()
    return chain


def truncate(tree, depth):
    """Fresh tree consisting of levels 0..depth of the given one."""
    if not 0 <= depth <= tree.depth:
        raise ValueError(f"truncation depth {depth} out of range [0, {tree.depth}]")
    old_to_new = {}
    levels = []
    for n in range(depth + 1):
        level = []
        for atom in tree.levels[n]:
            parent = old_to_new[atom.parent.id] if atom.parent is not None else None
            copy = Atom(n, atom.index, atom.measure, parent)
            if parent is not None:
                parent.children.append(copy)
            old_to_new[atom.id] = copy
            level.append(copy)
        levels.append(level)
    return FiltrationTree(levels, tree.mode)


def check_chain_gaps(tree, R):
    """Check the two-sided gap property of every refinement edge.

    Each edge must be a persistence step (equal measures) or satisfy
    (1 + 1/R) P(child) <= P(parent) <= R P(child).  Violations are
    reported, not raised.  Returns a VerificationReport.
    """
    from .report import Check, VerificationReport

    if R <= 0:
        raise ValueError("R must be positive")
    slack = 0 if tree.mode == "exact" else PARTITION_TOL
    violations = []
    edges = 0
    persistence = 0
    for level in tree.levels[1:]:
        for atom in level:
            p, c = atom.parent.measure, atom.measure
            edges += 1
            if p == c:
                persistence += 1
                continue
            lower_ok = (1 + 1 / _as_number(R, tree.mode)) * c <= p + slack
            upper_ok = p <= R * c + slack
            if not (lower_ok and upper_ok):
                violations.append({
                    "child": atom.id,
                    "parent": atom.parent.id,
                    "child_measure": _fmt(c),
                    "parent_measure": _fmt(p),
                    "lower_ok": bool(lower_ok),
                    "upper_ok": bool(upper_ok),
                })
    check = Check(
        name="chain_gap_two_sided",
        anchor="refinement-edge gap bounds for regular filtrations",
        measured={"R": float(R), "edges": edges, "persistence_steps": persistence,
                  "violations": len(violations)},
        threshold="0 violations",
        passed=not violations,
        witness=violations[:8] if violations else None,
    )
    return VerificationReport(suite="chain_gaps", checks=[check])


def _as_number(x, mode):
    if mode == "exact" and isinstance(x, (int, Fraction)):
        return Fraction(x)
    return float(x)


def _fmt(measure):
    return str(measure) if isinstance(measure, Fraction) else float(measure)
