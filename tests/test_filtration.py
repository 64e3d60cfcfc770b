"""Tree construction, partition invariants, regularity, and chain gaps."""

import re

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from campanato_lab import (TreeSpecError, build_dyadic, build_from_spec,
                           chain_to_root, check_chain_gaps, parse_tree_config,
                           regularity_constant, truncate)
from campanato_lab.filtration import (PARTITION_TOL, FiltrationTree,
                                      first_max_ratio, is_dyadic)
from campanato_lab.functions import LeafFunction
from campanato_lab.multiplier import INDICATORS, _family_norms
from campanato_lab.norms import phi_level_values
from campanato_lab.phi import evaluator, psi
from campanato_lab.report import canonical_json


def chain_spec(depth):
    spec = None
    for _ in range(depth):
        spec = {"persist": spec}
    return spec


def test_dyadic_depth0_is_single_unit_atom():
    tree = build_dyadic(0)
    assert tree.depth == 0
    assert tree.leaf_count == 1
    assert tree.root.measure == 1


def test_dyadic_depth2_level_sizes_and_leaf_measures():
    tree = build_dyadic(2)
    assert [len(level) for level in tree.levels] == [1, 2, 4]
    assert all(leaf.measure == Fraction(1, 4) for leaf in tree.leaves)


def test_dyadic_depth10_partition_sums_exact():
    tree = build_dyadic(10)
    assert tree.leaf_count == 1024
    # independent partition-sum oracle in exact rational arithmetic
    for n, level in enumerate(tree.levels):
        assert sum((a.measure for a in level), Fraction(0)) == 1
        assert all(a.measure == Fraction(1, 2 ** n) for a in level)


def test_split_spec_two_leaves():
    tree = build_from_spec({"fractions": ["1/3", "2/3"]})
    assert tree.depth == 1
    assert [leaf.measure for leaf in tree.leaves] == [Fraction(1, 3), Fraction(2, 3)]
    assert tree.mode == "exact"


def test_persist_spec_gives_chain_tree():
    tree = build_from_spec(chain_spec(5))
    assert tree.depth == 5
    assert all(len(level) == 1 for level in tree.levels)
    assert all(level[0].measure == 1 for level in tree.levels)


def test_recursive_halving_matches_dyadic():
    def halves(depth):
        if depth == 0:
            return None
        sub = halves(depth - 1)
        return {"fractions": ["1/2", "1/2"], "children": [sub, sub]}

    tree = build_from_spec(halves(3))
    assert tree.same_structure(build_dyadic(3))


def test_uneven_branches_padded_with_persistence():
    spec = {"fractions": ["1/2", "1/2"],
            "children": [{"fractions": ["1/2", "1/2"]}, None]}
    tree = build_from_spec(spec)
    assert tree.depth == 2
    # the right half persists: one atom of measure 1/2 at level 2
    assert sorted(a.measure for a in tree.leaves) == [
        Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]


@pytest.mark.parametrize("bad", [
    {"fractions": ["1/2", "1/3"]},          # does not sum to 1
    {"fractions": ["1/2", "-1/2", "1"]},    # non-positive
    {"fractions": []},                       # empty split
    {"fractions": ["1/2", "0"]},            # zero fraction
    {"fractions": [float("nan"), 1.0]},     # NaN compares false with everything
])
def test_bad_specs_rejected(bad):
    with pytest.raises(TreeSpecError):
        build_from_spec(bad)


def test_float_fractions_switch_to_float_mode():
    tree = build_from_spec({"fractions": [0.25, 0.75]})
    assert tree.mode == "float"


def test_decimal_strings_stay_exact():
    tree = build_from_spec({"fractions": ["0.01", "0.99"]})
    assert tree.mode == "exact"
    assert tree.leaves[0].measure == Fraction(1, 100)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_first_max_ratio_picks_first_exact_max(dtype):
    rng = np.random.default_rng(8)
    for _ in range(50):  # small integers: tied quotients are common
        dens = rng.integers(1, 5, 12)
        nums = rng.integers(0, 9, 12)
        ratios = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
        want = ratios.index(max(ratios))
        assert first_max_ratio(np.array(nums.tolist(), dtype=dtype),
                               np.array(dens.tolist(), dtype=dtype)) == want
    # both quotients round to the float 1.0; the second is larger
    nums = np.array([2 ** 61 - 1, 2 ** 61], dtype=dtype)
    dens = np.array([2 ** 61, 2 ** 61 + 1], dtype=dtype)
    assert first_max_ratio(nums, dens) == 1


def test_regularity_dyadic_is_two():
    for depth in (1, 4, 9):
        assert regularity_constant(build_dyadic(depth)) == 2


def test_regularity_chain_is_one():
    assert regularity_constant(build_from_spec(chain_spec(4))) == 1


def test_regularity_third_split_is_three():
    tree = build_from_spec({"fractions": ["1/3", "2/3"]})
    assert regularity_constant(tree) == 3


def test_chain_gaps_dyadic_pass_at_regularity():
    tree = build_dyadic(6)
    # arithmetic oracle: (1 + 1/2) 2^-n <= 2^-(n-1) <= 2 * 2^-n at every edge
    assert Fraction(3, 2) * Fraction(1, 64) <= Fraction(1, 32) <= 2 * Fraction(1, 64)
    report = check_chain_gaps(tree, regularity_constant(tree))
    assert report.passed


def test_chain_gaps_chain_tree_all_persistence():
    tree = build_from_spec(chain_spec(4))
    report = check_chain_gaps(tree, 1)
    assert report.passed
    assert report.checks[0].measured["persistence_steps"] == 4


def test_chain_gaps_skewed_split():
    tree = build_from_spec({"fractions": ["0.01", "0.99"]})
    # R = 2 is far below the measured regularity constant: gaps must fail
    assert not check_chain_gaps(tree, 2).passed
    # at the measured constant (1/0.01 = 100) both gaps hold, with equality
    # at the upper bound on the small child and at the lower bound on the
    # large one: (1 + 1/100) * 0.99 = 0.9999 <= 1 and 1 <= 100 * 0.01
    R = regularity_constant(tree)
    assert R == 100
    assert check_chain_gaps(tree, R).passed


def chain_gaps_reference(tree, R):
    """The gap check one edge at a time on the atom views: Fraction
    measures and an int or Fraction R on an exact tree, floats with
    PARTITION_TOL of slack on a float tree.  Returns the check's JSON."""
    exact = tree.mode == "exact"
    slack = 0 if exact else PARTITION_TOL
    inv = 1 / (Fraction(R) if exact else float(R))
    violations, edges, persistence = [], 0, 0
    for level in tree.levels[1:]:
        for atom in level:
            p, c = atom.parent.measure, atom.measure
            edges += 1
            if p == c:
                persistence += 1
                continue
            lower_ok = (1 + inv) * c <= p + slack
            upper_ok = p <= R * c + slack
            if not (lower_ok and upper_ok):
                show = str if exact else float
                violations.append({
                    "child": atom.id, "parent": atom.parent.id,
                    "child_measure": show(c), "parent_measure": show(p),
                    "lower_ok": bool(lower_ok), "upper_ok": bool(upper_ok)})
    return canonical_json({
        "measured": {"R": float(R), "edges": edges,
                     "persistence_steps": persistence,
                     "violations": len(violations)},
        "passed": not violations, "witness": violations[:8] or None})


def seeded_split_tree(seed, exact, depth=5):
    """Persistence steps, early stops, and splits in two to four parts
    with weights 1-6, exact or float."""
    rng = np.random.default_rng(seed)

    def node(level):
        k = int(rng.integers(0, 5)) if level else int(rng.integers(2, 5))
        if level == depth or k == 0:
            return None
        if k == 1:
            return {"persist": node(level + 1)}
        weights = [int(w) for w in rng.integers(1, 7, k)]
        total = sum(weights)
        return {"fractions": [f"{w}/{total}" if exact else w / total
                              for w in weights],
                "children": [node(level + 1) for _ in range(k)]}

    return build_from_spec(node(0))


@pytest.mark.parametrize("make", [
    lambda: build_dyadic(0), lambda: build_dyadic(3),
    lambda: seeded_split_tree(3, exact=True),
    lambda: seeded_split_tree(3, exact=False),
], ids=["dyadic0", "dyadic3", "exact-splits", "float-splits"])
def test_offsets_number_the_atoms_in_level_order(make):
    tree = make()
    offsets, levels = tree.offsets, range(tree.depth + 1)
    if tree.depth > 0 and not is_dyadic(tree):  # the trees with persistence
        assert any((np.bincount(tree.child_arrays(n)[1]) == 1).any()
                   for n in range(tree.depth))
    assert offsets[0] == 0 and len(offsets) == tree.depth + 2
    assert [offsets[n + 1] - offsets[n] for n in levels] \
        == [len(tree.atoms(n)) for n in levels]
    g = LeafFunction.from_float_array(
        tree, np.linspace(-1.0, 2.0, tree.leaf_count))
    labels = _family_norms(g, 1, psi(), [("chi", INDICATORS)])[0]
    per_level = phi_level_values(tree, psi())
    weights = np.concatenate(per_level)
    assert len(labels) == len(weights) == offsets[-1]
    for atom in (B for n in levels for B in tree.atoms(n)):
        k = offsets[atom.level] + atom.index
        assert labels[k] == f"chi:{atom.level},{atom.index}"
        assert weights[k] == per_level[atom.level][atom.index] \
            == evaluator(psi())(float(atom.measure))
    with pytest.raises(ValueError):
        offsets[0] = 1


def _gaps_json(tree, R):
    check = check_chain_gaps(tree, R).checks[0].to_dict()
    return canonical_json({k: check[k] for k in
                           ("measured", "passed", "witness")})


@pytest.mark.parametrize("depth", range(9))
def test_chain_gaps_match_edge_loop_dyadic(depth):
    tree = build_dyadic(depth)
    for R in (2, 3, Fraction(3, 2), 1, Fraction(7, 4)):
        assert _gaps_json(tree, R) == chain_gaps_reference(tree, R)


@pytest.mark.parametrize("exact", [True, False])
def test_chain_gaps_match_edge_loop_split_trees(exact):
    seen = {"violations": 0, "lower": 0, "upper": 0, "persistence": 0}
    for seed in range(24):
        tree = seeded_split_tree(seed, exact)
        assert tree.mode == ("exact" if exact else "float")
        reg = regularity_constant(tree)
        Rs = [reg, reg * Fraction(3, 4), Fraction(3, 2), 2, 1]
        if not exact:
            Rs += [float(reg), 1.5, 2.5]
        for R in Rs:
            got = _gaps_json(tree, R)
            assert got == chain_gaps_reference(tree, R), (seed, R)
            check = check_chain_gaps(tree, R).checks[0]
            seen["violations"] += check.measured["violations"]
            seen["persistence"] += check.measured["persistence_steps"]
            for w in check.witness or ():
                seen["lower"] += not w["lower_ok"]
                seen["upper"] += not w["upper_ok"]
        # at the regularity constant the upper gap holds on every edge
        assert all(w["upper_ok"] for w in
                   check_chain_gaps(tree, reg).checks[0].witness or ())
    # the trees exercise every branch of the report
    assert all(seen.values()), seen


def test_chain_gaps_float_R_is_exact_on_rational_trees():
    # 1.5 * float(1/9) rounds below 1/6, though 1/6 = (3/2)(1/9): a float
    # R is taken at its exact value on an exact tree
    tree = build_from_spec({"fractions": ["1/6", "5/6"],
                            "children": [{"fractions": ["2/3", "1/3"]},
                                         None]})
    assert 1.5 * float(Fraction(1, 9)) < Fraction(1, 6)
    check = check_chain_gaps(tree, 1.5).checks[0]
    edge = next(w for w in check.witness if w["child"] == (2, 0))
    assert edge["parent_measure"] == "1/6" and edge["child_measure"] == "1/9"
    assert edge["upper_ok"] and not edge["lower_ok"]
    assert _gaps_json(tree, 1.5) == _gaps_json(tree, Fraction(3, 2))


def test_chain_to_root_chain_tree():
    tree = build_from_spec(chain_spec(3))
    chain = chain_to_root(tree, tree.leaves[0])
    assert len(chain) == 4
    assert all(b.measure == 1 for b in chain)


def test_chain_to_root_dyadic_measures():
    tree = build_dyadic(3)
    chain = chain_to_root(tree, tree.leaves[0])
    assert [b.measure for b in chain] == [
        1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_chain_to_root_depth0():
    tree = build_dyadic(0)
    assert chain_to_root(tree, tree.root) == [tree.root]


def test_chain_to_root_rejects_non_leaf():
    tree = build_dyadic(3)
    with pytest.raises(ValueError):
        chain_to_root(tree, tree.atoms(1)[0])


def test_chain_to_root_monotone_measures():
    tree = build_from_spec({"fractions": ["1/5", "4/5"],
                            "children": [None, {"fractions": ["1/2", "1/2"]}]})
    for leaf in tree.leaves:
        chain = chain_to_root(tree, leaf)
        assert len(chain) == tree.depth + 1
        for a, b in zip(chain, chain[1:]):
            assert b.measure <= a.measure


def test_truncate_preserves_structure():
    tree = build_dyadic(5)
    small = truncate(tree, 3)
    assert small.same_structure(build_dyadic(3))
    assert small.mode == "exact"


def test_parse_tree_config():
    tree = parse_tree_config({"type": "dyadic", "depth": 4})
    assert tree.depth == 4
    tree = parse_tree_config({"type": "splits",
                              "root": {"fractions": ["1/2", "1/2"]}})
    assert tree.depth == 1
    with pytest.raises(TreeSpecError):
        parse_tree_config({"type": "mystery"})
    with pytest.raises(TreeSpecError):
        parse_tree_config({"type": "dyadic", "depth": -1})


def test_leaf_spans_are_contiguous_partition():
    tree = build_from_spec({"fractions": ["1/4", "1/4", "1/2"],
                            "children": [{"fractions": ["1/2", "1/2"]},
                                         None,
                                         {"fractions": ["1/3", "1/3", "1/3"]}]})
    for level in tree.levels:
        cursor = 0
        for atom in level:
            assert atom.leaf_start == cursor
            cursor = atom.leaf_end
        assert cursor == tree.leaf_count


def test_deep_persist_chain_builds_without_recursion():
    # far beyond the interpreter's recursion limit of 1000 frames
    tree = build_from_spec(chain_spec(900))
    assert tree.depth == 900
    assert tree.leaves[0].measure == 1
    assert len(chain_to_root(tree, tree.leaves[0])) == 901


def test_atoms_are_views_of_one_tree():
    spec = {"fractions": ["1/3", "2/3"],
            "children": [None, {"fractions": ["1/2", "1/2"]}]}
    tree = build_from_spec(spec)
    # handles are values, made on demand: equal and hashing alike when
    # they have the same tree, level and index
    assert tree.atom(2, 1) == tree.leaves[1] == tree.levels[2][1]
    assert tree.atom(2, 1) is not tree.atom(2, 1)
    assert len({tree.atom(2, 1), tree.leaves[1], tree.atom(2, 0)}) == 2
    assert tree.atom(2, 1) != tree.atom(2, 0) != tree.atom(1, 0)
    assert tree.leaves[2].parent == tree.atoms(1)[1]
    assert tree.atoms(1)[0].parent == tree.root
    assert type(tree.atom(np.int64(2), np.int64(1)).index) is int
    # a same-shaped tree's atoms are other atoms, and are refused here
    other = build_from_spec(spec)
    assert other.same_structure(tree)
    assert other.atom(2, 1) != tree.atom(2, 1)
    assert len({other.atom(2, 1), tree.atom(2, 1)}) == 2
    assert other.root != tree.root
    with pytest.raises(ValueError, match="does not belong"):
        chain_to_root(tree, other.leaves[1])
    assert [(a.leaf_start, a.leaf_end) for a in tree.atoms(1)] == [(0, 1), (1, 3)]
    with pytest.raises(ValueError):
        tree.atom(3, 0)
    # an exact tree's measures are reduced Fractions
    assert [type(a.measure) for a in tree.leaves] == [Fraction] * 3
    assert [a.measure for a in tree.leaves] == \
        [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
    assert tree.atoms(1)[1].measure.denominator == 3
    assert tree.root.measure == 1 and tree.root.measure.denominator == 1

    # a float split tree: Python float measures read off the level arrays
    tree = build_from_spec({"fractions": [0.25, 0.75], "children": [
        {"fractions": [0.5, 0.5]}, {"persist": {"fractions": [0.2, 0.8]}}]})
    assert tree.mode == "float"
    for n, level in enumerate(tree.levels):
        starts, lengths, measures = tree.level_arrays(n)
        for i, atom in enumerate(level):
            assert atom.tree is tree and atom.id == (n, i)
            assert atom == tree.atom(n, i)
            assert hash(atom) == hash(tree.atom(n, i))
            assert type(atom.measure) is float
            assert atom.measure == measures[i]
            assert (atom.leaf_start, atom.leaf_end) == \
                (starts[i], starts[i] + lengths[i])
            if n:
                assert atom.parent == tree.atom(n - 1,
                                                tree.ancestors(n, i)[n - 1])
                assert atom.parent.leaf_start <= atom.leaf_start \
                    < atom.leaf_end <= atom.parent.leaf_end
    assert tree.root.parent is None
    assert [(a.leaf_start, a.leaf_end) for a in tree.atoms(1)] == [(0, 2), (2, 4)]
    assert tree.leaves[3].parent == tree.atoms(2)[2]
    assert tree.atoms(2)[2].parent == tree.atoms(1)[1]
    assert [a.measure for a in tree.leaves] == [0.125, 0.125, 0.75 * 0.2,
                                                0.75 * 0.8]


@pytest.mark.parametrize("level, index", [(-1, 0), (2, -1), (-4, -1), (4, 0),
                                          (3, 8), (0, 1)])
def test_atom_refuses_positions_outside_the_tree(level, index):
    # a negative level or index names no atom: it does not count from the end
    tree = build_dyadic(3)
    with pytest.raises(ValueError, match=rf"no atom \({level}, {index}\)"):
        tree.atom(level, index)
    assert tree.atom(3, 7) == tree.leaves[-1]


F = Fraction
HALVES = [F(1, 2), F(1, 2)]


@pytest.mark.parametrize("parents, measures, mode, message", [
    ([], [[F(1, 2)]], "exact", "root measure must be 1"),
    ([], [[F(1, 2), F(1, 2)]], "exact", "level 0 must contain exactly one atom"),
    ([[]], [[1], []], "exact", "level 1 is empty"),
    ([[0, 0]], [[1], [F(1, 2), F(1, 3)]], "exact",
     "level 1 measures sum to 5/6, expected 1"),
    ([[0, 0]], [[1.0], [0.5, 0.5 + 1e-9]], "float", "drift exceeds"),
    ([[0, 0]], [[1], [F(3, 2), F(-1, 2)]], "exact",
     "atom (1, 1) has non-positive measure"),
    ([[0, 1]], [[1], HALVES], "exact", "atom (1, 1) has no level-0 parent"),
    ([[0, 0], [0, 0]], [[1], HALVES, HALVES], "exact",
     "non-leaf atom (1, 1) has no children"),
    ([[0, 0], [1, 0]], [[1], HALVES, HALVES], "exact",
     "atom (2, 1) is out of parent order"),
    ([[0, 0], [0, 1]], [[1], [F(1, 4), F(3, 4)], HALVES], "exact",
     "children of (1, 0) sum to 1/2, expected 1/4"),
    ([[0, 0], [0, 1]], [[1.0], [0.25, 0.75], [0.5, 0.5]], "float",
     "children of (1, 0) sum to 0.5, expected 0.25"),
    ([[0]], [[1], [1], [1]], "exact", "expected one per level below the root"),
    ([[0, 0]], [[1], [1]], "exact", "level 1 has 1 atoms but 2 parent indices"),
    ([], [[1]], "rational", "unknown arithmetic mode"),
    ([[0, 0]], [[1], [0.5, 0.5]], "exact",
     "exact measures must be ints or Fractions"),
])
def test_hand_built_tree_validation(parents, measures, mode, message):
    with pytest.raises(TreeSpecError, match=re.escape(message)):
        FiltrationTree(parents, measures, mode)


def test_hand_built_tree_accepted():
    tree = FiltrationTree([[0, 0], [0, 1, 1]],
                          [[1], HALVES, [F(1, 2), F(1, 4), F(1, 4)]], "exact")
    assert [(a.leaf_start, a.leaf_end) for a in tree.atoms(1)] == [(0, 1), (1, 3)]
    assert tree.leaves[2].parent == tree.atoms(1)[1]
    assert regularity_constant(tree) == 2


@pytest.mark.parametrize("second", [("1/7", "6/7"), ("3/10", "7/10")])
def test_measure_exact_until_a_float_on_its_path(second):
    # a float split under the first child does not make the second child's
    # products float: each measure is rounded once, at the end
    spec = {"fractions": ["1/3", "2/3"],
            "children": [{"fractions": [0.25, 0.75]},
                         {"fractions": list(second)}]}
    tree = build_from_spec(spec)
    assert tree.mode == "float"
    got = [leaf.measure for leaf in tree.leaves]
    assert got[:2] == [float(Fraction(1, 3)) * 0.25, float(Fraction(1, 3)) * 0.75]
    assert got[2:] == [float(Fraction(2, 3) * Fraction(q)) for q in second]
    assert all(type(m) is float for m in got)


# -- the exact tree store against the spec's own fractions --------------------


@st.composite
def exact_specs(draw, max_depth=5):
    """Random exact split specs: persistence steps, early stops, binary
    and ternary splits into w / total fractions, or a dyadic spec."""
    def node(level, must_split=False):
        if level == max_depth:
            return None
        kind = draw(st.integers(2, 3) if must_split else st.integers(0, 3))
        if kind == 0:
            return None
        if kind == 1:
            return {"persist": node(level + 1)}
        weights = draw(st.lists(st.integers(1, 5), min_size=kind,
                                max_size=kind))
        total = sum(weights)
        return {"fractions": [f"{w}/{total}" for w in weights],
                "children": [node(level + 1) for _ in range(kind)]}

    def halving(depth):
        return None if depth == 0 else {"fractions": ["1/2", "1/2"],
                                        "children": [halving(depth - 1)] * 2}

    if draw(st.booleans()):
        return halving(draw(st.integers(0, 4)))
    return node(0, must_split=True)


def path_levels(spec):
    """(parents, measures) per level, walking the spec depth first: each
    measure is the product of the fractions on the atom's path, and a
    branch that stops early persists to the deepest level."""
    def depth_of(node):
        if node is None:
            return 0
        return 1 + max(map(depth_of, node.get("children") or
                           [node.get("persist")]))

    depth = depth_of(spec)
    parents = [[] for _ in range(depth)]
    measures = [[] for _ in range(depth + 1)]

    def walk(node, level, measure, up):
        index = len(measures[level])
        measures[level].append(measure)
        if level:
            parents[level - 1].append(up)
        if level == depth:
            return
        if node is None or "persist" in node:
            walk(node and node["persist"], level + 1, measure, index)
        else:
            for q, child in zip(node["fractions"], node["children"]):
                walk(child, level + 1, measure * Fraction(q), index)

    walk(spec, 0, Fraction(1), None)
    return parents, measures


def reference_regularity(parents, measures):
    return max([Fraction(1)] + [
        measures[n - 1][up] / m for n in range(1, len(measures))
        for up, m in zip(parents[n - 1], measures[n])])


@settings(max_examples=60, deadline=None)
@given(spec=exact_specs())
def test_exact_tree_measures_are_path_products(spec):
    tree = build_from_spec(spec)
    parents, measures = path_levels(spec)
    assert tree.mode == "exact" and tree.depth == len(measures) - 1
    for n, level in enumerate(measures):
        atoms = tree.atoms(n)
        assert [B.measure for B in atoms] == level
        assert all(type(B.measure) is Fraction for B in atoms)
        if n:
            assert [B.parent.index for B in atoms] == parents[n - 1]
        floats = tree.level_arrays(n)[2]
        want = np.array([float(q) for q in level])
        assert floats.dtype == np.float64
        assert np.array_equal(floats.view(np.int64), want.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(spec=exact_specs())
def test_exact_tree_queries_match_fraction_definitions(spec):
    tree = build_from_spec(spec)
    parents, measures = path_levels(spec)
    R = regularity_constant(tree)
    assert type(R) is Fraction and R == reference_regularity(parents, measures)
    assert is_dyadic(tree) == all(
        len(level) == 2 ** n and all(q == Fraction(1, 2 ** n) for q in level)
        for n, level in enumerate(measures))
    for d in range(tree.depth + 1):
        small = truncate(tree, d)
        assert small.mode == "exact"
        assert small.same_structure(
            FiltrationTree(parents[:d], measures[:d + 1], "exact"))
        assert [B.measure for B in small.leaves] == measures[d]
        assert regularity_constant(small) == reference_regularity(
            parents[:d], measures[:d + 1])


@settings(max_examples=60, deadline=None)
@given(spec=exact_specs(), data=st.data())
def test_bad_exact_trees_name_the_broken_sum(spec, data):
    parents, measures = path_levels(spec)
    if len(measures) == 1:
        return
    n = data.draw(st.integers(1, len(measures) - 1))
    bad = [list(level) for level in measures]
    i = data.draw(st.integers(0, len(bad[n]) - 1))
    delta = bad[n][i] / 2
    bad[n][i] += delta
    with pytest.raises(TreeSpecError, match=re.escape(
            f"level {n} measures sum to {1 + delta}, expected 1")):
        FiltrationTree(parents, bad, "exact")
    # move delta from atom i to an atom j under another parent: the level
    # still sums to 1, and the first parent of the two has the wrong sum
    ups = parents[n - 1]
    others = [j for j in range(len(ups)) if ups[j] != ups[i]]
    if not others:
        return
    j = data.draw(st.sampled_from(others))
    bad[n][i] -= 2 * delta
    bad[n][j] += delta
    first = min(ups[i], ups[j])
    want = measures[n - 1][first]
    got = want - delta if first == ups[i] else want + delta
    with pytest.raises(TreeSpecError, match=re.escape(
            f"children of {(n - 1, first)} sum to {got}, expected {want}")):
        FiltrationTree(parents, bad, "exact")
