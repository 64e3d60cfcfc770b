"""Seminorm and norm computations against brute-force oracles."""

import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import campanato_lab
from campanato_lab import (LeafFunction, atom_average, build_dyadic,
                           build_from_spec, campanato_norm,
                           campanato_seminorm, capital_F, central_p_integral,
                           chi_norm_closed_form, conditional_expectation,
                           constant, eval_phi, expectation, f_norm_exact,
                           f_norm_lower, indicator, int_condition_constant,
                           int_condition_power_weight, lp_norm, one,
                           phi_star, power, powerlog, psi, random_functions,
                           table)
from campanato_lab.filtration import (COLUMN_MIN, COLUMN_SPAN,
                                      FiltrationTree, common_denominator)
from campanato_lab.norms import level_reductions, oscillation_scan, scan_block


def brute_oscillation(f, B, p, spec):
    """Oracle: the weighted mean oscillation of f on the atom B from the
    public per-atom operations, no vectorized pathway."""
    cint = central_p_integral(f, B, B.level, p)
    return (float(cint) / float(B.measure)) ** (1.0 / p) \
        / float(eval_phi(spec, float(B.measure)))


def brute_per_level(f, p, spec):
    """Oracle: per level, the max over its atoms of brute_oscillation."""
    return [max(brute_oscillation(f, B, p, spec) for B in level)
            for level in f.tree.levels]


def brute_fb(f, spec):
    """Oracle: the max over all atoms of |f_B| / phi_star(P(B))."""
    return max(abs(float(atom_average(f, B)))
               / phi_star(spec, float(B.measure))
               for level in f.tree.levels for B in level)


def random_split_tree(seed, depth=4, exact=True):
    rng = np.random.default_rng(seed)

    def node(level):
        if level == depth:
            return None
        k = int(rng.integers(1, 4))
        if k == 1:
            return {"persist": node(level + 1)}
        weights = [int(w) for w in rng.integers(1, 6, k)]
        total = sum(weights)
        return {"fractions": [f"{w}/{total}" if exact else w / total
                              for w in weights],
                "children": [node(level + 1) for _ in range(k)]}

    spec = node(0)
    if spec is None or "persist" in spec:
        spec = {"fractions": ["1/2", "1/2"] if exact else [0.5, 0.5]}
    return build_from_spec(spec)


def test_seminorm_constant_is_zero():
    tree = build_dyadic(3)
    res = campanato_seminorm(constant(tree, Fraction(9, 7)), 1, one())
    assert res.value == 0


def test_seminorm_level1_indicator():
    tree = build_dyadic(2)
    B = tree.atoms(1)[0]
    res = campanato_seminorm(indicator(tree, B, exact=True), 1, one())
    assert res.value == Fraction(1, 2)
    assert res.witness == (0, 0)


def test_seminorm_rademacher():
    tree = build_dyadic(3)
    f = LeafFunction(tree, [1] * 4 + [-1] * 4)
    res = campanato_seminorm(f, 1, one())
    assert res.value == 1
    assert res.witness == (0, 0)


def test_norm_adds_mean():
    tree = build_dyadic(2)
    assert campanato_norm(constant(tree, Fraction(-3)), 1, one()).value == 3
    B = tree.atoms(1)[0]
    res = campanato_norm(indicator(tree, B, exact=True), 1, one())
    assert res.value == 1  # seminorm 1/2 plus mean 1/2
    f = LeafFunction(tree, [1, -1, 1, -1])
    assert campanato_norm(f, 1, one()).value == \
        campanato_seminorm(f, 1, one()).value


def test_exact_and_float_paths_agree():
    tree = build_dyadic(5)
    rng = np.random.default_rng(7)
    f = LeafFunction(tree, [Fraction(int(k), 128)
                            for k in rng.integers(-256, 256, tree.leaf_count)])
    exact = campanato_seminorm(f, 1, one(), exact=True)
    floaty = campanato_seminorm(f, 1, one(), exact=False)
    assert float(exact.value) == pytest.approx(floaty.value, rel=1e-12)
    assert exact.witness == floaty.witness


def test_exact_values_on_a_float_tree_take_the_float_scan():
    # integer values keep their numerators on a float tree too, but with no
    # integer measures there is no exact sum
    tree = random_split_tree(0, exact=False)
    f = LeafFunction(tree, list(range(tree.leaf_count)))
    assert f.has_exact_values
    scan = oscillation_scan(f, 1, one())
    assert scan == oscillation_scan(f, 1, one(), exact=False)
    assert isinstance(scan[0], float)
    with pytest.raises(ValueError, match="exact scan needs a rational tree"):
        oscillation_scan(f, 1, one(), exact=True)


def test_seminorm_matches_brute_oracle():
    for seed in range(3):
        for exact in (True, False):
            tree = random_split_tree(seed, exact=exact)
            assert tree.mode == ("exact" if exact else "float")
            for f in random_functions(tree, 3, seed=seed + 10):
                for p in (1, 1.5, 2):
                    for spec in (one(), psi(), powerlog(0.3)):
                        sup, witness, per_level, fb = oscillation_scan(
                            f, p, spec, want_fb=True, exact=False)
                        brute = brute_per_level(f, p, spec)
                        assert per_level == pytest.approx(brute, rel=1e-11)
                        assert sup == pytest.approx(max(brute), rel=1e-11)
                        n, i = witness
                        assert brute_oscillation(f, tree.atoms(n)[i], p,
                                                 spec) \
                            == pytest.approx(sup, rel=1e-11)
                        assert fb == pytest.approx(brute_fb(f, spec),
                                                   rel=1e-11)
                        got = campanato_seminorm(f, p, spec, exact=False)
                        assert got.value == sup


def test_chi_closed_form_root_is_zero():
    tree = build_dyadic(4)
    assert chi_norm_closed_form(tree.root, 1, one()).value == 0


def test_chi_closed_form_level1():
    tree = build_dyadic(1)
    res = chi_norm_closed_form(tree.atoms(1)[0], 1, one())
    assert res.value == Fraction(1, 2)


def test_chi_closed_form_equals_full_scan():
    trees = [build_dyadic(6)] + [random_split_tree(s, depth=4)
                                 for s in (1, 2)] \
        + [random_split_tree(3, depth=4, exact=False)]
    assert [t.mode for t in trees] == ["exact"] * 3 + ["float"]
    for tree in trees:
        for spec in (one(), psi(), power(0.3)):
            for p in (1, 2):
                # a Fraction only for exact p = 1 with the constant weight
                kind = Fraction if (tree.mode, p, spec.family) == \
                    ("exact", 1, "one") else float
                for level in tree.levels:
                    for B in level:
                        res = chi_norm_closed_form(B, p, spec)
                        if B.level:
                            assert type(res.value) is kind
                            assert {type(v) for v in res.per_level} == {kind}
                        closed = float(res.value)
                        full = float(campanato_seminorm(
                            indicator(tree, B), p, spec, exact=False).value)
                        assert closed == pytest.approx(full, rel=1e-10,
                                                       abs=1e-15)


def test_indicator_lemma_bound_exact():
    tree = build_dyadic(8)
    worst = Fraction(0)
    for level in tree.levels:
        for B in level:
            norm = chi_norm_closed_form(B, 1, one()).value + B.measure
            worst = max(worst, norm * 1)
    assert worst <= 1  # exact rational comparison


def test_seminorm_homogeneity_exact():
    tree = build_dyadic(4)
    rng = np.random.default_rng(3)
    f = LeafFunction(tree, [Fraction(int(k), 64)
                            for k in rng.integers(-100, 100, tree.leaf_count)])
    c = Fraction(-7, 3)
    assert campanato_seminorm(f * c, 1, one()).value == \
        abs(c) * campanato_seminorm(f, 1, one()).value


def test_seminorm_homogeneity_float_power_of_two():
    # powers of two scale floats exactly, so equality is bitwise
    tree = build_dyadic(5)
    for f in random_functions(tree, 10, seed=2):
        a = campanato_seminorm(f * 4.0, 2, psi(), exact=False).value
        b = 4.0 * campanato_seminorm(f, 2, psi(), exact=False).value
        assert a == b


def test_triangle_inequality_random_pairs():
    tree = build_dyadic(5)
    fs = random_functions(tree, 100, seed=21)
    gs = random_functions(tree, 100, seed=22)
    for p, spec in ((1, one()), (2, psi())):
        for f, g in zip(fs[:50], gs[:50]):
            lhs = campanato_seminorm(f + g, p, spec).value
            rhs = campanato_seminorm(f, p, spec).value \
                + campanato_seminorm(g, p, spec).value
            assert lhs <= rhs + 1e-12


def test_vanishing_characterization():
    tree = build_dyadic(4)
    for f in random_functions(tree, 20, seed=9):
        sem = campanato_seminorm(f, 1, one(), exact=False)
        assert (sem.value == 0) == (len(set(f.values)) == 1)


def test_l1_bounded_by_norm():
    tree = build_dyadic(5)
    for spec in (one(), psi()):
        factor = max(1.0, float(eval_phi(spec, 1.0)))
        for f in random_functions(tree, 20, seed=31):
            assert float(lp_norm(f, 1)) <= \
                factor * float(campanato_norm(f, 1, spec).value) + 1e-12


def test_truncation_never_increases_seminorm_exact():
    tree = build_dyadic(5)
    rng = np.random.default_rng(4)
    for _ in range(10):
        f = LeafFunction(tree, [Fraction(int(k), 256)
                                for k in rng.integers(-512, 512,
                                                      tree.leaf_count)])
        sem = campanato_seminorm(f, 1, one()).value
        for n in range(tree.depth + 1):
            sem_n = campanato_seminorm(
                conditional_expectation(f, n), 1, one()).value
            assert sem_n <= sem
            if n == tree.depth:
                assert sem_n == sem


def test_witness_value_consistency():
    tree = build_dyadic(5)
    for f in random_functions(tree, 5, seed=13):
        for p, spec in ((1, one()), (2, power(0.3))):
            res = campanato_seminorm(f, p, spec, exact=False)
            n, i = res.witness
            B = tree.atoms(n)[i]
            val = (float(central_p_integral(f, B, n, p))
                   / float(B.measure)) ** (1.0 / p) \
                / float(eval_phi(spec, float(B.measure)))
            assert float(res.value) == pytest.approx(val, rel=1e-12)
            assert float(res.value) == pytest.approx(max(res.per_level),
                                                     rel=1e-15)


# -- union-of-atoms variants -----------------------------------------------------


def brute_f_norm(f, p, spec):
    """Independent enumeration via itertools over atom combinations."""
    tree = f.tree
    best = 0.0
    for n in range(tree.depth + 1):
        atoms = tree.atoms(n)
        for size in range(1, len(atoms) + 1):
            for combo in itertools.combinations(atoms, size):
                cint = sum(float(central_p_integral(f, B, n, p))
                           for B in combo)
                mass = float(sum(B.measure for B in combo))
                val = (cint / mass) ** (1.0 / p) \
                    / float(eval_phi(spec, min(mass, 1.0)))
                best = max(best, val)
    return best


def test_f_norm_exact_matches_brute_enumeration():
    tree = build_dyadic(3)
    for f in random_functions(tree, 3, seed=41):
        for p in (1, 2):
            for spec in (one(), power(0.3)):
                got = f_norm_exact(f, p, spec)
                assert float(got.value) == pytest.approx(
                    brute_f_norm(f, p, spec), rel=1e-10)


def test_f_norm_exact_on_chain_tree_equals_seminorm():
    spec_chain = None
    for _ in range(4):
        spec_chain = {"persist": spec_chain}
    tree = build_from_spec(spec_chain)
    f = LeafFunction(tree, [2.5])
    assert f_norm_exact(f, 1, one()).value == \
        pytest.approx(float(campanato_seminorm(f, 1, one()).value))


def test_f_norm_exact_dominates_seminorm():
    tree = build_dyadic(4)
    for f in random_functions(tree, 10, seed=43):
        for spec in (one(), power(0.3)):
            exact = f_norm_exact(f, 1, spec)
            sem = campanato_seminorm(f, 1, spec, exact=False)
            assert float(exact.value) >= float(sem.value) - 1e-12


def test_f_norm_exact_refuses_wide_levels():
    tree = build_dyadic(5)  # 32 atoms at the deepest level
    with pytest.raises(ValueError, match="f_norm_lower"):
        f_norm_exact(constant(tree, 1.0), 1, one())


def test_f_norm_lower_between_seminorm_and_exact():
    tree = build_dyadic(4)
    for f in random_functions(tree, 10, seed=47):
        for spec in (one(), power(0.3)):
            sem = float(campanato_seminorm(f, 1, spec, exact=False).value)
            low = float(f_norm_lower(f, 1, spec, budget=16).value)
            exact = float(f_norm_exact(f, 1, spec).value)
            assert sem - 1e-12 <= low <= exact + 1e-12


def test_f_norm_lower_includes_singletons():
    tree = build_dyadic(6)
    for f in random_functions(tree, 5, seed=53):
        low = f_norm_lower(f, 1, one(), budget=64)
        sem = campanato_seminorm(f, 1, one(), exact=False)
        assert float(low.value) >= float(sem.value) - 1e-15
        assert low.note == "lower bound"


def brute_level_atoms(f, p, n):
    """Oracle: the central integrals and measures of the level-n atoms from
    the public per-atom operations."""
    atoms = f.tree.atoms(n)
    return ([float(central_p_integral(f, B, n, p)) for B in atoms],
            [B.measure for B in atoms])


def brute_union_value(cints, measures, union, p, spec):
    mass = float(sum(measures[i] for i in union))
    return (sum(cints[i] for i in union) / mass) ** (1.0 / p) \
        / float(eval_phi(spec, min(mass, 1.0)))


def first_max(candidates, tol=1e-12):
    """The first (value, label) whose value is within tol (relative) of the
    largest: the oracle's sums may land an ulp away from a tie."""
    best = max(v for v, _ in candidates)
    return next(c for c in candidates if c[0] >= best * (1 - tol))


def brute_exact_witness(f, p, spec):
    """Oracle: the first maximising (level, atoms), levels in order and the
    unions of a level in the order of their bit masks 1, 2, 3, ..."""
    found = []
    for n in range(f.tree.depth + 1):
        cints, measures = brute_level_atoms(f, p, n)
        found += [(brute_union_value(cints, measures, u, p, spec), (n, u))
                  for u in (tuple(j for j in range(len(cints)) if m >> j & 1)
                            for m in range(1, 2 ** len(cints)))]
    return first_max(found)[1]


def brute_lower_witness(f, p, spec, budget):
    """Oracle: per level the first best single atom, unless a prefix of the
    atoms by decreasing density (ties by index), up to `budget` atoms, is
    strictly larger; then the first such level."""
    levels = []
    for n in range(f.tree.depth + 1):
        cints, measures = brute_level_atoms(f, p, n)
        k = len(cints)
        order = sorted(range(k), key=lambda i: (-cints[i] / measures[i], i))

        def scored(unions):
            return [(brute_union_value(cints, measures, u, p, spec), (n, u))
                    for u in unions]

        singles = scored([(i,) for i in range(k)])
        prefixes = scored([tuple(sorted(order[:m]))
                           for m in range(1, min(budget, k) + 1)])
        best = max(v for v, _ in singles)
        levels.append(first_max(
            prefixes if max(v for v, _ in prefixes) > best * (1 + 1e-12)
            else singles))
    return first_max(levels)[1]


def test_f_norm_witnesses_match_brute_enumeration():
    trees = [build_dyadic(3), random_split_tree(2, depth=3),
             random_split_tree(3, depth=3, exact=False)]
    prefix_wins = 0
    for tree in trees:
        assert max(len(level) for level in tree.levels) <= 20
        for f in random_functions(tree, 3, seed=59):
            for p in (1, 2):
                # larger sets weigh less under power(-0.3), so unions win
                for spec in (one(), power(0.3), power(-0.3)):
                    assert f_norm_exact(f, p, spec).witness == \
                        brute_exact_witness(f, p, spec)
                    for budget in (1, 3, 64):
                        got = f_norm_lower(f, p, spec, budget).witness
                        assert got == brute_lower_witness(f, p, spec, budget)
                        prefix_wins += len(got[1]) > 1
    assert prefix_wins > 0


def test_f_norm_lower_single_wins_a_tie_with_a_prefix():
    # level 1: atoms 0 and 1 of measure 1/4 and atom 2 of measure 1/2, all
    # of density 1/2, so the prefix (0, 1) ties atom 2 exactly; phi is
    # smallest at 1/2, which makes that tie the largest value of the tree
    tree = build_from_spec({"fractions": ["1/4", "1/4", "1/2"],
                            "children": [{"fractions": ["1/2", "1/2"]}] * 3})
    f = LeafFunction(tree, [0, 1] * 3)
    spec = table([(0.25, 2), (0.5, 1), (1, 4)])
    for p in (1, 2):
        for budget in (2, 3):
            assert f_norm_lower(f, p, spec, budget).witness == (1, (2,))
        # the mask of (0, 1), 3, comes before that of (2,), 4
        assert f_norm_exact(f, p, spec).witness == (1, (0, 1))


def test_chi_norm_consistent_with_atom_average_identity():
    # cross-check the closed form against a hand-derived single term
    tree = build_dyadic(3)
    B = tree.leaves[5]
    parent = B.parent
    f = indicator(tree, B, exact=True)
    ratio = atom_average(f, parent)
    inner = B.measure * (1 - ratio) + (parent.measure - B.measure) * ratio
    hand = inner / parent.measure
    assert chi_norm_closed_form(B, 1, one()).per_level[-1] == hand


def test_depth0_norms():
    tree = build_dyadic(0)
    f = LeafFunction(tree, [3])
    assert campanato_seminorm(f, 1, one()).value == 0
    assert campanato_norm(f, 1, one()).value == 3
    assert expectation(f) == 3


# depth 15 puts 32,768 leaves in one row, where a threaded BLAS dot
# product sums in another order than a single-threaded one
BLAS_PROBE = """
import numpy as np
from campanato_lab import (LeafFunction, build_dyadic, campanato_norm,
                           expectation, lp_norm, one)
tree = build_dyadic(15)
vals = 7 + 1e-3 * np.random.default_rng(0).standard_normal(tree.leaf_count)
f = LeafFunction.from_float_array(tree, vals)
norm = campanato_norm(f, 2, one())
print(repr(norm.value), repr(norm.mean_abs))
print(repr(expectation(f)), repr(lp_norm(f, 2)))
"""


def test_float_norm_independent_of_blas_threads():
    # |Ef|, expectation and lp_norm are pairwise sums, none a BLAS dot
    # product, so a child limited to one BLAS thread prints the same bits
    # as this process
    src = str(Path(campanato_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    child = subprocess.run([sys.executable, "-c", BLAS_PROBE],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(BLAS_PROBE, {})
    assert child.stdout == here.getvalue()


@pytest.mark.parametrize("depth", [12, 15])
@pytest.mark.parametrize("seed", range(8))
def test_float_expectation_is_the_scan_mean(depth, seed):
    # one summation order for Ef: expectation and the scan's mean agree
    # to the last bit
    tree = build_dyadic(depth)
    vals = 7 + 1e-3 * np.random.default_rng(seed).standard_normal(
        tree.leaf_count)
    f = LeafFunction.from_float_array(tree, vals)
    assert expectation(f) == oscillation_scan(f, 2, one()).mean


def _p_entry_points():
    tree = build_dyadic(2)
    f = LeafFunction(tree, [1, 2, 0, 5])
    B = tree.leaves[0]
    return {
        "int_condition_constant":
            lambda p: int_condition_constant(one(), p, (0.5, 1.0)),
        "int_condition_power_weight":
            lambda p: int_condition_power_weight(one(), p, (0.5, 1.0)),
        "scan_block": lambda p: scan_block(tree, [f.values_array], p, one()),
        "chi_norm_closed_form": lambda p: chi_norm_closed_form(B, p, one()),
        "f_norm_exact": lambda p: f_norm_exact(f, p, one()),
        "f_norm_lower": lambda p: f_norm_lower(f, p, one(), 4),
        "capital_F": lambda p: capital_F(f, f, p, one()),
        "central_p_integral": lambda p: central_p_integral(f, B, B.level, p),
        "lp_norm": lambda p: lp_norm(f, p),
        "campanato_norm": lambda p: campanato_norm(f, p, one()),
    }


@pytest.mark.parametrize("p", [0.5, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("entry", sorted(_p_entry_points()))
def test_p_outside_one_to_infinity_rejected(entry, p):
    with pytest.raises(ValueError, match="p must lie in"):
        _p_entry_points()[entry](p)


def out_of_place_level_reductions(tree, block, p):
    """level_reductions at p != 2 written out of place, one new array per
    step: the atom integrals S_B = int_B f dP summed up the tree, each
    parent's by np.add.reduceat over its children, then f_B = S_B / P(B)
    and the reduceat of |f - f_B|^p P(leaf) over each atom's leaves.  The
    in-place kernel must give the same bits."""
    leafm = tree.leaf_measures_f()
    sums = [block * leafm]
    for n in reversed(range(tree.depth)):
        firsts = tree.child_arrays(n)[0]
        sums.insert(0, np.add.reduceat(sums[0], firsts, axis=-1))
    for n in range(tree.depth):
        starts, lengths, measures = tree.level_arrays(n)
        avg = sums[n] / measures
        dev = np.abs(block - np.repeat(avg, lengths, axis=-1))
        if p != 1:
            dev = dev ** p
        yield n, avg, np.add.reduceat(dev * leafm, starts, axis=-1), measures


def uniform_tree(arity, depth):
    """Every atom splits into `arity` equal parts, down to `depth`."""
    spec = None
    for _ in range(depth):
        spec = {"fractions": [f"1/{arity}"] * arity,
                "children": [spec] * arity}
    return build_from_spec(spec)


def ragged_split_tree(seed, depth, most, nines=()):
    """A seeded float tree whose atoms split into 1 to `most` parts of
    random weights, the first atom of every level into exactly `most`,
    and the last atom of each level in `nines` into 9."""
    rng = np.random.default_rng(seed)
    parents, measures = [], [np.ones(1)]
    for n in range(depth):
        counts = rng.integers(1, most + 1, len(measures[-1]))
        counts[0] = most
        if n in nines:
            counts[-1] = 9
        up = np.repeat(np.arange(len(counts)), counts)
        weights = rng.integers(1, 6, len(up)).astype(np.float64)
        weights /= np.add.reduceat(weights, np.cumsum(counts) - counts)[up]
        parents.append(up)
        measures.append(measures[-1][up] * weights)
    return FiltrationTree(parents, measures, "float")


# Dyadic trees sum levels of 2, 4 and 8 leaves by columns (one row of
# depth 13, blocks of 16 rows of depth 10, the certificate's shape); the
# ternary tree has spans 3 (by columns), 9 and 27 (by reduceat).  Blocks
# of depth 13 and of the ternary tree's 16 rows are beyond BROADCAST_MIN.
# The split trees are ragged, so short runs pad to the level's longest:
# up to 3 on the two small ones and 8 on the 19,709-leaf ragged one,
# whose level-2 atoms have a run of 9 children (by reduceat) and whose
# deepest level sums one row and a block of 16 by padded columns
# (test_ragged_levels_pad_runs_up_to_column_span).
BIT_TREES = {"dyadic": lambda: build_dyadic(13),
             "dyadic 10": lambda: build_dyadic(10),
             "uniform ternary": lambda: uniform_tree(3, 7),
             "rational split": lambda: random_split_tree(3, depth=6),
             "float split": lambda: random_split_tree(4, depth=6, exact=False),
             "ragged split": lambda: ragged_split_tree(6, 6, 8, nines=(2,))}


def exact_leaves(tree, row):
    """(a, D, u, E): the leaf measures a_i / D and the values u_i / E of
    one float leaf row over common denominators, a and u as object arrays
    of Python ints.  Float values and float measures are dyadic rationals,
    so these are exact."""
    nums, den = tree.numerator_arrays()
    if den is None:
        nums, den = common_denominator(
            list(map(Fraction, tree.leaf_measures_f().tolist())))
    else:
        nums = nums[-1].tolist()
    u, e = common_denominator(list(map(Fraction, row.tolist())))
    return np.array(nums, dtype=object), den, np.array(u, dtype=object), e


def exact_square_levels(tree, row):
    """Oracle: per level above the deepest, the averages f_B and the
    integrals int_B |f - f_B|^2 dP of one leaf row, each the correctly
    rounded float of its exact rational value.  With S, T, Q the atom
    sums of a, a u and a u^2 (exact_leaves), f_B = T / (E S) and the
    integral is (Q S - T^2) / (D E^2 S); int / int rounds correctly."""
    a, den, u, e = exact_leaves(tree, row)
    for n in range(tree.depth):
        starts = tree.level_arrays(n)[0]
        s, t, q = (np.add.reduceat(x, starts) for x in (a, a * u, a * u * u))
        yield ((t / (e * s)).astype(np.float64),
               ((q * s - t * t) / (den * e * e * s)).astype(np.float64))


def exact_first_levels(tree, row):
    """Oracle: per level above the deepest, the averages f_B and the
    integrals int_B |f - f_B| dP of one leaf row, correctly rounded, by
    the exact p = 1 scan's formula: with S and T the atom sums of a and
    a u (exact_leaves), f_B = T / (E S) and the integral is
    sum a_i |u_i S - T| / (D E S) over B's leaves."""
    a, den, u, e = exact_leaves(tree, row)
    for n in range(tree.depth):
        starts, lengths, _ = tree.level_arrays(n)
        s, t = (np.add.reduceat(x, starts) for x in (a, a * u))
        dev = np.abs(u * np.repeat(s, lengths) - np.repeat(t, lengths))
        yield ((t / (e * s)).astype(np.float64),
               (np.add.reduceat(a * dev, starts) / (den * e * s)).astype(
                   np.float64))


SQUARE_TOL = 1e-14


def assert_square_levels_exact(tree, block, got):
    """The p = 2 levels `got` of `block` (one row or a block of rows) are
    within SQUARE_TOL of exact_square_levels: an average relative to the
    largest |f| on its atom, the scale its rounding lives on (an average
    near 0 may be all rounding), an integral relative to its own value,
    so an atom where f is constant must read 0."""
    assert [level[0] for level in got] == list(range(tree.depth))
    for row, i in zip(np.atleast_2d(block), np.ndindex(block.shape[:-1])):
        for (n, avg, cint, measures), (want_avg, want_cint) in zip(
                got, exact_square_levels(tree, row)):
            starts, _, level_measures = tree.level_arrays(n)
            assert np.array_equal(measures, level_measures)
            scale = np.maximum.reduceat(np.abs(row), starts)
            assert (np.abs(avg[i] - want_avg) <= SQUARE_TOL * scale).all()
            assert (np.abs(cint[i] - want_cint)
                    <= SQUARE_TOL * want_cint).all()


@pytest.mark.parametrize("rows", [None, 5, 16],
                         ids=["one row", "block", "block of 16"])
@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
@pytest.mark.parametrize("kind", sorted(BIT_TREES))
def test_level_reductions_in_place_is_bit_identical(kind, p, rows):
    # p = 2 runs its own recurrence up the tree, whose bits differ from
    # the out-of-place definition; its rows compare with exact rationals
    tree = BIT_TREES[kind]()
    rng = np.random.default_rng(11)
    shape = (tree.leaf_count,) if rows is None else (rows, tree.leaf_count)
    block = 3.0 * rng.standard_normal(shape) + 1.0
    before = block.copy()
    # every yielded array is compared after the last level has run, so a
    # level that wrote into an array yielded earlier would show
    got = list(level_reductions(tree, block, p))
    assert np.array_equal(block, before)  # the input is only read
    if p == 2:
        assert_square_levels_exact(tree, before, got)
    else:
        want = list(out_of_place_level_reductions(tree, before, p))
        assert len(got) == len(want) == tree.depth
        for g, w in zip(got, want):
            assert g[0] == w[0]
            for a, b in zip(g[1:], w[1:]):
                assert a.shape == b.shape and np.array_equal(a, b)
    outputs = [a for g in got for a in g[1:3]]
    assert not any(np.shares_memory(a, b)
                   for a, b in itertools.combinations(outputs + [block], 2))


def multi_scale_steps(tree):
    """A step function over eight decades, 1 to 1e8 in nine runs of
    leaves, negative on every third leaf."""
    i = np.arange(tree.leaf_count)
    return 10.0 ** (9 * i // tree.leaf_count) * np.where(i % 3, 1.0, -1.0)


def oracle_row(tree, values):
    """The row of an oracle case: multi_scale_steps, or an offset plus
    3 times seeded noise."""
    if values == "steps":
        return multi_scale_steps(tree)
    noise = np.random.default_rng(11).standard_normal(tree.leaf_count)
    return float(values) + 3.0 * noise


ORACLE_VALUES = ["1", "1e3", "1e6", "1e9", "steps"]


@pytest.mark.parametrize("values", ORACLE_VALUES)
@pytest.mark.parametrize("kind", sorted(BIT_TREES))
def test_square_levels_match_exact_rationals(kind, values):
    # an offset c on 3 noise: the two-pass p = 2 read up to 1e-8 relative
    # on the integrals at c = 1e9; anchoring each atom at its first leaf
    # keeps rounding on the scale of the noise
    tree = BIT_TREES[kind]()
    row = oracle_row(tree, values)
    assert_square_levels_exact(tree, row, list(level_reductions(tree, row, 2)))


FIRST_TOL = 1e-14


@pytest.mark.parametrize("values", ORACLE_VALUES)
@pytest.mark.parametrize("kind", sorted(BIT_TREES))
def test_first_power_levels_match_exact_rationals(kind, values):
    # p = 1 sums the atom integrals of f up the tree: an average is within
    # FIRST_TOL of the largest |f| on its atom, and an integral within
    # FIRST_TOL of that |f| times P(B), the error that f_B carries into
    # |f - f_B|; an integral near 0 at a large offset is all rounding
    tree = BIT_TREES[kind]()
    row = oracle_row(tree, values)
    got = list(level_reductions(tree, row, 1))
    assert [level[0] for level in got] == list(range(tree.depth))
    for (n, avg, cint, measures), (want_avg, want_cint) in zip(
            got, exact_first_levels(tree, row)):
        scale = np.maximum.reduceat(np.abs(row), tree.level_arrays(n)[0])
        assert (np.abs(avg - want_avg) <= FIRST_TOL * scale).all()
        assert (np.abs(cint - want_cint)
                <= FIRST_TOL * scale * measures).all()


@pytest.mark.parametrize("kind", sorted(BIT_TREES))
def test_square_levels_scale_by_powers_of_two_bitwise(kind):
    # 2^j scales every sum, difference, product and quotient of the p = 2
    # pass exactly, far from overflow and underflow, and at p = 1 the
    # child sums, divisions, subtractions, abs and products with the
    # measures as well
    tree = BIT_TREES[kind]()
    row = 3.0 * np.random.default_rng(2).standard_normal(tree.leaf_count) + 1
    for p in (1, 2):
        base = list(level_reductions(tree, row, p))
        for j in range(-60, 61):
            scale = 2.0 ** j
            for (n, avg, cint, _), (_, avg_j, cint_j, _) in zip(
                    base, level_reductions(tree, row * scale, p)):
                assert np.array_equal(avg_j, avg * scale)
                assert np.array_equal(cint_j, cint * scale ** p)


# a 33,065-leaf split tree of runs of 1 to 3, whose ragged levels sum
# through pad tables built on the first call
ONE_ROW_TREES = {"dyadic 16": lambda: build_dyadic(16),
                 "split": lambda: ragged_split_tree(3, 14, 3)}


@pytest.mark.parametrize("p, rows, kind", [
    (1, 5.0, "dyadic 16"), (2, 4.25, "dyadic 16"),
    (1, 6.0, "split"), (2, 5.25, "split")],
    ids=["1-5.0", "2-4.25", "split-1-6.0", "split-2-5.25"])
def test_one_row_norm_reads_its_row_in_place(p, rows, kind):
    # a one-row float scan on dyadic depth 16 (a 512 KiB row) peaks at
    # 5.5 rows (p = 1) and 4.75 rows (p = 2) when it copies its row into
    # a block, and a row fewer when it reads the row in place; on the
    # split tree the deepest level's padded sums gather 1.5 rows beside a
    # padded copy of the row, and peak at 5.79 and 5.01 rows (4.54 and
    # 3.76 by reduceat)
    tree = ONE_ROW_TREES[kind]()
    f = LeafFunction.from_float_array(
        tree, np.random.default_rng(3).standard_normal(tree.leaf_count))
    campanato_norm(f, p, one())  # fills the tree's caches first
    tables = dict(tree._tables)
    assert any(t is not None for t in tables.values()) == (kind == "split")
    tracemalloc.start()
    try:
        campanato_norm(f, p, one())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows * f.values_array.nbytes, peak / 1024
    # the warm call built no table: the same keys, the same arrays
    assert tree._tables.keys() == tables.keys()
    assert all(tree._tables[key] is table for key, table in tables.items())


def _bits(a):
    """An array's exact contents: float bits (so -0.0 differs from 0.0),
    or the values themselves."""
    return a.view(np.int64) if a.dtype == np.float64 else a


def sum_rows(rng, shape, dtype):
    """Integers in [-9, 9] as `dtype`; as float64, times powers of ten
    from 1e-8 to 1e8 (so the order of a sum shows in its bits), with
    zeros of either sign."""
    rows = rng.integers(-9, 10, shape)
    if dtype == "float64":  # wide exponents and signed zeros
        rows = rows * 10.0 ** rng.integers(-8, 9, shape)
        rows[rows == 0] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[
            rows == 0]
    return rows.astype(dtype)


@pytest.mark.parametrize("dtype", ["float64", "int64", "object"])
@pytest.mark.parametrize("kind", ["dyadic", "uniform ternary",
                                  "rational split", "float split",
                                  "ragged split"])
def test_atom_sums_and_spread_match_reduceat_and_repeat(kind, dtype):
    tree = BIT_TREES[kind]()
    rng = np.random.default_rng(5)
    for shape in ((tree.leaf_count,), (16, tree.leaf_count)):
        rows = sum_rows(rng, shape, dtype)
        for n in range(tree.depth + 1):
            starts, lengths, _ = tree.level_arrays(n)
            sums = tree.atom_sums(n, rows)
            want = np.add.reduceat(rows, starts, axis=-1)
            assert sums.dtype == want.dtype
            assert np.array_equal(_bits(sums), _bits(want))
            assert not np.shares_memory(sums, rows)
            spread = tree.spread(n, sums)
            assert np.array_equal(_bits(spread),
                                  _bits(np.repeat(want, lengths, axis=-1)))
            out = np.empty(shape, dtype)
            assert tree.spread(n, sums, np.subtract, rows, out=out) is out
            assert np.array_equal(_bits(out), _bits(rows - spread))
            assert np.array_equal(_bits(tree.spread(n, sums, np.subtract,
                                                    rows)),
                                  _bits(rows - spread))
            atoms = np.flatnonzero(rng.random(len(starts)) < 0.3)
            leaves = tree.atom_leaves(n, atoms)
            assert leaves.tolist() == [
                i for j in atoms.tolist()
                for i in range(starts[j], starts[j] + lengths[j])]
            if atoms.size:
                part = tree.atom_sums(n, rows[..., leaves], atoms)
                assert np.array_equal(part, want[..., atoms])


@pytest.mark.parametrize("dtype", ["float64", "int64", "object"])
@pytest.mark.parametrize("kind", sorted(BIT_TREES))
def test_child_sums_match_reduceat(kind, dtype):
    tree = BIT_TREES[kind]()
    rng = np.random.default_rng(7)
    for n in range(tree.depth):
        firsts, up = tree.child_arrays(n)
        for shape in ((len(up),), (16, len(up))):
            rows = sum_rows(rng, shape, dtype)
            sums = tree.child_sums(n, rows)
            want = np.add.reduceat(rows, firsts, axis=-1)
            assert sums.dtype == want.dtype
            assert np.array_equal(_bits(sums), _bits(want))
            assert not np.shares_memory(sums, rows)


def test_ragged_levels_pad_runs_up_to_column_span():
    # the sizes of the two tests above reach the padded columns on the
    # ragged tree: a ragged level's runs pad to its longest, L, when L is
    # at most COLUMN_SPAN and the rows form at least COLUMN_MIN * L sums;
    # its run of 9 children and its longer leaf spans stay with reduceat,
    # and a level of one run length reads a view, with no table
    tree = BIT_TREES["ragged split"]()
    rng = np.random.default_rng(7)
    padded = set()
    for n in range(tree.depth):
        firsts, up = tree.child_arrays(n)
        for kind, sums, starts, size in (
                ("children", tree.child_sums, firsts, len(up)),
                ("atoms", tree.atom_sums, tree.level_arrays(n)[0],
                 tree.leaf_count)):
            lengths = np.diff(starts, append=size)
            longest = lengths.max()
            for rows in (1, 16):
                sums(n, sum_rows(rng, (size,) if rows == 1 else (rows, size),
                                 "float64"))
                table = tree._tables.get((kind, n))
                if (lengths == longest).all():  # one run length: no table
                    assert (kind, n) not in tree._tables
                elif longest > COLUMN_SPAN:
                    assert table is None
                else:
                    assert table.shape == (longest, len(starts))
                    if rows * len(starts) >= COLUMN_MIN * longest:
                        padded.add((kind, int(longest), rows))
    assert padded >= {("children", 8, 1), ("children", 8, 16),
                      ("atoms", 8, 1), ("atoms", 8, 16)}
    assert tree._tables["children", 2] is None  # its run of 9
