"""Conditional expectations, atom averages, and the supporting norms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from campanato_lab import (LeafFunction, atom_average, build_dyadic,
                           build_from_spec, central_p_integral,
                           conditional_expectation, constant, expectation,
                           indicator, linf_norm, lp_norm, martingale_of,
                           random_functions)


def brute_conditional_expectation(f, n):
    """Independent oracle: group leaves by their level-n ancestor id."""
    tree = f.tree
    sums, mass = {}, {}
    for i, leaf in enumerate(tree.leaves):
        anc = leaf
        while anc.level > n:
            anc = anc.parent
        sums[anc.id] = sums.get(anc.id, 0) + f.values[i] * leaf.measure
        mass[anc.id] = mass.get(anc.id, 0) + leaf.measure
    out = []
    for leaf in tree.leaves:
        anc = leaf
        while anc.level > n:
            anc = anc.parent
        out.append(sums[anc.id] / mass[anc.id])
    return out


def test_conditional_expectation_identity_at_deepest():
    tree = build_dyadic(3)
    f = LeafFunction(tree, range(8))
    assert conditional_expectation(f, tree.depth) is f


def test_conditional_expectation_level0_is_mean():
    tree = build_dyadic(2)
    f = LeafFunction(tree, [Fraction(1), Fraction(2), Fraction(3), Fraction(6)])
    e0 = conditional_expectation(f, 0)
    assert set(e0.values) == {Fraction(3)}


def test_conditional_expectation_weighted_average_oracle():
    tree = build_dyadic(2)
    f = LeafFunction(tree, [1, 0, 0, 0])
    e1 = conditional_expectation(f, 1)
    assert e1.values == (Fraction(1, 2), Fraction(1, 2), 0, 0)
    assert list(e1.values) == brute_conditional_expectation(f, 1)


def test_conditional_expectation_matches_oracle_on_uneven_tree():
    tree = build_from_spec({"fractions": ["1/5", "4/5"],
                            "children": [None, {"fractions": ["3/4", "1/4"]}]})
    f = LeafFunction(tree, [Fraction(2), Fraction(-1), Fraction(7)])
    for n in range(tree.depth + 1):
        assert list(conditional_expectation(f, n).values) == \
            brute_conditional_expectation(f, n)
    # float values on an exact tree whose atoms hold up to 64 leaves: each
    # average is the in-order sum of atom_average, to the bit, which a
    # pairwise float64 summation would not give
    tree = build_dyadic(6)
    for f in random_functions(tree, 3, seed=5):
        for n in range(tree.depth):
            values = conditional_expectation(f, n).values
            for B in tree.atoms(n):
                want = atom_average(f, B)
                for v in values[B.leaf_start:B.leaf_end]:
                    assert v == want and type(v) is type(want)


def test_conditional_expectation_out_of_range():
    tree = build_dyadic(2)
    f = constant(tree, 1)
    with pytest.raises(ValueError):
        conditional_expectation(f, 3)
    with pytest.raises(ValueError):
        conditional_expectation(f, -1)


def test_tower_property_exact():
    tree = build_dyadic(4)
    rng = np.random.default_rng(11)
    f = LeafFunction(tree, [Fraction(int(k), 64)
                            for k in rng.integers(-100, 100, tree.leaf_count)])
    for n in range(tree.depth + 1):
        for m in range(n, tree.depth + 1):
            em = conditional_expectation(f, m)
            assert conditional_expectation(em, n).values == \
                conditional_expectation(f, n).values


def test_projection_idempotent_and_mean_preserving():
    tree = build_dyadic(3)
    f = LeafFunction(tree, [Fraction(k, 8) for k in range(8)])
    e2 = conditional_expectation(f, 2)
    assert conditional_expectation(e2, 2).values == e2.values
    assert expectation(e2) == expectation(f)


def test_atom_average_constant():
    tree = build_dyadic(3)
    f = constant(tree, Fraction(7, 3))
    for level in tree.levels:
        for atom in level:
            assert atom_average(f, atom) == Fraction(7, 3)


def test_atom_average_indicator_at_parent():
    tree = build_dyadic(3)
    B = tree.atoms(2)[1]
    f = indicator(tree, B, exact=True)
    assert atom_average(f, B.parent) == B.measure / B.parent.measure


def test_atom_average_direct():
    tree = build_dyadic(1)
    f = LeafFunction(tree, [3, 1])
    assert atom_average(f, tree.root) == 2


def test_atom_average_bounded_by_sup():
    tree = build_dyadic(4)
    for f in random_functions(tree, 5, seed=3):
        sup = linf_norm(f)
        for level in tree.levels:
            for atom in level:
                assert abs(atom_average(f, atom)) <= sup + 1e-12


def test_central_integral_zero_at_deepest():
    tree = build_dyadic(3)
    f = LeafFunction(tree, range(8))
    for atom in tree.leaves:
        assert central_p_integral(f, atom, tree.depth, 1) == 0


def test_central_integral_values():
    tree = build_dyadic(1)
    f = LeafFunction(tree, [1, 0])
    assert central_p_integral(f, tree.root, 0, 1) == Fraction(1, 2)
    assert central_p_integral(f, tree.root, 0, 2) == pytest.approx(0.25)


def test_central_integral_wrong_level():
    tree = build_dyadic(2)
    f = constant(tree, 1)
    with pytest.raises(ValueError):
        central_p_integral(f, tree.root, 1, 1)


def test_central_integral_zero_iff_constant_on_atom():
    tree = build_dyadic(2)
    f = LeafFunction(tree, [5, 5, 1, 2])
    first, second = tree.atoms(1)
    assert central_p_integral(f, first, 1, 1) == 0
    assert central_p_integral(f, second, 1, 1) > 0


def test_jensen_monotone_in_p():
    tree = build_dyadic(3)
    for f in random_functions(tree, 10, seed=5):
        for level in tree.levels:
            for atom in level:
                vals = [(central_p_integral(f, atom, atom.level, p)
                         / float(atom.measure)) ** (1.0 / p)
                        for p in (1, 2, 4)]
                assert vals[0] <= vals[1] + 1e-12
                assert vals[1] <= vals[2] + 1e-12


def test_martingale_of_constant():
    tree = build_dyadic(3)
    seq = martingale_of(constant(tree, 4))
    for g in seq.levels:
        assert set(g.values) == {4}


def test_martingale_of_oracle_values():
    tree = build_dyadic(2)
    seq = martingale_of(LeafFunction(tree, [1, 0, 0, 0]))
    assert set(seq.levels[0].values) == {Fraction(1, 4)}
    assert seq.levels[1].values == (Fraction(1, 2), Fraction(1, 2), 0, 0)
    assert seq.levels[2].values == (1, 0, 0, 0)
    assert seq.martingale_defect() == 0


def test_martingale_property_exact_for_random_rationals():
    tree = build_from_spec({"fractions": ["1/3", "1/3", "1/3"],
                            "children": [{"fractions": ["1/2", "1/2"]},
                                         None, "persist"]})
    rng = np.random.default_rng(17)
    f = LeafFunction(tree, [Fraction(int(k), 32)
                            for k in rng.integers(-64, 64, tree.leaf_count)])
    assert martingale_of(f).martingale_defect() == 0


def test_simple_norms():
    tree = build_dyadic(1)
    f = constant(tree, Fraction(-5, 2))
    assert linf_norm(f) == Fraction(5, 2)
    assert lp_norm(f, 1) == Fraction(5, 2)
    assert expectation(f) == Fraction(-5, 2)
    g = LeafFunction(tree, [1, -1])
    assert linf_norm(g) == 1
    assert lp_norm(g, 1) == 1
    assert expectation(g) == 0


def test_indicator_norms_scale_with_measure():
    tree = build_dyadic(4)
    B = tree.leaves[3]
    f = indicator(tree, B, exact=True)
    m = B.measure
    assert linf_norm(f) == 1
    assert lp_norm(f, 1) == m
    assert lp_norm(f, 2) == pytest.approx(float(m) ** 0.5)
    assert expectation(f) == m


def test_rejects_non_finite_values():
    tree = build_dyadic(1)
    with pytest.raises(ValueError):
        LeafFunction(tree, [1.0, math.inf])
    with pytest.raises(ValueError):
        LeafFunction(tree, [float("nan"), 0.0])


def test_value_count_must_match():
    tree = build_dyadic(2)
    with pytest.raises(ValueError):
        LeafFunction(tree, [1, 2, 3])


# ints next to Fractions, some over denominators above 2**64
EXACT_VALUES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.fractions(min_value=-10, max_value=10),
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
              st.integers(2 ** 64 + 1, 2 ** 66)))


def assert_canonical(f):
    """f holds integer numerators u over E > 0 with gcd(E, u) = 1; its
    tuple holds ints when E = 1 and Fractions otherwise; and its float
    array is bit-equal to float() of each value."""
    u, den = f.numerators
    assert den > 0 and math.gcd(den, *u.tolist()) == 1
    assert all(type(x) is int for x in u.tolist())
    assert all(type(v) is (int if den == 1 else Fraction) for v in f.values)
    assert [x.hex() for x in f.values_array.tolist()] == \
        [float(v).hex() for v in f.values]


@settings(max_examples=40, deadline=None)
@given(st.lists(EXACT_VALUES, min_size=4, max_size=4),
       st.lists(EXACT_VALUES, min_size=4, max_size=4), EXACT_VALUES)
def test_arithmetic_on_exact_values_stays_exact(vals, others, c):
    tree = build_dyadic(2)
    f, g = LeafFunction(tree, vals), LeafFunction(tree, others)
    a, b = [Fraction(v) for v in vals], [Fraction(v) for v in others]
    cases = [
        (f * 2 + f - f, [2 * x for x in a]),
        (f + g, [x + y for x, y in zip(a, b)]),
        (f - g, [x - y for x, y in zip(a, b)]),
        (f * g, [x * y for x, y in zip(a, b)]),
        (f + c, [x + c for x in a]), (c + f, [c + x for x in a]),
        (f - c, [x - c for x in a]),
        (f * c, [x * c for x in a]), (c * f, [c * x for x in a]),
        (-f, [-x for x in a]), (f, a), (g, b),
    ]
    for h, ref in cases:
        assert h.has_exact_values
        assert list(h.values) == ref
        assert_canonical(h)
    # equal functions have equal arrays
    back = f + g - g
    assert back.numerators[1] == f.numerators[1]
    assert back.numerators[0].tolist() == f.numerators[0].tolist()
    # classification goes by Python type, not by numpy's dtype
    two = build_dyadic(1)
    big = LeafFunction(two, [2 ** 63, -1])
    assert big.has_exact_values and big.values == (2 ** 63, -1)
    assert not LeafFunction(two, [1, 0.5]).has_exact_values


def test_float_arithmetic_matches_scalar_ops():
    tree = build_dyadic(3)
    f, g = random_functions(tree, 2, seed=23)
    prod = f * g
    assert prod.values == tuple(a * b for a, b in zip(f.values, g.values))


@pytest.mark.parametrize("op", [
    lambda f, B: indicator(f.tree, B),
    atom_average,
    lambda f, B: central_p_integral(f, B, B.level, 1),
], ids=["indicator", "atom_average", "central_p_integral"])
@pytest.mark.parametrize("other", [build_dyadic(5), build_dyadic(3)],
                         ids=["deeper", "same_shape"])
def test_foreign_atoms_are_refused(op, other):
    tree = build_dyadic(3)
    f = LeafFunction(tree, range(tree.leaf_count))
    for B in (other.atom(2, 1), other.atom(other.depth - 1, 0)):
        with pytest.raises(ValueError, match="does not belong"):
            op(f, B)
    # the tree's own atom at the same position passes
    assert op(f, tree.atom(2, 1)) is not None
