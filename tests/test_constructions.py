"""Chain constructions: values, martingale identities, and closed forms."""

import math

import pytest

from campanato_lab import (atom_average, build_dyadic, build_from_spec,
                           campanato_seminorm, chain_through_leaf,
                           chain_to_root, dyadic_h_closed_form, expectation,
                           extremal_chain_function, h_function, indicator,
                           linf_norm, lipschitz_compose_check, one, phi_star,
                           psi, random_functions, sin_h_multiplier)
from campanato_lab.constructions import (martingale_identity_defect,
                                         measure_chain_constants)

LOG2 = math.log(2.0)


def chain_tree(depth):
    spec = None
    for _ in range(depth):
        spec = {"persist": spec}
    return build_from_spec(spec)


def test_dyadic_extremal_ring_values():
    depth = 5
    tree = build_dyadic(depth)
    chain = chain_through_leaf(tree, 0)
    con = extremal_chain_function(tree, chain, one())
    # telescoping oracle: value n on ring B_n minus B_{n+1}, 1+N at the end
    for n in range(depth):
        ring = [i for i in range(chain[n].leaf_start, chain[n].leaf_end)
                if not chain[n + 1].leaf_start <= i < chain[n + 1].leaf_end]
        assert all(con.f.values[i] == n for i in ring)
    assert all(con.f.values[i] == 1 + depth
               for i in range(chain[depth].leaf_start, chain[depth].leaf_end))


def test_dyadic_extremal_atom_averages_exact():
    tree = build_dyadic(6)
    chain = chain_through_leaf(tree, 17)
    con = extremal_chain_function(tree, chain, one())
    for n, B in enumerate(chain):
        assert atom_average(con.f, B) == 1 + n


def test_extremal_average_ratio_band():
    tree = build_dyadic(8)
    con = extremal_chain_function(tree, chain_through_leaf(tree, 3), one())
    for n, B in enumerate(con.chain):
        ratio = float(atom_average(con.f, B)) / phi_star(one(), 2.0 ** -n)
        assert 1.0 <= ratio <= 1.0 / LOG2 + 1e-12


def test_extremal_martingale_identity_exact():
    tree = build_dyadic(5)
    con = extremal_chain_function(tree, chain_through_leaf(tree, 11), one())
    assert martingale_identity_defect(con) == 0
    assert con.sequence.martingale_defect() == 0


def test_extremal_increment_structure():
    # mean-zero increments: every partial sum has mean 1, the partial sums
    # form a martingale, and the last one is f
    tree = build_dyadic(4)
    con = extremal_chain_function(tree, chain_through_leaf(tree, 0), one())
    seq = con.sequence
    assert seq.martingale_defect() == 0
    assert all(expectation(fn) == 1 for fn in seq.levels)
    assert seq.levels[0].values == (1,) * tree.leaf_count
    assert seq.levels[-1].values == con.f.values


def test_chain_tree_construction_collapses():
    tree = chain_tree(4)
    chain = chain_to_root(tree, tree.leaves[0])
    con = extremal_chain_function(tree, chain, one())
    assert set(con.f.values) == {1}
    assert all(set(fn.values) == {1} for fn in con.sequence.levels)
    h = h_function(tree, chain, one())
    assert set(h.values) == {0}


def test_persistence_steps_produce_zero_increments():
    spec = {"fractions": ["1/2", "1/2"],
            "children": [{"persist": {"fractions": ["1/4", "3/4"]}}, None]}
    tree = build_from_spec(spec)
    chain = chain_to_root(tree, tree.leaves[0])
    con = extremal_chain_function(tree, chain, psi())
    persisted = [k for k in range(1, len(chain))
                 if chain[k].measure == chain[k - 1].measure]
    assert persisted
    assert con.sequence.martingale_defect() <= 1e-15
    for k in persisted:
        assert con.partial_sum(k).values == con.partial_sum(k - 1).values


def test_chain_validation():
    tree = build_dyadic(3)
    chain = chain_through_leaf(tree, 0)
    with pytest.raises(ValueError):
        extremal_chain_function(tree, chain[:-1], one())
    broken = list(chain)
    broken[2] = tree.atoms(2)[3]
    with pytest.raises(ValueError):
        extremal_chain_function(tree, broken, one())


def test_measured_constants_dyadic():
    tree = build_dyadic(8)
    con = extremal_chain_function(tree, chain_through_leaf(tree, 0), one())
    upper, lower = measure_chain_constants(con, 1, one())
    assert upper == pytest.approx(2.0, abs=1e-9)  # seminorm 1, mean 1
    assert lower == pytest.approx(1.0, abs=1e-12)


def test_h_is_f_minus_root_indicator():
    tree = build_dyadic(5)
    chain = chain_through_leaf(tree, 9)
    con = extremal_chain_function(tree, chain, one())
    h = h_function(tree, chain, one())
    assert h.values == (con.f - indicator(tree, tree.root, exact=True)).values
    assert expectation(h) == 0
    assert campanato_seminorm(h, 1, one()).value == \
        campanato_seminorm(con.f, 1, one()).value


def test_h_mean_zero_for_any_weight():
    tree = build_dyadic(6)
    for spec in (one(), psi()):
        h = h_function(tree, chain_through_leaf(tree, 5), spec)
        assert abs(float(expectation(h))) <= 1e-15


def test_dyadic_h_closed_form_ring_values():
    h = dyadic_h_closed_form(4, 0)
    tree = h.tree
    chain = chain_through_leaf(tree, 0)
    ring0 = chain[0].leaf_end - 1  # rightmost leaf sits in the first ring
    assert h.values[ring0] == pytest.approx(-1 / (1 + LOG2), abs=1e-15)
    ring1 = chain[1].leaf_end - 1
    expected1 = 1 / (1 + LOG2) - 1 / (1 + 2 * LOG2)
    assert h.values[ring1] == pytest.approx(expected1, abs=1e-15)


def test_dyadic_h_closed_form_matches_increment_sum():
    for depth in (4, 8):
        closed = dyadic_h_closed_form(depth, 0)
        summed = h_function(closed.tree, chain_through_leaf(closed.tree, 0),
                            psi())
        diff = max(abs(a - b) for a, b in zip(closed.values, summed.values))
        assert diff <= 1e-12


def test_dyadic_h_sup_grows_with_depth():
    sups = [linf_norm(dyadic_h_closed_form(d, 0)) for d in (4, 8, 16)]
    assert sups[0] < sups[1] < sups[2]


def test_dyadic_h_wrong_tree_rejected():
    tree = build_dyadic(3)
    with pytest.raises(ValueError):
        dyadic_h_closed_form(4, 0, tree=tree)
    # depth 2 with four leaves, but the level-1 measures are 1/4 and 3/4
    halves = {"fractions": ["1/2", "1/2"]}
    split = build_from_spec({"fractions": ["1/4", "3/4"],
                             "children": [halves, halves]})
    with pytest.raises(ValueError):
        dyadic_h_closed_form(2, 0, tree=split)


def test_sin_h_bounded_and_small_oscillation():
    tree = build_dyadic(7)
    chain = chain_through_leaf(tree, 0)
    g = sin_h_multiplier(tree, chain, one())
    assert linf_norm(g) <= 1.0
    quotient = psi()  # the quotient weight of the constant family
    h = h_function(tree, chain, quotient)
    sem_g = float(campanato_seminorm(g, 1, quotient, exact=False).value)
    sem_h = float(campanato_seminorm(h, 1, quotient, exact=False).value)
    assert sem_g <= 2 * sem_h + 1e-12
    assert sem_g > 0


def test_sin_h_on_chain_tree_is_zero():
    tree = chain_tree(3)
    g = sin_h_multiplier(tree, chain_to_root(tree, tree.leaves[0]), one())
    assert set(g.values) == {0.0}


def test_lipschitz_check_identity():
    tree = build_dyadic(5)
    f = random_functions(tree, 1, seed=61)[0]
    rep = lipschitz_compose_check(f, 1.0, f)
    assert rep.passed
    assert rep.checks[0].measured["worst_ratio"] == pytest.approx(1.0)


def test_lipschitz_check_sine():
    tree = build_dyadic(6)
    for f in random_functions(tree, 10, seed=67):
        rep = lipschitz_compose_check(f, 1.0, f.apply(math.sin))
        assert rep.passed


def test_lipschitz_check_scaling_invariance():
    tree = build_dyadic(5)
    f = random_functions(tree, 1, seed=71)[0]
    base = lipschitz_compose_check(f, 1.0, f)
    scaled = lipschitz_compose_check(f, 4.0, f * 4.0)
    assert scaled.passed
    assert scaled.checks[0].measured["worst_ratio"] == pytest.approx(
        4.0 * base.checks[0].measured["worst_ratio"])


def test_chain_norms_symmetric_on_dyadic():
    # all root-to-leaf chains of a dyadic tree are isomorphic, so the
    # measured norm constant is identical across sampled chains
    tree = build_dyadic(8)
    rng_picks = range(0, 256, 4)  # 64 evenly spread leaves
    uppers = []
    for j in rng_picks:
        con = extremal_chain_function(tree, chain_through_leaf(tree, j), one())
        uppers.append(measure_chain_constants(con, 1, one())[0])
    spread = (max(uppers) - min(uppers)) / max(uppers)
    assert spread <= 0.05
    assert max(uppers) <= 3.0


def test_truncation_tail_scale_reported():
    tree = build_dyadic(6)
    con = extremal_chain_function(tree, chain_through_leaf(tree, 0), one())
    assert con.truncation_tail_scale(1) == pytest.approx(2.0 ** -6)
    assert con.truncation_tail_scale(2) == pytest.approx(2.0 ** -3)
