"""Multiplier functionals, operator-norm bounds, and certificates."""

import warnings

import pytest

from campanato_lab import (LeafFunction, atom_average, build_dyadic,
                           campanato_norm, campanato_seminorm, capital_F,
                           central_p_integral, chain_through_leaf,
                           check_product_estimate, conditional_expectation,
                           conditional_multiplier_check, constant,
                           default_test_family, eval_phi, indicator,
                           linf_bound_check, one,
                           op_norm_lower_bound, psi, random_functions,
                           sin_h_multiplier, theorem1_certificate)


def brute_capital_F(f, g, p, spec):
    """Oracle: plain loops over all atoms via the public per-atom ops."""
    tree = f.tree
    best = 0.0
    for n in range(tree.depth + 1):
        for B in tree.atoms(n):
            osc = (float(central_p_integral(g, B, n, p))
                   / float(B.measure)) ** (1.0 / p)
            val = abs(float(atom_average(f, B))) \
                / float(eval_phi(spec, float(B.measure))) * osc
            best = max(best, val)
    return best


def test_capital_F_constant_multiplier_vanishes():
    tree = build_dyadic(4)
    f = random_functions(tree, 1, seed=1)[0]
    assert capital_F(f, constant(tree, 3.0), 1, one()) == 0.0


def test_capital_F_constant_f_gives_scaled_seminorm():
    tree = build_dyadic(4)
    g = random_functions(tree, 1, seed=2)[0]
    sem = float(campanato_seminorm(g, 1, one(), exact=False).value)
    assert capital_F(constant(tree, -2.5), g, 1, one()) == \
        pytest.approx(2.5 * sem, rel=1e-12)


def test_capital_F_specific_small_case():
    tree = build_dyadic(2)
    f = LeafFunction(tree, [1.0, 0.0, 0.0, 0.0])
    g = LeafFunction(tree, [0.0, 1.0, 0.0, 0.0])
    got = capital_F(f, g, 1, one())
    assert got == pytest.approx(brute_capital_F(f, g, 1, one()), rel=1e-12)


def test_capital_F_matches_brute_oracle():
    tree = build_dyadic(4)
    fs = random_functions(tree, 5, seed=3)
    gs = random_functions(tree, 5, seed=4)
    for f, g in zip(fs, gs):
        for p in (1, 2):
            for spec in (one(), psi()):
                assert capital_F(f, g, p, spec) == pytest.approx(
                    brute_capital_F(f, g, p, spec), rel=1e-11)


def test_capital_F_homogeneous_in_f():
    tree = build_dyadic(4)
    f, g = random_functions(tree, 2, seed=5)
    base = capital_F(f, g, 1, one())
    assert capital_F(f * 4.0, g, 1, one()) == pytest.approx(4.0 * base)


def test_product_estimate_constant_cases():
    tree = build_dyadic(4)
    f = random_functions(tree, 1, seed=6)[0]
    assert check_product_estimate(f, constant(tree, 1.0), 1, one()).passed
    g = random_functions(tree, 1, seed=7)[0]
    assert check_product_estimate(constant(tree, 1.0), g, 1, one()).passed


def test_product_estimate_random_pairs():
    tree = build_dyadic(5)
    fs = random_functions(tree, 20, seed=8)
    gs = random_functions(tree, 20, seed=9)
    for p in (1, 2):
        for spec in (one(), psi()):
            for f, g in zip(fs, gs):
                assert check_product_estimate(f, g, p, spec).passed


def test_op_norm_constant_multiplier():
    tree = build_dyadic(3)
    fam = [("const:1", constant(tree, 1.0)),
           ("chi", indicator(tree, tree.atoms(1)[0]))]
    value, witness = op_norm_lower_bound(constant(tree, -3.0), 1, one(), fam)
    assert value == pytest.approx(3.0)
    assert witness == "const:1"


def test_op_norm_monotone_in_family():
    tree = build_dyadic(4)
    g = sin_h_multiplier(tree, chain_through_leaf(tree, 0), one())
    small = [("const:1", constant(tree, 1.0))]
    big = small + [(f"chi:{n},{a.index}", indicator(tree, a))
                   for n in range(tree.depth + 1) for a in tree.atoms(n)]
    v_small, _ = op_norm_lower_bound(g, 1, one(), small)
    v_big, _ = op_norm_lower_bound(g, 1, one(), big)
    assert v_big >= v_small


def test_op_norm_skips_zero_norm_members():
    tree = build_dyadic(2)
    fam = [("zero", constant(tree, 0.0)), ("const:1", constant(tree, 1.0))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, witness = op_norm_lower_bound(constant(tree, 2.0), 1, one(), fam)
    assert value == pytest.approx(2.0)
    assert any("zero norm" in str(w.message) for w in caught)


def test_op_norm_indicator_multiplier_consistent_with_closed_form():
    tree = build_dyadic(4)
    B = tree.atoms(2)[1]
    g = indicator(tree, B)
    value, _ = op_norm_lower_bound(g, 1, one(),
                                   [("const:1", constant(tree, 1.0))])
    assert value == pytest.approx(
        float(campanato_norm(indicator(tree, B), 1, one()).value))


def test_default_family_composition_and_determinism():
    tree = build_dyadic(4)
    fam1 = list(default_test_family(tree, one(), chains=4, randoms=3, seed=5))
    fam2 = list(default_test_family(tree, one(), chains=4, randoms=3, seed=5))
    labels = [l for l, _ in fam1]
    assert labels[0] == "const:1"
    assert sum(1 for l in labels if l.startswith("chi:")) == 31
    assert sum(1 for l in labels if l.startswith("chain:")) == 4
    assert sum(1 for l in labels if l.startswith("rand:")) == 3
    for (la, fa), (lb, fb) in zip(fam1, fam2):
        assert la == lb and fa.values == fb.values


def test_certificate_zero_multiplier():
    tree = build_dyadic(3)
    cert = theorem1_certificate(constant(tree, 0.0), 1, one(),
                                sample_chains=2, randoms=2, seed=1)
    assert cert.T == 0.0
    assert cert.op_lower == 0.0


def test_certificate_constant_multiplier():
    tree = build_dyadic(3)
    cert = theorem1_certificate(constant(tree, 2.0), 1, one(),
                                sample_chains=2, randoms=2, seed=1)
    assert cert.T == pytest.approx(2.0)
    assert cert.op_lower == pytest.approx(2.0)
    assert cert.ratio == pytest.approx(1.0)
    assert cert.upper_violations == 0
    assert cert.status == "ok"


def test_certificate_sin_h_small():
    tree = build_dyadic(6)
    g = sin_h_multiplier(tree, chain_through_leaf(tree, 0), one())
    cert = theorem1_certificate(g, 1, one(), sample_chains=8, seed=11)
    assert cert.op_lower > 0
    assert 1.0 <= cert.ratio <= 50.0
    assert cert.upper_violations == 0
    assert cert.passed


def test_certificate_flags_failed_assumptions():
    from campanato_lab import table
    tree = build_dyadic(3)
    # weight decaying like r^-0.8: the p=2 growth condition diverges
    pts = [(2.0 ** -k, (2.0 ** -k) ** -0.8) for k in range(0, 17, 2)]
    g = random_functions(tree, 1, seed=2)[0]
    cert = theorem1_certificate(g, 2, table(pts), sample_chains=2, randoms=2,
                                seed=1)
    assert cert.status == "assumptions unmet"
    assert not cert.passed


def test_linf_bound_check_constant():
    tree = build_dyadic(4)
    assert linf_bound_check(constant(tree, 5.0), 1, one()).passed


def test_linf_bound_check_leaf_indicator():
    tree = build_dyadic(6)
    g = indicator(tree, tree.leaves[0])
    rep = linf_bound_check(g, 1, one())
    assert rep.passed
    cutoff = next(c for c in rep.checks if c.name == "cutoff_norm_vs_sup")
    assert cutoff.measured["levels_checked"] == 6
    # on the dyadic tree the coarser ancestor is always the parent
    assert cutoff.witness["ancestor_level"] == cutoff.witness["level"] - 1


def test_linf_bound_check_sin_h():
    tree = build_dyadic(6)
    g = sin_h_multiplier(tree, chain_through_leaf(tree, 0), one())
    rep = linf_bound_check(g, 1, one())
    assert rep.passed
    growth = next(c for c in rep.checks
                  if c.name == "conditional_growth_per_level")
    assert growth.measured["R"] == 2.0


def test_conditional_multiplier_check_sin_h():
    tree = build_dyadic(6)
    g = sin_h_multiplier(tree, chain_through_leaf(tree, 0), one())
    rep = conditional_multiplier_check(g, 1, one(), chains=4, randoms=8,
                                       seed=3)
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["deepest_truncation_identity"].measured["diff"] == 0.0
    assert by_name["level0_lower_bound_is_mean"].passed


def test_conditional_norm_of_products_never_increases():
    tree = build_dyadic(5)
    fs = random_functions(tree, 5, seed=19)
    gs = random_functions(tree, 5, seed=23)
    for f, g in zip(fs, gs):
        norm_fg = float(campanato_norm(f * g, 1, one(), exact=False).value)
        for n in range(tree.depth + 1):
            truncated = conditional_expectation(f * g, n)
            assert float(campanato_norm(truncated, 1, one(),
                                        exact=False).value) \
                <= norm_fg + 1e-12
