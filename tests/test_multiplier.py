"""Multiplier functionals, operator-norm bounds, and certificates."""

import math
import warnings

import numpy as np
import pytest

from campanato_lab import (LeafFunction, atom_average, build_dyadic,
                           build_from_spec, campanato_norm,
                           campanato_seminorm, capital_F,
                           central_p_integral, chain_through_leaf,
                           chain_to_root, extremal_chain_function,
                           check_chain_gaps, check_product_estimate,
                           conditional_expectation,
                           conditional_multiplier_check, constant,
                           default_test_family, eval_phi, indicator,
                           linf_bound_check, one,
                           op_norm_lower_bound, psi, random_functions,
                           sin_h_multiplier, theorem1_certificate, truncate)
from campanato_lab import constructions, multiplier
from campanato_lab.constructions import chain_values
from campanato_lab.functions import level_means, level_projection
from campanato_lab.filtration import Atom
from campanato_lab.multiplier import (INDICATORS, WITNESS_TIE,
                                      _family_lower_bound, _family_members,
                                      _family_norms)
from campanato_lab.verify import (ATOM_SAMPLE, CHAIN_COUNT, VerifyContext,
                                  run_verify_suites, suite_product_estimate)


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


@pytest.mark.parametrize("kind", ["dyadic", "exact split", "float split"])
def test_linf_cutoff_norm_is_the_norm_of_the_cutoff(kind):
    # the check reads norm(g chi_B) off the indicator block; it must be the
    # norm of the cut-off function itself, at the witness atom
    tree = {"dyadic": lambda: build_dyadic(6),
            "exact split": lambda: persistent_split_tree(1, True),
            "float split": lambda: persistent_split_tree(2, False)}[kind]()
    for spec in (one(), psi()):
        gs = (random_functions(tree, 1, seed=11)[0],
              sin_h_multiplier(tree, chain_through_leaf(tree, 0), spec))
        for g in gs:
            for p in (1, 1.5, 2):
                cutoff = next(c for c in linf_bound_check(g, p, spec).checks
                              if c.name == "cutoff_norm_vs_sup")
                w = cutoff.witness
                chi = indicator(tree, tree.atom(w["level"], w["atom"]))
                want = campanato_norm(g * chi, p, spec, exact=False).value
                assert w["lhs"] == pytest.approx(want, rel=1e-14, abs=0)


def test_conditional_multiplier_check_sin_h():
    tree = build_dyadic(6)
    g = sin_h_multiplier(tree, chain_through_leaf(tree, 0), one())
    rep = conditional_multiplier_check(g, 1, one(), chains=4, randoms=8,
                                       seed=3)
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["deepest_truncation_identity"].measured["diff"] == 0.0
    assert by_name["level0_lower_bound_is_mean"].passed


def projected_L_n(g, p, spec, chains, randoms, seed):
    """L_n with every member of the shared family projected onto each
    truncation: rows averaged over the level-n atoms, and each atom's
    indicator replaced by that of its level-n ancestor on the truncation.
    Deeper atoms repeat ancestors, and the maximum ignores repeats, so the
    walk must reach every atom of the truncation, and then its indicator
    block stands for the projected indicators.  Chains are projected as
    their leaf values."""
    tree = g.tree
    N = tree.depth
    base = list(_family_members(tree, spec, chains, randoms, seed,
                                paths=False))
    shared = list(base)
    for label, row in base:
        if label.startswith(("chain:", "rand:")):
            shared += [(f"E{n}[{label}]", level_projection(tree, n, row))
                       for n in range(1, N)]
    L_n = []
    for n in range(N + 1):
        trunc = truncate(tree, n)
        g_n = LeafFunction.from_float_array(
            trunc, level_means(tree, n, g.values_array))
        members = []
        for label, m in shared:
            if m is INDICATORS:
                projected = set()
                for level in tree.levels:
                    for B in level:
                        while B.level > n:
                            B = B.parent
                        projected.add(trunc.atom(B.level, B.index))
                assert projected == {B for k in range(n + 1)
                                     for B in trunc.atoms(k)}
            else:
                m = level_means(tree, n, m)
            members.append((label, m))
        L_n.append(_family_lower_bound(g_n, p, spec, members)[0])
    return L_n


def persistent_split_tree(seed, exact, depth=5):
    """A split tree with at least one persistence step below the root."""
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

    tree = build_from_spec({"fractions": ["1/3", "2/3"] if exact
                            else [1 / 3, 2 / 3],
                            "children": [{"persist": node(2)}, node(1)]})
    assert check_chain_gaps(tree, 2).checks[0].measured["persistence_steps"]
    return tree


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("exact", [True, False])
def test_conditional_L_n_match_projected_family(seed, exact):
    tree = persistent_split_tree(seed, exact)
    for spec in (one(), psi()):
        gs = [sin_h_multiplier(tree, chain_through_leaf(tree, seed), spec),
              random_functions(tree, 1, seed=seed)[0]]
        for g in gs:
            for p in (1, 2):
                rep = conditional_multiplier_check(g, p, spec, chains=4,
                                                   randoms=4, seed=seed)
                L_n = rep.checks[0].measured["L_n"]
                assert L_n == projected_L_n(g, p, spec, 4, 4, seed)


def test_certificate_fails_on_nan_margins():
    # at p = 400 |f - f_B|^p overflows float64 in the scans, so the margins
    # of some members are NaN: those count as violations
    tree = build_dyadic(6)
    g = sin_h_multiplier(tree, chain_through_leaf(tree, 0), one())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cert = theorem1_certificate(g, 400, one(), sample_chains=8,
                                    randoms=8, seed=1)
    assert math.isnan(cert.upper_worst_margin)
    assert cert.upper_violations > 0
    assert not cert.passed


def test_product_estimate_fails_when_its_sides_overflow():
    # at p = 1000 |f - f_B|^p overflows float64, so seminorms read inf:
    # gap = bound = inf is no evidence, and inf - inf is a NaN margin
    tree = build_dyadic(6)
    fs = random_functions(tree, 50, 0)
    gs = random_functions(tree, 50, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pairs = [check_product_estimate(f, g, 1000, one()).checks[0]
                 for f, g in zip(fs, gs)]
        suite = suite_product_estimate(
            VerifyContext(tree, one(), 1000, 0)).checks[0]
    for i in (17, 37):
        assert pairs[i].measured["gap"] == pairs[i].measured["bound"] \
            == math.inf
    assert not any(check.passed for check in pairs)
    assert suite.measured["failures"] == 50
    assert math.isnan(suite.measured["worst_margin"])
    assert not suite.passed


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


def test_multiplier_paths_make_no_atom_handle(monkeypatch):
    made = []
    init = Atom.__init__

    def counting_init(self, tree, level, index):
        made.append((level, index))
        init(self, tree, level, index)

    monkeypatch.setattr(Atom, "__init__", counting_init)
    # the certificate, the sup-norm check and the truncation check read
    # the level arrays only: they make no Atom handle
    tree = build_dyadic(6)
    g = random_functions(tree, 1, seed=5)[0]
    assert theorem1_certificate(g, 1.5, psi(), sample_chains=8).op_lower > 0
    assert linf_bound_check(g, 1, one()).checks
    assert conditional_multiplier_check(g, 2, psi(), chains=4).checks
    assert made == []
    # the verify suites make handles for the chains and sampled atoms they
    # read, at most one per level each, and never a whole level: fewer
    # distinct handles than the tree's 511 atoms
    tree = build_dyadic(8)
    reports = run_verify_suites(VerifyContext(tree=tree, spec=one(), p=1,
                                              seed=7))
    assert all(rep.passed for rep in reports)
    # one chain in atom_average_growth and one in conditional_multipliers
    chains, atoms = CHAIN_COUNT + 2, ATOM_SAMPLE
    assert len(made) <= (tree.depth + 1) * (chains + atoms)
    assert len(set(made)) <= (tree.depth + 1) * chains + atoms < 511


def test_atom_members_take_the_indicator_block_values():
    tree = build_dyadic(5)
    g = random_functions(tree, 1, seed=3)[0]
    block = _family_norms(g, 1.5, psi(), [("chi", INDICATORS)])
    at = {label: k for k, label in enumerate(block[0])}
    atoms = [(f"chi:{n},{B.index}", B)
             for n in range(tree.depth + 1) for B in tree.atoms(n)]
    # every atom, in level order, then out of order with repeats: each
    # member has exactly the block's values at its own label
    for members in (atoms, atoms[::-1] + atoms[5:9]):
        labels, norm_f, norm_fg, _ = _family_norms(g, 1.5, psi(), members)
        assert list(labels) == [label for label, _ in members]
        k = [at[label] for label in labels]
        assert norm_f.tolist() == block[1][k].tolist()
        assert norm_fg.tolist() == block[2][k].tolist()
    assert op_norm_lower_bound(g, 1.5, psi(), atoms) == \
        _family_lower_bound(g, 1.5, psi(), [("chi", INDICATORS)])
    # a constant g ties every member up to rounding: the witness is the
    # first member in family order whose ratio is within WITNESS_TIE of L
    c = constant(tree, -3.0)
    L, witness = op_norm_lower_bound(c, 1.5, psi(), atoms[::-1])
    assert L == pytest.approx(3.0) and witness == atoms[-1][0]
    labels, norm_f, norm_fg, _ = _family_norms(c, 1.5, psi(), atoms[::-1])
    ratios = norm_fg / norm_f
    assert ratios.max() == L
    assert witness == labels[int(np.argmax(ratios >= L * (1 - WITNESS_TIE)))]


def test_foreign_tree_atoms_are_refused():
    # a same-shaped tree: its atoms have this tree's (level, index) pairs
    tree, other = build_dyadic(3), build_dyadic(3)
    assert tree.same_structure(other)
    with pytest.raises(ValueError):
        chain_to_root(tree, other.leaves[0])
    foreign = chain_to_root(other, other.leaves[0])
    with pytest.raises(ValueError):
        extremal_chain_function(tree, foreign, one())
    # one foreign atom inside this tree's own chain
    mixed = chain_to_root(tree, tree.leaves[5])
    mixed[2] = other.atom(2, mixed[2].index)
    for chain in (foreign, mixed):
        with pytest.raises(ValueError):
            chain_values(tree, chain, psi())
    g = random_functions(tree, 1, seed=0)[0]
    with pytest.raises(ValueError):
        op_norm_lower_bound(g, 1, one(), [other.atom(1, 0)])
    # this tree's own atoms and chains pass
    assert op_norm_lower_bound(g, 1, one(), [tree.atom(1, 0)])[0] > 0
    extremal_chain_function(tree, chain_to_root(tree, tree.leaves[5]), one())


def test_certificate_scans_no_chain_row(monkeypatch):
    # the chains take the ancestors-only path: scan_block gets the constant
    # and random members and their products, and no chain's leaf values
    # are built
    counts = []
    scan = multiplier.scan_block

    def counting(tree, rows, *args, **kwargs):
        rows = list(rows)
        counts.append(len(rows))
        return scan(tree, rows, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("a chain's leaf values were built")

    monkeypatch.setattr(multiplier, "scan_block", counting)
    monkeypatch.setattr(multiplier, "_path_values", refuse)
    monkeypatch.setattr(constructions, "_path_values", refuse)
    tree = build_dyadic(6)
    g = sin_h_multiplier(tree, chain_through_leaf(tree, 3), psi())
    for randoms in (0, 5):
        counts.clear()
        cert = theorem1_certificate(g, 1.5, psi(), sample_chains=16,
                                    randoms=randoms, seed=4)
        assert counts == [2 + 2 * randoms]
        assert cert.family_size == 1 + 127 + 16 + randoms
