"""The batched multiplier family against a per-member loop.

The certificate and op_norm_lower_bound scan the test family in blocks and
take an ancestors-only path for indicators; the reference here scans one
member at a time with the public single-function norms, on random split
trees with persistence steps, in exact and float mode.
"""

import dataclasses
import importlib
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from campanato_lab import (LeafFunction, atom_average, build_dyadic,
                           build_from_spec, campanato_norm,
                           campanato_seminorm, central_p_integral,
                           chain_to_root, chi_norm_closed_form, constant,
                           eval_phi, expectation, extremal_chain_function,
                           h_function, indicator, linf_norm, one,
                           op_norm_lower_bound, powerlog, psi, quotient_phi,
                           sin_h_multiplier, theorem1_certificate)
from campanato_lab import multiplier, norms
from campanato_lab.constructions import (_path_values, chain_values,
                                         lipschitz_compose_check,
                                         martingale_identity_defect,
                                         measure_chain_constants)
from campanato_lab.functions import _machine_ints
from campanato_lab.multiplier import (CONSTANT, INDICATORS, ChainPath,
                                      _chain_norms, _family_members,
                                      _family_norms, _indicator_norms,
                                      _sibling_max, _subtree_tables)
from campanato_lab.norms import (oscillation_scan, phi_level_values,
                                 phi_star_level_values)
from campanato_lab.phi import phi_star
from campanato_lab.report import INEQ_SLACK
from test_norms import BIT_TREES, _bits

TOL = 1e-12
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WEIGHTS = {"one": one(), "psi": psi(), "powerlog(0.3)": powerlog(0.3)}


@st.composite
def split_trees(draw, max_depth=5, exact=None):
    """Random split trees: persistence steps, early stops (padded with
    persistence), binary and ternary splits; exact or float fractions
    (drawn unless `exact` is given)."""
    if exact is None:
        exact = draw(st.booleans())

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
        fractions = [f"{w}/{total}" if exact else w / total for w in weights]
        return {"fractions": fractions,
                "children": [node(level + 1) for _ in range(kind)]}

    return build_from_spec(node(0, must_split=True))


def rel(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def reference_family(tree, spec, chains, randoms, seed):
    """The default family built member by member from the public
    constructors (Fraction chain functions where the tree is exact)."""
    rng = np.random.default_rng(seed)
    members = [("const:1", constant(tree, 1.0))]
    for n in range(tree.depth + 1):
        for atom in tree.atoms(n):
            members.append((f"chi:{n},{atom.index}", indicator(tree, atom)))
    picks = rng.choice(tree.leaf_count, size=min(chains, tree.leaf_count),
                       replace=False)
    for j in sorted(int(x) for x in picks):
        chain = chain_to_root(tree, tree.leaves[j])
        members.append((f"chain:leaf={j}",
                        extremal_chain_function(tree, chain, spec).f))
    for k in range(randoms):
        members.append((f"rand:{k}", LeafFunction.from_float_array(
            tree, rng.standard_normal(tree.leaf_count))))
    return members


def reference_stats(g, p, spec, members):
    """{label: (norm f, norm f g, sup |f_B| / phi_star)}, one scan each."""
    out = {}
    for label, f in members:
        sem, _, _, fb = oscillation_scan(f, p, spec, want_fb=True, exact=False)
        norm_f = float(sem) + abs(float(expectation(f)))
        norm_fg = float(campanato_norm(f * g, p, spec, exact=False).value)
        out[label] = (norm_f, norm_fg, fb)
    return out


def multiplier_for(tree, spec, kind, seed):
    if kind == "sin_h":
        leaf = seed % tree.leaf_count
        return sin_h_multiplier(tree, chain_to_root(tree, tree.leaves[leaf]),
                                spec)
    rng = np.random.default_rng(seed + 1)
    return LeafFunction.from_float_array(tree,
                                         rng.standard_normal(tree.leaf_count))


@settings(max_examples=40, deadline=None)
@given(tree=split_trees(), p=st.sampled_from([1, 1.5, 2]),
       weight=st.sampled_from(sorted(WEIGHTS)),
       g_kind=st.sampled_from(["sin_h", "random"]),
       seed=st.integers(0, 2 ** 16))
def test_certificate_matches_per_member_loop(tree, p, weight, g_kind, seed):
    spec = WEIGHTS[weight]
    g = multiplier_for(tree, spec, g_kind, seed)
    chains, randoms = 6, 4
    cert = theorem1_certificate(g, p, spec, sample_chains=chains,
                                randoms=randoms, seed=seed)
    members = reference_family(tree, spec, chains, randoms, seed)
    stats = reference_stats(g, p, spec, members)

    sem_q = float(campanato_seminorm(g, p, quotient_phi(spec),
                                     exact=False).value)
    sup_g = float(linf_norm(g))
    usable = {k: v for k, v in stats.items() if v[0] != 0.0}
    L = max(nfg / nf for nf, nfg, _ in usable.values())
    c_fb = max(fb / nf for nf, _, fb in usable.values())
    coeff = c_fb * sem_q + (2.0 + max(1.0, float(eval_phi(spec, 1.0)))) * sup_g
    margin = max(nfg - coeff * nf for nf, nfg, _ in usable.values())
    scale = max(max(nfg, coeff * nf) for nf, nfg, _ in usable.values())

    assert rel(cert.T, sem_q + sup_g) <= TOL
    assert rel(cert.op_lower, L) <= TOL
    assert rel(cert.c_fb, c_fb) <= TOL
    assert abs(cert.upper_worst_margin - margin) <= TOL * scale
    assert cert.family_size == len(usable)
    w_nf, w_nfg, _ = stats[cert.op_witness]
    assert rel(w_nfg / w_nf, cert.op_lower) <= TOL
    # the witness is the first member in family order within the tie band
    # L (1 - 1e-12); half the band is slack for the two summation orders
    for label, _ in members:
        if label == cert.op_witness:
            break
        if label in usable:
            nf, nfg, _ = usable[label]
            assert nfg / nf < L * (1.0 - TOL / 2), label


@settings(max_examples=40, deadline=None)
@given(tree=split_trees(), p=st.sampled_from([1, 1.5, 2]),
       weight=st.sampled_from(sorted(WEIGHTS)),
       g_kind=st.sampled_from(["sin_h", "random"]),
       seed=st.integers(0, 2 ** 16))
def test_family_norms_match_per_member_scans(tree, p, weight, g_kind, seed):
    spec = WEIGHTS[weight]
    g = multiplier_for(tree, spec, g_kind, seed)
    family = list(_family_members(tree, spec, chains=4, randoms=3, seed=seed))
    labels, norm_f, norm_fg, fb = _family_norms(g, p, spec, family,
                                                want_fb=True)
    stats = reference_stats(g, p, spec,
                            reference_family(tree, spec, 4, 3, seed))
    assert list(labels) == list(stats)
    # the family with its indicator block expanded, one atom per chi:
    # label, its constant as a row of ones, and each chain as its leaf
    # values
    members = []
    for label, m in family:
        if m is INDICATORS:
            members += [(f"chi:{n},{B.index}", B)
                        for n in range(tree.depth + 1) for B in tree.atoms(n)]
        else:
            if m is CONSTANT:
                m = np.ones(tree.leaf_count)
            elif isinstance(m, ChainPath):
                m = _path_values(tree, m, spec)
            members.append((label, LeafFunction.from_float_array(tree, m)))
    assert [label for label, _ in members] == list(labels)
    for k, (label, member) in enumerate(members):
        ref_nf, ref_nfg, ref_fb = stats[label]
        assert rel(norm_f[k], ref_nf) <= TOL, label
        assert rel(norm_fg[k], ref_nfg) <= TOL, label
        assert rel(fb[k], ref_fb) <= TOL, label
        if label.startswith("chi:"):
            closed = float(chi_norm_closed_form(member, p, spec).value)
            assert rel(norm_f[k], closed + float(member.measure)) <= TOL, label

    # op_norm_lower_bound takes indicators as atoms or as functions alike
    as_atoms = op_norm_lower_bound(g, p, spec, members)
    as_functions = op_norm_lower_bound(g, p, spec, [
        (label, indicator(tree, m) if label.startswith("chi:") else m)
        for label, m in members])
    assert rel(as_atoms[0], as_functions[0]) <= TOL
    L = max(nfg / nf for nf, nfg, _ in stats.values() if nf != 0.0)
    assert rel(as_atoms[0], L) <= TOL
    w_nf, w_nfg, _ = stats[as_atoms[1]]
    assert rel(w_nfg / w_nf, L) <= TOL


def chain_reference(tree, chain, spec, start, n):
    """Leaf values of start + sum_{k <= n} phi(P(B_k)) (P(B_{k-1})/P(B_k)
    chi_{B_k} - chi_{B_{k-1}}), the definition summed leaf by leaf in the
    Python scalars the weight and the tree provide."""
    values = []
    for i in range(tree.leaf_count):
        v = start
        for prev, cur in zip(chain[:n], chain[1:n + 1]):
            chi_prev = int(prev.leaf_start <= i < prev.leaf_end)
            chi_cur = int(cur.leaf_start <= i < cur.leaf_end)
            v += eval_phi(spec, float(cur.measure)) * (
                prev.measure / cur.measure * chi_cur - chi_prev)
        values.append(v)
    return tuple(values)


def identity_defect_reference(f, chain, spec):
    """max over levels n < N and leaves of |f_B - (n-th partial sum)|,
    with f_B the atom_average of f over the leaf's level-n atom."""
    tree, worst = f.tree, 0
    for n in range(tree.depth):
        partial = chain_reference(tree, chain, spec, 1, n)
        for B in tree.atoms(n):
            avg = atom_average(f, B)
            worst = max(worst, *(abs(avg - partial[i])
                                 for i in range(B.leaf_start, B.leaf_end)))
    return worst


def is_exact(values):
    return all(isinstance(v, (int, Fraction)) for v in values)


@settings(max_examples=40, deadline=None)
@given(tree=split_trees(), weight=st.sampled_from(sorted(WEIGHTS)),
       leaf=st.integers(0, 10 ** 6))
def test_chain_values_match_increment_sums(tree, weight, leaf):
    spec = WEIGHTS[weight]
    chain = chain_to_root(tree, tree.leaves[leaf % tree.leaf_count])
    con = extremal_chain_function(tree, chain, spec)
    f_ref = chain_reference(tree, chain, spec, 1, tree.depth)
    pairs = [(con.f, f_ref),
             (h_function(tree, chain, spec),
              chain_reference(tree, chain, spec, 0, tree.depth))]
    pairs += [(con.partial_sum(n), chain_reference(tree, chain, spec, 1, n))
              for n in range(tree.depth + 1)]
    for built, ref in pairs:
        assert built.values == ref
        assert built.has_exact_values == is_exact(ref)
    ref = np.array([float(v) for v in f_ref])
    row = chain_values(tree, chain, spec)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(row - ref)) <= TOL * scale
    # the chain checks against their leaf-by-leaf definitions
    assert martingale_identity_defect(con) == \
        identity_defect_reference(con.f, chain, spec)
    assert measure_chain_constants(con, 1, spec)[1] == min(
        abs(float(atom_average(con.f, B))) / phi_star(spec, float(B.measure))
        for B in chain)
    # and the identity check fails on a perturbed f
    bad = dataclasses.replace(
        con, f=con.f + Fraction(1, 3) * indicator(tree, chain[-1], exact=True))
    defect = martingale_identity_defect(bad)
    assert defect > 0 and defect == identity_defect_reference(bad.f, chain,
                                                              spec)


@settings(max_examples=40, deadline=None)
@given(tree=st.one_of(split_trees(exact=True),
                      st.integers(0, 8).map(build_dyadic)),
       leaf=st.integers(0, 10 ** 6))
def test_chain_values_are_the_exact_chain_function_in_floats(tree, leaf):
    """With the constant weight on a rational tree, the float row is the
    exact chain function's values_array, bit for bit."""
    chain = chain_to_root(tree, tree.leaves[leaf % tree.leaf_count])
    f = extremal_chain_function(tree, chain, one()).f
    row = chain_values(tree, chain, one())
    assert f.has_exact_values and row.dtype == np.float64
    assert np.array_equal(row.view(np.int64), f.values_array.view(np.int64))


def lipschitz_reference(f, lip, composed):
    """(worst margin, witness, worst ratio, atoms checked) of
    lipschitz_compose_check, atom by atom in level order."""
    block = np.stack([composed.values_array, f.values_array])
    margin, witness, ratio, atoms = -math.inf, None, 0.0, 0
    for n, ((lhs, rhs), _) in enumerate(norms._level_cints(f.tree, block, 1)):
        for j, (a, b) in enumerate(zip(lhs.tolist(), rhs.tolist())):
            atoms += 1
            if a - 2.0 * lip * b > margin:
                margin, witness = a - 2.0 * lip * b, [n, j]
            if b > 1e-15:
                ratio = max(ratio, a / b)
    return margin, witness, ratio, atoms


@settings(max_examples=60, deadline=None)
@given(tree=split_trees(), data=st.data(),
       lip=st.sampled_from([0.5, 1.0, 2.0]),
       kind=st.sampled_from(["sin", "abs", "scaled", "unrelated"]))
def test_lipschitz_check_matches_scalar_loop(tree, data, lip, kind):
    # few distinct values make atoms with equal margins, so the witness
    # is the first of them in level order
    values = data.draw(st.lists(st.integers(-2, 2), min_size=tree.leaf_count,
                                max_size=tree.leaf_count))
    f = LeafFunction.from_float_array(tree, np.array(values, dtype=float))
    composed = {"sin": lambda: f.apply(math.sin),
                "abs": lambda: f.apply(abs),
                "scaled": lambda: f * lip,
                "unrelated": lambda: LeafFunction.from_float_array(
                    tree, np.array(values[::-1], dtype=float) ** 2)}[kind]()
    check = lipschitz_compose_check(f, lip, composed).checks[0]
    margin, witness, ratio, atoms = lipschitz_reference(f, lip, composed)
    assert check.measured["worst_margin"] == margin
    assert check.witness == witness
    assert check.measured["worst_ratio"] == ratio
    assert check.measured["atoms_checked"] == atoms
    assert check.passed == (margin <= INEQ_SLACK)


@st.composite
def exact_functions(draw):
    """A rational function on an exact split tree.  Small denominators
    make tied atoms common and large ones rare; denominators above 2**64
    make the integer numerators outgrow machine words."""
    tree = draw(split_trees(exact=True))
    den = draw(st.sampled_from([1, 3, 50, "huge"]))
    if den == "huge":
        value = st.builds(lambda k, j: Fraction(k, 2 ** 64 + j),
                          st.integers(-2 ** 66, 2 ** 66), st.integers(1, 9))
    else:
        value = st.fractions(min_value=-2, max_value=2, max_denominator=den)
    return LeafFunction(tree, draw(st.lists(value, min_size=tree.leaf_count,
                                            max_size=tree.leaf_count)))


# Integers next to 3**-700 put every numerator over E = 3**700, so the
# ratios I_B / S_B**2 overflow a float and the exact comparison alone
# decides.  Level 1's first two atoms differ by 3**-700 / 2.
TINY = Fraction(1, 3 ** 700)
TINY_TREE = build_from_spec({
    "fractions": ["1/3", "1/3", "1/3"],
    "children": [{"fractions": ["1/2", "1/2"]}, {"fractions": ["1/2", "1/2"]},
                 {"fractions": ["1/4", "3/4"]}]})


@settings(max_examples=40, deadline=None)
@given(f=exact_functions())
@example(f=LeafFunction(TINY_TREE, [1, TINY, 0, 1, 1, 0]))
def test_exact_scan_matches_central_integral_definition(f):
    tree, values = f.tree, f.values
    sem, witness, per_level, _ = oscillation_scan(f, 1, one())
    oscillations = [(n, B.index,
                     central_p_integral(f, B, n, 1) / B.measure)
                    for n in range(tree.depth + 1) for B in tree.atoms(n)]
    top = max(v for _, _, v in oscillations)
    assert isinstance(sem, Fraction) and sem == top
    assert all(isinstance(v, Fraction) for v in per_level)
    assert list(per_level) == [max(v for m, _, v in oscillations if m == n)
                               for n in range(tree.depth + 1)]
    # the witness is the first atom in (level, index) order attaining the sup
    assert witness == next((n, i) for n, i, v in oscillations if v == top)
    mean = sum(v * leaf.measure for v, leaf in zip(values, tree.leaves))
    norm = campanato_norm(f, 1, one())
    assert isinstance(norm.value, Fraction) and norm.mean_abs == abs(mean)
    assert norm.value == sem + abs(mean)
    if max(Fraction(v).denominator for v in values) > 50:
        return  # distinct values this fine can round to one float
    flt, _, _, _ = oscillation_scan(f, 1, one(), exact=False)
    if top != 0:
        assert rel(flt, float(top)) <= TOL
    else:
        # f is constant; float averages over non-dyadic measures round, so
        # the float sup is small on the scale of f, not relatively small
        assert flt <= TOL * float(max(abs(v) for v in values))


def test_exact_fb_over_a_denominator_beyond_int64():
    # u is small, but E = 3**700 is far beyond int64: the fb quotients
    # |T_B| / (E S_B) must be formed in Python ints
    f = LeafFunction(build_dyadic(3), [TINY] + [0] * 7)
    scan = oscillation_scan(f, 1, one(), want_fb=True)
    sup, witness, per_level, fb = scan
    assert witness == (2, 0) and fb == 0.0
    assert sup == TINY / 2
    assert per_level == tuple(TINY * Fraction(x) for x in
                              ("7/32", "3/8", "1/2", "0"))
    assert scan.mean == TINY / 8


def test_machine_ints_bound():
    a = np.array([-(2 ** 62 - 1), 0, 2 ** 62 - 1], dtype=object)
    low = _machine_ints(a, 2 ** 62 - 1)
    assert low.dtype == np.int64 and low is not a
    assert low.tolist() == a.tolist()
    assert _machine_ints(a, 2 ** 62) is a
    assert _machine_ints(low, 2 ** 62) is low


def _halves(depth):
    return None if depth == 0 else {
        "fractions": ["1/2", "1/2"],
        "children": [_halves(depth - 1), _halves(depth - 1)]}


def _is_python_fraction(x):
    return (isinstance(x, Fraction) and type(x.numerator) is int
            and type(x.denominator) is int)


def _exact_level_paths(monkeypatch):
    """A list that each exact scan fills with the way each of its levels
    ran: "int64", "ranked" (int64 deviations, floats ranking the atoms)
    or "python"."""
    paths = []
    machine_ints, ranked_max = norms._machine_ints, norms._ranked_max

    def machine(a, bound):  # called once per level, on the S_B
        out = machine_ints(a, bound)
        paths.append("python" if out.dtype == object else "int64")
        return out

    def ranked(*args):
        paths[-1] = "ranked"
        return ranked_max(*args)

    monkeypatch.setattr(norms, "_machine_ints", machine)
    monkeypatch.setattr(norms, "_ranked_max", ranked)
    return paths


def _check_exact_scan(f):
    """oscillation_scan's per-level sups, witness and mean against
    central_p_integral, all Fractions of Python ints."""
    tree = f.tree
    scan = oscillation_scan(f, 1, one())
    sem, witness, per_level, _ = scan
    oscillations = [(n, B.index, central_p_integral(f, B, n, 1) / B.measure)
                    for n in range(tree.depth + 1) for B in tree.atoms(n)]
    assert list(per_level) == [
        max(v for m, _, v in oscillations if m == n)
        for n in range(tree.depth + 1)]
    assert sem == max(per_level)
    assert witness == next((n, i) for n, i, v in oscillations if v == sem)
    assert scan.mean == sum(v * leaf.measure
                            for v, leaf in zip(f.values, tree.leaves))
    assert all(_is_python_fraction(x) for x in (sem, scan.mean, *per_level))
    return scan


def test_exact_scan_with_python_and_int64_levels(monkeypatch):
    # A 1/99991 split over five levels of halves.  With |u| up to 10**6,
    # 2 max|u| max S_B**2 is above 2**62 on levels 0-2 and below it on
    # 3-5, while 2 max|u| max S_B stays below: levels 0-2 rank their atoms
    # by floats and 3-5 run in int64.  With |u| up to 10**13 the
    # deviations of levels 0-4 exceed int64, so they sum Python ints.
    tree = build_from_spec({"fractions": ["1/99991", "99990/99991"],
                            "children": [_halves(5), _halves(5)]})
    paths = _exact_level_paths(monkeypatch)
    rng = np.random.default_rng(5)
    for top, want in ((10 ** 6, ["ranked"] * 3 + ["int64"] * 3),
                      (10 ** 13, ["python"] * 5 + ["ranked"])):
        for den in (1, 7):
            values = [Fraction(int(k), den) for k in
                      rng.integers(-top, top + 1, tree.leaf_count)]
            paths.clear()
            _check_exact_scan(LeafFunction(tree, values))
            assert paths == want


def test_exact_scan_with_int64_leaves_above_2_63(monkeypatch):
    # Every leaf numerator fits in int64, but their sum D = 2^64 - 59 does
    # not, so the root's S_B must not be an int64 sum.
    D = 2 ** 64 - 59
    third = D // 3
    tree = build_from_spec({"fractions": [f"{third}/{D}", f"{third}/{D}",
                                          f"{D - 2 * third}/{D}"]})
    assert tree.numerator_arrays()[1] == D
    paths = _exact_level_paths(monkeypatch)
    _check_exact_scan(LeafFunction(tree, [3, -5, Fraction(7, 3)]))
    assert paths == ["python"]


def test_exact_scan_ranked_tie_keeps_the_first_atom(monkeypatch):
    # Level 1 holds two atoms with the same leaf values in other orders,
    # so I_B / S_B**2 is exactly equal on both; the float sums add the
    # terms in other orders, and atom 1's rounds below atom 2's.  The
    # root and level 2 oscillate less.
    tree = build_from_spec({
        "fractions": ["1/99991", "49995/99991", "49995/99991"],
        "children": [None, _halves(2), _halves(2)]})
    m, A, c, d = 10 ** 9, 3 * 10 ** 8 + 1, 777, 123456789
    values = [m, m - A + d, m - A - d, m + A + c, m + A - c,
              m + A + c, m + A - c, m - A + d, m - A - d]
    paths = _exact_level_paths(monkeypatch)
    sem, witness, _, _ = _check_exact_scan(LeafFunction(tree, values))
    assert paths == ["ranked"] * 3
    assert witness == (1, 1) and sem == A


# campanato_norm(f, 1, one()) of the exact split-tree function that the
# deep-norms benchmark builds for seeds 1-3, as the scan on Python ints
# gave it before the ranked levels.
DEEP_NORMS_EXACT = {1: Fraction("648004754455/644972544"),
                    2: Fraction("3609816138451/3869835264"),
                    3: Fraction("7197011945/7962624")}


@pytest.mark.parametrize("seed", sorted(DEEP_NORMS_EXACT))
def test_exact_scan_reproduces_deep_norms_split_trees(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    bench = workloads.DeepNorms
    rng = np.random.default_rng(seed)  # the draws of DeepNorms.setup
    _, shape = workloads.split_tree(rng, bench.SPLIT_DEPTH, exact=False)
    for s in (workloads.ref.dyadic_shape(bench.DEPTH), shape):
        workloads.martingale_values(s, rng)
    spec, shape = workloads.split_tree(rng, bench.EXACT_SPLIT_DEPTH,
                                       exact=True)
    rng.integers(-1000, 1001, 2 ** bench.EXACT_DEPTH)
    values = rng.integers(-1000, 1001, shape.leaf_count).tolist()
    f = LeafFunction(build_from_spec(spec), values)
    paths = _exact_level_paths(monkeypatch)
    sem, _, _, _ = scan = _check_exact_scan(f)
    assert "ranked" in paths
    assert sem + abs(scan.mean) == DEEP_NORMS_EXACT[seed] \
        == workloads.ref.exact_norm(shape, values)


def test_equal_measure_ancestor_gives_zero_oscillation():
    # the root persists once, so chi of the level-1 atom is the constant 1
    tree = build_from_spec({"persist": {"fractions": ["1/3", "2/3"]}})
    g = LeafFunction.from_float_array(tree, np.array([0.5, -2.0]))
    labels, norm_f, norm_fg, _ = _family_norms(g, 1, one(),
                                               [("chi", INDICATORS)])
    assert list(labels) == ["chi:0,0", "chi:1,0", "chi:2,0", "chi:2,1"]
    assert norm_f[1] == 1.0
    assert math.isclose(norm_fg[1], float(campanato_norm(g, 1, one()).value),
                        rel_tol=TOL)


def per_pair_indicator_norms(g, p, spec, want_fb=False):
    """_indicator_norms as one leaf pass per pair (level m of B, level n
    of its ancestor A), for all atoms of level m together: the loop that
    the blocked pass stacks, and the oracle of its bits."""
    tree, gv = g.tree, g.values_array
    leafm = tree.leaf_measures_f()
    phis = phi_level_values(tree, spec)
    stars = phi_star_level_values(tree, spec) if want_fb else None
    sub_osc, sub_inv = _subtree_tables(g, p, spec, want_fb)
    w = gv * leafm
    dev = np.empty_like(w)
    per_level = []
    for m in range(tree.depth + 1):
        starts, _, meas = tree.level_arrays(m)
        S = tree.atom_sums(m, w)
        sem_f = np.zeros(len(meas))
        sem_fg = sub_osc[m].copy()
        fb = sub_inv[m].copy() if want_fb else None
        for n in range(m):
            a_starts, _, a_meas = tree.level_arrays(n)
            anc = np.searchsorted(a_starts, starts, side="right") - 1
            PA = a_meas[anc]
            r = meas / PA
            avg = S / PA
            np.abs(tree.spread(m, avg, np.subtract, gv, out=dev), out=dev)
            dev **= p
            dev *= leafm
            chi = ((meas * (1.0 - r) ** p + (PA - meas) * r ** p)
                   / PA) ** (1.0 / p)
            cint = tree.atom_sums(m, dev) + (PA - meas) * np.abs(avg) ** p
            prod = (cint / PA) ** (1.0 / p)
            np.maximum(sem_f, chi / phis[n][anc], out=sem_f)
            np.maximum(sem_fg, prod / phis[n][anc], out=sem_fg)
            if want_fb:
                np.maximum(fb, r / stars[n][anc], out=fb)
        per_level.append((sem_f + meas, sem_fg + np.abs(S), fb))
    norm_f, norm_fg, fb = zip(*per_level)
    return (np.concatenate(norm_f), np.concatenate(norm_fg),
            np.concatenate(fb) if want_fb else None)


@pytest.mark.parametrize("kind", sorted(BIT_TREES))
def test_indicator_blocks_match_the_per_pair_loop(kind, monkeypatch):
    # the same float operations in the same order, so the same bits, for
    # blocks of the default size, one ancestor level each, and all of them
    tree = BIT_TREES[kind]()
    g = multiplier_for(tree, one(), "random", 3)
    for weight, p, want_fb in itertools.product(
            sorted(WEIGHTS), (1, 1.5, 2, 3), (False, True)):
        spec = WEIGHTS[weight]
        want = per_pair_indicator_norms(g, p, spec, want_fb)
        for elements in (norms.BLOCK_ELEMENTS, 1, 1 << 20):
            monkeypatch.setattr(multiplier, "BLOCK_ELEMENTS", elements)
            got = _indicator_norms(g, p, spec, want_fb)
            assert (got[2] is None) == (not want_fb)
            for a, b in zip(got[:2 + want_fb], want):
                assert np.array_equal(_bits(a), _bits(b)), (weight, p,
                                                            elements)


def test_indicator_labels_read_on_demand():
    tree = build_from_spec({"fractions": ["1/4", "3/4"], "children": [
        "persist", {"fractions": ["1/3", "1/3", "1/3"]}]})
    g = multiplier_for(tree, psi(), "random", 2)
    members = [("const:1", np.ones(tree.leaf_count)), ("chi", INDICATORS),
               ("rand:0", np.zeros(tree.leaf_count)),
               ("chi", INDICATORS)]
    labels = _family_norms(g, 1.5, psi(), members)[0]
    block = [f"chi:{n},{i}" for n in range(tree.depth + 1)
             for i in range(len(tree.level_arrays(n)[2]))]
    want = ["const:1"] + block + ["rand:0"] + block
    assert len(labels) == len(want) == 2 * tree.offsets[-1] + 2
    assert [labels[k] for k in range(len(want))] == want
    assert [labels[k] for k in range(-len(want), 0)] == want
    assert list(labels) == want
    # slices read as lists do, across and within the two blocks
    for part in (slice(2, 9), slice(None, None, -1), slice(5, 5),
                 slice(-3, None), slice(1, None, 3), slice(9, 2, -2)):
        assert labels[part] == want[part], part
    with pytest.raises(IndexError):
        labels[len(want)]
    # the zero function is a dense member of zero norm: skipped, by label
    with pytest.warns(UserWarning, match="'rand:0' has zero norm"):
        L, witness, _ = multiplier._lower_bound(
            *_family_norms(g, 1.5, psi(), members)[:3])
    assert witness in want and witness != "rand:0"


# The op_witness of the certificate of sin_h along leaf 0 of a dyadic tree
# at p = 1 and weight one (the benchmark's), for seeds 1 to 10, as read
# when every indicator label was formatted up front.
CERTIFICATE_WITNESSES = {
    10: ["chi:6,1", "rand:27", "chain:leaf=1", "chi:6,1", "chain:leaf=1",
         "chain:leaf=8", "chain:leaf=5", "chi:6,1", "chain:leaf=5",
         "chain:leaf=7"],
    12: ["chi:6,1", "chi:6,1", "chain:leaf=6", "chi:6,1", "chain:leaf=4",
         "chain:leaf=36", "chain:leaf=21", "chi:6,1", "chain:leaf=22",
         "chain:leaf=32"]}


@pytest.mark.parametrize("depth", sorted(CERTIFICATE_WITNESSES))
def test_certificate_witnesses_hold(depth):
    tree = build_dyadic(depth)
    g = sin_h_multiplier(tree, chain_to_root(tree, tree.leaves[0]), one())
    assert [theorem1_certificate(g, 1, one(), sample_chains=64, randoms=32,
                                 seed=seed).op_witness
            for seed in range(1, 11)] == CERTIFICATE_WITNESSES[depth]


@pytest.mark.parametrize("kind", sorted(BIT_TREES))
def test_one_reduction_of_g_keeps_the_scans_bits(kind):
    # T's seminorm reads one leaf reduction of g with the bits of the
    # quotient-weight scan, and the constant 1 = chi_Omega is the indicator
    # block's place 0: chi:0,0's bits, norm 1 exactly, and within rounding
    # of scan_block's rows of ones and of g (the product 1 g)
    tree = BIT_TREES[kind]()
    g = multiplier_for(tree, one(), "random", 3)
    rows = [np.ones(tree.leaf_count), g.values_array]
    for weight, p in itertools.product(sorted(WEIGHTS), (1, 1.5, 2, 3)):
        spec = WEIGHTS[weight]
        cert = theorem1_certificate(g, p, spec, sample_chains=4, randoms=2,
                                    seed=1)
        want = campanato_seminorm(g, p, quotient_phi(spec), exact=False)
        assert np.array_equal(_bits(np.array([cert.seminorm_quotient])),
                              _bits(np.array([want.value]))), (weight, p)
        labels, norm_f, norm_fg, fb = _family_norms(
            g, p, spec, [("const:1", CONSTANT), ("chi", INDICATORS)],
            want_fb=True)
        assert labels[:2] == ["const:1", "chi:0,0"]
        got = np.array([norm_f, norm_fg, fb])
        assert np.array_equal(_bits(got[:, 0]), _bits(got[:, 1])), (weight, p)
        assert norm_f[0] == 1.0
        sups, _, mean, fbs = norms.scan_block(tree, rows, p, spec, True)
        norm = sups.max(axis=1) + np.abs(mean)
        assert got[:, 0] == pytest.approx([norm[0], norm[1], fbs[0]],
                                          rel=1e-12, abs=0), (weight, p)


# -- the chain path ---------------------------------------------------------


def dense_chain_stats(g, p, spec, paths):
    """(norm f, norm f g, fb) of each chain function from scan_block over
    its _path_values row and that row times g."""
    rows = []
    for path in paths:
        row = _path_values(g.tree, path, spec)
        rows += [row, row * g.values_array]
    sups, _, mean, fb = norms.scan_block(g.tree, rows, p, spec, want_fb=True)
    norm = sups.max(axis=1) + np.abs(mean)
    return norm[0::2], norm[1::2], fb[0::2]


def every_chain(tree):
    return [ChainPath(tree.ancestors(tree.depth, j))
            for j in range(tree.leaf_count)]


@settings(max_examples=60, deadline=None)
@given(tree=split_trees(), p=st.sampled_from([1, 1.5, 2]),
       weight=st.sampled_from(sorted(WEIGHTS)),
       g_kind=st.sampled_from(["sin_h", "random"]),
       seed=st.integers(0, 2 ** 16))
@example(tree=build_from_spec({"persist": {"fractions": ["1/3", "2/3"]}}),
         p=1.5, weight="psi", g_kind="random", seed=0)
@example(tree=build_from_spec({"fractions": [0.3, 0.7], "children": [
    {"persist": {"fractions": [0.5, 0.5]}}, {"fractions": [0.2, 0.3, 0.5]}]}),
    p=2, weight="powerlog(0.3)", g_kind="random", seed=1)
def test_chain_norms_match_dense_scans(tree, p, weight, g_kind, seed):
    # every leaf's chain, so that each persistence step lies on a chain
    spec = WEIGHTS[weight]
    g = multiplier_for(tree, spec, g_kind, seed)
    paths = every_chain(tree)
    got = _chain_norms(g, p, spec, paths, want_fb=True)
    want = dense_chain_stats(g, p, spec, paths)
    for name, a, b in zip(("norm f", "norm fg", "fb"), got, want):
        for k, path in enumerate(paths):
            assert rel(a[k], b[k]) <= TOL, (name, path, a[k], b[k])


def test_chain_norms_do_not_depend_on_the_blocks(monkeypatch):
    tree = build_from_spec({"fractions": ["1/4", "3/4"], "children": [
        "persist", {"fractions": ["1/3", "1/3", "1/3"], "children": [
            {"fractions": ["1/2", "1/2"]}, None, "persist"]}]})
    g = multiplier_for(tree, psi(), "random", 5)
    paths = every_chain(tree)
    whole = _chain_norms(g, 1.5, psi(), paths, want_fb=True)
    monkeypatch.setattr(multiplier, "BLOCK_ELEMENTS", 1)  # a chain a block
    for a, b in zip(_chain_norms(g, 1.5, psi(), paths, want_fb=True), whole):
        assert a.tolist() == b.tolist()
    assert _chain_norms(g, 1.5, psi(), paths)[2] is None


def test_sibling_max_examples():
    # level 1: A, B, C; level 2: A persists (an only child), B and C split
    tree = build_from_spec({"fractions": ["1/4", "1/4", "1/2"], "children": [
        "persist", {"fractions": ["1/2", "1/2"]},
        {"fractions": ["1/3", "2/3"]}]})
    # B and C tie for the top of level 1; C's children tie on level 2
    sib = _sibling_max(tree, [np.array([9.0]), np.array([3.0, 5.0, 5.0]),
                              np.array([8.0, 2.0, 7.0, 4.0, 4.0])])
    assert sib[0].tolist() == [0.0]
    assert sib[1].tolist() == [5.0, 5.0, 5.0]
    assert sib[2].tolist() == [0.0, 7.0, 2.0, 4.0, 4.0]
    # one top per family, first and last: each child sees the others' max
    sib = _sibling_max(tree, [np.array([0.0]), np.array([6.0, 1.0, 2.0]),
                              np.array([0.5, 3.0, 1.0, 0.0, 2.5])])
    assert sib[1].tolist() == [2.0, 6.0, 6.0]
    assert sib[2].tolist() == [0.0, 1.0, 3.0, 2.5, 0.0]
