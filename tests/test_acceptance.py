"""Acceptance criteria: one test per criterion, each printing a pass/fail
line with its measured quantities.

Derived thresholds were confirmed against the stated independent oracles
(inline below) before being frozen into the assertions; the certificate
band in criterion 6 was confirmed by a calibration run of the same
configuration and then frozen.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from campanato_lab import (LeafFunction, atom_average, build_dyadic,
                           build_from_spec, campanato_norm,
                           campanato_seminorm, chain_through_leaf,
                           check_product_estimate, chi_norm_closed_form,
                           classify_regime, conditional_expectation,
                           conditional_multiplier_check, default_grid,
                           dyadic_h_closed_form, extremal_chain_function,
                           f_norm_exact, h_function, indicator,
                           int_condition_constant, linf_norm,
                           lipschitz_compose_check, one, phi_star, power, psi,
                           random_functions, sin_h_multiplier,
                           theorem1_certificate)
from campanato_lab.norms import oscillation_scan

LOG2 = math.log(2.0)


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def dyadic8():
    return build_dyadic(8)


@pytest.fixture(scope="module")
def dyadic10():
    return build_dyadic(10)


@pytest.fixture(scope="module")
def dyadic12():
    return build_dyadic(12)


def random_split_tree(seed, depth=6):
    rng = np.random.default_rng(seed)

    def node(level):
        if level == depth:
            return None
        k = int(rng.integers(1, 4))
        if k == 1:
            return {"persist": node(level + 1)}
        weights = [int(w) for w in rng.integers(1, 6, k)]
        total = sum(weights)
        return {"fractions": [f"{w}/{total}" for w in weights],
                "children": [node(level + 1) for _ in range(k)]}

    spec = node(0)
    if spec is None or "persist" in spec:
        spec = {"fractions": ["1/2", "1/2"],
                "children": [node(1), node(1)]}
    return build_from_spec(spec)


def test_criterion_01_indicator_closed_form_equivalence(dyadic10):
    t0 = time.monotonic()
    trees = [dyadic10] + [random_split_tree(seed) for seed in range(5)]
    specs = (one(), psi(), power(0.3))
    # 1e-12 absolute floor: constant indicators have exact closed form 0
    # while the float sup scan carries summation dust of order 1e-16
    floor = 1e-12
    worst_rel = 0.0
    violations = 0
    atoms_checked = 0
    for tree in trees:
        for level in tree.levels:
            for B in level:
                for spec in specs:
                    for p in (1, 2):
                        closed = float(chi_norm_closed_form(B, p, spec).value)
                        full = float(campanato_seminorm(
                            indicator(tree, B), p, spec, exact=False).value)
                        scale = max(abs(closed), abs(full))
                        diff = abs(closed - full)
                        if diff > 1e-10 * scale + floor:
                            violations += 1
                        if scale > 1e-6:
                            worst_rel = max(worst_rel, diff / scale)
                        atoms_checked += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and worst_rel <= 1e-10 and elapsed < 30.0
    report(1, ok, f"closed form vs full sup on {atoms_checked} atom cases, "
                  f"worst rel err {worst_rel:.3e} (tol 1e-10, abs floor "
                  f"{floor:g}), {elapsed:.1f}s (< 30s)")


def test_criterion_02_atom_average_growth_bound(dyadic10):
    t0 = time.monotonic()
    tree = dyadic10
    # independent chain-telescoping oracle: one averaging step changes the
    # atom mean by at most (parent/child measure ratio) * seminorm, so
    # |f_B| <= (1 + 2n) * norm at level n and the level-wise ratio cap is
    # (1 + 2n) / (1 + n log 2) < 3 at every depth-10 level
    telescope = max((1 + 2 * n) / (1 + n * LOG2) for n in range(11))
    assert telescope < 3.0
    worst = 0.0
    for f in random_functions(tree, 200, seed=404):
        sem, _, _, fb = oscillation_scan(f, 1, one(), want_fb=True,
                                         exact=False)
        norm = float(sem) + abs(float(np.dot(f.values_array,
                                             tree.leaf_measures_f())))
        worst = max(worst, fb / norm)
    elapsed = time.monotonic() - t0
    ok = worst <= 3.0 and worst <= telescope and elapsed < 60.0
    report(2, ok, f"max |f_B| / (phi_star * norm) = {worst:.4f} over 200 "
                  f"random f (<= 3, oracle cap {telescope:.4f}), "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_03_indicator_lemma_bound_exact(dyadic12):
    worst = Fraction(0)
    atoms = 0
    for level in dyadic12.levels:
        for B in level:
            norm = chi_norm_closed_form(B, 1, one()).value + B.measure
            worst = max(worst, norm)
            atoms += 1
    ok = worst <= 1  # exact rational comparison
    report(3, ok, f"max over {atoms} atoms of norm(chi_B) * phi(P(B)) = "
                  f"{worst} <= 1, exact arithmetic")


def test_criterion_04_extremal_chain(dyadic12):
    tree = dyadic12
    chain = chain_through_leaf(tree, 0)
    con = extremal_chain_function(tree, chain, one())
    # geometric-series oracle behind the frozen thresholds:
    # sum_{j<m} |j-1| 2^-(j+1) + m 2^-m == 1 exactly for every m >= 1
    for m in range(1, 13):
        total = sum(abs(j - 1) * Fraction(1, 2 ** (j + 1)) for j in range(m))
        assert total + m * Fraction(1, 2 ** m) == 1
    averages_ok = all(atom_average(con.f, B) == 1 + n
                      for n, B in enumerate(chain))
    sem = campanato_seminorm(con.f, 1, one()).value
    norm = campanato_norm(con.f, 1, one()).value
    ratios = [float(atom_average(con.f, B)) / phi_star(one(), 2.0 ** -n)
              for n, B in enumerate(chain)]
    band_ok = all(1.0 <= r <= 1.4428 for r in ratios)
    ok = averages_ok and sem <= 2 and norm <= 3 and band_ok
    report(4, ok, f"averages exact 1+n: {averages_ok}; seminorm {sem} <= 2; "
                  f"norm {norm} <= 3; ratio band [{min(ratios):.4f}, "
                  f"{max(ratios):.4f}] in [1, 1.4428]")


def test_criterion_05_product_estimate(dyadic8):
    tree = dyadic8
    fs = random_functions(tree, 100, seed=505)
    gs = random_functions(tree, 100, seed=606)
    failures = 0
    cases = 0
    for spec in (one(), psi()):
        for p in (1, 2):
            for f, g in zip(fs, gs):
                cases += 1
                if not check_product_estimate(f, g, p, spec).passed:
                    failures += 1
    ok = failures == 0
    report(5, ok, f"product estimate held in {cases - failures}/{cases} "
                  f"random cases (slack 1e-10)")


def test_criterion_06_multiplier_certificate(dyadic12):
    t0 = time.monotonic()
    tree = dyadic12
    g = sin_h_multiplier(tree, chain_through_leaf(tree, 0), one())
    cert = theorem1_certificate(g, 1, one(), sample_chains=64, seed=2026)
    elapsed = time.monotonic() - t0
    # band endpoints [1, 50] confirmed by the calibration run of this
    # exact configuration (measured ratio 1.745) and frozen here
    ok = (cert.op_lower > 0 and 1.0 <= cert.ratio <= 50.0
          and cert.upper_violations == 0 and cert.status == "ok"
          and elapsed < 300.0)
    report(6, ok, f"L = {cert.op_lower!r} > 0 ({cert.op_witness}), T = "
                  f"{cert.T!r}, T/L = {cert.ratio:.4f} in [1, 50], "
                  f"upper-bound violations "
                  f"{cert.upper_violations}/{cert.upper_checked} "
                  f"(C_fb = {cert.c_fb!r}, worst margin "
                  f"{cert.upper_worst_margin!r}), {elapsed:.1f}s (< 300s)")
    # the certificate's bits, pinned: a change here is a change of the
    # computation, to be made on purpose
    assert (cert.T, cert.op_lower, cert.op_witness, cert.c_fb,
            cert.upper_worst_margin, cert.family_size,
            cert.seminorm_quotient) == (
        1.8416282750446862, 1.0552451157488523, "chain:leaf=52", 1.0,
        -1.4206442256331426, 8288, 0.8433547696143348)


def test_criterion_07_dyadic_h_closed_form():
    sups = []
    worst = 0.0
    for depth in (4, 8, 16):
        closed = dyadic_h_closed_form(depth, 0)
        summed = h_function(closed.tree, chain_through_leaf(closed.tree, 0),
                            psi())
        diff = max(abs(a - b) for a, b in zip(closed.values, summed.values))
        worst = max(worst, diff)
        sups.append(float(linf_norm(closed)))
    ok = worst <= 1e-12 and sups[0] < sups[1] < sups[2]
    report(7, ok, f"closed form matches increment sum to {worst:.3e} "
                  f"(<= 1e-12); sup |h| grows: "
                  f"{sups[0]:.4f} < {sups[1]:.4f} < {sups[2]:.4f}")


def test_criterion_08_lipschitz_factor_two(dyadic8):
    failures = 0
    for f in random_functions(dyadic8, 100, seed=707):
        if not lipschitz_compose_check(f, 1.0, f.apply(math.sin)).passed:
            failures += 1
    ok = failures == 0
    report(8, ok, f"factor-2 bound held on every atom for sin of "
                  f"{100 - failures}/100 random functions")


def test_criterion_09_truncation_monotone_and_theorem2(dyadic8):
    tree6 = build_dyadic(6)
    rng = np.random.default_rng(909)
    worst_gap = Fraction(0)
    equality_ok = True
    for _ in range(100):
        f = LeafFunction(tree6, [Fraction(int(k), 256)
                                 for k in rng.integers(-512, 512,
                                                       tree6.leaf_count)])
        sem = campanato_seminorm(f, 1, one()).value
        for n in range(tree6.depth + 1):
            sem_n = campanato_seminorm(conditional_expectation(f, n),
                                       1, one()).value
            worst_gap = max(worst_gap, sem_n - sem)
            if n == tree6.depth and sem_n != sem:
                equality_ok = False
    monotone_ok = worst_gap <= 0  # exact rational comparison

    g = sin_h_multiplier(dyadic8, chain_through_leaf(dyadic8, 0), one())
    rep = conditional_multiplier_check(g, 1, one(), chains=4, randoms=8,
                                       seed=11)
    forward = next(c for c in rep.checks
                   if c.name == "truncated_lower_bounds_dominated")
    ok = monotone_ok and equality_ok and forward.passed and rep.passed
    report(9, ok, f"truncation seminorms never increased (exact, 100 f) and "
                  f"equal at full depth; conditioned lower bounds margin "
                  f"{forward.measured['worst_margin']:.3e} <= 1e-10")


def test_criterion_10_weight_closed_forms():
    closed = {
        "one": lambda r: 1 + math.log(1 / r),
        "r^0.5": lambda r: 3 - 2 * math.sqrt(r),
        "r^-0.3": lambda r: 1 + (r ** -0.3 - 1) / 0.3,
    }
    specs = {"one": one(), "r^0.5": power(0.5), "r^-0.3": power(-0.3)}
    worst_star = 0.0
    for name, spec in specs.items():
        for r in (1e-6, 1e-4, 0.01, 0.25, 1.0):
            quad = phi_star(spec, r, force_quadrature=True)
            ref = closed[name](r)
            worst_star = max(worst_star, abs(quad - ref) / max(1.0, ref))
    star_ok = worst_star <= 1e-8

    grid = default_grid(k_max=20)
    worst_int = 0.0
    divergents_flagged = True
    for alpha in (-0.5, 0.0, 0.3, 1.0):
        for p in (1, 2):
            got = int_condition_constant(power(alpha), p, grid,
                                         force_quadrature=True)
            denom = alpha * p + 1
            if denom <= 0:
                divergents_flagged &= (got == math.inf)
            else:
                worst_int = max(worst_int, abs(got - 1 / denom))
    int_ok = worst_int <= 1e-6 and divergents_flagged

    g = default_grid()
    r1 = classify_regime(power(-0.3), g)
    r2 = classify_regime(power(0.5), g)
    r3 = classify_regime(one(), g)
    regime_ok = (r1.label == "phi_star~phi" and r1.sup_star_over_phi <= 4.0
                 and r2.label == "phi_star~1" and r2.sup_star <= 3.0
                 and r3.label == "neither")
    ok = star_ok and int_ok and regime_ok
    report(10, ok, f"phi_star quadrature within {worst_star:.2e} (<= 1e-8); "
                   f"growth-condition constants within {worst_int:.2e} "
                   f"(<= 1e-6, divergent case flagged); regimes "
                   f"{r1.label}/{r2.label}/{r3.label}")


def test_criterion_11_union_norm_comparison():
    tree = build_dyadic(4)
    worst_c = 0.0
    dominated = True
    for f in random_functions(tree, 50, seed=111):
        for spec in (one(), power(0.3)):
            for p in (1, 2):
                sem = float(campanato_seminorm(f, p, spec, exact=False).value)
                full = float(f_norm_exact(f, p, spec).value)
                if full < sem - 1e-12:
                    dominated = False
                if sem > 0:
                    worst_c = max(worst_c, full / sem)
    ok = dominated and worst_c <= 2.0
    report(11, ok, f"union-of-atoms norm within factor {worst_c:.6f} "
                   f"(<= 2) of the seminorm and never below it, 50 f x 4 "
                   f"combos")
