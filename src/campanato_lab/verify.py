"""Named verification suites: each one measures the constants of an
inequality or construction on a concrete tree and reports pass/fail.

The registry drives the `verify` CLI subcommand; suites are pure
functions of a VerifyContext so they can also be called from tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phi as phimod
from .constructions import (chain_through_leaf, extremal_chain_function,
                            lipschitz_compose_check,
                            martingale_identity_defect,
                            measure_chain_constants, sin_h_multiplier)
from .filtration import check_chain_gaps, is_dyadic, regularity_constant
from .functions import _indicator_row, level_projection, random_functions
from .multiplier import (check_product_estimate, conditional_multiplier_check,
                         linf_bound_check, theorem1_certificate)
from .norms import chi_norm_closed_form, scan_block
from .report import (EXACT_SLACK, REL_TOL, VerificationReport, count_check,
                     limit_check, margins, reported_check)

# Random functions per suite, sampled chains, and at most this many
# sampled atoms for the indicator suite.
RANDOM_COUNT, CHAIN_COUNT, ATOM_SAMPLE = 50, 16, 256


@dataclass
class VerifyContext:
    tree: object
    spec: object
    p: float = 1.0
    seed: int = 0


def _calibrated(ctx, name, anchor, measured, known, other=None):
    """A check of (threshold, *judged) = known in the regime where its
    derived numeric thresholds were calibrated (dyadic tree, constant
    weight, p = 1); elsewhere of other, or else the reported value."""
    if is_dyadic(ctx.tree) and ctx.spec.family == "one" and ctx.p == 1:
        threshold, *judged = known
        return limit_check(name, anchor, measured,
                           threshold + " (dyadic, constant weight, p=1)",
                           *judged)
    if other is None:
        return reported_check(name, anchor, measured)
    return limit_check(name, anchor, measured, *other)


def _rel_err(a, b):
    a, b = float(a), float(b)
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


# -- suites ---------------------------------------------------------------------


def suite_chain_gaps(ctx):
    R = regularity_constant(ctx.tree)
    rep = check_chain_gaps(ctx.tree, R)
    rep.checks.insert(0, reported_check(
        "regularity_constant", "largest parent/child measure ratio",
        {"R": float(R)}))
    return rep


def suite_indicator_norms(ctx):
    tree, spec, p = ctx.tree, ctx.spec, ctx.p
    # atoms by position k in level order, level n from the level offsets
    offsets = tree.offsets
    picks = np.arange(offsets[-1])
    if len(picks) > ATOM_SAMPLE:
        picks = np.sort(np.random.default_rng(ctx.seed).choice(
            len(picks), size=ATOM_SAMPLE, replace=False))
    levels = np.searchsorted(offsets, picks, side="right") - 1
    atoms = list(map(tree.atom, levels.tolist(),
                     (picks - offsets[levels]).tolist()))

    full = scan_block(tree, (_indicator_row(tree, B.level, B.index)
                             for B in atoms), p, spec)[0].max(axis=1)
    rels = []
    bound = 0.0
    for B, full_B in zip(atoms, full):
        closed = chi_norm_closed_form(B, p, spec)
        rels.append(_rel_err(closed.value, full_B))
        measure = tree.level_arrays(B.level)[2].item(B.index)
        norm_B = float(closed.value) + measure
        bound = max(bound, norm_B * float(phimod.eval_phi(spec, measure)))
    rel = margins(rels, slack=REL_TOL)
    return VerificationReport(suite="indicator_norms", checks=[limit_check(
        "indicator_closed_form_equivalence",
        "ancestor-chain closed form equals the full sup scan",
        {"atoms": len(atoms), "worst_rel_err": rel.worst}, "rel err <= {0}",
        rel, witness=list(atoms[rel.index].id) if rel.worst != 0 else None,
    ), _calibrated(
        ctx, "indicator_norm_bound",
        "weighted indicator norms are uniformly bounded",
        {"max_norm_times_phi": bound},
        ("<= 1", margins(bound, 1.0, EXACT_SLACK)))])


def suite_atom_average_growth(ctx):
    tree, spec, p = ctx.tree, ctx.spec, ctx.p
    family = random_functions(tree, min(RANDOM_COUNT, 32), ctx.seed)
    family.append(extremal_chain_function(
        tree, chain_through_leaf(tree, 0), spec).f)
    sups, _, mean, fb = scan_block(tree, (f.values_array for f in family), p,
                                   spec, want_fb=True)
    norm_f = sups.max(axis=1) + np.abs(mean)
    usable = norm_f > 0
    worst = float(np.max(fb[usable] / norm_f[usable], initial=0.0))
    return VerificationReport(suite="atom_average_growth", checks=[_calibrated(
        ctx, "atom_average_phistar_growth",
        "atom averages grow at most like phi_star times the norm",
        {"max_ratio": worst, "family": len(family)},
        ("<= 3", margins(worst, 3.0, 0.0)))])


def suite_extremal_chain(ctx):
    tree, spec, p = ctx.tree, ctx.spec, ctx.p
    rng = np.random.default_rng(ctx.seed)
    count = min(CHAIN_COUNT, tree.leaf_count)
    picks = sorted(int(x) for x in
                   rng.choice(tree.leaf_count, size=count, replace=False))
    cons = [extremal_chain_function(tree, chain_through_leaf(tree, j), spec)
            for j in picks]
    defect = margins([float(martingale_identity_defect(c)) for c in cons])
    upper, lower = zip(*(measure_chain_constants(c, p, spec) for c in cons))
    c1, c2 = max(0.0, *upper), min(lower)
    spread = (c1 - min(upper)) / c1 if c1 > 0 else 0.0
    tail = max(0.0, *(c.truncation_tail_scale(p) for c in cons))
    checks = [
        limit_check(
            "partial_sums_are_conditional_expectations",
            "conditioning the chain function reproduces its partial sums",
            {"chains": count, "max_defect": defect.worst}, "defect <= {0}",
            defect),
        _calibrated(
            ctx, "chain_norm_bounded",
            "chain functions have uniformly bounded norm",
            {"C1": c1, "spread": spread, "truncation_tail_scale": tail},
            ("<= 3 and spread <= 5%", margins(c1, 3.0),
             margins(spread, 0.05, 0.0))),
        _calibrated(
            ctx, "chain_average_growth",
            "chain atom averages dominate phi_star", {"C2": c2},
            (">= 1", margins(1.0, c2)),
            # c2 > 0: for floats, 0 - c2 <= -ulp(0) iff 0 < c2
            ("> 0", margins(0.0, c2, -math.ulp(0.0)))),
    ]
    return VerificationReport(suite="extremal_chain", checks=checks)


def _per_function(suite, name, anchor, count_key, reports, sides):
    """One check over a list of per-function reports: how many there are
    (under count_key), how many failed, and the worst margin of the sides
    (lhs, rhs) = sides(measured) of their first checks."""
    worst = margins(*zip(*(sides(r.checks[0].measured)
                           for r in reports))).worst
    return VerificationReport(suite=suite, checks=[count_check(
        name, anchor, {count_key: len(reports),
                       "failures": sum(not r.passed for r in reports),
                       "worst_margin": worst}, "failures")])


def suite_product_estimate(ctx):
    fs = random_functions(ctx.tree, RANDOM_COUNT, ctx.seed)
    gs = random_functions(ctx.tree, RANDOM_COUNT, ctx.seed + 1)
    return _per_function(
        "product_estimate", "product_estimate_random_pairs",
        "product functional vs product seminorm gap bound", "pairs",
        [check_product_estimate(f, g, ctx.p, ctx.spec)
         for f, g in zip(fs, gs)],
        lambda m: (m["gap"], m["bound"]))


def suite_lipschitz(ctx):
    return _per_function(
        "lipschitz_sine", "sine_composition_factor2",
        "composition with a Lipschitz map doubles mean oscillation at most",
        "functions",
        [lipschitz_compose_check(f, 1.0, f.apply(lambda v: math.sin(float(v))))
         for f in random_functions(ctx.tree, RANDOM_COUNT, ctx.seed)],
        lambda m: (m["worst_margin"], 0.0))


def suite_truncation_monotone(ctx):
    tree, spec, p = ctx.tree, ctx.spec, ctx.p
    functions = random_functions(tree, RANDOM_COUNT, ctx.seed)

    def rows():  # f, then E_0 f, ..., E_N f, for every f
        for f in functions:
            yield f.values_array
            for n in range(tree.depth + 1):
                yield level_projection(tree, n, f.values_array)

    sems = scan_block(tree, rows(), p, spec)[0].max(axis=1)
    sems = sems.reshape(len(functions), tree.depth + 2)
    growth = margins(sems[:, 1:], sems[:, :1])
    # E_N f is computed by averaging over the leaves
    eq = margins([_rel_err(sem[-1], sem[0]) for sem in sems], slack=REL_TOL)
    return VerificationReport(suite="truncation_monotone", checks=[
        limit_check(
            "truncation_never_increases_seminorm",
            "conditioned truncations have no larger seminorm",
            {"worst_margin": growth.worst}, "margin <= {0}", growth),
        limit_check(
            "deepest_truncation_equality",
            "the level-N projection has the seminorm of the function itself",
            {"max_rel_err": eq.worst}, "rel err <= {0}", eq),
    ])


def suite_conditional_multipliers(ctx):
    g = sin_h_multiplier(ctx.tree, chain_through_leaf(ctx.tree, 0), ctx.spec)
    return conditional_multiplier_check(g, ctx.p, ctx.spec, chains=4,
                                        randoms=8, seed=ctx.seed)


SUITE_REGISTRY = {
    "chain_gaps": suite_chain_gaps,
    "indicator_norms": suite_indicator_norms,
    "atom_average_growth": suite_atom_average_growth,
    "extremal_chain": suite_extremal_chain,
    "product_estimate": suite_product_estimate,
    "lipschitz_sine": suite_lipschitz,
    "truncation_monotone": suite_truncation_monotone,
    "conditional_multipliers": suite_conditional_multipliers,
}


def run_verify_suites(ctx):
    """Every suite of the registry, in order."""
    return [suite(ctx) for suite in SUITE_REGISTRY.values()]


def run_multiplier_suite(ctx, g, g_label="g"):
    """The multiplier certificate plus its supporting sup-norm checks."""
    cert = theorem1_certificate(g, ctx.p, ctx.spec, seed=ctx.seed,
                                g_label=g_label)
    reports = [linf_bound_check(g, ctx.p, ctx.spec),
               conditional_multiplier_check(g, ctx.p, ctx.spec, seed=ctx.seed)]
    return cert, reports
