"""The verdict rule of report.py, and the check texts that no report hash
covers."""

import math
from pathlib import Path

import numpy as np
import pytest

from campanato_lab import build_dyadic, one, psi, random_functions
from campanato_lab.cli import load_config
from campanato_lab.constructions import lipschitz_compose_check
from campanato_lab.multiplier import check_product_estimate
from campanato_lab.report import (EXACT_SLACK, INEQ_SLACK, REL_TOL,
                                  count_check, limit_check, margins,
                                  reported_check)
from campanato_lab.verify import VerifyContext, run_verify_suites

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_slack_constants():
    assert (INEQ_SLACK, EXACT_SLACK, REL_TOL) == (1e-10, 1e-12, 1e-10)


@pytest.mark.parametrize("slack", [INEQ_SLACK, EXACT_SLACK, 0.0])
def test_margin_equal_to_the_slack_passes_and_the_next_float_fails(slack):
    assert margins(slack, 0.0, slack).passed
    above = math.nextafter(slack, math.inf)
    m = margins(above, 0.0, slack)
    assert not m.passed and m.failures == 1 and m.worst == above


def test_margins_are_formed_before_they_meet_the_slack():
    # 1 + 1e-10 rounds to a float whose margin over 1 exceeds 1e-10, so
    # lhs <= rhs + slack would hold where lhs - rhs <= slack does not
    lhs = 1.0 + INEQ_SLACK
    assert lhs <= 1.0 + INEQ_SLACK and lhs - 1.0 > INEQ_SLACK
    assert not margins(lhs, 1.0).passed
    assert margins(math.nextafter(lhs, 0.0), 1.0).passed


def test_scale_multiplies_the_slack_above_one():
    assert margins(2e-12, 0.0, EXACT_SLACK, scale=2.0).passed
    assert not margins(2.5e-12, 0.0, EXACT_SLACK, scale=2.0).passed
    assert not margins(2e-12, 0.0, EXACT_SLACK, scale=0.5).passed


@pytest.mark.parametrize("at", [0, 2, 4])
def test_nan_margin_fails_and_is_the_worst_wherever_it_sits(at):
    # NaN before and after the finite worst margin 3 at index 3
    lhs = np.array([-1.0, -3.0, -2.0, 3.0, -0.5])
    lhs[at] = math.nan
    m = margins(lhs)
    assert not m.passed and math.isnan(m.worst) and m.index == at
    assert m.failures == 2
    # the same, with NaN on the right-hand side
    rhs = np.zeros(5)
    rhs[at] = math.nan
    m = margins(np.zeros(5), rhs)
    assert not m.passed and math.isnan(m.worst) and m.index == at
    assert m.failures == 1


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_inf_against_inf_fails(sign):
    m = margins(sign * math.inf, sign * math.inf)
    assert not m.passed and math.isnan(m.worst) and m.failures == 1
    assert margins(-math.inf, math.inf).passed
    assert not margins(math.inf, -math.inf).passed


def test_witness_index_is_the_first_worst_margin():
    m = margins([0.0, 2.0, 0.5, 2.0, 2.0], [0.0, 1.0, 0.0, 1.0, 1.0])
    assert m.index == 1 and m.worst == 1.0 and m.failures == 4
    assert margins(np.full((2, 3), -1.0)).index == 0
    # arrays broadcast, and the index is into their flattened margins
    m = margins(np.array([[0.0, 1.0, 2.0], [3.0, 3.0, 0.0]]),
                np.array([[1.0], [0.0]]))
    assert (m.index, m.worst) == (3, 3.0)


def test_no_margins_pass_at_minus_infinity():
    m = margins([], [])
    assert m.passed and m.worst == -math.inf and m.index is None
    assert m.failures == 0


def test_limit_check_names_its_slacks_and_needs_every_inequality():
    good, bad = margins(0.0), margins(1.0, slack=EXACT_SLACK)
    check = limit_check("c", "a", {"x": 1}, "margin <= {0}", good,
                        witness=[1, 2])
    assert (check.threshold, check.passed, check.witness) == (
        "margin <= 1e-10", True, [1, 2])
    check = limit_check("c", "a", {}, "m <= {0} and d <= {1}", good, bad)
    assert (check.threshold, check.passed) == ("m <= 1e-10 and d <= 1e-12",
                                               False)


@pytest.mark.parametrize("count, passed", [(0, True), (1, False),
                                           (7, False)])
def test_count_check_passes_only_at_zero(count, passed):
    check = count_check("c", "a", {"failures": count, "pairs": 5},
                        "failures")
    assert (check.threshold, check.passed) == ("0 failures", passed)


def test_reported_check_always_passes():
    check = reported_check("c", "a", {"R": math.nan}, witness="w")
    assert (check.threshold, check.passed, check.witness) == (
        "reported", True, "w")


# (p, suite, check name) -> (threshold, passed): the verify suites on the
# configs/splits.json tree with psi and seed 11, where the "reported" and
# "> 0" forms of the calibrated checks show, then check_product_estimate
# and lipschitz_compose_check on dyadic depth 4 with `one`
CHECK_TEXTS = {
    (1, "chain_gaps", "regularity_constant"): ("reported", True),
    (1, "chain_gaps", "chain_gap_two_sided"): ("0 violations", True),
    (1, "indicator_norms", "indicator_closed_form_equivalence"):
        ("rel err <= 1e-10", True),
    (1, "indicator_norms", "indicator_norm_bound"): ("reported", True),
    (1, "atom_average_growth", "atom_average_phistar_growth"):
        ("reported", True),
    (1, "extremal_chain", "partial_sums_are_conditional_expectations"):
        ("defect <= 1e-10", True),
    (1, "extremal_chain", "chain_norm_bounded"): ("reported", True),
    (1, "extremal_chain", "chain_average_growth"): ("> 0", True),
    (1, "product_estimate", "product_estimate_random_pairs"):
        ("0 failures", True),
    (1, "lipschitz_sine", "sine_composition_factor2"): ("0 failures", True),
    (1, "truncation_monotone", "truncation_never_increases_seminorm"):
        ("margin <= 1e-10", True),
    (1, "truncation_monotone", "deepest_truncation_equality"):
        ("rel err <= 1e-10", True),
    (1, "conditional_multipliers", "truncated_lower_bounds_dominated"):
        ("margin <= 1e-10", True),
    (1, "conditional_multipliers", "deepest_truncation_identity"):
        ("diff <= 1e-12 * max(1, L_full)", True),
    (1, "conditional_multipliers", "level0_lower_bound_is_mean"):
        ("diff <= 1e-12", True),
    (1, "conditional_multipliers", "quotient_norm_sup_at_deepest"):
        ("margin <= 1e-10 and diff at N <= 1e-12 * max(1, T_full)", True),
    (2, "chain_gaps", "regularity_constant"): ("reported", True),
    (2, "chain_gaps", "chain_gap_two_sided"): ("0 violations", True),
    (2, "indicator_norms", "indicator_closed_form_equivalence"):
        ("rel err <= 1e-10", True),
    (2, "indicator_norms", "indicator_norm_bound"): ("reported", True),
    (2, "atom_average_growth", "atom_average_phistar_growth"):
        ("reported", True),
    (2, "extremal_chain", "partial_sums_are_conditional_expectations"):
        ("defect <= 1e-10", True),
    (2, "extremal_chain", "chain_norm_bounded"): ("reported", True),
    (2, "extremal_chain", "chain_average_growth"): ("> 0", True),
    (2, "product_estimate", "product_estimate_random_pairs"):
        ("0 failures", True),
    (2, "lipschitz_sine", "sine_composition_factor2"): ("0 failures", True),
    (2, "truncation_monotone", "truncation_never_increases_seminorm"):
        ("margin <= 1e-10", True),
    (2, "truncation_monotone", "deepest_truncation_equality"):
        ("rel err <= 1e-10", True),
    (2, "conditional_multipliers", "truncated_lower_bounds_dominated"):
        ("margin <= 1e-10", True),
    (2, "conditional_multipliers", "deepest_truncation_identity"):
        ("diff <= 1e-12 * max(1, L_full)", True),
    (2, "conditional_multipliers", "level0_lower_bound_is_mean"):
        ("diff <= 1e-12", True),
    (2, "conditional_multipliers", "quotient_norm_sup_at_deepest"):
        ("margin <= 1e-10 and diff at N <= 1e-12 * max(1, T_full)", True),
    (1, "product_estimate", "product_estimate_two_sided"):
        ("gap <= bound + 1e-10", True),
    (2, "product_estimate", "product_estimate_two_sided"):
        ("gap <= bound + 1e-10", True),
    (1, "lipschitz_composition", "lipschitz_composition_factor2"):
        ("margin <= 1e-10", True),
}


@pytest.fixture(scope="module")
def check_texts():
    texts = {}
    tree = load_config(CONFIGS / "splits.json").tree
    for p in (1, 2):
        for rep in run_verify_suites(VerifyContext(tree, psi(), p, 11)):
            texts.update({(p, rep.suite, c.name): (c.threshold, c.passed)
                          for c in rep.checks})
    tree = build_dyadic(4)
    f, g = random_functions(tree, 2, 5)
    reps = [(p, check_product_estimate(f, g, p, one())) for p in (1, 2)]
    reps.append((1, lipschitz_compose_check(
        f, 1.0, f.apply(lambda v: math.sin(float(v))))))
    for p, rep in reps:
        check, = rep.checks
        texts[p, rep.suite, check.name] = (check.threshold, check.passed)
    return texts


def test_check_texts_cover_the_table(check_texts):
    assert sorted(check_texts) == sorted(CHECK_TEXTS)


@pytest.mark.parametrize("key", list(CHECK_TEXTS))
def test_check_text_pinned(check_texts, key):
    assert check_texts[key] == CHECK_TEXTS[key]
