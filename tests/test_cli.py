"""Config parsing, report emission, determinism, and exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import campanato_lab
from campanato_lab import phi as phimod
from campanato_lab.cli import MAX_NESTING, ConfigError, load_config, main, run
from campanato_lab.report import Check, _jsonable, canonical_json, content_hash


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


BASE = {
    "tree": {"type": "dyadic", "depth": 4},
    "phi": {"family": "one"},
    "p": 1,
    "seed": 7,
    "functions": [{"kind": "sin_h", "leaf": 0}],
    "suites": ["verify"],
}


def test_verify_run_passes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", BASE)
    code = run(cfg, out_dir=str(tmp_path / "out"))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    suites = {s["suite"] for s in report["suites"]}
    assert {"chain_gaps", "indicator_norms", "extremal_chain",
            "product_estimate", "lipschitz_sine", "truncation_monotone",
            "conditional_multipliers"} <= suites
    for s in report["suites"]:
        for check in s.get("checks", []):
            assert check["anchor"]  # registry label travels into the report


def test_invalid_fractions_exit_2(tmp_path):
    cfg = dict(BASE, tree={"type": "splits",
                           "root": {"fractions": ["1/2", "1/3"]}})
    code = run(write_config(tmp_path / "bad.json", cfg),
               out_dir=str(tmp_path / "out"))
    assert code == 2


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"tree": }', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"broken\.json:1:"):
        load_config(str(path))
    assert run(str(path), out_dir=str(tmp_path / "out")) == 2


def test_phi_report_csv_closed_form(tmp_path):
    cfg = dict(BASE, phi={"family": "powerlog", "alpha": 0.5},
               suites=["phi_report"])
    out = tmp_path / "out"
    assert run(write_config(tmp_path / "cfg.json", cfg), out_dir=str(out)) == 0
    with (out / "phi.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        r = float(row["r"])
        assert float(row["phi_star_r"]) == pytest.approx(
            3 - 2 * math.sqrt(r), abs=1e-8)


def test_norms_table(tmp_path):
    cfg = dict(BASE, suites=["norms"],
               functions=[{"kind": "indicator", "level": 1, "index": 0},
                          {"kind": "extremal", "leaf": 0}])
    out = tmp_path / "out"
    assert run(write_config(tmp_path / "cfg.json", cfg), out_dir=str(out)) == 0
    with (out / "norms.csv").open() as fh:
        rows = {row["function"]: row for row in csv.DictReader(fh)}
    assert float(rows["indicator:1,0"]["seminorm"]) == pytest.approx(0.5)
    assert float(rows["indicator:1,0"]["norm"]) == pytest.approx(1.0)
    assert float(rows["extremal:leaf=0"]["norm"]) == pytest.approx(2.0)


def test_determinism_identical_hashes(tmp_path):
    cfg = dict(BASE, suites=["verify", "norms"])
    path = write_config(tmp_path / "cfg.json", cfg)
    assert run(path, out_dir=str(tmp_path / "a")) == 0
    assert run(path, out_dir=str(tmp_path / "b")) == 0
    rep_a = json.loads((tmp_path / "a" / "report.json").read_text())
    rep_b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep_a["content_hash"] == rep_b["content_hash"]
    rep_a.pop("generated_at"), rep_b.pop("generated_at")
    assert rep_a == rep_b
    # the stored hash re-derives from the canonical content
    assert rep_b["content_hash"] == content_hash(
        {k: v for k, v in rep_a.items() if k != "content_hash"})


def test_multiplier_subcommand_seeded(tmp_path):
    cfg = dict(BASE, suites=["multiplier"])
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["multiplier", "--config", path,
                 "--out", str(tmp_path / "m1"), "--seed", "11"]) == 0
    assert main(["multiplier", "--config", path,
                 "--out", str(tmp_path / "m2"), "--seed", "11"]) == 0
    rep1 = json.loads((tmp_path / "m1" / "report.json").read_text())
    rep2 = json.loads((tmp_path / "m2" / "report.json").read_text())
    assert rep1["content_hash"] == rep2["content_hash"]
    cert = next(s for s in rep1["suites"] if s["suite"] == "multiplier")
    assert cert["certificate"]["ratio_T_over_L"] >= 1.0


def test_failed_assumptions_exit_1(tmp_path):
    pts = [[2.0 ** -k, (2.0 ** -k) ** -0.8] for k in range(0, 17, 2)]
    cfg = dict(BASE, p=2, phi={"family": "table", "points": pts},
               suites=["multiplier"],
               functions=[{"kind": "random", "count": 1, "seed": 3}])
    code = run(write_config(tmp_path / "cfg.json", cfg),
               out_dir=str(tmp_path / "out"))
    assert code == 1


def test_depth_override_and_verify_subcommand(tmp_path):
    path = write_config(tmp_path / "cfg.json", dict(BASE, suites=["norms"]))
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out),
                 "--depth", "3"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tree"]["depth"] == 3


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", "x.json", "--bogus"])
    assert exc.value.code == 2


def test_missing_seed_for_random_rejected(tmp_path):
    cfg = dict(BASE, functions=[{"kind": "random", "count": 2}])
    cfg.pop("seed")
    code = run(write_config(tmp_path / "cfg.json", cfg),
               out_dir=str(tmp_path / "out"))
    assert code == 2


def test_function_reference_validation(tmp_path):
    cfg = dict(BASE, suites=["norms"],
               functions=[{"kind": "indicator", "level": 9, "index": 0}])
    assert run(write_config(tmp_path / "cfg.json", cfg),
               out_dir=str(tmp_path / "out")) == 2
    cfg = dict(BASE, suites=["norms"],
               functions=[{"kind": "extremal", "leaf": 99}])
    assert run(write_config(tmp_path / "cfg.json", cfg),
               out_dir=str(tmp_path / "out")) == 2


def test_console_entry_point(tmp_path):
    path = write_config(tmp_path / "cfg.json",
                        dict(BASE, tree={"type": "dyadic", "depth": 3}))
    # the child imports the package the tests import, installed or not
    src = str(Path(campanato_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "campanato_lab.cli", "verify",
         "--config", path, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert "overall: pass" in result.stdout


def test_shipped_example_configs(tmp_path):
    root = Path(__file__).resolve().parents[1] / "configs"
    assert run(str(root / "dyadic.json"), out_dir=str(tmp_path / "d")) == 0
    assert run(str(root / "psi.json"), out_dir=str(tmp_path / "p")) == 0
    rep = json.loads((tmp_path / "p" / "report.json").read_text())
    phi_entry = next(s for s in rep["suites"] if s["suite"] == "phi_report")
    regime = phi_entry["reports"][0]["regime"]
    assert regime["label"] == "neither"
    assert regime["quotient_at_rmin"] < 0.05
    assert run(str(root / "splits.json"), out_dir=str(tmp_path / "s")) == 0


# content_hash prefixes of the committed configs, by their directory under
# the repository root (the benchmark reads the two under perfbench/).  A
# change to one of these is a change of report content, to be made on
# purpose and recorded.
PINNED_HASHES = {
    "dyadic": ("configs", "0725f2a1634ee303"),
    "psi": ("configs", "400ed0df991d621e"),
    "sinh": ("configs", "f578253a00c113d9"),
    "splits": ("configs", "deae4815d19d75c1"),
    "verify_depth8": ("perfbench/configs", "a78a7ea8ab6fb612"),
    "phi_weights": ("perfbench/configs", "481500e6dc107845"),
}


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_committed_config_content_hash_pinned(tmp_path, name):
    folder, pinned = PINNED_HASHES[name]
    config = Path(__file__).resolve().parents[1] / folder / f"{name}.json"
    assert run(str(config), out_dir=str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["content_hash"].startswith(pinned), report["content_hash"]


def test_numpy_bools_write_as_json_bools():
    # np.bool_ has __float__ but is no bool; other numpy scalars still
    # write as floats, as the pinned hashes were taken with them
    assert _jsonable(np.bool_(True)) is True
    assert _jsonable(np.bool_(False)) is False
    assert repr(_jsonable(np.int64(3))) == "3.0"
    check = Check("c", "a", {"x": np.float64(0.5)}, "t",
                  passed=np.float64(1) < 2)
    assert '"passed": true' in canonical_json(check)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_overflowing_values_write_strict_json(tmp_path):
    # at p = 1000 some measured values overflow to inf or NaN (numpy warns
    # of it); the report writes them as strings, which strict JSON accepts
    cfg = dict(BASE, tree={"type": "dyadic", "depth": 6}, p=1000)
    run(write_config(tmp_path / "cfg.json", cfg), out_dir=str(tmp_path))
    text = (tmp_path / "report.json").read_text()

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    json.loads(text, parse_constant=refuse)
    assert '"inf"' in text and '"nan"' in text
    assert _jsonable([math.nan, -math.inf, np.float32(math.inf)]) == [
        "nan", "-inf", "inf"]


def test_phi_weights_rerun_in_one_process(tmp_path):
    # the phi_star memo and the per-weight evaluators outlive a run; a cold
    # run and a warm one must write the same report
    phimod._phi_star_quadrature.cache_clear()
    phimod.evaluator.cache_clear()
    folder, pinned = PINNED_HASHES["phi_weights"]
    config = Path(__file__).resolve().parents[1] / folder / "phi_weights.json"
    for out in ("cold", "warm"):
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / out)]) == 0
        report = json.loads((tmp_path / out / "report.json").read_text())
        assert report["content_hash"].startswith(pinned), out


def run_config_error(tmp_path, capsys, **changes):
    """Run BASE with `changes`; return (exit code, the config-error line)."""
    cfg = dict(BASE, **changes)
    code = run(write_config(tmp_path / "cfg.json", cfg),
               out_dir=str(tmp_path / "out"))
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("config error:")]
    return code, lines


def names_key(lines, key):
    import re
    return any(re.search(rf"\b{re.escape(key)}\b", line) for line in lines)


RANDOM, LEAF_VALUES = {"kind": "random"}, {"kind": "leaf_values"}

# each config error's exact line, one bad key per case (seed None: no seed)
CONFIG_ERRORS = {
    "entry-empty": ({"functions": [{}]},
                    "functions[0]: unknown function kind None"),
    "kind-unknown": ({"functions": [{"kind": "bogus"}]},
                     "functions[0]: unknown function kind 'bogus'"),
    "indicator-no-level": ({"functions": [{"kind": "indicator"}]},
                           "functions[0]: indicator needs 'level'"),
    "level-bool": ({"functions": [{"kind": "indicator", "level": True}]},
                   "functions[0].level: must be an integer >= 0, got True"),
    "index-negative": (
        {"functions": [{"kind": "indicator", "level": 1, "index": -1}]},
        "functions[0].index: must be an integer >= 0, got -1"),
    "atom-missing": (
        {"functions": [{"kind": "indicator", "level": 1, "index": 2}]},
        "functions[0]: no atom (1, 2) in tree"),
    "leaf-string": ({"functions": [{"kind": "h", "leaf": "x"}]},
                    "functions[0].leaf: must be an integer >= 0, got 'x'"),
    "leaf-missing": ({"functions": [{"kind": "extremal", "leaf": 99}]},
                     "functions[0]: no atom (4, 99) in tree"),
    "count-zero": ({"functions": [dict(RANDOM, count=0)]},
                   "functions[0].count: must be an integer >= 1, got 0"),
    "seed-string": ({"functions": [dict(RANDOM, seed="s")]},
                    "functions[0].seed: must be an integer >= 0, got 's'"),
    "seed-nowhere": ({"functions": [RANDOM], "seed": None},
                     "functions[0]: random functions need a seed"),
    "seed-null-nowhere": ({"functions": [dict(RANDOM, seed=None)],
                           "seed": None},
                          "functions[0]: random functions need a seed"),
    "values-short": ({"functions": [dict(LEAF_VALUES, values=[0.0] * 15)]},
                     "functions[0]: 'values' must list 16 numbers"),
    "values-string": (
        {"functions": [dict(LEAF_VALUES, values=[0, 0, 0, "a"] + [0] * 12)]},
        "functions[0].values[3]: must be a finite number, got 'a'"),
    "values-object": ({"functions": [dict(LEAF_VALUES, values={"0": 1})]},
                      "functions[0]: 'values' must list 16 numbers"),
    "functions-string": ({"functions": "x"}, "functions: expected a list"),
    "second-entry": (
        {"functions": [{"kind": "sin_h"}, {"kind": "sin_h", "leaf": -1}]},
        "functions[1].leaf: must be an integer >= 0, got -1"),
    "phi-empty": ({"phi": []},
                  "phi: expected a weight object or a non-empty list"),
    "p-empty": ({"p": []}, "p: expected a number or a non-empty list"),
    "phi1-unknown": ({"phi": [{"family": "one"}, {"family": "bogus"}]},
                     "phi[1].family: unknown weight family 'bogus'"),
    "p1-below-1": ({"p": [1, 0.5]},
                   "p[1]: must be a finite number >= 1, got 0.5"),
    # a bad entry is named before a bad suite list or output path
    "function-and-suites": (
        {"functions": [{"kind": "bogus"}], "suites": ["nope"]},
        "functions[0]: unknown function kind 'bogus'"),
    "function-and-out": ({"functions": [dict(RANDOM, count=0)], "out": 3},
                         "functions[0].count: must be an integer >= 1, got 0"),
    "two-weights": ({"phi": [{"family": "one"}, {"family": "psi"}],
                     "functions": [{"kind": "sin_h"},
                                   {"kind": "sin_h", "leaf": 16}]},
                    "functions[1]: no atom (4, 16) in tree"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_line_is_exact(tmp_path, capsys, case):
    changes, message = CONFIG_ERRORS[case]
    code, lines = run_config_error(tmp_path, capsys, **changes)
    assert code == 2 and lines == [f"config error: {message}"], lines


def test_random_entry_with_a_null_seed_uses_the_config_seed(tmp_path):
    tables = []
    for name, seed in (("a", None), ("b", None), ("explicit", 7)):
        cfg = write_config(tmp_path / f"{name}.json", dict(
            BASE, suites=["norms"],
            functions=[dict(RANDOM, count=1, seed=seed)]))
        assert run(cfg, out_dir=str(tmp_path / name)) == 0
        tables.append((tmp_path / name / "norms.csv").read_bytes())
    assert tables[0] == tables[1] == tables[2]
    rows = csv.DictReader(tables[0].decode("utf-8").splitlines())
    assert {row["function"] for row in rows} == {"random:7:0"}


def test_function_entry_not_an_object_exits_2(tmp_path, capsys):
    code, lines = run_config_error(tmp_path, capsys, functions=[1])
    assert code == 2 and names_key(lines, "functions"), lines


def test_p_string_exits_2(tmp_path, capsys):
    code, lines = run_config_error(tmp_path, capsys, p="x")
    assert code == 2 and names_key(lines, "p"), lines


def test_p_nan_exits_2(tmp_path, capsys):
    code, lines = run_config_error(tmp_path, capsys, p=float("nan"))
    assert code == 2 and names_key(lines, "p"), lines


def test_p_inf_exits_2(tmp_path, capsys):
    code, lines = run_config_error(tmp_path, capsys, p=[1, float("inf")])
    assert code == 2 and names_key(lines, "p"), lines


def test_seed_string_exits_2(tmp_path, capsys):
    code, lines = run_config_error(tmp_path, capsys, seed="abc")
    assert code == 2 and names_key(lines, "seed"), lines


def test_suites_string_exits_2(tmp_path, capsys):
    # a string is not iterated one character at a time
    code, lines = run_config_error(tmp_path, capsys, suites="verify")
    assert code == 2 and names_key(lines, "suites"), lines
    assert "list" in lines[0], lines


def test_tree_depth_bool_exits_2(tmp_path, capsys):
    code, lines = run_config_error(tmp_path, capsys,
                                   tree={"type": "dyadic", "depth": True})
    assert code == 2 and names_key(lines, "depth"), lines


def test_tree_depth_too_large_exits_2(tmp_path, capsys):
    # depth 40 would ask for arrays of 2^41 entries before any check ran
    code, lines = run_config_error(tmp_path, capsys,
                                   tree={"type": "dyadic", "depth": 40})
    assert code == 2 and names_key(lines, "depth"), lines


def test_depth_override_too_large_exits_2(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", BASE)
    code = main(["run", "--config", path, "--out", str(tmp_path / "out"),
                 "--depth", "40"])
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("config error:")]
    assert code == 2 and names_key(lines, "depth"), lines


def test_table_nan_point_exits_2(tmp_path, capsys):
    code, lines = run_config_error(
        tmp_path, capsys,
        phi={"family": "table", "points": [[0.5, float("nan")], [1, 1]]},
        suites=["phi_report"])
    assert code == 2 and names_key(lines, "phi.points"), lines
    assert "nan" in lines[0], lines


def test_empty_phi_list_exits_2(tmp_path, capsys):
    # zero weights would run no suite and report an overall pass
    code, lines = run_config_error(tmp_path, capsys, phi=[])
    assert code == 2 and names_key(lines, "phi"), lines


@pytest.mark.parametrize("phi, suite, key", [
    # a table overflows at r = 2^-40, or underflows to 0 there
    ({"family": "table", "points": [[0.5, 22.0], [0.5625, 1.0]]},
     "phi_report", "phi.points"),
    ({"family": "table", "points": [[0.5, 1e-20], [0.5625, 1.0]]},
     "phi_report", "phi.points"),
    # a powerlog factor overflows there, or underflows to 0
    ({"family": "powerlog", "alpha": -50}, "multiplier", "phi"),
    ({"family": "powerlog", "beta": 1e300}, "phi_report", "phi"),
    ({"family": "powerlog", "gamma": -1e300}, "verify", "phi"),
    ({"family": "powerlog", "beta": -800}, "verify", "phi"),
    ({"family": "powerlog", "alpha": 1e300}, "verify", "phi"),
], ids=["table-overflow", "table-underflow", "alpha-50", "beta1e300",
        "gamma-1e300", "beta-800", "alpha1e300"])
def test_weight_out_of_range_exits_2(tmp_path, capsys, phi, suite, key):
    # the weight report evaluates the weight down to 2^-40
    code, lines = run_config_error(tmp_path, capsys, phi=phi, suites=[suite])
    assert code == 2 and names_key(lines, key), lines
    assert "not a positive finite weight" in lines[0], lines


@pytest.mark.parametrize("root, key", [
    ({"fractions": ["1/2", "1/2"], "children": 3}, "children"),
    ({"fractions": "ab"}, "fractions"),
    ({"fractions": "1"}, "fractions"),  # one character, one valid fraction
    ({"fractions": 1}, "fractions"),
])
def test_split_node_lists_that_are_not_lists_exit_2(tmp_path, capsys, root,
                                                     key):
    code, lines = run_config_error(tmp_path, capsys,
                                   tree={"type": "splits", "root": root})
    assert code == 2 and names_key(lines, key), lines
    assert "list" in lines[0], lines


def test_function_not_finite_on_a_valid_tree_exits_2(tmp_path, capsys):
    # the chain ratio 1 / 1e-320 overflows a float: the default sin_h
    # function cannot be built, which is refused before any suite runs
    for suite in ("verify", "multiplier", "norms"):
        code, lines = run_config_error(
            tmp_path, capsys, suites=[suite], functions=[
                {"kind": "sin_h", "leaf": 0}],
            tree={"type": "splits", "root": {"fractions": [1e-320, 1]}})
        assert code == 2 and lines, lines
        assert lines[0].startswith("config error: functions[0]: ") \
            and "finite" in lines[0], lines


def test_table_points_with_equal_logs_exit_2(tmp_path, capsys):
    # the two logarithms are equal, so the segment between has zero width
    points = [[1e-09, 2.0], [1.0000000000000003e-09, 1.0], [1.0, 1.0]]
    code, lines = run_config_error(
        tmp_path, capsys, phi=[{"family": "one"},
                               {"family": "table", "points": points}],
        suites=["phi_report"])
    assert code == 2 and names_key(lines, "phi[1].points"), lines
    assert "same logarithm" in lines[0], lines


def persist_chain(depth):
    spec = None
    for _ in range(depth):
        spec = {"persist": spec}
    return spec


def test_deep_chain_config_runs(tmp_path):
    # a 400-level spec once overflowed the recursion limit in the builder,
    # and a 492-level one in the report serialiser after every suite ran;
    # the deepest config accepted must report too
    for depth in (400, 492, MAX_NESTING - 1):
        cfg = dict(BASE, tree={"type": "splits",
                               "root": persist_chain(depth)},
                   functions=[{"kind": "random", "count": 1, "seed": 3}],
                   suites=["norms"])
        out = tmp_path / str(depth)
        assert run(write_config(tmp_path / "cfg.json", cfg),
                   out_dir=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["tree"] == {"depth": depth, "leaves": 1}


@pytest.mark.parametrize("depth", [MAX_NESTING, 800])
def test_config_nested_too_deep_exits_2_before_any_suite(tmp_path, capsys,
                                                          depth):
    cfg = dict(BASE, tree={"type": "splits", "root": persist_chain(depth)},
               suites=["norms"])
    code = run(write_config(tmp_path / "cfg.json", cfg),
               out_dir=str(tmp_path / "out"))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("config error: tree: nested more than")


def test_config_too_deep_to_parse_exits_2(tmp_path, capsys):
    depth = 1500
    path = tmp_path / "deep.json"
    path.write_text('{"tree": {"type": "splits", "root": '
                    + '{"persist": ' * depth + "null" + "}" * depth + "}}",
                    encoding="utf-8")
    assert run(str(path), out_dir=str(tmp_path / "out")) == 2
    assert "config error:" in capsys.readouterr().err


def test_out_path_of_a_file_exits_2_before_any_suite(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    code = run(write_config(tmp_path / "cfg.json", BASE), out_dir=str(blocker))
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines()
             if line.startswith("config error:")]
    assert code == 2 and lines and lines[0].startswith("config error: out:"), lines
    assert captured.out == ""  # no suite ran
    assert blocker.read_text() == "not a directory"


def test_tree_ratio_not_finite_exits_2(tmp_path, capsys):
    # 1 / 1e-320 overflows a float.  A random function is finite on this
    # tree, but the verify suites' own chain functions would not be, so
    # the tree itself is refused before any suite runs; so is an exact
    # ratio of 10^310, beyond the float range
    tiny = "1/1" + "0" * 310
    for fractions in ([1e-320, 1], [tiny, str(1 - Fraction(tiny))]):
        code, lines = run_config_error(
            tmp_path, capsys, seed=3, suites=["verify"],
            functions=[{"kind": "random", "count": 1}],
            tree={"type": "splits", "root": {"fractions": fractions}})
        assert code == 2 and lines, lines
        assert lines[0] == "config error: tree: a parent/child measure " \
            "ratio is not finite as a float", lines
        assert not (tmp_path / "out").exists()


def test_tree_measure_zero_as_a_float_exits_2(tmp_path, capsys):
    # 1/10^400 is a positive rational whose float is 0.0; the tree is
    # refused, naming `tree`, before any weight is evaluated there
    tiny = "1/1" + "0" * 400
    code, lines = run_config_error(
        tmp_path, capsys, tree={"type": "splits", "root": {
            "fractions": [tiny, str(1 - Fraction(tiny))]}})
    assert code == 2 and lines, lines
    assert lines[0] == "config error: tree: an atom measure is 0 as a float", \
        lines
    assert not (tmp_path / "out").exists()
