"""Experiment runner: JSON configs in, JSON reports and CSV tables out.

Exit codes: 0 all requested verifications passed, 1 a verification
failed, 2 the config (or command line) was invalid.  Identical config
and seed give byte-identical report content; the ISO-8601 timestamp is
excluded from the report's content hash.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import phi as phimod
from .constructions import (chain_through_leaf, extremal_chain_function,
                            h_function, sin_h_multiplier)
from .filtration import (TreeSpecError, parse_tree_config,
                         regularity_constant)
from .functions import LeafFunction, indicator, random_functions
from .norms import campanato_norm
from .report import canonical_json, content_hash
from .verify import VerifyContext, run_multiplier_suite, run_verify_suites

ALL_SUITES = ("norms", "phi_report", "verify", "multiplier")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending key."""


def parse_phi_config(cfg, where="phi"):
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ConfigError(f"{where}: expected a dict with a 'family' key")
    family = cfg["family"]
    if family == "one":
        return phimod.one()
    if family == "psi":
        return phimod.psi()
    if family in ("powerlog", "power"):
        return phimod.powerlog(*(_finite(cfg.get(k, 0.0), f"{where}.{k}")
                                 for k in ("alpha", "beta", "gamma")))
    if family == "table":
        points = cfg.get("points")
        if not points:
            raise ConfigError(f"{where}.points: table weight needs points")
        try:
            return phimod.table(points)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.points: {exc}")
    if family == "quotient":
        return phimod.quotient_phi(parse_phi_config(cfg.get("base"),
                                                    f"{where}.base"))
    raise ConfigError(f"{where}.family: unknown weight family {family!r}")


def _check_weight_range(spec, where, r_min):
    """Refuse a weight, or a quotient's base, that overflows or underflows
    to 0 at r_min or at 1.  A table (log-linear between its points) and a
    powerlog whose monotone factors pull the same way take their extremes
    on [r_min, 1] there or at a point; a powerlog whose factors pull in
    opposite directions can peak in between, which this does not cover."""
    while spec.family == "quotient":
        spec, where = spec.base, f"{where}.base"
    key = f"{where}.points" if spec.family == "table" else where
    for r in (r_min, 1.0):
        try:
            value = phimod.eval_phi(spec, r)
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{key}: phi({r!r}) = {value!r}, not a "
                              "positive finite weight")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, where):
    if not _is_number(value) or not math.isfinite(value):
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")
    return float(value)


def _int(value, where, minimum=0):
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise ConfigError(f"{where}: must be an integer >= {minimum}, "
                          f"got {value!r}")
    return value


def _one_or_list(raw, key, what):
    """(value, where) pairs of a key that takes one value or a non-empty
    list of them."""
    if not isinstance(raw, list):
        return [(raw, key)]
    if not raw:
        raise ConfigError(f"{key}: expected {what} or a non-empty list")
    return [(value, f"{key}[{i}]") for i, value in enumerate(raw)]


def _nesting(value):
    """Levels of objects and lists nested in a parsed JSON value."""
    depth, level = 0, [value]
    while True:
        level = [x for x in level if isinstance(x, (dict, list))]
        if not level:
            return depth
        depth += 1
        level = [v for x in level
                 for v in (x.values() if isinstance(x, dict) else x)]


# The report echoes the config and is serialised recursively, so a config
# nested close to the interpreter's recursion limit would run every suite
# and then fail to write; such configs are refused up front.
MAX_NESTING = 500


class ExperimentConfig:
    """Parsed and validated experiment description."""

    def __init__(self, raw, seed_override=None, depth_override=None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in raw.items():
            if _nesting(value) > MAX_NESTING:
                raise ConfigError(f"{key}: nested more than {MAX_NESTING} "
                                  "levels deep")
        self.raw = raw
        tree_cfg = raw.get("tree")
        if not isinstance(tree_cfg, dict):
            raise ConfigError("tree: expected an object with a 'type' key")
        if depth_override is not None:
            if tree_cfg.get("type") != "dyadic":
                raise ConfigError("--depth override only applies to dyadic trees")
            tree_cfg = dict(tree_cfg, depth=depth_override)
        try:
            self.tree = parse_tree_config(tree_cfg)
        except TreeSpecError as exc:
            raise ConfigError(f"tree: {exc}")

        phis = _one_or_list(raw.get("phi", {"family": "one"}), "phi",
                            "a weight object")
        self.phis = [parse_phi_config(c, w) for c, w in phis]
        # an exact measure below the float range reads 0 (an atom holds a leaf)
        if not self.tree.leaf_measures_f().min() > 0:
            raise ConfigError("tree: an atom measure is 0 as a float")
        # the smallest r a run evaluates a weight at: the report grid's, or
        # the smallest atom measure
        r_min = min(min(phimod.default_grid()),
                    float(self.tree.leaf_measures_f().min()))
        for spec, (_, where) in zip(self.phis, phis):
            _check_weight_range(spec, where, r_min)

        self.ps = []
        for p, where in _one_or_list(raw.get("p", 1), "p", "a number"):
            if not _is_number(p) or not math.isfinite(p) or p < 1:
                raise ConfigError(f"{where}: must be a finite number >= 1, "
                                  f"got {p!r}")
            self.ps.append(float(p))

        seed = raw.get("seed") if seed_override is None else seed_override
        self.seed = None if seed is None else _int(seed, "seed")

        self.function_specs = raw.get("functions",
                                      [{"kind": "sin_h", "leaf": 0}])
        if not isinstance(self.function_specs, list):
            raise ConfigError("functions: expected a list")
        # the functions of each weight, built before any suite runs
        self.functions = [self.build_functions(spec) for spec in self.phis]

        self.suites = raw.get("suites", ["verify"])
        if not isinstance(self.suites, list):
            raise ConfigError(f"suites: expected a list of suite names, "
                              f"got {self.suites!r}")
        for s in self.suites:
            if s not in ALL_SUITES:
                raise ConfigError(f"suites: unknown suite {s!r}")
        self.out = raw.get("out", "reports")
        if not isinstance(self.out, str):
            raise ConfigError(f"out: expected a path string, got {self.out!r}")
        # the suites' chain functions divide by these ratios; a Fraction R
        # (a rational tree) compares with the float bound exactly
        with np.errstate(over="ignore"):
            if not regularity_constant(self.tree) < sys.float_info.max:
                raise ConfigError("tree: a parent/child measure ratio is not "
                                  "finite as a float")

    def build_functions(self, phi_spec):
        """Instantiate the configured functions for one weight, checking
        each entry's keys as they are read; refuse an atom or leaf the
        tree lacks, or a function not finite on it."""
        tree = self.tree
        out = []
        for i, spec in enumerate(self.function_specs):
            where = f"functions[{i}]"
            if not isinstance(spec, dict):
                raise ConfigError(f"{where}: expected an object, got {spec!r}")
            kind = spec.get("kind")
            try:
                if kind == "indicator":
                    if "level" not in spec:
                        raise ConfigError(f"{where}: indicator needs 'level'")
                    level = _int(spec["level"], f"{where}.level")
                    index = _int(spec.get("index", 0), f"{where}.index")
                    out.append((f"indicator:{level},{index}",
                                indicator(tree, tree.atom(level, index))))
                elif kind in ("extremal", "h", "sin_h"):
                    leaf = _int(spec.get("leaf", 0), f"{where}.leaf")
                    chain = chain_through_leaf(tree, leaf)
                    if kind == "extremal":
                        f = extremal_chain_function(tree, chain, phi_spec).f
                    elif kind == "h":
                        f = h_function(tree, chain, phi_spec)
                    else:
                        f = sin_h_multiplier(tree, chain, phi_spec)
                    out.append((f"{kind}:leaf={leaf}", f))
                elif kind == "random":
                    count = _int(spec.get("count", 1), f"{where}.count",
                                 minimum=1)
                    # an absent or null seed is the config's
                    seed = self.seed if spec.get("seed") is None \
                        else _int(spec["seed"], f"{where}.seed")
                    if seed is None:
                        raise ConfigError(f"{where}: random functions need "
                                          "a seed")
                    out += [(f"random:{seed}:{k}", f) for k, f in
                            enumerate(random_functions(tree, count, seed))]
                elif kind == "leaf_values":
                    values = spec.get("values")
                    if not isinstance(values, list) \
                            or len(values) != tree.leaf_count:
                        raise ConfigError(f"{where}: 'values' must list "
                                          f"{tree.leaf_count} numbers")
                    for j, v in enumerate(values):
                        _finite(v, f"{where}.values[{j}]")
                    out.append((f"leaf_values:{i}", LeafFunction(tree, values)))
                else:
                    raise ConfigError(f"{where}: unknown function kind "
                                      f"{kind!r}")
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        return out


# -- suite execution -------------------------------------------------------------


def _norm_rows(config):
    rows = []
    for spec, functions in zip(config.phis, config.functions):
        for p in config.ps:
            for label, f in functions:
                norm = campanato_norm(f, p, spec, exact=False)
                rows.append({
                    "function": label,
                    "phi": spec.describe(),
                    "p": p,
                    # the seminorm is the largest per-level sup
                    "seminorm": float(max(norm.per_level)),
                    "norm": float(norm.value),
                    "mean_abs": float(norm.mean_abs),
                    "witness_level": norm.witness[0],
                    "witness_atom": norm.witness[1],
                })
    return rows


def _phi_rows(config):
    rows = []
    for spec in config.phis:
        for r in reversed(phimod.default_grid(k_max=30)):
            star = phimod.phi_star(spec, r)
            val = float(phimod.eval_phi(spec, r))
            rows.append({"phi": spec.describe(), "r": r, "phi_r": val,
                         "phi_star_r": star, "quotient_r": val / star})
    return rows


def _suite_entries(suite, ctx, functions):
    """The report entries of the verify or multiplier suite at one weight
    and p; the multiplier suite runs on the weight's first function."""
    if suite == "verify":
        return [rep.to_dict() for rep in run_verify_suites(ctx)]
    if not functions:
        raise ConfigError("functions: the multiplier suite needs at least "
                          "one function")
    label, g = functions[0]
    cert, reps = run_multiplier_suite(ctx, g, g_label=label)
    return [{"suite": "multiplier", "certificate": cert.to_dict(),
             "passed": cert.passed}] + [rep.to_dict() for rep in reps]


def execute(config):
    """Run the configured suites; returns (report dict, csv tables dict)."""
    report = {
        "config": config.raw,
        "arithmetic_mode": config.tree.mode,
        "tree": {"depth": config.tree.depth, "leaves": config.tree.leaf_count},
        "seed": config.seed,
        "suites": [],
    }
    tables = {}
    passed = True
    for suite in config.suites:
        if suite == "norms":
            rows = _norm_rows(config)
            tables["norms"] = rows
            report["suites"].append({"suite": "norms", "passed": True,
                                     "rows": len(rows)})
        elif suite == "phi_report":
            rows = _phi_rows(config)
            tables["phi"] = rows
            entries = [phimod.phi_report(spec, ps=tuple(config.ps)).to_dict()
                       for spec in config.phis]
            report["suites"].append({"suite": "phi_report", "passed": True,
                                     "reports": entries})
        elif suite in ("verify", "multiplier"):
            for spec, functions in zip(config.phis, config.functions):
                for p in config.ps:
                    ctx = VerifyContext(tree=config.tree, spec=spec, p=p,
                                        seed=config.seed or 0)
                    for entry in _suite_entries(suite, ctx, functions):
                        entry.update(phi=spec.describe(), p=p)
                        report["suites"].append(entry)
                        passed = passed and entry["passed"]
    report["passed"] = passed
    return report, tables


def write_outputs(report, tables, out_dir, fmt="both"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        report = dict(report)
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
        report["content_hash"] = content_hash(report)
        path = out / "report.json"
        path.write_text(canonical_json(report) + "\n", encoding="utf-8")
        written.append(path)
    if fmt in ("csv", "both"):
        for name, rows in tables.items():
            if not rows:
                continue
            path = out / f"{name}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                for row in rows:
                    writer.writerow({k: _csv_cell(v) for k, v in row.items()})
            written.append(path)
    return written


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


# -- entry points -----------------------------------------------------------------


def load_config(path, seed_override=None, depth_override=None):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except RecursionError:
        raise ConfigError(f"{path}: nested too deeply to parse") from None
    return ExperimentConfig(raw, seed_override=seed_override,
                            depth_override=depth_override)


def run(config_path, out_dir=None, fmt="both", seed=None, depth=None,
        suites=None):
    """Execute a config file end to end; returns the process exit code."""
    try:
        config = load_config(config_path, seed_override=seed,
                             depth_override=depth)
        if suites is not None:
            config.suites = list(suites)
        out_dir = out_dir or config.out
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out: {exc}") from None
        report, tables = execute(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    write_outputs(report, tables, out_dir, fmt)
    for entry in report["suites"]:
        name = entry.get("suite")
        status = "pass" if entry.get("passed", True) else "FAIL"
        extra = ""
        if "phi" in entry:
            extra = f" [phi={entry['phi']} p={entry.get('p')}]"
        print(f"{status:4s}  {name}{extra}")
    print(f"overall: {'pass' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="campanato-lab",
        description="Weighted mean-oscillation norms on atom-tree "
                    "filtrations: norm tables, weight reports, and "
                    "inequality verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's help text and suites (None: the config's)
    commands = {
        "norms": ("compute norm tables for the configured functions",
                  ["norms"]),
        "verify": ("run the inequality verification suites", ["verify"]),
        "phi": ("report weight-function condition constants",
                ["phi_report"]),
        "multiplier": ("run the multiplier certificate", ["multiplier"]),
        "run": ("run the suites listed in the config", None),
    }
    for name, (help_text, _) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--depth", type=int, default=None,
                        help="override dyadic tree depth")
        sp.add_argument("--format", choices=("json", "csv", "both"),
                        default="both", help="which outputs to write")
    args = parser.parse_args(argv)
    return run(args.config, out_dir=args.out, fmt=args.format,
               seed=args.seed, depth=args.depth,
               suites=commands[args.command][1])


if __name__ == "__main__":
    sys.exit(main())
