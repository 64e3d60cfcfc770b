"""The benchmark's workloads: seeded inputs, the timed operation, and the
output checks.

Each workload has `setup(seed)` (everything before the first timed
operation), `round(state, clock)` (one whole round of operations, each
timed with `clock`, a `Clock`)
and `check(state, rounds)` (a list of problems; empty when every output
is correct), plus `setup_samples` (fresh set-ups timed per run) and
`in_process` (whether the traced spans come from the measuring process
itself) and `min_rounds` (rounds a run holds however short `--seconds`
is, so every timing is a median over several operations and every
"identical across rounds" check compares something).  Input sizes never depend on the seed, only the values and the
placement of splits do, so every seed costs the same work.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REL_TOL = 1e-9

# Arity mix of the seeded split trees: per level, a fifth of the atoms
# persist, three tenths split in three and the rest in two.  Depth 14
# gives 31,897 leaves, depth 11 gives 3,444.
RATIONAL_SPLITS = {
    2: [("1/2", "1/2"), ("1/3", "2/3"), ("2/3", "1/3"), ("1/4", "3/4")],
    3: [("1/3", "1/3", "1/3"), ("1/2", "1/4", "1/4"), ("1/4", "1/4", "1/2")],
}


def _arity_plan(n, rng):
    k3, k1 = 3 * n // 10, n // 5
    arities = np.array([1] * k1 + [2] * (n - k1 - k3) + [3] * k3, dtype=np.int64)
    return rng.permutation(arities)


def split_tree(rng, depth, exact):
    """(spec, shape): a seeded split tree as the nested config form and
    as the reference's level description.  Float trees draw each split's
    fractions at random; exact trees deal fixed numbers of each menu
    split to random atoms, so only their placement varies with the seed."""
    arities, fractions = [], []
    n = 1
    for _ in range(depth):
        ar = _arity_plan(n, rng)
        if exact:
            dealt = {a: iter([RATIONAL_SPLITS[a][i % len(RATIONAL_SPLITS[a])]
                              for i in rng.permutation(int((ar == a).sum()))])
                     for a in (2, 3)}
            fr = [q for a in ar for q in (("1",) if a == 1 else next(dealt[a]))]
        else:
            fr = []
            for a in ar:
                w = rng.uniform(1.0, 3.0, a) if a > 1 else np.ones(1)
                fr.extend((w / w.sum()).tolist())
        arities.append(ar)
        fractions.append(fr)
        n = int(ar.sum())
    specs = [None] * n
    for ar, fr in zip(reversed(arities), reversed(fractions)):
        parents, pos = [], 0
        for a in ar.tolist():
            kids = specs[pos:pos + a]
            if a == 1:
                parents.append({"persist": kids[0]})
            else:
                parents.append({"fractions": list(fr[pos:pos + a]),
                                "children": kids})
            pos += a
        specs = parents
    return specs[0], ref.shape_from_arities(arities, fractions, exact=exact)


def martingale_values(shape, rng):
    """Sum over levels of a standard normal per atom, so every level
    carries oscillation of the same order."""
    values = np.zeros(shape.leaf_count)
    for lengths in shape.lengths:
        values += np.repeat(rng.standard_normal(lengths.size), lengths)
    return values


# -- timing ----------------------------------------------------------------------------

# Time of the calibration kernel in the usual state of the host the
# reference figures come from (README.md).  Normalised times are in
# seconds of a host that runs the kernel in this time.
CAL_REF_S = 0.028


def _calibration_kernel():
    """The mix the package spends its time in: a Python integer loop,
    Fraction sums and small numpy reductions.  Imports nothing from the
    package, so no change to it can move this time."""
    s = 0
    for i in range(60000):
        s += i * i
    q = Fraction(0)
    for i in range(1, 3000):
        q += Fraction(1, i)
    a = np.arange(20000, dtype=float)
    for _ in range(200):
        a.sum()
    return s, q


def calibrate():
    """Fastest of three runs of the calibration kernel, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times operations, and normalises each by the calibration kernel
    timed just before and just after it: norm = seconds * CAL_REF_S /
    (mean of the two calibrations).  The host this was built on runs everything
    up to a fifth faster or slower for minutes at a time; the kernel
    slows down with it, so the normalised time stays put while a change
    to the package moves it as much as the wall time."""

    def __init__(self):
        self.last = calibrate()

    def normalise(self, seconds):
        """`seconds` measured since the last calibration, normalised."""
        after = calibrate()
        norm = seconds * CAL_REF_S * 2 / (self.last + after)
        self.last = after
        return norm

    def time(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        return wall, self.normalise(wall), out


def _mismatch(name, got, want, tol=REL_TOL):
    err = ref.rel_err(got, want)
    return [] if err <= tol else [f"{name}: {got!r} vs reference {want!r} "
                                  f"(rel err {err:.2e})"]


# -- certificate -----------------------------------------------------------------


class Certificate:
    """theorem1_certificate of sin_h along leaf 0 of the dyadic depth-10
    tree: p = 1, constant weight, 64 sampled chains, 32 random members
    (2144 family members).  Depth 10 rather than 12 keeps one certificate
    near 3 s, so a run holds several."""

    DEPTH, CHAINS, RANDOMS = 10, 64, 32
    in_process, setup_samples, min_rounds = True, 5, 3

    def setup(self, seed):
        import campanato_lab as cl
        from campanato_lab.multiplier import theorem1_certificate
        tree = cl.build_dyadic(self.DEPTH)
        g = cl.sin_h_multiplier(tree, cl.chain_to_root(tree, tree.leaves[0]),
                                cl.one())
        return {"seed": seed, "one": cl.one(), "g": g,
                "certify": theorem1_certificate}

    def round(self, st, clock):
        wall, norm, rep = clock.time(lambda: st["certify"](
            st["g"], 1, st["one"], sample_chains=self.CHAINS,
            randoms=self.RANDOMS, seed=st["seed"]))
        out = (rep.T, rep.op_lower, rep.op_witness, rep.ratio, rep.family_size,
               rep.upper_violations, rep.status)
        return {"op_times": [wall], "norm_times": [norm], "attempted": 1,
                "failed": 0, "output": out}

    def check(self, st, rounds):
        shape = ref.dyadic_shape(self.DEPTH)
        g = ref.sin_h(shape, 0)
        T, L, witness, ratio, size, violations, status = rounds[0]["output"]
        problems = [f"certificate differs between rounds: {r['output']}"
                    for r in rounds[1:] if r["output"] != rounds[0]["output"]]
        T_ref = ref.seminorm(shape, g, 1, ("psi",)) + float(np.abs(g).max())
        problems += _mismatch("T", T, T_ref)
        f = ref.family_member(shape, witness, st["seed"], self.CHAINS, ("one",))
        L_ref = ref.norm(shape, f * g, 1, ("one",)) / ref.norm(shape, f, 1, ("one",))
        problems += _mismatch(f"witness ratio ({witness})", L, L_ref)
        g_norm = ref.norm(shape, g, 1, ("one",))
        if L < g_norm * (1 - REL_TOL):
            problems.append(f"L = {L} below the constant member's ratio {g_norm}")
        expected_size = 1 + (2 ** (self.DEPTH + 1) - 1) + self.CHAINS + self.RANDOMS
        if size != expected_size:
            problems.append(f"family size {size}, expected {expected_size}")
        if violations != 0 or status != "ok":
            problems.append(f"{violations} upper-bound violations, status {status!r}")
        if not 1.0 <= ratio <= 50.0:
            problems.append(f"T/L = {ratio} outside [1, 50]")
        return problems


# -- deep norms ------------------------------------------------------------------------


class DeepNorms:
    """One operation is a fixed float batch plus a fixed exact batch.

    Float: campanato_norm on the dyadic depth-16 tree and a seeded
    irregular float split tree, one function per tree, three weights,
    p in {1, 2} (twelve norms).  Exact: p = 1 norms of integer-valued
    functions on the dyadic depth-12 tree and on a seeded rational split
    tree with thirds, so a power-of-two shortcut is never the only exact
    case."""

    DEPTH, SPLIT_DEPTH = 16, 14
    EXACT_DEPTH, EXACT_SPLIT_DEPTH = 12, 11
    in_process, setup_samples, min_rounds = True, 3, 3  # each set-up takes seconds
    WEIGHTS = (("one",), ("psi",), ("powerlog", 0.3, 0.0))
    PS = (1, 2)

    def setup(self, seed):
        import campanato_lab as cl
        rng = np.random.default_rng(seed)
        spec, split_shape = split_tree(rng, self.SPLIT_DEPTH, exact=False)
        shapes = [ref.dyadic_shape(self.DEPTH), split_shape]
        trees = [cl.build_dyadic(self.DEPTH), cl.build_from_spec(spec)]
        values = [martingale_values(s, rng) for s in shapes]
        fs = [cl.LeafFunction.from_float_array(t, v) for t, v in zip(trees, values)]
        specs = [cl.one(), cl.psi(), cl.powerlog(0.3)]
        spec, split_shape = split_tree(rng, self.EXACT_SPLIT_DEPTH, exact=True)
        ex_shapes = [ref.dyadic_shape(self.EXACT_DEPTH), split_shape]
        ex_trees = [cl.build_dyadic(self.EXACT_DEPTH), cl.build_from_spec(spec)]
        ex_values = [rng.integers(-1000, 1001, s.leaf_count).tolist()
                     for s in ex_shapes]
        ex_fs = [cl.LeafFunction(t, v) for t, v in zip(ex_trees, ex_values)]
        st = {"cl": cl, "shapes": shapes, "values": values, "fs": fs,
              "specs": specs, "trees": trees, "one": cl.one(),
              "ex_shapes": ex_shapes, "ex_trees": ex_trees,
              "ex_values": ex_values, "ex_fs": ex_fs}
        st["warm"] = self._float_batch(st)  # fills the per-tree weight caches
        return st

    def _float_batch(self, st):
        norm = st["cl"].campanato_norm
        return [float(norm(f, p, w).value)
                for f in st["fs"] for w in st["specs"] for p in self.PS]

    def _exact_batch(self, st):
        norm = st["cl"].campanato_norm
        return [norm(f, 1, st["one"]).value for f in st["ex_fs"]]

    def _batches(self, st):
        return self._float_batch(st), self._exact_batch(st)

    def round(self, st, clock):
        wall, norm, out = clock.time(self._batches, st)
        return {"op_times": [wall], "norm_times": [norm], "attempted": 1,
                "failed": 0, "output": out}

    def check(self, st, rounds):
        problems = [f"batch differs from the first: {r['output']}"
                    for r in rounds if r["output"] != rounds[0]["output"]]
        floats, exacts = rounds[0]["output"]
        if st["warm"] != floats:
            problems.append("warm-up batch differs from the timed batches")
        return problems + self._check_float(st, floats) + self._check_exact(st, exacts)

    def _check_float(self, st, floats):
        cl, problems, got = st["cl"], [], iter(floats)
        for shape, v, f, tree in zip(st["shapes"], st["values"], st["fs"], st["trees"]):
            shifted = cl.LeafFunction.from_float_array(tree, v + 3.7)
            scaled = cl.LeafFunction.from_float_array(tree, -2.5 * v)
            for w, spec in zip(self.WEIGHTS, st["specs"]):
                for p in self.PS:
                    where = f"{shape.leaf_count} leaves, {w}, p={p}"
                    problems += _mismatch(f"norm [{where}]", next(got),
                                          ref.norm(shape, v, p, w))
                    sem = float(cl.campanato_seminorm(f, p, spec).value)
                    problems += _mismatch(
                        f"seminorm(f + c) [{where}]",
                        float(cl.campanato_seminorm(shifted, p, spec).value), sem)
                    problems += _mismatch(
                        f"seminorm(c f) [{where}]",
                        float(cl.campanato_seminorm(scaled, p, spec).value), 2.5 * sem)
        return problems

    def _check_exact(self, st, exacts):
        cl, one, problems = st["cl"], st["one"], []
        for shape, v, f, tree, got in zip(st["ex_shapes"], st["ex_values"],
                                          st["ex_fs"], st["ex_trees"], exacts):
            where = f"{shape.leaf_count} leaves"
            want = ref.exact_norm(shape, v)
            if not isinstance(got, Fraction) or got != want:
                problems.append(f"exact norm [{where}]: {got!r} != {want!r}")
            flt = cl.campanato_norm(f, 1, one, exact=False).value
            problems += _mismatch(f"exact vs float scan [{where}]", got, flt)
            if shape is st["ex_shapes"][0]:
                continue  # invariance on the rational tree only: exact scans are slow
            sem = cl.campanato_seminorm(f, 1, one).value
            shifted = cl.campanato_seminorm(cl.LeafFunction(tree, [x + 7 for x in v]),
                                            1, one).value
            scaled = cl.campanato_seminorm(cl.LeafFunction(tree, [-3 * x for x in v]),
                                           1, one).value
            if shifted != sem or scaled != 3 * sem:
                problems.append(f"exact seminorm [{where}]: f {sem}, f + 7 "
                                f"{shifted}, -3 f {scaled}")
        return problems


# -- CLI configs ----------------------------------------------------------------------------

COMMITTED_CONFIGS = ("dyadic", "psi", "sinh", "splits")
BENCH_CONFIGS = ("verify_depth8", "phi_weights")
# Malformed configs and the key each error message must name.  Until the
# CLI validates them they crash or pass instead of exiting with code 2,
# and count as failed operations.
MALFORMED = {"functions_int": "functions", "p_string": "p",
             "seed_string": "seed", "p_nan": "p"}


def _config_path(name):
    if name in COMMITTED_CONFIGS:
        return ROOT / "configs" / f"{name}.json"
    sub = "malformed/" if name in MALFORMED else ""
    return BENCH_DIR / "configs" / f"{sub}{name}.json"


def _names_key(stderr, key):
    return any(line.startswith("config error:")
               and re.search(rf"\b{re.escape(key)}\b", line)
               for line in stderr.splitlines())


def child_env():
    """Environment of every child: sources from src/, default threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("CAMPANATO_LAB_THREADS", None)  # measure the package default
    return env


class CliConfigs:
    """Fresh-process `campanato-lab run` on the committed configs, the
    benchmark's two configs and four malformed ones.  A round runs all
    ten once, in a seeded order; the timed quantity is one pass over the
    six valid configs.  Two rounds at least, so content hashes are
    compared across passes within the run."""

    in_process = False  # traced in each CLI child, not in the worker
    setup_samples, min_rounds = 5, 2

    def setup(self, seed):
        import campanato_lab.cli  # noqa: F401  -- the user-visible import
        OUT_DIR.mkdir(exist_ok=True)
        names = list(COMMITTED_CONFIGS + BENCH_CONFIGS) + list(MALFORMED)
        return {"rng": np.random.default_rng(seed), "names": names,
                "tmp": None, "calls": 0}

    def _invoke(self, st, name):
        if st["tmp"] is None:
            st["tmp"] = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
        st["calls"] += 1
        out = st["tmp"] / f"{st['calls']:05d}-{name}"
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "campanato_lab.cli"]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"),
                   str(Path(self.trace_dir) / f"{st['calls']:05d}.json")]
        cmd += ["run", "--config", str(_config_path(name)), "--out", str(out)]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=150)
        return proc, out

    def round(self, st, clock):
        order = [st["names"][i] for i in st["rng"].permutation(len(st["names"]))]
        pass_time, pass_norm, failed, results = 0.0, 0.0, 0, {}
        for name in order:
            wall, norm, (proc, out) = clock.time(self._invoke, st, name)
            if name in MALFORMED:
                key = MALFORMED[name]
                if proc.returncode != 2 or not _names_key(proc.stderr, key):
                    failed += 1
                continue
            pass_time += wall
            pass_norm += norm
            results[name] = (proc.returncode, proc.stdout, out)
        return {"op_times": [pass_time], "norm_times": [pass_norm],
                "attempted": len(order), "failed": failed, "output": results}

    def peak_rss_kb(self, st):
        import resource
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def check(self, st, rounds):
        problems, hashes = [], {}
        if len(rounds) < 2:
            problems.append(f"{len(rounds)} pass, content hashes not compared")
        for r in rounds:
            for name, (code, stdout, out) in r["output"].items():
                lines = stdout.strip().splitlines()
                if code != 0 or not lines or lines[-1] != "overall: pass":
                    problems.append(f"{name}: exit {code}, last line "
                                    f"{lines[-1] if lines else ''!r}")
                    continue
                report = json.loads((out / "report.json").read_text())
                hashes.setdefault(name, set()).add(report["content_hash"])
        problems += [f"{name}: content_hash differs between passes"
                     for name, seen in hashes.items() if len(seen) > 1]
        for name, (code, _, out) in rounds[0]["output"].items():
            if code == 0:
                problems += check_tables(json.loads(_config_path(name).read_text()),
                                         out, name)
        if st["tmp"] is not None:
            shutil.rmtree(st["tmp"], ignore_errors=True)
        return problems


def reference_weight(cfg):
    family = cfg["family"]
    if family in ("one", "psi"):
        return (family,)
    if family in ("powerlog", "power"):
        if cfg.get("gamma", 0.0):
            raise ValueError("no closed form with a log-log factor")
        return ("powerlog", float(cfg.get("alpha", 0.0)), float(cfg.get("beta", 0.0)))
    if family == "quotient":
        return ("quotient", reference_weight(cfg["base"]))
    if family == "table":
        pts = sorted((float(r), float(v)) for r, v in cfg["points"])
        if len(pts) != 2:
            raise ValueError("closed form only for two-point tables")
        return ("table", tuple(pts))
    raise ValueError(f"unknown weight family {family!r}")


def _as_list(x):
    return x if isinstance(x, list) else [x]


def check_tables(config, out, name):
    """phi.csv against the closed forms; norms.csv against the reference
    seminorms."""
    import csv
    problems = []
    weights = [reference_weight(c) for c in _as_list(config.get("phi", {"family": "one"}))]
    suites = config.get("suites", ["verify"])
    if "phi_report" in suites:
        with open(out / "phi.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        labels = list(dict.fromkeys(row["phi"] for row in rows))
        if len(labels) != len(weights):
            return [f"{name}: phi.csv has {len(labels)} weights, config {len(weights)}"]
        for row in rows:
            w = weights[labels.index(row["phi"])]
            r = float(row["r"])
            problems += _mismatch(f"{name} phi.csv phi_star({w}, {r})",
                                  float(row["phi_star_r"]), float(ref.phi_star(w, r)))
            problems += _mismatch(f"{name} phi.csv phi({w}, {r})",
                                  float(row["phi_r"]), float(ref.phi(w, r)))
    if "norms" in suites:
        tree_cfg = config["tree"]
        shape = (ref.dyadic_shape(tree_cfg["depth"]) if tree_cfg["type"] == "dyadic"
                 else ref.shape_from_spec(tree_cfg["root"]))
        with open(out / "norms.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        labels = list(dict.fromkeys(row["phi"] for row in rows))
        for row in rows:
            w = weights[labels.index(row["phi"])]
            f = config_function(shape, config, row["function"], w)
            problems += _mismatch(f"{name} norms.csv {row['function']} {w} p={row['p']}",
                                  float(row["seminorm"]),
                                  ref.seminorm(shape, f, float(row["p"]), w))
    return problems


def config_function(shape, config, label, weight):
    """Leaf values of a config function from its norms.csv label."""
    kind, _, rest = label.partition(":")
    if kind == "indicator":
        level, index = (int(x) for x in rest.split(","))
        return ref.indicator(shape, level, index)
    if kind in ("extremal", "h"):
        f = ref.chain_function(shape, int(rest.split("=")[1]), weight)
        return f if kind == "extremal" else f - 1.0
    if kind == "random":
        seed, k = (int(x) for x in rest.split(":"))
        rng = np.random.default_rng(seed)
        for _ in range(k):
            rng.standard_normal(shape.leaf_count)
        return rng.standard_normal(shape.leaf_count)
    if kind == "leaf_values":
        return np.asarray(config["functions"][int(rest)]["values"], dtype=float)
    raise ValueError(f"no reference for config function {label!r}")


WORKLOADS = {
    "certificate": Certificate,
    "deep-norms": DeepNorms,
    "cli-configs": CliConfigs,
}
