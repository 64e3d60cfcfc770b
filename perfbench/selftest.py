"""Quick tests of the benchmark's own checks: each must pass on correct
values and fail once a value is corrupted.

    python3 perfbench/selftest.py

Runs in a few seconds on small inputs.  The tests live with the
benchmark (not under tests/) so the package's test run does not pay for
them.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def expect_problems(problems, corrupted):
    expect(problems, f"check passed although {corrupted} was corrupted")


# -- the reference against brute force ---------------------------------------------------


def brute_seminorm(shape, f, p, weight):
    best = 0.0
    for n in range(shape.depth):
        for j in range(len(shape.lengths[n])):
            s, e = shape.span(n, j)
            m = shape.leaf_measures[s:e]
            avg = sum(f[s:e] * m) / sum(m)
            integral = sum(abs(f[s:e] - avg) ** p * m)
            val = (integral / sum(m)) ** (1 / p) / float(ref.phi(weight, sum(m)))
            best = max(best, val)
    return best


def test_reference_seminorm_matches_definition():
    rng = np.random.default_rng(5)
    _, shape = wl.split_tree(rng, 5, exact=False)
    f = rng.standard_normal(shape.leaf_count)
    for p in (1, 2):
        for w in (("one",), ("psi",), ("powerlog", 0.3, 0.0)):
            a, b = ref.seminorm(shape, f, p, w), brute_seminorm(shape, f, p, w)
            expect(ref.rel_err(a, b) < 1e-12, f"prefix scan {a} vs loop {b}")


def test_reference_exact_norm_matches_fractions():
    rng = np.random.default_rng(6)
    _, shape = wl.split_tree(rng, 5, exact=True)
    f = rng.integers(-50, 51, shape.leaf_count).tolist()
    m = [Fraction(x) for x in shape.leaf_measures]
    best = Fraction(0)
    for n in range(shape.depth):
        for j in range(len(shape.lengths[n])):
            s, e = shape.span(n, j)
            mass = sum(m[s:e])
            avg = sum(fi * mi for fi, mi in zip(f[s:e], m[s:e])) / mass
            best = max(best, sum(abs(fi - avg) * mi
                                 for fi, mi in zip(f[s:e], m[s:e])) / mass)
    want = best + abs(sum(fi * mi for fi, mi in zip(f, m)))
    expect(ref.exact_norm(shape, f) == want, "integer scan differs from Fractions")


def test_reference_phi_star_matches_quadrature():
    from scipy.integrate import quad
    for w in (("one",), ("psi",), ("powerlog", 0.3, 0.0), ("powerlog", 0.2, 1.0),
              ("quotient", ("powerlog", 0.2, 1.0)), ("table", ((1e-3, 0.5), (1.0, 1.0)))):
        for r in (0.5, 1e-3, 2.0 ** -30):
            s = math.log(1 / r)
            val, _ = quad(lambda u: float(ref.phi(w, math.exp(-u))), 0, s,
                          epsabs=1e-13, epsrel=1e-12, limit=200)
            expect(ref.rel_err(ref.phi_star(w, r), 1 + val) < 1e-9,
                   f"phi_star{w} at {r}")


def test_reference_chain_function_identity():
    # Every increment of the chain sum has mean zero, so E f = 1.
    shape = ref.dyadic_shape(6)
    f = ref.chain_function(shape, 9, ("psi",))
    expect(abs(ref.mean(shape, f) - 1.0) < 1e-12, "chain function mean is not 1")


def test_clock_normalises_by_the_calibration():
    saved = wl.calibrate
    try:
        readings = iter([2 * wl.CAL_REF_S, 2 * wl.CAL_REF_S, 4 * wl.CAL_REF_S])
        wl.calibrate = lambda: next(readings)
        clock = wl.Clock()
        wall, norm, out = clock.time(lambda: time.sleep(0.05) or "done")
        expect(out == "done" and wall >= 0.05, "the operation's result or wall time")
        expect(abs(norm - wall / 2) < 1e-12, f"normalised {norm} for wall {wall}")
        wall, norm, _ = clock.time(lambda: None)
        expect(abs(norm - wall / 3) < 1e-12, "mean of the bracketing calibrations")
    finally:
        wl.calibrate = saved


# -- certificate -------------------------------------------------------------------------


class SmallCertificate(wl.Certificate):
    DEPTH = 6


def test_certificate_check_catches_corruption():
    cert = SmallCertificate()
    st = cert.setup(2026)
    out = cert.round(st, wl.Clock())["output"]
    expect(not cert.check(st, [{"output": out}] * 3), "correct output rejected")
    corrupt = {0: out[0] * (1 + 1e-7), 1: out[1] * (1 + 1e-7), 2: "rand:5",
               3: 0.5, 4: out[4] - 1, 5: 1, 6: "assumptions unmet"}
    for i, bad in corrupt.items():
        broken = out[:i] + (bad,) + out[i + 1:]
        expect_problems(cert.check(st, [{"output": broken}]), f"field {i}")
    expect_problems(cert.check(st, [{"output": out}, {"output": out[:3] + (9.9,) + out[4:]}]),
                    "a second round")


# -- deep norms ---------------------------------------------------------------------------------


class SmallDeep(wl.DeepNorms):
    DEPTH, SPLIT_DEPTH, EXACT_DEPTH, EXACT_SPLIT_DEPTH = 6, 5, 5, 4


def test_deep_norms_check_catches_corruption():
    w = SmallDeep()
    st = w.setup(1)
    floats, exacts = w.round(st, wl.Clock())["output"]
    expect(not w.check(st, [{"output": (floats, exacts)}] * 3), "correct batch rejected")
    bad = list(floats)
    bad[7] *= 1 + 1e-7
    st["warm"] = bad
    expect_problems(w.check(st, [{"output": (bad, exacts)}]), "one norm of the batch")
    st["warm"] = floats
    expect_problems(w.check(st, [{"output": (floats, exacts)},
                                 {"output": (bad, exacts)}]), "a second round")
    real = st["cl"]

    class Skewed:  # a seminorm that is not translation invariant
        def __getattr__(self, name):
            return getattr(real, name)

        def campanato_seminorm(self, f, p, spec):
            res = real.campanato_seminorm(f, p, spec)
            return type(res)(value=res.value + 1e-6 * float(np.mean(f.values_array)))

    st["cl"] = Skewed()
    expect_problems(w.check(st, [{"output": (floats, exacts)}]), "seminorm(f + c)")


def test_exact_norms_check_catches_corruption():
    w = SmallDeep()
    st = w.setup(2)
    floats, exacts = w.round(st, wl.Clock())["output"]
    expect(not w.check(st, [{"output": (floats, exacts)}]), "correct exact norms rejected")
    expect_problems(w.check(st, [{"output": (floats, [exacts[0] + Fraction(1, 10 ** 12),
                                                       exacts[1]])}]),
                    "an exact norm by 1e-12")
    expect_problems(w.check(st, [{"output": (floats, [float(exacts[0]), exacts[1]])}]),
                    "an exact norm's type")


# -- CLI outputs -------------------------------------------------------------------------------


def _rewrite(path, column, row_index, factor):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row_index][column] = repr(float(rows[row_index][column]) * factor)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _cli_run(config_path, out):
    return subprocess.run([sys.executable, "-m", "campanato_lab.cli", "run",
                           "--config", str(config_path), "--out", str(out)],
                          env=wl.child_env(), check=True, capture_output=True, text=True)


def test_cli_table_checks_catch_corruption():
    wl.OUT_DIR.mkdir(exist_ok=True)
    config_path = wl.ROOT / "configs" / "splits.json"
    config = json.loads(config_path.read_text())
    with tempfile.TemporaryDirectory(dir=wl.OUT_DIR) as tmp:
        out = Path(tmp)
        _cli_run(config_path, out)
        expect(not wl.check_tables(config, out, "splits"), "correct tables rejected")
        _rewrite(out / "phi.csv", "phi_star_r", 5, 1 + 1e-7)
        expect_problems(wl.check_tables(config, out, "splits"), "a phi_star cell")
        _rewrite(out / "phi.csv", "phi_star_r", 5, 1 / (1 + 1e-7))
        _rewrite(out / "norms.csv", "seminorm", 3, 1 + 1e-7)
        expect_problems(wl.check_tables(config, out, "splits"), "a seminorm cell")


def test_content_hash_must_repeat_across_passes():
    wl.OUT_DIR.mkdir(exist_ok=True)
    cli = wl.CliConfigs()
    tmp = Path(tempfile.mkdtemp(dir=wl.OUT_DIR))
    rounds = []
    for i in range(2):
        out = tmp / str(i)
        proc = _cli_run(wl._config_path("psi"), out)
        rounds.append({"output": {"psi": (0, proc.stdout, out)}})
    expect(not cli.check({"tmp": None}, rounds), "repeated passes rejected")
    expect_problems(cli.check({"tmp": None}, rounds[:1]), "the second pass (missing)")
    report = tmp / "1" / "report.json"
    data = json.loads(report.read_text())
    data["content_hash"] = "0" * 64
    report.write_text(json.dumps(data))
    expect_problems(cli.check({"tmp": tmp}, rounds), "a content hash")


def test_malformed_config_message_must_name_the_key():
    expect(wl._names_key("config error: p: must be a number, got 'x'", "p"), "named key")
    expect(not wl._names_key("Traceback ...\nValueError: could not convert", "p"),
           "traceback accepted")
    expect(not wl._names_key("config error: tree: missing", "seed"), "other key accepted")


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every failing test, then exit 1
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures} of {len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
