"""campanato-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout (the package is imported from src/, no
install needed).  Untraced (--trace 0) it prints the end-to-end metrics,
traced (--trace 1) the per-layer metrics; either way the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, OUT_DIR, ROOT, WORKLOADS, Clock, child_env

DEADLINE_S = 170.0  # the whole run, children included

# Per-layer metrics on the last line of a traced run: the self times of
# layers that every workload enters, and counts.  The full table of every
# span goes to the lines above it and to perfbench/out/trace-<workload>.json.
LAYER_TIMES = ("filtration.build_dyadic", "functions.leaf_function",
               "norms.oscillation_scan")
LAYER_SAMPLES = ("norms.float_scan_s",)
LAYER_CALLS = ("phi.eval_phi", "phi.phi_star", "filtration.truncate",
               "functions.conditional_expectation",
               "constructions.extremal_chain_function")
LAYER_COUNTS = ("norms.scans", "norms.leaf_visits",
                "phi.phi_star.quadrature_calls", "multiplier.family_members")
# Share of the time measured around the traced code that its spans may
# leave uncovered.
COVERAGE_TOL = {"certificate": 0.01, "deep-norms": 0.01, "cli-configs": 0.02}


class RunError(Exception):
    pass


def run_child(cmd, deadline):
    """Run a child in its own process group; if it overruns the deadline
    or this process is stopped, kill the group (the child and any CLI
    processes it started).  Returns (start time, CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"timed out: {' '.join(cmd)}")
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"exit {proc.returncode}: {' '.join(cmd)}\n{err}")
    return t0, subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def worker(args, deadline, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), *extra]
    t0, proc = run_child(cmd, deadline)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def import_times(deadline):
    """Cumulative `-X importtime` times of the package and of the scipy
    modules it pulls in (all through `from scipy import integrate`)."""
    _, proc = run_child([sys.executable, "-X", "importtime", "-c",
                         "import campanato_lab.cli"], deadline)
    entries = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1)) / 1e6))
    package = scipy = 0.0
    stack = []  # children are printed before their parent
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "campanato_lab.cli":
            package = cumulative
        if name.startswith("scipy") and not parent.startswith("scipy"):
            scipy += cumulative
        stack.append((depth, name))
    return {"import.campanato_lab_s": package, "import.scipy_integrate_s": scipy}


def measure(args, deadline):
    clock, setups, raw = Clock(), [], []
    for _ in range(WORKLOADS[args.workload].setup_samples):
        raw.append(worker(args, deadline, "--setup-only")["setup_s"])
        setups.append(clock.normalise(raw[-1]))
    res = worker(args, deadline, "--seconds", str(args.seconds))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "op_time_norm_s": (statistics.median(res["norm_times"]), "s"),
    }
    print(f"setup samples (s): {[round(s, 4) for s in raw]}, "
          f"normalised {[round(s, 4) for s in setups]}")
    print(f"operation times (s): {[round(t, 4) for t in res['op_times']]}, "
          f"median {statistics.median(res['op_times']):.4f}")
    print(f"normalised (s): {[round(t, 4) for t in res['norm_times']]}")
    return res, metrics


def measure_traced(args, deadline):
    from spans import ROOTS, summarize

    metrics = {k: (v, "s") for k, v in import_times(deadline).items()}
    trace_dir = OUT_DIR / f"trace-{args.workload}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    res = worker(args, deadline, "--seconds", str(args.seconds),
                 "--trace", str(trace_dir))
    files = sorted(trace_dir.glob("*.json"))
    if args.workload == "cli-configs":  # every invocation has both roots
        setup_div, op_div, per = res["rounds"], res["rounds"], "pass"
    else:
        setup_div, op_div, per = 1, res["rounds"], "set-up plus one operation"
    self_s, calls, counts, samples, wall, process_s = summarize(files, setup_div, op_div)
    shutil.rmtree(trace_dir)

    # The self times add up to the root spans' wall by construction; what
    # is checked is that the root spans cover the time measured around
    # them without the tracer: the worker's set-up and rounds, or each CLI
    # child's run from its first line (which leaves out only the import of
    # the tracer itself).
    if args.workload == "cli-configs":
        measured = process_s / op_div
    else:
        measured = (res["setup_wall_s"] / setup_div
                    + sum(res["round_wall_s"]) / op_div)
    total = sum(self_s.values())
    if not (1 - COVERAGE_TOL[args.workload]) * measured <= total <= 1.001 * measured:
        res["problems"].append(f"layer self times add up to {total:.4f} s, but "
                               f"{measured:.4f} s was measured around them")
    layers = {name: {"self_s": self_s[name], "calls": calls[name]}
              for name in sorted(self_s) if calls[name]}
    for name in LAYER_TIMES:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0.0), "count")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0.0), "count")
    for name in LAYER_SAMPLES:
        metrics[name] = (samples.get(name, 0.0), "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (sum(self_s[r] for r in ROOTS), "s")
    metrics["trace.measured_s"] = (measured, "s")
    metrics["trace.op_time_norm_s"] = (statistics.median(res["norm_times"]), "s")

    modules = {}
    for name, row in layers.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + row["self_s"]
    summary = {"workload": args.workload, "seed": args.seed,
               "rounds": res["rounds"], "per": per, "wall_s": wall,
               "modules_self_s": modules, "layers": layers, "counts": dict(counts),
               "median_scan_s": samples, "metrics": {k: v[0] for k, v in metrics.items()}}
    (OUT_DIR / f"trace-{args.workload}.json").write_text(json.dumps(summary, indent=1))
    print(f"traced wall {wall:.4f} s per {summary['per']}; self time by module:")
    for name, value in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {name:50s} {value:10.4f} s")
    print("self time by span:")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:50s} {row['self_s']:10.4f} s {row['calls']:12.1f} calls")
    for name, value in sorted(counts.items()):
        print(f"  {name:50s} {value:12.1f}")
    for name, value in sorted(samples.items()):
        print(f"  {name:50s} {value:12.6f} s (median per call)")
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "campanato_lab" / "__init__.py").is_file():
        print(f"no campanato_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        OUT_DIR.mkdir(exist_ok=True)
        run_child([sys.executable, "-c", "import campanato_lab.cli"], deadline)
        res, metrics = (measure_traced if args.trace else measure)(args, deadline)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
