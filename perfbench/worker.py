"""One fresh process of a benchmark run: set up a workload, then (unless
--setup-only) run whole rounds for --seconds, and at least the workload's
`min_rounds`, and check the outputs.

Prints one JSON line: the perf_counter reading when set-up finished
(perf_counter is the system-wide monotonic clock, so the parent can
subtract its own start reading), and for a measuring run the operation
times, counts, peak RSS and the problems found by the checks, and the
set-up and round times measured here without the tracer, which the spans
of a traced in-process run must cover.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import WORKLOADS, Clock  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None,
                    help="directory for span files (traced run)")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    wl.trace_dir = args.trace
    tracer = None
    if args.trace and wl.in_process:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    setup_start = time.perf_counter()
    if tracer is not None:
        with tracer.root("bench.setup"):
            state = wl.setup(args.seed)
    else:
        state = wl.setup(args.seed)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    rounds, round_s, clock = [], [], Clock()
    while (len(rounds) < wl.min_rounds
           or time.perf_counter() - ready < args.seconds):
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.root("bench.op"):
                rounds.append(wl.round(state, clock))
        else:
            rounds.append(wl.round(state, clock))
        round_s.append(time.perf_counter() - t0)
    if hasattr(wl, "peak_rss_kb"):
        rss_kb = wl.peak_rss_kb(state)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.save(Path(args.trace) / "worker.json")
    try:
        problems = wl.check(state, rounds)
    except Exception as exc:  # an output the checks cannot read is wrong
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    print(json.dumps({
        "ready": ready,
        "op_times": [t for r in rounds for t in r["op_times"]],
        "norm_times": [t for r in rounds for t in r["norm_times"]],
        "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_wall_s": ready - setup_start,
        "round_wall_s": round_s,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
