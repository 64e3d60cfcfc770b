"""Launch the campanato-lab CLI with the span wrappers installed.

    python3 perfbench/cli_child.py TRACE_FILE <campanato-lab arguments>

The package comes from PYTHONPATH (the checkout's src/).  The wrappers
are installed before `main` runs, and the span totals are saved to
TRACE_FILE when it returns or raises, together with the time from this
script's first line to that point, read without the tracer.  Untraced
invocations run `python3 -m campanato_lab.cli` directly.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

from spans import Tracer  # noqa: E402  -- the script's directory is on sys.path


def traced(path, argv):
    tracer = Tracer()
    try:
        with tracer.root("bench.setup"):
            tracer.install()
        import campanato_lab.cli
        with tracer.root("bench.op"):
            return campanato_lab.cli.main(argv)
    finally:
        tracer.save(path, process_s=time.perf_counter() - START)


if __name__ == "__main__":
    sys.exit(traced(sys.argv[1], sys.argv[2:]))
