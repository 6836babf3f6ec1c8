"""One traced `iwr` invocation, for the cli workload's traced run.

    python3 perfbench/cli_child.py <summary.json> <per_child_ns> <per_span_ns> <iwr arguments...>

Behaves like `python -m iwrlat <iwr arguments...>` (same stdout and exit code)
with every layer traced; <per_child_ns> and <per_span_ns> are the wrapper
costs the parent measured with `Tracer.calibrate`.  Writes the clock readings at its first statement
and after the import, plus the tracer's summary, to <summary.json>.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import iwrlat.cli  # noqa: E402

IMPORTED = time.perf_counter()

import json  # noqa: E402

import spans  # noqa: E402

if __name__ == "__main__":
    tracer = spans.Tracer(keep=0)
    tracer.per_child_ns, tracer.per_span_ns = int(sys.argv[2]), int(sys.argv[3])
    spans.install(tracer)
    code = 1
    try:
        with tracer.question(0):
            code = iwrlat.cli.run(sys.argv[4:])
    finally:
        with open(sys.argv[1], "w") as fh:
            json.dump({"start": START, "imported": IMPORTED, "summary": tracer.summary()}, fh)
    sys.exit(code)
