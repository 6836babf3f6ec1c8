"""Set-up probe: a fresh interpreter that imports iwrlat and runs one workload's warm-up.

    python3 perfbench/probe.py <workload> <seed>

Prints one JSON object with the monotonic clock read at its first statement,
after `import iwrlat` and after the warm-up; run.py subtracts its own launch
time to get the interpreter start, import and set-up times.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import iwrlat  # noqa: E402,F401  (found through the PYTHONPATH run.py sets)

IMPORTED = time.perf_counter()

import json  # noqa: E402

import ask  # noqa: E402
import inputs  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    for question in inputs.WARMUP[workload](seed):
        ask.ASK[workload](question)
    print(json.dumps({"start": START, "imported": IMPORTED, "ready": time.perf_counter()}))
