"""iwrlat benchmark: one seeded, single-process, closed-loop workload per run.

Run from the repository root (iwrlat is imported from ./src):

    python3 perfbench/run.py --workload query --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

One client asks the next question only after the previous answer is back,
with no threads.  Each run is a fresh process, so iwrlat's lru_caches start
empty.  `--trace 0` measures the end-to-end metrics for `--seconds` seconds of
question time, every time given at a reference host speed
(REFERENCE_NOMINAL_S); `--trace 1` answers a fixed number of blocks per workload
(TRACE_BLOCKS) with every layer wrapped in spans and reports the per-layer
metrics, plus the tracing overhead against an untraced replay of the same
blocks.  Each answer is checked outside its timed interval, in a separate
checker process.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Workloads,
metrics and the seed-commit defects they hit are described in NOTES.md.
"""

import argparse
import importlib.metadata
import json
import math
import os
import pickle
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15
# latency_tail_ms is this percentile, the same in every run of a workload, so
# a run that answers more questions does not report a higher percentile.  Each
# is the highest with at least ten questions beyond it in the shortest 18 s
# run at the seed commit (query 160 questions, census 760 rows, interference
# 162, cli 80); the report gives the number beyond.
TAIL_PERCENTILE = {"query": 93.5, "census": 98.5, "interference": 93.5, "cli": 87.5}
# blocks answered by a traced run (and by its untraced replay): fixed, so a
# faster commit lowers per-layer totals instead of answering more questions.
# 5-10 s of untraced question time per workload at the seed commit (query is
# short because tracing its tight optimize loop makes it four times slower).
TRACE_BLOCKS = {"query": 3, "census": 40, "interference": 10, "cli": 6}
# The host is shared and its speed drifts by up to a half within seconds
# (NOTES.md).  Every timed interval is bracketed by two readings of
# reference_s(), and its time is reported at the speed at which reference_s()
# takes REFERENCE_NOMINAL_S (about its median on the reference machine).
REFERENCE_NOMINAL_S = 6.0e-4


def reference_s() -> float:
    """Time of a fixed pure-Python loop (about 0.6 ms): the host's current speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1, 3000):
        s += gcd(i, 360) + i * i % 7
    return time.perf_counter() - t0


def host_speed(before: float) -> float:
    """Speed relative to nominal over an interval that began just after the reading `before`."""
    return REFERENCE_NOMINAL_S / (0.5 * (before + reference_s()))


# CPUs this process was allowed before pin_to_one_cpu()
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    numpy sizes its OpenBLAS thread pool by the CPUs a process may use; with
    two, set-up probes and cli invocations read 25% slower and moved with
    where the scheduler put those threads (NOTES.md).
    """
    os.sched_setaffinity(0, {ALLOWED_CPUS[0]})


class QuestionTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QuestionTimeout


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_library():
    sys.path.insert(0, str(SRC))
    import iwrlat

    if Path(iwrlat.__file__).resolve().parent != SRC / "iwrlat":
        raise SystemExit(f"iwrlat imported from {iwrlat.__file__}, not from {SRC}")
    return iwrlat


# ----------------------------------------------------------------- environment


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(ALLOWED_CPUS),
        "pinned_to_cpu": ALLOWED_CPUS[0],
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "fresh_process": True,
    }


# ----------------------------------------------------------------- set-up


class SetupProbes:
    """Set-up times of SETUP_PROBES fresh interpreters, each timed from its launch.

    In-process workloads: import iwrlat plus the workload's warm-up.  cli:
    a bare `python -c "import iwrlat"`, which every invocation pays.  The
    probes are spread evenly over the timed phase (between blocks, outside
    question time), so they see the same machine as the questions.
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed, self.samples = workload, seed, []

    def catch_up(self, progress: float) -> None:
        """Take probes until their share of SETUP_PROBES reaches `progress` (0 to 1)."""
        while len(self.samples) < min(progress, 1.0) * SETUP_PROBES:
            self.samples.append(self._probe())

    def _probe(self) -> dict:
        """Wall times of one probe; `setup_s` is also given at reference speed."""
        before = reference_s()
        launched = time.perf_counter()
        if self.workload == "cli":
            subprocess.run([sys.executable, "-c", "import iwrlat"], env=child_env(), cwd=ROOT,
                           check=True, capture_output=True)
            wall = time.perf_counter() - launched
            return {"setup_s": wall * host_speed(before), "wall_s": wall}
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), self.workload, str(self.seed)],
                              env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True)
        exited = time.perf_counter()
        t = json.loads(proc.stdout.splitlines()[-1])
        return {
            "setup_s": (t["ready"] - launched) * host_speed(before),
            "wall_s": t["ready"] - launched,
            "interp_s": t["start"] - launched,
            "import_s": t["imported"] - t["start"],
            "run_s": exited - t["imported"],
        }


class Checker:
    """verify.py in a process of its own, so the checks' imports (mpmath) and
    oracles stay out of the measuring process and its peak_rss_mb."""

    def __init__(self, workload: str):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "verify.py"), workload], env=child_env(),
                                     cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __call__(self, q, answer) -> list[str]:
        pickle.dump((q, answer), self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()


# ----------------------------------------------------------------- timed phase


class TracedCli:
    """Asks through cli_child.py, keeping each traced child's clock readings and summary."""

    def __init__(self, out_dir: Path, wrapper_ns: tuple[int, int]):
        import ask

        self.ask, self.out_dir, self.env, self.children = ask, out_dir, child_env(), []
        self.wrapper_ns = wrapper_ns  # (per_child_ns, per_span_ns) for the children's tracers

    def __call__(self, q):
        path = self.out_dir / f"cli-{len(self.children)}.json"
        argv = [sys.executable, str(HERE / "cli_child.py"), str(path), *map(str, self.wrapper_ns), *q["argv"]]
        answer = self.ask.ask_cli(q, self.env, ROOT, argv)
        with open(path) as fh:
            child = json.load(fh)
        path.unlink()
        self.children.append(dict(child, launched=answer["launched"], exited=answer["exited"]))
        return answer


def make_asker(workload: str):
    """The function that puts one question to the program."""
    import ask

    if workload != "cli":
        return ask.ASK[workload]
    env = child_env()
    return lambda q: ask.ask_cli(q, env, ROOT)


def timed_phase(workload: str, seed: int, asker, *, seconds=None, blocks=None, check=None, tracer=None,
                probes=None) -> dict:
    """Closed loop over whole blocks of the seeded stream.

    Runs until the questions themselves have taken `seconds` at reference
    speed, or for exactly `blocks` blocks.  Each answer is checked as soon
    as it is back, outside its timed interval, so no answer is kept.  Only the questions themselves
    are traced.  Set-up `probes` are taken between blocks.
    """
    import ask

    stream = inputs.QUESTIONS[workload](seed)
    records = []  # (question, outcome, problems, wall time, time at reference speed)
    busy = 0.0
    n_blocks = 0
    in_process = workload != "cli"
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    while (busy < seconds) if blocks is None else (n_blocks < blocks):
        if probes is not None:
            probes.catch_up(busy / seconds if blocks is None else n_blocks / blocks)
        n_blocks += 1
        for q in next(stream):
            problems = None
            if tracer is not None:
                tracer.recalibrate()
            before = reference_s()
            t0 = time.perf_counter()
            try:
                if in_process:
                    signal.setitimer(signal.ITIMER_REAL, ask.CEILING_S)
                try:
                    if tracer is not None:
                        with tracer.question(len(records)):
                            answer = asker(q)
                    else:
                        answer = asker(q)
                finally:
                    if in_process:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                outcome = "ok"
            except ask.Refused:
                outcome = "refused"
            except (QuestionTimeout, subprocess.TimeoutExpired):
                outcome, problems = "failed", [f"over the {ask.CEILING_S} s ceiling"]
            except Exception as exc:  # a raising question is a failed answer, not a failed run
                outcome, problems = "failed", [repr(exc)]
            wall = time.perf_counter() - t0
            latency = wall * host_speed(before)
            busy += latency
            if outcome == "ok" and check is not None:
                try:
                    problems = check(q, answer)
                except Exception as exc:  # an answer of the wrong shape fails its check
                    problems = [f"check raised {exc!r}"]
                if problems:
                    outcome = "failed"
            records.append((q, outcome, problems, wall, latency))
    # read before the checker exits, so RUSAGE_CHILDREN holds only the cli invocations and probes
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    if probes is not None:
        probes.catch_up(1.0)
    return {"records": records, "blocks": n_blocks, "busy_s": busy, "wall_s": time.perf_counter() - start,
            "peak_rss_mb": peak_rss_mb}


def outcomes(records) -> dict:
    failed = [r for r in records if r[1] == "failed"]
    return {
        "failed": len(failed),
        "refused": sum(1 for r in records if r[1] == "refused"),
        "problems": [
            {"question": {k: v for k, v in q.items() if k != "basis"}, "problems": problems}
            for q, _, problems, *_ in failed[:10]
        ],
    }


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """(value, questions beyond it) of the nearest-rank `percentile`."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# ----------------------------------------------------------------- runs


def prepare(workload: str, seed: int):
    """Everything before the first timed question: import and warm-up."""
    import_library()
    asker = make_asker(workload)
    for q in inputs.WARMUP[workload](seed):
        asker(q)
    return asker


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    asker = prepare(workload, seed)
    probes = SetupProbes(workload, seed)
    with Checker(workload) as check:
        phase = timed_phase(workload, seed, asker, seconds=seconds, check=check, probes=probes)
    setups = [p["setup_s"] for p in probes.samples]
    records = phase["records"]
    checked = outcomes(records)
    n = len(records)
    wall = [r[3] for r in records]
    latencies = [r[4] for r in records]
    percentile = TAIL_PERCENTILE[workload]
    tail_s, beyond = tail(latencies, percentile)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": n / phase["busy_s"],
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "answered_frac": (n - checked["failed"] - checked["refused"]) / n,
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    report = {
        "failed_frac": (checked["failed"] + checked["refused"]) / n,
        "refused_known_defect": checked["refused"],
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "wall_clock": {
            "throughput_qps": n / sum(wall),
            "latency_p50_ms": statistics.median(wall) * 1e3,
            "latency_tail_ms": tail(wall, percentile)[0] * 1e3,
            "setup_s": statistics.median(p["wall_s"] for p in probes.samples),
        },
        "host_speed_quartiles": statistics.quantiles([lat / w for w, lat in zip(wall, latencies)], n=4),
        "samples": n,
        "blocks": phase["blocks"],
        "question_time_s": phase["busy_s"],
        "wall_s": phase["wall_s"],
        "setup_samples_s": setups,
        "problems": checked["problems"],
        "inputs": inputs.input_properties(workload, seed, [r[0] for r in records]),
    }
    return metrics, checked, report


def run_traced(workload: str, seed: int) -> tuple[dict, dict, dict]:
    import spans

    asker = prepare(workload, seed)
    probes = SetupProbes(workload, seed)
    blocks = TRACE_BLOCKS[workload]
    tracer = spans.Tracer()
    wrapper_ns = tracer.calibrate()
    OUT.mkdir(exist_ok=True)
    if workload == "cli":
        asker = TracedCli(OUT, wrapper_ns)
        with Checker(workload) as check:
            phase = timed_phase(workload, seed, asker, blocks=blocks, check=check, probes=probes)
        children = asker.children
        summary = spans.merge([c["summary"] for c in children])
        split = {
            "interp_s": [c["start"] - c["launched"] for c in children],
            "import_s": [c["imported"] - c["start"] for c in children],
            "run_s": [c["exited"] - c["imported"] for c in children],
        }
    else:
        uninstall = spans.install(tracer)
        try:
            with Checker(workload) as check:
                phase = timed_phase(workload, seed, asker, blocks=blocks, check=check, tracer=tracer, probes=probes)
        finally:
            uninstall()
        summary = tracer.summary()
        split = {part: [p[part] for p in probes.samples] for part in ("interp_s", "import_s", "run_s")}
        tracer.write(OUT / f"spans-{workload}.json")
    checked = outcomes(phase["records"])
    n = len(phase["records"])
    replayed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--replay", str(blocks)],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    untraced_s = json.loads(replayed.stdout.splitlines()[-1])["question_time_s"]
    metrics = spans.layer_metrics(summary)
    for part, values in split.items():
        metrics[f"cli.{part}"] = statistics.median(values)
    metrics["trace.overhead_frac"] = phase["busy_s"] / untraced_s - 1.0
    report = {
        "samples": n,
        "blocks": blocks,
        "wrapper_ns_per_child_and_span": wrapper_ns,
        "recalibrated_ns_per_child_and_span_median": (
            [statistics.median(c[i] for c in tracer.calibrations) for i in (0, 1)] if tracer.calibrations else None),
        "wrapper_s_removed": summary["wrapper_ns"] / 1e9,
        "self_s_total": sum(summary["self_ns"].values()) / 1e9,
        "traced_question_time_s": phase["busy_s"],
        "traced_question_wall_s": sum(r[3] for r in phase["records"]),
        "untraced_question_time_s": untraced_s,
        "spans_kept": summary["spans_kept"],
        "spans_dropped": summary["spans_dropped"],
        "refused_known_defect": checked["refused"],
        "problems": checked["problems"],
    }
    return metrics, checked, report


def replay(workload: str, seed: int, blocks: int) -> None:
    """Untraced question time of the first `blocks` blocks, for trace.overhead_frac."""
    asker = prepare(workload, seed)
    print(json.dumps({"question_time_s": timed_phase(workload, seed, asker, blocks=blocks)["busy_s"]}))


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own fresh process; one table of end-to-end metrics."""
    rows = {}
    for workload in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        report = json.loads(lines[-2])
        rows[workload] = dict(json.loads(lines[-1])["metrics"], failed_frac={"value": report["failed_frac"], "unit": "frac"})
    names = [m["name"] for m in benchmark()["end_to_end"]] + ["failed_frac"]
    print(f"{'metric':<18}" + "".join(f"{w:>15}" for w in rows))
    for name in names:
        unit = rows["query"][name]["unit"]
        print(f"{name + ' [' + unit + ']':<18}" + "".join(f"{rows[w][name]['value']:>15.6g}" for w in rows))
    return 0


def benchmark() -> dict:
    """BENCHMARK.json: the metrics each mode reports, with their units."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "iwrlat" / "__init__.py").is_file():
        print(f"error: {SRC / 'iwrlat'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args.seed, int(args.seconds))
    if args.replay is not None:
        replay(args.workload, args.seed, args.replay)
        return 0

    listed = benchmark()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        metrics, checked, report = run_traced(args.workload, args.seed)
    else:
        metrics, checked, report = run_untraced(args.workload, args.seed, args.seconds)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), **report}
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in result_metrics.items():
        print(f"{args.workload:<13} {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(report))
    attempted = report["samples"]
    print(json.dumps({"correct": checked["failed"] == 0, "attempted": attempted, "failed": checked["failed"],
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
