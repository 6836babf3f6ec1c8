"""Span tracer for the traced run.

The library is not edited.  `install` replaces every public function of each
layer (the functions in the module's `__all__` that the module defines) with
a wrapper, in every iwrlat namespace that holds the same object, so
`enumeration.divisors` and `iwrlat.divisors` are traced like
`arith.divisors`.  Each call made while a question is open becomes a span
(name, start, end, parent span, question id).  Self time is a span's
duration minus the time its direct children cover, minus the wrapper's own
cost; it is kept per layer as the run goes, so the totals are exact even
when the span buffer is full.

A wrapper costs time that untraced calls do not: outside the child's
[start, end] window (opening and closing the span, the counters' hook),
which lands in the parent's interval, and inside it (reading the clock,
the extra call).  Hooks are timed and treated as covered time.  The rest is
measured by `calibrate` on an empty wrapped function: `per_child_ns` comes
off the parent once per direct child, `per_span_ns` off every span.  All of
it is reported as `wrapper_ns`.

Counters are read at the same boundaries from arguments and results only,
never from private library state.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("arith", "classes", "enumeration", "optimize", "conic", "zeta", "cli")
# layers that report per-layer metrics; cli is traced so its own time is not
# charged to the first library layer below it
REPORTED = ("arith", "classes", "enumeration", "optimize", "conic", "zeta")
SPAN_BUFFER = 50_000


class Tracer:
    """Spans of the calls made while a question (or an enclosing span) is open."""

    def __init__(self, keep: int = SPAN_BUFFER):
        self.keep = keep
        self.names: list[str] = []  # before _name is first used
        self.spans: list[tuple] = []  # (id, name index, start ns, end ns, parent id, qid, self ns)
        self.dropped = 0
        self.qid = None
        self._stack: list[list] = []  # frames: [span id, layer, covered ns, name index, children]
        self.per_child_ns = 0
        self.per_span_ns = 0
        self.calibrations: list[tuple[int, int]] = []  # (per_child_ns, per_span_ns) of each recalibrate()
        self.wrapper_ns = 0
        self._next_id = 0
        self._question_name = self._name("bench.question")
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        # counters fed by HOOKS
        self.factorize_calls = 0
        self.factorize_repeats = 0
        self.factorize_seen: set[int] = set()
        self.max_arg_bits = 0
        self.divisors_visited = 0
        self.lattices = 0
        self.candidates = 0
        self.optimize_classes: set[tuple] = set()
        self.max_q_bits = 0
        self.radius_sum = 0
        self.radius_max = 0
        self.bound_over_eps: list[float] = []

    def _open(self, layer: str, name_idx: int) -> list:
        frame = [self._next_id, layer, 0, name_idx, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: int, end: int) -> None:
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
            self._stack[-1][4] += 1
        own = dur - frame[2]
        wrapper = min(own, frame[4] * self.per_child_ns + self.per_span_ns)
        self.wrapper_ns += wrapper
        own -= wrapper
        layer = frame[1]
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_ns[layer] = self.self_ns.get(layer, 0) + own
        if len(self.spans) < self.keep:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((frame[0], frame[3], start, end, parent, self.qid, own))
        else:
            self.dropped += 1

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, layer: str, name: str, fn, hook=None):
        name_idx = self._name(f"{layer}.{name}")
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside a question (warm-up, checks): not traced
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = self._open(layer, name_idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start, perf_counter_ns())
            if hook is not None:
                hook_start = perf_counter_ns()
                hook(self, args, kwargs, result, parent)
                hook_ns = perf_counter_ns() - hook_start
                parent[2] += hook_ns
                self.wrapper_ns += hook_ns
            return result

        return traced

    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> tuple[int, int]:
        """Set and return (`per_child_ns`, `per_span_ns`) from `repeats` loops of
        `calls` calls of an empty three-argument function, wrapped and direct
        (medians).

        per_child_ns: what a wrapped call adds to its parent's self time beyond
        a direct call.  per_span_ns: the span of the empty call, all of it
        wrapper cost (the direct call's cost stays with the parent).
        """
        def empty(a, b, c):
            return None

        traced = self.wrap("bench", "calibrate", empty)
        self.per_child_ns = self.per_span_ns = 0
        costs, spans = [], []
        for _ in range(repeats):
            start = perf_counter_ns()
            for i in range(calls):
                empty(i, i, i)
            direct = perf_counter_ns() - start
            frame = self._open("bench", self._question_name)
            start = perf_counter_ns()
            for i in range(calls):
                traced(i, i, i)
            own = perf_counter_ns() - start - frame[2]
            self._stack.pop()
            costs.append((own - direct) / calls)
            spans.append(frame[2] / calls)
        self.calls.clear()
        self.self_ns.clear()
        del self.spans[:]
        self.dropped = self.wrapper_ns = 0
        self.per_child_ns = max(0, round(statistics.median(costs)))
        self.per_span_ns = round(statistics.median(spans))
        return self.per_child_ns, self.per_span_ns

    def recalibrate(self) -> None:
        """Measure the wrapper's cost again, on a tracer of its own so this
        one keeps its spans and totals: the host's speed drifts between the
        calibration before the traced phase and a question late in it."""
        self.per_child_ns, self.per_span_ns = Tracer().calibrate(calls=2_000, repeats=3)
        self.calibrations.append((self.per_child_ns, self.per_span_ns))

    @contextmanager
    def question(self, qid: int):
        """Root span of one question; its self time is the benchmark's own."""
        self.qid = qid
        frame = self._open("bench", self._question_name)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, start, perf_counter_ns())
            self.qid = None

    def parent_name(self, parent) -> str | None:
        return None if parent is None else self.names[parent[3]]

    def summary(self) -> dict:
        """Raw totals; summaries of several processes add up with `merge`."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "factorize_calls": self.factorize_calls,
            "factorize_repeats": self.factorize_repeats,
            "factorize_distinct": len(self.factorize_seen),
            "max_arg_bits": self.max_arg_bits,
            "divisors_visited": self.divisors_visited,
            "lattices": self.lattices,
            "candidates": self.candidates,
            "optimize_classes": len(self.optimize_classes),
            "max_q_bits": self.max_q_bits,
            "radius_sum": self.radius_sum,
            "radius_max": self.radius_max,
            "bound_over_eps": list(self.bound_over_eps),
            "wrapper_ns": self.wrapper_ns,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["id", "name", "start_ns", "end_ns", "parent", "qid", "self_ns"],
                       "spans": self.spans, "dropped": self.dropped}, fh, separators=(",", ":"))


# ----------------------------------------------------------------- hooks


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _factorize(t, args, kwargs, result, parent):
    n = _arg(args, kwargs, 0, "n")
    t.factorize_calls += 1
    if n in t.factorize_seen:
        t.factorize_repeats += 1
    else:
        t.factorize_seen.add(n)
        t.max_arg_bits = max(t.max_arg_bits, n.bit_length())


def _divisors(t, args, kwargs, result, parent):
    if parent is not None and parent[1] == "enumeration":
        t.divisors_visited += len(result)


def _enumerate(t, args, kwargs, result, parent):
    t.lattices += len(result)


def _admissible(t, args, kwargs, result, parent):
    t.candidates += len(result)


def _class_from_mn(t, args, kwargs, result, parent):
    if t.parent_name(parent) == "optimize.optimize":
        t.optimize_classes.add((parent[0], result.triple()))


def _compose(t, args, kwargs, result, parent):
    t.max_q_bits = max(t.max_q_bits, result.q.bit_length())


def _epstein_zeta(t, args, kwargs, result, parent):
    eps = _arg(args, kwargs, 3, "eps")
    t.radius_sum += result.truncation_radius
    t.radius_max = max(t.radius_max, result.truncation_radius)
    t.bound_over_eps.append(result.abs_error_bound / eps)


HOOKS = {
    "arith.factorize": _factorize,
    "arith.divisors": _divisors,
    "enumeration.enumerate_iwr": _enumerate,
    "optimize.admissible_pairs": _admissible,
    "classes.class_from_mn": _class_from_mn,
    "conic.compose": _compose,
    "zeta.epstein_zeta": _epstein_zeta,
}


def install(tracer: Tracer, package: str = "iwrlat"):
    """Wrap every public layer function everywhere it is bound; returns an undo function."""
    importlib.import_module(package)
    wrapped: dict[int, tuple] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped[id(fn)] = (fn, tracer.wrap(layer, name, fn, HOOKS.get(f"{layer}.{name}")))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, value in list(vars(mod).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
                patched.append((mod, attr, value))

    def uninstall():
        for mod, attr, value in patched:
            setattr(mod, attr, value)

    return uninstall


# ----------------------------------------------------------------- metrics


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several processes (one per CLI invocation)."""
    total = Tracer(keep=0).summary()
    for s in summaries:
        for key, value in s.items():
            if key in ("calls", "self_ns"):
                for layer, v in value.items():
                    total[key][layer] = total[key].get(layer, 0) + v
            elif key in ("max_arg_bits", "max_q_bits", "radius_max"):
                total[key] = max(total[key], value)
            else:  # counts add up; the bound_over_eps lists concatenate
                total[key] += value
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(s: dict) -> dict[str, float]:
    """Per-layer metrics from a (merged) summary; names as in BENCHMARK.json."""
    out: dict[str, float] = {}
    for layer in REPORTED:
        out[f"{layer}.calls"] = s["calls"].get(layer, 0)
        out[f"{layer}.self_s"] = s["self_ns"].get(layer, 0) / 1e9
    out["optimize.candidates"] = s["candidates"]
    out["optimize.yield_frac"] = _ratio(s["optimize_classes"], s["candidates"])
    out["arith.distinct_args"] = s["factorize_distinct"]
    out["arith.repeat_frac"] = _ratio(s["factorize_repeats"], s["factorize_calls"])
    out["arith.max_arg_bits"] = s["max_arg_bits"]
    out["enumeration.lattices"] = s["lattices"]
    out["enumeration.divisors_visited"] = s["divisors_visited"]
    out["enumeration.yield_frac"] = _ratio(s["lattices"], s["divisors_visited"])
    out["conic.max_q_bits"] = s["max_q_bits"]
    out["zeta.radius_sum"] = s["radius_sum"]
    out["zeta.radius_max"] = s["radius_max"]
    out["zeta.bound_over_eps"] = statistics.median(s["bound_over_eps"]) if s["bound_over_eps"] else 0.0
    return out
