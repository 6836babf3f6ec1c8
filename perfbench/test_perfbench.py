"""The benchmark's own tests.

    python3 -m pytest perfbench          # or: python3 perfbench/test_perfbench.py
"""

import itertools
import sys
import time
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ask  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402


def _prefix(workload, seed, n=40):
    return list(itertools.islice(itertools.chain.from_iterable(inputs.QUESTIONS[workload](seed)), n))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in inputs.WORKLOADS:
            self.assertEqual(_prefix(workload, 7), _prefix(workload, 7), workload)
            self.assertEqual(inputs.WARMUP[workload](7), inputs.WARMUP[workload](7), workload)

    def test_other_seed_other_inputs(self):
        for workload in inputs.WORKLOADS:
            self.assertNotEqual(_prefix(workload, 7), _prefix(workload, 8), workload)

    def test_warmup_never_in_timed_stream(self):
        for workload in inputs.WORKLOADS:
            timed = _prefix(workload, 3, 5000 if workload == "census" else 400)
            for q in inputs.WARMUP[workload](3):
                self.assertNotIn(q, timed, workload)

    def test_query_inputs_in_range(self):
        for q in _prefix("query", 5, 500):
            self.assertTrue(10 <= q["M"] <= 300_000)
            self.assertIn(q["D"], inputs.SQUAREFREE_D)
            a, b, c, d = q["basis"]
            self.assertIn(a * d - b * c, (1, -1))

    def test_query_blocks_hold_a_pair_per_slice_of_log_m(self):
        import math

        lo, hi = (math.log(m) for m in inputs.QUERY_M_RANGE)
        for block in itertools.islice(inputs.QUESTIONS["query"](4), 20):
            slices = sorted(min(int((math.log(q["M"]) - lo) / (hi - lo) * inputs.QUERY_STRATA), inputs.QUERY_STRATA - 1)
                            for q in block)
            self.assertEqual(slices, sorted(2 * list(range(inputs.QUERY_STRATA))))

    def test_interference_determinants_are_not_empty(self):
        for seed in range(20):
            for M, D in inputs.interference_determinants(seed):
                spec = ask.classes.DeterminantSpec(M, D)
                self.assertTrue(ask.enumeration.enumerate_iwr(spec), (M, D))


class VerifierTest(unittest.TestCase):
    def test_query_answer_passes_then_wrong_k_fails(self):
        q = {"kind": "query", "M": 24, "D": 5, "basis": (2, 1, 1, 1)}
        answer = ask.ask_query(q)
        self.assertEqual(verify.check_query(q, answer), [])
        cls, k = answer["classified"][0]
        answer["classified"][0] = (cls, k + 1)
        self.assertTrue(verify.check_query(q, answer))

    def test_wrong_optimum_fails(self):
        q = {"kind": "query", "M": 24, "D": 5, "basis": (1, 0, 0, 1)}
        answer = ask.ask_query(q)
        answer["best"] = answer["best"]._replace(lattice=answer["lattices"][0])
        self.assertTrue(verify.check_query(q, answer))

    def test_zeta_answer_passes_then_wrong_value_fails(self):
        for shape in ("hexagonal", "square"):
            q = {"kind": "zeta", "s": 2.0, "rel": 1e-5, "shape": shape, "k": 5}
            answer = ask.ask_interference(q)
            self.assertEqual(verify.check_interference(q, answer), [])
            wrong = replace(answer["result"], value=answer["result"].value * (1 + 1e-4))
            self.assertTrue(verify.check_interference(q, dict(answer, result=wrong)), shape)

    def test_zeta_bound_above_eps_fails(self):
        q = {"kind": "zeta", "s": 3.0, "rel": 1e-12, "shape": "hexagonal", "k": 4}
        answer = ask.ask_interference(q)
        loose = replace(answer["result"], abs_error_bound=answer["eps"] * 2)
        self.assertTrue(verify.check_interference(q, dict(answer, result=loose)))

    def test_cli_wrong_class_fails(self):
        q = {"kind": "classify", "argv": ["classify", "--gram", "2,1,2"], "class": (1, 1, 2, 3), "k": 1}
        good = '{"class": {"p": 1, "r": 1, "q": 2, "D": 3}, "k": 1, "min_norm": 2}'
        self.assertEqual(verify.check_cli(q, {"returncode": 0, "stdout": good, "stderr": ""}), [])
        bad = good.replace('"k": 1', '"k": 2')
        self.assertTrue(verify.check_cli(q, {"returncode": 0, "stdout": bad, "stderr": ""}))
        self.assertTrue(verify.check_cli(q, {"returncode": 2, "stdout": "", "stderr": "error"}))


class MetricNamesTest(unittest.TestCase):
    def test_traced_run_computes_every_per_layer_metric(self):
        import run

        per_layer = [m["name"] for m in run.benchmark()["per_layer"]]
        summary = spans.Tracer().summary()
        reported = [*spans.layer_metrics(summary), "cli.interp_s", "cli.import_s", "cli.run_s", "trace.overhead_frac"]
        self.assertEqual(sorted(per_layer), sorted(reported))

    def test_tail_is_the_same_percentile_whatever_the_sample_count(self):
        import run

        for n in (100, 176, 192):
            value, beyond = run.tail([float(i) for i in range(1, n + 1)], 94.0)
            self.assertAlmostEqual(value / n, 0.94, delta=1 / n)
            self.assertEqual(beyond, n - value)


class TracerTest(unittest.TestCase):
    def test_self_time_never_negative_on_nested_spans(self):
        tracer = spans.Tracer()

        def busy(seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass

        inner = tracer.wrap("arith", "inner", lambda: busy(0.002))

        def outer_body():
            inner()
            busy(0.001)
            inner()

        outer = tracer.wrap("enumeration", "outer", outer_body)
        with tracer.question(0):
            outer()
            outer()
        self.assertEqual(len(tracer.spans), 7)
        root = tracer.spans[-1]
        for span in tracer.spans:
            self.assertGreaterEqual(span[6], 0, tracer.names[span[1]])
        self.assertEqual(sum(tracer.self_ns.values()), root[3] - root[2])
        self.assertEqual(tracer.calls, {"arith": 4, "enumeration": 2, "bench": 1})

    def test_wrapper_cost_comes_off_the_parent_and_never_below_zero(self):
        tracer = spans.Tracer()
        per_child, per_span = tracer.calibrate(calls=2000, repeats=3)
        self.assertGreater(per_child, 0)
        self.assertGreater(per_span, 0)
        self.assertEqual((tracer.calls, tracer.spans), ({}, []))
        tracer.per_child_ns = 10**9  # far more than the parent's own time
        leaf = tracer.wrap("arith", "leaf", lambda: None)
        outer = tracer.wrap("enumeration", "outer", lambda: [leaf() for _ in range(3)])
        with tracer.question(0):
            outer()
        for span in tracer.spans:
            self.assertGreaterEqual(span[6], 0, tracer.names[span[1]])
        self.assertEqual(tracer.self_ns["enumeration"], 0)
        root = tracer.spans[-1]
        self.assertEqual(sum(tracer.self_ns.values()) + tracer.wrapper_ns, root[3] - root[2])

    def test_install_wraps_every_binding_and_uninstall_restores(self):
        import iwrlat
        from iwrlat import arith

        enumeration = ask.enumeration
        original = arith.divisors
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            self.assertIsNot(arith.divisors, original)
            self.assertIs(enumeration.divisors, arith.divisors)
            self.assertIs(iwrlat.divisors, arith.divisors)
            enumeration.enumerate_iwr(ask.classes.DeterminantSpec(24, 5))  # outside a question
            self.assertEqual(tracer.calls, {})
            with tracer.question(0):
                found = enumeration.enumerate_iwr(ask.classes.DeterminantSpec(24, 5))
        finally:
            uninstall()
        self.assertIs(arith.divisors, original)
        self.assertIs(enumeration.divisors, original)
        metrics = spans.layer_metrics(tracer.summary())
        self.assertEqual(metrics["enumeration.lattices"], len(found))
        self.assertGreater(metrics["enumeration.divisors_visited"], 0)
        self.assertGreater(metrics["arith.calls"], 0)


if __name__ == "__main__":
    unittest.main()
