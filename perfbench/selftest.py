"""Self-tests of the benchmark's tracer and output checks.

Run from the root of an ltlab checkout (about 15 s):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from itertools import count
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, setup_methods  # noqa: E402


class TracerTest(unittest.TestCase):
    def test_self_times_sum_to_root(self):
        ticks = count(0, 7)
        tracer = Tracer(clock=lambda: next(ticks))
        ns = {}

        def leaf():
            return sum(range(100))

        def middle():
            return ns["leaf"]() + ns["leaf"]()

        def root():
            return ns["middle"]() + ns["leaf"]() + sum(ns["gen"]())

        def gen():
            yield ns["leaf"]()
            yield 1

        for name, fn in (("leaf", leaf), ("middle", middle), ("root", root), ("gen", gen)):
            ns[name] = tracer.wrap(name, fn)
        ns["root"]()
        stats = tracer.snapshot()
        spans = stats["spans"]
        self.assertEqual(sum(v[2] for v in spans.values()), spans["root"][1])
        self.assertEqual(spans["leaf"][0], 4)
        self.assertEqual(spans["gen"][0], 3)  # one span per next(), the last raising StopIteration
        self.assertEqual(stats["yields"], {"gen": 2})
        self.assertTrue(all(v[2] > 0 for v in spans.values()))

    def test_install_covers_reexports_and_uninstall_restores(self):
        import ltlab.cli
        import ltlab.nc_metrics
        import ltlab.trainer

        originals = (ltlab.trainer.make_report, ltlab.nc_metrics.pinv, ltlab.cli.run_experiment)
        tracer = Tracer()
        names = tracer.install()
        try:
            for name in ("nc_metrics.make_report", "linalg.pinv", "trainer.run_experiment",
                         "cli.cmd_train", "cli.main", "data.batch_iter",
                         "nc_metrics.FeatureBank.from_labels"):
                self.assertIn(name, names)
            self.assertIsNot(ltlab.trainer.make_report, originals[0])
            self.assertIs(ltlab.trainer.make_report, ltlab.nc_metrics.make_report)
            self.assertIsNot(ltlab.nc_metrics.pinv, originals[1])
            self.assertIsNot(ltlab.cli.run_experiment, originals[2])
        finally:
            tracer.uninstall()
        self.assertEqual((ltlab.trainer.make_report, ltlab.nc_metrics.pinv, ltlab.cli.run_experiment),
                         originals)


class OutputTest(unittest.TestCase):
    def test_traced_and_untraced_outputs_are_byte_identical(self):
        bench = run.Bench(ROOT, "methods", 11, trace=0)
        bench.work.mkdir(parents=True)
        try:
            plain, _ = bench.spawn(trace=0)
            traced, _ = bench.spawn(trace=1)
            self.assertIn("trace", traced)
            for result in (plain, traced):
                self.assertTrue(all(r["rc"] == 0 for r in result["runs"]), result["runs"])
            for name in plain["outputs"]:
                a = checks.fingerprint(Path(plain["outputs"][name]))
                b = checks.fingerprint(Path(traced["outputs"][name]))
                self.assertIn("metrics.csv", a)
                self.assertEqual(a, b, name)
        finally:
            import shutil
            shutil.rmtree(bench.work, ignore_errors=True)

    def test_reference_check_fails_when_method_is_swapped(self):
        import ltlab.cli

        ref = checks.load_reference("methods")
        with tempfile.TemporaryDirectory() as tmp:
            _, invs = setup_methods(ROOT, Path(tmp), DEFAULT_SEED)
            inv = next(i for i in invs if i.name == "ce")
            swapped = tuple("inverse" if a == "ce" else a for a in inv.argv)
            self.assertNotEqual(swapped, inv.argv)
            only_ce = dict(ref, invocations={"ce": ref["invocations"]["ce"]})
            for argv, should_pass in ((inv.argv, True), (swapped, False)):
                with contextlib.redirect_stdout(io.StringIO()):
                    self.assertEqual(ltlab.cli.main(list(argv)), 0)
                outputs = {"ce": checks.read_outputs(inv.out)}
                problems = checks.check_reference(outputs, only_ce)
                self.assertEqual(not problems, should_pass, problems)
                if not should_pass:
                    # The loss values alone catch it, not just the method name.
                    self.assertTrue(any("metrics.csv" in p for _, p in problems), problems)

    def test_tolerance_admits_reordered_sums_only(self):
        ref = checks.load_reference("methods")
        outputs = {name: {f: (json.dumps(v) if f.endswith(".json") else "\n".join(v) + "\n")
                          for f, v in files.items()}
                   for name, files in ref["invocations"].items()}
        self.assertEqual(checks.check_reference(outputs, ref), [])
        rows = ref["invocations"]["focal"]["metrics.csv"]
        last = rows[-1].split(",")
        for rel, should_pass in ((1e-13, True), (1e-6, False)):
            bumped = last[:1] + [repr(float(v) * (1 + rel)) for v in last[1:]]
            changed = dict(outputs, focal=dict(outputs["focal"],
                           **{"metrics.csv": "\n".join(rows[:-1] + [",".join(bumped)]) + "\n"}))
            self.assertEqual(not checks.check_reference(changed, ref), should_pass, rel)

    def test_sweep_claims_hold_on_reference(self):
        ref = checks.load_reference("sweep")
        outputs = {name: {f: (json.dumps(v) if f.endswith(".json") else "\n".join(v) + "\n")
                          for f, v in files.items()}
                   for name, files in ref["invocations"].items()}
        self.assertEqual(checks.check_sweep_claims(outputs), [])
        # Swapping the ce and inverse arms at IF=100 must break criterion 3.
        swapped = dict(outputs, **{"if100-ce": outputs["if100-inverse-both"],
                                   "if100-inverse-both": outputs["if100-ce"]})
        self.assertTrue(any("criterion 3" in p for _, p in checks.check_sweep_claims(swapped)))


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_reported_metrics(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.per_layer_spec())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    os.environ.update(run.THREAD_ENV)
    unittest.main()
