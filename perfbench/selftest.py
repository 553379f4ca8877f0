"""Smoke test of the benchmark itself: python3 perfbench/selftest.py

Short runs of every workload check that each metric named in
BENCHMARK.json is printed with its unit, that no op fails at this commit,
that a corrupted reference makes ops fail (so the checks are live), that
tracing leaves no wrapper behind, that a seed fixes the inputs, and that
the benchmark refuses to run without the vlink sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads
from tracing import Tracer, remaining_wrappers

WORKLOADS = tuple(workloads.WORKLOADS)
SECONDS = "1"


def bench(*args: str, root: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", "all", "--seed", "3", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def printed(proc: subprocess.CompletedProcess) -> dict[tuple[str, str], tuple[float, str]]:
    """(workload, metric) -> (value, unit) from the human-readable lines."""
    out = {}
    for line in proc.stdout.splitlines()[:-1]:
        fields = line.split()
        if len(fields) == 5 and fields[4].startswith("samples="):
            out[(fields[0], fields[1])] = (float(fields[2]), fields[3])
    return out


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def check_run(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        lines = printed(proc)
        for metric in self.spec[section]:
            for name in WORKLOADS:
                key = f"{name}.{metric['name']}"
                self.assertIn(key, result["metrics"])
                self.assertEqual(result["metrics"][key]["unit"], metric["unit"])
                self.assertEqual(lines[(name, metric["name"])][1], metric["unit"])
        return result, lines

    def test_end_to_end_metrics_and_no_failures(self):
        result, lines = self.check_run(bench("--seconds", SECONDS, "--trace", "0"), "end_to_end")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for name in WORKLOADS:
            self.assertEqual(lines[(name, "failed_ratio")][0], 0.0)

    def test_traced_metrics(self):
        result, lines = self.check_run(bench("--seconds", "2", "--trace", "1"), "per_layer")
        self.assertEqual(result["failed"], 0)
        for name in WORKLOADS:
            self.assertGreaterEqual(lines[(name, "trace.coverage")][0], 0.9)

    def test_corrupted_reference_fails_ops(self):
        lines = printed(bench("--seconds", SECONDS, "--corrupt-reference"))
        for name in WORKLOADS:
            self.assertGreater(lines[(name, "failed_ratio")][0], 0.0, name)

    def test_tracer_restores_every_binding(self):
        import vlink

        before = {name: getattr(vlink, name) for name in vlink.__all__}
        tracer = Tracer()
        tracer.install()
        self.assertIn("vlink.contraction.plan_contraction", list(remaining_wrappers()))
        self.assertIn("vlink.model.plan_contraction", list(remaining_wrappers()))
        self.assertTrue(tracer.restore())
        self.assertEqual(list(remaining_wrappers()), [])
        for name, obj in before.items():
            self.assertIs(getattr(vlink, name), obj, name)

    def test_seed_fixes_inputs(self):
        workdir = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")
        os.makedirs(workdir)
        try:
            for name in WORKLOADS:
                first = workloads.input_digest(name, 5, workdir)
                self.assertEqual(first, workloads.input_digest(name, 5, workdir))
                self.assertNotEqual(first, workloads.input_digest(name, 6, workdir))
        finally:
            shutil.rmtree(workdir)

    def test_refuses_without_sources(self):
        bare = os.path.join(HERE, "_work", f"bare-{os.getpid()}")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_work", "_out"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "moves", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=170,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
