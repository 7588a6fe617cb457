"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Checks the acceptance generator against the package's ``sample_operator``,
the metric names and units against BENCHMARK.json, rejection of an unknown
workload and of a directory without the sources, that traced and untraced
runs execute the same operators, and that the report digest repeats.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests(stdout: str) -> list[str]:
    return re.findall(r"digest sha256=([0-9a-f]{64})", stdout)


class GeneratorParity(unittest.TestCase):
    def test_acceptance_matches_sample_operator_at_seed_42(self):
        from jacobibands.ensemble import EnsembleConfig, sample_operator

        cfg = EnsembleConfig(seed=42)
        for k in range(1000):
            c = sample_operator(cfg, k)
            self.assertEqual(workloads.acceptance(42, k), (list(c.a), list(c.b)), f"trial {k}")

    def test_workload_names_match_benchmark_json(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(workloads.GENERATORS))

    def test_each_round_takes_one_operator_of_every_cost_bucket(self):
        costs = [(7 * i) % 40 for i in range(40)]  # 0..39, each once
        order = workloads.visit_order(costs, seed=5, buckets=8)
        self.assertEqual(sorted(order), list(range(40)))
        for r in range(5):
            buckets = [costs[i] // 5 for i in order[8 * r : 8 * r + 8]]
            self.assertEqual(buckets, [0, 4, 2, 6, 1, 5, 3, 7])
        self.assertNotEqual(order, workloads.visit_order(costs, seed=6, buckets=8))

    def test_cost_proxy_ranks_narrow_bands_dearer(self):
        wide = workloads.floquet_edges([1.0, 1.0], [0.0, 0.5])
        narrow = workloads.floquet_edges([0.1, 1.0], [0.0, 5.0])
        self.assertLess(workloads.cost_proxy(narrow), workloads.cost_proxy(wide))


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [
            ["ensemble", 0.0, 0.010, -1, 0, False],
            ["bands", 0.001, 0.008, 0, 0, False],
            ["bands.exact", 0.002, 0.004, 1, 0, False],
            ["floquet", 0.005, 0.006, 1, 0, True],
        ]
        m = tracing.layer_metrics(spans, {0: 7})
        self.assertAlmostEqual(m["ensemble.ms"], 3.0)
        self.assertAlmostEqual(m["bands.ms"], 4.0)
        self.assertAlmostEqual(m["bands.exact_ms"], 2.0)
        self.assertAlmostEqual(m["bands.ms.p06_10"], 6.0)
        self.assertAlmostEqual(m["floquet.ms.p06_10"], 1.0)
        self.assertEqual(m["bands.oracle_path"], 1)
        self.assertEqual(m["floquet.raised"], 1)


class Runs(unittest.TestCase):
    def check_metrics(self, result: dict, declared: list[dict]) -> None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_metric_printed_with_its_unit(self):
        for workload in workloads.GENERATORS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "0")
                result = result_of(proc)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertIn("fail_frac", proc.stdout)
                self.assertEqual(len(digests(proc.stdout)), 1)

    def test_traced_and_untraced_runs_execute_the_same_operators(self):
        for workload in workloads.GENERATORS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1", "--trials", "6")
                result = result_of(proc)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertEqual(result["attempted"], 6)
                plain, traced = digests(proc.stdout)
                self.assertEqual(plain, traced)
                self.assertTrue(result["correct"])

    def test_digest_repeats_at_one_seed(self):
        args = ("--workload", "touching", "--seed", "3", "--seconds", "1", "--trace", "1", "--trials", "8")
        first, second = bench(*args), bench(*args)
        self.assertEqual(digests(first.stdout), digests(second.stdout))

    def test_unknown_workload_is_rejected(self):
        proc = bench("--workload", "nonesuch", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_directory_without_sources_is_rejected(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "acceptance", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
