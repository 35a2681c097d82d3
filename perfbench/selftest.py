"""The benchmark's own tests.

Run from the root of a checkout with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``).  The file name keeps it out of
the package's default test collection, because it starts CLI processes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hyperhomology import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace, "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertTrue(
                            any(l.startswith(f"metric {name} = ") and l.endswith(f" {unit}") for l in lines),
                            f"{name} not printed with {unit}",
                        )

    def test_unknown_workload_is_refused(self):
        proc = bench("no-such-workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class CheckerTest(unittest.TestCase):
    """A corrupted answer must count as a failed query."""

    def setUp(self):
        self.workload = workloads.lattice_ladder(5, smoke=True)
        self.tmp = run.OUT_DIR / "selftest-docs"
        self.tmp.mkdir(parents=True, exist_ok=True)
        run.write_docs(self.workload, self.tmp)
        self.query = next(q for q in self.workload.queries if q.kind == "homology")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.code = cli.run_command(run.resolve(self.query.args, self.tmp))
        self.answer = json.loads(out.getvalue())

    def tearDown(self):
        for path in self.tmp.iterdir():
            path.unlink()
        self.tmp.rmdir()

    def fail_ratio(self, answer) -> float:
        attempts = [run.Attempt(self.query, self.code, json.dumps(answer), 0.1)]
        failed, _ = run.evaluate(attempts, checker.Checker(self.workload.docs))
        return failed / len(attempts)

    def test_correct_answer_passes(self):
        self.assertEqual(self.fail_ratio(self.answer), 0.0)

    def test_wrong_rank_fails(self):
        bad = copy.deepcopy(self.answer)
        bad["rank_image_boundary"] += 1
        self.assertEqual(self.fail_ratio(bad), 1.0)

    def test_cycle_with_nonzero_boundary_fails(self):
        bad = copy.deepcopy(self.answer)
        self.assertTrue(bad["h1_basis"])
        cycle = bad["h1_basis"][0]
        # adds the boundary of one edge, which is never zero
        cycle[next(iter(cycle))] += 1
        self.assertEqual(self.fail_ratio(bad), 1.0)

    def test_query_past_its_cap_is_a_failure(self):
        runner = run.Runner()
        runner.deadline = time.perf_counter() + 0.01
        graphlike = next(q for q in self.workload.queries if q.kind == "graphlike")
        attempt = runner.inprocess(graphlike, self.tmp, cli.run_command)
        self.assertEqual(attempt.note, "timed out")
        failed, _ = run.evaluate([attempt], checker.Checker(self.workload.docs))
        self.assertEqual(failed, 1)


if __name__ == "__main__":
    unittest.main()
