"""Self-test of the benchmark's failure accounting and input seeding.

    python3 perfbench/selftest.py

Feeds the harness a wrong answer and a raising call, and checks that each
is counted as a failed op of its layer and makes the run report failure.
"""

from __future__ import annotations

import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.load_library()

import run  # noqa: E402
import workloads  # noqa: E402


def cheap_ops(seed: int = 1) -> list[harness.Op]:
    """The counting workload's ops up to its first count_lattice_points call."""
    ops, _ = workloads.build("counting", seed)
    return ops[: next(i for i, op in enumerate(ops) if op.func == "count_lattice_points")]


class FailureAccounting(unittest.TestCase):
    def tamper(self, func: str, replacement) -> tuple[list[harness.Op], int]:
        ops = cheap_ops()
        index = next(i for i, op in enumerate(ops) if op.func == func)
        ops[index].fn = replacement(ops[index].fn)
        return ops, index

    def test_clean_pass_has_no_failures(self):
        record = harness.run_pass(cheap_ops(), trace=False)
        self.assertEqual(record["failed"], 0, record["failures"])
        self.assertEqual(run.consistency([record]), [])

    def test_wrong_answer_is_a_failed_op(self):
        ops, index = self.tamper("dimension", lambda real: lambda region: real(region) + 1)
        record = harness.run_pass(ops, trace=False)
        self.assertEqual(record["failed"], 1)
        self.assertEqual(record["layers"]["polytope"]["failed"], 1)
        self.assertIn(f"op {index} polytope.dimension", record["failures"][0])
        self.assertIn("wrong answer", record["failures"][0])
        self.assertTrue(run.consistency([record]))

    def test_raising_call_is_a_failed_op(self):
        def boom(real):
            def call(*args):
                raise ValueError("injected")
            return call

        ops, index = self.tamper("ehrhart_polynomial", boom)
        record = harness.run_pass(ops, trace=False)
        self.assertEqual(record["layers"]["ehrhart"]["failed"], 1)
        self.assertIn("raised ValueError: injected", record["failures"][0])
        # The dimension check reads the polynomial this op did not return.
        self.assertEqual(record["layers"]["polytope"]["failed"], 1)

    def test_answer_digest_repeats(self):
        first = harness.run_pass(cheap_ops(), trace=False)
        second = harness.run_pass(cheap_ops(), trace=True)
        self.assertEqual(first["answer_digest"], second["answer_digest"])
        self.assertEqual(run.consistency([first, second]), [])
        self.assertEqual(len(second["spans"]), len(second["durations"]) + 1)


class Seeding(unittest.TestCase):
    def inputs(self, workload: str, seed: int) -> list[tuple[str, str]]:
        return [(op.func, op.key) for op in workloads.build(workload, seed)[0]]

    def test_same_seed_same_inputs(self):
        for workload in ("large-regions", "counting"):
            self.assertEqual(self.inputs(workload, 3), self.inputs(workload, 3))

    def test_other_seed_other_inputs(self):
        for workload in ("large-regions", "counting"):
            self.assertNotEqual(self.inputs(workload, 3), self.inputs(workload, 4))

    def test_inputs_do_not_depend_on_string_hashing(self):
        """Every pass is a new process with its own hash seed; inputs must not notice."""
        script = (
            "import harness; harness.load_library(); import workloads; "
            "print([(op.func, op.key) for op in workloads.build('large-regions', 3)[0]])"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script], cwd=HERE, capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            ).stdout
            for hash_seed in ("1", "2")
        }
        self.assertEqual(len(outputs), 1)


if __name__ == "__main__":
    unittest.main()
