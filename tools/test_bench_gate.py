#!/usr/bin/env python3
"""Unit tests for bench_gate.py's key lookup and checks.

Run from the repository root:

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_gate import lookup  # noqa: E402

# The shape of an e2ebench result line: metric names contain dots.
E2E = {
    "correct": True,
    "failed": 0,
    "metrics": {
        "restart_s": {"value": 0.42, "unit": "s"},
        "attrib.restart_unattributed": {"value": 0.01, "unit": "ratio"},
        "attrib.ckpt_unattributed": {"value": 2e-5, "unit": "ratio"},
        "self.restart.fs_s": {"value": 1.25, "unit": "s"},
    },
}


class LookupTest(unittest.TestCase):
    def test_plain_and_nested_keys(self):
        self.assertEqual(lookup(E2E, "correct"), (True, True))
        self.assertEqual(lookup(E2E, "metrics.restart_s.value"), (True, 0.42))
        head = {"write_issue_to_complete": {"p99": 7}}
        self.assertEqual(lookup(head, "write_issue_to_complete.p99"), (True, 7))

    def test_key_names_with_dots_resolve(self):
        self.assertEqual(
            lookup(E2E, "metrics.attrib.restart_unattributed.value"), (True, 0.01)
        )
        self.assertEqual(lookup(E2E, "metrics.self.restart.fs_s.unit"), (True, "s"))

    def test_longest_matching_key_wins(self):
        head = {"a": {"b": {"c": 1}}, "a.b": {"c": 2}}
        self.assertEqual(lookup(head, "a.b.c"), (True, 2))
        self.assertEqual(lookup(head, "a"), (True, {"b": {"c": 1}}))

    def test_prefix_must_end_on_a_segment_boundary(self):
        head = {"attrib": {"x": 1}, "attrib_total": 3}
        self.assertEqual(lookup(head, "attrib_total"), (True, 3))
        self.assertEqual(lookup(head, "attrib.x"), (True, 1))

    def test_missing_keys_are_not_found(self):
        for key in [
            "",
            "nope",
            "metrics.attrib",
            "metrics.restart_s.value.deeper",
            "metrics.attrib.restart_unattributed.p99",
            "correct.value",
        ]:
            self.assertEqual(lookup(E2E, key), (False, None), key)


class GateCliTest(unittest.TestCase):
    def run_gate(self, *checks):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(E2E, f)
        try:
            gate = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_gate.py")
            return subprocess.run(
                [sys.executable, gate, f.name, *checks], capture_output=True, text=True
            )
        finally:
            os.unlink(f.name)

    def test_dotted_metric_gates_pass_and_fail(self):
        ok = self.run_gate(
            "correct==true",
            "metrics.attrib.ckpt_unattributed.value<=0.05",
            "metrics.attrib.restart_unattributed.value<=0.05",
        )
        self.assertEqual(ok.returncode, 0, ok.stdout + ok.stderr)
        bad = self.run_gate("metrics.attrib.restart_unattributed.value<=0.001")
        self.assertEqual(bad.returncode, 1)
        self.assertIn("FAIL", bad.stdout)
        missing = self.run_gate("metrics.attrib.nope.value<=1")
        self.assertEqual(missing.returncode, 1)
        self.assertIn("no such headline key", missing.stdout)


if __name__ == "__main__":
    unittest.main()
