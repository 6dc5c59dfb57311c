#!/usr/bin/env python3
"""Fixture tests for tools/coverage_gate.py.

Feeds canned gcov JSON (tools/testdata/coverage/*.gcov.json) through the
gate's main() in place of a real --coverage build, so the report and the
verdict can be checked without gcov:

    python3 tools/coverage_gate_test.py
"""

import contextlib
import io
import json
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import coverage_gate  # noqa: E402

FIXTURES = os.path.join(HERE, "testdata", "coverage")


def run_gate(fixtures, *argv, prefix="src/core"):
    """Runs main() over the named fixture docs, gating on `prefix`; returns
    (exit status, stdout, stderr)."""
    docs = {}
    for name in fixtures:
        with open(os.path.join(FIXTURES, name)) as fh:
            docs[name] = json.load(fh)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(coverage_gate, "find_gcda", lambda _dir: list(fixtures)), \
         mock.patch.object(coverage_gate, "run_gcov", docs.__getitem__), \
         contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = coverage_gate.main(["--prefix", prefix, *argv])
    return code, out.getvalue(), err.getvalue()


class CoverageGateTest(unittest.TestCase):
    def test_lines_union_across_translation_units(self):
        code, out, _ = run_gate(["plain.gcov.json", "coroutine.gcov.json"])
        self.assertEqual(code, 0)
        # Line 11 is hit only in the second unit; line 13 in neither.
        self.assertRegex(out, r"src/core/plain\.cc\s+3/4\s+75\.0%")
        self.assertNotIn("src/hw/ungated.cc", out)

    def test_file_without_instrumented_lines_is_reported_and_left_out(self):
        code, out, _ = run_gate(["plain.gcov.json", "coroutine.gcov.json"],
                                "--fail-under", "75")
        self.assertEqual(code, 0)
        self.assertRegex(out, r"src/core/coroutine_only\.cc\s+0/0\s+\(no instrumented lines\)")
        self.assertRegex(out, r"TOTAL \(src/core\)\s+3/4\s+75\.0%")

    def test_floor_still_fails_below(self):
        code, _, err = run_gate(["plain.gcov.json", "coroutine.gcov.json"],
                                "--fail-under", "80")
        self.assertEqual(code, 1)
        self.assertIn("below the 80.0% floor", err)

    def test_nothing_instrumented_fails_a_floor_without_crashing(self):
        code, out, err = run_gate(["coroutine.gcov.json"], "--fail-under", "50",
                                  prefix="src/core/coroutine_only.cc")
        self.assertEqual(code, 1)
        self.assertRegex(out, r"TOTAL .*0/0\s+\(no instrumented lines\)")
        self.assertIn("no gated file has instrumented lines", err)


if __name__ == "__main__":
    unittest.main()
