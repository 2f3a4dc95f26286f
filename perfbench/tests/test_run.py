"""Tests of run.py's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent.parent / "run.py")
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)


def ramp(n):
    return list(range(1, n + 1))


class SupportedPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.supported_percentile(ramp(999), 0.99))
        self.assertEqual(run.supported_percentile(ramp(1000), 0.99), 990)
        self.assertIsNone(run.supported_percentile(ramp(19), 0.5))
        self.assertEqual(run.supported_percentile(ramp(20), 0.5), 10)
        self.assertIsNone(run.supported_percentile([], 0.5))

    def test_ignores_input_order(self):
        self.assertEqual(run.supported_percentile(ramp(2000)[::-1], 0.99), 1980)


if __name__ == "__main__":
    unittest.main()
