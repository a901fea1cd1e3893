"""Correctness gates accept good output and reject corrupted output."""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchlib import gates  # noqa: E402

FRONTIER = """memory_bytes\tcost\trelative
0\t4.000000e+16\t1.0
0\t4.000000e+16\t1.0000
1000\t3.000000e+16\t0.7500
5000\t1.000000e+16\t0.2500
"""

REPORT = """epoch 0\ttable 3\tadapt\toverlap -\t1 indexes\tcost 1.0e3\treconfig 0.000e0
epoch 0\ttable 5\tadapt\toverlap -\t0 indexes\tcost 2.0e3\treconfig 0.000e0
ingested 512\tinvalid 0\tdropped 0\tqueue high-water 17\tcheckpoints 2
final selection (2 indexes):
  ORDERS(O_W_ID, O_D_ID)
  STOCK(S_I_ID)
"""


class FrontierGate(unittest.TestCase):
    def test_good_frontier_passes(self):
        rows = gates.parse_frontier(FRONTIER)
        self.assertEqual(rows[-1], (5000, 1.0e16))
        self.assertEqual(gates.frontier_gate(rows), [])

    def test_cost_going_up_is_rejected(self):
        corrupted = FRONTIER.replace("1.000000e+16", "3.500000e+16")
        self.assertTrue(gates.frontier_gate(gates.parse_frontier(corrupted)))

    def test_memory_going_down_is_rejected(self):
        corrupted = FRONTIER.replace("5000\t", "900\t")
        self.assertTrue(gates.frontier_gate(gates.parse_frontier(corrupted)))

    def test_truncated_frontier_is_rejected(self):
        self.assertTrue(gates.frontier_gate(gates.parse_frontier(FRONTIER.splitlines()[0])))

    def test_beating_the_optimum_is_rejected(self):
        self.assertEqual(gates.quality_gate(1.0002), [])
        self.assertTrue(gates.quality_gate(0.98))
        self.assertTrue(gates.quality_gate(float("nan")))

    def test_selection_outside_its_cost_range_is_rejected(self):
        self.assertEqual(gates.selection_gate(5.0, 2.0, 10.0), [])
        self.assertTrue(gates.selection_gate(1.0, 2.0, 10.0))
        self.assertTrue(gates.selection_gate(12.0, 2.0, 10.0))
        self.assertTrue(gates.selection_gate(float("nan"), 2.0, 10.0))


class ReplayGates(unittest.TestCase):
    def test_report_parses(self):
        rep = gates.parse_report(REPORT)
        self.assertEqual(rep["ingested"], 512)
        self.assertEqual(rep["high_water"], 17)
        self.assertEqual(rep["selection"], ["ORDERS(O_W_ID, O_D_ID)", "STOCK(S_I_ID)"])
        self.assertEqual(len(rep["epochs"]), 2)
        self.assertEqual(gates.replay_gate(rep, 512), [])

    def test_lost_or_invalid_events_are_rejected(self):
        self.assertTrue(gates.replay_gate(gates.parse_report(REPORT), 513))
        dropped = REPORT.replace("dropped 0", "dropped 3")
        self.assertTrue(gates.replay_gate(gates.parse_report(dropped), 512))
        invalid = REPORT.replace("invalid 0", "invalid 1")
        self.assertTrue(gates.replay_gate(gates.parse_report(invalid), 512))

    def test_missing_result_block_is_rejected(self):
        self.assertIsNone(gates.parse_report("panicked at src/main.rs"))
        self.assertTrue(gates.replay_gate(None, 512))

    def test_diverging_selection_is_rejected(self):
        a = gates.parse_report(REPORT)
        self.assertEqual(gates.same_result_gate(a, gates.parse_report(REPORT), "x"), [])
        b = gates.parse_report(REPORT.replace("STOCK(S_I_ID)", "STOCK(S_W_ID)"))
        self.assertTrue(gates.same_result_gate(a, b, "x"))
        c = gates.parse_report(REPORT.replace("1 indexes", "2 indexes"))
        self.assertTrue(gates.same_result_gate(a, c, "x"))


class AnswerGate(unittest.TestCase):
    def test_every_query_needs_its_answer(self):
        answers = [(0.0, b'{"budget":42,"total_memory":0}')] * 3
        self.assertEqual(gates.answers_gate(answers, 3, 42), [])
        self.assertTrue(gates.answers_gate(answers[:2], 3, 42))
        self.assertTrue(gates.answers_gate(answers, 3, 43))


if __name__ == "__main__":
    unittest.main()
