"""The percentile rule: a tail percentile is reported only with at least
ten samples beyond it."""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchlib import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(xs, 50), 50)
        self.assertEqual(stats.nearest_rank(xs, 99), 99)
        self.assertEqual(stats.nearest_rank(xs, 100), 100)
        self.assertEqual(stats.nearest_rank([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.high_percentile(list(range(19))))
        self.assertEqual(stats.high_percentile(list(range(20)))[0], 50.0)
        self.assertEqual(stats.high_percentile(list(range(99)))[0], 75.0)
        self.assertEqual(stats.high_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(stats.high_percentile(list(range(200)))[0], 95.0)
        self.assertEqual(stats.high_percentile(list(range(999)))[0], 95.0)
        self.assertEqual(stats.high_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.high_percentile(list(range(10000)))[0], 99.9)

    def test_reported_tail_has_ten_samples_beyond(self):
        for n in (20, 57, 100, 150, 999, 1000, 4321):
            xs = [float(i) for i in range(n)]
            p, value = stats.high_percentile(xs)
            self.assertGreaterEqual(sum(1 for x in xs if x > value), stats.MIN_BEYOND, (n, p))

    def test_summary_states_count_median_and_tail(self):
        s = stats.summarize([3.0, 1.0, 2.0])
        self.assertEqual((s["n"], s["median"], s["tail_p"]), (3, 2.0, None))
        line = stats.render("advise_s", "s", [float(i) for i in range(100)])
        self.assertIn("n=100", line)
        self.assertIn("p90", line)


if __name__ == "__main__":
    unittest.main()
