"""Lateness accounting of the open-loop pacer: every line is timed from
when it was due, so a stall counts against every line due during it."""

import os
import pathlib
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchlib import pacer  # noqa: E402

# Stands in for `isel serve`: spins for SETUP CPU seconds, answers the
# status request and every what-if on stderr, stops reading its input
# once for STALL seconds, and names the CPUs it may run on as it exits.
FAKE_SERVER = textwrap.dedent(
    """
    import os, sys, time
    STALL, SETUP = float(sys.argv[1]), float(sys.argv[2])
    while time.process_time() < SETUP:
        pass
    stalled = False
    for line in sys.stdin.buffer:
        if line.startswith(b'{"control":"status"}'):
            sys.stderr.write('{"status":{}}\\n'); sys.stderr.flush()
        elif line.startswith(b'{"control":"whatif"'):
            sys.stderr.write('{"budget":7,"total_memory":0}\\n'); sys.stderr.flush()
        elif not stalled and STALL:
            stalled = True
            time.sleep(STALL)
    print("done")
    sys.stderr.write("cpus " + " ".join(map(str, sorted(os.sched_getaffinity(0)))) + "\\n")
    """
)


class Schedule(unittest.TestCase):
    def test_events_at_rate_with_queries_due_alongside(self):
        offsets, is_query = pacer.schedule(6, 100.0, 3)
        self.assertEqual(is_query, [False, False, False, True, False, False, False, True])
        self.assertEqual(offsets, [0.0, 0.01, 0.02, 0.02, 0.03, 0.04, 0.05, 0.05])


class Ledger(unittest.TestCase):
    def test_stall_counts_against_every_line_due_during_it(self):
        ledger = pacer.Ledger([0.0, 0.1, 0.2, 0.3, 0.4])
        ledger.begin(10.0)
        self.assertEqual(ledger.released(10.15), 2)
        ledger.mark_sent(2, 10.15)  # line 0 due at 10.0, line 1 at 10.1
        self.assertEqual(ledger.next_due(), 10.2)
        ledger.mark_sent(5, 10.5)  # the pipe was full until 10.5
        late = ledger.lateness()
        for got, want in zip(late, [0.15, 0.05, 0.3, 0.2, 0.1]):
            self.assertAlmostEqual(got, want)
        self.assertIsNone(ledger.next_due())

    def test_early_send_is_never_negative_lateness(self):
        ledger = pacer.Ledger([0.0, 1.0])
        ledger.begin(0.0)
        ledger.mark_sent(2, 0.5)
        self.assertEqual(ledger.lateness(), [0.5, 0.0])

    def test_answer_latency_runs_from_due_time(self):
        got = pacer.answer_latencies([1.0, 2.0, 3.0], [1.5, 2.25])
        self.assertEqual(got, [0.5, 0.25])


class Session(unittest.TestCase):
    def run_fake(self, stall, events=300, size=1024, rate=1000.0, setup=0.0):
        with tempfile.TemporaryDirectory() as tmp:
            script = pathlib.Path(tmp) / "server.py"
            script.write_text(FAKE_SERVER)
            offsets, is_query = pacer.schedule(events, rate, 50)
            event = b"{" + b"x" * (size - 3) + b"}\n"
            query = b'{"control":"whatif","budget":7}\n'
            lines = [query if q else event for q in is_query]
            return pacer.run_session(
                [sys.executable, str(script), str(stall), str(setup)],
                tmp, lines, offsets, is_query, str(pathlib.Path(tmp) / "out"), timeout_s=60,
            )

    def test_a_server_that_keeps_up_leaves_the_generator_on_time(self):
        s = self.run_fake(stall=0.0)
        self.assertEqual(s.returncode, 0)
        self.assertEqual(len(s.answers), s.queries)
        self.assertEqual(len(s.lateness_s), 306)
        self.assertLess(sorted(s.lateness_s)[len(s.lateness_s) // 2], 0.05)
        self.assertEqual(s.stdout.strip(), "done")

    def test_backpressure_shows_as_lateness_not_drops(self):
        # 300 lines of 1 KiB at 1000/s overflow the pipe buffer while the
        # server sleeps, so the generator blocks and runs late.
        s = self.run_fake(stall=0.5)
        self.assertEqual(s.returncode, 0)
        self.assertEqual(len(s.answers), s.queries)
        self.assertEqual(len(s.lateness_s), 306)
        self.assertGreater(max(s.lateness_s), 0.15)
        # Answers are timed from the due time, so they carry the stall too.
        self.assertGreater(max(s.query_latency_s), 0.15)

    def test_cpu_before_readiness_is_not_stream_cpu(self):
        s = self.run_fake(stall=0.0, setup=0.5)
        self.assertEqual(s.returncode, 0)
        self.assertGreaterEqual(s.ready_cpu_s, 0.45)
        self.assertGreaterEqual(s.cpu_s, s.ready_cpu_s)
        self.assertLess(s.cpu_s - s.ready_cpu_s, 0.4)

    def test_server_runs_apart_from_the_generator(self):
        allowed = os.sched_getaffinity(0)
        s = self.run_fake(stall=0.0)
        self.assertEqual(os.sched_getaffinity(0), allowed)
        split = pacer.split_cpus(allowed)
        server = split[0] if split else allowed
        self.assertIn("cpus " + " ".join(map(str, sorted(server))), s.stderr_lines)


class SplitCpus(unittest.TestCase):
    def test_generator_takes_the_first_cpu_and_the_server_the_rest(self):
        self.assertEqual(pacer.split_cpus({3, 1, 2}), ({2, 3}, {1}))

    def test_one_cpu_is_shared(self):
        self.assertIsNone(pacer.split_cpus({0}))


if __name__ == "__main__":
    unittest.main()
