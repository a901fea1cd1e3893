"""Open-loop load for `isel serve`: lines are due on a fixed schedule,
whether or not the server keeps up.

Each line is timed from when it was due, not from when it was sent, so a
stall that holds back the generator also counts against every line due
during the stall. The generator never drops a line: a full stdin pipe
(the supervisor's backpressure) makes it late, and the lateness is
recorded per line.
"""

import os
import select
import subprocess
import time

from . import procs


def schedule(events, rate, query_every):
    """Due offsets (seconds after the stream starts) for `events` events at
    `rate` per second, with a query after every `query_every`-th event,
    due together with it. Returns `(offsets, is_query)` in stream order."""
    offsets, is_query = [], []
    for i in range(events):
        due = i / rate
        offsets.append(due)
        is_query.append(False)
        if (i + 1) % query_every == 0:
            offsets.append(due)
            is_query.append(True)
    return offsets, is_query


class Ledger:
    """Lateness accounting: line `i` is due at `start + offsets[i]`; a line
    is sent when its last byte enters the pipe. Lines are sent in order."""

    def __init__(self, offsets):
        self.offsets = offsets
        self.start = None
        self.sent_at = []

    def begin(self, start):
        self.start = start

    def released(self, now):
        """Number of lines due by `now`."""
        lo, hi = len(self.sent_at), len(self.offsets)
        while lo < hi and self.start + self.offsets[lo] <= now:
            lo += 1
        return lo

    def next_due(self):
        """Absolute due time of the first unsent line, or `None`."""
        i = len(self.sent_at)
        return self.start + self.offsets[i] if i < len(self.offsets) else None

    def mark_sent(self, upto, when):
        """Lines `[sent, upto)` entered the pipe at `when`."""
        while len(self.sent_at) < upto:
            self.sent_at.append(when)

    def lateness(self):
        """Per sent line, how long after its due time it was sent."""
        return [
            max(0.0, sent - (self.start + due)) for sent, due in zip(self.sent_at, self.offsets)
        ]

    def due_times(self, indices):
        return [self.start + self.offsets[i] for i in indices]


def answer_latencies(due_times, answer_times):
    """Latency of each answered query, from when it was due; answers
    arrive in query order. Unanswered queries have no latency."""
    return [a - d for d, a in zip(due_times, answer_times)]


class SessionResult:
    def __init__(self):
        self.returncode = None
        self.setup_s = None
        self.wall_s = None
        self.cpu_s = None
        self.ready_cpu_s = None
        self.peak_rss_kb = 0
        self.lateness_s = []
        self.query_latency_s = []
        self.queries = 0
        self.answers = []
        self.stderr_lines = []
        self.stdout = ""
        self.timed_out = False


READY_LINE = b'{"control":"status"}\n'


def split_cpus(allowed):
    """`(server, generator)` CPU sets out of `allowed`: the generator gets
    the first CPU and the server the rest, so the generator's wake-up every
    half millisecond never preempts the server or moves it between CPUs.
    `None` when there is only one CPU to share."""
    cpus = sorted(allowed)
    if len(cpus) < 2:
        return None
    return set(cpus[1:]), {cpus[0]}


def run_session(argv, cwd, lines, offsets, is_query, stdout_path, timeout_s=procs.JOB_TIMEOUT_S):
    """Spawn `argv`, wait until it answers a status request (its set-up
    time), then write `lines` on the `offsets` schedule, read every answer
    from stderr, close stdin and reap the process. `cpu_s` is the CPU time
    of the whole process tree (workers are reaped by the server), and
    `ready_cpu_s` the part of it spent before the server was ready.

    The server and the generator run on separate CPUs (`split_cpus`): the
    server inherits its set at spawn, and this thread keeps the other one
    until the session ends."""
    allowed = os.sched_getaffinity(0)
    split = split_cpus(allowed)
    try:
        if split:
            os.sched_setaffinity(0, split[0])
        return _session(argv, cwd, lines, offsets, is_query, stdout_path, timeout_s, split)
    finally:
        os.sched_setaffinity(0, allowed)


def _session(argv, cwd, lines, offsets, is_query, stdout_path, timeout_s, split):
    res = SessionResult()
    res.queries = sum(is_query)
    ends, total = [], 0
    for line in lines:
        total += len(line)
        ends.append(total)
    payload = b"".join(lines)
    ledger = Ledger(offsets)
    query_idx = [i for i, q in enumerate(is_query) if q]

    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=cwd,
            stdin=subprocess.PIPE,
            stdout=out,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        if split:
            os.sched_setaffinity(0, split[1])
        memory = procs.TreeMemory(proc.pid)
        try:
            _drive(proc, res, ledger, payload, ends, start + timeout_s)
            code, usage = procs.wait_child(proc, max(1.0, start + timeout_s - time.perf_counter()))
            res.wall_s = time.perf_counter() - start
        except BaseException:
            procs.kill_tree(proc)
            procs.wait_child(proc)
            raise
        finally:
            tree_kb = memory.stop()
            proc.stderr.close()
    res.returncode = code
    res.cpu_s = usage.ru_utime + usage.ru_stime
    res.peak_rss_kb = max(tree_kb, usage.ru_maxrss)
    if res.setup_s is not None:
        res.setup_s -= start
        res.lateness_s = ledger.lateness()
        due = ledger.due_times(query_idx)
        res.query_latency_s = answer_latencies(due, [t for t, _ in res.answers])
    with open(stdout_path, "rb") as f:
        res.stdout = f.read().decode("utf-8", "replace")
    return res


def _drive(proc, res, ledger, payload, ends, deadline):
    stdin_fd, stderr_fd = proc.stdin.fileno(), proc.stderr.fileno()
    os.set_blocking(stdin_fd, False)
    pending_ready = READY_LINE
    written, released, buf = 0, 0, b""
    stdin_open = True
    while True:
        now = time.perf_counter()
        if now > deadline:
            res.timed_out = True
            procs.kill_tree(proc)
            return
        if ledger.start is not None:
            count = ledger.released(now)
            released = ends[count - 1] if count else 0
        want_write = stdin_open and (bool(pending_ready) or written < released)
        timeout = 0.05
        nxt = ledger.next_due() if ledger.start is not None else None
        if nxt is not None and written >= released:
            timeout = min(timeout, max(0.0, nxt - now))
        readable, writable, _ = select.select(
            [stderr_fd], [stdin_fd] if want_write else [], [], timeout
        )
        if writable:
            try:
                if pending_ready:
                    n = os.write(stdin_fd, pending_ready)
                    pending_ready = pending_ready[n:]
                else:
                    n = os.write(stdin_fd, payload[written:released])
                    written += n
                    when = time.perf_counter()
                    done = len(ledger.sent_at)
                    while done < len(ends) and ends[done] <= written:
                        done += 1
                    ledger.mark_sent(done, when)
            except (BlockingIOError, InterruptedError):
                pass
            except BrokenPipeError:
                stdin_open = False
        if readable:
            data = os.read(stderr_fd, 1 << 16)
            when = time.perf_counter()
            if not data:
                return
            buf += data
            *complete, buf = buf.split(b"\n")
            for line in complete:
                if line.startswith(b'{"budget":'):
                    res.answers.append((when, line))
                elif line.startswith(b'{"status":') and res.setup_s is None:
                    res.setup_s = when
                    res.ready_cpu_s = procs.tree_cpu_s(proc.pid)
                    ledger.begin(when)
                else:
                    res.stderr_lines.append(line.decode("utf-8", "replace"))
        if (
            stdin_open
            and ledger.start is not None
            and len(ledger.sent_at) == len(ends)
        ):
            proc.stdin.close()
            stdin_open = False
        if not stdin_open and ledger.start is None:
            return
