"""Spawning `isel` and measuring it from outside: wall time from spawn to
exit, CPU time, and the peak resident memory of its process tree."""

import os
import signal
import subprocess
import threading
import time

# A job that runs longer than this is killed and counted as failed.
JOB_TIMEOUT_S = 60.0


class JobResult:
    """Outcome of one finished child process."""

    def __init__(self, returncode, wall_s, peak_rss_kb, stdout, stderr):
        self.returncode = returncode
        self.wall_s = wall_s
        self.peak_rss_kb = peak_rss_kb
        self.stdout = stdout
        self.stderr = stderr

    @property
    def ok(self):
        return self.returncode == 0


def _read_status_kb(pid, field):
    try:
        with open(f"/proc/{pid}/status", "rb") as f:
            for line in f:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children", "rb") as f:
            return [int(p) for p in f.read().split()]
    except (OSError, ValueError):
        return []


def tree_pids(root):
    """`root` and all its live descendants."""
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        todo.extend(_children(pid))
    return pids


_TICKS = os.sysconf("SC_CLK_TCK")


def _cpu_ticks(pid):
    """User plus system clock ticks of `pid` and its reaped children."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            fields = f.read().rsplit(b")", 1)[1].split()
        return sum(int(x) for x in fields[11:15])
    except (OSError, ValueError, IndexError):
        return 0


def tree_cpu_s(root):
    """CPU seconds the process tree under `root` has used so far."""
    return sum(_cpu_ticks(pid) for pid in tree_pids(root)) / _TICKS


class TreeMemory:
    """Samples the peak resident set (`VmHWM`) of every process in a tree
    on a background thread. Peaks only grow, so the sum of each process's
    last-seen peak bounds the tree's peak from above."""

    def __init__(self, root, interval_s=0.1):
        self.root = root
        self.interval_s = interval_s
        self.peaks = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _sample(self):
        for pid in tree_pids(self.root):
            hwm = _read_status_kb(pid, b"VmHWM:")
            if hwm is not None:
                self.peaks[pid] = max(self.peaks.get(pid, 0), hwm)

    def _run(self):
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval_s)

    def stop(self):
        self._stop.set()
        self._thread.join()
        return sum(self.peaks.values())


def wait_child(proc, timeout_s=None):
    """Reap `proc` with a blocking `wait4`, returning `(returncode,
    rusage)`. A timer kills the process group after `timeout_s`."""
    timer = threading.Timer(timeout_s, kill_tree, (proc,)) if timeout_s else None
    if timer:
        timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        if timer:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def kill_tree(proc):
    """SIGKILL the child's process group (children start their own)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_job(argv, cwd, stdout_path, stderr_path, timeout_s=JOB_TIMEOUT_S):
    """Run one closed-loop job to completion. Wall time runs from just
    before spawn to the moment `wait4` reaps the child; the jobs are single
    processes, so `wait4`'s peak resident set is the job's."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, start_new_session=True
        )
        try:
            code, usage = wait_child(proc, timeout_s)
            wall = time.perf_counter() - start
        except BaseException:
            kill_tree(proc)
            wait_child(proc)
            raise
    with open(stdout_path, "rb") as f:
        stdout = f.read().decode("utf-8", "replace")
    with open(stderr_path, "rb") as f:
        stderr = f.read().decode("utf-8", "replace")
    return JobResult(code, wall, usage.ru_maxrss, stdout, stderr)
