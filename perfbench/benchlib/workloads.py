"""The four benchmark workloads.

Closed loop (`advise-erp`, `replay-tpcc`, `replay-erp`): one job at a time,
the next spawned when the previous exits, alternating with set-up probes
(the same command with no work to do) until the run's time is up.

Open loop (`serve-erp`): `isel serve --workers 1 --state-dir` sessions fed
on a fixed schedule by `pacer`, one after another; each session's wait for
its readiness answer is a set-up sample.

The ERP workloads cycle their jobs or sessions over several ERP instances
drawn from the seed, so one unusually heavy instance moves a run's median
less; `serve-erp` gives each of its sessions an instance of its own.

Every input is generated from the seed with `isel generate` and
`isel record` before any timing starts.
"""

import collections
import json
import os
import shutil
import statistics
import subprocess
import time

from . import gates, layers, pacer, procs

# Each timed metric gets at least this many samples per run.
MIN_SAMPLES = 3
# Sessions per `serve-erp` run, each on an ERP instance of its own. The
# stream's CPU time differs more between ERP instances (0.65 s to 1.6 s)
# than between repeats of one instance, so a run's median steadies with
# the number of instances it covers, not with repeats.
SERVE_SESSIONS = 6
# ERP instances per run of `advise-erp` and `replay-erp`.
ERP_INSTANCES = 3
MAX_INSTANCES = max(ERP_INSTANCES, SERVE_SESSIONS)

TPCC_WAREHOUSES = 100
TPCC_EVENTS = 2_000_000
ERP_REPLAY_EVENTS = 30_000
SERVE_EVENTS = 10_000
SERVE_RATE = 2000.0
SERVE_QUERY_EVERY = 20
ADVISE_MAX_BUDGET = "1.0"

# Sample lists printed in the summary but not reported in the JSON line
# (perfbench/README.md says why for each), and the named percentiles the
# summary reads off them.
SUMMARY_ONLY = {
    "whatif_ms": "ms",
    "late_ms": "ms",
    "fail_ratio": "ratio",
    "disk_bytes_per_event": "bytes",
}
PERCENTILES = (
    ("whatif_p50_ms", "whatif_ms", 50.0),
    ("whatif_p99_ms", "whatif_ms", 99.0),
    ("late_p99_ms", "late_ms", 99.0),
)


class Context:
    """Paths and settings shared by every step of one run."""

    def __init__(self, isel, stages, work, seed, seconds):
        self.isel = str(isel)
        self.stages = str(stages)
        self.work = work
        self.seed = seed
        self.seconds = seconds

    def path(self, name):
        return str(self.work / name)

    def sub_seed(self, i):
        """Seed of the run's `i`-th ERP instance; runs on different seeds
        share no instance."""
        return (self.seed * MAX_INSTANCES + i) % (1 << 63)

    def _run(self, argv):
        done = subprocess.run(argv, cwd=self.work, capture_output=True, text=True, timeout=procs.JOB_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[1:])} failed: {done.stderr.strip()}")
        return done.stdout

    def isel_out(self, *args):
        """Run a short `isel` command to completion; its stdout."""
        return self._run([self.isel, *args]).strip()

    def stage_json(self, *args):
        return json.loads(self._run([self.stages, *args]))

    def selection_facts(self, facts_args, selection):
        """`isel-stages facts` for a printed final selection: its cost next
        to the workload's reference costs."""
        path = self.path("selection.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in selection))
        return self.stage_json("facts", *facts_args, "--selection", path)


class RunResult:
    """Samples, gate problems and counts of one workload run."""

    def __init__(self, workload):
        self.workload = workload
        self.samples = collections.defaultdict(list)
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.inputs = {}
        self.layer_values = {}
        self.layer_sources = {}
        self.notes = []

    def command(self, ok, what, problems=(), stderr=""):
        """Count one command; a non-zero exit or a failed gate fails it."""
        self.attempted += 1
        problems = list(problems)
        if not ok:
            last = stderr.strip().splitlines()[-1:] or [""]
            problems.insert(0, f"{what} exited with an error {last[0]}".rstrip())
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def value(self, name):
        xs = self.samples[name]
        return statistics.median(xs) if xs else None


def dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def _trace_pairs(job, pairs=2):
    """Run `job` untraced and traced, alternating, `pairs` times; the
    median wall time of each kind and the last untraced job."""
    untraced, traced = [], []
    for _ in range(pairs):
        last = job(None)
        untraced.append(last.wall_s)
        traced.append(job("trace.jsonl").wall_s)
    return statistics.median(untraced), statistics.median(traced), last


def _report_check(ctx, res, path):
    """`isel report --trace PATH --check` must pass."""
    done = subprocess.run(
        [ctx.isel, "report", "--trace", path, "--check"],
        cwd=ctx.work, capture_output=True, text=True, timeout=procs.JOB_TIMEOUT_S,
    )
    ok = done.returncode == 0
    res.command(ok, f"report --check {os.path.basename(path)}", [] if ok else [done.stderr.strip()])


class ClosedLoop:
    """A command run to completion on one of the run's input instances."""

    instances = 1

    def __init__(self):
        self.jobs = 0
        self.first = {}

    def job(self, ctx, res, trace=None):
        i = self.jobs % self.instances
        self.jobs += 1
        return self.run_job(ctx, res, i, trace)

    def record_job(self, res, r):
        res.samples["advise_s"].append(r.wall_s)
        res.samples["replay_eps"].append(self.unit_count / r.wall_s)
        res.samples["peak_rss_mb"].append(r.peak_rss_kb / 1024.0)

    def same_as_first(self, i, output):
        """Every job on instance `i` must print what its first job printed."""
        if i not in self.first:
            self.first[i] = output
            return []
        return [] if output == self.first[i] else ["output differs from the first job on this input"]

    def final_checks(self, ctx, res):
        pass


class AdviseErp(ClosedLoop):
    name = "advise-erp"
    why = "the paper's Fig. 4 job: ERP workload load plus H6 over the whole frontier"
    instances = ERP_INSTANCES

    def prepare(self, ctx, res):
        self.ideal = []
        for i in range(self.instances):
            seed = str(ctx.sub_seed(i))
            res.notes.append(
                ctx.isel_out("generate", "--kind", "erp", "--seed", seed, "--out", f"workload-{i}.json")
            )
            facts = ctx.stage_json("facts", "--kind", "erp", "--seed", seed)
            self.ideal.append(facts["ideal_cost"])
        self.unit_count = facts["templates"]
        res.inputs = {
            "instances": self.instances,
            "workload_bytes": os.path.getsize(ctx.path("workload-0.json")),
            "tables": facts["tables"],
            "attributes": facts["attributes"],
            "templates": facts["templates"],
        }

    def argv(self, ctx, i, budget=ADVISE_MAX_BUDGET, trace=None):
        args = [ctx.isel, "frontier", "--workload", f"workload-{i}.json", "--max-budget", budget]
        return args + (["--trace", trace] if trace else [])

    def run_job(self, ctx, res, i, trace):
        r = procs.run_job(self.argv(ctx, i, trace=trace), ctx.work, ctx.path("job.out"), ctx.path("job.err"))
        problems = []
        if r.ok:
            rows = gates.parse_frontier(r.stdout)
            problems += gates.frontier_gate(rows) + self.same_as_first(i, r.stdout)
            if rows:
                ratio = rows[-1][1] / self.ideal[i]
                problems += gates.quality_gate(ratio)
                if f"frontier_points_{i}" not in res.inputs:
                    res.samples["frontier_cost_ratio"].append(ratio)
                    res.inputs[f"frontier_points_{i}"] = len(rows) - 1
                    res.inputs[f"relative_cost_last_point_{i}"] = rows[-1][1] / rows[0][1]
        res.command(r.ok, "frontier", problems, r.stderr)
        return r

    def probe(self, ctx, res):
        i = (self.jobs - 1) % self.instances
        r = procs.run_job(self.argv(ctx, i, budget="0"), ctx.work, ctx.path("probe.out"), ctx.path("probe.err"))
        res.command(r.ok, "frontier --max-budget 0", stderr=r.stderr)
        return r

    def trace_pass(self, ctx, res):
        w0, w1, _ = _trace_pairs(lambda trace: self.run_job(ctx, res, 0, trace))
        _report_check(ctx, res, "trace.jsonl")
        trace = layers.rollup(layers.read_trace([ctx.path("trace.jsonl")]))
        stage = ctx.stage_json(
            "stages", "--workload", self.name, "--dir", str(ctx.work),
            "--workload-file", "workload-0.json", "--max-budget", ADVISE_MAX_BUDGET,
        )
        return w0, w1, trace, stage, {}


class Replay(ClosedLoop):
    """`isel replay` of seeded binary journals."""

    def __init__(self, name, kind, events, flags, why, checkpoints):
        super().__init__()
        self.name = name
        self.kind = kind
        self.unit_count = events
        self.flags = flags
        self.why = why
        self.checkpoints = checkpoints
        self.instances = ERP_INSTANCES if kind == "erp" else 1

    def prepare(self, ctx, res):
        self.facts_args, self.costed = [], set()
        for i in range(self.instances):
            if self.kind == "tpcc":
                kind = ["--kind", "tpcc", "--warehouses", str(TPCC_WAREHOUSES)]
                seed = str(ctx.seed)
                gen = ctx.isel_out("generate", *kind, "--out", f"workload-{i}.json")
            else:
                kind = ["--kind", self.kind]
                seed = str(ctx.sub_seed(i))
                gen = ctx.isel_out("generate", *kind, "--seed", seed, "--out", f"workload-{i}.json")
            rec = ctx.isel_out(
                "record", *kind, "--seed", seed, "--events", str(self.unit_count),
                "--format", "binary", "--out", f"events-{i}.bin",
            )
            res.notes += [gen, rec]
            self.facts_args.append([*kind, "--seed", seed])
        open(ctx.path("empty.bin"), "wb").close()
        facts = ctx.stage_json("facts", *self.facts_args[0])
        res.inputs = {
            "instances": self.instances,
            "workload_bytes": os.path.getsize(ctx.path("workload-0.json")),
            "log_bytes": os.path.getsize(ctx.path("events-0.bin")),
            "events": self.unit_count,
            "tables": facts["tables"],
            "attributes": facts["attributes"],
            "templates": facts["templates"],
        }

    def argv(self, ctx, i, log, ckpt=None, trace=None, flags=None):
        args = [ctx.isel, "replay", "--workload", f"workload-{i}.json", "--log", log]
        args += list(self.flags if flags is None else flags)
        if ckpt:
            args += ["--checkpoint", ckpt]
        return args + (["--trace", trace] if trace else [])

    def _ckpt(self, ctx, tag):
        if not self.checkpoints:
            return None, None
        d = ctx.work / f"ckpt-{tag}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        return d, str(d / "manifest.json")

    def run_job(self, ctx, res, i, trace):
        d, ckpt = self._ckpt(ctx, "job")
        r = procs.run_job(
            self.argv(ctx, i, f"events-{i}.bin", ckpt, trace), ctx.work, ctx.path("job.out"), ctx.path("job.err")
        )
        r.report = gates.parse_report(r.stdout) if r.ok else None
        problems = []
        if r.ok:
            problems += gates.replay_gate(r.report, self.unit_count)
            if r.report is not None:
                if i not in self.costed:
                    problems += self.cost_selection(ctx, res, i, r.report["selection"])
                problems += self.same_as_first(i, gates.result_key(r.report))
        if d is not None:
            r.disk_bytes = dir_bytes(d)
            shutil.rmtree(d, ignore_errors=True)
        res.command(r.ok, "replay", problems, r.stderr)
        return r

    def cost_selection(self, ctx, res, i, selection):
        """Once per input instance: the relative cost F(I)/F(empty) of the
        final selection the replay printed, and its quality gate. Later
        jobs on the instance must print the same selection."""
        self.costed.add(i)
        facts = ctx.selection_facts(self.facts_args[i], selection)
        res.samples["frontier_cost_ratio"].append(facts["selection_cost"] / facts["base_cost"])
        res.inputs[f"selection_indexes_{i}"] = facts["selection_indexes"]
        return gates.selection_gate(facts["selection_cost"], facts["ideal_cost"], facts["base_cost"])

    def probe(self, ctx, res):
        d, ckpt = self._ckpt(ctx, "probe")
        i = (self.jobs - 1) % self.instances
        r = procs.run_job(self.argv(ctx, i, "empty.bin", ckpt), ctx.work, ctx.path("probe.out"), ctx.path("probe.err"))
        if d is not None:
            shutil.rmtree(d, ignore_errors=True)
        res.command(r.ok, "replay of an empty log", stderr=r.stderr)
        return r

    def record_job(self, res, r):
        super().record_job(res, r)
        if self.checkpoints:
            res.samples["disk_bytes_per_event"].append(r.disk_bytes / self.unit_count)

    def final_checks(self, ctx, res):
        """Once per run: a 1-shard replay gives the same result as the
        multi-shard job (selections are shard-count invariant)."""
        shards = self.flags[self.flags.index("--shards") + 1]
        if shards == "1":
            return
        flags = list(self.flags)
        flags[flags.index("--shards") + 1] = "1"
        r = procs.run_job(
            self.argv(ctx, 0, "events-0.bin", flags=flags), ctx.work, ctx.path("one.out"), ctx.path("one.err")
        )
        rep = gates.parse_report(r.stdout) if r.ok else None
        problems = []
        if r.ok:
            first = self.first.get(0)
            problems += gates.replay_gate(rep, self.unit_count)
            if first is None:
                problems.append(f"no {shards}-shard result to compare with")
            elif rep is not None and gates.result_key(rep) != first:
                problems.append(f"1 shard and {shards} shards disagree on the selection or epochs")
        res.command(r.ok, "replay --shards 1", problems, r.stderr)

    def trace_pass(self, ctx, res):
        w0, w1, r0 = _trace_pairs(lambda trace: self.run_job(ctx, res, 0, trace))
        files = sorted(str(p) for p in ctx.work.glob("trace.jsonl.shard-*"))
        for f in files:
            if os.path.getsize(f):
                _report_check(ctx, res, f)
        trace = layers.rollup(layers.read_trace(files))
        stage = ctx.stage_json(
            "stages", "--workload", self.name, "--dir", str(ctx.work),
            "--workload-file", "workload-0.json", "--log", "events-0.bin", *self.stage_flags(),
        )
        outside = {"queue.high_water": r0.report["high_water"]} if r0.report else {}
        return w0, w1, trace, stage, outside

    def stage_flags(self):
        out = []
        for opt in ("--epoch-events", "--checkpoint-every", "--shards"):
            if opt in self.flags:
                out += [opt, self.flags[self.flags.index(opt) + 1]]
        return out


class Stream:
    """One ERP instance of `serve-erp`: its files (`workload-INDEX.json`,
    `events-INDEX.jsonl`), facts and paced lines."""

    def __init__(self, index, facts_args, facts, events, lines, offsets, is_query):
        self.index = index
        self.facts_args = facts_args
        self.facts = facts
        self.budget = facts["global_budget"]
        self.events = events
        self.lines = lines
        self.offsets = offsets
        self.is_query = is_query


class ServeErp:
    name = "serve-erp"
    why = "the crash-safe live path: JSONL parse, supervisor pipes, journal tee, tuning and what-if reads"
    instances = SERVE_SESSIONS

    def prepare(self, ctx, res):
        self.streams = [self.prepare_instance(ctx, res, i) for i in range(self.instances)]
        first = self.streams[0]
        self.frontier_quality(ctx, res, first)
        self.sessions = 0
        self.last = None
        res.inputs = {
            "instances": self.instances,
            "workload_bytes": os.path.getsize(ctx.path("workload-0.json")),
            "log_bytes": os.path.getsize(ctx.path("events-0.jsonl")),
            "events": first.events,
            "queries": sum(first.is_query),
            "rate_per_s": SERVE_RATE,
            "tables": first.facts["tables"],
            "attributes": first.facts["attributes"],
            "templates": first.facts["templates"],
        }

    def prepare_instance(self, ctx, res, i):
        """Workload, event stream and paced lines of ERP instance `i`."""
        facts_args = ["--kind", "erp", "--seed", str(ctx.sub_seed(i))]
        res.notes.append(ctx.isel_out("generate", *facts_args, "--out", f"workload-{i}.json"))
        res.notes.append(ctx.isel_out(
            "record", *facts_args, "--events", str(SERVE_EVENTS),
            "--format", "jsonl", "--out", f"events-{i}.jsonl",
        ))
        facts = ctx.stage_json("facts", *facts_args)
        with open(ctx.path(f"events-{i}.jsonl"), "rb") as f:
            events = [line for line in f.read().splitlines(keepends=True) if line.strip()]
        query = f'{{"control":"whatif","budget":{facts["global_budget"]}}}\n'.encode()
        offsets, is_query = pacer.schedule(len(events), SERVE_RATE, SERVE_QUERY_EVERY)
        it = iter(events)
        lines = [query if q else next(it) for q in is_query]
        return Stream(i, facts_args, facts, len(events), lines, offsets, is_query)

    def frontier_quality(self, ctx, res, st):
        """The quality figure, untimed: the last point of `isel frontier`
        on a served workload over its unbudgeted optimum. The served
        selection's relative cost varies too much across ERP instances to
        gate (see perfbench/README.md); `final_checks` bounds it instead."""
        rows = gates.parse_frontier(ctx.isel_out(
            "frontier", "--workload", f"workload-{st.index}.json", "--max-budget", ADVISE_MAX_BUDGET
        ))
        problems = gates.frontier_gate(rows)
        if rows:
            ratio = rows[-1][1] / st.facts["ideal_cost"]
            problems += gates.quality_gate(ratio)
            res.samples["frontier_cost_ratio"].append(ratio)
        res.command(True, "frontier", problems)

    def argv(self, ctx, st, state, trace=None):
        args = [ctx.isel, "serve", "--workload", f"workload-{st.index}.json", "--shards", "1",
                "--workers", "1", "--state-dir", state]
        return args + (["--trace", trace] if trace else [])

    def session(self, ctx, res):
        """The next session, cycling over the instances."""
        st = self.streams[self.sessions % self.instances]
        self.sessions += 1
        return self.run_session(ctx, res, st)

    def run_session(self, ctx, res, st, trace=None):
        state = ctx.work / "state"
        shutil.rmtree(state, ignore_errors=True)
        s = pacer.run_session(
            self.argv(ctx, st, str(state), trace), ctx.work, st.lines, st.offsets, st.is_query,
            ctx.path("session.out"),
        )
        s.stream = st
        problems = []
        if s.returncode != 0 and s.stderr_lines:
            problems.append(s.stderr_lines[-1])
        if s.timed_out:
            problems.append("session timed out")
        if s.setup_s is None:
            problems.append("no answer to the readiness status request")
        s.report = gates.parse_report(s.stdout) if s.returncode == 0 else None
        res.attempted += st.events + s.queries
        res.failed += max(0, s.queries - len(s.answers))
        if s.report is not None:
            rep = s.report
            res.failed += rep["dropped"] + rep["invalid"] + max(0, st.events - rep["ingested"])
        problems += gates.answers_gate(s.answers, s.queries, st.budget)
        if s.returncode == 0:
            problems += gates.replay_gate(s.report, st.events)
        journal = state / "journal.log"
        s.journal_bytes = os.path.getsize(journal) if journal.exists() else 0
        s.disk_bytes = dir_bytes(state)
        self.last = s
        res.command(s.returncode == 0, "serve session", problems)
        return s

    def record_session(self, res, s):
        # The pacer fixes a session's wall time, so the timings are the
        # CPU time the process tree spent on the stream, after it was ready.
        if s.setup_s is None:
            return
        stream_cpu_s = s.cpu_s - s.ready_cpu_s
        res.samples["setup_s"].append(s.setup_s)
        res.samples["advise_s"].append(stream_cpu_s)
        res.samples["replay_eps"].append(s.stream.events / stream_cpu_s)
        res.samples["peak_rss_mb"].append(s.peak_rss_kb / 1024.0)
        res.samples["whatif_ms"].extend(x * 1e3 for x in s.query_latency_s)
        res.samples["late_ms"].extend(x * 1e3 for x in s.lateness_s)
        res.samples["disk_bytes_per_event"].append(s.disk_bytes / s.stream.events)

    def final_checks(self, ctx, res):
        """Once per run: the served final selection equals an offline
        replay of the session's state-dir journal, and its cost lies
        between the workload's optimum and its cost with no index."""
        if self.last is None or self.last.report is None:
            return
        st = self.last.stream
        r = procs.run_job(
            [ctx.isel, "replay", "--workload", f"workload-{st.index}.json", "--log", "state/journal.log",
             "--shards", "1"],
            ctx.work, ctx.path("journal.out"), ctx.path("journal.err"),
        )
        rep = gates.parse_report(r.stdout) if r.ok else None
        problems = gates.same_result_gate(self.last.report, rep, "served vs journal replay") if r.ok else []
        facts = ctx.selection_facts(st.facts_args, self.last.report["selection"])
        problems += gates.selection_gate(facts["selection_cost"], facts["ideal_cost"], facts["base_cost"])
        res.inputs["served_indexes"] = facts["selection_indexes"]
        res.inputs["served_relative_cost"] = facts["selection_cost"] / facts["base_cost"]
        res.command(r.ok, "replay of the state-dir journal", problems, r.stderr)

    def trace_pass(self, ctx, res):
        st = self.streams[0]
        s0 = self.run_session(ctx, res, st)
        s1 = self.run_session(ctx, res, st, trace="trace.jsonl")
        trace = layers.rollup(layers.read_trace([ctx.path("trace.jsonl")]))
        stage = ctx.stage_json(
            "stages", "--workload", self.name, "--dir", str(ctx.work),
            "--workload-file", "workload-0.json", "--log", "events-0.jsonl",
        )
        outside = {"journal.bytes_per_event": s0.journal_bytes / st.events}
        if s0.report:
            outside["queue.high_water"] = s0.report["high_water"]
        # Sessions run on a fixed schedule, so their wall time is set by
        # the pacer; CPU time of the process tree shows the work instead.
        return s0.cpu_s, s1.cpu_s, trace, stage, outside


WORKLOADS = {
    "advise-erp": AdviseErp,
    "replay-tpcc": lambda: Replay(
        "replay-tpcc", "tpcc", TPCC_EVENTS,
        ["--shards", "2", "--epoch-events", "4096", "--checkpoint-every", "4"],
        "ingest layers dominate: decode, route, queue, window fold and checkpoint writes",
        checkpoints=True,
    ),
    "replay-erp": lambda: Replay(
        "replay-erp", "erp", ERP_REPLAY_EVENTS, ["--shards", "1"],
        "many table groups: per-group H6 tuning and the arbiter's frontier merge dominate",
        checkpoints=False,
    ),
    "serve-erp": ServeErp,
}


def measure(wl, ctx, res):
    """The timed phase, until `ctx.seconds` have passed and every metric
    has its minimum sample count: closed-loop jobs alternating with set-up
    probes, or serve sessions one after another. Stops at the first
    failure."""
    start = time.perf_counter()
    serve = isinstance(wl, ServeErp)
    min_jobs = SERVE_SESSIONS if serve else MIN_SAMPLES
    jobs = probes = 0
    while not res.failed:
        elapsed = time.perf_counter() - start
        if elapsed >= ctx.seconds and jobs >= min_jobs and len(res.samples["setup_s"]) >= MIN_SAMPLES:
            break
        if serve:
            s = wl.session(ctx, res)
            if s.returncode == 0:
                wl.record_session(res, s)
        elif jobs <= probes:
            r = wl.job(ctx, res)
            if r.ok:
                wl.record_job(res, r)
        else:
            r = wl.probe(ctx, res)
            if r.ok:
                res.samples["setup_s"].append(r.wall_s)
            probes += 1
            continue
        jobs += 1
    if not res.failed:
        wl.final_checks(ctx, res)
    res.samples["fail_ratio"].append(res.failed / max(1, res.attempted))


def trace_layers(wl, ctx, res, names):
    """The traced pass: the job untraced and traced, the trace rolled up,
    and the in-process stage pass, combined into the per-layer metrics
    `names`."""
    w0, w1, trace, stage, outside = wl.trace_pass(ctx, res)
    outside = dict(outside)
    outside["trace.overhead_ratio"] = w1 / w0
    outside["unattributed_share"] = 1.0 - layers.attributed_ms(stage) / (w0 * 1e3)
    res.layer_values, res.layer_sources = layers.combine(names, trace, stage, outside)
    res.inputs["untraced_s"] = w0
    res.inputs["traced_s"] = w1
