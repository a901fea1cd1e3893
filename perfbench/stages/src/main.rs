//! `isel-stages` — the in-process half of the repository benchmark.
//!
//! ```text
//! isel-stages facts  --kind erp|tpcc --seed N [--warehouses N]
//!                    [--selection FILE]
//! isel-stages stages --workload NAME --dir DIR --workload-file FILE
//!                    [--log FILE] [--max-budget S] [--epoch-events N]
//!                    [--checkpoint-every N] [--shards N]
//! ```
//!
//! `facts` describes a generated workload: its size, the service's global
//! memory budget, the reference costs the quality metric divides by, and
//! the cost of a selection a command printed.
//! `stages` feeds one benchmark workload's inputs (read from `DIR`, where
//! `perfbench/run.py` wrote them with `isel generate` and `isel record`)
//! through each layer's public functions, times every call from here, and
//! prints one JSON object of per-layer metrics. Layers a workload does not
//! exercise are left out; `run.py` reports them as 0.

use isel_core::algorithm1::{self, Options};
use isel_core::{budget, Parallelism, Trace, TraceEvent, VecSink};
use isel_costmodel::model::index_scan_cost_attrs;
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer, WhatIfStats};
use isel_service::arbiter::global_budget;
use isel_service::checkpoint::GroupCheckpoint;
use isel_service::records::{interpret, DecodedEvent};
use isel_service::{
    classify_line, parse_line, Arbiter, DecodeDict, EpochWindow, FrameEncoder, InputLine,
    LineClass, Record, RecordIter, ServiceConfig, ShardMap, TunePolicy, Tuner,
};
use isel_workload::erp::{self, ErpConfig};
use isel_workload::{
    io, tpcc, AttrId, IndexId, IndexPool, Query, QueryId, Schema, Table, TableId, Workload,
};
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `--key value` options after the subcommand.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(tokens: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = tokens.iter();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected {tok:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_owned(), value.clone());
        }
        Ok(Self(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{key} {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => Args::parse(rest).and_then(|args| match cmd.as_str() {
            "facts" => facts(&args),
            "stages" => stages(&args),
            other => Err(format!(
                "unknown command {other:?} (expected facts or stages)"
            )),
        }),
        None => Err("usage: isel-stages facts|stages --key value ...".into()),
    };
    match result {
        Ok(value) => {
            println!("{value}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("isel-stages: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The workload `isel generate` writes for the same `--kind`, `--seed` and
/// `--warehouses`.
fn generated(args: &Args) -> Result<Workload, String> {
    Ok(match args.str("kind")? {
        "erp" => erp::generate(&ErpConfig {
            seed: args.num("seed", 0u64)?,
            ..ErpConfig::default()
        }),
        "tpcc" => tpcc::generate(args.num("warehouses", 100u64)?).0,
        other => return Err(format!("unknown --kind {other:?}")),
    })
}

fn ms(nanos: u128) -> f64 {
    nanos as f64 / 1e6
}

/// Median of a sample; 0 for an empty one.
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `facts`: size, global budget and reference costs of a generated
/// workload; with `--selection FILE`, also the cost of the selection a
/// command printed (its `  TABLE(ATTR, ...)` lines, read from `FILE`).
fn facts(args: &Args) -> Result<Value, String> {
    let w = generated(args)?;
    let schema = w.schema();
    let est = AnalyticalWhatIf::new(&w);
    let base = est.workload_cost(&[]);
    // Unbudgeted optimum: every template gets its own best index. With
    // every key attribute bound, only the key's attribute set matters, so
    // trying each subset of the template's attributes finds it.
    let ideal: f64 = w
        .iter()
        .map(|(id, q)| {
            let attrs = q.attrs();
            let keys = (1u32..1 << attrs.len()).map(|mask| {
                (0..attrs.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| attrs[i])
                    .collect::<Vec<AttrId>>()
            });
            query_cost(&est, schema, id, q, keys)
        })
        .sum();
    let mut out = vec![
        ("tables".to_owned(), json!(schema.tables().len())),
        ("attributes".to_owned(), json!(schema.attr_count())),
        ("templates".to_owned(), json!(w.query_count())),
        (
            "global_budget".to_owned(),
            json!(global_budget(schema, ServiceConfig::default().budget_share)),
        ),
        ("base_cost".to_owned(), json!(base)),
        ("ideal_cost".to_owned(), json!(ideal)),
    ];
    if let Ok(path) = args.str("selection") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let keys = parse_selection(schema, &text)?;
        let cost: f64 = w
            .iter()
            .map(|(id, q)| query_cost(&est, schema, id, q, keys.iter().cloned()))
            .sum();
        out.push(("selection_indexes".to_owned(), json!(keys.len())));
        out.push(("selection_cost".to_owned(), json!(cost)));
    }
    Ok(Value::Object(out))
}

/// Frequency-weighted cost of template `id` when it may use the cheapest
/// of the index keys `keys` (or none).
fn query_cost(
    est: &AnalyticalWhatIf<'_>,
    schema: &Schema,
    id: QueryId,
    q: &Query,
    keys: impl Iterator<Item = Vec<AttrId>>,
) -> f64 {
    let best = keys
        .filter_map(|key| index_scan_cost_attrs(schema, q, &key))
        .fold(est.unindexed_cost(id), f64::min);
    q.frequency() as f64 * best
}

/// The index keys of a printed selection: one `TABLE(ATTR, ...)` per
/// line, attribute names resolved within the table.
fn parse_selection(schema: &Schema, text: &str) -> Result<Vec<Vec<AttrId>>, String> {
    let tables: HashMap<&str, &Table> = schema
        .tables()
        .iter()
        .map(|t| (t.name.as_str(), t))
        .collect();
    let mut keys = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let bad = || format!("selection line {line:?} is not TABLE(ATTR, ...)");
        let (table, rest) = line.split_once('(').ok_or_else(bad)?;
        let names = rest.strip_suffix(')').ok_or_else(bad)?;
        let table = tables
            .get(table)
            .ok_or_else(|| format!("selection names unknown table {table:?}"))?;
        let key = names
            .split(", ")
            .map(|name| {
                table
                    .attrs()
                    .find(|&a| schema.attribute(a).name == name)
                    .ok_or_else(|| format!("{} has no attribute {name:?}", table.name))
            })
            .collect::<Result<Vec<AttrId>, String>>()?;
        keys.push(key);
    }
    Ok(keys)
}

/// A what-if oracle decorator that times every cost call it forwards.
/// Placed under [`CachingWhatIf`], it measures only the calls the cache
/// misses — the oracle's own time.
struct TimedOracle<'a> {
    inner: AnalyticalWhatIf<'a>,
    nanos: AtomicU64,
}

impl<'a> TimedOracle<'a> {
    fn new(workload: &'a Workload) -> Self {
        Self {
            inner: AnalyticalWhatIf::new(workload),
            nanos: AtomicU64::new(0),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn millis(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }
}

impl WhatIfOptimizer for TimedOracle<'_> {
    fn workload(&self) -> &Workload {
        self.inner.workload()
    }
    fn pool(&self) -> &IndexPool {
        self.inner.pool()
    }
    fn unindexed_cost(&self, query: QueryId) -> f64 {
        self.timed(|| self.inner.unindexed_cost(query))
    }
    fn index_cost(&self, query: QueryId, index: IndexId) -> Option<f64> {
        self.timed(|| self.inner.index_cost(query, index))
    }
    fn index_memory(&self, index: IndexId) -> u64 {
        self.inner.index_memory(index)
    }
    fn maintenance_cost(&self, index: IndexId) -> f64 {
        self.inner.maintenance_cost(index)
    }
    fn stats(&self) -> WhatIfStats {
        self.inner.stats()
    }
}

/// Per-layer metrics under their benchmark names.
#[derive(Default)]
struct Metrics(Vec<(String, Value)>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_owned(), json!(value)));
    }
}

/// Roll up the Algorithm-1 events of a trace: candidates scored, steps
/// taken, what-if calls issued and answered from cache.
fn algorithm1_rollup(events: &[TraceEvent], m: &mut Metrics) {
    let (mut candidates, mut steps, mut issued, mut cached) = (0u64, 0u64, 0u64, 0u64);
    for e in events {
        match e {
            TraceEvent::CandidateScan { candidates: c, .. } => candidates += c,
            TraceEvent::RunEnd {
                steps: s,
                issued: i,
                cached: c,
                ..
            } => {
                steps += s;
                issued += i;
                cached += c;
            }
            _ => {}
        }
    }
    m.set("algorithm1.candidates_scored", candidates as f64);
    m.set("algorithm1.steps", steps as f64);
    m.set(
        "algorithm1.step_yield",
        steps as f64 / candidates.max(1) as f64,
    );
    m.set("costmodel.whatif_issued", issued as f64);
    m.set("costmodel.whatif_cached", cached as f64);
    m.set(
        "costmodel.hit_ratio",
        cached as f64 / (issued + cached).max(1) as f64,
    );
}

/// `stages`: the in-process stage pass of one benchmark workload.
fn stages(args: &Args) -> Result<Value, String> {
    let dir = PathBuf::from(args.str("dir")?);
    let mut m = Metrics::default();
    match args.str("workload")? {
        "advise-erp" => stage_advise(args, &dir, &mut m)?,
        "replay-tpcc" | "replay-erp" | "serve-erp" => stage_service(args, &dir, &mut m)?,
        other => return Err(format!("unknown --workload {other:?}")),
    }
    Ok(Value::Object(m.0))
}

/// Time `io::load` of the workload file the command loads.
fn load_timed(path: &Path, m: &mut Metrics) -> Result<Workload, String> {
    let start = Instant::now();
    let w = io::load(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    m.set("io.load_ms", ms(start.elapsed().as_nanos()));
    Ok(w)
}

/// `advise-erp`: workload load, then one Algorithm-1 frontier run over a
/// timed oracle under the same cache `isel frontier` uses.
fn stage_advise(args: &Args, dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let w = load_timed(&dir.join(args.str("workload-file")?), m)?;
    let est = CachingWhatIf::new(TimedOracle::new(&w));
    let opts = Options {
        parallelism: Parallelism::new(1),
        ..Options::new(budget::relative_budget(
            &est,
            args.num("max-budget", 1.0f64)?,
        ))
    };
    let before = est.inner().millis();
    let sink = VecSink::new();
    let start = Instant::now();
    let run = algorithm1::run_traced(&est, &opts, Trace::to(&sink));
    let run_ms = ms(start.elapsed().as_nanos());
    black_box(&run);
    let oracle_ms = est.inner().millis() - before;
    m.set("algorithm1.run_ms", run_ms);
    m.set("costmodel.oracle_ms", oracle_ms);
    m.set("algorithm1.scan_ms", run_ms - oracle_ms);
    algorithm1_rollup(&sink.take(), m);
    Ok(())
}

/// A decoded event log: its templates, and per event the index of its
/// template.
struct Stream {
    templates: Vec<Query>,
    events: Vec<u32>,
    /// The JSONL lines of a text log (empty for binary logs).
    lines: Vec<String>,
}

/// Decode the event log once, timing the record layer; returns the
/// decoded stream and the decode time in nanoseconds.
fn decode(bytes: &[u8], schema: &isel_workload::Schema) -> Result<(Stream, u128), String> {
    let start = Instant::now();
    let mut dict = DecodeDict::new();
    let mut ids: HashMap<u64, u32> = HashMap::new();
    let mut stream = Stream {
        templates: Vec::new(),
        events: Vec::new(),
        lines: Vec::new(),
    };
    for record in RecordIter::new(Cursor::new(bytes)) {
        match record {
            Record::Line(line) => stream.lines.push(line),
            Record::Item(item) => {
                let template = match &item {
                    isel_service::WireItem::Event { template, .. } => Some(*template),
                    _ => None,
                };
                match interpret(&mut dict, schema, &item) {
                    Ok(Some(DecodedEvent::Query(q))) => {
                        let key = template.ok_or("query item without a template")?;
                        let next = stream.templates.len() as u32;
                        let id = *ids.entry(key).or_insert(next);
                        if id == next {
                            stream.templates.push(q.into_owned());
                        }
                        stream.events.push(id);
                    }
                    Ok(_) => {}
                    Err(_) => return Err("log holds an invalid template".into()),
                }
            }
            Record::Corrupt => return Err("log holds a corrupt record".into()),
        }
    }
    Ok((stream, start.elapsed().as_nanos()))
}

/// Parse the JSONL lines into the stream's template table (timed: the
/// `event` layer).
fn parse_lines(stream: &mut Stream, schema: &isel_workload::Schema) -> Result<u128, String> {
    let start = Instant::now();
    let mut ids: HashMap<(TableId, bool, Vec<AttrId>), u32> = HashMap::new();
    for line in &stream.lines {
        match parse_line(line, schema)? {
            InputLine::Query(q) => {
                let next = stream.templates.len() as u32;
                let id = *ids
                    .entry((q.table(), q.is_update(), q.attrs().to_vec()))
                    .or_insert(next);
                if id == next {
                    stream.templates.push(q);
                }
                stream.events.push(id);
            }
            _ => return Err(format!("unexpected non-event line {line:?}")),
        }
    }
    Ok(start.elapsed().as_nanos())
}

/// `replay-*` and `serve-erp`: decode, route, fold, seal, tune, merge and
/// commit the workload's event log in process, one layer at a time.
fn stage_service(args: &Args, dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let w = load_timed(&dir.join(args.str("workload-file")?), m)?;
    let schema = w.schema().clone();
    let config = ServiceConfig {
        epoch_events: args.num("epoch-events", ServiceConfig::default().epoch_events)?,
        checkpoint_every_epochs: args.num("checkpoint-every", 0u64)?,
        shards: args.num("shards", 1u32)?,
        ..ServiceConfig::default()
    };
    let log = dir.join(args.str("log")?);
    let bytes = std::fs::read(&log).map_err(|e| format!("read {}: {e}", log.display()))?;

    // Records: split the input into records (lines or decoded frames).
    let (mut stream, decode_ns) = decode(&bytes, &schema)?;
    let text = !stream.lines.is_empty();
    if text {
        let parse_ns = parse_lines(&mut stream, &schema)?;
        m.set(
            "event.parse_ns_per_event",
            parse_ns as f64 / stream.lines.len() as f64,
        );
    }
    let n = stream.events.len();
    if n == 0 {
        return Err("event log holds no events".into());
    }
    m.set("records.decode_ns_per_event", decode_ns as f64 / n as f64);

    // Shard: classify each event to its shard.
    let map = ShardMap::new(config.shards.max(1), BTreeMap::new(), schema.tables().len())?;
    let start = Instant::now();
    let mut routed = 0u64;
    if text {
        for line in &stream.lines {
            if let LineClass::Table(t) = classify_line(black_box(line)) {
                routed += u64::from(map.shard_of(t)) + 1;
            }
        }
    } else {
        for &e in &stream.events {
            routed += u64::from(map.shard_of(stream.templates[e as usize].table().0)) + 1;
        }
    }
    black_box(routed);
    m.set(
        "shard.classify_ns_per_event",
        start.elapsed().as_nanos() as f64 / n as f64,
    );

    // Frame: the supervisor's pipe hop re-encodes each line as a frame.
    if text {
        let mut enc = FrameEncoder::new();
        let mut frames = Vec::new();
        let mut sent = 0usize;
        let start = Instant::now();
        for line in &stream.lines {
            enc.push_raw(line.as_bytes());
            enc.auto_flush_into(&mut frames);
            sent += frames.len();
            frames.clear();
        }
        enc.flush_into(&mut frames);
        black_box(sent + frames.len());
        m.set(
            "frame.encode_ns_per_event",
            start.elapsed().as_nanos() as f64 / n as f64,
        );
    }

    // Window: fold every event into its table group's window; time each
    // seal (the snapshot a sealed epoch hands to the tuner) on its own.
    let mut windows: BTreeMap<u16, EpochWindow> = BTreeMap::new();
    let mut seal_ns = Vec::new();
    let start = Instant::now();
    for &e in &stream.events {
        let q = &stream.templates[e as usize];
        let window = windows.entry(q.table().0).or_insert_with(|| {
            EpochWindow::new(
                schema.clone(),
                config.epoch_events,
                config.window_epochs,
                config.max_templates,
            )
        });
        if window.push(q) {
            let t = Instant::now();
            black_box(window.snapshot());
            seal_ns.push(t.elapsed().as_nanos());
        }
    }
    let fold_ns = start.elapsed().as_nanos() - seal_ns.iter().sum::<u128>();
    m.set("window.fold_ns_per_event", fold_ns as f64 / n as f64);
    m.set(
        "window.seal_us_per_epoch",
        median(seal_ns.iter().map(|&t| t as f64 / 1e3).collect()),
    );
    drop(windows);

    // Tuner, arbiter and checkpoint: the service loop over table groups,
    // with each tune, publish and commit timed on its own.
    let budget = global_budget(&schema, config.budget_share);
    let arbiter = Arbiter::new(budget, BTreeMap::new());
    let merge_sink = VecSink::new();
    let tune_sink = VecSink::new();
    let mut groups: BTreeMap<u16, (EpochWindow, Tuner)> = BTreeMap::new();
    let (mut tune_ms, mut merge_ms, mut commit_ms, mut commit_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut oracle_ms = 0.0;
    let mut policies = [0u64; 3];
    let commit_every = config.epoch_events * config.checkpoint_every_epochs;
    let ckpt_path = dir.join("stage-checkpoint.json");
    for (i, &e) in stream.events.iter().enumerate() {
        let q = &stream.templates[e as usize];
        let table = q.table();
        let (window, tuner) = groups.entry(table.0).or_insert_with(|| {
            (
                EpochWindow::new(
                    schema.clone(),
                    config.epoch_events,
                    config.window_epochs,
                    config.max_templates,
                ),
                Tuner::for_table(&schema, config.clone(), table),
            )
        });
        if window.push(q) {
            let snap = window.snapshot().expect("a sealed window has a snapshot");
            let est = CachingWhatIf::new(TimedOracle::new(&snap));
            let start = Instant::now();
            let out = tuner.tune_with(
                &snap,
                &est,
                Parallelism::new(config.threads),
                Trace::to(&tune_sink),
            );
            tune_ms.push(ms(start.elapsed().as_nanos()));
            oracle_ms += est.inner().millis();
            policies[match out.policy {
                TunePolicy::NoOp => 0,
                TunePolicy::Adapt => 1,
                TunePolicy::FromScratch => 2,
            }] += 1;
            if tuner.take_published_dirty() {
                if let Some(pf) = tuner.published() {
                    let start = Instant::now();
                    arbiter.publish(table.0, std::sync::Arc::clone(pf), Trace::to(&merge_sink));
                    merge_ms.push(ms(start.elapsed().as_nanos()));
                }
            }
        }
        if commit_every > 0 && (i as u64 + 1).is_multiple_of(commit_every) {
            let start = Instant::now();
            let docs = groups
                .values_mut()
                .map(|(window, tuner)| GroupCheckpoint::capture(tuner, window).to_json())
                .collect::<Result<Vec<_>, _>>()?;
            let body = format!("[{}]", docs.join(","));
            let tmp = ckpt_path.with_extension("tmp");
            std::fs::write(&tmp, body.as_bytes())
                .map_err(|e| format!("write {}: {e}", tmp.display()))?;
            std::fs::rename(&tmp, &ckpt_path)
                .map_err(|e| format!("rename {}: {e}", tmp.display()))?;
            commit_ms.push(ms(start.elapsed().as_nanos()));
            commit_bytes.push(body.len() as f64);
        }
    }
    let _ = std::fs::remove_file(&ckpt_path);

    let tunes = tune_sink.take();
    algorithm1_rollup(&tunes, m);
    let run_ms: f64 = tunes
        .iter()
        .map(|e| match e {
            TraceEvent::RunEnd { micros, .. } => *micros as f64 / 1e3,
            _ => 0.0,
        })
        .sum();
    m.set("algorithm1.run_ms", run_ms);
    m.set("costmodel.oracle_ms", oracle_ms);
    m.set("algorithm1.scan_ms", run_ms - oracle_ms);
    m.set("tuner.tune_ms_total", tune_ms.iter().sum());
    m.set(
        "tuner.tune_ms_max",
        tune_ms.iter().copied().fold(0.0, f64::max),
    );
    m.set("tuner.tune_ms_p50", median(tune_ms));
    m.set("tuner.epochs_noop", policies[0] as f64);
    m.set("tuner.epochs_adapt", policies[1] as f64);
    m.set("tuner.epochs_scratch", policies[2] as f64);

    let (mut parts_max, mut recombined) = (0u64, 0u64);
    for e in merge_sink.take() {
        if let TraceEvent::Merge {
            parts,
            recombined: r,
            ..
        } = e
        {
            parts_max = parts_max.max(parts);
            recombined += r;
        }
    }
    m.set("arbiter.merges", merge_ms.len() as f64);
    m.set("arbiter.merge_ms", merge_ms.iter().sum());
    m.set(
        "arbiter.merge_max_ms",
        merge_ms.iter().copied().fold(0.0, f64::max),
    );
    m.set("arbiter.parts_max", parts_max as f64);
    m.set("arbiter.recombined", recombined as f64);
    let mut whatif_us = Vec::new();
    for _ in 0..50 {
        let start = Instant::now();
        black_box(arbiter.whatif(black_box(budget)));
        whatif_us.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    m.set("arbiter.whatif_us", median(whatif_us));
    if !commit_ms.is_empty() {
        m.set("checkpoint.commits", commit_ms.len() as f64);
        m.set("checkpoint.commit_ms", median(commit_ms));
        m.set("checkpoint.bytes_per_commit", median(commit_bytes));
    }
    m.set("stage.events", n as f64);
    Ok(())
}
