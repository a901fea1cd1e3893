//! Unix-domain-socket front end for live serving.
//!
//! [`run_socket`] binds a socket, accepts any number of concurrent
//! connections, and feeds their lines to one serving engine — the
//! in-process [`crate::Router`] or the multi-process
//! [`crate::Supervisor`] — as a single ordered input stream
//! ([`ChannelReader`]). Engines serve a socket with the drop-oldest
//! overload policy: a live service must never stall its clients on
//! backpressure; it sheds load and counts the shed. A
//! `{"control":"shutdown"}` line on *any* connection stops the accept
//! loop, and the engine drains and checkpoints as usual.
//!
//! # Deterministic cross-client order
//!
//! Event order across concurrent connections is arrival order, which is
//! inherently racy. To make a live run *auditable*, every accepted
//! connection is assigned a monotone connection id and each of its
//! lines a per-connection sequence number. When a journal path is
//! given, every line is rewritten as
//! `{"conn":C,"seq":S,...original fields...}` and appended to the
//! journal *in the exact order the engine consumes it* — the journal
//! lock is held across both the journal write and the channel send, so
//! journal order is input order. Replaying the journal through
//! [`crate::Router::run_reader`] reproduces the live run bit-for-bit:
//! the event parser ignores the `conn`/`seq` fields, so the journal
//! parses exactly like the original stream.
//!
//! # Interactive replies
//!
//! `status`, `whatif`, `tenant`, `budget` and `calibration` lines are
//! stamped with a reply-routing token ([`InteractiveRegistry`]) and
//! answered on the issuing connection as one JSON line: `status` out of
//! band, the others *in* band — as barrier items, so the reply reflects
//! exactly the events that preceded the query on the stream — from the
//! live [`crate::Arbiter`], never by re-running selection. A reply lost
//! to a client that hung up is counted in the engine's
//! [`StatusBoard::reply_errors`] and never ends the run.

use crate::arbiter::InteractiveRegistry;
use crate::event::{parse_line, Control, InputLine};
use crate::frame::WireItem;
use crate::journal::{render_item_line, JournalConfig, JournalWriter};
use crate::records::{DecodeDict, Record, RecordIter};
use crate::router::ServiceReport;
use crate::status::StatusBoard;
use isel_workload::Schema;
use std::io::{BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Accept-loop poll interval while waiting for connections.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// The socket's line stream presented as [`std::io::BufRead`] input for
/// an engine: connection handlers send canonical lines in arrival
/// order, and the channel hanging up reads as EOF.
pub struct ChannelReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl std::io::Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = std::io::BufRead::fill_buf(self)?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        std::io::BufRead::consume(self, n);
        Ok(n)
    }
}

impl std::io::BufRead for ChannelReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf.clear();
                    self.buf.extend_from_slice(line.as_bytes());
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                // Every sender hung up: the stream is over.
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// Serve an engine on a Unix-domain socket at `path` until a `shutdown`
/// control arrives, then let it drain, checkpoint and report. A stale
/// socket file at `path` is replaced.
///
/// `engine` runs the engine over the socket's input stream, answering
/// interactive lines through the registry it is handed (see
/// [`crate::Router::set_interactive`]) and counting into `board` — the
/// engine's own status board, where connection handlers count lost
/// replies. `schema` validates interactive controls before they are
/// stamped with a reply token.
///
/// When `journal` is given, every accepted line is appended there
/// tagged with its connection id and per-connection sequence number, in
/// consumption order (see the module docs for the replay contract). The
/// journal may be JSONL or binary and may rotate into segments — see
/// [`JournalConfig`]; both encodings replay identically.
///
/// Clients may likewise send either encoding (even mixed on one
/// connection): binary items are rendered back to their canonical line
/// form, so journaling and replay semantics are identical no matter how
/// an event arrived. Connection handlers read until their peer
/// disconnects, so the final drain completes once every client has hung
/// up — clients should close their end after (or instead of) sending
/// `shutdown`.
pub fn run_socket<F>(
    path: &Path,
    journal: Option<&JournalConfig>,
    schema: &Schema,
    board: &StatusBoard,
    engine: F,
) -> Result<ServiceReport, String>
where
    F: FnOnce(ChannelReader, Arc<InteractiveRegistry>) -> Result<ServiceReport, String>,
{
    if path.exists() {
        std::fs::remove_file(path).map_err(|e| format!("remove stale socket: {e}"))?;
    }
    let listener =
        UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;

    let journal = match journal {
        Some(cfg) => Some(Mutex::new(JournalWriter::create(cfg.clone())?)),
        None => None,
    };
    let registry = Arc::new(InteractiveRegistry::new());
    let stop = AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let shared = ConnShared {
        schema,
        registry: &registry,
        journal: journal.as_ref(),
        stop: &stop,
        board,
    };

    let result = std::thread::scope(|s| {
        let shared = &shared;
        s.spawn(move || {
            let conn_ids = AtomicU64::new(0);
            while !shared.stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let conn = conn_ids.fetch_add(1, Ordering::Relaxed) + 1;
                        let tx = tx.clone();
                        s.spawn(move || serve_connection(shared, &tx, stream, conn));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => break,
                }
            }
            // Dropping the accept loop's sender lets the engine read EOF
            // once every connection handler has also hung up.
        });
        let reader = ChannelReader { rx, buf: Vec::new(), pos: 0 };
        let result = engine(reader, Arc::clone(&registry));
        stop.store(true, Ordering::Relaxed);
        // Queries still in flight were either answered during the drain
        // or never reached the engine; wake any connection waiting on
        // the latter.
        registry.drain();
        result
    });
    if let Some(j) = journal {
        let writer = match j.into_inner() {
            Ok(w) => w,
            Err(p) => p.into_inner(),
        };
        let errors = writer.finish();
        if errors > 0 {
            return Err(format!("journal write errors: {errors}"));
        }
    }
    std::fs::remove_file(path).ok();
    result
}

/// Context the accept loop shares with every connection handler.
struct ConnShared<'a> {
    schema: &'a Schema,
    registry: &'a InteractiveRegistry,
    journal: Option<&'a Mutex<JournalWriter>>,
    stop: &'a AtomicBool,
    board: &'a StatusBoard,
}

/// Per-connection reader: render records to canonical lines, journal
/// and forward them in one locked step (so journal order is the
/// engine's consumption order), stamp interactive lines with a reply
/// token and relay the answer back.
fn serve_connection(shared: &ConnShared<'_>, tx: &Sender<String>, stream: UnixStream, conn: u64) {
    let mut writer = stream.try_clone().ok();
    let mut dict = DecodeDict::new();
    let mut seq = 0u64;
    for record in RecordIter::new(BufReader::new(stream)) {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let line = match record {
            Record::Line(line) => line,
            Record::Item(item) => {
                if let WireItem::Define { .. } = item {
                    // Defines only update the connection's dictionary;
                    // events re-render as self-contained lines, so the
                    // journal stays definition-free.
                    render_item_line(&mut dict, &item);
                    continue;
                }
                match render_item_line(&mut dict, &item) {
                    Some(line) => line,
                    // Forwarded as a line the parser rejects, so live
                    // and journal-replay invalid counts agree.
                    None => "{\"invalid\":\"undecodable binary item\"}".to_owned(),
                }
            }
            Record::Corrupt => "{\"invalid\":\"corrupt record\"}".to_owned(),
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        seq += 1;
        let control = match parse_line(trimmed, shared.schema) {
            Ok(InputLine::Control(c)) => Some(c),
            _ => None,
        };
        let interactive = matches!(
            control,
            Some(
                Control::Status
                    | Control::Whatif { .. }
                    | Control::Tenant { .. }
                    | Control::Budget { .. }
                    | Control::Calibration
            )
        );
        let mut pending = None;
        {
            // Journal-write and channel-send under one lock so journal
            // order is consumption order.
            let mut guard = shared.journal.map(|j| match j.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            });
            if let Some(g) = guard.as_mut() {
                g.write_line(conn, seq, &line);
            }
            if interactive {
                let (reply_tx, reply_rx) = std::sync::mpsc::channel();
                let token = shared.registry.register(reply_tx);
                let body = &trimmed[..trimmed.len() - 1];
                let _ = tx.send(format!("{body},\"token\":{token}}}"));
                pending = Some(reply_rx);
            } else {
                let _ = tx.send(trimmed.to_owned());
            }
        }
        if let Some(reply_rx) = pending {
            if let Ok(reply) = reply_rx.recv() {
                // A peer that hung up mid-reply is counted, never fatal:
                // the stream keeps draining until disconnect.
                let sent = writer
                    .as_mut()
                    .is_some_and(|w| writeln!(w, "{reply}").is_ok());
                if !sent {
                    shared.board.reply_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if matches!(control, Some(Control::Shutdown)) {
            shared.stop.store(true, Ordering::Relaxed);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DriftThresholds, ServiceConfig};
    use crate::router::{OverloadPolicy, Router};
    use isel_workload::synthetic::{self, SyntheticConfig};
    use std::io::Read;

    /// Serve `router` on `sock` the way `isel serve --socket` does.
    fn serve(router: &mut Router, sock: &Path, journal: Option<&JournalConfig>) -> ServiceReport {
        let board = router.status_board();
        let schema = router.schema().clone();
        run_socket(sock, journal, &schema, &board, |input, registry| {
            router.set_interactive(registry);
            router.run_with_board(&board, input, OverloadPolicy::DropOldest, None, &[])
        })
        .unwrap()
    }

    fn test_setup() -> (isel_workload::Workload, ServiceConfig, std::path::PathBuf) {
        let w = synthetic::generate(&SyntheticConfig {
            tables: 1,
            attrs_per_table: 8,
            queries_per_table: 10,
            rows_base: 20_000,
            max_query_width: 3,
            update_fraction: 0.0,
            seed: 44,
        });
        let cfg = ServiceConfig {
            epoch_events: 8,
            window_epochs: 2,
            max_templates: 32,
            drift: DriftThresholds::always_adapt(),
            ..ServiceConfig::default()
        };
        let dir = std::env::temp_dir().join("isel-service-socket-test");
        std::fs::create_dir_all(&dir).unwrap();
        (w, cfg, dir)
    }

    fn event_lines(w: &isel_workload::Workload, n: usize) -> Vec<String> {
        w.queries()[..n]
            .iter()
            .map(|q| {
                let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
                format!("{{\"table\":{},\"attrs\":[{}]}}", q.table().0, attrs.join(","))
            })
            .collect()
    }

    #[test]
    fn socket_round_trip_with_shutdown() {
        let (w, cfg, dir) = test_setup();
        let sock = dir.join(format!("isel-{}.sock", std::process::id()));
        let mut router = Router::new(w.schema().clone(), cfg).unwrap();
        let events = event_lines(&w, 8);

        let report = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            s.spawn(move || {
                // Wait for the listener to come up, then stream events.
                let mut stream = loop {
                    match UnixStream::connect(&sock_path) {
                        Ok(s) => break s,
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                };
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
            });
            serve(&mut router, &sock, None)
        });
        assert_eq!(report.ingested, 8);
        assert_eq!(report.epochs.len(), 1, "8 events seal one epoch");
        assert!(!report.final_selection.is_empty());
        assert!(!sock.exists(), "socket file cleaned up");
    }

    #[test]
    fn whatif_queries_are_answered_on_the_connection() {
        let (w, cfg, dir) = test_setup();
        let sock = dir.join(format!("isel-whatif-{}.sock", std::process::id()));
        let mut router = Router::new(w.schema().clone(), cfg).unwrap();
        let events = event_lines(&w, 8);
        let probe = 1u64 << 20;

        let (report, reply) = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            let client = s.spawn(move || {
                let mut stream = loop {
                    match UnixStream::connect(&sock_path) {
                        Ok(s) => break s,
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                };
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                // The whatif barrier is answered only after the 8 events
                // before it sealed and tuned an epoch.
                writeln!(stream, "{{\"control\":\"whatif\",\"budget\":{probe}}}").unwrap();
                let mut reply = Vec::new();
                let mut byte = [0u8; 1];
                loop {
                    stream.read_exact(&mut byte).unwrap();
                    if byte[0] == b'\n' {
                        break;
                    }
                    reply.push(byte[0]);
                }
                stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
                String::from_utf8(reply).unwrap()
            });
            let report = serve(&mut router, &sock, None);
            (report, client.join().unwrap())
        });
        assert_eq!(report.ingested, 8);
        assert_eq!(report.epochs.len(), 1);
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v.get("budget").and_then(|b| b.as_u64()), Some(probe));
        assert!(v.get("total_memory").and_then(|m| m.as_u64()).unwrap() <= probe);
        // Served answer is byte-identical to an offline read of the same
        // maintained state.
        assert_eq!(reply, router.arbiter().whatif(probe));
    }

    #[test]
    fn sharded_socket_answers_whatif_and_tenant_queries() {
        let w = synthetic::generate(&SyntheticConfig {
            tables: 3,
            attrs_per_table: 8,
            queries_per_table: 10,
            rows_base: 20_000,
            max_query_width: 3,
            update_fraction: 0.0,
            seed: 44,
        });
        let cfg = ServiceConfig {
            epoch_events: 8,
            window_epochs: 2,
            max_templates: 32,
            drift: DriftThresholds::always_adapt(),
            shards: 2,
            ..ServiceConfig::default()
        };
        let dir = std::env::temp_dir().join("isel-service-socket-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join(format!("isel-router-{}.sock", std::process::id()));
        let mut router = Router::new(w.schema().clone(), cfg).unwrap();
        // 16 events over table 0's templates: two sealed epochs for
        // group 0 before the queries arrive.
        let events: Vec<String> = w
            .queries()
            .iter()
            .filter(|q| q.table().0 == 0)
            .cycle()
            .take(16)
            .map(|q| {
                let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
                format!("{{\"table\":{},\"attrs\":[{}]}}", q.table().0, attrs.join(","))
            })
            .collect();
        let probe = 1u64 << 22;

        let (report, replies) = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            let client = s.spawn(move || {
                let mut stream = loop {
                    match UnixStream::connect(&sock_path) {
                        Ok(s) => break s,
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                };
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                writeln!(stream, "{{\"control\":\"whatif\",\"budget\":{probe}}}").unwrap();
                writeln!(stream, "{{\"control\":\"tenant\",\"table_group\":0,\"budget\":{probe}}}")
                    .unwrap();
                let mut replies = Vec::new();
                let mut byte = [0u8; 1];
                for _ in 0..2 {
                    let mut reply = Vec::new();
                    loop {
                        stream.read_exact(&mut byte).unwrap();
                        if byte[0] == b'\n' {
                            break;
                        }
                        reply.push(byte[0]);
                    }
                    replies.push(String::from_utf8(reply).unwrap());
                }
                stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
                replies
            });
            let report = serve(&mut router, &sock, None);
            (report, client.join().unwrap())
        });
        assert_eq!(report.ingested, 16);
        // The served answers are byte-identical to offline reads of the
        // same maintained state.
        assert_eq!(replies[0], router.arbiter().whatif(probe));
        assert_eq!(replies[1], router.arbiter().tenant(0, probe));
        let v: serde_json::Value = serde_json::from_str(&replies[0]).unwrap();
        assert!(v.get("total_memory").and_then(|m| m.as_u64()).unwrap() <= probe);
        let v: serde_json::Value = serde_json::from_str(&replies[1]).unwrap();
        assert_eq!(v.get("table_group").and_then(|t| t.as_u64()), Some(0));
        assert!(v.get("cost").and_then(|c| c.as_f64()).is_some(), "published group has a cost");
    }

    /// Poll `{"control":"status"}` on `stream` until the reply shows at
    /// least `n` ingested events. Controls sent on this connection
    /// afterwards are then ordered after those events — connections are
    /// served concurrently, so a `shutdown` would otherwise race
    /// another connection's unread tail.
    fn await_ingested(stream: &mut UnixStream, n: u64) {
        use std::io::Read;
        loop {
            stream.write_all(b"{\"control\":\"status\"}\n").unwrap();
            let mut reply = Vec::new();
            let mut byte = [0u8; 1];
            loop {
                stream.read_exact(&mut byte).unwrap();
                if byte[0] == b'\n' {
                    break;
                }
                reply.push(byte[0]);
            }
            let reply = String::from_utf8(reply).unwrap();
            let got: u64 = reply
                .split("\"ingested\":")
                .nth(1)
                .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
                .expect("status reply carries an ingested counter")
                .parse()
                .unwrap();
            if got >= n {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn disconnect_mid_query_does_not_abort_serving() {
        // Regression: a client that asks `whatif` and hangs up before
        // reading the reply used to risk tearing down the serving loop;
        // the failed reply write must be absorbed (and counted) while
        // other connections keep being served.
        let (w, cfg, dir) = test_setup();
        let sock = dir.join(format!("isel-gone-{}.sock", std::process::id()));
        let mut router = Router::new(w.schema().clone(), cfg).unwrap();
        let events = event_lines(&w, 8);

        let report = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            s.spawn(move || {
                let mut stream = loop {
                    match UnixStream::connect(&sock_path) {
                        Ok(s) => break s,
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                };
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                // Ask, then vanish without reading the answer.
                writeln!(stream, "{{\"control\":\"whatif\",\"budget\":1048576}}").unwrap();
                stream.shutdown(std::net::Shutdown::Both).unwrap();
                drop(stream);
                // A second client is still served and can end the run —
                // once everything above has actually been ingested.
                let mut stream = UnixStream::connect(&sock_path).unwrap();
                writeln!(stream, "{}", events[0]).unwrap();
                await_ingested(&mut stream, 9);
                stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
            });
            serve(&mut router, &sock, None)
        });
        assert_eq!(report.ingested, 9, "both connections fully served");
    }

    #[test]
    fn router_survives_disconnect_mid_query() {
        let (w, cfg, dir) = test_setup();
        let cfg = ServiceConfig { shards: 2, ..cfg };
        let sock = dir.join(format!("isel-router-gone-{}.sock", std::process::id()));
        let mut router = Router::new(w.schema().clone(), cfg).unwrap();
        let events = event_lines(&w, 8);

        let report = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            s.spawn(move || {
                let mut stream = loop {
                    match UnixStream::connect(&sock_path) {
                        Ok(s) => break s,
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                };
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                writeln!(stream, "{{\"control\":\"whatif\",\"budget\":1048576}}").unwrap();
                stream.shutdown(std::net::Shutdown::Both).unwrap();
                drop(stream);
                let mut stream = UnixStream::connect(&sock_path).unwrap();
                writeln!(stream, "{}", events[0]).unwrap();
                await_ingested(&mut stream, 9);
                stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
            });
            serve(&mut router, &sock, None)
        });
        assert_eq!(report.ingested, 9, "both connections fully served");
    }

    #[test]
    fn journal_records_arrival_order_and_status_replies() {
        let (w, cfg, dir) = test_setup();
        let sock = dir.join(format!("isel-journal-{}.sock", std::process::id()));
        let journal = dir.join(format!("isel-journal-{}.jsonl", std::process::id()));
        let mut router = Router::new(w.schema().clone(), cfg.clone()).unwrap();
        let events = event_lines(&w, 8);

        let report = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            s.spawn(move || {
                let mut stream = loop {
                    match UnixStream::connect(&sock_path) {
                        Ok(s) => break s,
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                };
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                stream.write_all(b"{\"control\":\"status\"}\n").unwrap();
                // The status reply comes back on this connection as one
                // JSON line before anything else is written to it.
                let mut reply = Vec::new();
                let mut byte = [0u8; 1];
                loop {
                    stream.read_exact(&mut byte).unwrap();
                    if byte[0] == b'\n' {
                        break;
                    }
                    reply.push(byte[0]);
                }
                let reply = String::from_utf8(reply).unwrap();
                assert!(reply.contains("\"ingested\":8"), "status reply: {reply}");
                stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
            });
            let jcfg = JournalConfig {
                path: journal.clone(),
                format: crate::journal::WireFormat::Jsonl,
                max_bytes: None,
            };
            serve(&mut router, &sock, Some(&jcfg))
        });
        assert_eq!(report.ingested, 8);

        // Journal lines carry conn/seq tags in increasing per-connection
        // order, and the control lines are journaled too.
        let text = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 10, "8 events + status + shutdown journaled");
        let mut last_seq = 0u64;
        for l in &lines {
            let v: serde_json::Value = serde_json::from_str(l).unwrap();
            assert_eq!(v.get("conn").and_then(|c| c.as_u64()), Some(1));
            let seq = v.get("seq").and_then(|s| s.as_u64()).unwrap();
            assert!(seq > last_seq, "sequence numbers strictly increase");
            last_seq = seq;
        }

        // Replaying the journal through the deterministic reader
        // reproduces the live outcome: RawLine ignores conn/seq.
        let mut replay = Router::new(w.schema().clone(), cfg).unwrap();
        let rep = replay
            .run_reader(std::io::Cursor::new(text), OverloadPolicy::Block, None, &[])
            .unwrap();
        assert_eq!(rep.ingested, report.ingested);
        assert_eq!(rep.epochs.len(), report.epochs.len());
        assert_eq!(
            rep.final_selection.indexes(),
            report.final_selection.indexes()
        );
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn lost_replies_reach_the_status_board() {
        // A client that shut down its read side before asking makes the
        // reply write fail with EPIPE every time; the loss must show in
        // the engine's status line, in whole-schema and sharded mode.
        for shards in [0u32, 2] {
            let (w, cfg, dir) = test_setup();
            let cfg = ServiceConfig { shards, ..cfg };
            let sock = dir.join(format!("isel-lost-{shards}-{}.sock", std::process::id()));
            let mut router = Router::new(w.schema().clone(), cfg).unwrap();
            let events = event_lines(&w, 8);

            let report = std::thread::scope(|s| {
                let sock_path = sock.clone();
                let events = &events;
                s.spawn(move || {
                    let mut deaf = loop {
                        match UnixStream::connect(&sock_path) {
                            Ok(s) => break s,
                            Err(_) => std::thread::sleep(Duration::from_millis(10)),
                        }
                    };
                    deaf.shutdown(std::net::Shutdown::Read).unwrap();
                    for e in events {
                        writeln!(deaf, "{e}").unwrap();
                    }
                    writeln!(deaf, "{{\"control\":\"whatif\",\"budget\":1048576}}").unwrap();
                    let mut stream = UnixStream::connect(&sock_path).unwrap();
                    let deadline = std::time::Instant::now() + Duration::from_secs(30);
                    loop {
                        stream.write_all(b"{\"control\":\"status\"}\n").unwrap();
                        let mut reply = Vec::new();
                        let mut byte = [0u8; 1];
                        loop {
                            stream.read_exact(&mut byte).unwrap();
                            if byte[0] == b'\n' {
                                break;
                            }
                            reply.push(byte[0]);
                        }
                        let reply = String::from_utf8(reply).unwrap();
                        if reply.contains("\"reply_errors\":1,") {
                            break;
                        }
                        assert!(
                            std::time::Instant::now() < deadline,
                            "lost reply never counted at {shards} shards: {reply}"
                        );
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    drop(deaf);
                    stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
                });
                serve(&mut router, &sock, None)
            });
            assert_eq!(report.ingested, 8, "the deaf client's events were served");
        }
    }
}
