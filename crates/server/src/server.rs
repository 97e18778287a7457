//! The daemon: TCP listener, bounded queue, worker pool, deadline
//! watchdog, and the request handlers.
//!
//! Threading model: one reader thread per connection parses NDJSON lines
//! and submits each request to a bounded MPMC queue (`try_send`, so a
//! full queue turns into an immediate backpressure error instead of an
//! unbounded backlog), then waits for that request's response and writes
//! it back — connections are served in order, parallelism comes from
//! serving many connections over `workers` pool threads. A watchdog
//! thread turns wall-clock deadlines into solver stop-flag trips, so an
//! in-flight search aborts mid-branch instead of overshooting; shutdown
//! trips every registered flag the same way.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use rrf_core::{
    baseline, cp, lns_improve_traced, metrics, verify, FaultImpact, Floorplan, FrameCostModel,
    LnsConfig, PlacementProblem, SolveStats,
};
use rrf_flow::{resolve_module, FlowReport, FlowSpec, PlacedModuleReport, RegionSpec};
use rrf_sched::{AdmitOutcome, CancelOutcome, Scheduler, TaskSpec};

use crate::admission::{estimated_wait_ms, retry_after_ms, Breaker};
use crate::cache::{
    cache_key, canonicalize, persist, remap_report, CacheEntry, FlightGuard, Probe, Role,
    ShardedCache, SingleFlight,
};
use crate::journal::{Journal, JournalRecord, SchedOp};
use crate::protocol::{AdoptedSession, PlaceMethod, Request, Response, SlotState};
use crate::session::{self, Applied, Session, SessionOp};
use crate::stats::{DetailCollector, ServerStats};

/// Below this remaining budget the CP attempt is skipped entirely and the
/// ladder starts at the greedy seed.
const TIGHT_BUDGET: Duration = Duration::from_millis(200);
/// Minimum remaining budget worth spending on LNS over the greedy seed.
const LNS_WORTHWHILE: Duration = Duration::from_millis(20);
/// Poll interval of the connection reader loops and the watchdog.
const POLL: Duration = Duration::from_millis(20);
/// Extra wait a coalesced joiner grants the leader beyond the joiner's
/// own remaining budget (covers the leader's post-solve verify/remap
/// overhead). A joiner can only be waiting on a leader with at least as
/// much budget, so in practice the leader publishes well before this
/// fires; past it, the joiner answers `overloaded` (retry-safe — the
/// request never executed anything).
const COALESCE_SLACK: Duration = Duration::from_secs(2);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker pool size.
    pub workers: usize,
    /// Bounded request-queue depth; a full queue rejects with an error.
    pub queue_depth: usize,
    /// Deadline applied to `place` requests that do not carry their own.
    pub default_deadline_ms: u64,
    /// Placement-cache capacity (entries), split evenly across shards.
    pub cache_capacity: usize,
    /// Placement-cache lock stripes (shards). Concurrent requests for
    /// different specs only contend when their canonical keys hash to
    /// the same stripe; 1 reproduces the old single-mutex behavior.
    pub cache_shards: usize,
    /// Cache snapshot path. With a path, graceful shutdown writes the
    /// cache as a byte-deterministic NDJSON snapshot and startup
    /// warm-loads it (torn tails tolerated like the journal's), so a
    /// restarted daemon does not re-solve its whole working set.
    pub cache_persist_path: Option<String>,
    /// Single-flight coalescing: concurrent cache-missing `place`
    /// requests with the same canonical key and compatible budgets share
    /// one solve (see `cache::singleflight`). On by default; off is the
    /// cache-ablation baseline.
    pub coalesce: bool,
    /// Session journal path. `None` disables durability; with a path, the
    /// daemon replays the journal at startup (crash recovery) and logs
    /// every state-changing session operation before answering it.
    pub journal_path: Option<String>,
    /// fsync the journal after every N appended records (1 = every
    /// record; larger batches trade the log's tail for throughput).
    pub journal_fsync_every: u64,
    /// Trace output path (NDJSON, see `rrf-trace`). `None` disables
    /// tracing; with a path, every `place` request emits a `solve` span
    /// whose `solve.*` phase spans tile its wall time exactly, plus the
    /// solver's own `place`/`search` spans nested within.
    pub trace_path: Option<String>,
    /// Hard cap on concurrently open connections; one past the cap gets
    /// a single `overloaded` line and is closed (0 = unlimited).
    pub max_conns: usize,
    /// Maximum accepted request-line length in bytes. A longer line is
    /// answered with a structured error and discarded up to its newline;
    /// the connection survives, but the line buffer never grows past the
    /// cap — a hostile client cannot balloon daemon memory. Because each
    /// connection is served strictly in order, this also bounds the
    /// connection's in-flight request bytes.
    pub max_line_bytes: usize,
    /// Write timeout towards clients, milliseconds. A client that stalls
    /// a response write longer than this is forcibly disconnected (0 =
    /// no timeout).
    pub write_timeout_ms: u64,
    /// Grace period for shutdown: new requests are refused, but queued
    /// and in-flight ones get up to this long to finish before solver
    /// stop flags fire and the final journal snapshot is taken.
    pub shutdown_grace_ms: u64,
    /// Adaptive admission control. When on (the default), a full queue
    /// rejects immediately with `overloaded` + `retry_after_ms`, and a
    /// `place` request whose estimated queue wait already exceeds its
    /// deadline is shed before spending any solver budget. When off —
    /// the overload-ablation baseline — a full queue *blocks* the
    /// connection thread instead and nothing is shed.
    pub admission_control: bool,
    /// Consecutive deadline-blown CP attempts that trip the circuit
    /// breaker open (CP is then skipped in favor of the greedy/LNS
    /// ladder until a half-open probe succeeds).
    pub breaker_threshold: u32,
    /// How long an open breaker waits before admitting a half-open probe.
    pub breaker_cooldown_ms: u64,
    /// Stable name this backend reports in its `stats` reply (empty when
    /// unset). A cluster router matches it against its own backend table
    /// to verify which daemon answered a probe.
    pub backend_id: String,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            default_deadline_ms: 10_000,
            cache_capacity: 256,
            cache_shards: 8,
            cache_persist_path: None,
            coalesce: true,
            journal_path: None,
            journal_fsync_every: 1,
            trace_path: None,
            max_conns: 1024,
            max_line_bytes: 4 * 1024 * 1024,
            write_timeout_ms: 10_000,
            shutdown_grace_ms: 2_000,
            admission_control: true,
            breaker_threshold: 3,
            breaker_cooldown_ms: 5_000,
            backend_id: String::new(),
        }
    }
}

/// A deadline paired with the stop flag to trip when it passes.
type DeadlineEntry = (Instant, Arc<AtomicBool>);

/// Deadline → stop-flag bridge shared by workers and the watchdog thread.
#[derive(Clone, Default)]
struct Watchdog {
    entries: Arc<Mutex<Vec<DeadlineEntry>>>,
}

impl Watchdog {
    fn register(&self, deadline: Instant, flag: Arc<AtomicBool>) {
        self.entries.lock().push((deadline, flag));
    }

    /// Trip expired flags, drop finished entries (their solve released the
    /// only other handle).
    fn tick(&self) {
        let now = Instant::now();
        self.entries.lock().retain(|(deadline, flag)| {
            if now >= *deadline {
                flag.store(true, Ordering::Relaxed);
                return false;
            }
            Arc::strong_count(flag) > 1
        });
    }

    /// Trip everything (shutdown): in-flight solves abort promptly.
    fn fire_all(&self) {
        for (_, flag) in self.entries.lock().drain(..) {
            flag.store(true, Ordering::Relaxed);
        }
    }
}

/// State shared by every worker and connection thread.
///
/// Sessions are individually locked (`Arc<Mutex<Session>>` behind the
/// map): a long-running defrag in one session must not block inserts,
/// removes, or opens in any other — the map lock is only held long enough
/// to clone the session's `Arc` out.
struct Shared {
    config: ServerConfig,
    stats: Mutex<ServerStats>,
    /// Lock-striped placement cache; no outer lock — each shard locks
    /// itself (see [`crate::cache::shard`]).
    cache: ShardedCache,
    /// In-flight solve table for duplicate-request coalescing.
    singleflight: SingleFlight,
    sessions: Mutex<HashMap<u64, Arc<Mutex<Session>>>>,
    next_session: AtomicU64,
    watchdog: Watchdog,
    shutdown: AtomicBool,
    /// Session durability log (`None` when journaling is disabled). Lock
    /// order everywhere: sessions map → one session → journal; only the
    /// compactor holds more than one session at a time, ascending by id,
    /// with the map lock held throughout — so the order is acyclic.
    journal: Option<Mutex<Journal>>,
    /// Live worker-thread gauge; stays at the configured pool size even
    /// across caught handler panics.
    workers_alive: AtomicU64,
    /// Trace destination; disabled (free) unless `trace_path` is set.
    tracer: rrf_trace::Tracer,
    /// Per-phase latency aggregation behind the `stats_detail` request.
    detail: Mutex<DetailCollector>,
    /// Set while a graceful shutdown drains: new requests are refused,
    /// queued and in-flight ones run to completion (within the grace
    /// period) before the final snapshot.
    draining: AtomicBool,
    /// Requests admitted to the queue and not yet answered (queued +
    /// in-flight); the drain phase waits for this to reach zero.
    pending: AtomicU64,
    /// Open-connection gauge, enforced against `max_conns`.
    conns_open: AtomicU64,
    /// The CP rung's circuit breaker (see [`crate::admission`]).
    breaker: Mutex<Breaker>,
}

/// One queued request and the channel its response goes back on.
struct Job {
    request: Request,
    accepted_at: Instant,
    reply: Sender<Response>,
}

/// A running daemon; dropping the handle shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the daemon: trip all in-flight stop flags, stop accepting,
    /// join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Phase 1 — drain: refuse new requests but let everything already
        // admitted (queued or in a worker) finish naturally, so the final
        // snapshot never races an in-flight mutation and accepted work is
        // not cut off mid-solve. Bounded by `shutdown_grace_ms`.
        self.shared.draining.store(true, Ordering::SeqCst);
        let grace = Duration::from_millis(self.shared.config.shutdown_grace_ms);
        let deadline = Instant::now() + grace;
        while self.shared.pending.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Phase 2 — hard stop: trip every in-flight solver stop flag
        // (anything still running overstayed the grace period), stop the
        // loops, and join the pool.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.watchdog.fire_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Snapshot-on-shutdown: with all workers joined, no session can
        // change any more; compact the journal down to one snapshot line
        // so the next start replays in O(sessions) instead of O(history).
        compact_journal(&self.shared);
        // Same quiescence argument for the cache snapshot: nothing can
        // insert any more, so the export is a consistent, final state.
        if let Some(path) = &self.shared.config.cache_persist_path {
            if let Err(e) = persist::save(path, &self.shared.cache.export()) {
                eprintln!("rrf-server: cache snapshot write failed: {e}");
            }
        }
        self.shared.tracer.flush();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind and start the daemon. With a configured journal path, any
/// existing journal is replayed first — sessions from a previous (possibly
/// crashed) run come back with bit-identical placements — and a torn tail
/// left by a crash mid-append is truncated before appending resumes.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    // Built before the journal replay: recovered sessions trace like live
    // ones.
    let tracer = match &config.trace_path {
        Some(path) => rrf_trace::Tracer::new(Arc::new(rrf_trace::NdjsonSink::create(path)?)),
        None => rrf_trace::Tracer::default(),
    };

    let mut stats = ServerStats::default();
    let mut sessions = HashMap::new();
    let mut next_session = 1u64;
    let mut journal = None;
    if let Some(path) = &config.journal_path {
        let loaded = Journal::load(path)?;
        let replayed = session::replay(&loaded.records, &tracer);
        next_session = replayed.next_session;
        for (id, session) in replayed.sessions {
            sessions.insert(id, Arc::new(Mutex::new(session)));
        }
        stats.recovered_sessions = sessions.len() as u64;
        stats.recovery_errors = replayed.errors + u64::from(loaded.truncated);
        journal = Some(Mutex::new(Journal::open(
            path,
            config.journal_fsync_every,
            Some(loaded.valid_len),
        )?));
    }

    // Warm-load the persisted cache snapshot, if configured: entries
    // come back with the budgets that produced them, so the degraded-entry
    // upgrade rule keeps working across the restart.
    let cache = ShardedCache::new(config.cache_capacity, config.cache_shards);
    if let Some(path) = &config.cache_persist_path {
        let loaded = persist::load(path)?;
        stats.cache_persist_loaded = loaded.entries.len() as u64;
        stats.cache_load_errors = loaded.errors;
        for (key, entry) in loaded.entries {
            cache.insert(key, entry);
        }
    }

    let breaker = Breaker::new(
        config.breaker_threshold,
        Duration::from_millis(config.breaker_cooldown_ms),
    );
    let shared = Arc::new(Shared {
        config,
        stats: Mutex::new(stats),
        cache,
        singleflight: SingleFlight::default(),
        sessions: Mutex::new(sessions),
        next_session: AtomicU64::new(next_session),
        watchdog: Watchdog::default(),
        shutdown: AtomicBool::new(false),
        journal,
        workers_alive: AtomicU64::new(0),
        tracer,
        detail: Mutex::new(DetailCollector::default()),
        draining: AtomicBool::new(false),
        pending: AtomicU64::new(0),
        conns_open: AtomicU64::new(0),
        breaker: Mutex::new(breaker),
    });

    let (jobs_tx, jobs_rx) = channel::bounded::<Job>(shared.config.queue_depth.max(1));
    let mut threads = Vec::new();

    for _ in 0..shared.config.workers.max(1) {
        let shared = Arc::clone(&shared);
        let rx = jobs_rx.clone();
        threads.push(std::thread::spawn(move || {
            shared.workers_alive.fetch_add(1, Ordering::SeqCst);
            worker_loop(&shared, &rx);
            shared.workers_alive.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    drop(jobs_rx);

    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            while !shared.shutdown.load(Ordering::SeqCst) {
                shared.watchdog.tick();
                std::thread::sleep(POLL);
            }
            shared.watchdog.fire_all();
        }));
    }

    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &shared, &jobs_tx)
        }));
    }

    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Decrements the open-connection gauge however the connection thread
/// exits (clean close, io error, or shutdown).
struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.conns_open.fetch_sub(1, Ordering::SeqCst);
    }
}

// Panic safety: the accept and connection threads run outside the
// worker pool's `catch_unwind` (see `worker_loop`), so a panic in these
// handlers kills its thread instead of degrading one request. Each one
// denies the panicking shortcuts; a proven bound is an `#[expect]`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, jobs_tx: &Sender<Job>) {
    // Connection threads are detached: they exit on client disconnect or
    // on the shutdown flag (their reads time out every POLL interval).
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Hard connection cap: one past the limit gets a single
                // `overloaded` line (with a backpressure hint) and is
                // closed — bounded thread count, bounded accept backlog.
                let cap = shared.config.max_conns;
                if cap > 0 && shared.conns_open.load(Ordering::SeqCst) >= cap as u64 {
                    reject_connection(stream, shared);
                    continue;
                }
                shared.conns_open.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                let jobs_tx = jobs_tx.clone();
                std::thread::spawn(move || {
                    let _guard = ConnGuard(&shared);
                    let _ = serve_connection(stream, &shared, &jobs_tx);
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => break,
        }
    }
}

/// Turn away a connection at the `max_conns` cap: best-effort write of
/// one structured `overloaded` line, then drop the stream.
// Panic safety: see `accept_loop`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
fn reject_connection(mut stream: TcpStream, shared: &Shared) {
    shared.stats.lock().conns_rejected += 1;
    let p50 = shared.detail.lock().solve_p50_us();
    let response = Response::Overloaded {
        id: 0,
        message: "server overloaded: connection limit reached".to_string(),
        retry_after_ms: retry_after_ms(p50, shared.config.queue_depth, shared.config.workers),
    };
    #[expect(
        clippy::expect_used,
        reason = "Response serialization cannot fail (no non-string map keys, no fallible \
                  Serialize impls); a panic would only drop this already-rejected connection"
    )]
    let mut line = serde_json::to_string(&response).expect("protocol types serialize infallibly");
    line.push('\n');
    let _ = stream.set_write_timeout(Some(Duration::from_millis(1_000)));
    let _ = stream.write_all(line.as_bytes());
}

/// Serialize and write one response line. A write that stalls past the
/// configured write timeout marks the client slow; the caller drops the
/// connection (a half-written line is unrecoverable anyway).
// Panic safety: see `accept_loop`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
fn write_response(
    writer: &mut TcpStream,
    response: &Response,
    shared: &Shared,
) -> std::io::Result<()> {
    #[expect(
        clippy::expect_used,
        reason = "Response serialization cannot fail (no non-string map keys, no fallible \
                  Serialize impls); a panic would only tear down this one connection thread"
    )]
    let mut out = serde_json::to_string(response).expect("protocol types serialize infallibly");
    out.push('\n');
    writer.write_all(out.as_bytes()).inspect_err(|e| {
        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut {
            shared.stats.lock().slow_client_disconnects += 1;
        }
    })
}

/// Best-effort recovery of the `"id"` field from a raw (possibly
/// truncated) request line that will never parse as JSON — the reserved
/// sentinel 0 when none can be found.
// Panic safety: see `accept_loop`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
fn scan_id(bytes: &[u8]) -> u64 {
    let Some(pos) = bytes.windows(4).position(|w| w == b"\"id\"") else {
        return 0;
    };
    #[expect(
        clippy::indexing_slicing,
        reason = "pos + 4 <= bytes.len(): `windows(4)` matched there"
    )]
    let mut it = bytes[pos + 4..]
        .iter()
        .copied()
        .skip_while(|b| b.is_ascii_whitespace());
    if it.next() != Some(b':') {
        return 0;
    }
    let digits: Vec<u8> = it
        .skip_while(|b| b.is_ascii_whitespace())
        .take_while(|b| b.is_ascii_digit())
        .collect();
    std::str::from_utf8(&digits)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

// Panic safety: see `accept_loop`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
fn serve_connection(
    stream: TcpStream,
    shared: &Arc<Shared>,
    jobs_tx: &Sender<Job>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    if shared.config.write_timeout_ms > 0 {
        stream.set_write_timeout(Some(Duration::from_millis(shared.config.write_timeout_ms)))?;
    }
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let max_line = shared.config.max_line_bytes.max(1);
    // The line buffer is bounded by `max_line`: once a line exceeds the
    // cap it is answered with a structured error and the remainder is
    // *discarded* chunk by chunk — a hostile or broken client cannot
    // grow daemon memory with an endless unterminated line.
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (chunk, newline_at) = {
            let available = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted =>
                {
                    continue
                }
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                return Ok(()); // client closed
            }
            let newline_at = available.iter().position(|&b| b == b'\n');
            let upto = newline_at.map(|p| p + 1).unwrap_or(available.len());
            #[expect(
                clippy::indexing_slicing,
                reason = "upto <= available.len(): one past a newline in it, or its length"
            )]
            (available[..upto].to_vec(), newline_at)
        };
        reader.consume(chunk.len());
        #[expect(
            clippy::indexing_slicing,
            reason = "p < chunk.len(): chunk ends one past the newline at p"
        )]
        let body = match newline_at {
            Some(p) => &chunk[..p],
            None => &chunk[..],
        };
        if discarding {
            // Tail of an already-rejected oversized line.
            discarding = newline_at.is_none();
            continue;
        }
        if line.len() + body.len() > max_line {
            // Cap blown mid-line: keep only the capped prefix (enough to
            // scan for the request id), answer once, discard the rest.
            let keep = max_line.saturating_sub(line.len()).min(body.len());
            #[expect(
                clippy::indexing_slicing,
                reason = "keep <= body.len(): it is clamped by the `min` above"
            )]
            line.extend_from_slice(&body[..keep]);
            shared.stats.lock().oversized_lines += 1;
            let response = Response::Error {
                id: scan_id(&line),
                message: format!("request line exceeds {max_line} byte cap"),
            };
            line.clear();
            discarding = newline_at.is_none();
            write_response(&mut writer, &response, shared)?;
            continue;
        }
        line.extend_from_slice(body);
        if newline_at.is_none() {
            continue; // mid-line: wait for the rest
        }
        let text = String::from_utf8_lossy(&line).into_owned();
        let response = dispatch(text.trim(), shared, jobs_tx);
        line.clear();
        if let Some(response) = response {
            write_response(&mut writer, &response, shared)?;
        }
    }
}

/// Parse one request line, run it through the queue, return its response
/// (`None` for blank lines).
// Panic safety: see `accept_loop`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
fn dispatch(line: &str, shared: &Arc<Shared>, jobs_tx: &Sender<Job>) -> Option<Response> {
    if line.is_empty() {
        return None;
    }
    shared.stats.lock().requests += 1;
    let request = match serde_json::from_str::<Request>(line) {
        Ok(request) => request,
        Err(e) => {
            shared.stats.lock().protocol_errors += 1;
            // Best effort: a line that is valid JSON but not a valid
            // request (wrong shape, unknown type) still gets its own
            // correlation id echoed back, so pipelining clients can tell
            // which request failed. Only when the id itself is
            // unrecoverable does the reserved sentinel 0 appear — see the
            // protocol docs; clients must use ids >= 1.
            let id = serde_json::from_str::<serde_json::Value>(line)
                .ok()
                .and_then(|v| v.get("id")?.as_u64())
                .unwrap_or(0);
            return Some(Response::Error {
                id,
                message: format!("unparseable request: {e}"),
            });
        }
    };
    let id = request.id();
    if shared.draining.load(Ordering::SeqCst) {
        shared.stats.lock().rejected_draining += 1;
        return Some(Response::Error {
            id,
            message: "server draining for shutdown".to_string(),
        });
    }
    let workers = shared.config.workers.max(1);
    // Deadline-aware shedding: if the backlog alone already eats the
    // request's whole deadline, solving it would only waste budget the
    // queued requests need — reject up front with an honest hint.
    if shared.config.admission_control {
        if let Request::Place { deadline_ms, .. } = &request {
            let deadline = deadline_ms.unwrap_or(shared.config.default_deadline_ms);
            let depth = jobs_tx.len();
            let p50 = shared.detail.lock().solve_p50_us();
            if let Some(est) = estimated_wait_ms(p50, depth, workers) {
                if est > deadline {
                    shared.stats.lock().shed_deadline += 1;
                    return Some(Response::Overloaded {
                        id,
                        message: format!(
                            "server overloaded: estimated queue wait {est}ms \
                             exceeds deadline {deadline}ms"
                        ),
                        retry_after_ms: retry_after_ms(p50, depth, workers),
                    });
                }
            }
        }
    }
    let (reply_tx, reply_rx) = channel::bounded::<Response>(1);
    let job = Job {
        request,
        accepted_at: Instant::now(),
        reply: reply_tx,
    };
    // `pending` counts admitted-but-unanswered requests (for the shutdown
    // drain). Incremented *before* the send so a fast worker can never
    // decrement first and underflow the gauge.
    shared.pending.fetch_add(1, Ordering::SeqCst);
    let send_result = if shared.config.admission_control {
        jobs_tx.try_send(job)
    } else {
        // No-shedding mode (ablation baseline): block until the queue
        // accepts, however long that takes.
        jobs_tx
            .send(job)
            .map_err(|e| TrySendError::Disconnected(e.0))
    };
    match send_result {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            let depth = jobs_tx.len();
            let p50 = shared.detail.lock().solve_p50_us();
            shared.stats.lock().rejected_backpressure += 1;
            return Some(Response::Overloaded {
                id,
                message: "server overloaded: request queue full".to_string(),
                retry_after_ms: retry_after_ms(p50, depth, workers),
            });
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            return Some(Response::Error {
                id,
                message: "server shutting down".to_string(),
            });
        }
    }
    match reply_rx.recv() {
        Ok(response) => Some(response),
        Err(_) => Some(Response::Error {
            id,
            message: "server shutting down".to_string(),
        }),
    }
}

fn worker_loop(shared: &Arc<Shared>, jobs: &Receiver<Job>) {
    loop {
        match jobs.recv_timeout(POLL) {
            Ok(job) => {
                // A panicking handler must cost one response, not one
                // worker: catch the unwind, answer with an internal
                // error, and keep serving. parking_lot mutexes release on
                // unwind (no poisoning), so shared state stays usable.
                let response = catch_unwind(AssertUnwindSafe(|| handle(shared, &job)))
                    .unwrap_or_else(|_| {
                        shared.stats.lock().worker_panics += 1;
                        Response::Error {
                            id: job.request.id(),
                            message: "internal error: request handler panicked".to_string(),
                        }
                    });
                let _ = job.reply.send(response);
                shared.pending.fetch_sub(1, Ordering::SeqCst);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn handle(shared: &Arc<Shared>, job: &Job) -> Response {
    match &job.request {
        Request::Place {
            id,
            spec,
            deadline_ms,
        } => handle_place(shared, *id, spec, *deadline_ms, job.accepted_at),
        Request::Analyze { id, spec } => handle_analyze(shared, *id, spec, job.accepted_at),
        Request::OpenSession { id, region } => handle_open_session(shared, *id, region),
        Request::Insert {
            id,
            session,
            module,
        } => with_session(shared, *id, *session, |s| {
            // Rejections are journaled too: the placer's acceptance counters
            // are part of the durable session state, and replaying the same
            // deterministic insert yields the same rejection.
            let slot = match commit(shared, *session, s, SessionOp::Insert(module.clone())) {
                Applied::Inserted(slot) => slot,
                Applied::Failed(message) => return Response::Error { id: *id, message },
                _ => None,
            };
            {
                let mut stats = shared.stats.lock();
                stats.online_inserts += 1;
                match slot {
                    Some(_) => stats.online_accepted += 1,
                    None => stats.online_rejected += 1,
                }
            }
            let placement =
                (slot.and_then(|slot| s.placer().placement_of(slot))).map(|p| PlacedModuleReport {
                    name: module.name.clone(),
                    shape: p.shape,
                    x: p.x,
                    y: p.y,
                });
            Response::Inserted {
                id: *id,
                session: *session,
                slot,
                placement,
                utilization: s.placer().utilization(),
            }
        }),
        Request::Remove { id, session, slot } => with_session(shared, *id, *session, |s| {
            let removed =
                commit(shared, *session, s, SessionOp::Remove(*slot)) == Applied::Removed(true);
            if removed {
                shared.stats.lock().online_removals += 1;
            }
            Response::Removed {
                id: *id,
                session: *session,
                removed,
                utilization: s.placer().utilization(),
            }
        }),
        Request::Defrag { id, session } => {
            let response = with_session(shared, *id, *session, |s| {
                let moved = match commit(shared, *session, s, SessionOp::Defrag) {
                    Applied::Defragged(moved) => moved as u64,
                    _ => 0,
                };
                shared.stats.lock().online_defrags += 1;
                Response::Defragged {
                    id: *id,
                    session: *session,
                    moved,
                    utilization: s.placer().utilization(),
                }
            });
            // A defrag is the natural compaction point: the layout was
            // just repacked, so fold the whole history into one snapshot.
            if matches!(response, Response::Defragged { .. }) {
                compact_journal(shared);
            }
            response
        }
        Request::CloseSession { id, session } => {
            let closed = shared.sessions.lock().remove(session).is_some();
            if closed {
                journal_append(shared, &JournalRecord::Close { session: *session });
                shared.stats.lock().sessions_closed += 1;
            }
            Response::SessionClosed {
                id: *id,
                session: *session,
                closed,
            }
        }
        Request::InjectFault { id, session, fault } => with_session(shared, *id, *session, |s| {
            let impact = match commit(shared, *session, s, SessionOp::Fault(*fault)) {
                Applied::Faulted(impact) => impact,
                _ => FaultImpact::default(),
            };
            shared.stats.lock().faults_injected += 1;
            Response::FaultInjected {
                id: *id,
                session: *session,
                tiles: impact.tiles.len() as u64,
                displaced: impact.displaced,
                total_faults: s.placer().region().faults().len() as u64,
            }
        }),
        Request::ClearFault { id, session, fault } => with_session(shared, *id, *session, |s| {
            let tiles = match commit(shared, *session, s, SessionOp::ClearFault(*fault)) {
                Applied::Cleared(tiles) => tiles as u64,
                _ => 0,
            };
            shared.stats.lock().faults_cleared += 1;
            Response::FaultCleared {
                id: *id,
                session: *session,
                tiles,
                total_faults: s.placer().region().faults().len() as u64,
            }
        }),
        Request::Repair {
            id,
            session,
            budget_ms,
        } => with_session(shared, *id, *session, |s| {
            let budget =
                Duration::from_millis(budget_ms.unwrap_or(shared.config.default_deadline_ms));
            // Repair depends on the deadline, so it is planned here; the
            // plan's state delta is what gets applied, journaled and replayed.
            let report = s.placer().plan_repair(budget, &FrameCostModel::default());
            commit(shared, *session, s, SessionOp::Repair(report.clone()));
            {
                let mut stats = shared.stats.lock();
                stats.repairs += 1;
                stats.repaired_relocated += report.relocated_count() as u64;
                stats.repaired_evicted += report.evicted.len() as u64;
            }
            Response::Repaired {
                id: *id,
                session: *session,
                report,
                utilization: s.placer().utilization(),
            }
        }),
        Request::SubmitTask { id, session, task } => {
            handle_submit_task(shared, *id, *session, task)
        }
        Request::CancelTask { id, session, task } => with_session(shared, *id, *session, |s| {
            // Without a scheduler there is no such task: a benign miss,
            // not an error, and nothing is journaled.
            let cancel = SessionOp::Sched(SchedOp::Cancel { task: *task });
            let outcome = match commit(shared, *session, s, cancel) {
                Applied::Cancelled(outcome) => {
                    shared.stats.lock().sched_cancels += 1;
                    outcome
                }
                _ => CancelOutcome::Unknown,
            };
            Response::TaskCancelled {
                id: *id,
                session: *session,
                outcome: outcome.as_str().to_string(),
                now: s.sched().map_or(0, Scheduler::now),
            }
        }),
        Request::ScheduleStatus {
            id,
            session,
            advance_to,
        } => with_session(shared, *id, *session, |s| {
            // An advance changes the schedule (tasks finish, queued work
            // commits or expires), so it is journaled; a plain status read
            // is not.
            if let Some(to) = advance_to {
                let advance = SessionOp::Sched(SchedOp::Advance { to: *to });
                if commit(shared, *session, s, advance) == Applied::Scheduled {
                    shared.stats.lock().sched_advances += 1;
                }
            }
            schedule_response(*id, *session, s)
        }),
        Request::DumpSession { id, session } => with_session(shared, *id, *session, |s| {
            let placer = s.placer();
            let slots = placer
                .slots()
                .into_iter()
                .map(|(slot, _, p)| SlotState {
                    slot,
                    name: s.name(slot).to_string(),
                    shape: p.shape,
                    x: p.x,
                    y: p.y,
                })
                .collect();
            Response::SessionState {
                id: *id,
                session: *session,
                next_slot: placer.next_slot(),
                grid_digest: format!("{:016x}", placer.grid_digest()),
                total_faults: placer.region().faults().len() as u64,
                slots,
            }
        }),
        Request::AdoptJournal { id, path } => handle_adopt_journal(shared, *id, path),
        Request::DebugPanic { .. } => panic!("debug_panic requested by client"),
        Request::Stats { id } => {
            let mut stats = shared.stats.lock().clone();
            stats.backend_id = shared.config.backend_id.clone();
            stats.pending = shared.pending.load(Ordering::SeqCst);
            stats.workers_alive = shared.workers_alive.load(Ordering::SeqCst);
            stats.conns_open = shared.conns_open.load(Ordering::SeqCst);
            stats.cache_evictions = shared.cache.evictions();
            stats.coalesced_joins = shared.singleflight.joins();
            stats.coalesced_leader_solves = shared.singleflight.leader_solves();
            Response::Stats { id: *id, stats }
        }
        Request::StatsDetail { id } => {
            let mut detail = shared.detail.lock().snapshot();
            detail.breaker = shared.breaker.lock().stats();
            detail.cache = shared.cache.detail();
            detail.cache.coalesced_joins = shared.singleflight.joins();
            detail.cache.coalesced_leader_solves = shared.singleflight.leader_solves();
            detail.cache.coalesce_timeouts = shared.singleflight.timeouts();
            {
                let stats = shared.stats.lock();
                detail.cache.persist_loaded = stats.cache_persist_loaded;
                detail.cache.load_errors = stats.cache_load_errors;
            }
            Response::StatsDetail { id: *id, detail }
        }
        Request::Ping { id } => Response::Pong { id: *id },
    }
}

/// Apply one op to a live session, under its lock, through the same
/// [`Session::apply`] that journal replay uses; journal the record it
/// yields, and fold scheduler deltas into `stats_detail`.
fn commit(shared: &Shared, session: u64, s: &mut Session, op: SessionOp) -> Applied {
    // Ops that reach an existing scheduler (its creation does not).
    let sched_misses = match op {
        SessionOp::Fault(_) | SessionOp::ClearFault(_) | SessionOp::Sched(_) => {
            s.sched().map(|g| g.stats().deadline_misses)
        }
        _ => None,
    };
    let applied = s.apply(&op);
    if let Some(record) = op.into_record(session, &applied) {
        journal_append(shared, &record);
    }
    if let Some(misses) = sched_misses {
        note_sched_detail(shared, s, misses);
    }
    applied
}

/// Append one record to the journal, if journaling is on. Called while
/// holding the affected session's lock, so the journal's per-session
/// order matches the order operations were applied in.
// Panic safety: see `accept_loop`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
fn journal_append(shared: &Shared, record: &JournalRecord) {
    let Some(journal) = &shared.journal else {
        return;
    };
    match journal.lock().append(record) {
        Ok(()) => shared.stats.lock().journal_records += 1,
        Err(_) => shared.stats.lock().journal_errors += 1,
    }
}

/// Fold the whole journal into a single snapshot record (temp file +
/// fsync + atomic rename). Freezes the world first — the sessions map
/// plus every session lock, ascending by id — so no operation can slip
/// its record between the snapshot and the rewrite. Must not be called
/// while holding any session lock.
// Panic safety: see `accept_loop`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
// Determinism: the snapshot it writes is what replay restores.
#[deny(clippy::disallowed_methods, clippy::disallowed_types)]
fn compact_journal(shared: &Shared) {
    let Some(journal) = &shared.journal else {
        return;
    };
    let map = shared.sessions.lock();
    let mut entries: Vec<(u64, Arc<Mutex<Session>>)> =
        map.iter().map(|(k, v)| (*k, Arc::clone(v))).collect();
    entries.sort_by_key(|(k, _)| *k);
    let guards: Vec<_> = entries.iter().map(|(k, v)| (*k, v.lock())).collect();
    let snapshot = JournalRecord::Snapshot {
        next_session: shared.next_session.load(Ordering::SeqCst),
        sessions: guards.iter().map(|(k, g)| g.snapshot(*k)).collect(),
    };
    match journal.lock().rewrite(std::slice::from_ref(&snapshot)) {
        Ok(()) => {
            let mut stats = shared.stats.lock();
            stats.journal_compactions += 1;
            stats.journal_records += 1;
        }
        Err(_) => shared.stats.lock().journal_errors += 1,
    }
}

fn with_session(
    shared: &Arc<Shared>,
    id: u64,
    session: u64,
    f: impl FnOnce(&mut Session) -> Response,
) -> Response {
    // Clone the Arc out and release the map lock before the (possibly
    // slow) placer operation, so other sessions stay responsive.
    let entry = shared.sessions.lock().get(&session).cloned();
    match entry {
        Some(s) => f(&mut s.lock()),
        None => Response::Error {
            id,
            message: format!("unknown session {session}"),
        },
    }
}

fn handle_open_session(shared: &Arc<Shared>, id: u64, spec: &RegionSpec) -> Response {
    let region = match spec.build() {
        Ok(region) => region,
        Err(e) => {
            return Response::Error {
                id,
                message: format!("region spec error: {e}"),
            }
        }
    };
    let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let live = Arc::new(Mutex::new(Session::new(region, shared.tracer.clone())));
    shared.sessions.lock().insert(session, live);
    // Journaled after the map insert: a compaction racing in between
    // snapshots the (empty) session, and replay treats an `Open` for an
    // already-live session as a no-op.
    journal_append(
        shared,
        &JournalRecord::Open {
            session,
            region: spec.clone(),
        },
    );
    shared.stats.lock().sessions_opened += 1;
    Response::SessionOpened { id, session }
}

/// Graft a dead peer's journaled sessions into this daemon under fresh
/// session ids, through the exact replay path startup recovery uses. The
/// peer's journal file is only read, never modified; once the sessions
/// are live here, this daemon's own journal is compacted so the adopted
/// state survives *our* next restart without the peer's file.
fn handle_adopt_journal(shared: &Arc<Shared>, id: u64, path: &str) -> Response {
    let loaded = match Journal::load(path) {
        Ok(loaded) => loaded,
        Err(e) => {
            return Response::Error {
                id,
                message: format!("adopt_journal: cannot read {path}: {e}"),
            }
        }
    };
    let mut errors: Vec<String> = Vec::new();
    if loaded.truncated {
        errors.push("torn tail dropped".to_string());
    }
    let replayed = session::replay(&loaded.records, &shared.tracer);
    if replayed.errors > 0 {
        errors.push(format!("{} replay divergences", replayed.errors));
    }
    // The BTreeMap iterates ascending by the journal's session id, so the
    // old-id -> new-id mapping is deterministic for a given journal.
    let mut adopted = Vec::with_capacity(replayed.sessions.len());
    {
        let mut map = shared.sessions.lock();
        for (from, session) in replayed.sessions {
            let to = shared.next_session.fetch_add(1, Ordering::Relaxed);
            map.insert(to, Arc::new(Mutex::new(session)));
            adopted.push(AdoptedSession { from, to });
        }
    }
    {
        let mut stats = shared.stats.lock();
        stats.adopted_sessions += adopted.len() as u64;
        stats.recovery_errors += replayed.errors;
    }
    // No session lock is held here, so compacting is safe; it snapshots
    // the grafted sessions into our journal in one durable record.
    if !adopted.is_empty() {
        compact_journal(shared);
    }
    Response::JournalAdopted {
        id,
        adopted,
        errors,
    }
}

/// Fold one scheduler op's deltas into `stats_detail`: the queue depth
/// after it, and the deadline misses beyond `misses_before`.
fn note_sched_detail(shared: &Shared, s: &Session, misses_before: u64) {
    let Some(sched) = s.sched() else { return };
    let delta = sched.stats().deadline_misses.saturating_sub(misses_before);
    let mut detail = shared.detail.lock();
    detail.record_sched_queue_depth(sched.queue_depth() as u64);
    if delta > 0 {
        detail.record_deadline_misses(delta);
    }
}

/// The `schedule_status` reply body. A session that never submitted a
/// task has no scheduler; it reads as an empty schedule at tick 0.
fn schedule_response(id: u64, session: u64, s: &Session) -> Response {
    let sched = s.sched();
    Response::Schedule {
        id,
        session,
        now: sched.map_or(0, Scheduler::now),
        queue_depth: sched.map_or(0, |g| g.queue_depth() as u64),
        digest: format!("{:016x}", sched.map_or(0, Scheduler::digest)),
        reservations: sched.map_or(vec![], |g| g.reservations().into_iter().cloned().collect()),
        stats: sched.map(|g| g.stats().clone()).unwrap_or_default(),
    }
}

/// Admit one task into the session's scheduler, creating the scheduler on
/// first use (see [`Session::sched_open`]; its creation is journaled as its
/// own `SchedOp::Open` record).
fn handle_submit_task(shared: &Arc<Shared>, id: u64, session: u64, spec: &TaskSpec) -> Response {
    // Validate up front: an unresolvable module is a protocol error, not
    // a scheduler rejection; it is never journaled and opens no scheduler.
    if let Err(e) = spec.resolve() {
        return Response::Error {
            id,
            message: format!("task spec error: {e}"),
        };
    }
    with_session(shared, id, session, |s| {
        let span = rrf_trace::tspan!(shared.tracer, "sched.admit", "req" => id);
        if s.sched().is_none() {
            let open = s.sched_open();
            commit(shared, session, s, SessionOp::Sched(open));
        }
        let submit = SessionOp::Sched(SchedOp::Submit { task: spec.clone() });
        let (task, outcome) = match commit(shared, session, s, submit) {
            Applied::Submitted(task, outcome) => (task, outcome),
            _ => (None, AdmitOutcome::RejectedUnplaceable),
        };
        {
            let mut stats = shared.stats.lock();
            stats.sched_submits += 1;
            match task {
                Some(_) => stats.sched_admitted += 1,
                None => stats.sched_rejected += 1,
            }
        }
        span.close();
        let (queue_depth, now) = s
            .sched()
            .map_or((0, 0), |g| (g.queue_depth() as u64, g.now()));
        Response::TaskSubmitted {
            id,
            session,
            task,
            outcome: outcome.as_str().to_string(),
            queue_depth,
            now,
        }
    })
}

/// Run the static analyzer over a full job spec: zero solving, never
/// subject to the deadline machinery, and cheap enough to skip the cache.
fn handle_analyze(
    shared: &Arc<Shared>,
    id: u64,
    spec: &FlowSpec,
    accepted_at: Instant,
) -> Response {
    let region = match spec.region.build() {
        Ok(region) => region,
        Err(e) => {
            return Response::Error {
                id,
                message: format!("region spec error: {e}"),
            }
        }
    };
    let modules: Result<Vec<_>, _> = spec.modules.iter().map(resolve_module).collect();
    let modules = match modules {
        Ok(modules) => modules,
        Err(e) => {
            return Response::Error {
                id,
                message: e.to_string(),
            }
        }
    };
    let started = Instant::now();
    let analysis = rrf_analyze::analyze(&region, &modules);
    {
        let mut stats = shared.stats.lock();
        stats.analyze_requests += 1;
        // `max(1)` keeps the counter observable even when one run is
        // faster than the clock's granularity.
        stats.analyze_us_total += (started.elapsed().as_micros() as u64).max(1);
    }
    {
        let mut detail = shared.detail.lock();
        for d in &analysis.diagnostics {
            detail.record_diagnostic_code(d.code.as_str());
        }
    }
    Response::Analysis {
        id,
        proven_infeasible: analysis.proven_infeasible,
        shapes_total: analysis.shapes_total as u64,
        shapes_prunable: analysis.shapes_prunable as u64,
        diagnostics: analysis.diagnostics,
        elapsed_ms: accepted_at.elapsed().as_millis() as u64,
    }
}

/// Phase timing of one `place` request. Laps are measured between
/// consecutive `lap` calls; `finish` appends an `other` phase holding the
/// untimed remainder, so the reported phases tile the end-to-end total
/// *exactly* — the trace's `solve.*` wall records and the `stats_detail`
/// phase sums agree with the `solve` total to the microsecond by
/// construction.
struct PhaseClock {
    accepted_at: Instant,
    mark: Instant,
    phases: Vec<(&'static str, u64)>,
}

impl PhaseClock {
    fn start(accepted_at: Instant) -> PhaseClock {
        let now = Instant::now();
        PhaseClock {
            accepted_at,
            mark: now,
            phases: vec![(
                "solve.queue_wait",
                now.duration_since(accepted_at).as_micros() as u64,
            )],
        }
    }

    fn lap(&mut self, name: &'static str) {
        let now = Instant::now();
        self.phases
            .push((name, now.duration_since(self.mark).as_micros() as u64));
        self.mark = now;
    }

    fn finish(mut self) -> (Vec<(&'static str, u64)>, u64) {
        // Each lap truncates down, so the spent sum never exceeds the
        // elapsed total; `other` absorbs the difference.
        let total = self.accepted_at.elapsed().as_micros() as u64;
        let spent: u64 = self.phases.iter().map(|(_, us)| us).sum();
        self.phases
            .push(("solve.other", total.saturating_sub(spent)));
        let total = self.phases.iter().map(|(_, us)| us).sum();
        (self.phases, total)
    }
}

/// The snake_case rung name, as carried by the trace's `solve.result`
/// point (matches [`PlaceMethod`]'s wire encoding).
fn method_name(method: PlaceMethod) -> &'static str {
    match method {
        PlaceMethod::Optimal => "optimal",
        PlaceMethod::CpIncumbent => "cp_incumbent",
        PlaceMethod::Lns => "lns",
        PlaceMethod::BottomLeft => "bottom_left",
        PlaceMethod::Infeasible => "infeasible",
    }
}

/// Close out one `place` request's observability: emit the request's
/// `solve` span (its `solve.*` phase spans tiling the total) into the
/// trace stream, and fold the same microsecond values into the
/// `stats_detail` collector — one measurement, two destinations.
fn finish_place_trace(shared: &Shared, id: u64, clock: PhaseClock, method: &'static str) {
    let (phases, total) = clock.finish();
    if shared.tracer.enabled() {
        let root = rrf_trace::tspan!(shared.tracer, "solve", "req" => id);
        for &(name, us) in &phases {
            shared.tracer.span(name, &[]).close_with_us(us);
        }
        rrf_trace::tpoint!(shared.tracer, "solve.result",
            "req" => id,
            "method" => method);
        root.close_with_us(total);
    }
    let mut detail = shared.detail.lock();
    for &(name, us) in &phases {
        detail.record_phase(name, us);
    }
    detail.record_total(total);
}

/// The one cache write-back. Every solved `place` — feasible or
/// infeasible — funnels through here: insert the entry (with the declared
/// budget that produced it, for the degraded-upgrade rule), then release any
/// coalesced joiners with a clone of the same entry. Keeping this a
/// single site is what guarantees the cache and the joiners can never
/// see different answers for one solve.
fn finish_solve(
    shared: &Shared,
    key: String,
    flight: Option<FlightGuard<'_>>,
    method: PlaceMethod,
    report: &FlowReport,
    budget: Duration,
) {
    let entry = CacheEntry {
        method,
        report: report.clone(),
        budget,
    };
    shared.cache.insert(key, entry.clone());
    if let Some(flight) = flight {
        flight.publish(entry);
    }
}

/// The degradation ladder (see the crate docs): optimal CP within the
/// deadline → LNS over a greedy seed → raw greedy — always returning a
/// verified floorplan when one exists.
fn handle_place(
    shared: &Arc<Shared>,
    id: u64,
    spec: &FlowSpec,
    deadline_ms: Option<u64>,
    accepted_at: Instant,
) -> Response {
    shared.stats.lock().place_requests += 1;
    let mut clock = PhaseClock::start(accepted_at);
    // The declared budget, not a clock reading, is what the cache and the
    // coalescing table compare: an identical repeat then finds the entry
    // whatever the jitter between the two requests' clock reads.
    let budget = Duration::from_millis(deadline_ms.unwrap_or(shared.config.default_deadline_ms));
    let deadline = accepted_at + budget;
    let (canonical, map) = canonicalize(spec);
    let key = cache_key(&canonical);

    // Cached results are only reused when they cannot be beaten by this
    // request's budget: proven outcomes always, degraded/unproven ones
    // only for requests that declare no more budget than the one that
    // produced them (see [`CacheEntry::servable_within`]). Anything else
    // is recomputed with the bigger budget and the entry overwritten.
    let mut bypassed_degraded = false;
    match shared.cache.probe(&key, budget) {
        Probe::Served(entry) => {
            clock.lap("solve.cache_probe");
            shared.stats.lock().cache_hits += 1;
            finish_place_trace(shared, id, clock, "cache_hit");
            return Response::Placed {
                id,
                method: entry.method,
                cache_hit: true,
                report: remap_report(&entry.report, &map),
                elapsed_ms: accepted_at.elapsed().as_millis() as u64,
            };
        }
        Probe::Degraded => bypassed_degraded = true,
        Probe::Miss => {}
    }
    clock.lap("solve.cache_probe");
    {
        let mut stats = shared.stats.lock();
        stats.cache_misses += 1;
        if bypassed_degraded {
            stats.cache_bypass_degraded += 1;
        }
    }

    // Single-flight: the first miss on a key leads (and must publish —
    // the guard's Drop wakes joiners with `None` on any early return or
    // panic below); a concurrent miss with no more budget joins and gets
    // the leader's answer without touching the solver; a roomier miss
    // solves solo, upgrading the entry as it always did.
    let mut flight: Option<FlightGuard> = None;
    if shared.config.coalesce {
        match shared.singleflight.begin(&key, budget) {
            Role::Leader(guard) => flight = Some(guard),
            Role::Joiner(rx) => {
                let wait = deadline.saturating_duration_since(Instant::now()) + COALESCE_SLACK;
                let outcome = rx.recv_timeout(wait);
                clock.lap("solve.coalesce_wait");
                match outcome {
                    Ok(Some(entry)) => {
                        // Not marked `cache_hit`: this answer comes from
                        // a live solve, not a prior result — the M
                        // coalesced responses are byte-identical up to
                        // `elapsed_ms`.
                        finish_place_trace(shared, id, clock, "coalesced");
                        return Response::Placed {
                            id,
                            method: entry.method,
                            cache_hit: false,
                            report: remap_report(&entry.report, &map),
                            elapsed_ms: accepted_at.elapsed().as_millis() as u64,
                        };
                    }
                    // The leader failed (spec error, verify violation,
                    // panic): fall through and solve for ourselves, solo
                    // — re-coalescing a deterministic failure would loop.
                    Ok(None) => {}
                    Err(_) => {
                        // Waited past our own deadline plus slack: shed.
                        // Retry-safe — nothing was executed on our
                        // behalf — so the client retry loop treats it
                        // like any other `overloaded`.
                        shared.singleflight.record_timeout();
                        let retry = {
                            let detail = shared.detail.lock();
                            retry_after_ms(
                                detail.solve_p50_us(),
                                shared.config.queue_depth,
                                shared.config.workers,
                            )
                        };
                        finish_place_trace(shared, id, clock, "coalesce_timeout");
                        return Response::Overloaded {
                            id,
                            message: "coalesced solve outlived this request's deadline".into(),
                            retry_after_ms: retry,
                        };
                    }
                }
            }
            Role::Solo => {}
        }
    }

    let region = match canonical.region.build() {
        Ok(region) => region,
        Err(e) => {
            return Response::Error {
                id,
                message: format!("region spec error: {e}"),
            }
        }
    };
    let modules: Result<Vec<_>, _> = canonical.modules.iter().map(resolve_module).collect();
    let modules = match modules {
        Ok(modules) => modules,
        Err(e) => {
            return Response::Error {
                id,
                message: e.to_string(),
            }
        }
    };
    // Preflight: the analyzer's error-only subset. A request it rejects
    // is *proven* unplaceable — fail fast before registering with the
    // watchdog or spending any of the deadline on search. (Runs after
    // the cache check, so repeated feasible requests never pay for it.)
    let preflight_started = Instant::now();
    let rejection = rrf_analyze::preflight(&region, &modules);
    {
        let mut stats = shared.stats.lock();
        stats.analyze_us_total += (preflight_started.elapsed().as_micros() as u64).max(1);
    }
    clock.lap("solve.preflight");
    if let Some(diagnostic) = rejection {
        shared.stats.lock().preflight_rejects += 1;
        shared
            .detail
            .lock()
            .record_diagnostic_code(diagnostic.code.as_str());
        finish_place_trace(shared, id, clock, "preflight_reject");
        return Response::Error {
            id,
            message: format!("preflight: proven infeasible: {diagnostic}"),
        };
    }

    let problem = PlacementProblem::new(region, modules);

    let stop = Arc::new(AtomicBool::new(false));
    shared.watchdog.register(deadline, Arc::clone(&stop));
    let solve_started = Instant::now();
    let solve_budget = deadline.saturating_duration_since(solve_started);

    // Rung 1: the CP placer — unless the budget is already tight, or the
    // circuit breaker is open because CP has recently blown deadlines
    // (then requests route straight to the greedy/LNS ladder below).
    let mut picked: Option<(Floorplan, PlaceMethod, bool, SolveStats)> = None;
    let mut proven_infeasible = false;
    let budget_tight = solve_budget < TIGHT_BUDGET;
    let cp_admitted = !budget_tight && shared.breaker.lock().admit_cp(Instant::now());
    if cp_admitted {
        let mut config = canonical.placer.to_config_with_stop(Arc::clone(&stop));
        config.tracer = shared.tracer.clone();
        config.time_limit = Some(match config.time_limit {
            Some(limit) => limit.min(solve_budget),
            None => solve_budget,
        });
        let allotted = config.time_limit.unwrap_or(solve_budget);
        let cp_started = Instant::now();
        let outcome = cp::place(&problem, &config);
        let cp_elapsed = cp_started.elapsed();
        clock.lap("solve.cp");
        // Breaker bookkeeping: the attempt "blew its deadline" if it
        // neither proved a result nor finished with budget to spare.
        let blew_deadline = !outcome.proven && cp_elapsed >= allotted.mul_f64(0.9);
        shared
            .breaker
            .lock()
            .record_cp(blew_deadline, Instant::now());
        if outcome.stats.shapes_pruned > 0 {
            shared.stats.lock().shapes_pruned += outcome.stats.shapes_pruned as u64;
        }
        if let Some(plan) = outcome.plan {
            let method = if outcome.proven {
                PlaceMethod::Optimal
            } else {
                PlaceMethod::CpIncumbent
            };
            picked = Some((plan, method, outcome.proven, outcome.stats));
        } else {
            proven_infeasible = outcome.proven;
        }
    } else if budget_tight {
        shared.detail.lock().record_cp_skipped();
    }

    // Rungs 2 and 3: greedy seed, LNS-polished if time remains.
    if picked.is_none() && !proven_infeasible {
        if let Some(seed) = baseline::bottom_left(&problem) {
            let rest = deadline.saturating_duration_since(Instant::now());
            if rest >= LNS_WORTHWHILE {
                let improved = lns_improve_traced(
                    &problem,
                    seed,
                    &LnsConfig {
                        time_limit: rest,
                        ..LnsConfig::default()
                    },
                    Some(Arc::clone(&stop)),
                    &shared.tracer,
                );
                clock.lap("solve.lns");
                picked = Some((
                    improved.plan,
                    PlaceMethod::Lns,
                    false,
                    SolveStats::default(),
                ));
            } else {
                clock.lap("solve.bottom_left");
                picked = Some((seed, PlaceMethod::BottomLeft, false, SolveStats::default()));
            }
        }
    }

    let solve_elapsed = solve_started.elapsed();
    let solve_ms = solve_elapsed.as_millis() as u64;
    shared.stats.lock().record_solve_ms(solve_ms);
    shared
        .detail
        .lock()
        .record_solve_us((solve_elapsed.as_micros() as u64).max(1));

    let Some((plan, method, proven, mut solve_stats)) = picked else {
        shared.stats.lock().infeasible += 1;
        let report = FlowReport {
            feasible: false,
            proven: proven_infeasible,
            extent: None,
            placements: vec![],
            metrics: None,
            stats: SolveStats::default(),
            floorplan: None,
        };
        finish_solve(
            shared,
            key,
            flight,
            PlaceMethod::Infeasible,
            &report,
            budget,
        );
        shared.detail.lock().record_method(PlaceMethod::Infeasible);
        finish_place_trace(shared, id, clock, "infeasible");
        return Response::Placed {
            id,
            method: PlaceMethod::Infeasible,
            cache_hit: false,
            report,
            elapsed_ms: accepted_at.elapsed().as_millis() as u64,
        };
    };

    // The contract: every returned floorplan is independently verified.
    let violations = verify::verify(&problem.region, &problem.modules, &plan);
    clock.lap("solve.verify");
    if !violations.is_empty() {
        return Response::Error {
            id,
            message: format!("placer produced {} constraint violations", violations.len()),
        };
    }

    solve_stats.duration = solve_started.elapsed();
    let placements = plan
        .placements
        .iter()
        .map(|p| PlacedModuleReport {
            name: problem.modules[p.module].name.clone(),
            shape: p.shape,
            x: p.x,
            y: p.y,
        })
        .collect();
    let extent = plan.x_extent(&problem.modules, problem.region.bounds().x) as i64;
    let report = FlowReport {
        feasible: true,
        proven,
        extent: Some(extent),
        placements,
        metrics: Some(metrics(&problem.region, &problem.modules, &plan)),
        stats: solve_stats,
        floorplan: Some(plan),
    };

    {
        let mut stats = shared.stats.lock();
        match method {
            PlaceMethod::Optimal => stats.placed_optimal += 1,
            PlaceMethod::CpIncumbent => stats.placed_cp_incumbent += 1,
            PlaceMethod::Lns => stats.placed_lns += 1,
            PlaceMethod::BottomLeft => stats.placed_bottom_left += 1,
            PlaceMethod::Infeasible => unreachable!("picked implies a floorplan"),
        }
    }
    // The declared budget is cached alongside the result, so a later,
    // roomier request knows to recompute rather than trust a
    // deadline-degraded answer.
    finish_solve(shared, key, flight, method, &report, budget);
    shared.detail.lock().record_method(method);
    finish_place_trace(shared, id, clock, method_name(method));
    Response::Placed {
        id,
        method,
        cache_hit: false,
        report: remap_report(&report, &map),
        elapsed_ms: accepted_at.elapsed().as_millis() as u64,
    }
}
