//! # rrf-router — horizontal sharding across `rrf-serve` backends
//!
//! One reconfigurable region scales *within* itself through design
//! alternatives; a fleet scales *across* regions by running many
//! independent `rrf-serve` daemons and sharding traffic over them. This
//! crate is that frontend: an NDJSON-over-TCP proxy speaking the exact
//! `rrf_server::protocol`, so every existing client (including
//! `rrf-client`'s retry/resume machinery) works against a cluster
//! unchanged.
//!
//! ## Routing
//!
//! * **Stateless requests** (`place`, `analyze`, `stats`, `ping`, …) go
//!   to the healthy backend with the smallest probed queue depth
//!   (least-loaded; ties break to the lower index). Any backend can
//!   serve them — placement is a pure function of the spec.
//! * **Stateful sessions** pin to a backend by rendezvous hashing
//!   ([`hrw`]) over the *router's* session id. The router owns the
//!   client-visible session-id namespace: `open_session` allocates a
//!   router id, pins it, and rewrites the `session` field in both
//!   directions, so clients see one uniform id space while each backend
//!   keeps its own. Routing is a pure function of (id, healthy set) —
//!   deterministic and replayable.
//!
//! ## Health and failover
//!
//! A prober thread probes every backend's `stats` each interval; the
//! probed `pending` gauge drives least-loaded routing. Failures feed a
//! per-backend circuit breaker (the same
//! [`rrf_server::admission::Breaker`] shape the daemon uses for its CP
//! rung): consecutive failures eject the backend, a cooldown later a
//! half-open re-probe lets a recovered backend rejoin. Live forwarding
//! failures count as probe failures, so a crashed backend is ejected at
//! traffic speed, not probe speed.
//!
//! When an ejected backend has a journal configured, its pinned
//! sessions fail over: the router sends `adopt_journal` to a standby
//! (rendezvous-chosen over the healthy set), the standby replays the
//! journal through the standard recovery path, and the router re-pins
//! the sessions to the standby's fresh ids. Until adoption completes,
//! requests for those sessions answer `overloaded` — honest, because
//! `overloaded` promises the request did not execute, and retry-safe
//! for every request class.
//!
//! ## The ambiguity contract
//!
//! A forward that fails mid-flight on a *mutating* session operation is
//! ambiguous: the backend may have applied and journaled the operation
//! before dying. The router must not answer `overloaded` (that would
//! falsely promise non-execution) nor `error` (no promise either way,
//! but the client would treat it as an answer). Instead it **drops the
//! client connection**, surfacing the same transport failure the client
//! would see talking to the backend directly — which routes
//! `rrf-client::Client::call_mutating` into its digest-compare resume:
//! dump the session (served by the standby after failover), compare
//! digests, and either resend safely or report the mutation applied.
//! No acknowledged mutation is double-applied or lost; the failover e2e
//! asserts bit-identical digests against an unkilled control run.
//!
//! Pure reads (`dump_session`, clock-free `schedule_status`) and
//! stateless requests answer `overloaded` on forward failure instead —
//! they have no state effect, so the promise holds.
//!
//! ## Router stats
//!
//! The router answers one extra, router-only request line —
//! `{"type":"router_stats","id":N}` — with its own counters
//! ([`RouterStats`]), without extending the shared backend protocol.

#![forbid(unsafe_code)]

pub mod hrw;

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rrf_server::admission::{Breaker, BreakerState, RETRY_AFTER_MIN_MS};
use rrf_server::protocol::AdoptedSession;
use rrf_server::{Request, Response};
use serde::{Deserialize, Serialize};

/// One backend in the router's table.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// The daemon's `HOST:PORT`.
    pub addr: String,
    /// The daemon's journal path, when the router can reach it (shared
    /// filesystem). `None` disables failover for sessions pinned here:
    /// on death they are simply lost (answered as unknown sessions).
    pub journal: Option<String>,
}

impl BackendSpec {
    /// Parse the CLI form `ADDR[,journal=PATH]`.
    pub fn parse(spec: &str) -> Result<BackendSpec, String> {
        let mut parts = spec.split(',');
        let addr = parts.next().unwrap_or_default().trim().to_string();
        if addr.is_empty() {
            return Err(format!("backend spec '{spec}': empty address"));
        }
        let mut journal = None;
        for part in parts {
            match part.trim().strip_prefix("journal=") {
                Some(path) if !path.is_empty() => journal = Some(path.to_string()),
                _ => return Err(format!("backend spec '{spec}': expected journal=PATH")),
            }
        }
        Ok(BackendSpec { addr, journal })
    }
}

/// Router configuration; the default is tuned for tests (fast probes).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks a free port.
    pub listen: String,
    /// Backend table; must be non-empty.
    pub backends: Vec<BackendSpec>,
    /// Health-probe cadence, milliseconds.
    pub probe_interval_ms: u64,
    /// Consecutive failures (probe or live forward) that eject a
    /// backend.
    pub eject_threshold: u32,
    /// How long an ejected backend waits before a half-open re-probe.
    pub cooldown_ms: u64,
    /// Per-attempt TCP connect timeout towards backends, milliseconds.
    pub connect_timeout_ms: u64,
    /// Read/write timeout on backend and client sockets, milliseconds.
    pub io_timeout_ms: u64,
    /// Trace output path (NDJSON counters via `rrf-trace`); `None`
    /// disables tracing.
    pub trace_path: Option<String>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            listen: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            probe_interval_ms: 200,
            eject_threshold: 3,
            cooldown_ms: 2_000,
            connect_timeout_ms: 1_000,
            io_timeout_ms: 30_000,
            trace_path: None,
        }
    }
}

/// The router's own counters, served by the router-only
/// `{"type":"router_stats","id":N}` request. Listed in the registry test
/// (`tests/registry.rs`): names are append-only — dashboards and
/// EXPERIMENTS.md key on them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterStats {
    /// Requests forwarded to any backend (stateless + pinned).
    pub routed_requests: u64,
    /// Stateless requests routed by least-loaded choice.
    pub routed_stateless: u64,
    /// Session-pinned requests routed by rendezvous hash.
    pub routed_pinned: u64,
    /// Sessions opened through this router.
    pub sessions_opened: u64,
    /// Backends currently ejected (breaker open) — a gauge.
    pub ejected_backends: u64,
    /// Ejection events (breaker trips) over the router's lifetime.
    pub ejections: u64,
    /// Ejected backends that rejoined via a half-open re-probe.
    pub rejoins: u64,
    /// Journal failovers completed (one per adopted dead backend).
    pub failovers: u64,
    /// Sessions re-pinned to a standby by failover.
    pub failover_sessions: u64,
    /// Pinned sessions whose state was missing from the adopted journal
    /// (unpinned; subsequent requests answer unknown-session).
    pub failover_lost_sessions: u64,
    /// Requests answered `overloaded` because the pinned backend was
    /// ejected and failover had not completed yet (retry-safe).
    pub deferred_pinned: u64,
    /// Requests answered `overloaded` because no backend was healthy.
    pub no_backend: u64,
    /// Forwards that failed at the transport level (the backend is
    /// recorded as failing; mutating ones also drop the client).
    pub forward_failures: u64,
    /// Client connections dropped to surface an ambiguous mutating-op
    /// forward failure (the client resolves via digest-compare resume).
    pub dropped_ambiguous: u64,
    /// Client lines that did not parse as a protocol request.
    pub protocol_errors: u64,
    /// Health probes that succeeded.
    pub probes_ok: u64,
    /// Health probes that failed.
    pub probes_failed: u64,
}

/// Where a pinned session currently lives.
#[derive(Debug, Clone, Copy)]
struct SessionRoute {
    backend: usize,
    backend_sid: u64,
}

/// One backend's runtime state.
struct Backend {
    spec: BackendSpec,
    breaker: Mutex<Breaker>,
    /// Last probed `pending` gauge — the slow half of the least-loaded
    /// routing signal, refreshed every probe interval.
    pending: AtomicU64,
    /// Requests this router is forwarding right now — the fast half of
    /// the signal. Without it, every request between two probes routes
    /// to the same stale minimum and herds onto one backend while the
    /// rest idle.
    inflight: AtomicU64,
    /// Set once this backend's journal has been adopted after an
    /// ejection; cleared when the backend rejoins, so a later death
    /// (with new pinned sessions) fails over again.
    adopted: AtomicBool,
}

struct Shared {
    config: RouterConfig,
    backends: Vec<Backend>,
    /// Router session id → current home. Router ids are allocated from
    /// `next_session` and never reused.
    routes: Mutex<HashMap<u64, SessionRoute>>,
    next_session: AtomicU64,
    stats: Mutex<RouterStats>,
    shutdown: AtomicBool,
    tracer: rrf_trace::Tracer,
}

impl Shared {
    fn healthy(&self, idx: usize) -> bool {
        self.backends[idx].breaker.lock().state() == BreakerState::Closed
    }

    /// Feed a probe/forward outcome into the backend's breaker, counting
    /// ejection and rejoin transitions.
    fn record_backend(&self, idx: usize, ok: bool) {
        let backend = &self.backends[idx];
        let mut breaker = backend.breaker.lock();
        let before = breaker.state();
        breaker.record_cp(!ok, Instant::now());
        let after = breaker.state();
        drop(breaker);
        if before != BreakerState::Open && after == BreakerState::Open {
            self.stats.lock().ejections += 1;
            rrf_trace::tcount!(&self.tracer, "router.ejected_backends", 1u64);
        }
        if before != BreakerState::Closed && after == BreakerState::Closed {
            backend.adopted.store(false, Ordering::SeqCst);
            self.stats.lock().rejoins += 1;
        }
    }

    /// Healthy backends as rendezvous candidates `(index, addr)`.
    fn healthy_candidates(&self) -> Vec<(usize, &str)> {
        self.backends
            .iter()
            .enumerate()
            .filter(|&(idx, _)| self.healthy(idx))
            .map(|(idx, b)| (idx, b.spec.addr.as_str()))
            .collect()
    }

    /// The healthy backend with the smallest estimated queue depth:
    /// last probed `pending` plus requests this router has in flight
    /// towards it right now.
    fn least_loaded(&self) -> Option<usize> {
        self.healthy_candidates()
            .into_iter()
            .min_by_key(|&(idx, _)| {
                let backend = &self.backends[idx];
                (
                    backend.pending.load(Ordering::SeqCst)
                        + backend.inflight.load(Ordering::SeqCst),
                    idx,
                )
            })
            .map(|(idx, _)| idx)
    }

    /// The router's backpressure hint: long enough for one more probe
    /// round (ejection or rejoin) to land.
    fn retry_hint_ms(&self) -> u64 {
        (self.config.probe_interval_ms * 2).max(RETRY_AFTER_MIN_MS)
    }

    fn snapshot_stats(&self) -> RouterStats {
        let mut stats = self.stats.lock().clone();
        stats.ejected_backends = self
            .backends
            .iter()
            .filter(|b| b.breaker.lock().state() == BreakerState::Open)
            .count() as u64;
        stats
    }
}

/// A running router; dropping the handle shuts it down.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the router's counters (gauges filled in).
    pub fn stats(&self) -> RouterStats {
        self.shared.snapshot_stats()
    }

    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        self.shared.tracer.flush();
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind and start the router over the configured backends.
pub fn start(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.backends.is_empty() {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "rrf-router needs at least one --backend",
        ));
    }
    let listener = TcpListener::bind(&config.listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let tracer = match &config.trace_path {
        Some(path) => rrf_trace::Tracer::new(Arc::new(rrf_trace::NdjsonSink::create(path)?)),
        None => rrf_trace::Tracer::default(),
    };
    let backends = config
        .backends
        .iter()
        .map(|spec| Backend {
            spec: spec.clone(),
            breaker: Mutex::new(Breaker::new(
                config.eject_threshold,
                Duration::from_millis(config.cooldown_ms),
            )),
            pending: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            adopted: AtomicBool::new(false),
        })
        .collect();
    let shared = Arc::new(Shared {
        config,
        backends,
        routes: Mutex::new(HashMap::new()),
        next_session: AtomicU64::new(1),
        stats: Mutex::new(RouterStats::default()),
        shutdown: AtomicBool::new(false),
        tracer,
    });

    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || accept_loop(&shared, listener)));
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || prober_loop(&shared)));
    }
    Ok(RouterHandle {
        addr,
        shared,
        threads,
    })
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                // Connection threads are detached: they poll the
                // shutdown flag via their read timeout and exit on
                // their own.
                std::thread::spawn(move || {
                    let _ = serve_client(&shared, stream);
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

/// One pooled connection to a backend (per client-connection, so each
/// client's requests stay ordered per backend).
struct BackendConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl BackendConn {
    fn open(addr: &str, config: &RouterConfig) -> std::io::Result<BackendConn> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidInput, "backend address resolved empty")
        })?;
        let stream =
            TcpStream::connect_timeout(&addr, Duration::from_millis(config.connect_timeout_ms))?;
        stream.set_nodelay(true)?;
        let io = Some(Duration::from_millis(config.io_timeout_ms.max(1)));
        stream.set_read_timeout(io)?;
        stream.set_write_timeout(io)?;
        Ok(BackendConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One request/response exchange. Any error poisons the connection
    /// (the caller drops it).
    fn roundtrip(&mut self, request: &Request) -> std::io::Result<Response> {
        let mut line = serde_json::to_string(request)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply)? {
            0 => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "backend closed mid-request",
            )),
            _ => serde_json::from_str::<Response>(reply.trim())
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string())),
        }
    }
}

/// The session a request is bound to, if any.
fn request_session(request: &Request) -> Option<u64> {
    match request {
        Request::Insert { session, .. }
        | Request::Remove { session, .. }
        | Request::Defrag { session, .. }
        | Request::CloseSession { session, .. }
        | Request::InjectFault { session, .. }
        | Request::ClearFault { session, .. }
        | Request::Repair { session, .. }
        | Request::SubmitTask { session, .. }
        | Request::CancelTask { session, .. }
        | Request::ScheduleStatus { session, .. }
        | Request::DumpSession { session, .. } => Some(*session),
        Request::Place { .. }
        | Request::Analyze { .. }
        | Request::OpenSession { .. }
        | Request::AdoptJournal { .. }
        | Request::DebugPanic { .. }
        | Request::Stats { .. }
        | Request::StatsDetail { .. }
        | Request::Ping { .. } => None,
    }
}

/// Rewrite a session-bound request's `session` field (router id →
/// backend id). No-op for unbound requests.
fn set_request_session(request: &mut Request, sid: u64) {
    match request {
        Request::Insert { session, .. }
        | Request::Remove { session, .. }
        | Request::Defrag { session, .. }
        | Request::CloseSession { session, .. }
        | Request::InjectFault { session, .. }
        | Request::ClearFault { session, .. }
        | Request::Repair { session, .. }
        | Request::SubmitTask { session, .. }
        | Request::CancelTask { session, .. }
        | Request::ScheduleStatus { session, .. }
        | Request::DumpSession { session, .. } => *session = sid,
        _ => {}
    }
}

/// Rewrite a response's `session` field (backend id → router id).
/// No-op for session-free responses.
fn set_response_session(response: &mut Response, sid: u64) {
    match response {
        Response::SessionOpened { session, .. }
        | Response::Inserted { session, .. }
        | Response::Removed { session, .. }
        | Response::Defragged { session, .. }
        | Response::SessionClosed { session, .. }
        | Response::FaultInjected { session, .. }
        | Response::FaultCleared { session, .. }
        | Response::Repaired { session, .. }
        | Response::TaskSubmitted { session, .. }
        | Response::TaskCancelled { session, .. }
        | Response::Schedule { session, .. }
        | Response::SessionState { session, .. } => *session = sid,
        Response::Placed { .. }
        | Response::Analysis { .. }
        | Response::JournalAdopted { .. }
        | Response::Stats { .. }
        | Response::StatsDetail { .. }
        | Response::Pong { .. }
        | Response::Overloaded { .. }
        | Response::Error { .. } => {}
    }
}

/// Whether a session-bound request is a pure read: no state effect, so
/// a failed forward may honestly answer `overloaded` instead of
/// dropping the client. (This is `rrf_client::retry_class` narrowed to
/// the session-bound subset; kept local so the router does not need the
/// client crate at runtime.)
fn is_pure_read(request: &Request) -> bool {
    matches!(
        request,
        Request::DumpSession { .. }
            | Request::ScheduleStatus {
                advance_to: None,
                ..
            }
    )
}

/// Best-effort id recovery from an unparseable line, mirroring the
/// daemon's contract: id 0 when none can be found.
fn scan_id(line: &str) -> u64 {
    serde_json::from_str::<serde_json::Value>(line)
        .ok()
        .and_then(|v| v.get("id").and_then(|id| id.as_u64()))
        .unwrap_or(0)
}

/// Serialize the router-only stats reply:
/// `{"type":"router_stats","id":N,"stats":{...}}`. Assembled from the
/// `Value` model by hand because `type` is a reserved word the derive
/// cannot name as a field.
fn router_stats_reply(id: u64, stats: &RouterStats) -> String {
    let value = serde_json::Value::Object(vec![
        (
            "type".to_string(),
            serde_json::Value::Str("router_stats".to_string()),
        ),
        ("id".to_string(), serde_json::Value::UInt(id)),
        ("stats".to_string(), stats.to_value()),
    ]);
    serde_json::to_string(&value).expect("router stats serialize infallibly")
}

/// What to do with the client connection after a request.
enum Outcome {
    Reply(Box<Response>),
    ReplyRaw(String),
    /// Drop the connection without replying — the ambiguity contract
    /// for failed mutating forwards.
    Drop,
}

fn reply(response: Response) -> Outcome {
    Outcome::Reply(Box::new(response))
}

fn serve_client(shared: &Arc<Shared>, stream: TcpStream) -> std::io::Result<()> {
    // The read timeout doubles as the shutdown poll interval; partial
    // lines survive timeouts inside the BufReader + String buffer.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_write_timeout(Some(Duration::from_millis(
        shared.config.io_timeout_ms.max(1),
    )))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut conns: HashMap<usize, BackendConn> = HashMap::new();
    let mut line = String::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => return Err(e),
        }
        let trimmed = line.trim().to_string();
        line.clear();
        if trimmed.is_empty() {
            continue;
        }
        match handle_line(shared, &mut conns, &trimmed) {
            Outcome::Reply(response) => {
                let mut out = serde_json::to_string(response.as_ref())
                    .expect("protocol responses serialize infallibly");
                out.push('\n');
                writer.write_all(out.as_bytes())?;
            }
            Outcome::ReplyRaw(mut out) => {
                out.push('\n');
                writer.write_all(out.as_bytes())?;
            }
            Outcome::Drop => return Ok(()),
        }
    }
}

fn handle_line(
    shared: &Arc<Shared>,
    conns: &mut HashMap<usize, BackendConn>,
    line: &str,
) -> Outcome {
    // Router-only stats request: answered locally, never forwarded.
    if let Ok(value) = serde_json::from_str::<serde_json::Value>(line) {
        if value.get("type").and_then(serde_json::Value::as_str) == Some("router_stats") {
            let id = value
                .get("id")
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0);
            return Outcome::ReplyRaw(router_stats_reply(id, &shared.snapshot_stats()));
        }
    }
    let request = match serde_json::from_str::<Request>(line) {
        Ok(request) => request,
        Err(e) => {
            shared.stats.lock().protocol_errors += 1;
            return reply(Response::Error {
                id: scan_id(line),
                message: format!("unparseable request: {e}"),
            });
        }
    };
    match &request {
        // The journal-handoff hook is the router's own failover
        // mechanism; accepting it from clients would let them graft
        // arbitrary files into a backend of the router's choosing.
        Request::AdoptJournal { id, .. } => reply(Response::Error {
            id: *id,
            message: "adopt_journal is backend-direct only, not routable".to_string(),
        }),
        Request::OpenSession { .. } => handle_open(shared, conns, request.clone()),
        _ => match request_session(&request) {
            Some(session) => handle_pinned(shared, conns, request.clone(), session),
            None => handle_stateless(shared, conns, request.clone()),
        },
    }
}

/// Forward to one backend over the per-client conn cache. On transport
/// failure the conn is dropped and the backend recorded as failing.
fn forward(
    shared: &Arc<Shared>,
    conns: &mut HashMap<usize, BackendConn>,
    idx: usize,
    request: &Request,
) -> std::io::Result<Response> {
    let conn = match conns.entry(idx) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => e.insert(BackendConn::open(
            &shared.backends[idx].spec.addr,
            &shared.config,
        )?),
    };
    let result = conn.roundtrip(request);
    if result.is_err() {
        conns.remove(&idx);
    }
    result
}

/// Forward, then fold the outcome into health + stats bookkeeping.
fn forward_tracked(
    shared: &Arc<Shared>,
    conns: &mut HashMap<usize, BackendConn>,
    idx: usize,
    request: &Request,
) -> std::io::Result<Response> {
    shared.backends[idx].inflight.fetch_add(1, Ordering::SeqCst);
    let result = forward(shared, conns, idx, request);
    shared.backends[idx].inflight.fetch_sub(1, Ordering::SeqCst);
    match &result {
        Ok(_) => {
            let mut stats = shared.stats.lock();
            stats.routed_requests += 1;
            drop(stats);
            rrf_trace::tcount!(&shared.tracer, "router.routed_requests", 1u64);
        }
        Err(_) => {
            shared.stats.lock().forward_failures += 1;
            shared.record_backend(idx, false);
        }
    }
    result
}

fn overloaded(shared: &Shared, id: u64, message: &str) -> Response {
    Response::Overloaded {
        id,
        message: format!("router: {message}"),
        retry_after_ms: shared.retry_hint_ms(),
    }
}

fn handle_stateless(
    shared: &Arc<Shared>,
    conns: &mut HashMap<usize, BackendConn>,
    request: Request,
) -> Outcome {
    let id = request.id();
    let Some(idx) = shared.least_loaded() else {
        shared.stats.lock().no_backend += 1;
        return reply(overloaded(shared, id, "no healthy backend"));
    };
    match forward_tracked(shared, conns, idx, &request) {
        Ok(response) => {
            shared.stats.lock().routed_stateless += 1;
            reply(response)
        }
        // Stateless requests are idempotent (placement is a pure
        // function of the spec; reads read): `overloaded` is honest
        // even if the dying backend half-ran the request.
        Err(_) => reply(overloaded(shared, id, "backend lost mid-request")),
    }
}

fn handle_open(
    shared: &Arc<Shared>,
    conns: &mut HashMap<usize, BackendConn>,
    request: Request,
) -> Outcome {
    let id = request.id();
    let router_sid = shared.next_session.fetch_add(1, Ordering::SeqCst);
    let candidates = shared.healthy_candidates();
    let Some(idx) = hrw::pick(&router_sid.to_le_bytes(), candidates) else {
        shared.stats.lock().no_backend += 1;
        return reply(overloaded(shared, id, "no healthy backend"));
    };
    match forward_tracked(shared, conns, idx, &request) {
        Ok(Response::SessionOpened {
            id,
            session: backend_sid,
        }) => {
            shared.routes.lock().insert(
                router_sid,
                SessionRoute {
                    backend: idx,
                    backend_sid,
                },
            );
            shared.stats.lock().sessions_opened += 1;
            reply(Response::SessionOpened {
                id,
                session: router_sid,
            })
        }
        // Backend-side rejections (bad region spec, overload) pass
        // through; the allocated router id is simply never used.
        Ok(response) => reply(response),
        // The client never learned a session id, so nothing it can
        // reference was created: `overloaded` is honest. (A backend
        // that opened the session before dying leaks an orphan there;
        // orphans are adopted with the journal and stay unrouted.)
        Err(_) => reply(overloaded(shared, id, "backend lost mid-open")),
    }
}

fn handle_pinned(
    shared: &Arc<Shared>,
    conns: &mut HashMap<usize, BackendConn>,
    request: Request,
    router_sid: u64,
) -> Outcome {
    let id = request.id();
    let Some(route) = shared.routes.lock().get(&router_sid).copied() else {
        return reply(Response::Error {
            id,
            message: format!("unknown session {router_sid}"),
        });
    };
    if !shared.healthy(route.backend) {
        // Ejected but not failed over yet (or cooling down towards a
        // rejoin): the request was not executed, so `overloaded` holds.
        shared.stats.lock().deferred_pinned += 1;
        return reply(overloaded(
            shared,
            id,
            "pinned backend ejected; failover pending",
        ));
    }
    let mut rewritten = request.clone();
    set_request_session(&mut rewritten, route.backend_sid);
    match forward_tracked(shared, conns, route.backend, &rewritten) {
        Ok(mut response) => {
            set_response_session(&mut response, router_sid);
            if matches!(response, Response::SessionClosed { closed: true, .. }) {
                shared.routes.lock().remove(&router_sid);
            }
            shared.stats.lock().routed_pinned += 1;
            reply(response)
        }
        Err(_) if is_pure_read(&request) => reply(overloaded(shared, id, "backend lost mid-read")),
        // Ambiguous mutating forward: drop the client connection (see
        // the module docs) so its digest-compare resume takes over.
        Err(_) => {
            shared.stats.lock().dropped_ambiguous += 1;
            Outcome::Drop
        }
    }
}

/// The `pending` gauge reported for a backend so saturated it shed the
/// probe itself: far above any real queue, so least-loaded routing
/// deprioritizes the backend without ejecting it.
const BUSY_PENDING: u64 = 1 << 20;

/// One `stats` probe against a backend, returning its `pending` gauge.
fn probe_once(shared: &Shared, idx: usize) -> std::io::Result<u64> {
    let mut conn = BackendConn::open(&shared.backends[idx].spec.addr, &shared.config)?;
    match conn.roundtrip(&Request::Stats { id: 1 })? {
        Response::Stats { stats, .. } => Ok(stats.pending),
        // A backend at full queue sheds even its stats probe with
        // `overloaded`. That is a *live* backend — ejecting it would
        // turn every saturation into a spurious failover. Probe
        // succeeds with a conservative worst-case gauge.
        Response::Overloaded { .. } => Ok(BUSY_PENDING),
        other => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("probe got unexpected reply: {other:?}"),
        )),
    }
}

fn prober_loop(shared: &Arc<Shared>) {
    let interval = Duration::from_millis(shared.config.probe_interval_ms.max(10));
    while !shared.shutdown.load(Ordering::SeqCst) {
        for idx in 0..shared.backends.len() {
            // `admit_cp` is the half-open gate: an open breaker admits
            // nothing until its cooldown elapses, then exactly one
            // re-probe decides between rejoin and another round open.
            if !shared.backends[idx].breaker.lock().admit_cp(Instant::now()) {
                continue;
            }
            match probe_once(shared, idx) {
                Ok(pending) => {
                    shared.backends[idx]
                        .pending
                        .store(pending, Ordering::SeqCst);
                    shared.stats.lock().probes_ok += 1;
                    shared.record_backend(idx, true);
                }
                Err(_) => {
                    shared.stats.lock().probes_failed += 1;
                    shared.record_backend(idx, false);
                }
            }
        }
        run_failovers(shared);
        // Sleep in small slices so shutdown stays prompt.
        let mut slept = Duration::ZERO;
        while slept < interval && !shared.shutdown.load(Ordering::SeqCst) {
            let slice = Duration::from_millis(10).min(interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// Fail over every ejected, journaled, not-yet-adopted backend: a
/// standby (rendezvous-chosen over the healthy set, keyed by the dead
/// backend's address) adopts the journal, and the dead backend's pinned
/// sessions re-pin to the standby's fresh ids.
fn run_failovers(shared: &Arc<Shared>) {
    for idx in 0..shared.backends.len() {
        let backend = &shared.backends[idx];
        if backend.breaker.lock().state() != BreakerState::Open
            || backend.adopted.load(Ordering::SeqCst)
        {
            continue;
        }
        let Some(journal) = backend.spec.journal.clone() else {
            continue;
        };
        let pinned: Vec<(u64, u64)> = shared
            .routes
            .lock()
            .iter()
            .filter(|(_, route)| route.backend == idx)
            .map(|(rsid, route)| (*rsid, route.backend_sid))
            .collect();
        if pinned.is_empty() {
            continue;
        }
        let target = hrw::pick(
            shared.backends[idx].spec.addr.as_bytes(),
            shared.healthy_candidates(),
        );
        let Some(target) = target else {
            continue; // no standby yet; retry next round
        };
        let adopted = match adopt_journal(shared, target, &journal) {
            Ok(adopted) => adopted,
            Err(_) => continue, // standby unreachable; retry next round
        };
        let mapping: HashMap<u64, u64> = adopted.iter().map(|a| (a.from, a.to)).collect();
        backend.adopted.store(true, Ordering::SeqCst);
        let mut moved = 0u64;
        let mut lost = 0u64;
        {
            let mut routes = shared.routes.lock();
            for (rsid, backend_sid) in pinned {
                match mapping.get(&backend_sid) {
                    Some(&to) => {
                        routes.insert(
                            rsid,
                            SessionRoute {
                                backend: target,
                                backend_sid: to,
                            },
                        );
                        moved += 1;
                    }
                    None => {
                        // The journal had no state for this session
                        // (journaling raced the open): the state is
                        // gone; unknown-session is the honest answer.
                        routes.remove(&rsid);
                        lost += 1;
                    }
                }
            }
        }
        {
            let mut stats = shared.stats.lock();
            stats.failovers += 1;
            stats.failover_sessions += moved;
            stats.failover_lost_sessions += lost;
        }
        rrf_trace::tcount!(&shared.tracer, "router.failovers", 1u64);
    }
}

/// Ask `target` to adopt `journal` (its own connection: failover must
/// not depend on any client's conn cache).
fn adopt_journal(
    shared: &Shared,
    target: usize,
    journal: &str,
) -> std::io::Result<Vec<AdoptedSession>> {
    let mut conn = BackendConn::open(&shared.backends[target].spec.addr, &shared.config)?;
    match conn.roundtrip(&Request::AdoptJournal {
        id: 1,
        path: journal.to_string(),
    })? {
        Response::JournalAdopted { adopted, .. } => Ok(adopted),
        other => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("adopt_journal got unexpected reply: {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_spec_parses_addr_and_journal() {
        let plain = BackendSpec::parse("127.0.0.1:7171").unwrap();
        assert_eq!(plain.addr, "127.0.0.1:7171");
        assert_eq!(plain.journal, None);
        let journaled = BackendSpec::parse("10.0.0.2:7172,journal=/tmp/b.journal").unwrap();
        assert_eq!(journaled.addr, "10.0.0.2:7172");
        assert_eq!(journaled.journal.as_deref(), Some("/tmp/b.journal"));
        assert!(BackendSpec::parse("").is_err());
        assert!(BackendSpec::parse("addr,wat=1").is_err());
        assert!(BackendSpec::parse("addr,journal=").is_err());
    }

    #[test]
    fn session_rewrite_covers_all_bound_variants() {
        let mut request = Request::Insert {
            id: 1,
            session: 7,
            module: rrf_flow::ModuleEntry {
                name: "m".to_string(),
                shapes: Vec::new(),
                netlist: None,
            },
        };
        assert_eq!(request_session(&request), Some(7));
        set_request_session(&mut request, 99);
        assert_eq!(request_session(&request), Some(99));
        assert_eq!(request_session(&Request::Ping { id: 1 }), None);

        let mut response = Response::SessionOpened { id: 1, session: 3 };
        set_response_session(&mut response, 42);
        match response {
            Response::SessionOpened { session, .. } => assert_eq!(session, 42),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn pure_read_classification() {
        assert!(is_pure_read(&Request::DumpSession { id: 1, session: 1 }));
        assert!(is_pure_read(&Request::ScheduleStatus {
            id: 1,
            session: 1,
            advance_to: None
        }));
        assert!(!is_pure_read(&Request::ScheduleStatus {
            id: 1,
            session: 1,
            advance_to: Some(5)
        }));
        assert!(!is_pure_read(&Request::Defrag { id: 1, session: 1 }));
    }

    #[test]
    fn router_stats_reply_shape() {
        let json = router_stats_reply(9, &RouterStats::default());
        assert!(
            json.starts_with(r#"{"type":"router_stats","id":9"#),
            "{json}"
        );
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            value.get("type").and_then(serde_json::Value::as_str),
            Some("router_stats")
        );
        assert_eq!(value.get("id").and_then(serde_json::Value::as_u64), Some(9));
        assert!(value
            .get("stats")
            .and_then(|s| s.get("routed_requests"))
            .is_some());
    }
}
