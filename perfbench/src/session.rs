//! `session`: one online session of an in-process daemon, held at 70-85 %
//! live utilization of the 240x16 paper region.
//!
//! The operations are insert/remove churn (first-fit anchor scans in
//! `rrf-geost`, not CP propagation), a periodic `defrag`, a periodic
//! `inject_fault` + `repair` + `clear_fault` cycle, and `submit_task`
//! with `schedule_status` clock advances on the session's scheduler. The
//! daemon journals every mutation to a file inside the working directory
//! with fsync batching off, so the write path is measured without disk
//! latency (a defrag still compacts, which syncs).
//!
//! The next operation depends only on the seed and on earlier answers,
//! which are deterministic, so the first epoch — and the grid and
//! schedule digests after it — repeat exactly. Traced runs replay the
//! same operations in-process on `OnlinePlacer` and `Scheduler` and
//! require identical answers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rrf_core::{verify, Floorplan, FrameCostModel, OnlinePlacer, PlacedModule, RepairReport};
use rrf_fabric::Fault;
use rrf_flow::{resolve_module, ModuleEntry, RegionSpec};
use rrf_modgen::{generate_workload, WorkloadSpec};
use rrf_sched::{SchedConfig, SchedStats, Scheduler, TaskSpec};
use rrf_server::{Request, Response, ServerConfig, ServerHandle};

use crate::calib::{self, Calib};
use crate::wire::{Conn, Scratch};
use crate::{columns, metric, mix, report_setup, trace_overhead, Mode, RunOut, Timeline};

const LOW_UTIL: f64 = 0.70;
const HIGH_UTIL: f64 = 0.85;
const FILL_UTIL: f64 = 0.78;
/// Every `DEFRAG_EVERY` operations one defrag; every `FAULT_EVERY` one
/// inject/repair/clear cycle; every `SUBMIT_EVERY` a task submission and
/// every `ADVANCE_EVERY` a clock advance. Inserts are about three fifths
/// of the churn, so this mix puts p50 inside the insert latency range,
/// p90 inside the submissions' and p99 inside the defrags' (2 % of the
/// operations).
const DEFRAG_EVERY: u64 = 50;
const FAULT_EVERY: u64 = 500;
const SUBMIT_EVERY: u64 = 5;
const ADVANCE_EVERY: u64 = 15;
/// Ticks per clock advance (300 per operation): long enough that most
/// tasks finish within a few advances, so the scheduler's queue stays
/// short.
const ADVANCE_TICKS: u64 = 4_500;
/// Share of churn steps inside the band that insert (per mille).
const INSERT_PER_MILLE: u64 = 560;
/// Repair budget: ample, so every repair runs all its orderings.
const REPAIR_BUDGET_MS: u64 = 20_000;

struct Sizes {
    /// Operations per epoch; the first epoch is the exact window.
    epoch_ops: u64,
    setups: usize,
}

fn sizes(short: bool) -> Sizes {
    if short {
        Sizes {
            epoch_ops: 600,
            setups: 2,
        }
    } else {
        Sizes {
            epoch_ops: 2_500,
            setups: 15,
        }
    }
}

/// The session's region: the 240x16 paper region.
fn region_spec() -> RegionSpec {
    columns(240, 16)
}

/// The `i`-th module of the session's seeded stream: the paper's module
/// generator at half the paper's sizes, so churn at 70-85 % utilization
/// still places about half of its inserts.
fn module(prefix: &str, seed: u64, i: u64) -> ModuleEntry {
    let spec = WorkloadSpec {
        modules: 30,
        clb_min: 12,
        clb_max: 50,
        bram_min: 0,
        bram_max: 2,
        height_min: 3,
        height_max: 6,
        alternatives: 4,
        seed: mix(seed ^ 0x5E55, i / 30),
    };
    let workload = generate_workload(&spec);
    let m = workload.modules[(i % 30) as usize].clone();
    ModuleEntry {
        name: format!("{prefix}{i}"),
        shapes: m.shapes,
        netlist: None,
    }
}

/// A scheduler task: a small module with a deadline whose slack varies.
fn task(seed: u64, i: u64, now: u64) -> TaskSpec {
    let u = mix(seed ^ 0x7A5C, i);
    let workload = generate_workload(&WorkloadSpec::small(1, u));
    let m = workload.modules[0].clone();
    let duration = 300 + u % 1700;
    let slack = 100 + (u >> 20) % 2500;
    TaskSpec {
        module: ModuleEntry {
            name: format!("t{i}"),
            shapes: m.shapes,
            netlist: None,
        },
        arrival: now,
        duration,
        deadline: Some(now + duration + slack),
        priority: ((u >> 40) % 3) as u32,
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    Insert,
    Remove,
    Defrag,
    Fault,
    Repair,
    Clear,
    Submit,
    Advance,
}

/// One operation, as sent — kept for the in-process replay.
#[derive(Clone)]
enum Op {
    Insert(ModuleEntry),
    Remove(u64),
    Defrag,
    Fault(Fault),
    Repair,
    Clear(Fault),
    Submit(TaskSpec),
    Advance(u64),
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Insert(_) => Kind::Insert,
            Op::Remove(_) => Kind::Remove,
            Op::Defrag => Kind::Defrag,
            Op::Fault(_) => Kind::Fault,
            Op::Repair => Kind::Repair,
            Op::Clear(_) => Kind::Clear,
            Op::Submit(_) => Kind::Submit,
            Op::Advance(_) => Kind::Advance,
        }
    }

    fn request(&self, session: u64) -> Request {
        let id = 1;
        match self {
            Op::Insert(module) => Request::Insert {
                id,
                session,
                module: module.clone(),
            },
            Op::Remove(slot) => Request::Remove {
                id,
                session,
                slot: *slot,
            },
            Op::Defrag => Request::Defrag { id, session },
            Op::Fault(fault) => Request::InjectFault {
                id,
                session,
                fault: *fault,
            },
            Op::Repair => Request::Repair {
                id,
                session,
                budget_ms: Some(REPAIR_BUDGET_MS),
            },
            Op::Clear(fault) => Request::ClearFault {
                id,
                session,
                fault: *fault,
            },
            Op::Submit(task) => Request::SubmitTask {
                id,
                session,
                task: task.clone(),
            },
            Op::Advance(to) => Request::ScheduleStatus {
                id,
                session,
                advance_to: Some(*to),
            },
        }
    }
}

/// What an operation answered, reduced to what must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
enum Answer {
    Inserted(Option<(u64, usize, i32, i32)>),
    Removed(bool),
    Defragged(u64),
    Faulted(Vec<u64>),
    Repaired(RepairReport),
    Cleared(u64),
    Submitted(Option<u64>, String),
    Advanced(String),
}

/// The client's view of the session, which picks the next operation.
struct Client {
    seed: u64,
    session: u64,
    live: Vec<u64>,
    util: f64,
    next_module: u64,
    next_task: u64,
    sched_now: u64,
    fault: Option<Fault>,
    /// Module of every live slot, for verifying the final dump.
    modules: BTreeMap<String, ModuleEntry>,
}

impl Client {
    /// The operation at position `r` of the loop.
    fn next_op(&mut self, r: u64) -> Op {
        if let Some(fault) = self.fault {
            return match r % FAULT_EVERY {
                1 => Op::Repair,
                _ => {
                    self.fault = None;
                    Op::Clear(fault)
                }
            };
        }
        let u = mix(self.seed ^ 0x0C7, r);
        if r.is_multiple_of(FAULT_EVERY) && r > 0 {
            // Small enough that the greedy refit usually relocates what
            // it displaces, so few repairs escalate to a full repack.
            let fault = Fault::Rect {
                x: (u % 150) as i32,
                y: ((u >> 16) % 14) as i32,
                w: 2,
                h: 2,
            };
            self.fault = Some(fault);
            return Op::Fault(fault);
        }
        if r % DEFRAG_EVERY == DEFRAG_EVERY - 1 {
            return Op::Defrag;
        }
        if r.is_multiple_of(SUBMIT_EVERY) {
            self.next_task += 1;
            return Op::Submit(task(self.seed, self.next_task, self.sched_now));
        }
        if r % ADVANCE_EVERY == 2 {
            return Op::Advance(self.sched_now + ADVANCE_TICKS);
        }
        let insert = if self.util < LOW_UTIL || self.live.is_empty() {
            true
        } else if self.util > HIGH_UTIL {
            false
        } else {
            (u >> 24) % 1000 < INSERT_PER_MILLE
        };
        if insert {
            self.next_module += 1;
            Op::Insert(module("s", self.seed, self.next_module))
        } else {
            let slot = self.live[((u >> 32) as usize) % self.live.len()];
            Op::Remove(slot)
        }
    }

    /// Fold the daemon's answer into the client's view.
    fn absorb(&mut self, op: &Op, reply: Response) -> Result<Answer, String> {
        let answer = match (op, reply) {
            (
                Op::Insert(module),
                Response::Inserted {
                    slot,
                    placement,
                    utilization,
                    ..
                },
            ) => {
                self.util = utilization;
                let placed = match (slot, placement) {
                    (Some(slot), Some(p)) => {
                        self.live.push(slot);
                        self.modules.insert(module.name.clone(), module.clone());
                        Some((slot, p.shape, p.x, p.y))
                    }
                    (None, None) => None,
                    _ => return Err("insert answer half empty".into()),
                };
                Answer::Inserted(placed)
            }
            (
                Op::Remove(slot),
                Response::Removed {
                    removed,
                    utilization,
                    ..
                },
            ) => {
                self.util = utilization;
                self.live.retain(|s| s != slot);
                Answer::Removed(removed)
            }
            (
                Op::Defrag,
                Response::Defragged {
                    moved, utilization, ..
                },
            ) => {
                self.util = utilization;
                Answer::Defragged(moved)
            }
            (Op::Fault(_), Response::FaultInjected { displaced, .. }) => Answer::Faulted(displaced),
            (
                Op::Repair,
                Response::Repaired {
                    report,
                    utilization,
                    ..
                },
            ) => {
                self.util = utilization;
                self.live.retain(|s| !report.evicted.contains(s));
                Answer::Repaired(report)
            }
            (Op::Clear(_), Response::FaultCleared { tiles, .. }) => Answer::Cleared(tiles),
            (
                Op::Submit(_),
                Response::TaskSubmitted {
                    task, outcome, now, ..
                },
            ) => {
                self.sched_now = now;
                Answer::Submitted(task, outcome)
            }
            (Op::Advance(_), Response::Schedule { now, digest, .. }) => {
                self.sched_now = now;
                Answer::Advanced(digest)
            }
            (_, other) => return Err(format!("unexpected reply {other:?}")),
        };
        Ok(answer)
    }
}

fn call(conn: &mut Conn, request: &Request) -> Result<(Response, f64), String> {
    let line = serde_json::to_string(request).map_err(|e| e.to_string())?;
    let (reply, secs) = conn.call(&line)?;
    let response =
        serde_json::from_str::<Response>(&reply).map_err(|e| format!("undecodable reply: {e}"))?;
    Ok((response, secs))
}

struct Live {
    conn: Conn,
    _server: ServerHandle,
}

/// Start a daemon that journals to `journal` (replacing any old file).
fn start(journal: &str, trace: Option<String>) -> Result<Live, String> {
    let _ = std::fs::remove_file(journal);
    let server = rrf_server::start(ServerConfig {
        workers: 2,
        journal_path: Some(journal.to_string()),
        journal_fsync_every: u64::MAX,
        trace_path: trace,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    Ok(Live {
        conn: Conn::open(server.addr())?,
        _server: server,
    })
}

/// One epoch's session: its client view, the fill and the operations
/// (with the daemon's answer and calibrated seconds).
struct Epoch {
    client: Client,
    fill: Vec<Op>,
    ops: Vec<(Op, Answer, f64)>,
}

/// Open a fresh session and fill it to `FILL_UTIL`. The fill's modules
/// depend on the epoch only, not on the seed, so set-up does the same
/// work for every seed; the churn that follows is the seed's.
fn open_epoch(live: &mut Live, seed: u64, epoch: u64) -> Result<Epoch, String> {
    let (opened, _) = call(
        &mut live.conn,
        &Request::OpenSession {
            id: 1,
            region: region_spec(),
        },
    )?;
    let Response::SessionOpened { session, .. } = opened else {
        return Err(format!("open_session reply {opened:?}"));
    };
    let mut client = Client {
        seed: mix(seed, epoch),
        session,
        live: Vec::new(),
        util: 0.0,
        next_module: 0,
        next_task: 0,
        sched_now: 0,
        fault: None,
        modules: BTreeMap::new(),
    };
    let mut fill = Vec::new();
    let fill_seed = mix(0xF111, epoch);
    while client.util < FILL_UTIL {
        let op = Op::Insert(module("f", fill_seed, fill.len() as u64));
        let (reply, _) = call(&mut live.conn, &op.request(session))?;
        client.absorb(&op, reply)?;
        fill.push(op);
        if fill.len() > 500 {
            return Err("the session never filled".into());
        }
    }
    Ok(Epoch {
        client,
        fill,
        ops: Vec::new(),
    })
}

fn close_epoch(live: &mut Live, epoch: &Epoch) -> Result<(), String> {
    let session = epoch.client.session;
    match call(&mut live.conn, &Request::CloseSession { id: 1, session })? {
        (Response::SessionClosed { closed: true, .. }, _) => Ok(()),
        (other, _) => Err(format!("close_session reply {other:?}")),
    }
}

/// Exact figures of the first epoch.
#[derive(Default)]
struct Exact {
    util_sum: f64,
    inserts: u64,
    rejects: u64,
    evictions: u64,
    escalations: u64,
    grid_digest: String,
    sched_digest: String,
    sched: SchedStats,
}

struct Measured {
    /// One timeline per daemon.
    timelines: Vec<Timeline>,
    by_kind: BTreeMap<Kind, Vec<f64>>,
    /// The first `keep` epochs, with every operation and its calibrated
    /// seconds, for the replay.
    kept: Vec<Epoch>,
    exact: Exact,
}

/// The measured loop: epochs of `epoch_ops` operations, each on a fresh
/// session (re-opened and re-filled untimed), so the scheduler's history
/// and the journal snapshot stay bounded however long the run is. The
/// first epoch always completes; later ones stop when time is up (never
/// inside a fault cycle). With several daemons (a traced run pairs an
/// untraced and a traced one) every epoch runs once on each, in turn, so
/// they do equal work; the run then ends only after a whole round.
#[allow(clippy::too_many_arguments)]
fn measure(
    lives: &mut [Live],
    first: Epoch,
    seconds: f64,
    epoch_ops: u64,
    keep: usize,
    seed: u64,
    calib: &mut Calib,
    out: &mut RunOut,
) -> Measured {
    let mut m = Measured {
        timelines: lives.iter().map(|_| Timeline::default()).collect(),
        by_kind: BTreeMap::new(),
        kept: Vec::new(),
        exact: Exact::default(),
    };
    let started = Instant::now();
    let rounds = lives.len() as u64;
    let mut current = first;
    let mut run_no = 0u64;
    'epochs: loop {
        let (epoch, daemon) = (run_no / rounds, (run_no % rounds) as usize);
        let live = &mut lives[daemon];
        let session = current.client.session;
        for r in 0..epoch_ops {
            let time_up = started.elapsed().as_secs_f64() >= seconds;
            if run_no > 0 && rounds == 1 && time_up && current.client.fault.is_none() {
                break 'epochs;
            }
            calib.tick();
            let op = current.client.next_op(r);
            let line = match serde_json::to_string(&op.request(session)) {
                Ok(line) => line,
                Err(e) => {
                    out.fail(e.to_string());
                    break 'epochs;
                }
            };
            out.attempted += 1;
            let op_started = Instant::now();
            let (reply, raw) = match live.conn.call(&line) {
                Ok(x) => x,
                Err(e) => {
                    out.fail(format!("epoch {epoch} op {r}: {e}"));
                    break 'epochs;
                }
            };
            let t = calib.at(op_started) + raw / 2.0;
            m.timelines[daemon].push(raw, t);
            m.by_kind.entry(op.kind()).or_default().push(raw);
            let answer = serde_json::from_str::<Response>(&reply)
                .map_err(|e| format!("undecodable reply: {e}"))
                .and_then(|reply| current.client.absorb(&op, reply));
            let answer = match answer {
                Ok(answer) => answer,
                Err(e) => {
                    out.fail(format!("epoch {epoch} op {r}: {e}"));
                    break 'epochs;
                }
            };
            if run_no == 0 {
                let e = &mut m.exact;
                e.util_sum += current.client.util;
                match &answer {
                    Answer::Inserted(placed) => {
                        e.inserts += 1;
                        e.rejects += u64::from(placed.is_none());
                    }
                    Answer::Repaired(report) => {
                        e.evictions += report.evicted.len() as u64;
                        e.escalations += u64::from(report.escalated);
                    }
                    _ => {}
                }
            }
            if daemon == 0 && (epoch as usize) < keep {
                current.ops.push((op, answer, calib.calibrate(raw, t)));
            }
        }
        if run_no == 0 {
            match snapshot(live, session) {
                Ok((grid, sched_digest, stats)) => {
                    m.exact.grid_digest = grid;
                    m.exact.sched_digest = sched_digest;
                    m.exact.sched = stats;
                }
                Err(e) => out.fail(e),
            }
        }
        if let Err(e) = verify_dump(live, &current.client) {
            out.fail(format!("epoch {epoch}: {e}"));
        }
        if let Err(e) = close_epoch(live, &current) {
            out.fail(e);
            break;
        }
        if daemon == 0 && (epoch as usize) < keep {
            m.kept.push(current);
        }
        if daemon + 1 == lives.len() && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        run_no += 1;
        let live = &mut lives[(run_no % rounds) as usize];
        current = match open_epoch(live, seed, run_no / rounds) {
            Ok(next) => next,
            Err(e) => {
                out.fail(e);
                break;
            }
        };
    }
    m
}

/// Grid digest, schedule digest and scheduler counters (untimed reads).
fn snapshot(live: &mut Live, session: u64) -> Result<(String, String, SchedStats), String> {
    let (dump, _) = call(&mut live.conn, &Request::DumpSession { id: 1, session })?;
    let Response::SessionState { grid_digest, .. } = dump else {
        return Err(format!("dump_session reply {dump:?}"));
    };
    let status = Request::ScheduleStatus {
        id: 1,
        session,
        advance_to: None,
    };
    let (sched, _) = call(&mut live.conn, &status)?;
    let Response::Schedule { digest, stats, .. } = sched else {
        return Err(format!("schedule_status reply {sched:?}"));
    };
    Ok((grid_digest, digest, stats))
}

/// Verify the layout the daemon dumps for the client's session.
fn verify_dump(live: &mut Live, client: &Client) -> Result<(), String> {
    let session = client.session;
    let (dump, _) = call(&mut live.conn, &Request::DumpSession { id: 1, session })?;
    let Response::SessionState { slots, .. } = dump else {
        return Err(format!("dump_session reply {dump:?}"));
    };
    let region = region_spec().build().map_err(|e| e.to_string())?;
    let mut modules = Vec::new();
    let mut placed = Vec::new();
    for (i, s) in slots.iter().enumerate() {
        let entry = client
            .modules
            .get(&s.name)
            .ok_or(format!("dump names unknown module {}", s.name))?;
        modules.push(resolve_module(entry).map_err(|e| e.to_string())?);
        placed.push(PlacedModule {
            module: i,
            shape: s.shape,
            x: s.x,
            y: s.y,
        });
    }
    let violations = verify::verify(&region, &modules, &Floorplan::new(placed));
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("layout fails verify: {violations:?}"))
    }
}

pub fn run(mode: Mode) -> RunOut {
    let sizes = sizes(mode.short);
    let mut out = RunOut::default();
    let mut calib = Calib::new(Duration::from_millis(10));
    let scratch = Scratch::new("session");
    let journal = scratch.path("session.journal");
    calib.sample();

    // Set-up: start the daemon, open the session and fill it. Repeated;
    // the median is reported.
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..sizes.setups {
        drop(kept.take()); // shut the previous daemon down first
                           // Kernel runs on both sides of every set-up calibrate it locally.
        calib.burst();
        let started = Instant::now();
        let live = start(&journal, None)
            .and_then(|mut live| open_epoch(&mut live, mode.seed, 0).map(|e| (live, e)));
        let raw = started.elapsed().as_secs_f64();
        calib.burst();
        setups.push((raw, calib.at(started) + raw / 2.0));
        match live {
            Ok(live) => kept = Some(live),
            Err(e) => out.fail(format!("set-up: {e}")),
        }
    }
    report_setup(&calib, &setups, &mut out);
    let Some((live, first)) = kept else {
        return out;
    };

    // A traced run alternates epochs between this daemon and a traced
    // twin, so drift hits both alike.
    let mut lives = vec![live];
    if mode.traced {
        match start(
            &scratch.path("traced.journal"),
            Some(scratch.path("session.trace")),
        ) {
            Ok(traced) => lives.push(traced),
            Err(e) => out.fail(format!("traced daemon: {e}")),
        }
    }
    let keep = if mode.traced { 2 } else { 0 };
    let measured = measure(
        &mut lives,
        first,
        mode.seconds,
        sizes.epoch_ops,
        keep,
        mode.seed,
        &mut calib,
        &mut out,
    );
    let journal_bytes = journal_bytes_per_op(&journal);
    drop(lives);
    calib.sample();
    for (kind, secs) in &measured.by_kind {
        crate::kind_summary(&format!("{kind:?}"), secs);
    }
    measured.timelines[0].report(&calib, &mut out);
    let e = &measured.exact;
    let mean_util = e.util_sum / sizes.epoch_ops as f64;
    out.e2e.push(metric("mean_util", mean_util, "ratio"));
    let miss_ratio = e.sched.deadline_misses as f64 / e.sched.admitted.max(1) as f64;
    for (k, v) in [
        ("mean_util", format!("{mean_util}")),
        ("grid_digest", e.grid_digest.clone()),
        ("sched_digest", e.sched_digest.clone()),
        ("deadline_miss_ratio", format!("{miss_ratio}")),
        ("rejects", e.rejects.to_string()),
        ("evictions", e.evictions.to_string()),
    ] {
        out.exact.insert(k.to_string(), v);
    }

    if let Some(traced) = measured.timelines.get(1) {
        out.layers
            .push(trace_overhead(&calib, &measured.timelines[0], traced));
        let replayed = replay(&measured.kept, &mut calib, &mut out);
        layer_metrics(&measured, &replayed, journal_bytes, &mut out);
        out.layers.extend([
            metric(
                "core.online.reject_ratio",
                e.rejects as f64 / e.inserts.max(1) as f64,
                "ratio",
            ),
            metric("core.online.evictions", e.evictions as f64, "count"),
            metric(
                "core.online.repair_escalations",
                e.escalations as f64,
                "count",
            ),
            metric(
                "sched.deadline_misses",
                e.sched.deadline_misses as f64,
                "count",
            ),
            metric("sched.deadline_miss_ratio", miss_ratio, "ratio"),
        ]);
    }
    out.calib = calib.summary();
    out
}

/// Bytes per journal record appended since the last compaction.
fn journal_bytes_per_op(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut lines = text.lines();
    let _snapshot = lines.next();
    let (n, bytes) = lines.fold((0usize, 0usize), |(n, b), l| (n + 1, b + l.len() + 1));
    bytes as f64 / n.max(1) as f64
}

/// In-process replay timings, microseconds by kind.
struct Replayed {
    /// Raw microseconds by kind.
    by_kind: BTreeMap<Kind, Vec<f64>>,
    /// Daemon minus in-process time of each replayed insert, calibrated
    /// microseconds (the two are measured seconds apart).
    insert_overhead_us: Vec<f64>,
}

/// Replay each kept epoch in-process on a fresh `OnlinePlacer` and
/// `Scheduler`, timing every operation, and require the daemon's answers.
fn replay(epochs: &[Epoch], calib: &mut Calib, out: &mut RunOut) -> Replayed {
    let mut by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut insert_overhead_us = Vec::new();
    let model = FrameCostModel::default();
    for (n, epoch) in epochs.iter().enumerate() {
        let region = region_spec().build().expect("the paper region builds");
        let mut placer = OnlinePlacer::new(region);
        let mut sched: Option<Scheduler> = None;
        let fill_ops = epoch.fill.iter().map(|op| (op, None));
        let loop_ops = epoch
            .ops
            .iter()
            .map(|(op, answer, secs)| (op, Some((answer, secs))));
        for (i, (op, want)) in fill_ops.chain(loop_ops).enumerate() {
            calib.tick();
            let started = Instant::now();
            let got = apply(&mut placer, &mut sched, op, &model);
            let raw = started.elapsed().as_secs_f64();
            by_kind.entry(op.kind()).or_default().push(raw * 1e6);
            let Some((want, daemon_secs)) = want else {
                continue;
            };
            if op.kind() == Kind::Insert {
                let t = calib.at(started) + raw / 2.0;
                insert_overhead_us.push((daemon_secs - calib.calibrate(raw, t)) * 1e6);
            }
            if *want != got {
                out.fail(format!(
                    "replay of epoch {n} op {i} ({:?}) answers differently",
                    op.kind()
                ));
            }
        }
    }
    Replayed {
        by_kind,
        insert_overhead_us,
    }
}

/// Apply one operation in-process, the way the daemon's handlers do.
fn apply(
    placer: &mut OnlinePlacer,
    sched: &mut Option<Scheduler>,
    op: &Op,
    model: &FrameCostModel,
) -> Answer {
    match op {
        Op::Insert(entry) => {
            let module = resolve_module(entry).expect("generated modules resolve");
            let slot = placer.try_insert(&module);
            Answer::Inserted(
                slot.and_then(|slot| placer.placement_of(slot).map(|p| (slot, p.shape, p.x, p.y))),
            )
        }
        Op::Remove(slot) => Answer::Removed(placer.remove(*slot)),
        Op::Defrag => Answer::Defragged(placer.defrag() as u64),
        Op::Fault(fault) => {
            let impact = placer.inject_fault(*fault);
            if let Some(s) = sched.as_mut() {
                s.inject_fault(*fault);
            }
            Answer::Faulted(impact.displaced)
        }
        Op::Repair => {
            Answer::Repaired(placer.repair(Duration::from_millis(REPAIR_BUDGET_MS), model))
        }
        Op::Clear(fault) => {
            let tiles = placer.clear_fault(*fault).len() as u64;
            if let Some(s) = sched.as_mut() {
                s.clear_fault(*fault);
            }
            Answer::Cleared(tiles)
        }
        Op::Submit(spec) => {
            let s = sched.get_or_insert_with(|| {
                // The daemon freezes the session region, live slots
                // masked static, at the first submission.
                let mut region = placer.region().clone();
                for (_, module, placed) in placer.slots() {
                    for b in module.shapes()[placed.shape].boxes() {
                        region.add_static_mask(b.placed(placed.x, placed.y));
                    }
                }
                Scheduler::new(region, SchedConfig::default())
            });
            let (id, outcome) = s.submit(spec.resolve().expect("generated tasks resolve"));
            Answer::Submitted(id, outcome.as_str().to_string())
        }
        Op::Advance(to) => {
            let digest = match sched.as_mut() {
                Some(s) => {
                    s.advance_to(*to);
                    s.digest()
                }
                None => 0,
            };
            Answer::Advanced(format!("{digest:016x}"))
        }
    }
}

fn layer_metrics(measured: &Measured, replayed: &Replayed, journal_bytes: f64, out: &mut RunOut) {
    let median = |by_kind: &BTreeMap<Kind, Vec<f64>>, k: Kind| {
        by_kind.get(&k).map_or(0.0, |v| calib::median_or_zero(v))
    };
    let server_ms = |k: Kind| median(&measured.by_kind, k) * 1e3;
    let core_us = |k: Kind| median(&replayed.by_kind, k);
    out.layers.extend([
        metric("server.insert_ms", server_ms(Kind::Insert), "ms"),
        metric("server.remove_ms", server_ms(Kind::Remove), "ms"),
        metric("server.defrag_ms", server_ms(Kind::Defrag), "ms"),
        metric("server.repair_ms", server_ms(Kind::Repair), "ms"),
        metric("server.submit_task_ms", server_ms(Kind::Submit), "ms"),
        metric("server.schedule_status_ms", server_ms(Kind::Advance), "ms"),
        metric(
            "server.session_overhead_us",
            calib::median_or_zero(&replayed.insert_overhead_us),
            "us",
        ),
        metric("server.journal.bytes_per_op", journal_bytes, "B"),
        metric("core.online.insert_us", core_us(Kind::Insert), "us"),
        metric("core.online.defrag_ms", core_us(Kind::Defrag) / 1e3, "ms"),
        metric("core.online.repair_ms", core_us(Kind::Repair) / 1e3, "ms"),
        metric("sched.submit_us", core_us(Kind::Submit), "us"),
        metric("sched.advance_us", core_us(Kind::Advance), "us"),
    ]);
}
