//! Append-only registries of wire-visible names, checked by the compiler.
//!
//! Each registry below is an exhaustive `match` or struct pattern with no
//! wildcard. Adding a variant, field or diagnostic code stops this file
//! from compiling until it is listed here, and removing or renaming one
//! stops it until it is delisted. Either way the change shows up as a
//! reviewed diff of this file. Names are never reused once published:
//! deployed clients, committed journals and dashboards key on them.
//!
//! The router's tests see rrf-server's types, so the registries of both
//! crates live here, together with rrf-analyze's codes and the check
//! that every workspace member takes the workspace lint levels.

use std::fs;
use std::path::Path;

use rrf_analyze::Code;
use rrf_router::RouterStats;
use rrf_server::journal::SchedOp;
use rrf_server::{JournalRecord, Request, Response, ServerStats};

/// Request `type` tags: renaming or deleting one breaks every deployed
/// client.
#[test]
fn protocol_requests() {
    let _tag = |r: &Request| match r {
        Request::Place { .. } => "place",
        Request::Analyze { .. } => "analyze",
        Request::OpenSession { .. } => "open_session",
        Request::Insert { .. } => "insert",
        Request::Remove { .. } => "remove",
        Request::Defrag { .. } => "defrag",
        Request::CloseSession { .. } => "close_session",
        Request::InjectFault { .. } => "inject_fault",
        Request::ClearFault { .. } => "clear_fault",
        Request::Repair { .. } => "repair",
        Request::SubmitTask { .. } => "submit_task",
        Request::CancelTask { .. } => "cancel_task",
        Request::ScheduleStatus { .. } => "schedule_status",
        Request::DumpSession { .. } => "dump_session",
        Request::AdoptJournal { .. } => "adopt_journal",
        Request::DebugPanic { .. } => "debug_panic",
        Request::Stats { .. } => "stats",
        Request::StatsDetail { .. } => "stats_detail",
        Request::Ping { .. } => "ping",
    };
}

/// Response `type` tags, for the same reason.
#[test]
fn protocol_responses() {
    let _tag = |r: &Response| match r {
        Response::Placed { .. } => "placed",
        Response::Analysis { .. } => "analysis",
        Response::SessionOpened { .. } => "session_opened",
        Response::Inserted { .. } => "inserted",
        Response::Removed { .. } => "removed",
        Response::Defragged { .. } => "defragged",
        Response::SessionClosed { .. } => "session_closed",
        Response::FaultInjected { .. } => "fault_injected",
        Response::FaultCleared { .. } => "fault_cleared",
        Response::Repaired { .. } => "repaired",
        Response::TaskSubmitted { .. } => "task_submitted",
        Response::TaskCancelled { .. } => "task_cancelled",
        Response::Schedule { .. } => "schedule",
        Response::SessionState { .. } => "session_state",
        Response::JournalAdopted { .. } => "journal_adopted",
        Response::Stats { .. } => "stats",
        Response::StatsDetail { .. } => "stats_detail",
        Response::Pong { .. } => "pong",
        Response::Overloaded { .. } => "overloaded",
        Response::Error { .. } => "error",
    };
}

/// Journal `op` tags: committed journals must replay forever.
#[test]
fn journal_records() {
    let _tag = |r: &JournalRecord| match r {
        JournalRecord::Open { .. } => "open",
        JournalRecord::Insert { .. } => "insert",
        JournalRecord::Remove { .. } => "remove",
        JournalRecord::Defrag { .. } => "defrag",
        JournalRecord::Fault { .. } => "fault",
        JournalRecord::ClearFault { .. } => "clear_fault",
        JournalRecord::Repair { .. } => "repair",
        JournalRecord::Sched { .. } => "sched",
        JournalRecord::Close { .. } => "close",
        JournalRecord::Snapshot { .. } => "snapshot",
    };
}

/// Scheduler op `kind` tags inside `sched` journal records.
#[test]
fn sched_ops() {
    let _tag = |op: &SchedOp| match op {
        SchedOp::Open { .. } => "open",
        SchedOp::Submit { .. } => "submit",
        SchedOp::Cancel { .. } => "cancel",
        SchedOp::Advance { .. } => "advance",
        SchedOp::Fault { .. } => "fault",
        SchedOp::ClearFault { .. } => "clear_fault",
    };
}

/// `stats` counter names: dashboards and EXPERIMENTS.md scripts key on
/// them.
#[test]
fn stats_counters() {
    let ServerStats {
        backend_id: _,
        pending: _,
        requests: _,
        place_requests: _,
        cache_hits: _,
        cache_misses: _,
        cache_bypass_degraded: _,
        cache_evictions: _,
        coalesced_joins: _,
        coalesced_leader_solves: _,
        cache_persist_loaded: _,
        cache_load_errors: _,
        placed_optimal: _,
        placed_cp_incumbent: _,
        placed_lns: _,
        placed_bottom_left: _,
        infeasible: _,
        preflight_rejects: _,
        shapes_pruned: _,
        analyze_requests: _,
        analyze_us_total: _,
        rejected_backpressure: _,
        shed_deadline: _,
        conns_rejected: _,
        conns_open: _,
        oversized_lines: _,
        slow_client_disconnects: _,
        rejected_draining: _,
        protocol_errors: _,
        sessions_opened: _,
        sessions_closed: _,
        online_inserts: _,
        online_accepted: _,
        online_rejected: _,
        online_removals: _,
        online_defrags: _,
        faults_injected: _,
        faults_cleared: _,
        sched_submits: _,
        sched_admitted: _,
        sched_rejected: _,
        sched_cancels: _,
        sched_advances: _,
        repairs: _,
        repaired_relocated: _,
        repaired_evicted: _,
        worker_panics: _,
        workers_alive: _,
        journal_records: _,
        journal_errors: _,
        journal_compactions: _,
        recovered_sessions: _,
        adopted_sessions: _,
        recovery_errors: _,
        solve_ms_histogram: _,
    } = ServerStats::default();
}

/// `router_stats` counter names: the reply is wire-visible, and the
/// cluster ablation and the failover e2e key on them.
#[test]
fn router_counters() {
    let RouterStats {
        routed_requests: _,
        routed_stateless: _,
        routed_pinned: _,
        sessions_opened: _,
        ejected_backends: _,
        ejections: _,
        rejoins: _,
        failovers: _,
        failover_sessions: _,
        failover_lost_sessions: _,
        deferred_pinned: _,
        no_backend: _,
        forward_failures: _,
        dropped_ambiguous: _,
        protocol_errors: _,
        probes_ok: _,
        probes_failed: _,
    } = RouterStats::default();
}

/// rrf-analyze's codes are never renumbered or reused: committed
/// expected-diagnostic files and clients switching on `code` rely on it.
#[test]
fn diagnostic_codes() {
    let number = |code: Code| match code {
        Code::MalformedShape => "RRF001",
        Code::UnplaceableResource => "RRF002",
        Code::DeadAlternative => "RRF003",
        Code::DeadModule => "RRF004",
        Code::CapacityExceeded => "RRF005",
        Code::DuplicateAlternative => "RRF006",
        Code::DominatedAlternative => "RRF007",
    };
    let mut seen = 0;
    for n in 0..1000 {
        let text = format!("RRF{n:03}");
        if let Some(code) = Code::parse(&text) {
            assert_eq!(number(code), text, "{code:?} was renumbered");
            assert_eq!(code.as_str(), text, "{code:?} prints another number");
            seen += 1;
        }
    }
    assert_eq!(seen, 7, "every listed code parses from its number");
}

/// Every workspace member inherits `[workspace.lints]`: the `allow`
/// default of the determinism bans (which clippy otherwise warns about)
/// and the `unsafe_code` floor.
#[test]
fn every_member_takes_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("members = ["))
        .expect("a one-line `members = [...]` in the root manifest");
    let mut checked = 0;
    for pattern in members.split('"').skip(1).step_by(2) {
        let dirs: Vec<_> = match pattern.strip_suffix("/*") {
            Some(parent) => fs::read_dir(root.join(parent))
                .expect("member directory")
                .map(|e| e.expect("directory entry").path())
                .collect(),
            None => vec![root.join(pattern)],
        };
        for dir in dirs {
            let Ok(text) = fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            assert!(
                text.contains("\n[lints]\nworkspace = true\n"),
                "{} lacks `[lints] workspace = true`",
                dir.display()
            );
            checked += 1;
        }
    }
    assert!(checked > 1, "found the workspace members");
}
