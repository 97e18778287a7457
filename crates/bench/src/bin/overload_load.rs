//! `overload_load` — the overload ablation: does adaptive admission
//! control buy goodput at ≥2× saturation, or does it just drop work?
//!
//! Two arms against in-process daemons with identical tiny capacity
//! (2 workers, queue depth 4), each offered the same **open-loop** load:
//! `clients` connections fire cache-busting `place` requests on a fixed
//! Poisson-free schedule whose aggregate rate is `overload_factor`× the
//! daemon's service capacity — the clients do *not* slow down when the
//! daemon does, exactly like independent tenants hammering a shared
//! reconfiguration service. Per-request CP cost is pinned by the spec's
//! own `time_limit_ms`, so capacity is predictable across seeds.
//!
//! * **admission** — the real configuration: a full queue sheds
//!   immediately with `overloaded` + `retry_after_ms`, keeping latency
//!   for admitted work bounded by the queue depth.
//! * **no_shedding** — `admission_control` off: every request blocks
//!   until the queue accepts it. Nothing is rejected, so queueing delay
//!   grows without bound and responses arrive ever later (the classic
//!   goodput collapse).
//!
//! The load is **deadline-blind**: requests carry no `deadline_ms`, so
//! the server's degradation ladder — which is itself a per-request
//! overload defense, already benched in `serve_load` — cannot rescue
//! the no-shedding arm by collapsing service cost to a greedy placement.
//! The circuit breaker is likewise pinned off in both arms (it is
//! orthogonal to admission and would route both arms to LNS once the
//! pinned CP budget stops proving optimality, destroying the fixed
//! service cost the capacity math relies on).
//!
//! **Goodput** is a response that is feasible *and arrived within the
//! client's SLO of the send time* — late answers count for nothing,
//! like a blown reconfiguration slot in the paper's runtime setting.
//! The SLO is the tenant's own bar, deliberately not attached to the
//! request. The binary writes both arms to `BENCH_overload.json`
//! (shared `BenchRecord` schema); the `bench_gate` binary enforces the
//! floor (admission goodput strictly above no-shedding).
//!
//! Usage: `overload_load [clients] [requests_per_client] [seed]
//!         [--slo-ms MS] [--overload-factor F] [--out PATH]`
//! (defaults 12, 10, 0, 600, 2.0).

#![forbid(unsafe_code)]
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rrf_bench::record::{write_records, BenchRecord};
use rrf_bench::workload::{percentile_ms, small_region_spec};
use rrf_flow::{FlowSpec, ModuleEntry, PlacerSettings};
use rrf_modgen::{generate_workload, WorkloadSpec};
use rrf_server::{start, Request, Response, ServerConfig};

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 4;
/// Per-request CP budget (the spec's own time limit): the pinned service
/// cost that makes capacity — WORKERS / SERVICE_MS — predictable.
const SERVICE_MS: u64 = 150;
/// Modules per generated spec; big enough that CP genuinely uses its
/// budget, small enough that the greedy fallback stays feasible.
const SPEC_MODULES: usize = 8;
/// Server-side default deadline for the deadline-blind requests: far
/// past the client SLO, so the degradation ladder never fires inside
/// the window where a response could still count as goodput, but low
/// enough to bound worst-case worker occupancy if CP ever returns
/// without an incumbent and the LNS rung inherits the remainder.
const SERVER_DEADLINE_MS: u64 = 3_000;

/// Unique spec per (arm, client, request): every place is a cache miss,
/// so the daemon pays real solver latency for each admitted request.
fn place_spec(unique: u64) -> FlowSpec {
    let workload = generate_workload(&WorkloadSpec::small(SPEC_MODULES, unique));
    FlowSpec {
        region: small_region_spec(),
        modules: workload
            .modules
            .into_iter()
            .map(|m| ModuleEntry {
                name: m.name,
                shapes: m.shapes,
                netlist: None,
            })
            .collect(),
        placer: PlacerSettings {
            time_limit_ms: Some(SERVICE_MS),
            ..PlacerSettings::default()
        },
    }
}

#[derive(Default)]
struct ArmOutcome {
    offered: u64,
    goodput: u64,
    shed: u64,
    late: u64,
    infeasible: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

/// One open-loop client: a sender thread fires `requests` place lines on
/// a fixed schedule (never waiting for replies), a reader thread stamps
/// arrivals. Returns per-request outcomes judged against the client SLO.
fn run_client(
    addr: &str,
    client_idx: u64,
    requests: u64,
    seed: u64,
    gap_ms: u64,
    slo_ms: u64,
    arm_tag: u64,
) -> ArmOutcome {
    let mut out = ArmOutcome {
        offered: requests,
        ..ArmOutcome::default()
    };
    let stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(_) => {
            out.errors = requests;
            return out;
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let reader_stream = stream.try_clone().unwrap();
    let (done_tx, done_rx) = mpsc::channel::<(u64, Instant, Response)>();
    let reader = std::thread::spawn(move || {
        let mut reader = BufReader::new(reader_stream);
        let mut line = String::new();
        for _ in 0..requests {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let Ok(response) = serde_json::from_str::<Response>(line.trim()) else {
                return;
            };
            let id = response.id();
            if done_tx.send((id, Instant::now(), response)).is_err() {
                return;
            }
        }
    });

    let mut writer = stream;
    let mut sent_at = std::collections::HashMap::new();
    let epoch = Instant::now();
    for i in 0..requests {
        // Open loop: send at the scheduled instant even if the previous
        // response has not arrived.
        let due = epoch + Duration::from_millis(i * gap_ms);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let id = client_idx * 1_000_000 + i + 1;
        let spec = place_spec(arm_tag | (seed << 20) | (client_idx << 10) | i);
        let request = Request::Place {
            id,
            spec,
            deadline_ms: None,
        };
        let mut line = serde_json::to_string(&request).expect("serialize request");
        line.push('\n');
        sent_at.insert(id, Instant::now());
        if writer.write_all(line.as_bytes()).is_err() {
            out.errors += requests - i;
            break;
        }
    }
    drop(writer);
    let _ = reader.join();

    let deadline = Duration::from_millis(slo_ms);
    let mut answered = 0u64;
    while let Ok((id, at, response)) = done_rx.try_recv() {
        answered += 1;
        let Some(&sent) = sent_at.get(&id) else {
            out.errors += 1;
            continue;
        };
        let elapsed = at.duration_since(sent);
        out.latencies_us.push(elapsed.as_micros() as u64);
        match response {
            Response::Placed { report, .. } => {
                if !report.feasible {
                    out.infeasible += 1;
                } else if elapsed <= deadline {
                    out.goodput += 1;
                } else {
                    out.late += 1;
                }
            }
            Response::Overloaded { .. } => out.shed += 1,
            _ => out.errors += 1,
        }
    }
    out.errors += out.offered.saturating_sub(answered + out.errors);
    out
}

fn run_arm(
    admission: bool,
    clients: u64,
    requests: u64,
    seed: u64,
    gap_ms: u64,
    slo_ms: u64,
) -> ArmOutcome {
    let handle = start(ServerConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        admission_control: admission,
        default_deadline_ms: SERVER_DEADLINE_MS,
        // Pinned off (see module docs): the breaker is orthogonal to the
        // admission variable and would perturb the fixed service cost.
        breaker_threshold: u32::MAX,
        cache_capacity: 16,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let arm_tag = u64::from(admission) << 40;

    let mut threads = Vec::new();
    for client_idx in 0..clients {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            run_client(&addr, client_idx, requests, seed, gap_ms, slo_ms, arm_tag)
        }));
    }
    let mut total = ArmOutcome::default();
    for thread in threads {
        let out = thread.join().expect("client thread panicked");
        total.offered += out.offered;
        total.goodput += out.goodput;
        total.shed += out.shed;
        total.late += out.late;
        total.infeasible += out.infeasible;
        total.errors += out.errors;
        total.latencies_us.extend(out.latencies_us);
    }
    handle.shutdown();
    total.latencies_us.sort_unstable();
    total
}

#[allow(
    clippy::too_many_arguments,
    reason = "one row of the arm table: each argument is a column it records"
)]
fn record(
    arm: &str,
    out: &ArmOutcome,
    clients: u64,
    slo_ms: u64,
    gap_ms: u64,
    factor: f64,
    seed: u64,
) -> BenchRecord {
    BenchRecord::new("overload_ablation")
        .param_str("arm", arm)
        .param_u64("clients", clients)
        .param_u64("workers", WORKERS as u64)
        .param_u64("queue_depth", QUEUE_DEPTH as u64)
        .param_u64("service_ms", SERVICE_MS)
        .param_u64("slo_ms", slo_ms)
        .param_u64("send_gap_ms", gap_ms)
        .param_f64("overload_factor", factor)
        .param_u64("seed", seed)
        .metric_u64("offered", out.offered)
        .metric_u64("goodput", out.goodput)
        .metric_u64("shed", out.shed)
        .metric_u64("late", out.late)
        .metric_u64("infeasible", out.infeasible)
        .metric_u64("errors", out.errors)
        .metric_f64(
            "goodput_ratio",
            out.goodput as f64 / out.offered.max(1) as f64,
        )
        .metric_f64("latency_p50_ms", percentile_ms(&out.latencies_us, 50.0))
        .metric_f64("latency_p95_ms", percentile_ms(&out.latencies_us, 95.0))
}

fn main() {
    let mut positional: Vec<u64> = Vec::new();
    let mut out_path = "BENCH_overload.json".to_string();
    let mut slo_ms = 600u64;
    let mut factor = 2.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--slo-ms" => {
                slo_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--slo-ms needs a number")
            }
            "--overload-factor" => {
                factor = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--overload-factor needs a number")
            }
            other => positional.push(other.parse().unwrap_or_else(|_| {
                eprintln!(
                    "usage: overload_load [clients] [requests_per_client] [seed] \
                     [--slo-ms MS] [--overload-factor F] [--out PATH]"
                );
                std::process::exit(2);
            })),
        }
    }
    let clients = positional.first().copied().unwrap_or(12);
    let requests = positional.get(1).copied().unwrap_or(10);
    let seed = positional.get(2).copied().unwrap_or(0);
    assert!(factor >= 2.0, "the acceptance gate is >= 2x saturation");

    // Offered rate = clients / gap; capacity = WORKERS / SERVICE_MS.
    // Solve gap so offered = factor * capacity.
    let capacity_rps = WORKERS as f64 * 1000.0 / SERVICE_MS as f64;
    let gap_ms = ((clients as f64 * 1000.0) / (factor * capacity_rps)).round() as u64;

    eprintln!(
        "overload_load: {clients} clients x {requests} requests, send gap {gap_ms}ms \
         ({factor}x of {capacity_rps:.1} rps capacity), client SLO {slo_ms}ms"
    );
    let with = run_arm(true, clients, requests, seed, gap_ms, slo_ms);
    eprintln!(
        "  admission:   offered {} goodput {} shed {} late {} errors {}",
        with.offered, with.goodput, with.shed, with.late, with.errors
    );
    let without = run_arm(false, clients, requests, seed, gap_ms, slo_ms);
    eprintln!(
        "  no_shedding: offered {} goodput {} shed {} late {} errors {}",
        without.offered, without.goodput, without.shed, without.late, without.errors
    );

    let records = vec![
        record("admission", &with, clients, slo_ms, gap_ms, factor, seed),
        record(
            "no_shedding",
            &without,
            clients,
            slo_ms,
            gap_ms,
            factor,
            seed,
        ),
    ];
    write_records(&out_path, &records).expect("write records");
    eprintln!("overload_load: wrote {out_path}");

    // Floors live in `bench_gate`: admission goodput must strictly beat
    // the no-shedding arm at >= 2x saturation.
    eprintln!(
        "overload_load: admission goodput {} vs no-shedding {} (bench_gate enforces the floor)",
        with.goodput, without.goodput
    );
}
