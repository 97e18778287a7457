//! Cache concurrency end-to-end tests: single-flight coalescing under a
//! real duplicate burst, and the unified write-back (one guarded insert
//! site for both the feasible and infeasible solve paths).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use rrf_fabric::ResourceKind;
use rrf_flow::{DeviceSpec, FlowSpec, ModuleEntry, PlacerSettings, RegionSpec};
use rrf_geost::{ShapeDef, ShiftedBox};
use rrf_server::{start, PlaceMethod, Request, Response, ServerConfig};

/// A client that keeps the raw response line, so tests can compare the
/// exact bytes the daemon wrote.
struct RawClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawClient {
    fn connect(addr: std::net::SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        RawClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, request: &Request) {
        let mut line = serde_json::to_string(request).unwrap();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).unwrap();
    }

    fn recv_raw(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        line.trim_end().to_string()
    }

    fn roundtrip(&mut self, request: &Request) -> Response {
        self.send(request);
        serde_json::from_str(&self.recv_raw()).expect("parse response")
    }
}

fn fetch_stats(client: &mut RawClient, id: u64) -> rrf_server::ServerStats {
    match client.roundtrip(&Request::Stats { id }) {
        Response::Stats { stats, .. } => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

fn fetch_detail(client: &mut RawClient, id: u64) -> rrf_server::DetailStats {
    match client.roundtrip(&Request::StatsDetail { id }) {
        Response::StatsDetail { detail, .. } => detail,
        other => panic!("expected stats_detail, got {other:?}"),
    }
}

/// A spec heavy enough that CP keeps solving until the deadline — the
/// coalescing window the burst threads aim into.
fn heavy_spec(seed: u64) -> FlowSpec {
    let workload = rrf_modgen::generate_workload(&rrf_modgen::WorkloadSpec::paper(seed));
    FlowSpec {
        region: RegionSpec {
            device: DeviceSpec::Columns {
                width: 240,
                height: 16,
                bram_period: 10,
                bram_offset: 4,
                dsp_period: 0,
                dsp_offset: 0,
                io_ring: 0,
                center_clock: false,
            },
            bounds: None,
            static_masks: vec![],
        },
        modules: workload
            .modules
            .into_iter()
            .map(|m| ModuleEntry {
                name: m.name,
                shapes: m.shapes,
                netlist: None,
            })
            .collect(),
        placer: PlacerSettings::default(),
    }
}

/// Strip the `elapsed_ms` suffix — the only timing-bearing field of a
/// `placed` response, and (by declaration order) the last one serialized.
fn mask_elapsed(line: &str) -> &str {
    line.rsplit_once(",\"elapsed_ms\":")
        .expect("placed response carries elapsed_ms")
        .0
}

/// M identical `place` requests in flight at once: exactly one solve
/// runs (the leader's), the other M-1 requests join it, and all M
/// responses carry byte-identical payloads.
#[test]
fn duplicate_burst_coalesces_into_one_solve() {
    const FOLLOWERS: usize = 5;
    let handle = start(ServerConfig {
        workers: 8,
        queue_depth: 16,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let spec = heavy_spec(3);

    // The leader goes first with the roomiest deadline, so every
    // follower (same spec, less remaining budget) joins its flight
    // rather than solving solo.
    let mut leader = RawClient::connect(addr);
    leader.send(&Request::Place {
        id: 7,
        spec: spec.clone(),
        deadline_ms: Some(3_000),
    });
    // Let the leader's solve actually start (register the flight)
    // before the burst fires.
    std::thread::sleep(Duration::from_millis(500));

    let barrier = Arc::new(Barrier::new(FOLLOWERS));
    let mut joiners = Vec::new();
    for _ in 0..FOLLOWERS {
        let barrier = Arc::clone(&barrier);
        let spec = spec.clone();
        joiners.push(std::thread::spawn(move || {
            let mut client = RawClient::connect(addr);
            barrier.wait();
            client.send(&Request::Place {
                id: 7,
                spec,
                deadline_ms: Some(2_000),
            });
            client.recv_raw()
        }));
    }

    let leader_line = leader.recv_raw();
    let mut lines = vec![leader_line];
    for joiner in joiners {
        lines.push(joiner.join().expect("joiner thread"));
    }

    for line in &lines {
        match serde_json::from_str::<Response>(line).expect("parse placed") {
            Response::Placed {
                id,
                cache_hit,
                report,
                ..
            } => {
                assert_eq!(id, 7);
                assert!(!cache_hit, "a coalesced answer is a live solve, not a hit");
                assert!(report.feasible);
            }
            other => panic!("expected placed, got {other:?}"),
        }
    }
    // One solve, M answers: every payload is byte-identical up to
    // `elapsed_ms` (each request still reports its own wall time).
    let reference = mask_elapsed(&lines[0]);
    for line in &lines[1..] {
        assert_eq!(mask_elapsed(line), reference, "coalesced payloads diverge");
    }

    let mut observer = RawClient::connect(addr);
    let stats = fetch_stats(&mut observer, 100);
    let detail = fetch_detail(&mut observer, 101);
    assert_eq!(
        detail.cache.coalesced_leader_solves, 1,
        "exactly one solve served the burst"
    );
    assert_eq!(detail.cache.coalesced_joins, FOLLOWERS as u64);
    assert_eq!(detail.cache.coalesce_timeouts, 0);
    // Joiners are misses (they did not find a usable entry), so the
    // load-accounting invariant survives coalescing.
    assert_eq!(stats.place_requests, 1 + FOLLOWERS as u64);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 1 + FOLLOWERS as u64);
    assert_eq!(stats.coalesced_joins, FOLLOWERS as u64);
    assert_eq!(stats.coalesced_leader_solves, 1);
    // Only the leader's solve entered the histogram.
    assert_eq!(stats.solves(), 1);
    // The entry it cached serves stragglers as a plain hit.
    match observer.roundtrip(&Request::Place {
        id: 102,
        spec,
        deadline_ms: Some(2_000),
    }) {
        Response::Placed { cache_hit, .. } => assert!(cache_hit),
        other => panic!("expected placed, got {other:?}"),
    }

    handle.shutdown();
}

/// Geometrically infeasible but not preflight-provable: two 2×2 modules
/// on a 3×3 region (area 8 ≤ 9 passes the counting bound; no packing
/// exists). Under a tight deadline the CP rung is skipped, so the
/// infeasible verdict is *unproven* — and must be cached with the budget
/// that produced it, through the same single write-back as feasible
/// results.
fn unprovable_pair() -> FlowSpec {
    let shape = ShapeDef::new(vec![ShiftedBox::new(0, 0, 2, 2, ResourceKind::Clb)]);
    FlowSpec {
        region: RegionSpec {
            device: DeviceSpec::Homogeneous {
                width: 3,
                height: 3,
            },
            bounds: None,
            static_masks: vec![],
        },
        modules: vec![
            ModuleEntry {
                name: "a".into(),
                shapes: vec![shape.clone()],
                netlist: None,
            },
            ModuleEntry {
                name: "b".into(),
                shapes: vec![shape],
                netlist: None,
            },
        ],
        placer: PlacerSettings::default(),
    }
}

/// Regression for the write-back unification: the infeasible path used
/// to have its own divergent insert site. Both paths now funnel through
/// one helper, so an unproven infeasible entry obeys the same
/// budget-upgrade ladder as a degraded floorplan — and each solve
/// inserts exactly once.
#[test]
fn unproven_infeasible_entries_ride_the_budget_upgrade_ladder() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = RawClient::connect(handle.addr());
    let spec = unprovable_pair();

    let place = |client: &mut RawClient, id: u64, deadline_ms: u64| match client.roundtrip(
        &Request::Place {
            id,
            spec: spec.clone(),
            deadline_ms: Some(deadline_ms),
        },
    ) {
        Response::Placed {
            method,
            cache_hit,
            report,
            ..
        } => {
            assert_eq!(method, PlaceMethod::Infeasible);
            assert!(!report.feasible);
            (cache_hit, report.proven)
        }
        other => panic!("expected placed, got {other:?}"),
    };

    // 120 ms is under the tight-budget bar: CP never runs, greedy fails,
    // and the unproven verdict is cached with a ~120 ms budget.
    assert_eq!(place(&mut client, 1, 120), (false, false));
    // An even more starved request reuses it...
    assert_eq!(place(&mut client, 2, 100), (true, false));
    // ...but real budget must not inherit an unproven verdict: the entry
    // is bypassed, CP runs, and proves infeasibility.
    assert_eq!(place(&mut client, 3, 5_000), (false, true));
    // The proven verdict now serves any budget.
    assert_eq!(place(&mut client, 4, 50), (true, true));
    assert_eq!(place(&mut client, 5, 30_000), (true, true));

    let stats = fetch_stats(&mut client, 6);
    let detail = fetch_detail(&mut client, 7);
    assert_eq!(stats.place_requests, 5);
    assert_eq!(stats.cache_hits, 3);
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(stats.cache_bypass_degraded, 1);
    assert_eq!(stats.infeasible, 2);
    assert_eq!(stats.place_requests, stats.cache_hits + stats.cache_misses);
    // One insert per solve — the second overwrites (upgrades) the first,
    // never duplicates it.
    assert_eq!(detail.cache.insertions, 2);
    assert_eq!(detail.cache.entries, 1);

    handle.shutdown();
}

/// A degraded result is cached under the budget its request declared,
/// so an identical repeat with the same `deadline_ms` is a hit. (The
/// entry used to hold the budget left when its solve started, read after
/// preflight, while a repeat probed with what it had left on arrival:
/// the repeat nearly always read more budget and solved again.)
#[test]
fn degraded_repeat_with_the_same_deadline_is_a_cache_hit() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = RawClient::connect(handle.addr());
    let spec = heavy_spec(3);
    let place = |client: &mut RawClient, id: u64| match client.roundtrip(&Request::Place {
        id,
        spec: spec.clone(),
        // Under the tight-budget bar: CP is skipped, the answer degrades.
        deadline_ms: Some(150),
    }) {
        Response::Placed {
            method, cache_hit, ..
        } => (method, cache_hit),
        other => panic!("expected placed, got {other:?}"),
    };

    let (method, cache_hit) = place(&mut client, 1);
    assert!(!cache_hit);
    assert!(matches!(method, PlaceMethod::Lns | PlaceMethod::BottomLeft));
    for id in 2..=4 {
        assert_eq!(place(&mut client, id), (method, true), "repeat {id}");
    }

    let stats = fetch_stats(&mut client, 5);
    assert_eq!(stats.cache_hits, 3);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_bypass_degraded, 0);

    handle.shutdown();
}
