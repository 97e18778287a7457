//! `serve`: an in-process `rrf-serve` daemon with an in-process
//! `rrf-router` in front; one client thread, one request outstanding,
//! alternating between a direct connection and a routed one.
//!
//! Two thirds of the requests repeat specs of the working set that
//! set-up already placed (a quarter of them list the modules in reverse
//! order, which must hit the same canonical cache entry); a fixed 2 % are
//! first-time specs that prove optimal well within their deadline; 31 %
//! are `analyze` calls on 30-module specs. The working set stays below
//! the cache's 256 entries. JSON encode/decode, canonicalization, cache
//! probes, the hand-off to worker threads and the router hop do most of
//! the work; the solver almost none.
//!
//! Direct and routed cache hits form two latency bands a third of the
//! requests each, so p50 falls in the middle of the routed hits; p90
//! falls inside the analyze calls and p99 inside the first-time solves.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rrf_core::{cp, verify, Floorplan, PlacedModule, PlacementProblem, PlacerConfig};
use rrf_flow::{resolve_module, FlowReport, FlowSpec, ModuleEntry, RegionSpec};
use rrf_modgen::{generate_workload, WorkloadSpec};
use rrf_router::{BackendSpec, RouterConfig, RouterHandle};
use rrf_server::{PlaceMethod, Request, Response, ServerConfig, ServerHandle};

use crate::calib::{self, Calib};
use crate::wire::{Conn, Scratch};
use crate::{columns, metric, mix, report_setup, trace_overhead, Mode, RunOut, Timeline};

/// Modules per working-set spec (about 2.7 KB of JSON) and per
/// first-time spec.
const SPEC_MODULES: usize = 5;
/// Per mille of requests that are first-time specs / analyze calls.
const FRESH_PER_MILLE: u64 = 20;
const ANALYZE_PER_MILLE: u64 = 313;
/// Per mille of working-set repeats that list the modules reversed.
const REVERSED_PER_MILLE: u64 = 250;
/// Failure caps of the in-process screens working-set and first-time
/// specs pass.
const SCREEN_WORKING: u64 = 100;
const SCREEN_FRESH: u64 = 500;
/// Deadline of the cache-defect probe's unproven spec, and its repeats.
const PROBE_DEADLINE_MS: u64 = 250;

struct Sizes {
    working: usize,
    /// First-time specs whose utilization joins the working set's in
    /// `mean_util`; every run places at least this many.
    exact_fresh: u64,
    analyze: usize,
    setups: usize,
    probe_repeats: usize,
}

fn sizes(short: bool) -> Sizes {
    if short {
        Sizes {
            working: 12,
            exact_fresh: 10,
            analyze: 3,
            setups: 2,
            probe_repeats: 8,
        }
    } else {
        Sizes {
            working: 80,
            exact_fresh: 300,
            analyze: 256,
            setups: 15,
            probe_repeats: 40,
        }
    }
}

fn spec_from(workload: &WorkloadSpec, region: RegionSpec) -> FlowSpec {
    FlowSpec {
        region,
        modules: generate_workload(workload)
            .modules
            .into_iter()
            .map(|m| ModuleEntry {
                name: m.name,
                shapes: m.shapes,
                netlist: None,
            })
            .collect(),
        placer: Default::default(),
    }
}

/// A small placed spec: 5 modules on the 60x8 column device.
fn small_spec(seed: u64) -> FlowSpec {
    spec_from(&WorkloadSpec::small(SPEC_MODULES, seed), columns(60, 8))
}

/// Whether a spec proves optimal within `failures` failures when solved
/// in-process with the daemon's search. Input generation keeps only such
/// specs, so every placed spec proves well within its deadline and no
/// slow outlier decides a run's set-up time or tail.
fn proves_within(spec: &FlowSpec, failures: u64) -> bool {
    let Ok(region) = spec.region.build() else {
        return false;
    };
    let Ok(modules) = spec.modules.iter().map(resolve_module).collect() else {
        return false;
    };
    let config = PlacerConfig {
        time_limit: None,
        fail_limit: Some(failures),
        ..spec.placer.to_config()
    };
    cp::place(&PlacementProblem::new(region, modules), &config).proven
}

/// The `i`-th spec of the stream `stream` that `make` builds and that
/// proves within `failures`.
fn screened(make: fn(u64) -> FlowSpec, failures: u64, stream: u64, i: u64) -> FlowSpec {
    (0..)
        .map(|k| make(mix(stream, i.wrapping_mul(1 << 20).wrapping_add(k))))
        .find(|spec| proves_within(spec, failures))
        .expect("some spec proves quickly")
}

/// A paper-scale spec: 30 modules on the 240x16 column device.
fn paper_spec(seed: u64) -> FlowSpec {
    spec_from(&WorkloadSpec::paper(seed), columns(240, 16))
}

/// A first-time spec: 5 paper-distribution modules on the 240x16 column
/// device — a solve of tens of milliseconds, well above the request
/// path's own latency and the machine's scheduling hiccups, so p99 falls
/// inside these solves.
fn fresh_spec(seed: u64) -> FlowSpec {
    let workload = WorkloadSpec {
        modules: SPEC_MODULES,
        ..WorkloadSpec::paper(seed)
    };
    spec_from(&workload, columns(240, 16))
}

fn place_line(id: u64, spec: &FlowSpec, deadline_ms: Option<u64>) -> String {
    serde_json::to_string(&Request::Place {
        id,
        spec: spec.clone(),
        deadline_ms,
    })
    .expect("requests encode")
}

fn reversed(spec: &FlowSpec) -> FlowSpec {
    let mut spec = spec.clone();
    spec.modules.reverse();
    spec
}

/// Seeded inputs: request lines are encoded before any timing.
struct Inputs {
    seed: u64,
    /// Working set: (spec, line) for the original and reversed order.
    working: Vec<[(FlowSpec, String); 2]>,
    analyze: Vec<String>,
}

fn inputs(seed: u64, sizes: &Sizes) -> Inputs {
    let working = (0..sizes.working as u64)
        .map(|w| {
            let spec = screened(small_spec, SCREEN_WORKING, seed, w);
            let rev = reversed(&spec);
            let (a, b) = (
                place_line(w + 1, &spec, None),
                place_line(w + 1, &rev, None),
            );
            [(spec, a), (rev, b)]
        })
        .collect();
    let analyze = (0..sizes.analyze as u64)
        .map(|a| {
            let spec = paper_spec(mix(seed ^ 0xA11A, a));
            serde_json::to_string(&Request::Analyze { id: 1, spec }).expect("requests encode")
        })
        .collect();
    Inputs {
        seed,
        working,
        analyze,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hit { w: usize, v: usize },
    Fresh,
    Analyze(usize),
}

fn kind_of(inputs: &Inputs, r: u64) -> Kind {
    let u = mix(inputs.seed ^ 0x5E12E, r);
    let roll = u % 1000;
    let pick = (u / 1000) as usize;
    if roll < FRESH_PER_MILLE {
        Kind::Fresh
    } else if roll < FRESH_PER_MILLE + ANALYZE_PER_MILLE {
        Kind::Analyze(pick % inputs.analyze.len())
    } else {
        let v = usize::from((u >> 40) % 1000 < REVERSED_PER_MILLE);
        Kind::Hit {
            w: pick % inputs.working.len(),
            v,
        }
    }
}

/// Daemon + router + the client's two connections. Fields drop in order:
/// connections first, then the router, then the daemon.
struct Stack {
    direct: Conn,
    routed: Conn,
    _router: RouterHandle,
    _server: ServerHandle,
}

fn start_stack(trace_path: Option<String>) -> Result<Stack, String> {
    let server = rrf_server::start(ServerConfig {
        workers: 2,
        trace_path,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let router = rrf_router::start(RouterConfig {
        backends: vec![BackendSpec {
            addr: server.addr().to_string(),
            journal: None,
        }],
        probe_interval_ms: 500,
        ..RouterConfig::default()
    })
    .map_err(|e| format!("router start: {e}"))?;
    Ok(Stack {
        direct: Conn::open(server.addr())?,
        routed: Conn::open(router.addr())?,
        _router: router,
        _server: server,
    })
}

/// Rebuild a `place` answer against its spec and run the verifier.
fn verify_report(spec: &FlowSpec, report: &FlowReport) -> Result<(), String> {
    let region = spec.region.build().map_err(|e| e.to_string())?;
    let modules = spec
        .modules
        .iter()
        .map(resolve_module)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    if report.placements.len() != modules.len() {
        return Err("placement count differs from module count".into());
    }
    let mut placed = Vec::new();
    for (i, (p, m)) in report.placements.iter().zip(&spec.modules).enumerate() {
        if p.name != m.name {
            return Err(format!("placement {i} names {} not {}", p.name, m.name));
        }
        placed.push(PlacedModule {
            module: i,
            shape: p.shape,
            x: p.x,
            y: p.y,
        });
    }
    let violations = verify::verify(&region, &modules, &Floorplan::new(placed));
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("verify: {violations:?}"))
    }
}

/// Check a `place` answer; returns its report's encoding for repeat
/// comparison and its utilization.
fn check_placed(line: &str, want_hit: bool) -> Result<(FlowReport, String), String> {
    match serde_json::from_str::<Response>(line) {
        Ok(Response::Placed {
            method,
            cache_hit,
            report,
            ..
        }) => {
            if method != PlaceMethod::Optimal || !report.proven || !report.feasible {
                return Err(format!("not proven optimal: {method:?}"));
            }
            if cache_hit != want_hit {
                return Err(format!("cache_hit {cache_hit}, expected {want_hit}"));
            }
            let encoded = serde_json::to_string(&report).map_err(|e| e.to_string())?;
            Ok((report, encoded))
        }
        Ok(other) => Err(format!("unexpected reply {other:?}")),
        Err(e) => Err(format!("undecodable reply: {e}")),
    }
}

fn check_analysis(line: &str) -> Result<String, String> {
    match serde_json::from_str::<Response>(line) {
        Ok(Response::Analysis {
            diagnostics,
            proven_infeasible,
            shapes_total,
            shapes_prunable,
            ..
        }) => {
            if proven_infeasible {
                return Err("analysis claims a feasible spec is infeasible".into());
            }
            Ok(format!(
                "{}/{shapes_total}/{shapes_prunable}",
                serde_json::to_string(&diagnostics).map_err(|e| e.to_string())?
            ))
        }
        Ok(other) => Err(format!("unexpected reply {other:?}")),
        Err(e) => Err(format!("undecodable reply: {e}")),
    }
}

/// First answers, against which every repeat is compared byte for byte.
#[derive(Default)]
struct Firsts {
    placed: BTreeMap<(usize, usize), String>,
    analysis: BTreeMap<usize, String>,
    /// Utilization of each working-set spec.
    util: BTreeMap<usize, f64>,
}

/// Set-up: start the stack and place the working set once.
fn setup(inputs: &Inputs, trace_path: Option<String>, out: &mut RunOut) -> Option<(Stack, Firsts)> {
    let mut stack = match start_stack(trace_path) {
        Ok(stack) => stack,
        Err(e) => {
            out.fail(e);
            return None;
        }
    };
    let mut firsts = Firsts::default();
    for (w, pair) in inputs.working.iter().enumerate() {
        let (spec, line) = &pair[0];
        let checked = stack
            .direct
            .call(line)
            .and_then(|(reply, _)| check_placed(&reply, false))
            .and_then(|(report, encoded)| verify_report(spec, &report).map(|()| (report, encoded)));
        match checked {
            Ok((report, encoded)) => {
                let util = report.metrics.as_ref().map_or(0.0, |m| m.utilization);
                firsts.util.insert(w, util);
                firsts.placed.insert((w, 0), encoded);
            }
            Err(e) => out.fail(format!("set-up place {w}: {e}")),
        }
    }
    Some((stack, firsts))
}

/// Client-side latencies by request kind, raw seconds.
#[derive(Default)]
struct KindTimes {
    hit_direct: Vec<f64>,
    hit_routed: Vec<f64>,
    fresh: Vec<f64>,
    analyze: Vec<f64>,
}

/// Position in the seeded request sequence: the request index, the
/// number of first-time specs drawn so far, and the utilization of the
/// first `exact_fresh` of them.
#[derive(Default)]
struct Cursor {
    r: u64,
    fresh: u64,
    fresh_util: Vec<f64>,
}

/// The measured closed loop, for `seconds`, continuing the sequence at
/// `cursor`; appends to `timeline` and `times`.
#[allow(clippy::too_many_arguments)]
fn measure(
    inputs: &Inputs,
    stack: &mut Stack,
    firsts: &mut Firsts,
    seconds: f64,
    exact_fresh: u64,
    cursor: &mut Cursor,
    timeline: &mut Timeline,
    times: &mut KindTimes,
    calib: &mut Calib,
    out: &mut RunOut,
) {
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let r = cursor.r;
        calib.tick();
        let kind = kind_of(inputs, r);
        let routed = r % 2 == 1;
        cursor.r += 1;
        let mut fresh_req = None;
        let line = match kind {
            Kind::Hit { w, v } => inputs.working[w][v].1.clone(),
            Kind::Analyze(a) => inputs.analyze[a].clone(),
            Kind::Fresh => {
                cursor.fresh += 1;
                let spec = screened(fresh_spec, SCREEN_FRESH, inputs.seed ^ 0xF2E5, cursor.fresh);
                let line = place_line(1_000_000 + cursor.fresh, &spec, None);
                fresh_req = Some(spec);
                line
            }
        };
        let conn = if routed {
            &mut stack.routed
        } else {
            &mut stack.direct
        };
        out.attempted += 1;
        let op_started = Instant::now();
        let (reply, raw) = match conn.call(&line) {
            Ok(x) => x,
            Err(e) => {
                out.fail(format!("request {r}: {e}"));
                continue;
            }
        };
        timeline.push(raw, calib.at(op_started) + raw / 2.0);
        let checked = match kind {
            Kind::Hit { w, v } => {
                if routed {
                    times.hit_routed.push(raw);
                } else {
                    times.hit_direct.push(raw);
                }
                check_placed(&reply, true).and_then(|(report, encoded)| {
                    match firsts.placed.get(&(w, v)) {
                        Some(first) if *first == encoded => Ok(()),
                        Some(_) => Err(format!(
                            "repeat of spec {w}/{v} differs from its first answer"
                        )),
                        None => {
                            verify_report(&inputs.working[w][v].0, &report)?;
                            firsts.placed.insert((w, v), encoded);
                            Ok(())
                        }
                    }
                })
            }
            Kind::Fresh => {
                times.fresh.push(raw);
                let spec = fresh_req.as_ref().expect("fresh requests carry their spec");
                check_placed(&reply, false).and_then(|(report, _)| {
                    verify_report(spec, &report)?;
                    if cursor.fresh <= exact_fresh {
                        let util = report.metrics.as_ref().map_or(0.0, |m| m.utilization);
                        cursor.fresh_util.push(util);
                    }
                    Ok(())
                })
            }
            Kind::Analyze(a) => {
                times.analyze.push(raw);
                check_analysis(&reply).and_then(|encoded| match firsts.analysis.get(&a) {
                    Some(first) if *first == encoded => Ok(()),
                    Some(_) => Err(format!("analysis {a} differs from its first answer")),
                    None => {
                        firsts.analysis.insert(a, encoded);
                        Ok(())
                    }
                })
            }
        };
        if let Err(e) = checked {
            out.fail(format!("request {r}: {e}"));
        }
    }
}

pub fn run(mode: Mode) -> RunOut {
    let sizes = sizes(mode.short);
    let mut out = RunOut::default();
    let mut calib = Calib::new(Duration::from_millis(10));
    let inputs = inputs(mode.seed, &sizes);
    let scratch = Scratch::new("serve");
    calib.sample();

    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..sizes.setups {
        drop(kept.take()); // shut the previous stack down first
                           // Kernel runs on both sides of every set-up calibrate it locally.
        calib.burst();
        let started = Instant::now();
        kept = setup(&inputs, None, &mut out);
        let raw = started.elapsed().as_secs_f64();
        calib.burst();
        setups.push((raw, calib.at(started) + raw / 2.0));
    }
    report_setup(&calib, &setups, &mut out);
    let Some((stack, firsts)) = kept else {
        out.fail("no stack to measure".into());
        return out;
    };
    let working_util: Vec<f64> = firsts.util.values().copied().collect();
    let digest = firsts.placed.iter().filter(|((_, v), _)| *v == 0).fold(
        0xcbf2_9ce4_8422_2325u64,
        |h, (_, enc)| {
            // Solver timings inside the report vary; hash the placements.
            let cut = enc.find("\"metrics\"").unwrap_or(enc.len());
            enc[..cut]
                .bytes()
                .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        },
    );
    out.exact
        .insert("placed_digest".into(), format!("{digest:016x}"));

    // A traced run alternates one-second blocks between this stack and
    // a traced twin, so drift hits both alike.
    let mut stacks = vec![(stack, firsts)];
    if mode.traced {
        if let Some(traced) = setup(&inputs, Some(scratch.path("serve.trace")), &mut out) {
            stacks.push(traced);
        }
    }
    let block = if stacks.len() > 1 { 1.0 } else { mode.seconds };
    let mut timelines: Vec<Timeline> = stacks.iter().map(|_| Timeline::default()).collect();
    let mut times: Vec<KindTimes> = stacks.iter().map(|_| KindTimes::default()).collect();
    let mut cursor = Cursor::default();
    let started = Instant::now();
    let mut block_no = 0;
    // At least `exact_fresh` first-time specs (`mean_util` covers them)
    // and one block on every stack.
    while started.elapsed().as_secs_f64() < mode.seconds
        || cursor.fresh < sizes.exact_fresh
        || block_no < stacks.len()
    {
        let k = block_no % stacks.len();
        let (stack, firsts) = &mut stacks[k];
        let left = mode.seconds - started.elapsed().as_secs_f64();
        measure(
            &inputs,
            stack,
            firsts,
            block.min(left.max(0.05)),
            sizes.exact_fresh,
            &mut cursor,
            &mut timelines[k],
            &mut times[k],
            &mut calib,
            &mut out,
        );
        block_no += 1;
    }
    for (kind, secs) in [
        ("hit_direct", &times[0].hit_direct),
        ("hit_routed", &times[0].hit_routed),
        ("fresh", &times[0].fresh),
        ("analyze", &times[0].analyze),
    ] {
        crate::kind_summary(kind, secs);
    }
    timelines[0].report(&calib, &mut out);
    let util: Vec<f64> = working_util
        .iter()
        .chain(&cursor.fresh_util)
        .copied()
        .collect();
    let mean_util = util.iter().sum::<f64>() / util.len().max(1) as f64;
    out.e2e.push(metric("mean_util", mean_util, "ratio"));
    out.exact.insert("mean_util".into(), format!("{mean_util}"));
    if let (Some(traced_timeline), Some((traced, _))) = (timelines.get(1), stacks.get_mut(1)) {
        out.layers
            .push(trace_overhead(&calib, &timelines[0], traced_timeline));
        layer_metrics(&inputs, traced, &times[1], &sizes, &mut out);
    }
    drop(stacks);
    calib.sample();
    out.calib = calib.summary();
    out
}

fn stats(stack: &mut Stack) -> Result<(rrf_server::ServerStats, rrf_server::DetailStats), String> {
    let (plain, _) = stack.direct.call(r#"{"type":"stats","id":1}"#)?;
    let (detail, _) = stack.direct.call(r#"{"type":"stats_detail","id":2}"#)?;
    let stats = match serde_json::from_str::<Response>(&plain) {
        Ok(Response::Stats { stats, .. }) => stats,
        other => return Err(format!("stats reply: {other:?}")),
    };
    let detail = match serde_json::from_str::<Response>(&detail) {
        Ok(Response::StatsDetail { detail, .. }) => detail,
        other => return Err(format!("stats_detail reply: {other:?}")),
    };
    Ok((stats, detail))
}

fn layer_metrics(
    inputs: &Inputs,
    stack: &mut Stack,
    times: &KindTimes,
    sizes: &Sizes,
    out: &mut RunOut,
) {
    let (plain, detail) = match stats(stack) {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            return;
        }
    };
    // `stats_detail` strips the `solve.` prefix; its values are the
    // same microseconds the trace's `solve.*` spans carry.
    let phase_us = |name: &str| {
        detail
            .phases
            .get(name)
            .map_or(0.0, |s| s.total_us as f64 / s.count.max(1) as f64)
    };
    let hit_ratio = plain.cache_hits as f64 / (plain.cache_hits + plain.cache_misses).max(1) as f64;

    // Protocol cost: serde of the same request and response values the
    // loop exchanged, timed in-process.
    let requests: Vec<&String> = inputs.working.iter().map(|p| &p[0].1).collect();
    let responses: Vec<Response> = requests
        .iter()
        .filter_map(|line| {
            let (reply, _) = stack.direct.call(line).ok()?;
            serde_json::from_str(&reply).ok()
        })
        .collect();
    let decode_started = Instant::now();
    for line in &requests {
        std::hint::black_box(serde_json::from_str::<Request>(line).ok());
    }
    let decode_us = decode_started.elapsed().as_secs_f64() * 1e6 / requests.len() as f64;
    let encode_started = Instant::now();
    let mut bytes = 0usize;
    for response in &responses {
        bytes += std::hint::black_box(serde_json::to_string(response).map_or(0, |s| s.len()));
    }
    let encode_us = encode_started.elapsed().as_secs_f64() * 1e6 / responses.len().max(1) as f64;
    let request_bytes: usize = requests.iter().map(|l| l.len()).sum();
    let bytes_per_exchange = (bytes + request_bytes) as f64 / requests.len() as f64;

    let repeat_resolves = cache_probe(inputs, stack, sizes.probe_repeats, out);
    let breaker_opens = stats(stack).map_or(0, |(_, d)| d.breaker.opens);
    out.layers.extend([
        metric(
            "server.place_hit_ms",
            calib::median_or_zero(&times.hit_direct) * 1e3,
            "ms",
        ),
        metric(
            "server.place_miss_ms",
            calib::median_or_zero(&times.fresh) * 1e3,
            "ms",
        ),
        metric(
            "server.analyze_ms",
            calib::median_or_zero(&times.analyze) * 1e3,
            "ms",
        ),
        metric("server.protocol.decode_us", decode_us, "us"),
        metric("server.protocol.encode_us", encode_us, "us"),
        metric("server.protocol.bytes", bytes_per_exchange, "B"),
        metric("server.queue_wait_us", phase_us("queue_wait"), "us"),
        metric("server.cache_probe_us", phase_us("cache_probe"), "us"),
        metric("server.preflight_us", phase_us("preflight"), "us"),
        metric("server.cp_us", phase_us("cp"), "us"),
        metric("server.verify_us", phase_us("verify"), "us"),
        metric("server.cache.hit_ratio", hit_ratio, "ratio"),
        metric(
            "server.cache.repeat_resolves",
            repeat_resolves as f64,
            "count",
        ),
        metric("server.breaker.opens", breaker_opens as f64, "count"),
        metric(
            "router.hop_ms",
            calib::median_or_zero(&times.hit_routed) * 1e3
                - calib::median_or_zero(&times.hit_direct) * 1e3,
            "ms",
        ),
    ]);
}

/// The known cache defect, kept visible: an unproven result is served
/// only to requests whose remaining budget at the probe is no larger than
/// the budget its solve started with, so a repeat with the *same*
/// deadline hits or re-solves for the full deadline depending on
/// microseconds of timing jitter. Counts the repeats that re-solved.
fn cache_probe(inputs: &Inputs, stack: &mut Stack, repeats: usize, out: &mut RunOut) -> u64 {
    let spec = paper_spec(mix(inputs.seed ^ 0xDEFEC7, 0));
    let line = place_line(7, &spec, Some(PROBE_DEADLINE_MS));
    let mut resolves = 0;
    for i in 0..=repeats {
        out.attempted += 1;
        let reply = match stack.direct.call(&line) {
            Ok((reply, _)) => reply,
            Err(e) => {
                out.fail(format!("cache probe: {e}"));
                continue;
            }
        };
        match serde_json::from_str::<Response>(&reply) {
            Ok(Response::Placed {
                cache_hit, report, ..
            }) => {
                if let Err(e) = verify_report(&spec, &report) {
                    out.fail(format!("cache probe: {e}"));
                }
                if i > 0 && !cache_hit {
                    resolves += 1;
                }
            }
            other => out.fail(format!("cache probe reply: {other:?}")),
        }
    }
    resolves
}
