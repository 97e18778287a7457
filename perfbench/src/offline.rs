//! `offline`: in-process batch floorplanning, as in the paper's Table I.
//!
//! Each operation is `cp::place` + `verify` + `metrics` — the steps
//! `rrf_flow::run` takes — on the next instance of a seeded pool, in a
//! closed loop. The pool interleaves each paper-scale instance (30
//! modules, 4 alternatives, the 240x16 column region, a fixed failure
//! budget) with `SMALL_PER_PAPER` instances of 4 modules from the same
//! distribution, solved to proof under a failure cap. Failure budgets,
//! never clocks, bound every solve, so each instance does the same work
//! on every run and its outcome repeats exactly.
//!
//! The mix puts p50 inside the small instances' latency range and p90
//! and p99 inside the paper-scale range, away from the gap between them.
//! An operation's latency is its time on a CPU (wall time minus the
//! thread's run-queue wait): the work is single-threaded, and the waits
//! the machine's other tenants impose would otherwise decide the tail.

use std::time::{Duration, Instant};

use rrf_core::{cp, metrics, verify, Module, PlacementProblem, PlacerConfig, SearchStrategy};
use rrf_modgen::{generate_workload, Workload, WorkloadSpec};
use rrf_trace::Tracer;

use crate::calib::{self, Calib};
use crate::layers::{self, AggSink, TraceAgg};
use crate::{columns, metric, mix, report_setup, trace_overhead, Mode, RunOut, Timeline};

/// Failure budget of a paper-scale solve (never proves at this scale).
const PAPER_FAILURES: u64 = 300;
/// Failure budget of set-up's warm-up solve: a few hundred ms of work,
/// since one-shot set-ups under 100 ms spread about 2x between runs.
const WARM_UP_FAILURES: u64 = 1_000;
/// Failure cap of a small solve (every 4-module instance proves well
/// within it).
const SMALL_FAILURES: u64 = 20_000;
const SMALL_MODULES: usize = 4;
const SMALL_PER_PAPER: usize = 6;

struct Sizes {
    /// Paper-scale instances in the pool (each with its small ones).
    paper: usize,
    /// Leading paper-scale groups every run solves; the exact figures
    /// cover them.
    exact_groups: usize,
    setups: usize,
}

fn sizes(short: bool) -> Sizes {
    if short {
        Sizes {
            paper: 3,
            exact_groups: 2,
            setups: 2,
        }
    } else {
        // Larger than a run gets through, so a run's latencies come from
        // ~200 distinct paper-scale instances and their spread across
        // seeds stays small.
        Sizes {
            paper: 320,
            exact_groups: 40,
            setups: 9,
        }
    }
}

struct Instance {
    workload: Workload,
    paper: bool,
}

/// The seeded input pool in loop order (input generation, untimed).
fn pool(seed: u64, paper: usize) -> Vec<Instance> {
    let mut out = Vec::new();
    for i in 0..paper as u64 {
        out.push(Instance {
            workload: generate_workload(&WorkloadSpec::paper(mix(seed, 2 * i))),
            paper: true,
        });
        for j in 0..SMALL_PER_PAPER as u64 {
            let spec = WorkloadSpec {
                modules: SMALL_MODULES,
                ..WorkloadSpec::paper(mix(seed, 2 * i + 1) ^ j)
            };
            out.push(Instance {
                workload: generate_workload(&spec),
                paper: false,
            });
        }
    }
    out
}

fn build(pool: &[Instance]) -> Vec<PlacementProblem> {
    pool.iter()
        .map(|inst| {
            let modules = inst
                .workload
                .modules
                .iter()
                .map(|m| Module::new(m.name.clone(), m.shapes.clone()))
                .collect();
            let region = columns(240, 16).build().expect("the paper region builds");
            PlacementProblem::new(region, modules)
        })
        .collect()
}

fn config(failures: u64, tracer: Tracer) -> PlacerConfig {
    PlacerConfig {
        time_limit: None,
        fail_limit: Some(failures),
        strategy: SearchStrategy::Sequential,
        tracer,
        ..PlacerConfig::default()
    }
}

/// Everything about one solve that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Solved {
    extent: i64,
    util_bits: u64,
    proven: bool,
    placements: Vec<(usize, usize, i32, i32)>,
    nodes: u64,
    failures: u64,
    propagations: u64,
    table_rows: usize,
}

/// One operation: place, verify, measure. Returns the outcome, the verify
/// time in seconds and the time to best in seconds, or a check failure.
fn operate(
    problem: &PlacementProblem,
    config: &PlacerConfig,
) -> Result<(Solved, f64, f64), String> {
    let out = cp::place(problem, config);
    let plan = out.plan.ok_or("no floorplan")?;
    let verify_started = Instant::now();
    let violations = verify::verify(&problem.region, &problem.modules, &plan);
    let verify_s = verify_started.elapsed().as_secs_f64();
    if !violations.is_empty() {
        return Err(format!("floorplan fails verify: {violations:?}"));
    }
    let m = metrics(&problem.region, &problem.modules, &plan);
    let solved = Solved {
        extent: out.extent.ok_or("plan without extent")?,
        util_bits: m.utilization.to_bits(),
        proven: out.proven,
        placements: plan
            .placements
            .iter()
            .map(|p| (p.module, p.shape, p.x, p.y))
            .collect(),
        nodes: out.stats.nodes,
        failures: out.stats.failures,
        propagations: out.stats.propagations,
        table_rows: out.stats.table_rows,
    };
    Ok((solved, verify_s, out.stats.time_to_best.as_secs_f64()))
}

/// Per-layer figures gathered from traced solves.
#[derive(Default)]
struct LayerAcc {
    agg: TraceAgg,
    solves: u64,
    nodes: u64,
    verify_s: f64,
    paper_solves: u64,
    paper_time_to_best_s: f64,
}

pub fn run(mode: Mode) -> RunOut {
    let sizes = sizes(mode.short);
    let mut out = RunOut::default();
    let mut calib = Calib::new(Duration::from_millis(10));
    let inputs = pool(mode.seed, sizes.paper);
    calib.sample();

    // Set-up: build the problems and solve one paper-scale instance,
    // untimed by the loop. The warm-up instance is the same for every
    // seed, so set-up time does not vary with the pool. Repeated; the
    // median is reported.
    let warm_up = [Instance {
        workload: generate_workload(&WorkloadSpec::paper(0)),
        paper: true,
    }];
    let mut setups = Vec::new();
    let mut problems = Vec::new();
    for _ in 0..sizes.setups {
        // Kernel runs on both sides of every set-up calibrate it locally.
        calib.burst();
        let ((built, warm), raw, started) = calib::on_cpu(|| {
            let built = build(&inputs);
            let warm = operate(
                &build(&warm_up)[0],
                &config(WARM_UP_FAILURES, Tracer::default()),
            );
            (built, warm)
        });
        problems = built;
        if let Err(e) = warm {
            out.fail(format!("warm-up solve: {e}"));
        }
        let t = calib.at(started) + raw / 2.0;
        calib.burst();
        setups.push((raw, t));
    }
    report_setup(&calib, &setups, &mut out);

    let exact_len = sizes.exact_groups * (1 + SMALL_PER_PAPER);
    let (tracer, sink) = AggSink::tracer();
    let mut first: Vec<Option<Solved>> = vec![None; problems.len()];
    let mut first_props: Vec<Option<(u64, u64)>> = vec![None; problems.len()];
    let mut timeline = Timeline::default();
    let mut traced_timeline = Timeline::default();
    let mut acc = LayerAcc::default();
    let started = Instant::now();
    let mut i = 0usize;
    loop {
        if i >= exact_len && started.elapsed().as_secs_f64() >= mode.seconds {
            break;
        }
        let k = i % problems.len();
        let paper = inputs[k].paper;
        // Traced runs solve every instance twice, traced and untraced, in
        // alternating order, so the overhead ratio compares equal work.
        let traced_first = mode.traced && i % 2 == 1;
        for pass in 0..if mode.traced { 2 } else { 1 } {
            let traced = mode.traced && ((pass == 0) == traced_first);
            calib.tick();
            let failures = if paper {
                PAPER_FAILURES
            } else {
                SMALL_FAILURES
            };
            let cfg = config(
                failures,
                if traced {
                    tracer.clone()
                } else {
                    Tracer::default()
                },
            );
            let (result, raw, op_started) = calib::on_cpu(|| operate(&problems[k], &cfg));
            let t = calib.at(op_started) + raw / 2.0;
            out.attempted += 1;
            let (solved, verify_s, ttb_s) = match result {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("instance {k}: {e}"));
                    continue;
                }
            };
            match &first[k] {
                None => first[k] = Some(solved.clone()),
                Some(prev) if *prev != solved => {
                    out.fail(format!("instance {k}: repeat differs from first solve"));
                }
                Some(_) => {}
            }
            if traced {
                let agg = sink.take();
                if first_props[k].is_none() {
                    first_props[k] = Some((agg.prop("geost_non_overlap").0, agg.prop("table").1));
                }
                acc.agg.merge(&agg);
                acc.solves += 1;
                acc.nodes += solved.nodes;
                acc.verify_s += verify_s;
                traced_timeline.push(raw, t);
                if paper {
                    acc.paper_solves += 1;
                    acc.paper_time_to_best_s += ttb_s;
                }
            } else {
                timeline.push(raw, t);
            }
        }
        i += 1;
    }
    calib.sample();
    timeline.report(&calib, &mut out);
    out.calib = calib.summary();

    // Exact figures over the leading groups every run solves.
    let solved: Vec<&Solved> = first[..exact_len].iter().flatten().collect();
    if solved.len() != exact_len {
        out.fail(format!(
            "only {} of {exact_len} instances solved",
            solved.len()
        ));
    }
    let n = solved.len().max(1) as f64;
    let mean_util = solved
        .iter()
        .map(|s| f64::from_bits(s.util_bits))
        .sum::<f64>()
        / n;
    let proven_ratio = solved.iter().filter(|s| s.proven).count() as f64 / n;
    let sum = |f: fn(&Solved) -> u64| solved.iter().map(|s| f(s)).sum::<u64>();
    let (nodes, failures, propagations) = (
        sum(|s| s.nodes),
        sum(|s| s.failures),
        sum(|s| s.propagations),
    );
    let table_rows = sum(|s| s.table_rows as u64);
    out.e2e.push(metric("mean_util", mean_util, "ratio"));
    let digest = solved.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, s| {
        let mut h = h;
        for v in [s.extent as u64, s.util_bits, u64::from(s.proven)]
            .into_iter()
            .chain(s.placements.iter().map(|p| (p.2 as u64) << 32 | p.3 as u64))
        {
            h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
        }
        h
    });
    for (k, v) in [
        ("mean_util", format!("{mean_util}")),
        ("proven_ratio", format!("{proven_ratio}")),
        ("solver.nodes", nodes.to_string()),
        ("solver.failures", failures.to_string()),
        ("solver.propagations", propagations.to_string()),
        ("geost.table_rows", table_rows.to_string()),
        ("plan_digest", format!("{digest:016x}")),
    ] {
        out.exact.insert(k.to_string(), v);
    }

    if mode.traced {
        let nonoverlap_execs: u64 = first_props[..exact_len].iter().flatten().map(|p| p.0).sum();
        let rows_scanned: u64 = first_props[..exact_len].iter().flatten().map(|p| p.1).sum();
        out.exact.insert(
            "geost.nonoverlap.execs".into(),
            nonoverlap_execs.to_string(),
        );
        out.exact
            .insert("solver.table.rows_scanned".into(), rows_scanned.to_string());
        let counts = [
            ("solver.nodes", nodes),
            ("solver.propagations", propagations),
            ("solver.failures", failures),
            ("solver.table.rows_scanned", rows_scanned),
            ("geost.table_rows", table_rows),
            ("geost.nonoverlap.execs", nonoverlap_execs),
        ];
        for (name, n) in counts {
            out.layers.push(metric(name, n as f64, "count"));
        }
        layer_metrics(&mut out, &acc, &problems);
        out.layers
            .push(metric("core.place.proven_ratio", proven_ratio, "ratio"));
        out.layers
            .push(trace_overhead(&calib, &timeline, &traced_timeline));
    }
    out
}

fn layer_metrics(out: &mut RunOut, acc: &LayerAcc, problems: &[PlacementProblem]) {
    let agg = &acc.agg;
    let per_solve_ms = |name: &str| agg.wall_us(name) as f64 / 1e3 / acc.solves.max(1) as f64;
    let phases = [
        "place.prune",
        "place.build",
        "place.warm_start",
        "place.search",
    ];
    let tiled: u64 = phases.iter().map(|p| agg.wall_us(p)).sum();
    let place_us = agg.wall_us("place").max(1);
    let search_s = agg.wall_us("place.search") as f64 / 1e6;
    let shapes: Vec<_> = problems
        .iter()
        .take(4)
        .flat_map(|p| p.modules.iter().flat_map(|m| m.shapes().to_vec()))
        .collect();
    let anchors_us = layers::allowed_anchors_us(&problems[0].region, &shapes);
    let fixpoint_us = layers::nonoverlap_fixpoint_us(201);
    out.layers.extend([
        metric("core.place.search_ms", per_solve_ms("place.search"), "ms"),
        metric(
            "core.place.time_to_best_ms",
            acc.paper_time_to_best_s * 1e3 / acc.paper_solves.max(1) as f64,
            "ms",
        ),
        metric("core.place.build_ms", per_solve_ms("place.build"), "ms"),
        metric(
            "core.place.warm_start_ms",
            per_solve_ms("place.warm_start"),
            "ms",
        ),
        metric("core.place.prune_ms", per_solve_ms("place.prune"), "ms"),
        metric(
            "core.place.untiled_ratio",
            1.0 - tiled as f64 / place_us as f64,
            "ratio",
        ),
        metric(
            "core.verify_ms",
            acc.verify_s * 1e3 / acc.solves.max(1) as f64,
            "ms",
        ),
        metric(
            "solver.nodes_per_s",
            acc.nodes as f64 / search_s.max(1e-9),
            "1/s",
        ),
        metric("geost.allowed_anchors_us", anchors_us, "us"),
        metric("geost.nonoverlap_fixpoint_us", fixpoint_us, "us"),
    ]);
}
