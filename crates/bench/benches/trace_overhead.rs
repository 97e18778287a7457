//! Tracing overhead gate (a plain binary, not a test harness): the seeded paper
//! workload is solved with a disabled tracer and with a
//! [`CountingSink`]-backed tracer, interleaved, and the **median of the
//! per-round traced/untraced ratios** is compared against the budget.
//! Pairing adjacent runs cancels machine drift (CPU frequency, cache
//! state) that would make a min-of-K comparison flaky; the median
//! shrugs off one-off outliers. The counting sink is the always-on
//! production configuration (counters + wall histograms, no encoding,
//! no I/O), so this is the budget that justifies leaving
//! instrumentation compiled into the solver's hot paths.
//!
//! Exits nonzero when the ratio exceeds the 5% budget; CI runs it via
//! `cargo bench -p rrf-bench --bench trace_overhead`.

use std::sync::Arc;
use std::time::Instant;

use rrf_bench::{run_traced, trace_problem};
use rrf_modgen::WorkloadSpec;
use rrf_trace::{CountingSink, Tracer};

/// Allowed slowdown: traced must stay under untraced × this factor.
const BUDGET: f64 = 1.05;
/// Interleaved measurement rounds; the median ratio is compared.
const ROUNDS: usize = 9;
/// Failure budget per solve — sized so one paper-scale solve takes a few
/// hundred milliseconds: long enough that timer noise does not dominate,
/// short enough that 2×ROUNDS solves fit a CI step.
const FAIL_LIMIT: u64 = 1_000;

fn main() {
    let spec = WorkloadSpec::paper(1);
    let problem = trace_problem(&spec, 240);

    // Warm up caches and the allocator before timing anything.
    run_traced(&problem, FAIL_LIMIT, Tracer::default());

    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Alternate which arm goes first so residual drift within a
        // round biases neither arm.
        let (untraced, traced) = if round % 2 == 0 {
            let u = time_untraced(&problem);
            let t = time_traced(&problem);
            (u, t)
        } else {
            let t = time_traced(&problem);
            let u = time_untraced(&problem);
            (u, t)
        };
        ratios.push(traced / untraced);
    }

    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = ratios[ROUNDS / 2];
    println!(
        "trace_overhead: per-round ratios {:?}, median {median:.4} (budget {BUDGET})",
        ratios
            .iter()
            .map(|r| (r * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    );
    if median >= BUDGET {
        eprintln!("trace_overhead: counting-sink tracing exceeds the {BUDGET}x budget");
        std::process::exit(1);
    }
}

fn time_untraced(problem: &rrf_core::PlacementProblem) -> f64 {
    let start = Instant::now();
    run_traced(problem, FAIL_LIMIT, Tracer::default());
    start.elapsed().as_secs_f64()
}

fn time_traced(problem: &rrf_core::PlacementProblem) -> f64 {
    let sink = Arc::new(CountingSink::new());
    let tracer = Tracer::new(sink.clone());
    let start = Instant::now();
    run_traced(problem, FAIL_LIMIT, tracer);
    let elapsed = start.elapsed().as_secs_f64();

    // The tracer must actually have observed the solve, or the
    // comparison is vacuous.
    let snap = sink.snapshot();
    assert!(snap.opens > 0, "traced run emitted no spans");
    assert!(
        snap.counts.contains_key("search.nodes"),
        "traced run emitted no search counters"
    );
    elapsed
}
