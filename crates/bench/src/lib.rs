//! # rrf-bench — experiment harness
//!
//! Shared setup for every table and figure reproduction (see the
//! per-experiment index in `DESIGN.md`). The binaries in `src/bin/`
//! regenerate the paper's Table I and Figures 1–5 plus the ablations;
//! `benches/trace_overhead.rs` is the tracing-overhead CI gate. Speed is
//! measured by `perfbench/`.

#![forbid(unsafe_code)]

pub mod experiment;
pub mod record;
pub mod traceload;
pub mod workload;

pub use experiment::{
    paper_problem, paper_region, workload_modules, ArmResult, ExperimentSetup, TableOneRow,
};
pub use record::{render, write_records, BenchRecord};
pub use traceload::{deterministic_config, parse_workload, run_traced, trace_problem};
pub use workload::{
    arrive_next, percentile_ms, percentile_us, small_online_module, small_region_spec, stream_rng,
    workload_arms, PoissonArrivals, SEED_MIX,
};
