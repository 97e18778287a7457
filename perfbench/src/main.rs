//! perfbench — end-to-end and per-layer benchmark of the placement stack.
//!
//! ```text
//! perfbench --workload offline|serve|session --seed N --seconds S --trace 0|1 [--short]
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end metrics (calibrated
//! against drift, see `calib`); with `--trace 1` they are the per-layer
//! metrics of a traced run. `--short` shrinks every workload for the
//! benchmark's own tests. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod calib;
mod layers;
mod offline;
mod serve;
mod session;
mod wire;

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use calib::{percentile, Calib};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// How a workload is run.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    pub seed: u64,
    pub seconds: f64,
    /// Shrink inputs and set-ups (the benchmark's own tests).
    pub short: bool,
    /// Also measure the traced program beside the untraced one.
    pub traced: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunOut {
    pub attempted: u64,
    /// Errors, `overloaded` replies, transport errors and outputs that
    /// failed a check.
    pub failed: u64,
    /// Calibrated end-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Uncalibrated twins of the calibrated end-to-end metrics.
    pub raw: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Values that must repeat exactly across runs of one seed.
    pub exact: BTreeMap<String, String>,
    /// Median and spread of the calibration kernel.
    pub calib: (f64, f64),
    /// Check failures, for the report.
    pub problems: Vec<String>,
}

impl RunOut {
    /// Record a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// Stretches of time a run's metrics are medians over.
const BLOCKS: usize = 6;

/// Timed operations of one measured loop.
#[derive(Default)]
pub struct Timeline {
    /// (raw seconds, run time at the operation's middle) per operation.
    ops: Vec<(f64, f64)>,
}

impl Timeline {
    /// Record an operation that took `raw` seconds around run time `t`.
    pub fn push(&mut self, raw: f64, t: f64) {
        self.ops.push((raw, t));
    }

    /// Throughput and latency percentiles; calibrated into `e2e`, raw
    /// into `raw`. Calibrates after the loop, so every operation sees
    /// kernel runs on both sides of it. The run is cut into `BLOCKS`
    /// equal stretches of time and each metric is the median of its
    /// per-stretch values, so a noisy spell of a few seconds moves none;
    /// a percentile whose stretches are too small to hold ten samples
    /// beyond it is taken over the whole run instead.
    pub fn report(&self, calib: &Calib, out: &mut RunOut) {
        assert!(!self.ops.is_empty(), "no operation was measured");
        let first = self.ops.iter().map(|o| o.1).fold(f64::INFINITY, f64::min);
        let last = self
            .ops
            .iter()
            .map(|o| o.1)
            .fold(f64::NEG_INFINITY, f64::max);
        let span = (last - first).max(f64::MIN_POSITIVE);
        let block_of = |t: f64| (((t - first) / span * BLOCKS as f64) as usize).min(BLOCKS - 1);
        for (calibrated, sink) in [(true, &mut out.e2e), (false, &mut out.raw)] {
            let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); BLOCKS];
            for &(raw, t) in &self.ops {
                let secs = if calibrated {
                    calib.calibrate(raw, t)
                } else {
                    raw
                };
                blocks[block_of(t)].push(secs * 1e3);
            }
            let mut whole: Vec<f64> = blocks.concat();
            whole.sort_by(f64::total_cmp);
            for b in &mut blocks {
                b.sort_by(f64::total_cmp);
            }
            let blocks: Vec<Vec<f64>> = blocks.into_iter().filter(|b| !b.is_empty()).collect();
            let throughput = |ms: &[f64]| ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
            let mut per_block: Vec<f64> = blocks.iter().map(|b| throughput(b)).collect();
            let prefix = if calibrated { "" } else { "raw." };
            sink.push(metric(
                format!("{prefix}throughput_ops"),
                calib::median(&mut per_block),
                "1/s",
            ));
            for p in [50u32, 90, 99] {
                // Ten samples beyond the percentile in every stretch.
                let need = (10.0 / (1.0 - f64::from(p) / 100.0)).ceil() as usize;
                let value = if blocks.iter().all(|b| b.len() >= need) {
                    let mut v: Vec<f64> =
                        blocks.iter().map(|b| percentile(b, f64::from(p))).collect();
                    calib::median(&mut v)
                } else {
                    percentile(&whole, f64::from(p))
                };
                sink.push(metric(format!("{prefix}latency_p{p}_ms"), value, "ms"));
            }
        }
    }
}

/// Print one request kind's latency distribution (raw ms) to stderr, so
/// a report shows where the percentiles fall among the kinds.
pub fn kind_summary(kind: &str, secs: &[f64]) {
    if secs.is_empty() {
        return;
    }
    let mut ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    eprintln!(
        "  kind {kind:<12} n {:>6}  p10 {:>9.3}  p50 {:>9.3}  p90 {:>9.3}  max {:>9.3} ms",
        ms.len(),
        percentile(&ms, 10.0),
        percentile(&ms, 50.0),
        percentile(&ms, 90.0),
        ms[ms.len() - 1]
    );
}

/// Report the median of several set-ups, calibrated and raw.
/// `setups` holds (raw seconds, run time at its middle) per set-up.
pub fn report_setup(calib: &Calib, setups: &[(f64, f64)], out: &mut RunOut) {
    let mut raw: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let mut cal: Vec<f64> = setups.iter().map(|&(r, t)| calib.calibrate(r, t)).collect();
    out.e2e
        .push(metric("setup_s", calib::median(&mut cal), "s"));
    out.raw
        .push(metric("raw.setup_s", calib::median(&mut raw), "s"));
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The column-structured device every workload places on: a BRAM column
/// every 10 columns, starting at column 4 (the paper-scale region is
/// 240x16).
pub fn columns(width: i32, height: i32) -> rrf_flow::RegionSpec {
    rrf_flow::RegionSpec {
        device: rrf_flow::DeviceSpec::Columns {
            width,
            height,
            bram_period: 10,
            bram_offset: 4,
            dsp_period: 0,
            dsp_offset: 0,
            io_ring: 0,
            center_clock: false,
        },
        bounds: None,
        static_masks: vec![],
    }
}

/// `trace.overhead_ratio`: how much slower the traced twin ran, from
/// calibrated throughput (the inverse mean latency) over interleaved
/// stretches of equal work.
pub fn trace_overhead(calib: &Calib, untraced: &Timeline, traced: &Timeline) -> Metric {
    let throughput = |timeline: &Timeline| {
        let mut out = RunOut::default();
        timeline.report(calib, &mut out);
        out.e2e
            .iter()
            .find(|m| m.name == "throughput_ops")
            .map_or(f64::NAN, |m| m.value)
    };
    metric(
        "trace.overhead_ratio",
        throughput(untraced) / throughput(traced) - 1.0,
        "ratio",
    )
}

/// Seed of the `i`-th input drawn from workload seed `seed` (SplitMix64).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The end-to-end metrics every workload reports (`BENCHMARK.json`).
const E2E: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "throughput_ops",
    "latency_p50_ms",
    "latency_p90_ms",
    "latency_p99_ms",
    "mean_util",
];

/// The per-layer metrics every traced run reports (`BENCHMARK.json`).
pub const LAYERS: &[&str] = &[
    "core.place.search_ms",
    "core.place.time_to_best_ms",
    "core.place.build_ms",
    "core.place.warm_start_ms",
    "core.place.prune_ms",
    "core.place.untiled_ratio",
    "core.place.proven_ratio",
    "core.verify_ms",
    "solver.nodes_per_s",
    "solver.nodes",
    "solver.propagations",
    "solver.failures",
    "solver.table.rows_scanned",
    "geost.table_rows",
    "geost.allowed_anchors_us",
    "geost.nonoverlap_fixpoint_us",
    "geost.nonoverlap.execs",
    "server.place_hit_ms",
    "server.place_miss_ms",
    "server.analyze_ms",
    "server.protocol.decode_us",
    "server.protocol.encode_us",
    "server.protocol.bytes",
    "server.queue_wait_us",
    "server.cache_probe_us",
    "server.preflight_us",
    "server.cp_us",
    "server.verify_us",
    "server.cache.hit_ratio",
    "server.cache.repeat_resolves",
    "server.breaker.opens",
    "router.hop_ms",
    "server.insert_ms",
    "server.remove_ms",
    "server.defrag_ms",
    "server.repair_ms",
    "server.submit_task_ms",
    "server.schedule_status_ms",
    "server.session_overhead_us",
    "server.journal.bytes_per_op",
    "core.online.insert_us",
    "core.online.defrag_ms",
    "core.online.repair_ms",
    "core.online.repair_escalations",
    "core.online.reject_ratio",
    "core.online.evictions",
    "sched.submit_us",
    "sched.advance_us",
    "sched.deadline_misses",
    "sched.deadline_miss_ratio",
    "calib.kernel_us",
    "calib.kernel_spread",
    "trace.overhead_ratio",
    "raw.setup_s",
    "raw.throughput_ops",
    "raw.latency_p50_ms",
    "raw.latency_p90_ms",
    "raw.latency_p99_ms",
];

struct Args {
    workload: String,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut short = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value()? == "1"),
            "--short" => short = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["offline", "serve", "session"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        workload,
        mode: Mode {
            seed: seed.unwrap_or(1),
            seconds,
            short,
            traced: trace.unwrap_or(false),
        },
    })
}

fn run_workload(name: &str, mode: Mode) -> RunOut {
    match name {
        "offline" => offline::run(mode),
        "serve" => serve::run(mode),
        _ => session::run(mode),
    }
}

/// A traced run measures every layer: the named workload's own layers
/// over the full run, the other workloads' layers in short companion runs.
fn traced_run(name: &str, mode: Mode) -> RunOut {
    let mut out = run_workload(name, mode);
    let mut have: BTreeSet<String> = out.layers.iter().map(|m| m.name.clone()).collect();
    for other in ["offline", "serve", "session"] {
        if other == name {
            continue;
        }
        let companion = run_workload(
            other,
            Mode {
                seconds: 2.0,
                short: true,
                ..mode
            },
        );
        out.attempted += companion.attempted;
        out.failed += companion.failed;
        out.problems.extend(companion.problems);
        for m in companion.layers {
            if have.insert(m.name.clone()) {
                out.layers.push(m);
            }
        }
        for (k, v) in companion.exact {
            out.exact.insert(format!("{other}.{k}"), v);
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload offline|serve|session --seed N --seconds S --trace 0|1 [--short]"
            );
            return ExitCode::from(2);
        }
    };
    let mode = args.mode;
    let mut out = if mode.traced {
        traced_run(&args.workload, mode)
    } else {
        run_workload(&args.workload, mode)
    };
    out.e2e.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    let (kernel, spread) = out.calib;
    if mode.traced {
        out.layers.push(metric("calib.kernel_us", kernel, "us"));
        out.layers
            .push(metric("calib.kernel_spread", spread, "ratio"));
    }

    eprintln!(
        "perfbench {} seed {} ({} s{}{}): attempted {} failed {}",
        args.workload,
        mode.seed,
        mode.seconds,
        if mode.traced { ", traced" } else { "" },
        if mode.short { ", short" } else { "" },
        out.attempted,
        out.failed
    );
    eprintln!(
        "  calib.kernel_us {kernel:.3} us (spread {spread:.4}, reference {} us)",
        calib::REF_KERNEL_US
    );
    for m in out.e2e.iter().chain(&out.raw).chain(&out.layers) {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &out.exact {
        eprintln!("  exact {k} = {v}");
    }
    for p in &out.problems {
        eprintln!("  CHECK FAILED: {p}");
    }

    let mut chosen: Vec<&Metric> = Vec::new();
    let mut missing = Vec::new();
    let all: Vec<&Metric> = out.e2e.iter().chain(&out.raw).chain(&out.layers).collect();
    let wanted: Vec<String> = if mode.traced {
        LAYERS.iter().map(|s| s.to_string()).collect()
    } else {
        E2E.iter().map(|s| s.to_string()).collect()
    };
    for name in &wanted {
        match all.iter().find(|m| &m.name == name) {
            Some(m) => chosen.push(m),
            None => missing.push(name.clone()),
        }
    }
    let broken: Vec<&str> = chosen
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !missing.is_empty() || !broken.is_empty() {
        eprintln!("perfbench: internal error, metrics not measured: {missing:?} {broken:?}");
        return ExitCode::from(1);
    }
    // Machine-readable exact values for the benchmark's own tests.
    let exact: Vec<String> = out
        .exact
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect();
    eprintln!("perfbench-exact {{{}}}", exact.join(","));

    let metrics: Vec<String> = chosen
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
