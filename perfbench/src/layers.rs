//! Per-layer instruments: an in-memory trace sink for the placer's own
//! spans and propagator counts, and micro-probes that time single public
//! kernel calls.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rrf_fabric::{Rect, Region, ResourceKind};
use rrf_geost::{allowed_anchors, GeostObject, NonOverlap, ShapeDef, ShiftedBox};
use rrf_solver::{Domain, Engine, Space};
use rrf_trace::{Record, TraceSink, Tracer, Value};

/// What one traced stretch of work recorded.
#[derive(Debug, Clone, Default)]
pub struct TraceAgg {
    /// Span name -> (closed spans, total wall microseconds).
    pub wall: BTreeMap<String, (u64, u64)>,
    /// Propagator kind -> (executions, scanned work units).
    pub props: BTreeMap<String, (u64, u64)>,
}

impl TraceAgg {
    /// Total wall microseconds of spans named `name`.
    pub fn wall_us(&self, name: &str) -> u64 {
        self.wall.get(name).map_or(0, |&(_, us)| us)
    }

    pub fn prop(&self, kind: &str) -> (u64, u64) {
        self.props.get(kind).copied().unwrap_or((0, 0))
    }

    pub fn merge(&mut self, other: &TraceAgg) {
        for (k, &(n, us)) in &other.wall {
            let e = self.wall.entry(k.clone()).or_default();
            e.0 += n;
            e.1 += us;
        }
        for (k, &(execs, scanned)) in &other.props {
            let e = self.props.entry(k.clone()).or_default();
            e.0 += execs;
            e.1 += scanned;
        }
    }
}

/// Aggregating sink: keeps spans in memory, encodes nothing.
#[derive(Default)]
pub struct AggSink {
    state: Mutex<TraceAgg>,
}

impl AggSink {
    /// A tracer feeding a fresh sink.
    pub fn tracer() -> (Tracer, Arc<AggSink>) {
        let sink = Arc::new(AggSink::default());
        (Tracer::new(sink.clone()), sink)
    }

    /// Everything recorded since the last `take`.
    pub fn take(&self) -> TraceAgg {
        std::mem::take(&mut *self.state.lock().expect("trace sink lock"))
    }
}

fn field_u64(fields: &[(&'static str, Value)], key: &str) -> u64 {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |(_, v)| match v {
            Value::U(n) => *n,
            _ => 0,
        })
}

fn field_str(fields: &[(&'static str, Value)], key: &str) -> Option<String> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::S(s) => Some((*s).to_string()),
            Value::Owned(s) => Some(s.clone()),
            _ => None,
        })
}

impl TraceSink for AggSink {
    fn emit(&self, record: &Record<'_>) {
        let mut s = self.state.lock().expect("trace sink lock");
        match record {
            Record::Wall { name, us, .. } => {
                let e = s.wall.entry((*name).to_string()).or_default();
                e.0 += 1;
                e.1 += us;
            }
            Record::Point { name, fields } if *name == "prop" => {
                if let Some(kind) = field_str(fields, "kind") {
                    let e = s.props.entry(kind).or_default();
                    e.0 += field_u64(fields, "execs");
                    e.1 += field_u64(fields, "scanned");
                }
            }
            _ => {}
        }
    }
}

/// Mean microseconds per `allowed_anchors` call over every shape given.
pub fn allowed_anchors_us(region: &Region, shapes: &[ShapeDef]) -> f64 {
    let started = Instant::now();
    let mut anchors = 0usize;
    for shape in shapes {
        anchors += std::hint::black_box(allowed_anchors(region, shape)).len();
    }
    std::hint::black_box(anchors);
    started.elapsed().as_secs_f64() * 1e6 / shapes.len().max(1) as f64
}

/// Median microseconds of one root fixpoint of the geost non-overlap
/// propagator over 12 partially constrained two-shape objects in a strip,
/// over `reps` fixpoints.
pub fn nonoverlap_fixpoint_us(reps: usize) -> f64 {
    let shapes = Arc::new(vec![
        ShapeDef::new(vec![ShiftedBox::new(0, 0, 4, 2, ResourceKind::Clb)]),
        ShapeDef::new(vec![ShiftedBox::new(0, 0, 2, 4, ResourceKind::Clb)]),
    ]);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut space = Space::new();
        let objects: Vec<GeostObject> = (0..12)
            .map(|i| {
                let x = space.new_var(Domain::interval(i * 3, i * 3 + 6));
                let y = space.new_var(Domain::interval(0, 4));
                let s = space.new_var(Domain::interval(0, 1));
                GeostObject::new(x, y, s, Arc::clone(&shapes))
            })
            .collect();
        let started = Instant::now();
        let mut engine = Engine::new(space.num_vars());
        engine.post(NonOverlap::new(objects, Rect::new(0, 0, 48, 8)));
        engine.schedule_all();
        let result = engine.propagate(&mut space);
        times.push(started.elapsed().as_secs_f64() * 1e6);
        assert!(result.is_ok(), "the 12-object strip is satisfiable");
    }
    crate::calib::median(&mut times)
}
