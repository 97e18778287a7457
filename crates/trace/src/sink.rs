//! Trace sinks: where records go.
//!
//! Sinks receive structured [`Record`]s, not bytes, so aggregating sinks
//! (counting, histograms) never pay for encoding. Sinks must be
//! `Send + Sync`; the `Tracer` handle serializes concurrent emitters
//! through the sink's own interior locking.

// Determinism: golden-trace tests diff the logical trace stream byte for
// byte. (`tracer.rs` is not covered: its wall stream is timing-bearing by
// design.)
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

use crate::event::Record;
use crate::hist::Histogram;

/// A destination for trace records.
pub trait TraceSink: Send + Sync {
    /// Consume one record.
    fn emit(&self, record: &Record<'_>);

    /// Flush buffered output, if any.
    fn flush(&self) {}
}

/// Buffered NDJSON writer. With `logical_only` set, wall records are
/// dropped, making the output suitable for byte-exact golden comparison.
pub struct NdjsonSink {
    writer: Mutex<Box<dyn Write + Send>>,
    logical_only: bool,
}

impl NdjsonSink {
    /// Wrap `writer` (buffer it first if it is an unbuffered file).
    pub fn new(writer: Box<dyn Write + Send>) -> NdjsonSink {
        NdjsonSink {
            writer: Mutex::new(writer),
            logical_only: false,
        }
    }

    /// Drop wall records; emit only the deterministic logical stream.
    pub fn logical_only(mut self) -> NdjsonSink {
        self.logical_only = true;
        self
    }

    /// Buffered NDJSON sink writing to the file at `path` (truncates).
    pub fn create(path: &str) -> std::io::Result<NdjsonSink> {
        let file = std::fs::File::create(path)?;
        Ok(NdjsonSink::new(Box::new(std::io::BufWriter::new(file))))
    }
}

impl TraceSink for NdjsonSink {
    fn emit(&self, record: &Record<'_>) {
        if self.logical_only && !record.is_logical() {
            return;
        }
        let mut line = record.encode();
        line.push('\n');
        let mut w = self.writer.lock().unwrap();
        let _ = w.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.writer.lock().unwrap().flush();
    }
}

/// Aggregate view kept by [`CountingSink`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingSnapshot {
    /// Total records seen, by kind: (open, point, count-sum, wall).
    pub opens: u64,
    pub points: u64,
    pub counts: BTreeMap<String, u64>,
    pub walls: u64,
    /// Wall-clock histograms per span name (microseconds).
    pub wall_us: BTreeMap<String, Histogram>,
}

/// Bounds for wall-clock span histograms, in microseconds.
pub const WALL_US_BOUNDS: &[u64] = &[
    100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000,
];

/// Cheap aggregating sink: counters and per-span wall histograms, no
/// encoding, no I/O. This is the sink the `<5%` overhead budget is
/// measured against.
#[derive(Default)]
pub struct CountingSink {
    state: Mutex<CountingSnapshot>,
}

impl CountingSink {
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Copy of the aggregate state.
    pub fn snapshot(&self) -> CountingSnapshot {
        self.state.lock().unwrap().clone()
    }
}

impl TraceSink for CountingSink {
    fn emit(&self, record: &Record<'_>) {
        let mut s = self.state.lock().unwrap();
        match record {
            Record::Open { .. } => s.opens += 1,
            Record::Close { .. } => {}
            Record::Point { .. } => s.points += 1,
            Record::Count { name, n } => {
                *s.counts.entry((*name).to_string()).or_insert(0) += n;
            }
            Record::Wall { name, us, .. } => {
                s.walls += 1;
                s.wall_us
                    .entry((*name).to_string())
                    .or_insert_with(|| Histogram::new(WALL_US_BOUNDS))
                    .record(*us);
            }
        }
    }
}

/// Test sink capturing encoded lines in memory.
#[derive(Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
    logical_only: bool,
}

impl MemorySink {
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Drop wall records (see [`NdjsonSink::logical_only`]).
    pub fn logical_only() -> MemorySink {
        MemorySink {
            lines: Mutex::new(Vec::new()),
            logical_only: true,
        }
    }

    /// Captured lines, in emission order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }

    /// Captured lines joined with `\n` (trailing newline included).
    pub fn text(&self) -> String {
        let lines = self.lines.lock().unwrap();
        let mut out = String::new();
        for l in lines.iter() {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, record: &Record<'_>) {
        if self.logical_only && !record.is_logical() {
            return;
        }
        self.lines.lock().unwrap().push(record.encode());
    }
}
