//! Tasks: a module with design alternatives plus its temporal contract.
//!
//! A task asks the fabric for room: *some* alternative of its module,
//! somewhere, for `duration` ticks, ideally finished by `deadline`. Time
//! is logical — `Tick` is a dimensionless u64 the caller advances
//! explicitly — so every scheduling decision is reproducible under a
//! fixed seed (and journal replay lands on bit-identical state).
//!
//! The reconfiguration time of each candidate shape is charged up front
//! via [`rrf_core::FrameCostModel`]: a task's occupation of the fabric is
//! `[start, start + config + duration)`, where `config` depends on the
//! *chosen* shape — the shorter-config alternatives are the latency arm
//! of the paper's area-vs-alternatives tradeoff.

// Determinism: schedule digests and the deterministic event ledger.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use rrf_core::{FrameCostModel, Module};
use rrf_fabric::ResourceKind;
use rrf_flow::{resolve_module, ModuleEntry};
use rrf_geost::ShapeDef;
use serde::{Deserialize, Serialize};

/// Logical time. One tick defaults to 1 µs (see
/// [`crate::SchedConfig::ns_per_tick`]), but nothing in the scheduler
/// assumes a unit.
pub type Tick = u64;

/// Scheduler-assigned task identifier (dense, starting at 1).
pub type TaskId = u64;

/// A resolved unit of work: the module (with all its design
/// alternatives), when it arrives, how long it runs, and what it owes.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    pub name: String,
    pub module: Module,
    /// Earliest tick the task may occupy the fabric. Arrivals in the
    /// scheduler's past are clamped to its current clock.
    pub arrival: Tick,
    /// Useful runtime in ticks, excluding reconfiguration.
    pub duration: Tick,
    /// Completion deadline (absolute tick); `None` = best effort.
    pub deadline: Option<Tick>,
    /// Larger = more important; ties in urgency break toward priority,
    /// and waiting tasks age upward (see the EDF key in `sched`).
    pub priority: u32,
}

/// The wire form of a task: the module by its flow entry (shapes or a
/// netlist), so a `SubmitTask` payload reuses the same module description
/// every other protocol request uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    pub module: ModuleEntry,
    #[serde(default)]
    pub arrival: Tick,
    pub duration: Tick,
    #[serde(default)]
    pub deadline: Option<Tick>,
    #[serde(default)]
    pub priority: u32,
}

impl TaskSpec {
    /// Resolve the module entry (shape validation, netlist packing) into
    /// a schedulable [`Task`].
    pub fn resolve(&self) -> Result<Task, String> {
        let module = resolve_module(&self.module).map_err(|e| e.to_string())?;
        if let Some(i) = module.shapes().iter().position(|s| !s.is_well_formed()) {
            return Err(format!("module {}: shape {i} is malformed", module.name));
        }
        Ok(Task {
            name: self.module.name.clone(),
            module,
            arrival: self.arrival,
            duration: self.duration,
            deadline: self.deadline,
            priority: self.priority,
        })
    }
}

/// Reconfiguration time of one shape, in ticks (rounded up).
///
/// Mirrors [`rrf_core::reconfig::module_cost`]'s column rule — every
/// column the shape touches is rewritten once, at the cost of the most
/// expensive resource kind it uses there — but is *shape-intrinsic*: it
/// reads the shape's own tile kinds rather than the fabric's. For any
/// anchor the placer would accept, the two agree (eq. 3 forces module
/// tiles onto fabric tiles of identical kind), which is what lets
/// admission charge a shape's load time before a position is known.
pub fn shape_config_ticks(shape: &ShapeDef, model: &FrameCostModel, ns_per_tick: u64) -> Tick {
    let words_for = |kind: ResourceKind| match kind {
        ResourceKind::Bram => model.bram_words_per_column,
        ResourceKind::Dsp => model.dsp_words_per_column,
        _ => model.clb_words_per_column,
    };
    let mut columns: std::collections::BTreeMap<i32, u64> = Default::default();
    for (tile, kind) in shape.tiles() {
        let words = words_for(kind);
        columns
            .entry(tile.x)
            .and_modify(|w| *w = (*w).max(words))
            .or_insert(words);
    }
    let words: u64 = columns.values().sum();
    let nanos = words * model.ns_per_word;
    nanos.div_ceil(ns_per_tick.max(1))
}

/// The cheapest-to-load alternative's reconfiguration time, in ticks —
/// the admission rule's lower bound on any schedule of this module.
pub fn best_config_ticks(module: &Module, model: &FrameCostModel, ns_per_tick: u64) -> Tick {
    module
        .shapes()
        .iter()
        .map(|s| shape_config_ticks(s, model, ns_per_tick))
        .min()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrf_geost::ShiftedBox;

    #[test]
    fn clb_shape_config_matches_module_cost_rule() {
        // 4 columns x 400 words x 20 ns = 32_000 ns -> 32 ticks at 1 µs.
        let shape = ShapeDef::new(vec![ShiftedBox::new(0, 0, 4, 2, ResourceKind::Clb)]);
        let model = FrameCostModel::default();
        assert_eq!(shape_config_ticks(&shape, &model, 1_000), 32);
    }

    #[test]
    fn bram_column_dominates_its_column() {
        // Column 0 carries both a CLB and a BRAM tile: one BRAM frame.
        let shape = ShapeDef::new(vec![
            ShiftedBox::new(0, 0, 1, 1, ResourceKind::Clb),
            ShiftedBox::new(0, 1, 1, 1, ResourceKind::Bram),
        ]);
        let model = FrameCostModel::default();
        // 3200 words * 20 ns = 64_000 ns -> 64 ticks.
        assert_eq!(shape_config_ticks(&shape, &model, 1_000), 64);
    }

    #[test]
    fn best_config_picks_the_cheapest_alternative() {
        let wide = ShapeDef::new(vec![ShiftedBox::new(0, 0, 4, 1, ResourceKind::Clb)]);
        let tall = ShapeDef::new(vec![ShiftedBox::new(0, 0, 1, 4, ResourceKind::Clb)]);
        let m = Module::new("m", vec![wide, tall]);
        let model = FrameCostModel::default();
        // tall touches 1 column (8 ticks), wide touches 4 (32 ticks).
        assert_eq!(best_config_ticks(&m, &model, 1_000), 8);
    }

    #[test]
    fn config_ticks_round_up() {
        let shape = ShapeDef::new(vec![ShiftedBox::new(0, 0, 1, 1, ResourceKind::Clb)]);
        let model = FrameCostModel::default(); // 400 * 20 = 8000 ns
        assert_eq!(shape_config_ticks(&shape, &model, 3_000), 3); // ceil(8/3)
    }

    #[test]
    fn task_spec_resolves_and_roundtrips() {
        let spec = TaskSpec {
            module: ModuleEntry {
                name: "t".into(),
                shapes: vec![ShapeDef::new(vec![ShiftedBox::new(
                    0,
                    0,
                    2,
                    2,
                    ResourceKind::Clb,
                )])],
                netlist: None,
            },
            arrival: 5,
            duration: 100,
            deadline: Some(500),
            priority: 2,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: TaskSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        let task = spec.resolve().unwrap();
        assert_eq!(task.name, "t");
        assert_eq!(task.deadline, Some(500));
        // Optional fields default on the wire.
        let min: TaskSpec = serde_json::from_str(
            r#"{"module":{"name":"m","shapes":[{"boxes":[
                {"dx":0,"dy":0,"w":1,"h":1,"resource":"Clb"}]}]},"duration":10}"#,
        )
        .unwrap();
        assert_eq!(min.arrival, 0);
        assert_eq!(min.deadline, None);
        assert_eq!(min.priority, 0);
    }
}
