//! Online placement simulation — an extension beyond the paper.
//!
//! The paper targets *offline, in-advance* placement for deterministic
//! systems, and contrasts it with the online setting of much related work
//! (Bazargan & Sarrafzadeh; Ahmadinia et al.), where modules arrive and
//! depart at runtime and fragmentation accumulates. This module provides
//! that substrate: an incremental first-fit placer over a live occupancy
//! grid with insertion and removal, so the effect of design alternatives
//! on *online* acceptance rates can be measured (see the
//! `ablation_online` harness binary).

// Determinism: online session state is journaled and replayed.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use crate::model::Module;
use crate::placement::PlacedModule;
use crate::reconfig::{module_cost, FrameCostModel, ReconfigCost};
use rrf_fabric::{Fault, Point, Region};
use rrf_geost::{allowed_anchors, OccupancyGrid};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Handle to a live module instance inside an [`OnlinePlacer`].
pub type SlotId = u64;

/// Counters over the lifetime of an online placer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnlineStats {
    pub requests: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub removals: u64,
    /// Committed defragmentation passes (see [`OnlinePlacer::defrag`]).
    pub defrags: u64,
    /// Fault injections applied to the region (see
    /// [`OnlinePlacer::inject_fault`]).
    #[serde(default)]
    pub faults_injected: u64,
    /// Fault clears applied to the region.
    #[serde(default)]
    pub faults_cleared: u64,
    /// Repair passes run (see [`OnlinePlacer::repair`]).
    #[serde(default)]
    pub repairs: u64,
    /// Displaced modules repair relocated to a healthy placement.
    #[serde(default)]
    pub repaired_relocated: u64,
    /// Displaced modules repair had to evict.
    #[serde(default)]
    pub repaired_evicted: u64,
}

impl OnlineStats {
    /// Fraction of requests fulfilled (1.0 when no requests yet).
    pub fn acceptance_rate(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.accepted as f64 / self.requests as f64
        }
    }
}

/// Immediate effect of a fault injection on a live placer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultImpact {
    /// Tiles that newly lost a placeable resource.
    pub tiles: Vec<Point>,
    /// Live slots whose current placement overlaps a faulted tile. They
    /// stay resident (and keep their tiles occupied) until
    /// [`OnlinePlacer::repair`] relocates or evicts them.
    pub displaced: Vec<SlotId>,
}

/// What happened to one displaced module during a repair pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "outcome", rename_all = "snake_case")]
pub enum RepairOutcome {
    /// The module did not overlap any faulted tile.
    Unaffected,
    /// Moved to a healthy placement; `cost` is the reconfiguration cost of
    /// loading the module at its new position (the price of the repair).
    Relocated {
        shape: usize,
        x: i32,
        y: i32,
        cost: ReconfigCost,
    },
    /// No healthy placement was found before the deadline; the module was
    /// removed and its caller must re-submit it.
    Evicted,
}

/// One displaced slot together with its repair outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotRepair {
    pub slot: SlotId,
    pub outcome: RepairOutcome,
}

/// One slot whose placement changed — the replayable unit of a repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotMove {
    pub slot: SlotId,
    pub placed: PlacedModule,
}

/// Result of a [`OnlinePlacer::repair`] pass.
///
/// `moved` and `evicted` record the *complete* state delta (including
/// healthy modules shuffled by the escalation repack), so a journal can
/// replay the repair deterministically with
/// [`OnlinePlacer::apply_repair`] even though the pass itself is
/// deadline-dependent.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairReport {
    /// Per-displaced-module outcomes.
    pub outcomes: Vec<SlotRepair>,
    /// Every slot whose placement changed, displaced or not, with its
    /// final placement.
    pub moved: Vec<SlotMove>,
    /// Slots evicted by this pass.
    pub evicted: Vec<SlotId>,
    /// Live modules that never overlapped a fault.
    pub unaffected: u64,
    /// Whether the pass escalated from greedy relocation to a full
    /// ruin-and-recreate repack.
    pub escalated: bool,
}

impl RepairReport {
    /// Displaced modules that found a new home.
    pub fn relocated_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.outcome, RepairOutcome::Relocated { .. }))
            .count()
    }

    /// Displaced modules that were dropped.
    pub fn evicted_count(&self) -> usize {
        self.evicted.len()
    }
}

/// An online first-fit placer: modules arrive one by one, are placed
/// bottom-left-first across all their design alternatives, and may depart
/// at any time. State is a counting occupancy grid; no repacking happens
/// (modules cannot be migrated at runtime without state loss — the same
/// argument the paper uses against switching alternatives at runtime).
pub struct OnlinePlacer {
    region: Region,
    grid: OccupancyGrid,
    // BTreeMap, not HashMap: slot iteration order feeds journaled
    // placements and grid digests, so it must be process-independent.
    active: BTreeMap<SlotId, (Module, PlacedModule)>,
    next_slot: SlotId,
    stats: OnlineStats,
}

impl OnlinePlacer {
    pub fn new(region: Region) -> OnlinePlacer {
        let grid = OccupancyGrid::new(region.bounds());
        OnlinePlacer {
            region,
            grid,
            active: BTreeMap::new(),
            next_slot: 0,
            stats: OnlineStats::default(),
        }
    }

    /// Number of live modules.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Tiles currently occupied.
    pub fn occupied_tiles(&self) -> i64 {
        self.active.values().map(|(m, p)| m.area_of(p.shape)).sum()
    }

    /// Occupied tiles over the region's placeable tiles — the *live
    /// utilization* of the whole region.
    pub fn utilization(&self) -> f64 {
        let cap = self.region.placeable_count() as i64;
        if cap == 0 {
            0.0
        } else {
            self.occupied_tiles() as f64 / cap as f64
        }
    }

    pub fn stats(&self) -> OnlineStats {
        self.stats
    }

    /// Try to place `module` now. First fit in (x, y, shape) order over
    /// compatible anchors — leftmost column first, matching the offline
    /// objective's leftward bias so departures open contiguous space on
    /// the right. Returns the slot on success.
    pub fn try_insert(&mut self, module: &Module) -> Option<SlotId> {
        self.stats.requests += 1;
        let best = first_fit(&self.region, &self.grid, module);
        let Some((shape, anchor)) = best else {
            self.stats.rejected += 1;
            return None;
        };
        for b in module.shapes()[shape].boxes() {
            self.grid.add_rect(b.placed(anchor.x, anchor.y), 1);
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.active.insert(
            slot,
            (
                module.clone(),
                PlacedModule {
                    module: 0, // slot-local; the module itself is stored
                    shape,
                    x: anchor.x,
                    y: anchor.y,
                },
            ),
        );
        self.stats.accepted += 1;
        Some(slot)
    }

    /// Remove a live module; its tiles become free. Returns `false` for an
    /// unknown slot.
    pub fn remove(&mut self, slot: SlotId) -> bool {
        match self.active.remove(&slot) {
            Some((module, placed)) => {
                for b in module.shapes()[placed.shape].boxes() {
                    self.grid.add_rect(b.placed(placed.x, placed.y), -1);
                }
                self.stats.removals += 1;
                true
            }
            None => false,
        }
    }

    /// The placement of a live module.
    pub fn placement_of(&self, slot: SlotId) -> Option<&PlacedModule> {
        self.active.get(&slot).map(|(_, p)| p)
    }

    /// Repack every live module onto an empty grid, biggest first, with
    /// the same first-fit rule as [`OnlinePlacer::try_insert`] — the
    /// *no-break* defragmentation move of Fekete et al.: the new layout is
    /// computed on the side and committed only if every module still fits,
    /// so a failed repack leaves the current layout untouched. Slot ids
    /// are stable across the move. Returns the number of modules whose
    /// placement changed (0 on a failed or no-op repack).
    pub fn defrag(&mut self) -> usize {
        let mut order: Vec<SlotId> = self.active.keys().copied().collect();
        // Deterministic: biggest current footprint first, slot as the tie
        // break.
        order.sort_by_key(|slot| {
            let (module, placed) = &self.active[slot];
            (std::cmp::Reverse(module.area_of(placed.shape)), *slot)
        });
        let mut scratch = OccupancyGrid::new(self.region.bounds());
        let mut repacked: Vec<(SlotId, usize, Point)> = Vec::with_capacity(order.len());
        for slot in order {
            let (module, _) = &self.active[&slot];
            let Some((shape, anchor)) = first_fit(&self.region, &scratch, module) else {
                return 0; // keep the current layout intact
            };
            for b in module.shapes()[shape].boxes() {
                scratch.add_rect(b.placed(anchor.x, anchor.y), 1);
            }
            repacked.push((slot, shape, anchor));
        }
        let mut moved = 0;
        for (slot, shape, anchor) in repacked {
            let (_, placed) = self.active.get_mut(&slot).expect("live slot");
            if placed.shape != shape || placed.x != anchor.x || placed.y != anchor.y {
                moved += 1;
            }
            placed.shape = shape;
            placed.x = anchor.x;
            placed.y = anchor.y;
        }
        self.grid = scratch;
        self.stats.defrags += 1;
        moved
    }

    /// The region (including its live fault set).
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// A cheap fingerprint of the occupancy grid — equal digests mean
    /// bit-identical per-tile occupation (used by crash-recovery tests).
    pub fn grid_digest(&self) -> u64 {
        self.grid.digest()
    }

    /// The next slot id that [`OnlinePlacer::try_insert`] would hand out.
    pub fn next_slot(&self) -> SlotId {
        self.next_slot
    }

    /// Every live slot with its module and placement, sorted by slot id
    /// (`active` is a BTreeMap, so iteration is already ascending).
    pub fn slots(&self) -> Vec<(SlotId, &Module, &PlacedModule)> {
        self.active.iter().map(|(s, (m, p))| (*s, m, p)).collect()
    }

    /// Rebuild a placer from snapshotted state: the region (carrying its
    /// fault set), the live slots, and the counters. The occupancy grid is
    /// reconstructed from the placements, so a snapshot needs to store
    /// neither the grid nor any history. A slot listed twice or placed
    /// with an unknown design alternative is refused.
    pub fn restore(
        region: Region,
        slots: Vec<(SlotId, Module, PlacedModule)>,
        next_slot: SlotId,
        stats: OnlineStats,
    ) -> Result<OnlinePlacer, String> {
        let mut grid = OccupancyGrid::new(region.bounds());
        let mut active = BTreeMap::new();
        for (slot, module, placed) in slots {
            let Some(shape) = module.shapes().get(placed.shape) else {
                return Err(format!("slot {slot} has no shape {}", placed.shape));
            };
            for b in shape.boxes() {
                grid.add_rect(b.placed(placed.x, placed.y), 1);
            }
            if active.insert(slot, (module, placed)).is_some() {
                return Err(format!("slot {slot} listed twice"));
            }
        }
        Ok(OnlinePlacer {
            region,
            grid,
            active,
            next_slot,
            stats,
        })
    }

    /// Live slots whose placement overlaps a faulted tile, sorted.
    fn displaced_slots(&self) -> Vec<SlotId> {
        let mut v: Vec<SlotId> = self
            .active
            .iter()
            .filter(|(_, (m, p))| {
                m.shapes()[p.shape]
                    .tiles_at(p.x, p.y)
                    .any(|(t, _)| self.region.is_faulted(t.x, t.y))
            })
            .map(|(s, _)| *s)
            .collect();
        v.sort_unstable();
        v
    }

    /// Mark the tiles of `fault` defective. Displaced modules stay
    /// resident — their configured state is not lost by a neighbouring
    /// tile dying — but they are broken and keep their tiles busy until
    /// [`OnlinePlacer::repair`] relocates or evicts them. The impact lists
    /// *all* currently displaced slots (not only newly displaced ones), so
    /// a caller that skipped a repair still sees the full backlog.
    pub fn inject_fault(&mut self, fault: Fault) -> FaultImpact {
        let tiles = self.region.inject_fault(fault);
        self.stats.faults_injected += 1;
        FaultImpact {
            tiles,
            displaced: self.displaced_slots(),
        }
    }

    /// Clear the tiles of `fault`, restoring their healthy resource kinds.
    /// Returns the tiles that actually changed back.
    pub fn clear_fault(&mut self, fault: Fault) -> Vec<Point> {
        self.stats.faults_cleared += 1;
        self.region.clear_fault(fault)
    }

    /// Relocate or evict every displaced module:
    /// [`OnlinePlacer::plan_repair`], then [`OnlinePlacer::apply_repair`].
    pub fn repair(&mut self, budget: Duration, model: &FrameCostModel) -> RepairReport {
        let report = self.plan_repair(budget, model);
        self.apply_repair(&report)
            .expect("a planned repair applies");
        report
    }

    /// Plan a repair without changing anything. Two escalation levels,
    /// both driven by design alternatives:
    ///
    /// 1. **Greedy**: lift all displaced modules off the grid and first-fit
    ///    them back (biggest first) around the survivors — cheap, moves
    ///    only broken modules.
    /// 2. **Ruin-and-recreate** (while `budget` lasts): if any module is
    ///    still homeless, repack *everything* onto an empty grid under a
    ///    sequence of deterministic orderings, taking the first ordering
    ///    where every module fits (the no-break rule of
    ///    [`OnlinePlacer::defrag`]: a failed repack changes nothing).
    ///
    /// Whatever is still homeless afterwards is evicted. The plan depends
    /// on the deadline, so a journal stores the report — the complete
    /// state delta — and replays it with [`OnlinePlacer::apply_repair`].
    pub fn plan_repair(&self, budget: Duration, model: &FrameCostModel) -> RepairReport {
        #[expect(
            clippy::disallowed_methods,
            reason = "repair is deadline-driven by design; its outcome is journaled as a state \
                      delta and replayed via apply_repair, never recomputed"
        )]
        let deadline = Instant::now() + budget;
        let displaced = self.displaced_slots();
        let mut report = RepairReport {
            unaffected: (self.active.len() - displaced.len()) as u64,
            ..RepairReport::default()
        };
        if displaced.is_empty() {
            return report;
        }
        let mut grid = self.grid.clone();
        let mut after: BTreeMap<SlotId, PlacedModule> =
            self.active.iter().map(|(s, (_, p))| (*s, *p)).collect();

        // Level 1: lift the broken modules, greedy-refit biggest first.
        for &slot in &displaced {
            let (module, placed) = &self.active[&slot];
            for b in module.shapes()[placed.shape].boxes() {
                grid.add_rect(b.placed(placed.x, placed.y), -1);
            }
        }
        let mut order = displaced.clone();
        order.sort_by_key(|slot| (std::cmp::Reverse(self.active[slot].0.max_area()), *slot));
        let mut homeless: Vec<SlotId> = Vec::new();
        for slot in order {
            let (module, _) = &self.active[&slot];
            match first_fit(&self.region, &grid, module) {
                Some((shape, anchor)) => {
                    for b in module.shapes()[shape].boxes() {
                        grid.add_rect(b.placed(anchor.x, anchor.y), 1);
                    }
                    after.entry(slot).and_modify(|p| place_at(p, shape, anchor));
                }
                None => homeless.push(slot),
            }
        }

        // Level 2: ruin-and-recreate over deterministic orderings. Each
        // ordering is a full no-break repack of every live module (the
        // homeless ones included); the first one that fits everything wins.
        if !homeless.is_empty() {
            report.escalated = true;
            let mut slots: Vec<SlotId> = self.active.keys().copied().collect();
            slots.sort_unstable();
            let orderings: [fn(&OnlinePlacer, &mut Vec<SlotId>); 3] = [
                |p, v| v.sort_by_key(|s| (std::cmp::Reverse(p.active[s].0.max_area()), *s)),
                |p, v| v.sort_by_key(|s| (p.active[s].0.max_area(), *s)),
                |_, v| v.sort_unstable(),
            ];
            for order_fn in orderings {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "deadline check for the journaled-delta repair pass; see the \
                              expectation at the top of plan_repair"
                )]
                if Instant::now() >= deadline {
                    break;
                }
                let mut order = slots.clone();
                order_fn(self, &mut order);
                let Some(repacked) = self.try_full_repack(&order) else {
                    continue;
                };
                for (slot, shape, anchor) in repacked {
                    after.entry(slot).and_modify(|p| place_at(p, shape, anchor));
                }
                homeless.clear();
                break;
            }
        }

        // Evict what is still homeless, then assemble the delta and the
        // per-displaced-module outcomes from the final placements.
        for slot in &homeless {
            after.remove(slot);
        }
        report.evicted = homeless.clone();
        for (slot, placed) in after {
            let (module, before) = &self.active[&slot];
            if *before == placed {
                continue;
            }
            report.moved.push(SlotMove { slot, placed });
            if !displaced.contains(&slot) {
                continue; // healthy module shuffled by the repack
            }
            let cost = module_cost(&self.region, std::slice::from_ref(module), &placed, model);
            report.outcomes.push(SlotRepair {
                slot,
                outcome: RepairOutcome::Relocated {
                    shape: placed.shape,
                    x: placed.x,
                    y: placed.y,
                    cost,
                },
            });
        }
        for &slot in &homeless {
            report.outcomes.push(SlotRepair {
                slot,
                outcome: RepairOutcome::Evicted,
            });
        }
        report.outcomes.sort_by_key(|o| o.slot);
        report
    }

    /// Commit a repair's state delta, live or replayed: apply the report's
    /// `moved`/`evicted` lists and bump the repair counters. A report that
    /// moves an unknown slot or to an unknown design alternative is refused
    /// whole, with nothing changed.
    pub fn apply_repair(&mut self, report: &RepairReport) -> Result<(), String> {
        for m in &report.moved {
            match self.active.get(&m.slot) {
                Some((module, _)) if m.placed.shape < module.num_shapes() => {}
                _ => return Err(format!("repair moves slot {} to no valid shape", m.slot)),
            }
        }
        self.stats.repairs += 1;
        for m in &report.moved {
            if let Some((module, placed)) = self.active.get_mut(&m.slot) {
                for b in module.shapes()[placed.shape].boxes() {
                    self.grid.add_rect(b.placed(placed.x, placed.y), -1);
                }
                *placed = m.placed;
                for b in module.shapes()[placed.shape].boxes() {
                    self.grid.add_rect(b.placed(placed.x, placed.y), 1);
                }
            }
        }
        for slot in &report.evicted {
            if let Some((module, placed)) = self.active.remove(slot) {
                for b in module.shapes()[placed.shape].boxes() {
                    self.grid.add_rect(b.placed(placed.x, placed.y), -1);
                }
            }
        }
        self.stats.repaired_relocated += report.relocated_count() as u64;
        self.stats.repaired_evicted += report.evicted.len() as u64;
        Ok(())
    }

    /// A full no-break repack of `order` onto an empty grid; `None` if any
    /// module fails to fit (in which case nothing was changed).
    fn try_full_repack(&self, order: &[SlotId]) -> Option<Vec<(SlotId, usize, Point)>> {
        let mut scratch = OccupancyGrid::new(self.region.bounds());
        let mut repacked = Vec::with_capacity(order.len());
        for &slot in order {
            let (module, _) = &self.active[&slot];
            let (shape, anchor) = first_fit(&self.region, &scratch, module)?;
            for b in module.shapes()[shape].boxes() {
                scratch.add_rect(b.placed(anchor.x, anchor.y), 1);
            }
            repacked.push((slot, shape, anchor));
        }
        Some(repacked)
    }
}

fn place_at(placed: &mut PlacedModule, shape: usize, anchor: Point) {
    placed.shape = shape;
    placed.x = anchor.x;
    placed.y = anchor.y;
}

/// First fit of `module` on `grid` in (x, y, shape) order over compatible
/// anchors: the smallest (x, y) across all design alternatives wins.
fn first_fit(region: &Region, grid: &OccupancyGrid, module: &Module) -> Option<(usize, Point)> {
    let mut best: Option<(i32, i32, usize, Point)> = None;
    for (si, shape) in module.shapes().iter().enumerate() {
        for anchor in allowed_anchors(region, shape) {
            if let Some((bx, by, _, _)) = best {
                if (anchor.x, anchor.y) >= (bx, by) {
                    continue;
                }
            }
            if grid.fits(shape, anchor) {
                best = Some((anchor.x, anchor.y, si, anchor));
            }
        }
    }
    best.map(|(_, _, shape, anchor)| (shape, anchor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrf_fabric::{device, ResourceKind};
    use rrf_geost::{ShapeDef, ShiftedBox};

    fn clb_module(name: &str, w: i32, h: i32) -> Module {
        Module::new(
            name,
            vec![ShapeDef::new(vec![ShiftedBox::new(
                0,
                0,
                w,
                h,
                ResourceKind::Clb,
            )])],
        )
    }

    fn flexible_module(name: &str, w: i32, h: i32) -> Module {
        let a = ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)]);
        let b = ShapeDef::new(vec![ShiftedBox::new(0, 0, h, w, ResourceKind::Clb)]);
        Module::new(name, vec![a, b])
    }

    #[test]
    fn insert_until_full_then_reject() {
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(4, 4)));
        let m = clb_module("m", 2, 2);
        for _ in 0..4 {
            assert!(placer.try_insert(&m).is_some());
        }
        assert!(placer.try_insert(&m).is_none());
        assert_eq!(placer.stats().accepted, 4);
        assert_eq!(placer.stats().rejected, 1);
        assert!((placer.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn removal_frees_space() {
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(4, 2)));
        let m = clb_module("m", 2, 2);
        let a = placer.try_insert(&m).unwrap();
        let _b = placer.try_insert(&m).unwrap();
        assert!(placer.try_insert(&m).is_none());
        assert!(placer.remove(a));
        assert!(placer.try_insert(&m).is_some());
        assert_eq!(placer.active_count(), 2);
        assert!(!placer.remove(a), "double remove must fail");
        assert!(!placer.remove(999));
    }

    #[test]
    fn first_fit_is_leftmost() {
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(8, 2)));
        let m = clb_module("m", 2, 2);
        let s1 = placer.try_insert(&m).unwrap();
        let s2 = placer.try_insert(&m).unwrap();
        assert_eq!(placer.placement_of(s1).unwrap().x, 0);
        assert_eq!(placer.placement_of(s2).unwrap().x, 2);
    }

    #[test]
    fn alternatives_rescue_fragmented_state() {
        // 6x4 strip. Fill with three 2x4 columns, remove the middle one:
        // a 4x2 module does not fit the 2-wide hole, but its 2x4
        // alternative does.
        let region = Region::whole(device::homogeneous(6, 4));
        let mut placer = OnlinePlacer::new(region.clone());
        let col = clb_module("col", 2, 4);
        let a = placer.try_insert(&col).unwrap();
        let b = placer.try_insert(&col).unwrap();
        let _c = placer.try_insert(&col).unwrap();
        assert_eq!(placer.placement_of(b).unwrap().x, 2);
        placer.remove(b);

        let rigid = clb_module("rigid", 4, 2);
        assert!(placer.try_insert(&rigid).is_none(), "4-wide cannot fit");

        let flex = flexible_module("flex", 4, 2);
        let slot = placer.try_insert(&flex).expect("alternative fits");
        let p = placer.placement_of(slot).unwrap();
        assert_eq!(p.shape, 1, "the rotated alternative was used");
        assert_eq!(p.x, 2);
        let _ = a;
    }

    #[test]
    fn respects_heterogeneous_fabric() {
        let fabric = rrf_fabric::Fabric::from_art("ccBcc\nccBcc").unwrap();
        let mut placer = OnlinePlacer::new(Region::whole(fabric));
        let m = clb_module("m", 2, 2);
        let s1 = placer.try_insert(&m).unwrap();
        let s2 = placer.try_insert(&m).unwrap();
        assert_eq!(placer.placement_of(s1).unwrap().x, 0);
        assert_eq!(placer.placement_of(s2).unwrap().x, 3);
        assert!(placer.try_insert(&m).is_none());
    }

    #[test]
    fn defrag_consolidates_holes() {
        // 8x2 strip, four 2x2 modules, remove the second and fourth: the
        // free space is split 2+2. A 4x2 module cannot fit until defrag
        // slides the third module left and reopens a contiguous 4.
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(8, 2)));
        let m = clb_module("m", 2, 2);
        let slots: Vec<_> = (0..4).map(|_| placer.try_insert(&m).unwrap()).collect();
        placer.remove(slots[1]);
        placer.remove(slots[3]);
        let wide = clb_module("wide", 4, 2);
        assert!(placer.try_insert(&wide).is_none(), "fragmented: no fit");

        let moved = placer.defrag();
        assert_eq!(moved, 1, "only the third module needs to move");
        assert_eq!(placer.stats().defrags, 1);
        // Slots stayed valid and the survivors are flush left.
        assert_eq!(placer.placement_of(slots[0]).unwrap().x, 0);
        assert_eq!(placer.placement_of(slots[2]).unwrap().x, 2);
        let slot = placer.try_insert(&wide).expect("contiguous space reopened");
        assert_eq!(placer.placement_of(slot).unwrap().x, 4);
    }

    #[test]
    fn defrag_never_breaks_a_full_layout() {
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(4, 4)));
        let m = clb_module("m", 2, 2);
        for _ in 0..4 {
            placer.try_insert(&m).unwrap();
        }
        let before: Vec<_> = (0..4)
            .map(|s| *placer.placement_of(s as SlotId).unwrap())
            .collect();
        placer.defrag();
        // A full grid repacks to an equivalent full grid; every module is
        // still live and the occupancy is unchanged.
        assert_eq!(placer.active_count(), 4);
        assert!((placer.utilization() - 1.0).abs() < 1e-12);
        let _ = before;
    }

    #[test]
    fn fault_displaces_only_overlapping_modules() {
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(8, 2)));
        let m = clb_module("m", 2, 2);
        let a = placer.try_insert(&m).unwrap();
        let b = placer.try_insert(&m).unwrap();
        let impact = placer.inject_fault(Fault::Tile { x: 0, y: 0 });
        assert_eq!(impact.tiles, vec![Point::new(0, 0)]);
        assert_eq!(impact.displaced, vec![a]);
        assert_eq!(placer.active_count(), 2, "displaced modules stay resident");
        let _ = b;
        // Clearing heals the region; nothing is displaced any more.
        assert_eq!(placer.clear_fault(Fault::Tile { x: 0, y: 0 }).len(), 1);
        let impact = placer.inject_fault(Fault::Tile { x: 7, y: 1 });
        assert!(impact.displaced.is_empty());
        assert_eq!(placer.stats().faults_injected, 2);
        assert_eq!(placer.stats().faults_cleared, 1);
    }

    #[test]
    fn repair_relocates_into_free_space() {
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(8, 2)));
        let m = clb_module("m", 2, 2);
        let a = placer.try_insert(&m).unwrap();
        let _b = placer.try_insert(&m).unwrap();
        let impact = placer.inject_fault(Fault::Column { x: 0 });
        assert_eq!(impact.displaced, vec![a]);
        let report = placer.repair(Duration::from_millis(100), &FrameCostModel::default());
        assert_eq!(report.relocated_count(), 1);
        assert!(report.evicted.is_empty());
        assert_eq!(report.unaffected, 1);
        let p = placer.placement_of(a).unwrap();
        assert_eq!((p.x, p.y), (4, 0), "first free healthy anchor");
        assert!(rrf_fabric::Rect::new(p.x, p.y, 2, 2)
            .tiles()
            .all(|t| { !placer.region().is_faulted(t.x, t.y) }));
        // The relocation was costed like any reconfiguration.
        let RepairOutcome::Relocated { cost, .. } = report.outcomes[0].outcome else {
            panic!("expected relocation");
        };
        assert_eq!(cost.columns, 2);
    }

    #[test]
    fn repair_escalates_to_full_repack() {
        // 10x2 strip, four 2x2 modules at x=0,2,4,6. Faulting columns 8
        // and 0 displaces the first module and leaves no healthy 2x2 hole
        // (only the 1-wide columns 1 and 9 are free), so greedy refit
        // fails and repair escalates. Even a full repack cannot fit four
        // 2-wide modules into the healthy x=1..=7 window, so the
        // displaced module is evicted — and the no-break rule keeps the
        // three survivors intact.
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(10, 2)));
        let m = clb_module("m", 2, 2);
        let slots: Vec<_> = (0..4).map(|_| placer.try_insert(&m).unwrap()).collect();
        placer.inject_fault(Fault::Column { x: 8 });
        let impact = placer.inject_fault(Fault::Column { x: 0 });
        assert_eq!(impact.displaced, vec![slots[0]]);
        let report = placer.repair(Duration::from_secs(5), &FrameCostModel::default());
        assert_eq!(report.evicted, vec![slots[0]]);
        assert!(report.escalated);
        assert_eq!(placer.active_count(), 3);
        assert_eq!(placer.stats().repaired_evicted, 1);
    }

    #[test]
    fn failed_escalation_never_breaks_survivors() {
        // 6x2 strip: a 4x2 at x=0 and a 2x2 at x=4. Killing column 5
        // displaces the small module; the only free healthy column (x=4,
        // after lifting it) is 1 wide, and no repack ordering can fit
        // both modules into the healthy 5-column window. The eviction
        // must leave the survivor exactly where it was.
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(6, 2)));
        let wide = clb_module("wide", 4, 2);
        let small = clb_module("small", 2, 2);
        let w = placer.try_insert(&wide).unwrap();
        let s = placer.try_insert(&small).unwrap();
        let impact = placer.inject_fault(Fault::Column { x: 5 });
        assert_eq!(impact.displaced, vec![s]);
        let report = placer.repair(Duration::from_secs(5), &FrameCostModel::default());
        assert!(report.escalated);
        assert_eq!(report.evicted, vec![s]);
        assert_eq!(placer.placement_of(w).unwrap().x, 0);
        assert_eq!(placer.active_count(), 1);
        assert_eq!(placer.occupied_tiles(), 8);
    }

    #[test]
    fn repair_uses_design_alternatives() {
        // 6x4 region: the flexible module (4x2 with a 2x4 alternative) at
        // (0,0), a rigid 4x2 filler at (0,2); free space is the 2-wide
        // strip at x=4. Faulting (2,1) displaces the flexible module and
        // rules out every 4x2 anchor (rows 0..2 anchors all cover the
        // fault, rows 2..4 are the filler's), but the 2x4 alternative
        // fits the free strip exactly.
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(6, 4)));
        let flex = flexible_module("flex", 4, 2);
        let filler = clb_module("filler", 4, 2);
        let f = placer.try_insert(&flex).unwrap();
        let _filler = placer.try_insert(&filler).unwrap(); // at (0,2)
        assert_eq!(placer.placement_of(f).unwrap().shape, 0);
        placer.inject_fault(Fault::Tile { x: 2, y: 1 });
        let report = placer.repair(Duration::from_secs(5), &FrameCostModel::default());
        assert_eq!(report.relocated_count(), 1);
        let p = placer.placement_of(f).unwrap();
        assert_eq!(p.shape, 1, "repair switched to the rotated alternative");
        assert_eq!((p.x, p.y), (4, 0));
        // The same scenario without alternatives ends in eviction.
        let mut rigid_placer = OnlinePlacer::new(Region::whole(device::homogeneous(6, 4)));
        let r = rigid_placer
            .try_insert(&flex.without_alternatives())
            .unwrap();
        rigid_placer.try_insert(&filler).unwrap();
        rigid_placer.inject_fault(Fault::Tile { x: 2, y: 1 });
        let report = rigid_placer.repair(Duration::from_secs(5), &FrameCostModel::default());
        assert_eq!(report.evicted, vec![r]);
    }

    #[test]
    fn apply_repair_replays_to_identical_state() {
        let mut live = OnlinePlacer::new(Region::whole(device::homogeneous(8, 2)));
        let m = clb_module("m", 2, 2);
        for _ in 0..3 {
            live.try_insert(&m).unwrap();
        }
        let mut replayed = OnlinePlacer::new(Region::whole(device::homogeneous(8, 2)));
        for _ in 0..3 {
            replayed.try_insert(&m).unwrap();
        }
        live.inject_fault(Fault::Column { x: 2 });
        replayed.inject_fault(Fault::Column { x: 2 });
        let report = live.repair(Duration::from_secs(5), &FrameCostModel::default());
        assert!(!report.moved.is_empty() || !report.evicted.is_empty());
        replayed.apply_repair(&report).unwrap();
        assert_eq!(live.grid_digest(), replayed.grid_digest());
        assert_eq!(live.stats(), replayed.stats());
        let live_slots: Vec<_> = live.slots().iter().map(|(s, _, p)| (*s, **p)).collect();
        let replayed_slots: Vec<_> = replayed.slots().iter().map(|(s, _, p)| (*s, **p)).collect();
        assert_eq!(live_slots, replayed_slots);
    }

    #[test]
    fn restore_rebuilds_grid_and_faults() {
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(8, 2)));
        let m = clb_module("m", 2, 2);
        placer.try_insert(&m).unwrap();
        placer.try_insert(&m).unwrap();
        placer.inject_fault(Fault::Column { x: 6 });
        let snapshot: Vec<_> = placer
            .slots()
            .into_iter()
            .map(|(s, module, p)| (s, module.clone(), *p))
            .collect();
        let restored = OnlinePlacer::restore(
            placer.region().clone(),
            snapshot,
            placer.next_slot(),
            placer.stats(),
        )
        .unwrap();
        assert_eq!(restored.grid_digest(), placer.grid_digest());
        assert_eq!(restored.stats(), placer.stats());
        assert_eq!(restored.next_slot(), placer.next_slot());
        assert!(restored.region().is_faulted(6, 0));
        // The restored placer keeps rejecting what the original would.
        let mut a = placer;
        let mut b = restored;
        assert_eq!(a.try_insert(&m).is_some(), b.try_insert(&m).is_some());
    }

    #[test]
    fn repair_report_serde_roundtrip() {
        let report = RepairReport {
            outcomes: vec![
                SlotRepair {
                    slot: 3,
                    outcome: RepairOutcome::Relocated {
                        shape: 1,
                        x: 4,
                        y: 0,
                        cost: ReconfigCost {
                            columns: 2,
                            words: 800,
                            nanos: 16_000,
                        },
                    },
                },
                SlotRepair {
                    slot: 5,
                    outcome: RepairOutcome::Evicted,
                },
            ],
            moved: vec![SlotMove {
                slot: 3,
                placed: PlacedModule {
                    module: 0,
                    shape: 1,
                    x: 4,
                    y: 0,
                },
            }],
            evicted: vec![5],
            unaffected: 2,
            escalated: true,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: RepairReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn acceptance_rate_bookkeeping() {
        let mut placer = OnlinePlacer::new(Region::whole(device::homogeneous(2, 2)));
        assert_eq!(placer.stats().acceptance_rate(), 1.0);
        let m = clb_module("m", 2, 2);
        placer.try_insert(&m).unwrap();
        placer.try_insert(&m);
        assert_eq!(placer.stats().requests, 2);
        assert!((placer.stats().acceptance_rate() - 0.5).abs() < 1e-12);
    }
}
