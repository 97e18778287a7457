//! The reservation ledger: the fabric as a 3-D packing volume (x, y, t).
//!
//! A [`Reservation`] books a concrete placement — shape, anchor, and the
//! half-open occupation interval `[start, end)` (reconfiguration load
//! included) — for one admitted task. The ledger is the scheduler's
//! single source of truth and enforces its two invariants at the commit
//! boundary rather than trusting the planner:
//!
//! 1. **No spatio-temporal overlap** — two reservations may share tiles
//!    only if their intervals are disjoint.
//! 2. **No faulted tiles** — a reservation never covers a tile the
//!    region currently marks defective.
//!
//! A planner bug therefore surfaces as a [`CommitError`] (and a failing
//! proptest), never as silent double-booking.

// Determinism: schedule digests and the deterministic event ledger.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::BTreeMap;

use rrf_fabric::{Rect, Region};
use serde::{Deserialize, Serialize};

use crate::task::{TaskId, Tick};

/// One committed booking of fabric volume. `rects` are the chosen
/// shape's boxes placed at the anchor — stored denormalized so overlap
/// checks (and serialization) never need the module back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reservation {
    pub task: TaskId,
    pub name: String,
    /// Index of the chosen design alternative.
    pub shape: usize,
    pub x: i32,
    pub y: i32,
    /// First tick of occupation (reconfiguration begins here).
    pub start: Tick,
    /// First tick of useful work (`start` + the shape's config time).
    pub active: Tick,
    /// One past the last occupied tick (`active` + duration).
    pub end: Tick,
    pub rects: Vec<Rect>,
}

impl Reservation {
    /// Tiles occupied (the chosen shape's area).
    pub fn area(&self) -> u64 {
        self.rects.iter().map(|r| (r.w as u64) * (r.h as u64)).sum()
    }

    /// Whether the occupation interval covers tick `t`.
    pub fn occupies_at(&self, t: Tick) -> bool {
        self.start <= t && t < self.end
    }
}

/// Why a commit was refused. Planner code treats any of these as a bug;
/// they exist so the invariants are *checked*, not assumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// Another unfinished reservation overlaps in both space and time.
    SpaceTimeOverlap { with: TaskId },
    /// A rect covers a tile currently marked faulted.
    FaultedTile { x: i32, y: i32 },
    /// `start >= end` or no rects — a malformed booking.
    Malformed,
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::SpaceTimeOverlap { with } => {
                write!(f, "space-time overlap with reservation of task {with}")
            }
            CommitError::FaultedTile { x, y } => write!(f, "covers faulted tile ({x}, {y})"),
            CommitError::Malformed => write!(f, "malformed reservation"),
        }
    }
}

/// All unfinished reservations, keyed by task (one booking per task).
/// Finished reservations are popped by the scheduler's clock, so the
/// ledger stays O(live + booked), not O(history).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReservationLedger {
    by_task: BTreeMap<TaskId, Reservation>,
}

// On the wire the ledger is its reservation list in ascending task order
// (a numeric-keyed map is not representable in the JSON data model).
impl Serialize for ReservationLedger {
    fn to_value(&self) -> serde::Value {
        self.by_task
            .values()
            .cloned()
            .collect::<Vec<Reservation>>()
            .to_value()
    }
}

impl Deserialize for ReservationLedger {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let list = Vec::<Reservation>::from_value(v)?;
        let mut by_task = BTreeMap::new();
        for r in list {
            by_task.insert(r.task, r);
        }
        Ok(ReservationLedger { by_task })
    }
}

impl ReservationLedger {
    pub fn len(&self) -> usize {
        self.by_task.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_task.is_empty()
    }

    pub fn get(&self, task: TaskId) -> Option<&Reservation> {
        self.by_task.get(&task)
    }

    /// Unfinished reservations in ascending task order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Reservation> {
        self.by_task.values()
    }

    /// Whether placing `rects` over `[start, end)` would collide with any
    /// unfinished reservation.
    pub fn conflicts(&self, rects: &[Rect], start: Tick, end: Tick) -> bool {
        self.by_task.values().any(|r| {
            r.start < end
                && start < r.end
                && r.rects
                    .iter()
                    .any(|a| rects.iter().any(|b| a.intersects(b)))
        })
    }

    /// Book a reservation, enforcing both ledger invariants against the
    /// region's *current* fault set.
    pub fn commit(&mut self, region: &Region, r: Reservation) -> Result<(), CommitError> {
        if r.start >= r.end || r.rects.is_empty() {
            return Err(CommitError::Malformed);
        }
        if !region.faults().is_empty() {
            for rect in &r.rects {
                for tile in rect.tiles() {
                    if region.is_faulted(tile.x, tile.y) {
                        return Err(CommitError::FaultedTile {
                            x: tile.x,
                            y: tile.y,
                        });
                    }
                }
            }
        }
        if let Some(hit) = self.by_task.values().find(|o| {
            o.start < r.end
                && r.start < o.end
                && o.rects
                    .iter()
                    .any(|a| r.rects.iter().any(|b| a.intersects(b)))
        }) {
            return Err(CommitError::SpaceTimeOverlap { with: hit.task });
        }
        self.by_task.insert(r.task, r);
        Ok(())
    }

    /// Drop and return the reservation of `task`, if any.
    pub fn remove(&mut self, task: TaskId) -> Option<Reservation> {
        self.by_task.remove(&task)
    }

    /// Pop every reservation with `end <= now` (completed), ascending by
    /// task id.
    pub fn pop_finished(&mut self, now: Tick) -> Vec<Reservation> {
        let done: Vec<TaskId> = self
            .by_task
            .iter()
            .filter(|(_, r)| r.end <= now)
            .map(|(id, _)| *id)
            .collect();
        done.iter()
            .map(|id| self.by_task.remove(id).expect("key just listed"))
            .collect()
    }

    /// The earliest reservation end strictly after `t` (the next event a
    /// waiting task could start at).
    pub fn next_end_after(&self, t: Tick) -> Option<Tick> {
        self.by_task
            .values()
            .map(|r| r.end)
            .filter(|&e| e > t)
            .min()
    }

    /// Up to `cap` distinct reservation ends strictly after `t`,
    /// ascending — the lookahead planner's candidate start times.
    pub fn ends_after(&self, t: Tick, cap: usize) -> Vec<Tick> {
        let mut ends: Vec<Tick> = self
            .by_task
            .values()
            .map(|r| r.end)
            .filter(|&e| e > t)
            .collect();
        ends.sort_unstable();
        ends.dedup();
        ends.truncate(cap);
        ends
    }

    /// Tasks whose reservation covers at least one currently faulted
    /// tile (after a new injection), ascending.
    pub fn faulted_tasks(&self, region: &Region) -> Vec<TaskId> {
        if region.faults().is_empty() {
            return Vec::new();
        }
        self.by_task
            .iter()
            .filter(|(_, r)| {
                r.rects
                    .iter()
                    .any(|rect| rect.tiles().any(|t| region.is_faulted(t.x, t.y)))
            })
            .map(|(id, _)| *id)
            .collect()
    }

    /// FNV-1a over every reservation in task order — equal digests mean
    /// bit-identical ledgers (the replay tests' currency).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for r in self.by_task.values() {
            mix(r.task);
            mix(r.shape as u64);
            mix(r.x as u64);
            mix(r.y as u64);
            mix(r.start);
            mix(r.active);
            mix(r.end);
            for rect in &r.rects {
                mix(rect.x as u64);
                mix(rect.y as u64);
                mix(rect.w as u64);
                mix(rect.h as u64);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrf_fabric::{device, Fault};

    fn region() -> Region {
        Region::whole(device::homogeneous(8, 4))
    }

    fn resv(task: TaskId, x: i32, y: i32, start: Tick, end: Tick) -> Reservation {
        Reservation {
            task,
            name: format!("t{task}"),
            shape: 0,
            x,
            y,
            start,
            active: start + 1,
            end,
            rects: vec![Rect::new(x, y, 2, 2)],
        }
    }

    #[test]
    fn overlapping_space_disjoint_time_commits() {
        let region = region();
        let mut ledger = ReservationLedger::default();
        ledger.commit(&region, resv(1, 0, 0, 0, 10)).unwrap();
        // Same tiles, but starting exactly at the other's end: fine.
        ledger.commit(&region, resv(2, 0, 0, 10, 20)).unwrap();
        // Same tiles, overlapping interval: refused.
        let err = ledger.commit(&region, resv(3, 1, 1, 5, 15)).unwrap_err();
        assert!(matches!(err, CommitError::SpaceTimeOverlap { .. }));
        // Disjoint tiles, overlapping interval: fine.
        ledger.commit(&region, resv(4, 4, 0, 5, 15)).unwrap();
        assert_eq!(ledger.len(), 3);
    }

    #[test]
    fn faulted_tiles_are_refused() {
        let mut region = region();
        region.inject_fault(Fault::Tile { x: 1, y: 1 });
        let mut ledger = ReservationLedger::default();
        let err = ledger.commit(&region, resv(1, 0, 0, 0, 10)).unwrap_err();
        assert_eq!(err, CommitError::FaultedTile { x: 1, y: 1 });
        ledger.commit(&region, resv(2, 4, 0, 0, 10)).unwrap();
    }

    #[test]
    fn pop_finished_and_events() {
        let region = region();
        let mut ledger = ReservationLedger::default();
        ledger.commit(&region, resv(1, 0, 0, 0, 10)).unwrap();
        ledger.commit(&region, resv(2, 4, 0, 0, 25)).unwrap();
        ledger.commit(&region, resv(3, 0, 2, 30, 40)).unwrap();
        assert_eq!(ledger.next_end_after(0), Some(10));
        assert_eq!(ledger.ends_after(0, 8), vec![10, 25, 40]);
        let done = ledger.pop_finished(25);
        assert_eq!(done.len(), 2);
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn digest_tracks_content() {
        let region = region();
        let mut a = ReservationLedger::default();
        let mut b = ReservationLedger::default();
        assert_eq!(a.digest(), b.digest());
        a.commit(&region, resv(1, 0, 0, 0, 10)).unwrap();
        assert_ne!(a.digest(), b.digest());
        b.commit(&region, resv(1, 0, 0, 0, 10)).unwrap();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn faulted_tasks_after_injection() {
        let mut region = region();
        let mut ledger = ReservationLedger::default();
        ledger.commit(&region, resv(1, 0, 0, 0, 10)).unwrap();
        ledger.commit(&region, resv(2, 4, 0, 0, 10)).unwrap();
        region.inject_fault(Fault::Column { x: 1 });
        assert_eq!(ledger.faulted_tasks(&region), vec![1]);
    }
}
