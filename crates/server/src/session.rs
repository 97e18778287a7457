//! The session core, free of I/O: one online session's state and the one
//! path that changes it.
//!
//! A [`Session`] is an [`OnlinePlacer`], its slots' names, and a lazily
//! created [`Scheduler`]. [`Session::apply`] is the only code that changes
//! them: the daemon's handlers, journal [`replay`], and snapshot restore
//! all call it. Every op but repair is deterministic and is journaled as
//! its input ([`SessionOp::into_record`]). Repair depends on a wall-clock
//! budget, so it is planned read-only ([`OnlinePlacer::plan_repair`]) and
//! its state delta is applied and journaled. Replay re-applies each
//! record and demands the journaled outcome back (the insert's slot, the
//! submit's task id, a remove that removed); anything else is counted as
//! a recovery error, never a panic.

// Determinism: the session core is the one path live ops and journal
// replay share, and two replays of the same bytes must produce identical
// state.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::BTreeMap;

use rrf_core::{FaultImpact, Module, OnlinePlacer, RepairReport, SlotId};
use rrf_fabric::Fault;
use rrf_flow::{resolve_module, ModuleEntry};
use rrf_sched::{AdmitOutcome, CancelOutcome, SchedConfig, Scheduler};
use rrf_trace::Tracer;

use crate::journal::{JournalRecord, SchedOp, SessionSnapshot, SlotSnapshot};

/// One state-changing op on a live session: a journal record's payload,
/// without its session id and outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOp {
    Insert(ModuleEntry),
    Remove(SlotId),
    Defrag,
    /// Reaches the scheduler too, when the session has one.
    Fault(Fault),
    ClearFault(Fault),
    /// A planned repair's state delta.
    Repair(RepairReport),
    Sched(SchedOp),
}

/// What [`Session::apply`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    Inserted(Option<SlotId>),
    Removed(bool),
    /// Modules whose placement the defrag changed.
    Defragged(usize),
    Faulted(FaultImpact),
    /// Tiles the clear healed.
    Cleared(usize),
    Repaired,
    Submitted(Option<u64>, AdmitOutcome),
    Cancelled(CancelOutcome),
    /// A scheduler open or advance (or a scheduler-only fault op).
    Scheduled,
    /// Nothing changed: the module or task does not resolve, the session
    /// has no scheduler, or the repair delta does not fit the session.
    Failed(String),
}

impl SessionOp {
    /// The journal record of an applied op; `None` when the op changed
    /// nothing durable. Replay checks its own outcome against this record.
    pub fn into_record(self, session: u64, applied: &Applied) -> Option<JournalRecord> {
        let outcome = match *applied {
            Applied::Failed(_) | Applied::Removed(false) => return None,
            Applied::Inserted(slot) => slot,
            Applied::Submitted(task, _) => task,
            _ => None,
        };
        Some(match self {
            SessionOp::Insert(module) => JournalRecord::Insert {
                session,
                slot: outcome,
                module,
            },
            SessionOp::Remove(slot) => JournalRecord::Remove { session, slot },
            SessionOp::Defrag => JournalRecord::Defrag { session },
            SessionOp::Fault(fault) => JournalRecord::Fault { session, fault },
            SessionOp::ClearFault(fault) => JournalRecord::ClearFault { session, fault },
            SessionOp::Repair(report) => JournalRecord::Repair { session, report },
            SessionOp::Sched(sched) => JournalRecord::Sched {
                session,
                sched,
                admitted: outcome,
            },
        })
    }

    /// The session and op a record carries; `None` for the session-map
    /// records (open, close, snapshot).
    pub fn from_record(record: &JournalRecord) -> Option<(u64, SessionOp)> {
        let op = match record {
            JournalRecord::Insert { module, .. } => SessionOp::Insert(module.clone()),
            JournalRecord::Remove { slot, .. } => SessionOp::Remove(*slot),
            JournalRecord::Defrag { .. } => SessionOp::Defrag,
            JournalRecord::Fault { fault, .. } => SessionOp::Fault(*fault),
            JournalRecord::ClearFault { fault, .. } => SessionOp::ClearFault(*fault),
            JournalRecord::Repair { report, .. } => SessionOp::Repair(report.clone()),
            JournalRecord::Sched { sched, .. } => SessionOp::Sched(sched.clone()),
            JournalRecord::Open { .. } | JournalRecord::Close { .. } => return None,
            JournalRecord::Snapshot { .. } => return None,
        };
        Some((record.session()?, op))
    }
}

/// One stateful online session.
pub struct Session {
    placer: OnlinePlacer,
    /// Module name per live slot, for reporting.
    names: BTreeMap<SlotId, String>,
    /// The session's reservation scheduler, created by its first
    /// `SchedOp::Open`.
    sched: Option<Scheduler>,
    /// Every scheduler op applied so far. The scheduler is a pure function
    /// of this sequence, so a snapshot carries it and restore replays it.
    sched_ops: Vec<SchedOp>,
    /// Handed to the scheduler when it is created.
    tracer: Tracer,
}

impl Session {
    pub fn new(region: rrf_fabric::Region, tracer: Tracer) -> Session {
        Session {
            placer: OnlinePlacer::new(region),
            names: BTreeMap::new(),
            sched: None,
            sched_ops: Vec::new(),
            tracer,
        }
    }

    pub fn placer(&self) -> &OnlinePlacer {
        &self.placer
    }

    pub fn sched(&self) -> Option<&Scheduler> {
        self.sched.as_ref()
    }

    /// The module name of a live slot ("" for an unknown one).
    pub fn name(&self, slot: SlotId) -> &str {
        self.names.get(&slot).map_or("", String::as_str)
    }

    /// The op that creates the session's scheduler. Its region is the
    /// session region as of now (faults included) with every live slot's
    /// footprint added as a static mask, so scheduled work never lands on
    /// tiles the placer occupies. The frozen region is journaled with the
    /// op, so replay does not depend on what the slots do afterwards.
    pub fn sched_open(&self) -> SchedOp {
        let mut region = self.placer.region().clone();
        for (_, module, placed) in self.placer.slots() {
            for b in module.shapes()[placed.shape].boxes() {
                region.add_static_mask(b.placed(placed.x, placed.y));
            }
        }
        SchedOp::Open { region }
    }

    /// Apply one op: the only code that changes a session.
    pub fn apply(&mut self, op: &SessionOp) -> Applied {
        match op {
            SessionOp::Insert(entry) => {
                let module = resolve_module(entry).map_err(|e| e.to_string());
                match module.and_then(well_formed) {
                    Ok(module) => {
                        let slot = self.placer.try_insert(&module);
                        if let Some(slot) = slot {
                            self.names.insert(slot, entry.name.clone());
                        }
                        Applied::Inserted(slot)
                    }
                    Err(e) => Applied::Failed(e),
                }
            }
            SessionOp::Remove(slot) => {
                let removed = self.placer.remove(*slot);
                if removed {
                    self.names.remove(slot);
                }
                Applied::Removed(removed)
            }
            SessionOp::Defrag => Applied::Defragged(self.placer.defrag()),
            // The scheduler plans over the same fabric, so one fault op
            // reaches both: it kills started reservations on the dead
            // tiles and requeues future ones.
            SessionOp::Fault(fault) => {
                let impact = self.placer.inject_fault(*fault);
                if self.sched.is_some() {
                    self.apply(&SessionOp::Sched(SchedOp::Fault { fault: *fault }));
                }
                Applied::Faulted(impact)
            }
            SessionOp::ClearFault(fault) => {
                let tiles = self.placer.clear_fault(*fault);
                if self.sched.is_some() {
                    self.apply(&SessionOp::Sched(SchedOp::ClearFault { fault: *fault }));
                }
                Applied::Cleared(tiles.len())
            }
            SessionOp::Repair(report) => match self.placer.apply_repair(report) {
                Ok(()) => {
                    for slot in &report.evicted {
                        self.names.remove(slot);
                    }
                    Applied::Repaired
                }
                Err(e) => Applied::Failed(e),
            },
            SessionOp::Sched(sched_op) => {
                let applied = match (sched_op, &mut self.sched) {
                    (SchedOp::Open { region }, _) => {
                        if let Err(e) = region.validate() {
                            return Applied::Failed(e.to_string());
                        }
                        let config = SchedConfig {
                            tracer: self.tracer.clone(),
                            ..SchedConfig::default()
                        };
                        self.sched = Some(Scheduler::new(region.clone(), config));
                        Applied::Scheduled
                    }
                    (_, None) => return Applied::Failed("session has no scheduler".into()),
                    (SchedOp::Submit { task }, Some(sched)) => match task.resolve() {
                        Ok(task) => {
                            let (id, outcome) = sched.submit(task);
                            Applied::Submitted(id, outcome)
                        }
                        Err(e) => return Applied::Failed(format!("task spec error: {e}")),
                    },
                    (SchedOp::Cancel { task }, Some(sched)) => {
                        Applied::Cancelled(sched.cancel(*task))
                    }
                    (SchedOp::Advance { to }, Some(sched)) => {
                        sched.advance_to(*to);
                        Applied::Scheduled
                    }
                    (SchedOp::Fault { fault }, Some(sched)) => {
                        sched.inject_fault(*fault);
                        Applied::Scheduled
                    }
                    (SchedOp::ClearFault { fault }, Some(sched)) => {
                        sched.clear_fault(*fault);
                        Applied::Scheduled
                    }
                };
                self.sched_ops.push(sched_op.clone());
                applied
            }
        }
    }

    /// The session's full durable state (see [`crate::journal`]).
    pub fn snapshot(&self, session: u64) -> SessionSnapshot {
        SessionSnapshot {
            session,
            region: self.placer.region().clone(),
            next_slot: self.placer.next_slot(),
            stats: self.placer.stats(),
            slots: self
                .placer
                .slots()
                .into_iter()
                .map(|(slot, module, placed)| SlotSnapshot {
                    slot,
                    name: self.name(slot).to_string(),
                    module: module.clone(),
                    placed: *placed,
                })
                .collect(),
            sched_ops: self.sched_ops.clone(),
        }
    }

    /// Rebuild a session from its snapshot; the scheduler history goes
    /// back through [`Session::apply`]. A snapshot that does not fit
    /// together is refused. `tracer` is the one a live session would get
    /// (see [`Session::new`]).
    pub fn restore(snapshot: SessionSnapshot, tracer: Tracer) -> Result<Session, String> {
        let SessionSnapshot {
            region,
            next_slot,
            stats,
            slots,
            sched_ops,
            ..
        } = snapshot;
        region.validate().map_err(|e| e.to_string())?;
        let mut names = BTreeMap::new();
        let mut live = Vec::with_capacity(slots.len());
        for s in slots {
            names.insert(s.slot, s.name);
            live.push((s.slot, well_formed(s.module)?, s.placed));
        }
        let mut session = Session {
            placer: OnlinePlacer::restore(region, live, next_slot, stats)?,
            names,
            sched: None,
            sched_ops: Vec::new(),
            tracer,
        };
        for op in sched_ops {
            if let Applied::Failed(e) = session.apply(&SessionOp::Sched(op)) {
                return Err(e);
            }
        }
        Ok(session)
    }
}

/// A module from outside, checked: deserialized shapes skip
/// `ShapeDef::new`'s assertions, and a malformed one must not reach the
/// placer.
fn well_formed(module: Module) -> Result<Module, String> {
    match module.shapes().iter().position(|s| !s.is_well_formed()) {
        Some(i) => Err(format!("module {}: shape {i} is malformed", module.name)),
        None => Ok(module),
    }
}

/// Sessions rebuilt from a journal, plus replay bookkeeping. The map is
/// ordered so replay output never depends on hash order.
pub struct Replayed {
    pub sessions: BTreeMap<u64, Session>,
    pub next_session: u64,
    /// Records that could not be applied, or whose replay did not give
    /// back the journaled outcome.
    pub errors: u64,
}

/// Rebuild sessions from journal records. Replay itself only keeps the
/// session map (snapshot, open, close); every other record goes through
/// [`Session::apply`] and is checked against what the live run journaled.
/// Every rebuilt session gets `tracer`, as a live one gets the daemon's.
pub fn replay(records: &[JournalRecord], tracer: &Tracer) -> Replayed {
    let mut out = Replayed {
        sessions: BTreeMap::new(),
        next_session: 1,
        errors: 0,
    };
    for record in records {
        match record {
            JournalRecord::Snapshot {
                next_session,
                sessions,
            } => {
                out.sessions.clear();
                out.next_session = *next_session;
                for snap in sessions {
                    match Session::restore(snap.clone(), tracer.clone()) {
                        Ok(session) => {
                            out.sessions.insert(snap.session, session);
                        }
                        Err(_) => out.errors += 1,
                    }
                }
            }
            JournalRecord::Open { session, region } => {
                out.next_session = out.next_session.max(session.saturating_add(1));
                if out.sessions.contains_key(session) {
                    continue; // a snapshot already covered this open
                }
                let Ok(region) = region.build() else {
                    out.errors += 1;
                    continue;
                };
                let live = Session::new(region, tracer.clone());
                out.sessions.insert(*session, live);
            }
            JournalRecord::Close { session } => {
                out.sessions.remove(session);
            }
            _ => {
                let Some((id, op)) = SessionOp::from_record(record) else {
                    continue;
                };
                let replayed = out.sessions.get_mut(&id).and_then(|session| {
                    let applied = session.apply(&op);
                    op.into_record(id, &applied)
                });
                if replayed.as_ref() != Some(record) {
                    out.errors += 1;
                }
            }
        }
    }
    out
}

/// One session's state at digest granularity, as produced by
/// [`replay_summary`] — enough to compare two replays for bit-identical
/// equivalence.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReplaySessionSummary {
    pub session: u64,
    pub grid_digest: u64,
    pub next_slot: u64,
    pub occupied_slots: u64,
    /// The scheduler's digest (0 for a session without one).
    pub sched_digest: u64,
}

/// Deterministic digest of replaying a record sequence, for robustness
/// tests: two replays of the same records must produce equal summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySummary {
    pub next_session: u64,
    pub recovery_errors: u64,
    /// Sorted by session id.
    pub sessions: Vec<ReplaySessionSummary>,
}

/// Replay journal records and summarize the resulting state. This is the
/// same replay the daemon runs at startup and on `adopt_journal`.
pub fn replay_summary(records: &[JournalRecord]) -> ReplaySummary {
    let replayed = replay(records, &Tracer::default());
    ReplaySummary {
        next_session: replayed.next_session,
        recovery_errors: replayed.errors,
        sessions: replayed
            .sessions
            .iter()
            .map(|(id, s)| ReplaySessionSummary {
                session: *id,
                grid_digest: s.placer.grid_digest(),
                next_slot: s.placer.next_slot(),
                occupied_slots: s.placer.active_count() as u64,
                sched_digest: s.sched.as_ref().map_or(0, Scheduler::digest),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    //! Crash-point model test. Random session histories run through the
    //! live path — `apply`, then `into_record`, exactly as the daemon's
    //! handlers do — and after every journal record a crash must recover
    //! to the live state, and the live state must be sound.

    use std::collections::BTreeSet;
    use std::time::Duration;

    use proptest::prelude::*;
    use rrf_core::{verify::verify, Floorplan, FrameCostModel, PlacedModule};
    use rrf_fabric::ResourceKind;
    use rrf_flow::{DeviceSpec, RegionSpec};
    use rrf_geost::{ShapeDef, ShiftedBox};
    use rrf_sched::TaskSpec;

    use super::*;

    /// An 8x4 region: all CLB, or with a BRAM column.
    fn region_spec(seed: u64) -> RegionSpec {
        let device = if seed.is_multiple_of(2) {
            DeviceSpec::Homogeneous {
                width: 8,
                height: 4,
            }
        } else {
            DeviceSpec::Art {
                art: ["ccBccccc"; 4].join("\n"),
            }
        };
        RegionSpec {
            device,
            bounds: None,
            static_masks: vec![],
        }
    }

    /// A CLB module of up to 3x3 tiles, often with its rotation as a
    /// design alternative.
    fn module(name: String, seed: u64) -> ModuleEntry {
        let (w, h) = (1 + (seed % 3) as i32, 1 + (seed / 3 % 3) as i32);
        let clb = |w, h| ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)]);
        let mut shapes = vec![clb(w, h)];
        if w != h && (seed / 9).is_multiple_of(2) {
            shapes.push(clb(h, w));
        }
        ModuleEntry {
            name,
            shapes,
            netlist: None,
        }
    }

    fn fault(seed: u64) -> Fault {
        let (x, y) = ((seed % 8) as i32, (seed / 8 % 4) as i32);
        match seed / 32 % 3 {
            0 => Fault::Tile { x, y },
            1 => Fault::Column { x },
            _ => Fault::Rect { x, y, w: 2, h: 2 },
        }
    }

    /// The live side: sessions driven the way the daemon's handlers drive
    /// them, and the journal they wrote.
    struct Model {
        sessions: BTreeMap<u64, Session>,
        next_session: u64,
        records: Vec<JournalRecord>,
        /// Faults injected per session, which clears pick from.
        faults: BTreeMap<u64, Vec<Fault>>,
        /// Slots displaced since their session's last repair: the only
        /// ones allowed to fail `verify`.
        displaced: BTreeMap<u64, BTreeSet<SlotId>>,
    }

    impl Model {
        fn new() -> Model {
            Model {
                sessions: BTreeMap::new(),
                next_session: 1,
                records: Vec::new(),
                faults: BTreeMap::new(),
                displaced: BTreeMap::new(),
            }
        }

        fn step(&mut self, code: u8, seed: u64) -> Result<(), TestCaseError> {
            let ids: Vec<u64> = self.sessions.keys().copied().collect();
            if code == 0 || ids.is_empty() {
                let region = region_spec(seed);
                let id = self.next_session;
                self.next_session += 1;
                let live = Session::new(region.build().unwrap(), Tracer::default());
                self.sessions.insert(id, live);
                return self.journal(JournalRecord::Open {
                    session: id,
                    region,
                });
            }
            let id = ids[(seed % ids.len() as u64) as usize];
            let s = &self.sessions[&id];
            let op = match code {
                1 => {
                    self.sessions.remove(&id);
                    return self.journal(JournalRecord::Close { session: id });
                }
                2 => {
                    let sessions = self.sessions.iter().map(|(k, s)| s.snapshot(*k));
                    return self.journal(JournalRecord::Snapshot {
                        next_session: self.next_session,
                        sessions: sessions.collect(),
                    });
                }
                3..=5 => SessionOp::Insert(module(format!("m{seed}"), seed)),
                6 => SessionOp::Remove(seed % (s.placer().next_slot() + 1)),
                7 => SessionOp::Defrag,
                8 => SessionOp::Fault(fault(seed)),
                9 => match self.faults.get(&id) {
                    Some(faults) => SessionOp::ClearFault(faults[seed as usize % faults.len()]),
                    None => SessionOp::ClearFault(fault(seed)),
                },
                10 => SessionOp::Repair(
                    s.placer()
                        .plan_repair(Duration::from_secs(10), &FrameCostModel::default()),
                ),
                11 | 12 => {
                    if s.sched().is_none() {
                        self.apply(id, SessionOp::Sched(s.sched_open()))?;
                    }
                    let now = self.sessions[&id].sched().map_or(0, Scheduler::now);
                    let duration = 20 + seed % 400;
                    SessionOp::Sched(SchedOp::Submit {
                        task: TaskSpec {
                            module: module(format!("t{seed}"), seed / 7),
                            arrival: now + seed % 20,
                            duration,
                            deadline: Some(now + duration + 50 + seed % 400),
                            priority: (seed % 3) as u32,
                        },
                    })
                }
                13 => SessionOp::Sched(SchedOp::Cancel { task: 1 + seed % 6 }),
                _ => {
                    let now = s.sched().map_or(0, Scheduler::now);
                    SessionOp::Sched(SchedOp::Advance {
                        to: now + seed % 100,
                    })
                }
            };
            self.apply(id, op)
        }

        fn apply(&mut self, id: u64, op: SessionOp) -> Result<(), TestCaseError> {
            let applied = self.sessions.get_mut(&id).unwrap().apply(&op);
            match (&op, &applied) {
                (SessionOp::Fault(fault), Applied::Faulted(impact)) => {
                    self.faults.entry(id).or_default().push(*fault);
                    let displaced = self.displaced.entry(id).or_default();
                    displaced.extend(&impact.displaced);
                }
                (_, Applied::Repaired) => {
                    self.displaced.remove(&id);
                }
                _ => {}
            }
            match op.into_record(id, &applied) {
                Some(record) => self.journal(record),
                None => Ok(()),
            }
        }

        /// Append one record, then crash right after it: replaying the
        /// journal so far, and restoring each live session's snapshot,
        /// must both give back the live state.
        fn journal(&mut self, record: JournalRecord) -> Result<(), TestCaseError> {
            self.records.push(record);
            let replayed = replay(&self.records, &Tracer::default());
            prop_assert_eq!(replayed.errors, 0);
            prop_assert_eq!(replayed.next_session, self.next_session);
            let ids = |m: &BTreeMap<u64, Session>| m.keys().copied().collect::<Vec<_>>();
            prop_assert_eq!(ids(&replayed.sessions), ids(&self.sessions));
            for (id, live) in &self.sessions {
                let snapshot = live.snapshot(*id);
                let restored = Session::restore(snapshot.clone(), Tracer::default())
                    .map_err(TestCaseError::Fail)?;
                for recovered in [&replayed.sessions[id], &restored] {
                    prop_assert_eq!(recovered.snapshot(*id), snapshot.clone());
                    prop_assert_eq!(digests(recovered), digests(live));
                }
                self.check_sound(*id, live)?;
            }
            Ok(())
        }

        /// Every slot not displaced since the last repair passes `verify`;
        /// no two reservations overlap in space-time, and none sits on a
        /// faulted tile.
        fn check_sound(&self, id: u64, s: &Session) -> Result<(), TestCaseError> {
            let displaced = self.displaced.get(&id);
            let (modules, placements): (Vec<_>, Vec<_>) = (s.placer().slots().into_iter())
                .filter(|(slot, _, _)| !displaced.is_some_and(|d| d.contains(slot)))
                .enumerate()
                .map(|(i, (_, module, p))| (module.clone(), PlacedModule { module: i, ..*p }))
                .unzip();
            let region = s.placer().region();
            let violations = verify(region, &modules, &Floorplan::new(placements));
            prop_assert!(violations.is_empty(), "session {id}: {violations:?}");
            let reservations = s.sched().map_or(vec![], Scheduler::reservations);
            for (i, a) in reservations.iter().enumerate() {
                for t in a.rects.iter().flat_map(|r| r.tiles()) {
                    let faulted = region.is_faulted(t.x, t.y);
                    prop_assert!(!faulted, "task {} sits on faulted {t:?}", a.task);
                }
                for b in &reservations[i + 1..] {
                    let in_time = a.start < b.end && b.start < a.end;
                    let in_space = a
                        .rects
                        .iter()
                        .any(|p| b.rects.iter().any(|q| p.intersects(q)));
                    prop_assert!(
                        !(in_time && in_space),
                        "tasks {} and {} overlap",
                        a.task,
                        b.task
                    );
                }
            }
            Ok(())
        }
    }

    fn digests(s: &Session) -> (u64, Option<u64>) {
        (s.placer().grid_digest(), s.sched().map(Scheduler::digest))
    }

    fn run(steps: &[(u8, u64)]) -> Result<Model, TestCaseError> {
        let mut model = Model::new();
        for &(code, seed) in steps {
            model.step(code, seed)?;
        }
        Ok(model)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_crash_point_recovers_the_live_session(
            steps in proptest::collection::vec((0u8..16, 0u64..1_000_000), 1..60)
        ) {
            run(&steps)?;
        }
    }

    /// A fixed history whose journal holds every record kind, a defrag
    /// that is never compacted among them.
    #[test]
    fn model_journal_covers_every_record_kind() {
        let steps = [
            (0, 0),  // open
            (3, 4),  // insert a 2x2 at (0,0)
            (3, 5),  // insert
            (4, 13), // insert
            (6, 1),  // remove slot 1
            (7, 0),  // defrag
            (3, 7),  // insert
            (8, 32), // fault column 0
            (10, 0), // repair
            (9, 0),  // clear it
            (11, 3), // scheduler open, submit
            (14, 90),
            (13, 1), // cancel
            (2, 0),  // snapshot
            (0, 1),  // open
            (1, 1),  // close
        ];
        let model = run(&steps).unwrap();
        let kinds: BTreeSet<String> = (model.records.iter())
            .map(|r| {
                let line = serde_json::to_string(r).unwrap();
                line.split('"').nth(3).unwrap().to_string()
            })
            .collect();
        let every_kind = [
            "clear_fault",
            "close",
            "defrag",
            "fault",
            "insert",
            "open",
            "remove",
            "repair",
            "sched",
            "snapshot",
        ];
        assert_eq!(kinds, every_kind.iter().map(|k| k.to_string()).collect());
    }

    /// A session rebuilt from the journal or from a snapshot traces the
    /// scheduler's own records, as a live one does.
    #[test]
    fn recovered_sessions_trace_the_scheduler() {
        let region = region_spec(0);
        let mut live = Session::new(region.build().unwrap(), Tracer::default());
        let mut records = vec![JournalRecord::Open { session: 1, region }];
        let insert = SessionOp::Insert(module("a".into(), 4));
        let applied = live.apply(&insert);
        records.extend(insert.into_record(1, &applied));
        let open = SessionOp::Sched(live.sched_open());
        let applied = live.apply(&open);
        records.extend(open.into_record(1, &applied));
        let snapshot = live.snapshot(1);

        let sink = std::sync::Arc::new(rrf_trace::MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        let admits = || {
            (sink.lines().iter())
                .filter(|l| l.contains("\"sched.admit.result\""))
                .count()
        };
        let mut replayed = replay(&records, &tracer);
        assert_eq!(replayed.errors, 0);
        let restored = Session::restore(snapshot, tracer.clone()).unwrap();
        let submit = SessionOp::Sched(SchedOp::Submit {
            task: TaskSpec {
                module: module("t".into(), 0),
                arrival: 0,
                duration: 10,
                deadline: None,
                priority: 0,
            },
        });
        for mut session in [replayed.sessions.remove(&1).unwrap(), restored] {
            let before = admits();
            assert!(matches!(session.apply(&submit), Applied::Submitted(..)));
            assert_eq!(admits(), before + 1);
        }
    }
}
