//! Crash-safe session durability: an append-only NDJSON journal plus
//! whole-state snapshots.
//!
//! Every state-changing session op appends one [`JournalRecord`] line
//! *before* its response is sent, while the session's lock is held — so
//! the journal's per-session order is exactly the order the ops were
//! applied in. Records come from [`crate::session::SessionOp::into_record`],
//! and recovery ([`crate::session::replay`]) feeds each one back through
//! the same [`crate::session::Session::apply`] the live handler ran. Repair
//! is journaled as its state delta (a [`rrf_core::RepairReport`]), because
//! its plan depends on a wall-clock deadline; every other op, defrag
//! included, is journaled as its input and re-executed.
//!
//! A [`JournalRecord::Snapshot`] record resets the replay state wholesale;
//! compaction rewrites the journal as a single snapshot line (temp file +
//! fsync + atomic rename + directory fsync), which both bounds replay time
//! and truncates the file. The daemon compacts after every committed
//! defrag and once more at graceful shutdown.
//!
//! Torn tails are expected: a crash mid-append leaves a final partial
//! line. [`Journal::load`] accepts every complete record up to the first
//! malformed line and reports the valid byte length, so the recovering
//! daemon can truncate the torn tail and keep appending.

// Determinism: journal replay re-executes records through this module at
// recovery, and two replays of the same bytes must produce identical
// state.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use rrf_core::{Module, OnlineStats, PlacedModule, RepairReport};
use rrf_fabric::{Fault, Region};
use rrf_flow::{ModuleEntry, RegionSpec};
use rrf_sched::TaskSpec;
use serde::{Deserialize, Serialize};

/// One live slot inside a [`SessionSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotSnapshot {
    pub slot: u64,
    /// The module's name, for reporting after recovery.
    pub name: String,
    pub module: Module,
    pub placed: PlacedModule,
}

/// One deterministic scheduler operation (see `rrf-sched`). Because the
/// scheduler is a pure function of its op sequence, the complete ordered
/// list reconstructs clock, queue, and ledger bit-identically — which is
/// how both snapshots and journal replay restore schedule state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SchedOp {
    /// Scheduler creation: the session's region frozen at that moment —
    /// its fault set as of the open, plus the live slots' footprints
    /// added as static masks (the scheduler plans around them). Storing
    /// the whole region makes replay self-contained: later changes to
    /// the *session's* fault set cannot skew reconstruction.
    Open {
        region: Region,
    },
    Submit {
        task: TaskSpec,
    },
    Cancel {
        task: u64,
    },
    Advance {
        to: u64,
    },
    Fault {
        fault: Fault,
    },
    ClearFault {
        fault: Fault,
    },
}

/// The full durable state of one session: the region (carrying its fault
/// set), every live slot, and the counters. The occupancy grid is derived
/// state and is rebuilt on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    pub session: u64,
    pub region: Region,
    pub next_slot: u64,
    pub stats: OnlineStats,
    pub slots: Vec<SlotSnapshot>,
    /// The session scheduler's complete op history (empty when the
    /// session never scheduled); restore replays it.
    #[serde(default)]
    pub sched_ops: Vec<SchedOp>,
}

/// One journal line. On disk: `{"op":"insert","session":1,...}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum JournalRecord {
    /// A session was opened and assigned `session`.
    Open { session: u64, region: RegionSpec },
    /// An insert reached the placer; `slot` is its (deterministic)
    /// outcome, recorded so replay can detect divergence.
    Insert {
        session: u64,
        slot: Option<u64>,
        module: ModuleEntry,
    },
    /// A live slot was removed.
    Remove { session: u64, slot: u64 },
    /// A defrag ran (re-executed deterministically on replay).
    Defrag { session: u64 },
    /// A fault was injected into the session's region.
    Fault { session: u64, fault: Fault },
    /// A fault was cleared from the session's region.
    ClearFault { session: u64, fault: Fault },
    /// A repair pass ran; `report` is its complete state delta. Replay
    /// applies the delta instead of re-running the deadline-dependent
    /// search.
    Repair { session: u64, report: RepairReport },
    /// A scheduler operation was applied to the session (deterministic;
    /// re-executed on replay). For submits, `admitted` records the
    /// assigned task id so replay can detect divergence.
    Sched {
        session: u64,
        sched: SchedOp,
        #[serde(default)]
        admitted: Option<u64>,
    },
    /// A session was closed.
    Close { session: u64 },
    /// Compaction point: replay discards everything before this record
    /// and restores the embedded sessions wholesale.
    Snapshot {
        next_session: u64,
        sessions: Vec<SessionSnapshot>,
    },
}

impl JournalRecord {
    /// The session this record belongs to (`None` for snapshots).
    pub fn session(&self) -> Option<u64> {
        match *self {
            JournalRecord::Open { session, .. }
            | JournalRecord::Insert { session, .. }
            | JournalRecord::Remove { session, .. }
            | JournalRecord::Defrag { session }
            | JournalRecord::Fault { session, .. }
            | JournalRecord::ClearFault { session, .. }
            | JournalRecord::Repair { session, .. }
            | JournalRecord::Sched { session, .. }
            | JournalRecord::Close { session } => Some(session),
            JournalRecord::Snapshot { .. } => None,
        }
    }
}

/// Result of loading a journal file.
#[derive(Debug)]
pub struct LoadedJournal {
    /// Every complete record, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix; anything past it is a torn tail
    /// and should be truncated before appending resumes.
    pub valid_len: u64,
    /// Whether a torn/malformed tail was dropped.
    pub truncated: bool,
}

/// An open append-only journal with batched fsync.
pub struct Journal {
    file: File,
    path: PathBuf,
    /// fsync after every `fsync_every` appended records (1 = every
    /// record, the durable default; larger values trade the tail of the
    /// log for throughput).
    fsync_every: u64,
    unsynced: u64,
    appended: u64,
}

impl Journal {
    /// Open `path` for appending, creating it if missing. `truncate_to`
    /// cuts a torn tail first (pass [`LoadedJournal::valid_len`]).
    pub fn open(
        path: impl AsRef<Path>,
        fsync_every: u64,
        truncate_to: Option<u64>,
    ) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if let Some(len) = truncate_to {
            file.set_len(len)?;
        }
        Ok(Journal {
            file,
            path,
            fsync_every: fsync_every.max(1),
            unsynced: 0,
            appended: 0,
        })
    }

    /// Records appended through this handle (not counting pre-existing
    /// ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Append one record as an NDJSON line, fsyncing per the batch policy.
    pub fn append(&mut self, record: &JournalRecord) -> std::io::Result<()> {
        let mut line = serde_json::to_string(record).expect("journal records serialize infallibly");
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.appended += 1;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Flush any batched appends to disk.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Atomically replace the whole journal with `records`: write a temp
    /// file next to it, fsync, rename over, fsync the directory. A crash
    /// at any point leaves either the old journal or the new one — never
    /// a mix.
    pub fn rewrite(&mut self, records: &[JournalRecord]) -> std::io::Result<()> {
        let tmp_path = self.path.with_extension("journal.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            for record in records {
                let mut line =
                    serde_json::to_string(record).expect("journal records serialize infallibly");
                line.push('\n');
                tmp.write_all(line.as_bytes())?;
            }
            tmp.sync_data()?;
        }
        rename_durably(&tmp_path, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.file.sync_data()?;
        self.appended += records.len() as u64;
        self.unsynced = 0;
        Ok(())
    }

    /// Parse a journal file, tolerating a torn tail (see [`LoadedJournal`]).
    /// A missing file loads as empty.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<LoadedJournal> {
        let file = match File::open(path.as_ref()) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(LoadedJournal {
                    records: Vec::new(),
                    valid_len: 0,
                    truncated: false,
                })
            }
            Err(e) => return Err(e),
        };
        let mut reader = BufReader::new(file);
        let mut records = Vec::new();
        let mut valid_len = 0u64;
        let mut truncated = false;
        // Lines are read as raw bytes, not UTF-8 strings: a corrupted
        // byte with the high bit set must degrade to "stop at the last
        // good record", never to an unrecoverable I/O error.
        let mut line = Vec::new();
        loop {
            line.clear();
            let n = reader.read_until(b'\n', &mut line)?;
            if n == 0 {
                break;
            }
            if line.last() != Some(&b'\n') {
                // Torn tail: the last append never finished.
                truncated = true;
                break;
            }
            let parsed = std::str::from_utf8(&line)
                .ok()
                .and_then(|text| serde_json::from_str::<JournalRecord>(text.trim()).ok());
            match parsed {
                Some(record) => {
                    records.push(record);
                    valid_len += n as u64;
                }
                None => {
                    // A complete but unparseable (or non-UTF-8) line:
                    // corruption. Stop at the last good record rather
                    // than guess past it.
                    truncated = true;
                    break;
                }
            }
        }
        if truncated {
            // Anything after the valid prefix — the bad line and every
            // line behind it — is dropped.
            let mut rest = Vec::new();
            reader.seek(SeekFrom::Start(valid_len))?;
            reader.read_to_end(&mut rest)?;
            truncated = !rest.is_empty();
        }
        Ok(LoadedJournal {
            records,
            valid_len,
            truncated,
        })
    }
}

/// Rename the fsynced `tmp` over `path`, then fsync `path`'s directory:
/// POSIX makes a rename durable only once its directory is synced, and
/// until then a power loss may leave `path` naming the old file. Shared
/// by journal compaction and the cache snapshot.
pub(crate) fn rename_durably(tmp: &Path, path: &Path) -> std::io::Result<()> {
    std::fs::rename(tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrf_flow::DeviceSpec;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rrf-journal-test-{}-{name}", std::process::id()));
        p
    }

    fn region_spec() -> RegionSpec {
        RegionSpec {
            device: DeviceSpec::Homogeneous {
                width: 8,
                height: 4,
            },
            bounds: None,
            static_masks: vec![],
        }
    }

    #[test]
    fn append_load_roundtrip() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            JournalRecord::Open {
                session: 1,
                region: region_spec(),
            },
            JournalRecord::Fault {
                session: 1,
                fault: Fault::Column { x: 3 },
            },
            JournalRecord::Close { session: 1 },
        ];
        {
            let mut journal = Journal::open(&path, 1, None).unwrap();
            for r in &records {
                journal.append(r).unwrap();
            }
            assert_eq!(journal.appended(), 3);
        }
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.records, records);
        assert!(!loaded.truncated);
        assert_eq!(loaded.valid_len, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncatable() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut journal = Journal::open(&path, 1, None).unwrap();
            journal
                .append(&JournalRecord::Open {
                    session: 1,
                    region: region_spec(),
                })
                .unwrap();
        }
        // Simulate a crash mid-append: a partial line with no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"op\":\"insert\",\"ses").unwrap();
        }
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert!(loaded.truncated);
        // Reopening with the valid length cuts the torn tail; appends are
        // clean again.
        let mut journal = Journal::open(&path, 1, Some(loaded.valid_len)).unwrap();
        journal
            .append(&JournalRecord::Close { session: 1 })
            .unwrap();
        drop(journal);
        let reloaded = Journal::load(&path).unwrap();
        assert_eq!(reloaded.records.len(), 2);
        assert!(!reloaded.truncated);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_middle_line_stops_replay_at_last_good_record() {
        let path = tmp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut f = File::create(&path).unwrap();
            let good = serde_json::to_string(&JournalRecord::Open {
                session: 1,
                region: region_spec(),
            })
            .unwrap();
            writeln!(f, "{good}").unwrap();
            writeln!(f, "not json at all").unwrap();
            writeln!(f, "{good}").unwrap();
        }
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 1, "stop at the corruption");
        assert!(loaded.truncated);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rewrite_replaces_content_atomically() {
        let path = tmp_path("rewrite");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open(&path, 1, None).unwrap();
        for _ in 0..5 {
            journal
                .append(&JournalRecord::Defrag { session: 1 })
                .unwrap();
        }
        let snapshot = JournalRecord::Snapshot {
            next_session: 2,
            sessions: vec![],
        };
        journal.rewrite(std::slice::from_ref(&snapshot)).unwrap();
        // Appends continue after the rewrite on the new file.
        journal
            .append(&JournalRecord::Close { session: 1 })
            .unwrap();
        drop(journal);
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[0], snapshot);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_batching_still_writes_every_record() {
        let path = tmp_path("batch");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open(&path, 8, None).unwrap();
        for i in 0..5 {
            journal
                .append(&JournalRecord::Remove {
                    session: 1,
                    slot: i,
                })
                .unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_record_roundtrips_with_full_session_state() {
        use rrf_fabric::{device, Rect};
        use rrf_geost::{ShapeDef, ShiftedBox};

        let mut region = Region::whole(device::homogeneous(6, 4));
        region.inject_fault(Fault::Tile { x: 1, y: 1 });
        let module = Module::new(
            "m",
            vec![ShapeDef::new(vec![ShiftedBox::new(
                0,
                0,
                2,
                2,
                rrf_fabric::ResourceKind::Clb,
            )])],
        );
        let record = JournalRecord::Snapshot {
            next_session: 7,
            sessions: vec![SessionSnapshot {
                session: 3,
                region,
                next_slot: 2,
                stats: OnlineStats {
                    requests: 2,
                    accepted: 1,
                    ..OnlineStats::default()
                },
                slots: vec![SlotSnapshot {
                    slot: 1,
                    name: "m".to_string(),
                    module,
                    placed: PlacedModule {
                        module: 0,
                        shape: 0,
                        x: 2,
                        y: 0,
                    },
                }],
                sched_ops: vec![
                    SchedOp::Open {
                        region: {
                            let mut r = Region::whole(device::homogeneous(6, 4));
                            r.add_static_mask(Rect::new(2, 0, 2, 2));
                            r
                        },
                    },
                    SchedOp::Advance { to: 100 },
                ],
            }],
        };
        let json = serde_json::to_string(&record).unwrap();
        let back: JournalRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn sched_records_roundtrip_and_old_snapshots_still_parse() {
        use rrf_fabric::ResourceKind;
        use rrf_geost::{ShapeDef, ShiftedBox};

        let record = JournalRecord::Sched {
            session: 2,
            sched: SchedOp::Submit {
                task: TaskSpec {
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
                    arrival: 0,
                    duration: 50,
                    deadline: Some(400),
                    priority: 1,
                },
            },
            admitted: Some(1),
        };
        let json = serde_json::to_string(&record).unwrap();
        assert!(json.starts_with(r#"{"op":"sched""#));
        assert_eq!(
            serde_json::from_str::<JournalRecord>(&json).unwrap(),
            record
        );

        // A snapshot written before the scheduler existed has no
        // `sched_ops` field; it must still load (empty history).
        let old = r#"{"session":1,"region":{"fabric":X,"bounds":null},
            "next_slot":1,"stats":{},"slots":[]}"#;
        let _ = old; // the region's JSON shape is covered elsewhere; here
                     // we only check the field default on a direct value.
        let snap = SessionSnapshot {
            session: 1,
            region: Region::whole(rrf_fabric::device::homogeneous(4, 2)),
            next_slot: 1,
            stats: OnlineStats::default(),
            slots: vec![],
            sched_ops: vec![],
        };
        let mut v = serde_json::to_string(&snap).unwrap();
        // Strip the sched_ops field to simulate the old on-disk form.
        v = v.replace(r#","sched_ops":[]"#, "");
        let back: SessionSnapshot = serde_json::from_str(&v).unwrap();
        assert_eq!(back, snap);
    }
}
