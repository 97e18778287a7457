//! The on-disk journal format, pinned. `tests/expected/journal/` holds a
//! journal written by an earlier build of the daemon: one record of every
//! kind, a snapshot at its head and a defrag that was never compacted.
//! Next to it sit the replay summary that build reported and the snapshot
//! line its graceful shutdown compacted the replayed sessions to.
//! Committed journals must replay forever, so this one must keep replaying
//! to the same state, and every record must serialize back to the line it
//! was read from.

use std::collections::BTreeSet;
use std::path::PathBuf;

use rrf_server::journal::{Journal, JournalRecord, LoadedJournal};
use rrf_server::replay_summary;
use rrf_server::session::replay;
use rrf_trace::Tracer;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/expected/journal")
        .join(name)
}

fn load() -> LoadedJournal {
    let loaded = Journal::load(fixture("sessions.journal")).expect("fixture journal loads");
    assert!(!loaded.truncated, "the fixture journal loads in full");
    loaded
}

#[test]
fn fixture_journal_replays_to_its_recorded_summary() {
    let summary = replay_summary(&load().records);
    let mut text = format!(
        "next_session {}\nrecovery_errors {}\n",
        summary.next_session, summary.recovery_errors
    );
    for s in &summary.sessions {
        text.push_str(&format!(
            "session {} grid_digest {:016x} next_slot {} occupied_slots {} sched_digest {:016x}\n",
            s.session, s.grid_digest, s.next_slot, s.occupied_slots, s.sched_digest
        ));
    }
    let expected = std::fs::read_to_string(fixture("sessions.summary")).unwrap();
    assert_eq!(text, expected);
}

#[test]
fn fixture_records_serialize_back_to_their_lines() {
    let text = std::fs::read_to_string(fixture("sessions.journal")).unwrap();
    let records = load().records;
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), records.len());
    let mut kinds = BTreeSet::new();
    for (line, record) in lines.iter().zip(&records) {
        assert_eq!(serde_json::to_string(record).unwrap(), *line);
        let value: serde_json::Value = serde_json::from_str(line).unwrap();
        kinds.insert(value.get("op").unwrap().as_str().unwrap().to_string());
    }
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
    // The defrag is followed by records that depend on its outcome, so a
    // defrag that replays differently cannot go unnoticed.
    let defrag = records
        .iter()
        .position(|r| matches!(r, JournalRecord::Defrag { .. }))
        .unwrap();
    assert!(records[defrag + 1..]
        .iter()
        .any(|r| matches!(r, JournalRecord::Insert { .. })));
}

#[test]
fn fixture_replay_compacts_to_the_recorded_snapshot() {
    let replayed = replay(&load().records, &Tracer::default());
    assert_eq!(replayed.errors, 0);
    let snapshot = JournalRecord::Snapshot {
        next_session: replayed.next_session,
        sessions: (replayed.sessions.iter())
            .map(|(id, session)| session.snapshot(*id))
            .collect(),
    };
    let expected = std::fs::read_to_string(fixture("sessions.compacted.journal")).unwrap();
    assert_eq!(serde_json::to_string(&snapshot).unwrap() + "\n", expected);
}
