//! Journal torn-tail robustness: build a real journal by driving an
//! in-process daemon through every record-producing operation, then
//! prove that **every byte-offset prefix** of that file loads without a
//! panic and replays to a bit-identical prefix of the original history
//! (with zero recovery errors — a clean prefix of valid history is
//! valid history). A proptest then flips arbitrary bytes anywhere in
//! the file and demands load + replay still never panic: corruption may
//! cost records past the damage, never the process.

use std::io::Write as _;

use proptest::prelude::*;
use rrf_fabric::{Fault, ResourceKind};
use rrf_flow::{DeviceSpec, ModuleEntry, RegionSpec};
use rrf_geost::{ShapeDef, ShiftedBox};
use rrf_sched::TaskSpec;
use rrf_server::journal::Journal;
use rrf_server::{
    replay_summary, start, JournalRecord, Request, Response, ServerConfig, ServerStats,
};

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::Duration;

fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &Request,
) -> Response {
    let mut line = serde_json::to_string(request).unwrap();
    line.push('\n');
    writer.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read response");
    serde_json::from_str(reply.trim()).expect("parse response")
}

fn clb_module(name: &str, w: i32, h: i32) -> ModuleEntry {
    ModuleEntry {
        name: name.into(),
        shapes: vec![ShapeDef::new(vec![ShiftedBox::new(
            0,
            0,
            w,
            h,
            ResourceKind::Clb,
        )])],
        netlist: None,
    }
}

/// Drive an in-process journaled daemon through a defrag first — its
/// compaction leaves one `snapshot` line, holding a session with a live
/// slot, at the head of the file — then an open, inserts, a removal,
/// fault + repair + clear, a scheduler submit, and a session close, and
/// return the raw journal bytes as they sat on disk mid-flight. The bytes
/// hold one record of every kind but `defrag`, which its own compaction
/// folds away at once (the session model test in `session.rs` and the
/// committed fixture journal replay uncompacted defrag records). Built
/// once and shared: every test (and every proptest case) mutilates copies
/// of the same history.
fn journal_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(build_journal_bytes)
}

fn build_journal_bytes() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("rrf_journal_props_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("build.journal");
    let _ = std::fs::remove_file(&path);

    let handle = start(ServerConfig {
        workers: 1,
        journal_path: Some(path.to_str().unwrap().to_string()),
        journal_fsync_every: 1,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut rt = |request: &Request| roundtrip(&mut reader, &mut writer, request);

    let region = RegionSpec {
        device: DeviceSpec::Homogeneous {
            width: 10,
            height: 4,
        },
        bounds: None,
        static_masks: vec![],
    };
    let open = |rt: &mut dyn FnMut(&Request) -> Response, id: u64, region: RegionSpec| match rt(
        &Request::OpenSession { id, region },
    ) {
        Response::SessionOpened { session, .. } => session,
        other => panic!("expected session, got {other:?}"),
    };
    let s1 = open(&mut rt, 1, region.clone());
    assert!(matches!(
        rt(&Request::Insert {
            id: 2,
            session: s1,
            module: clb_module("pre", 2, 2),
        }),
        Response::Inserted { slot: Some(0), .. }
    ));
    assert!(matches!(
        rt(&Request::Defrag { id: 3, session: s1 }),
        Response::Defragged { .. }
    ));
    let s2 = open(&mut rt, 4, region);

    let mut slots = Vec::new();
    for (i, (w, h)) in [(4, 2), (2, 2), (3, 2)].into_iter().enumerate() {
        match rt(&Request::Insert {
            id: 10 + i as u64,
            session: s2,
            module: clb_module(&format!("m{i}"), w, h),
        }) {
            Response::Inserted {
                slot: Some(slot), ..
            } => slots.push(slot),
            other => panic!("expected accepted insert, got {other:?}"),
        }
    }
    assert!(matches!(
        rt(&Request::Remove {
            id: 20,
            session: s2,
            slot: slots[1],
        }),
        Response::Removed { removed: true, .. }
    ));
    let fault = Fault::Rect {
        x: 0,
        y: 0,
        w: 1,
        h: 2,
    };
    assert!(matches!(
        rt(&Request::InjectFault {
            id: 22,
            session: s2,
            fault,
        }),
        Response::FaultInjected { .. }
    ));
    assert!(matches!(
        rt(&Request::Repair {
            id: 23,
            session: s2,
            budget_ms: Some(200),
        }),
        Response::Repaired { .. }
    ));
    assert!(matches!(
        rt(&Request::ClearFault {
            id: 24,
            session: s2,
            fault,
        }),
        Response::FaultCleared { .. }
    ));
    assert!(matches!(
        rt(&Request::SubmitTask {
            id: 25,
            session: s1,
            task: TaskSpec {
                module: clb_module("job", 2, 2),
                arrival: 0,
                duration: 8,
                deadline: Some(100),
                priority: 1,
            },
        }),
        Response::TaskSubmitted { task: Some(_), .. }
    ));
    assert!(matches!(
        rt(&Request::CloseSession {
            id: 26,
            session: s1
        }),
        Response::SessionClosed { .. }
    ));

    // fsync-every=1: every answered request above is already durable.
    // Read the bytes *before* shutdown — the graceful path would compact
    // the whole history down to one snapshot line.
    let bytes = std::fs::read(&path).expect("read journal");
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    assert!(!bytes.is_empty(), "journal must have content");
    bytes
}

fn load_from_bytes(scratch: &std::path::Path, bytes: &[u8]) -> rrf_server::journal::LoadedJournal {
    let mut file = std::fs::File::create(scratch).expect("create scratch journal");
    file.write_all(bytes).expect("write scratch journal");
    drop(file);
    Journal::load(scratch).expect("load never errors on existing file")
}

/// Exhaustive torn-tail sweep: truncate the journal at *every* byte
/// offset. Load must succeed, the recovered records must be exactly a
/// prefix of the untruncated history, the reported `valid_len` must sit
/// on a line boundary within the cut, and replay must be panic-free with
/// zero recovery errors.
#[test]
fn every_byte_truncation_recovers_a_clean_prefix() {
    let bytes = journal_bytes();
    let scratch = std::env::temp_dir().join(format!(
        "rrf_journal_props_trunc_{}.journal",
        std::process::id()
    ));

    let full = load_from_bytes(&scratch, bytes);
    assert!(!full.truncated, "pristine journal must load in full");
    assert_eq!(full.valid_len, bytes.len() as u64);
    let baseline = replay_summary(&full.records);
    assert_eq!(baseline.recovery_errors, 0);
    assert!(!baseline.sessions.is_empty());
    // The sweep covers one record of every kind but `defrag`.
    let kinds: std::collections::BTreeSet<String> = (full.records.iter())
        .map(|r| {
            serde_json::to_string(r)
                .unwrap()
                .split('"')
                .nth(3)
                .unwrap()
                .to_string()
        })
        .collect();
    let expected = [
        "clear_fault",
        "close",
        "fault",
        "insert",
        "open",
        "remove",
        "repair",
        "sched",
        "snapshot",
    ];
    assert_eq!(kinds, expected.iter().map(|k| k.to_string()).collect());

    for cut in 0..=bytes.len() {
        let loaded = load_from_bytes(&scratch, &bytes[..cut]);
        let n = loaded.records.len();
        assert!(
            n <= full.records.len() && loaded.records[..] == full.records[..n],
            "offset {cut}: recovered records are not a prefix"
        );
        assert!(
            loaded.valid_len <= cut as u64,
            "offset {cut}: valid_len past the cut"
        );
        assert!(
            loaded.valid_len == 0 || bytes[loaded.valid_len as usize - 1] == b'\n',
            "offset {cut}: valid_len not on a line boundary"
        );
        assert_eq!(
            loaded.truncated,
            loaded.valid_len < cut as u64,
            "offset {cut}: truncation flag disagrees with dropped bytes"
        );
        let summary = replay_summary(&loaded.records);
        assert_eq!(
            summary.recovery_errors, 0,
            "offset {cut}: a clean prefix of valid history replayed with errors"
        );
        // Replay is deterministic: the same prefix summarizes identically.
        assert_eq!(summary, replay_summary(&loaded.records));
        if cut == bytes.len() {
            assert_eq!(summary, baseline);
        }
    }
    let _ = std::fs::remove_file(&scratch);
}

/// Corrupt one byte and check that load keeps every record on the lines
/// before it and that replay does not panic. Records past the damage may
/// be garbage history, which replay must absorb as `recovery_errors`.
fn check_flip(offset: usize, flip: u8) -> Result<(), TestCaseError> {
    let bytes = journal_bytes();
    let mut damaged = bytes.to_vec();
    damaged[offset] ^= flip;

    let scratch = std::env::temp_dir().join(format!(
        "rrf_journal_props_flip_{}_{offset}_{flip}.journal",
        std::process::id()
    ));
    let full = load_from_bytes(&scratch, bytes);
    let damaged_loaded = load_from_bytes(&scratch, &damaged);
    let _ = std::fs::remove_file(&scratch);

    // Records on lines wholly before the damaged byte are intact.
    let intact_lines = bytes[..offset].iter().filter(|&&b| b == b'\n').count();
    prop_assert!(damaged_loaded.records.len() >= intact_lines.min(full.records.len()));
    for (a, b) in damaged_loaded
        .records
        .iter()
        .take(intact_lines)
        .zip(&full.records)
    {
        prop_assert_eq!(a, b);
    }
    let _ = replay_summary(&damaged_loaded.records);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary single-byte corruption anywhere in the journal: load
    /// and replay must never panic.
    #[test]
    fn byte_flips_never_panic_load_or_replay(offset_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let offset = ((journal_bytes().len() - 1) as f64 * offset_frac) as usize;
        check_flip(offset, flip)?;
    }
}

/// Start a daemon on `bytes` as its journal and return its stats: a
/// journal that parses but does not fit its sessions must still boot.
fn boot_stats(name: &str, bytes: &[u8]) -> ServerStats {
    let path = std::env::temp_dir().join(format!(
        "rrf_journal_props_boot_{}_{name}.journal",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let handle = start(ServerConfig {
        workers: 1,
        journal_path: Some(path.to_str().unwrap().to_string()),
        ..ServerConfig::default()
    })
    .expect("daemon boots on a damaged journal");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let stats = match roundtrip(&mut reader, &mut writer, &Request::Stats { id: 1 }) {
        Response::Stats { stats, .. } => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
    stats
}

/// Flips that keep a record parseable but make it not fit its session —
/// fixed cases of the byte-flip property: a repair that moves a slot that
/// is not live (`"moved":[{"slot":0` becomes 7), an inserted module and a
/// submitted task with a box of no area (`"w":4` and `"w":2` become 0),
/// and a snapshot whose fabric width no longer matches its tile list (10
/// becomes 20). Replay counts each as a recovery error instead of
/// panicking, and the daemon boots on it.
#[test]
fn parseable_flips_that_do_not_fit_are_recovery_errors() {
    let bytes = journal_bytes();
    let cases: [(&str, &[u8], u8, u8); 4] = [
        ("repair", b"\"moved\":[{\"slot\":", b'0', 0x07),
        (
            "insert",
            b"\"m0\",\"shapes\":[{\"boxes\":[{\"dx\":0,\"dy\":0,\"w\":",
            b'4',
            0x04,
        ),
        (
            "task",
            b"\"job\",\"shapes\":[{\"boxes\":[{\"dx\":0,\"dy\":0,\"w\":",
            b'2',
            0x02,
        ),
        ("fabric", b"\"fabric\":{\"width\":", b'1', 0x03),
    ];
    for (name, key, byte, flip) in cases {
        let at = bytes
            .windows(key.len())
            .position(|w| w == key)
            .unwrap_or_else(|| panic!("{name}: the journal holds the key"))
            + key.len();
        assert_eq!(bytes[at], byte, "{name}");
        check_flip(at, flip).unwrap();

        let mut damaged = bytes.to_vec();
        damaged[at] ^= flip;
        let scratch = std::env::temp_dir().join(format!(
            "rrf_journal_props_{name}_{}.journal",
            std::process::id()
        ));
        let records = load_from_bytes(&scratch, &damaged).records;
        let _ = std::fs::remove_file(&scratch);
        assert!(replay_summary(&records).recovery_errors >= 1, "{name}");
        assert!(boot_stats(name, &damaged).recovery_errors >= 1, "{name}");
    }
}

/// A snapshot whose slot names a design alternative its module lacks:
/// restore refuses the session and counts it, and the daemon boots.
#[test]
fn snapshot_slot_with_an_unknown_shape_is_a_recovery_error() {
    let bytes = journal_bytes();
    let head = bytes.iter().position(|&b| b == b'\n').unwrap();
    let line = std::str::from_utf8(&bytes[..head]).unwrap();
    let mut snapshot: JournalRecord = serde_json::from_str(line).unwrap();
    let JournalRecord::Snapshot { sessions, .. } = &mut snapshot else {
        panic!("the journal starts with a snapshot");
    };
    assert_eq!(sessions[0].slots[0].module.num_shapes(), 1);
    sessions[0].slots[0].placed.shape = 3;
    let mut damaged = serde_json::to_string(&snapshot).unwrap().into_bytes();
    damaged.extend_from_slice(&bytes[head..]);

    let scratch = std::env::temp_dir().join(format!(
        "rrf_journal_props_snapshot_{}.journal",
        std::process::id()
    ));
    let records = load_from_bytes(&scratch, &damaged).records;
    assert_eq!(
        records.len(),
        load_from_bytes(&scratch, bytes).records.len()
    );
    let _ = std::fs::remove_file(&scratch);
    let summary = replay_summary(&records);
    assert!(summary.recovery_errors >= 1);
    assert!(summary.sessions.iter().all(|s| s.session != 1));
    assert!(boot_stats("snapshot", &damaged).recovery_errors >= 1);
}
