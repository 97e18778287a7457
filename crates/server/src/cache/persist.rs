//! Cache persistence: the `--cache-persist` NDJSON snapshot.
//!
//! A restarted daemon used to start cold: every spec solved in the
//! previous life was solved again. With a persist path, graceful
//! shutdown writes the cache as one NDJSON file — a versioned header
//! line followed by one line per entry — and startup warm-loads it.
//!
//! **Byte determinism.** The snapshot is a pure function of the cache's
//! *content*: entries are exported sorted by canonical key (never in
//! shard or hash order), each line is a fixed-field-order serde struct,
//! and nothing timing-dependent (timestamps, hit counts, recency, the
//! solver's own wall timings) is written. Two daemons holding the same
//! entries — whatever shard count they ran with, whatever order requests
//! arrived in — write identical bytes, which the determinism e2e diffs
//! directly.
//!
//! **Torn-tail tolerance.** Loading mirrors the journal's recovery rule:
//! read raw bytes line by line, stop at the first malformed, non-UTF-8,
//! or newline-less line, and keep everything before it. A crash while
//! writing (the write itself is temp-file + fsync + atomic rename, so
//! this takes a filesystem-level mangling), a truncated copy, or a
//! hand-edited file costs the tail, never the daemon: errors are counted
//! into `cache_load_errors` and the daemon starts with what was sound.
//! A version we do not understand loads nothing (forward compatibility
//! is not guessed at).

// Determinism: persisted cache snapshot bytes.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::time::Duration;

use rrf_flow::FlowReport;
use serde::{Deserialize, Serialize};

use super::CacheEntry;
use crate::protocol::PlaceMethod;

/// Snapshot format version; bump on any incompatible line-shape change.
pub const SNAPSHOT_VERSION: u64 = 1;

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    version: u64,
    /// Entry-line count that follows; a shorter file is a detected
    /// truncation, not a silently smaller cache.
    entries: u64,
}

/// One cached entry on disk. `budget` round-trips as microseconds so the
/// degraded-entry upgrade rule keeps working across restarts.
#[derive(Debug, Serialize, Deserialize)]
struct Record {
    key: String,
    method: PlaceMethod,
    budget_us: u64,
    report: FlowReport,
}

/// What a warm-load recovered.
#[derive(Debug, Default)]
pub struct LoadedSnapshot {
    /// Usable entries, in file (= key-sorted) order.
    pub entries: Vec<(String, CacheEntry)>,
    /// Defects encountered: 1 for a bad/torn header or unknown version,
    /// +1 for a bad/torn/missing tail of the entry lines.
    pub errors: u64,
}

/// Write `entries` (key-sorted, as [`super::ShardedCache::export`]
/// returns them) to `path` atomically: temp file, fsync, rename — a
/// crash mid-write leaves the previous snapshot intact.
pub fn save(path: impl AsRef<Path>, entries: &[(String, CacheEntry)]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut bytes = Vec::new();
    let header = Header {
        version: SNAPSHOT_VERSION,
        entries: entries.len() as u64,
    };
    bytes.extend_from_slice(
        serde_json::to_string(&header)
            .expect("header serializes infallibly")
            .as_bytes(),
    );
    bytes.push(b'\n');
    for (key, entry) in entries {
        // The report's solver stats embed wall timings — the one
        // timing-dependent part of a cached result. Scrub them so the
        // snapshot is a pure function of cache *content* and two runs
        // that solved the same specs write identical bytes.
        let mut report = entry.report.clone();
        report.stats.duration = Duration::ZERO;
        report.stats.time_to_best = Duration::ZERO;
        // A proven entry's budget never matters (`servable_within`
        // short-circuits on proof), so it is normalized away: two runs
        // that proved a spec under different deadlines write the same
        // bytes. A degraded entry's budget IS the upgrade bar and
        // persists as-is.
        let budget_us = if entry.is_proven() {
            0
        } else {
            entry.budget.as_micros() as u64
        };
        let record = Record {
            key: key.clone(),
            method: entry.method,
            budget_us,
            report,
        };
        bytes.extend_from_slice(
            serde_json::to_string(&record)
                .expect("record serializes infallibly")
                .as_bytes(),
        );
        bytes.push(b'\n');
    }
    let tmp_path = path.with_extension("tmp");
    {
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&bytes)?;
        tmp.sync_data()?;
    }
    std::fs::rename(&tmp_path, path)?;
    Ok(())
}

/// Read one raw line; `Ok(Some(str))` only for a complete (`\n`-ended)
/// valid-UTF-8 line, `Ok(None)` for EOF or a torn/undecodable tail.
fn next_line(reader: &mut impl BufRead, torn: &mut bool) -> std::io::Result<Option<String>> {
    let mut line = Vec::new();
    let n = reader.read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        *torn = true;
        return Ok(None);
    }
    match String::from_utf8(line) {
        Ok(text) => Ok(Some(text)),
        Err(_) => {
            *torn = true;
            Ok(None)
        }
    }
}

/// Load a snapshot. A missing or empty file is a clean cold start (no
/// errors); anything else yields every entry up to the first defect.
pub fn load(path: impl AsRef<Path>) -> std::io::Result<LoadedSnapshot> {
    let file = match File::open(path.as_ref()) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LoadedSnapshot::default()),
        Err(e) => return Err(e),
    };
    let mut reader = BufReader::new(file);
    let mut loaded = LoadedSnapshot::default();
    let mut torn = false;

    let header = match next_line(&mut reader, &mut torn)? {
        Some(line) => match serde_json::from_str::<Header>(line.trim_end()) {
            Ok(header) if header.version == SNAPSHOT_VERSION => header,
            _ => {
                // Unknown version or not a header at all: nothing after
                // it can be trusted.
                loaded.errors = 1;
                return Ok(loaded);
            }
        },
        None => {
            // Empty file = cold start; a torn header line = one defect.
            loaded.errors = u64::from(torn);
            return Ok(loaded);
        }
    };

    while loaded.entries.len() < header.entries as usize {
        let Some(line) = next_line(&mut reader, &mut torn)? else {
            break;
        };
        match serde_json::from_str::<Record>(line.trim_end()) {
            Ok(record) => loaded.entries.push((
                record.key,
                CacheEntry {
                    method: record.method,
                    report: record.report,
                    budget: Duration::from_micros(record.budget_us),
                },
            )),
            Err(_) => {
                torn = true;
                break;
            }
        }
    }
    // Fewer sound lines than the header promised — torn, malformed, or
    // plain missing — is one counted defect; the sound prefix loads.
    if loaded.entries.len() < header.entries as usize {
        loaded.errors += 1;
    } else {
        loaded.errors += u64::from(torn);
    }
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(budget_ms: u64) -> CacheEntry {
        CacheEntry {
            method: PlaceMethod::Infeasible,
            report: FlowReport {
                feasible: false,
                proven: false,
                extent: None,
                placements: vec![],
                metrics: None,
                stats: rrf_core::SolveStats::default(),
                floorplan: None,
            },
            budget: Duration::from_millis(budget_ms),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rrf_persist_{}_{name}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_entries_and_budgets() {
        let path = tmp("roundtrip");
        let entries = vec![
            ("alpha".to_string(), entry(120)),
            ("beta".to_string(), entry(7)),
        ];
        save(&path, &entries).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.errors, 0);
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.entries[0].0, "alpha");
        assert_eq!(loaded.entries[0].1.budget, Duration::from_millis(120));
        assert_eq!(loaded.entries[1].1.budget, Duration::from_millis(7));
        assert!(!loaded.entries[0].1.is_proven());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_is_byte_deterministic_and_scrubs_wall_timings() {
        let a = tmp("det_a");
        let b = tmp("det_b");
        let entries = vec![("k1".to_string(), entry(10)), ("k2".to_string(), entry(20))];
        // Same content but different solver wall timings — the one part
        // of a report that varies run to run — must not change a byte.
        let mut timed = entries.clone();
        timed[0].1.report.stats.duration = Duration::from_millis(417);
        timed[1].1.report.stats.time_to_best = Duration::from_millis(9);
        save(&a, &entries).unwrap();
        save(&b, &timed).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        let loaded = load(&b).unwrap();
        assert_eq!(loaded.entries[0].1.report.stats.duration, Duration::ZERO);

        // Proven entries also shed their (irrelevant, jittery) budgets:
        // the same proof reached with different arrival timing writes
        // the same bytes.
        let mut proven_a = vec![("p".to_string(), entry(9_999_805))];
        proven_a[0].1.method = PlaceMethod::Optimal;
        proven_a[0].1.report.feasible = true;
        proven_a[0].1.report.proven = true;
        let mut proven_b = proven_a.clone();
        proven_b[0].1.budget = Duration::from_micros(9_999_886);
        save(&a, &proven_a).unwrap();
        save(&b, &proven_b).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert_eq!(load(&a).unwrap().entries[0].1.budget, Duration::ZERO);
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn missing_and_empty_files_are_clean_cold_starts() {
        let loaded = load(tmp("never_written")).unwrap();
        assert_eq!(loaded.errors, 0);
        assert!(loaded.entries.is_empty());

        let path = tmp("empty");
        std::fs::write(&path, b"").unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.errors, 0);
        assert!(loaded.entries.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_version_loads_nothing_with_one_error() {
        let path = tmp("version");
        std::fs::write(&path, b"{\"version\":99,\"entries\":0}\n").unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.errors, 1);
        assert!(loaded.entries.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_keeps_the_sound_prefix() {
        let path = tmp("torn");
        let entries = vec![
            ("a".to_string(), entry(1)),
            ("b".to_string(), entry(2)),
            ("c".to_string(), entry(3)),
        ];
        save(&path, &entries).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut the final newline plus a few bytes: "c" becomes torn.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.errors, 1);
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.entries[1].0, "b");
        std::fs::remove_file(&path).unwrap();
    }
}
