//! The lock-striped sharded placement cache.
//!
//! The cache used to be one `Mutex<PlacementCache>`: every probe and
//! every write-back from every worker serialized on a single lock. Here
//! the key space is striped across N independently locked shards, so
//! concurrent requests for *different* specs never contend (requests for
//! the same spec are coalesced upstream by [`super::singleflight`]
//! instead of racing).
//!
//! Shard selection hashes the canonical key with FNV-1a — a fixed,
//! platform-independent function, deliberately not `DefaultHasher`
//! (whose per-process random seed would make shard assignment, and with
//! it eviction behavior and the persisted snapshot's content, vary run
//! to run). Each shard is an LRU over a `BTreeMap` (ordered iteration,
//! so exports never depend on hash order) with its own hit/miss/
//! insertion/eviction counters, surfaced through `stats_detail`.

// Determinism: shard assignment (FNV-1a, fixed) must agree across runs.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::BTreeMap;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use super::CacheEntry;

/// FNV-1a over the key bytes: deterministic across runs and platforms,
/// which keeps shard assignment — and therefore per-shard LRU eviction —
/// a pure function of the request sequence.
fn fnv1a(key: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in key.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Outcome of one cache probe.
#[derive(Debug)]
pub enum Probe {
    /// A servable entry (proven, or at least as much budget as the
    /// request has — see [`CacheEntry::servable_within`]); LRU-bumped.
    /// Boxed: a `CacheEntry` dwarfs the other variants.
    Served(Box<CacheEntry>),
    /// An entry exists but is degraded and the request has more budget:
    /// the caller recomputes and overwrites it (counted as a miss, the
    /// entry's recency deliberately not bumped — it is about to die).
    Degraded,
    /// No entry under this key.
    Miss,
}

struct Slot {
    entry: CacheEntry,
    /// Logical recency stamp from the shard's `tick`; the eviction
    /// victim is the slot with the smallest stamp.
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: BTreeMap<String, Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Shard {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Per-shard counter snapshot in a `stats_detail` reply.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardDetail {
    pub entries: u64,
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
}

/// The cache block of a `stats_detail` reply: totals across shards, the
/// per-shard breakdown (lock-contention skew shows up as uneven rows),
/// and the coalescing/persistence counters the handler fills in from
/// [`super::SingleFlight`] and the startup warm-load.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheDetail {
    pub shards: u64,
    /// Total capacity in entries (per-shard capacity × shard count; the
    /// configured capacity rounds up to a multiple of the shard count).
    pub capacity: u64,
    pub entries: u64,
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub per_shard: Vec<ShardDetail>,
    /// Requests that joined another request's in-flight solve.
    pub coalesced_joins: u64,
    /// In-flight solves whose result was shared with at least one joiner.
    pub coalesced_leader_solves: u64,
    /// Joiners that gave up waiting (answered `overloaded`, retry-safe).
    pub coalesce_timeouts: u64,
    /// Entries warm-loaded from the `--cache-persist` snapshot.
    pub persist_loaded: u64,
    /// Snapshot lines the warm-load could not use (torn tail, bad
    /// version, short file) — loading stops at the last good record.
    pub load_errors: u64,
}

/// N independently locked LRU shards over canonical cache keys.
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl ShardedCache {
    /// `capacity` is the total entry budget; it is split evenly across
    /// `shards` stripes, rounding each stripe up to at least one entry.
    pub fn new(capacity: usize, shards: usize) -> ShardedCache {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.max(1).div_ceil(shards);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
        }
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize]
    }

    /// Look up `key` for a request that declares `budget`, bumping the
    /// entry's recency and the shard's counters. Only the owning shard's
    /// lock is taken, and only for the duration of the map operation.
    pub fn probe(&self, key: &str, budget: Duration) -> Probe {
        let mut shard = self.shard_of(key).lock();
        let tick = shard.next_tick();
        match shard.entries.get_mut(key) {
            Some(slot) if slot.entry.servable_within(budget) => {
                slot.last_used = tick;
                let entry = slot.entry.clone();
                shard.hits += 1;
                Probe::Served(Box::new(entry))
            }
            Some(_) => {
                shard.misses += 1;
                Probe::Degraded
            }
            None => {
                shard.misses += 1;
                Probe::Miss
            }
        }
    }

    /// Insert (or overwrite) an entry, evicting the shard's
    /// least-recently-used slot when the stripe overflows. Returns the
    /// evicted key, if any — the freshly inserted entry is never the
    /// victim (it holds the newest recency stamp).
    pub fn insert(&self, key: String, entry: CacheEntry) -> Option<String> {
        let mut shard = self.shard_of(&key).lock();
        let tick = shard.next_tick();
        let existed = shard
            .entries
            .insert(
                key,
                Slot {
                    entry,
                    last_used: tick,
                },
            )
            .is_some();
        shard.insertions += 1;
        if !existed && shard.entries.len() > self.per_shard_capacity {
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                shard.entries.remove(&victim);
                shard.evictions += 1;
                return Some(victim);
            }
        }
        None
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evictions across all shards (the `stats` gauge).
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().evictions).sum()
    }

    /// Every entry, sorted by key — the persistence snapshot's source.
    /// Sorting across shards (each already BTreeMap-ordered) makes the
    /// export independent of the shard count, so a snapshot written with
    /// `--cache-shards 8` warm-loads identically under `--cache-shards 1`.
    pub fn export(&self) -> Vec<(String, CacheEntry)> {
        let mut entries: Vec<(String, CacheEntry)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.lock();
            for (key, slot) in &shard.entries {
                entries.push((key.clone(), slot.entry.clone()));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Counter snapshot for `stats_detail` (coalescing and persistence
    /// fields are filled in by the handler, which owns those sources).
    pub fn detail(&self) -> CacheDetail {
        let mut detail = CacheDetail {
            shards: self.shards.len() as u64,
            capacity: (self.per_shard_capacity * self.shards.len()) as u64,
            ..CacheDetail::default()
        };
        for shard in &self.shards {
            let shard = shard.lock();
            let row = ShardDetail {
                entries: shard.entries.len() as u64,
                hits: shard.hits,
                misses: shard.misses,
                insertions: shard.insertions,
                evictions: shard.evictions,
            };
            detail.entries += row.entries;
            detail.hits += row.hits;
            detail.misses += row.misses;
            detail.insertions += row.insertions;
            detail.evictions += row.evictions;
            detail.per_shard.push(row);
        }
        detail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PlaceMethod;
    use rrf_flow::FlowReport;

    fn entry(proven: bool, budget_ms: u64) -> CacheEntry {
        CacheEntry {
            method: if proven {
                PlaceMethod::Optimal
            } else {
                PlaceMethod::BottomLeft
            },
            report: FlowReport {
                feasible: true,
                proven,
                extent: None,
                placements: vec![],
                metrics: None,
                stats: rrf_core::SolveStats::default(),
                floorplan: None,
            },
            budget: Duration::from_millis(budget_ms),
        }
    }

    #[test]
    fn fnv1a_is_pinned() {
        // The persisted snapshot and the reference-model proptest both
        // assume this exact function; a change is a behavior change.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        // One shard, capacity 2: probing "a" keeps it alive, so inserting
        // "c" evicts "b" — FIFO would have evicted "a".
        let cache = ShardedCache::new(2, 1);
        assert!(cache.insert("a".into(), entry(true, 10)).is_none());
        assert!(cache.insert("b".into(), entry(true, 10)).is_none());
        assert!(matches!(
            cache.probe("a", Duration::from_secs(1)),
            Probe::Served(_)
        ));
        let evicted = cache.insert("c".into(), entry(true, 10));
        assert_eq!(evicted.as_deref(), Some("b"));
        assert!(matches!(
            cache.probe("a", Duration::from_secs(1)),
            Probe::Served(_)
        ));
        assert!(matches!(cache.probe("b", Duration::ZERO), Probe::Miss));
    }

    #[test]
    fn overwrite_never_evicts() {
        let cache = ShardedCache::new(2, 1);
        cache.insert("a".into(), entry(false, 50));
        cache.insert("b".into(), entry(true, 10));
        // Budget upgrade: overwriting "a" must not push anything out.
        assert!(cache.insert("a".into(), entry(true, 500)).is_none());
        assert_eq!(cache.len(), 2);
        // And the upgraded entry is the one served now.
        match cache.probe("a", Duration::from_secs(1)) {
            Probe::Served(e) => assert!(e.report.proven),
            other => panic!("expected upgraded hit, got {other:?}"),
        }
    }

    #[test]
    fn degraded_probe_reports_bypass() {
        let cache = ShardedCache::new(4, 2);
        cache.insert("k".into(), entry(false, 100));
        assert!(matches!(
            cache.probe("k", Duration::from_millis(100)),
            Probe::Served(_)
        ));
        assert!(matches!(
            cache.probe("k", Duration::from_millis(200)),
            Probe::Degraded
        ));
        let d = cache.detail();
        assert_eq!((d.hits, d.misses), (1, 1));
    }

    #[test]
    fn capacity_splits_across_shards_rounding_up() {
        // 5 entries over 4 shards → 2 per shard → 8 total capacity.
        let cache = ShardedCache::new(5, 4);
        assert_eq!(cache.detail().capacity, 8);
        assert_eq!(cache.detail().shards, 4);
        // Zero-capacity and zero-shard configs clamp to 1, like the old
        // single-map cache did.
        assert_eq!(ShardedCache::new(0, 0).detail().capacity, 1);
    }

    #[test]
    fn export_is_key_sorted_and_shard_count_invariant() {
        let keys = ["delta", "alpha", "echo", "bravo", "charlie"];
        let sharded = ShardedCache::new(16, 4);
        let single = ShardedCache::new(16, 1);
        for key in keys {
            sharded.insert(key.into(), entry(true, 10));
            single.insert(key.into(), entry(true, 10));
        }
        let order: Vec<String> = sharded.export().into_iter().map(|(k, _)| k).collect();
        assert_eq!(order, ["alpha", "bravo", "charlie", "delta", "echo"]);
        let singles: Vec<String> = single.export().into_iter().map(|(k, _)| k).collect();
        assert_eq!(order, singles);
    }

    #[test]
    fn detail_totals_tile_per_shard_rows() {
        let cache = ShardedCache::new(8, 4);
        for i in 0..20 {
            cache.insert(format!("key-{i}"), entry(true, 10));
        }
        for i in 0..20 {
            let _ = cache.probe(&format!("key-{i}"), Duration::from_secs(1));
        }
        let d = cache.detail();
        assert_eq!(d.insertions, 20);
        assert_eq!(d.hits + d.misses, 20);
        assert_eq!(d.entries, cache.len() as u64);
        assert_eq!(d.evictions, cache.evictions());
        for (total, per) in [
            (
                d.entries,
                d.per_shard.iter().map(|s| s.entries).sum::<u64>(),
            ),
            (d.hits, d.per_shard.iter().map(|s| s.hits).sum()),
            (d.misses, d.per_shard.iter().map(|s| s.misses).sum()),
            (d.evictions, d.per_shard.iter().map(|s| s.evictions).sum()),
        ] {
            assert_eq!(total, per);
        }
        // Capacity 8 over 20 distinct keys: evictions must have happened
        // and the resident set respects the per-shard bound.
        assert!(d.evictions >= 12);
        assert!(d.entries <= d.capacity);
    }
}
