//! Single-flight coalescing of identical in-flight solves.
//!
//! A duplicate burst — M concurrent `place` requests with the same
//! canonical key — used to run the solver M times: each request missed
//! the cache (the first insert only lands after its solve), so the
//! daemon paid M solver budgets for one answer. Here the first miss
//! becomes the *leader* and registers a flight; later misses on the same
//! key *join* it and block until the leader publishes, receiving the one
//! result.
//!
//! Joining respects the degraded-entry budget-upgrade rule (see
//! [`CacheEntry::servable_within`]): a flight records the leader's
//! declared budget at registration, and only requests declaring *no more*
//! budget than that join — the leader's (possibly degraded) answer is
//! then at least as good as anything their own budget could have bought.
//! A roomier request runs **solo**: it solves independently, without
//! registering (the flight table holds one flight per key), and its
//! write-back upgrades the cache entry as usual.
//!
//! Failure safety: the leader holds a [`FlightGuard`] that publishes
//! `None` on drop, so every early return — spec errors, verify
//! violations, even a handler panic unwinding through the worker's
//! `catch_unwind` — wakes the joiners. They then solve for themselves
//! rather than re-coalescing (a deterministic failure would loop). A
//! joiner whose wait exceeds its own deadline plus slack answers
//! `overloaded` (retry-safe: its request never touched any state), which
//! the `rrf-client` retry loop handles like any other shed.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "coalescing is concurrency machinery: which request leads a flight is \
              timing-dependent by design, and no byte-bearing output derives from it"
)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use super::CacheEntry;

/// What a cache-missing request is in the coalescing protocol.
pub enum Role<'a> {
    /// First miss on this key: solve, then publish through the guard.
    Leader(FlightGuard<'a>),
    /// A compatible flight is in progress: wait on the receiver.
    Joiner(Receiver<Option<CacheEntry>>),
    /// A flight is in progress but with less budget than this request:
    /// solve independently (and upgrade the cache entry afterwards).
    Solo,
}

struct Flight {
    /// The leader's declared budget — the join-compatibility bar.
    budget: Duration,
    waiters: Vec<Sender<Option<CacheEntry>>>,
}

/// The in-flight solve table plus its counters (atomics: they are read
/// by the `stats`/`stats_detail` handlers without taking the table lock).
#[derive(Default)]
pub struct SingleFlight {
    flights: Mutex<HashMap<String, Flight>>,
    joins: AtomicU64,
    leader_solves: AtomicU64,
    timeouts: AtomicU64,
}

impl SingleFlight {
    /// Classify a cache-missing request that declares `budget`. The
    /// table lock is never held across a solve — only for this map
    /// operation and for `publish`.
    pub fn begin(&self, key: &str, budget: Duration) -> Role<'_> {
        let mut flights = self.flights.lock();
        match flights.get_mut(key) {
            Some(flight) if budget <= flight.budget => {
                let (tx, rx) = bounded(1);
                flight.waiters.push(tx);
                self.joins.fetch_add(1, Ordering::Relaxed);
                Role::Joiner(rx)
            }
            Some(_) => Role::Solo,
            None => {
                flights.insert(
                    key.to_string(),
                    Flight {
                        budget,
                        waiters: Vec::new(),
                    },
                );
                Role::Leader(FlightGuard {
                    owner: self,
                    key: key.to_string(),
                    published: false,
                })
            }
        }
    }

    /// Requests that joined an in-flight solve.
    pub fn joins(&self) -> u64 {
        self.joins.load(Ordering::Relaxed)
    }

    /// Completed solves whose result was delivered to ≥1 joiner. A solve
    /// nobody waited on is an ordinary miss, not a coalesced one, so it
    /// is not counted here.
    pub fn leader_solves(&self) -> u64 {
        self.leader_solves.load(Ordering::Relaxed)
    }

    /// Joiners that gave up waiting (each answered `overloaded`).
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Record one joiner timeout (called by the handler, which owns the
    /// response path).
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    fn publish(&self, key: &str, result: Option<CacheEntry>) {
        let flight = self.flights.lock().remove(key);
        if let Some(flight) = flight {
            if result.is_some() && !flight.waiters.is_empty() {
                self.leader_solves.fetch_add(1, Ordering::Relaxed);
            }
            for waiter in flight.waiters {
                // A send only fails if the joiner already timed out and
                // dropped its receiver — nothing left to wake.
                let _ = waiter.send(result.clone());
            }
        }
    }
}

/// The leader's obligation to publish. [`FlightGuard::publish`] delivers
/// the solved entry; dropping the guard unpublished (any error path, or
/// a panic unwinding out of the handler) delivers `None`, releasing the
/// joiners to solve for themselves.
pub struct FlightGuard<'a> {
    owner: &'a SingleFlight,
    key: String,
    published: bool,
}

impl FlightGuard<'_> {
    pub fn publish(mut self, entry: CacheEntry) {
        self.published = true;
        self.owner.publish(&self.key, Some(entry));
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.owner.publish(&self.key, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PlaceMethod;
    use rrf_flow::FlowReport;

    fn entry() -> CacheEntry {
        CacheEntry {
            method: PlaceMethod::Optimal,
            report: FlowReport {
                feasible: true,
                proven: true,
                extent: None,
                placements: vec![],
                metrics: None,
                stats: rrf_core::SolveStats::default(),
                floorplan: None,
            },
            budget: Duration::from_millis(100),
        }
    }

    #[test]
    fn leader_then_compatible_join_then_solo() {
        let sf = SingleFlight::default();
        let leader = match sf.begin("k", Duration::from_millis(100)) {
            Role::Leader(guard) => guard,
            _ => panic!("first miss must lead"),
        };
        // Equal-or-tighter budget joins; roomier goes solo.
        let rx = match sf.begin("k", Duration::from_millis(80)) {
            Role::Joiner(rx) => rx,
            _ => panic!("tighter budget must join"),
        };
        assert!(matches!(
            sf.begin("k", Duration::from_millis(150)),
            Role::Solo
        ));
        // A different key is unaffected by the in-flight solve.
        assert!(matches!(
            sf.begin("other", Duration::from_millis(80)),
            Role::Leader(_)
        ));

        leader.publish(entry());
        let got = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(got.is_some());
        assert_eq!(sf.joins(), 1);
        assert_eq!(sf.leader_solves(), 1);
        // The flight is gone: the key can lead again.
        assert!(matches!(
            sf.begin("k", Duration::from_millis(80)),
            Role::Leader(_)
        ));
    }

    #[test]
    fn dropped_guard_wakes_joiners_with_none() {
        let sf = SingleFlight::default();
        let leader = match sf.begin("k", Duration::from_millis(100)) {
            Role::Leader(guard) => guard,
            _ => panic!(),
        };
        let rx = match sf.begin("k", Duration::from_millis(100)) {
            Role::Joiner(rx) => rx,
            _ => panic!(),
        };
        drop(leader); // error path / panic unwind
        let got = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(got.is_none(), "failed flights publish None");
        // A failed flight is not a coalesced solve.
        assert_eq!(sf.leader_solves(), 0);
        assert_eq!(sf.joins(), 1);
    }

    #[test]
    fn solve_without_joiners_is_not_a_coalesced_solve() {
        let sf = SingleFlight::default();
        match sf.begin("k", Duration::from_millis(100)) {
            Role::Leader(guard) => guard.publish(entry()),
            _ => panic!(),
        }
        assert_eq!(sf.leader_solves(), 0);
    }

    #[test]
    fn timed_out_joiner_is_counted_and_harmless() {
        let sf = SingleFlight::default();
        let _leader = match sf.begin("k", Duration::from_millis(100)) {
            Role::Leader(guard) => guard,
            _ => panic!(),
        };
        let rx = match sf.begin("k", Duration::from_millis(50)) {
            Role::Joiner(rx) => rx,
            _ => panic!(),
        };
        // The joiner gives up (the handler answers `overloaded`, which
        // the retrying client treats as any other shed)...
        assert!(rx.recv_timeout(Duration::from_millis(10)).is_err());
        sf.record_timeout();
        drop(rx);
        assert_eq!(sf.timeouts(), 1);
        // ...and the leader's later publish must not panic or block on
        // the dropped receiver.
    }
}
