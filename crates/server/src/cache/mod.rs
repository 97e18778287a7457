//! The placement cache and the canonicalization that feeds it.
//!
//! Cache keys must not depend on the order a client happens to list
//! modules or shapes in: two logically identical `place` requests (same
//! region, same module set, same placer settings) must hit the same
//! entry. The daemon therefore *canonicalizes* each spec — shapes sorted
//! within each module, modules sorted by their serialized form — solves
//! the canonical instance, caches the canonical report, and remaps module
//! and shape indices back to the request's own ordering on the way out.
//!
//! The cache itself is split across three submodules:
//!
//! * [`shard`] — the lock-striped [`ShardedCache`]: N shards keyed by a
//!   deterministic FNV-1a hash of the canonical key, per-shard LRU
//!   eviction and hit/miss/eviction counters.
//! * [`singleflight`] — duplicate-solve coalescing: concurrent misses on
//!   the same canonical key with compatible budgets join the in-flight
//!   leader's solve instead of each running the solver.
//! * [`persist`] — the byte-deterministic NDJSON snapshot written on
//!   graceful shutdown and warm-loaded at startup (`--cache-persist`).

// Determinism: response bytes that golden e2e tests diff across runs.
// Child modules inherit this; `singleflight` opts out with its reason.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod persist;
pub mod shard;
pub mod singleflight;

pub use shard::{CacheDetail, Probe, ShardDetail, ShardedCache};
pub use singleflight::{FlightGuard, Role, SingleFlight};

use std::time::Duration;

use rrf_core::{Floorplan, PlacedModule};
use rrf_flow::{FlowReport, FlowSpec, ModuleEntry, PlacedModuleReport};

use crate::protocol::PlaceMethod;

/// Index mapping from a canonicalized spec back to the original request.
#[derive(Debug, Clone)]
pub struct CanonMap {
    /// `module_orig[c]` = original index of canonical module `c`.
    module_orig: Vec<usize>,
    /// `shape_orig[c][s]` = original shape index of canonical shape `s`
    /// of canonical module `c`; empty = identity (netlist modules, whose
    /// shapes are derived deterministically, not listed by the client).
    shape_orig: Vec<Vec<usize>>,
}

impl CanonMap {
    fn remap_shape(&self, canon_module: usize, canon_shape: usize) -> usize {
        let perm = &self.shape_orig[canon_module];
        if perm.is_empty() {
            canon_shape
        } else {
            perm[canon_shape]
        }
    }
}

fn serialize(value: &impl serde::Serialize) -> String {
    serde_json::to_string(value).expect("protocol types serialize infallibly")
}

/// Sort shapes within each module and modules across the spec, returning
/// the canonical spec plus the mapping back to the request's ordering.
/// Region and placer settings pass through unchanged (their serialized
/// form is already order-independent: field order is fixed by the types).
pub fn canonicalize(spec: &FlowSpec) -> (FlowSpec, CanonMap) {
    let mut entries: Vec<(String, usize, ModuleEntry, Vec<usize>)> = spec
        .modules
        .iter()
        .enumerate()
        .map(|(orig, entry)| {
            let mut order: Vec<usize> = (0..entry.shapes.len()).collect();
            let keys: Vec<String> = entry.shapes.iter().map(serialize).collect();
            order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
            let canon_entry = ModuleEntry {
                name: entry.name.clone(),
                shapes: order.iter().map(|&s| entry.shapes[s].clone()).collect(),
                netlist: entry.netlist.clone(),
            };
            let sort_key = serialize(&canon_entry);
            (sort_key, orig, canon_entry, order)
        })
        .collect();
    // Original index as the tie break keeps duplicate modules stable.
    entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

    let module_orig = entries.iter().map(|e| e.1).collect();
    let shape_orig = entries.iter().map(|e| e.3.clone()).collect();
    let canon_spec = FlowSpec {
        region: spec.region.clone(),
        modules: entries.into_iter().map(|e| e.2).collect(),
        placer: spec.placer.clone(),
    };
    (
        canon_spec,
        CanonMap {
            module_orig,
            shape_orig,
        },
    )
}

/// The cache key of a canonical spec: its serialized form, covering the
/// region spec, the (canonicalized) module set, and the placer settings.
pub fn cache_key(canonical: &FlowSpec) -> String {
    serialize(canonical)
}

/// Translate a report over the canonical spec into the original request's
/// module and shape numbering.
pub fn remap_report(canon: &FlowReport, map: &CanonMap) -> FlowReport {
    let n = map.module_orig.len();
    // `placements` is one entry per module in module order (when feasible).
    let mut placements: Vec<Option<PlacedModuleReport>> = vec![None; n];
    for (ci, pr) in canon.placements.iter().enumerate() {
        placements[map.module_orig[ci]] = Some(PlacedModuleReport {
            shape: map.remap_shape(ci, pr.shape),
            ..pr.clone()
        });
    }
    let floorplan = canon.floorplan.as_ref().map(|plan| {
        let mut placed: Vec<PlacedModule> = plan
            .placements
            .iter()
            .map(|p| PlacedModule {
                module: map.module_orig[p.module],
                shape: map.remap_shape(p.module, p.shape),
                x: p.x,
                y: p.y,
            })
            .collect();
        placed.sort_by_key(|p| p.module);
        Floorplan::new(placed)
    });
    FlowReport {
        feasible: canon.feasible,
        proven: canon.proven,
        extent: canon.extent,
        placements: placements.into_iter().flatten().collect(),
        metrics: canon.metrics,
        stats: canon.stats,
        floorplan,
    }
}

/// One cached placement: the canonical report, how it was produced, and
/// how much solve budget produced it.
///
/// Results depend on the deadline that was in force when they were
/// computed: a tight-deadline solve may return a degraded floorplan (or
/// even miss a feasible one entirely) that a roomier request could beat.
/// Entries therefore record their solve budget, and a cached answer is
/// only served when it is *proven* (deadline-independent) or when the new
/// request's declared budget is no larger than the one that produced it
/// — otherwise the daemon recomputes and overwrites the entry. Declared
/// budgets (`deadline_ms`, or the daemon default) are compared rather
/// than clock readings, so an identical repeat is served whatever the
/// jitter between the two requests.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    pub method: PlaceMethod,
    pub report: FlowReport,
    /// The declared budget of the request whose solve produced it.
    /// (Entries persisted by earlier builds hold the remaining budget when
    /// their solve started, which is never larger: they serve fewer
    /// requests, not more.)
    pub budget: Duration,
}

impl CacheEntry {
    /// Whether the result is deadline-independent: a proven-optimal
    /// floorplan or a proven infeasibility.
    pub fn is_proven(&self) -> bool {
        match self.method {
            PlaceMethod::Optimal => true,
            PlaceMethod::Infeasible => self.report.proven,
            _ => false,
        }
    }

    /// Whether this entry may answer a request that declares `budget`:
    /// proven results always can; degraded/unproven results only when the
    /// new request could not have climbed higher on the ladder anyway.
    pub fn servable_within(&self, budget: Duration) -> bool {
        self.is_proven() || budget <= self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrf_fabric::ResourceKind;
    use rrf_flow::{DeviceSpec, PlacerSettings, RegionSpec};
    use rrf_geost::{ShapeDef, ShiftedBox};

    fn shape(w: i32, h: i32) -> ShapeDef {
        ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)])
    }

    fn spec(modules: Vec<ModuleEntry>) -> FlowSpec {
        FlowSpec {
            region: RegionSpec {
                device: DeviceSpec::Homogeneous {
                    width: 10,
                    height: 4,
                },
                bounds: None,
                static_masks: vec![],
            },
            modules,
            placer: PlacerSettings::default(),
        }
    }

    fn entry(name: &str, shapes: Vec<ShapeDef>) -> ModuleEntry {
        ModuleEntry {
            name: name.into(),
            shapes,
            netlist: None,
        }
    }

    #[test]
    fn reordered_modules_and_shapes_share_a_key() {
        let a = spec(vec![
            entry("alu", vec![shape(4, 2), shape(2, 4)]),
            entry("fir", vec![shape(3, 2)]),
        ]);
        let b = spec(vec![
            entry("fir", vec![shape(3, 2)]),
            entry("alu", vec![shape(2, 4), shape(4, 2)]),
        ]);
        let (ca, _) = canonicalize(&a);
        let (cb, _) = canonicalize(&b);
        assert_eq!(cache_key(&ca), cache_key(&cb));
    }

    #[test]
    fn different_settings_or_shapes_differ() {
        let base = spec(vec![entry("alu", vec![shape(4, 2)])]);
        let mut other_settings = base.clone();
        other_settings.placer.time_limit_ms = Some(1);
        let other_shapes = spec(vec![entry("alu", vec![shape(4, 3)])]);
        let key = |s: &FlowSpec| cache_key(&canonicalize(s).0);
        assert_ne!(key(&base), key(&other_settings));
        assert_ne!(key(&base), key(&other_shapes));
    }

    #[test]
    fn remap_restores_request_ordering() {
        // Request lists (fir, alu); canonical order is (alu, fir) with
        // alu's shapes swapped. A canonical report placing alu with its
        // canonical shape 0 must come back as request module 1 with the
        // request's shape index.
        let req = spec(vec![
            entry("fir", vec![shape(3, 2)]),
            entry("alu", vec![shape(4, 2), shape(2, 4)]),
        ]);
        let (canon, map) = canonicalize(&req);
        assert_eq!(canon.modules[0].name, "alu");
        // Canonical shape 0 of alu is whichever sorts first; find where
        // it came from in the request.
        let canon_shape0 = &canon.modules[0].shapes[0];
        let orig_idx = req.modules[1]
            .shapes
            .iter()
            .position(|s| s == canon_shape0)
            .unwrap();

        let canon_report = FlowReport {
            feasible: true,
            proven: true,
            extent: Some(5),
            placements: vec![
                PlacedModuleReport {
                    name: "alu".into(),
                    shape: 0,
                    x: 0,
                    y: 0,
                },
                PlacedModuleReport {
                    name: "fir".into(),
                    shape: 0,
                    x: 2,
                    y: 0,
                },
            ],
            metrics: None,
            stats: rrf_core::SolveStats::default(),
            floorplan: Some(Floorplan::new(vec![
                PlacedModule {
                    module: 0,
                    shape: 0,
                    x: 0,
                    y: 0,
                },
                PlacedModule {
                    module: 1,
                    shape: 0,
                    x: 2,
                    y: 0,
                },
            ])),
        };
        let remapped = remap_report(&canon_report, &map);
        assert_eq!(remapped.placements[0].name, "fir");
        assert_eq!(remapped.placements[1].name, "alu");
        assert_eq!(remapped.placements[1].shape, orig_idx);
        let plan = remapped.floorplan.unwrap();
        assert_eq!(plan.placements[0].module, 0); // fir
        assert_eq!(plan.placements[0].x, 2);
        assert_eq!(plan.placements[1].module, 1); // alu
        assert_eq!(plan.placements[1].shape, orig_idx);
    }

    #[test]
    fn degraded_entries_only_serve_equal_or_tighter_budgets() {
        let entry = |method: PlaceMethod, proven: bool| CacheEntry {
            method,
            report: FlowReport {
                feasible: method != PlaceMethod::Infeasible,
                proven,
                extent: None,
                placements: vec![],
                metrics: None,
                stats: rrf_core::SolveStats::default(),
                floorplan: None,
            },
            budget: Duration::from_millis(100),
        };

        // Proven results are deadline-independent: servable at any budget.
        for proven in [
            entry(PlaceMethod::Optimal, true),
            entry(PlaceMethod::Infeasible, true),
        ] {
            assert!(proven.servable_within(Duration::from_secs(10)));
            assert!(proven.servable_within(Duration::ZERO));
        }

        // Degraded/unproven results only answer requests that could not
        // have done better — a larger budget must recompute.
        for degraded in [
            entry(PlaceMethod::CpIncumbent, false),
            entry(PlaceMethod::Lns, false),
            entry(PlaceMethod::BottomLeft, false),
            entry(PlaceMethod::Infeasible, false),
        ] {
            assert!(!degraded.is_proven());
            assert!(degraded.servable_within(Duration::from_millis(100)));
            assert!(degraded.servable_within(Duration::from_millis(50)));
            assert!(!degraded.servable_within(Duration::from_millis(101)));
        }
    }
}
