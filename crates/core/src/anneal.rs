//! Simulated-annealing placer — an extension beyond the paper.
//!
//! The paper computes *optimal* placements with CP and notes the runtime
//! cost. Annealing is the classic middle ground between the greedy baseline
//! and exact search: it explores (shape, anchor) reassignments of single
//! modules under a geometric cooling schedule, minimizing the same extent
//! objective. Used in the baseline ablation to show where each method sits
//! on the quality/time curve.

use crate::model::Module;
use crate::placement::{Floorplan, PlacedModule};
use crate::problem::PlacementProblem;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rrf_fabric::Point;
use rrf_geost::{allowed_anchors, OccupancyGrid};
use serde::{Deserialize, Serialize};

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealConfig {
    /// Move attempts.
    pub iterations: u32,
    /// Initial temperature (in extent columns).
    pub t0: f64,
    /// Geometric cooling factor per iteration.
    pub alpha: f64,
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> AnnealConfig {
        AnnealConfig {
            iterations: 20_000,
            t0: 4.0,
            alpha: 0.9995,
            seed: 0,
        }
    }
}

/// Anneal from the greedy bottom-left start. Returns `None` when even the
/// greedy start fails (some module unplaceable).
pub fn anneal(problem: &PlacementProblem, config: &AnnealConfig) -> Option<Floorplan> {
    anneal_traced(problem, config, &rrf_trace::Tracer::default())
}

/// [`anneal`] with a trace destination: wraps the run in an `anneal`
/// span and reports accept/reject counts and the final extent.
pub fn anneal_traced(
    problem: &PlacementProblem,
    config: &AnnealConfig,
    tracer: &rrf_trace::Tracer,
) -> Option<Floorplan> {
    let span = rrf_trace::tspan!(tracer, "anneal",
        "iterations" => config.iterations,
        "seed" => config.seed);
    let result = anneal_inner(problem, config, tracer);
    span.close();
    result
}

fn anneal_inner(
    problem: &PlacementProblem,
    config: &AnnealConfig,
    tracer: &rrf_trace::Tracer,
) -> Option<Floorplan> {
    let start = crate::baseline::bottom_left(problem)?;
    if problem.modules.is_empty() {
        return Some(start);
    }
    let region = &problem.region;
    let modules = &problem.modules;

    // Pre-compute allowed anchors per (module, shape).
    let anchors: Vec<Vec<Vec<Point>>> = modules
        .iter()
        .map(|m| {
            m.shapes()
                .iter()
                .map(|s| allowed_anchors(region, s))
                .collect()
        })
        .collect();

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut grid = OccupancyGrid::new(region.bounds());
    let mut current = start.placements.clone();
    for p in &current {
        stamp(&mut grid, modules, p, 1);
    }
    let mut cur_extent = extent_of(&current, modules, region.bounds().x);
    let mut best = current.clone();
    let mut best_extent = cur_extent;
    let mut temp = config.t0;
    let mut accepted = 0u64;
    let mut rejected = 0u64;

    for _ in 0..config.iterations {
        let mi = rng.gen_range(0..modules.len());
        let si = rng.gen_range(0..modules[mi].num_shapes());
        let cand_anchors = &anchors[mi][si];
        if cand_anchors.is_empty() {
            temp *= config.alpha;
            continue;
        }
        let anchor = cand_anchors[rng.gen_range(0..cand_anchors.len())];
        let old = current[mi];
        // Tentatively lift the module, test the new spot.
        stamp(&mut grid, modules, &old, -1);
        let candidate = PlacedModule {
            module: mi,
            shape: si,
            x: anchor.x,
            y: anchor.y,
        };
        let free = grid.fits(&modules[mi].shapes()[si], anchor);
        if free {
            current[mi] = candidate;
            let new_extent = extent_of(&current, modules, region.bounds().x);
            let delta = (new_extent - cur_extent) as f64;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temp.max(1e-9)).exp() {
                stamp(&mut grid, modules, &candidate, 1);
                cur_extent = new_extent;
                accepted += 1;
                if cur_extent < best_extent {
                    best_extent = cur_extent;
                    best = current.clone();
                }
            } else {
                current[mi] = old;
                stamp(&mut grid, modules, &old, 1);
                rejected += 1;
            }
        } else {
            stamp(&mut grid, modules, &old, 1);
            rejected += 1;
        }
        temp *= config.alpha;
    }
    rrf_trace::tpoint!(tracer, "anneal.result",
        "accepted" => accepted,
        "rejected" => rejected,
        "extent" => best_extent);
    Some(Floorplan::new(best))
}

fn stamp(grid: &mut OccupancyGrid, modules: &[Module], p: &PlacedModule, delta: i16) {
    for b in modules[p.module].shapes()[p.shape].boxes() {
        grid.add_rect(b.placed(p.x, p.y), delta);
    }
}

fn extent_of(placements: &[PlacedModule], modules: &[Module], left: i32) -> i32 {
    placements
        .iter()
        .map(|p| p.x + modules[p.module].shapes()[p.shape].bounding_box().x_end())
        .max()
        .unwrap_or(left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_valid;
    use rrf_fabric::{device, Region, ResourceKind};
    use rrf_geost::{ShapeDef, ShiftedBox};

    fn clb_shape(w: i32, h: i32) -> ShapeDef {
        ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)])
    }

    fn problem() -> PlacementProblem {
        PlacementProblem::new(
            Region::whole(device::homogeneous(12, 4)),
            vec![
                Module::new("a", vec![clb_shape(4, 2), clb_shape(2, 4)]),
                Module::new("b", vec![clb_shape(4, 2), clb_shape(2, 4)]),
                Module::new("c", vec![clb_shape(3, 2), clb_shape(2, 3)]),
            ],
        )
    }

    #[test]
    fn result_is_valid_and_no_worse_than_greedy() {
        let p = problem();
        let greedy = crate::baseline::bottom_left(&p).unwrap();
        let greedy_extent = greedy.x_extent(&p.modules, 0);
        let plan = anneal(&p, &AnnealConfig::default()).unwrap();
        assert!(is_valid(&p.region, &p.modules, &plan));
        assert!(plan.x_extent(&p.modules, 0) <= greedy_extent);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem();
        let cfg = AnnealConfig {
            iterations: 500,
            ..AnnealConfig::default()
        };
        let a = anneal(&p, &cfg).unwrap();
        let b = anneal(&p, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn infeasible_returns_none() {
        let p = PlacementProblem::new(
            Region::whole(device::homogeneous(3, 3)),
            vec![Module::new("big", vec![clb_shape(4, 4)])],
        );
        assert!(anneal(&p, &AnnealConfig::default()).is_none());
    }

    #[test]
    fn zero_iterations_returns_greedy() {
        let p = problem();
        let cfg = AnnealConfig {
            iterations: 0,
            ..AnnealConfig::default()
        };
        let plan = anneal(&p, &cfg).unwrap();
        let greedy = crate::baseline::bottom_left(&p).unwrap();
        assert_eq!(plan, greedy);
    }
}
