//! Greedy bottom-left baseline placer.
//!
//! The classic first-fit decreasing heuristic used throughout the online-
//! placement literature the paper cites: modules in decreasing area order,
//! each placed at the position (and design alternative) minimizing its
//! right edge, then its y. Fast, deterministic — and suboptimal, which is
//! exactly what the optimal-vs-heuristic ablation measures. Also used to
//! warm-start the CP placer's branch & bound.

use crate::placement::{Floorplan, PlacedModule};
use crate::problem::PlacementProblem;
use rrf_fabric::Point;
use rrf_geost::{allowed_anchors, OccupancyGrid};

/// Place all modules greedily. Returns `None` when some module cannot be
/// placed (no anchor compatible and free).
pub fn bottom_left(problem: &PlacementProblem) -> Option<Floorplan> {
    let region = &problem.region;
    let mut grid = OccupancyGrid::new(region.bounds());

    // Big modules first; ties by original order for determinism.
    let mut order: Vec<usize> = (0..problem.modules.len()).collect();
    order.sort_by_key(|&i| (-problem.modules[i].max_area(), i));

    let mut placements: Vec<Option<PlacedModule>> = vec![None; problem.modules.len()];
    for &mi in &order {
        let module = &problem.modules[mi];
        // Candidate = (right edge, y, x, shape, anchor).
        let mut best: Option<(i32, i32, i32, usize, Point)> = None;
        for (si, shape) in module.shapes().iter().enumerate() {
            let width = shape.bounding_box().x_end();
            for anchor in allowed_anchors(region, shape) {
                let key = (anchor.x + width, anchor.y, anchor.x);
                if let Some((br, by, bx, _, _)) = best {
                    if (key.0, key.1, key.2) >= (br, by, bx) {
                        continue;
                    }
                }
                if grid.fits(shape, anchor) {
                    best = Some((key.0, key.1, key.2, si, anchor));
                }
            }
        }
        let (_, _, _, shape, anchor) = best?;
        for b in module.shapes()[shape].boxes() {
            grid.add_rect(b.placed(anchor.x, anchor.y), 1);
        }
        placements[mi] = Some(PlacedModule {
            module: mi,
            shape,
            x: anchor.x,
            y: anchor.y,
        });
    }
    Some(Floorplan::new(
        placements.into_iter().map(Option::unwrap).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Module;
    use crate::verify::is_valid;
    use rrf_fabric::{device, Region, ResourceKind};
    use rrf_geost::{ShapeDef, ShiftedBox};

    fn clb_shape(w: i32, h: i32) -> ShapeDef {
        ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)])
    }

    #[test]
    fn packs_leftward() {
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(10, 4)),
            vec![
                Module::new("a", vec![clb_shape(2, 4)]),
                Module::new("b", vec![clb_shape(3, 4)]),
            ],
        );
        let plan = bottom_left(&problem).unwrap();
        assert!(is_valid(&problem.region, &problem.modules, &plan));
        // Big module first at x=0, then the other right next to it.
        assert_eq!(plan.x_extent(&problem.modules, 0), 5);
    }

    #[test]
    fn uses_alternative_when_it_packs_tighter() {
        // Region 4 wide, 4 tall. Module A: 4x2 fixed. Module B has two
        // alternatives: 4x2 (stacks → extent 4) — both give extent 4, but
        // a 2x4 alternative cannot fit (height) … use a case where the
        // alternative reduces the right edge:
        // Region 6x2. A = 4x2. B alternatives: 4x1 (→ extent 8, impossible)
        // vs 2x2 (fits at x=4, extent 6).
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(6, 2)),
            vec![
                Module::new("a", vec![clb_shape(4, 2)]),
                Module::new("b", vec![clb_shape(4, 1), clb_shape(2, 2)]),
            ],
        );
        let plan = bottom_left(&problem).unwrap();
        assert!(is_valid(&problem.region, &problem.modules, &plan));
        assert_eq!(plan.placements[1].shape, 1);
        assert_eq!(plan.x_extent(&problem.modules, 0), 6);
    }

    #[test]
    fn returns_none_when_region_too_small() {
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(3, 3)),
            vec![
                Module::new("a", vec![clb_shape(3, 3)]),
                Module::new("b", vec![clb_shape(1, 1)]),
            ],
        );
        assert!(bottom_left(&problem).is_none());
    }

    #[test]
    fn respects_heterogeneous_fabric() {
        // BRAM column at x=2 splits the CLB area; a 2-wide module must not
        // straddle it.
        let fabric = rrf_fabric::Fabric::from_art("ccBcc\nccBcc").unwrap();
        let problem = PlacementProblem::new(
            Region::whole(fabric),
            vec![
                Module::new("a", vec![clb_shape(2, 2)]),
                Module::new("b", vec![clb_shape(2, 2)]),
            ],
        );
        let plan = bottom_left(&problem).unwrap();
        assert!(is_valid(&problem.region, &problem.modules, &plan));
        let xs: Vec<i32> = plan.placements.iter().map(|p| p.x).collect();
        assert!(xs.contains(&0) && xs.contains(&3));
    }

    #[test]
    fn empty_problem_is_empty_plan() {
        let problem = PlacementProblem::new(Region::whole(device::homogeneous(4, 4)), vec![]);
        let plan = bottom_left(&problem).unwrap();
        assert!(plan.placements.is_empty());
    }

    #[test]
    fn placements_keep_module_order() {
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(10, 4)),
            vec![
                Module::new("small", vec![clb_shape(1, 1)]),
                Module::new("large", vec![clb_shape(4, 4)]),
            ],
        );
        let plan = bottom_left(&problem).unwrap();
        assert_eq!(plan.placements[0].module, 0);
        assert_eq!(plan.placements[1].module, 1);
        // Large was placed first (leftmost) despite listing order.
        assert_eq!(plan.placements[1].x, 0);
    }
}
