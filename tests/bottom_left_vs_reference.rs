//! The greedy bottom-left placer against the loop it replaced, kept here
//! as a reference model: every compatible anchor of every alternative
//! from `allowed_anchors`, tested with `OccupancyGrid::fits`, keyed on
//! (right edge, y, x), the earlier alternative winning ties. The placer
//! must return the same plan on the paper problems, on both arms of the
//! generated workloads, on their transposed twins (regions taller than 64
//! rows) and on random fabrics with mixed-kind, negatively offset shapes.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rrf_bench::{paper_problem, paper_region, workload_arms};
use rrf_core::baseline::bottom_left;
use rrf_core::{Floorplan, Module, PlacedModule, PlacementProblem};
use rrf_fabric::{device, Point, Rect, Region, ResourceKind};
use rrf_geost::{allowed_anchors, OccupancyGrid, ShapeDef, ShiftedBox};

/// `bottom_left` before the mask scan.
fn reference_bottom_left(problem: &PlacementProblem) -> Option<Floorplan> {
    let region = &problem.region;
    let mut grid = OccupancyGrid::new(region.bounds());
    let mut order: Vec<usize> = (0..problem.modules.len()).collect();
    order.sort_by_key(|&i| (-problem.modules[i].max_area(), i));
    let mut placements: Vec<Option<PlacedModule>> = vec![None; problem.modules.len()];
    for &mi in &order {
        let module = &problem.modules[mi];
        let mut best: Option<(i32, i32, i32, usize, Point)> = None;
        for (si, shape) in module.shapes().iter().enumerate() {
            let width = shape.bounding_box().x_end();
            for anchor in allowed_anchors(region, shape) {
                let key = (anchor.x + width, anchor.y, anchor.x);
                if let Some((br, by, bx, _, _)) = best {
                    if key >= (br, by, bx) {
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

fn transposed(problem: &PlacementProblem) -> PlacementProblem {
    let modules = (problem.modules.iter())
        .map(|m| {
            Module::new(
                m.name.clone(),
                m.shapes().iter().map(ShapeDef::transposed).collect(),
            )
        })
        .collect();
    PlacementProblem::new(problem.region.transposed(), modules)
}

/// Same plan as the reference, for the problem and its transposed twin;
/// returns how many modules were placed.
fn assert_same_plan(problem: &PlacementProblem, what: &str) -> usize {
    let mut placed = 0;
    for (p, side) in [
        (problem.clone(), "as is"),
        (transposed(problem), "transposed"),
    ] {
        let expected = reference_bottom_left(&p);
        assert_eq!(bottom_left(&p), expected, "{what}, {side}");
        placed += expected.map_or(0, |plan| plan.placements.len());
    }
    placed
}

#[test]
fn paper_problems_match_the_reference() {
    let placed: usize = (0..8)
        .map(|seed| assert_same_plan(&paper_problem(seed), &format!("paper_problem({seed})")))
        .sum();
    assert_eq!(
        placed,
        8 * 30 * 2,
        "every paper problem places every module"
    );
}

#[test]
fn generated_workloads_match_the_reference_on_both_arms() {
    let mut placed = 0;
    for n in [3, 6, 10, 15] {
        for seed in 0..4 {
            let (with, without) = workload_arms(n, seed);
            for (modules, arm) in [(with, "with"), (without, "without")] {
                let problem = PlacementProblem::new(paper_region(), modules);
                placed += assert_same_plan(&problem, &format!("workload_arms({n}, {seed}).{arm}"));
            }
        }
    }
    assert!(placed > 500, "too few modules placed: {placed}");
}

/// Up to three disjoint boxes of mixed kinds, offsets possibly negative.
fn random_shape(rng: &mut ChaCha8Rng) -> ShapeDef {
    let (ox, oy) = (rng.gen_range(-2..3), rng.gen_range(-2..3));
    let mut boxes = Vec::new();
    let mut x = ox;
    for i in 0..rng.gen_range(1..4) {
        let kind = match rng.gen_range(0..4) {
            _ if i == 0 => ResourceKind::Clb,
            0 => ResourceKind::Bram,
            1 => ResourceKind::Dsp,
            _ => ResourceKind::Clb,
        };
        let w = if kind == ResourceKind::Clb {
            rng.gen_range(1..4)
        } else {
            1
        };
        let (dy, h) = (oy + rng.gen_range(0..3), rng.gen_range(1..5));
        boxes.push(ShiftedBox::new(x, dy, w, h, kind));
        x += w;
    }
    ShapeDef::new(boxes)
}

#[test]
fn random_fabrics_match_the_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let (mut placed, mut failed) = (0, 0);
    for case in 0..80 {
        let (w, h) = (rng.gen_range(10..40), rng.gen_range(4..14));
        let mut region = Region::whole(device::irregular(w, h, case));
        for _ in 0..rng.gen_range(0..3) {
            let (x, y) = (rng.gen_range(0..w), rng.gen_range(0..h));
            region.add_static_mask(Rect::new(x, y, rng.gen_range(1..4), rng.gen_range(1..4)));
        }
        let modules: Vec<Module> = (0..rng.gen_range(2..9))
            .map(|i| {
                let shapes = (0..rng.gen_range(1..5))
                    .map(|_| random_shape(&mut rng))
                    .collect();
                Module::new(format!("m{i}"), shapes)
            })
            .collect();
        let problem = PlacementProblem::new(region, modules);
        match assert_same_plan(&problem, &format!("random fabric {case}")) {
            0 => failed += 1,
            n => placed += n,
        }
    }
    assert!(
        placed > 300 && failed > 0,
        "placed {placed}, {failed} cases placed nothing"
    );
}
