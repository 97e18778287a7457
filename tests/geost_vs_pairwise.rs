//! The geost non-overlap propagator against a naive O(n²·area) pairwise
//! overlap check, over randomized fixed placements and randomized domains;
//! and the column-mask fit kernel against the tile-by-tile scans it
//! replaced, kept here as reference models: anchor scans, occupancy fits,
//! first fits over an occupancy grid, and the non-overlap propagator
//! itself.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rrf_fabric::{Fabric, Fault, Point, Rect, Region, ResourceKind};
use rrf_geost::{
    allowed_anchors, first_anchor, GeostObject, NonOverlap, OccupancyGrid, ShapeDef, ShiftedBox,
};
use rrf_solver::{Conflict, Domain, DomainEvent, Engine, Propagator, Space, VarId};
use std::collections::HashSet;
use std::sync::Arc;

fn random_shape(rng: &mut ChaCha8Rng) -> ShapeDef {
    // 1 or 2 boxes, sometimes an L.
    let w = rng.gen_range(1..4);
    let h = rng.gen_range(1..4);
    let mut boxes = vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)];
    if rng.gen_bool(0.4) {
        boxes.push(ShiftedBox::new(
            w,
            0,
            rng.gen_range(1..3),
            1,
            ResourceKind::Clb,
        ));
    }
    ShapeDef::new(boxes)
}

fn tiles_of(shape: &ShapeDef, x: i32, y: i32) -> HashSet<(i32, i32)> {
    shape.tiles_at(x, y).map(|(p, _)| (p.x, p.y)).collect()
}

#[test]
fn leaf_acceptance_matches_pairwise_check() {
    let bounds = Rect::new(0, 0, 12, 8);
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut accepted = 0;
    let mut rejected = 0;
    for _ in 0..200 {
        let n = rng.gen_range(2..5);
        let mut space = Space::new();
        let mut objects = Vec::new();
        let mut placements: Vec<(ShapeDef, Point)> = Vec::new();
        for _ in 0..n {
            let shape = random_shape(&mut rng);
            let x = rng.gen_range(0..10);
            let y = rng.gen_range(0..6);
            let xv = space.new_var(Domain::singleton(x));
            let yv = space.new_var(Domain::singleton(y));
            let sv = space.new_var(Domain::singleton(0));
            objects.push(GeostObject::new(xv, yv, sv, Arc::new(vec![shape.clone()])));
            placements.push((shape, Point::new(x, y)));
        }
        // Ground truth: pairwise tile intersection.
        let mut overlap = false;
        for i in 0..placements.len() {
            for j in (i + 1)..placements.len() {
                let a = tiles_of(&placements[i].0, placements[i].1.x, placements[i].1.y);
                let b = tiles_of(&placements[j].0, placements[j].1.x, placements[j].1.y);
                if !a.is_disjoint(&b) {
                    overlap = true;
                }
            }
        }
        let mut engine = Engine::new(space.num_vars());
        engine.post(NonOverlap::new(objects, bounds));
        engine.schedule_all();
        let result = engine.propagate(&mut space);
        assert_eq!(result.is_err(), overlap, "geost disagrees with pairwise");
        if overlap {
            rejected += 1;
        } else {
            accepted += 1;
        }
    }
    // The generator must exercise both sides.
    assert!(accepted > 20, "too few accepted cases: {accepted}");
    assert!(rejected > 20, "too few rejected cases: {rejected}");
}

#[test]
fn propagation_never_removes_supported_placements() {
    // Soundness under loose domains: any placement that the pairwise check
    // accepts must survive propagation of the other objects' fixed parts.
    let bounds = Rect::new(0, 0, 14, 6);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..100 {
        // One fixed blocker, one free probe.
        let blocker_shape = random_shape(&mut rng);
        let bx = rng.gen_range(0..8);
        let by = rng.gen_range(0..4);
        let probe_shape = random_shape(&mut rng);

        let mut space = Space::new();
        let bxv = space.new_var(Domain::singleton(bx));
        let byv = space.new_var(Domain::singleton(by));
        let bsv = space.new_var(Domain::singleton(0));
        let pxv = space.new_var(Domain::interval(0, 10));
        let pyv = space.new_var(Domain::interval(0, 4));
        let psv = space.new_var(Domain::singleton(0));
        let objects = vec![
            GeostObject::new(bxv, byv, bsv, Arc::new(vec![blocker_shape.clone()])),
            GeostObject::new(pxv, pyv, psv, Arc::new(vec![probe_shape.clone()])),
        ];
        let mut engine = Engine::new(space.num_vars());
        engine.post(NonOverlap::new(objects, bounds));
        engine.schedule_all();
        if engine.propagate(&mut space).is_err() {
            // Propagation may only fail when NO probe position works.
            let blocker = tiles_of(&blocker_shape, bx, by);
            for x in 0..=10 {
                for y in 0..=4 {
                    assert!(
                        !tiles_of(&probe_shape, x, y).is_disjoint(&blocker),
                        "over-pruning: probe at ({x},{y}) was fine"
                    );
                }
            }
            continue;
        }
        // Surviving bounds must include every pairwise-feasible x and y.
        let blocker = tiles_of(&blocker_shape, bx, by);
        for x in 0..=10 {
            for y in 0..=4 {
                if tiles_of(&probe_shape, x, y).is_disjoint(&blocker) {
                    assert!(
                        space.min(pxv) <= x && x <= space.max(pxv),
                        "x={x} pruned although feasible with y={y}"
                    );
                    assert!(
                        space.min(pyv) <= y && y <= space.max(pyv),
                        "y={y} pruned although feasible with x={x}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reference models: the tile-by-tile code the mask kernel replaced.
// ---------------------------------------------------------------------

/// Tile-by-tile anchor scan: every anchor keeping the bounding box inside
/// the bounds, row-major, tested with one `Region::accepts` per tile.
fn reference_anchors(region: &Region, shape: &ShapeDef) -> Vec<Point> {
    let bounds = region.bounds();
    let bb = shape.bounding_box();
    let mut anchors = Vec::new();
    for y in bounds.y - bb.y..=bounds.y_end() - bb.y_end() {
        for x in bounds.x - bb.x..=bounds.x_end() - bb.x_end() {
            if shape
                .tiles_at(x, y)
                .all(|(p, kind)| region.accepts(p.x, p.y, kind))
            {
                anchors.push(Point::new(x, y));
            }
        }
    }
    anchors
}

/// A fabric of random kinds, mostly CLB, with BRAM columns.
fn random_fabric(rng: &mut ChaCha8Rng, w: i32, h: i32) -> Fabric {
    let mut fabric = Fabric::homogeneous(w, h).unwrap();
    for x in 0..w {
        if rng.gen_bool(0.15) {
            fabric.fill_column(x, ResourceKind::Bram);
        }
    }
    for _ in 0..(w * h) / 8 {
        let kind = [
            ResourceKind::Bram,
            ResourceKind::Dsp,
            ResourceKind::Io,
            ResourceKind::Static,
        ][rng.gen_range(0..4)];
        fabric
            .set(rng.gen_range(0..w), rng.gen_range(0..h), kind)
            .unwrap();
    }
    fabric
}

/// One to three disjoint boxes of mixed kinds, offsets possibly negative.
fn random_mixed_shape(rng: &mut ChaCha8Rng) -> ShapeDef {
    let kinds = [ResourceKind::Clb, ResourceKind::Bram, ResourceKind::Dsp];
    let (ox, oy) = (rng.gen_range(-2..3), rng.gen_range(-2..3));
    let mut boxes = Vec::new();
    let mut x = ox;
    for i in 0..rng.gen_range(1..4) {
        let kind = if i == 0 {
            ResourceKind::Clb
        } else {
            kinds[rng.gen_range(0..3)]
        };
        let w = if kind == ResourceKind::Clb {
            rng.gen_range(1..4)
        } else {
            1
        };
        boxes.push(ShiftedBox::new(
            x,
            oy + rng.gen_range(0..3),
            w,
            rng.gen_range(1..5),
            kind,
        ));
        x += w;
    }
    ShapeDef::new(boxes)
}

fn random_fault(rng: &mut ChaCha8Rng, bounds: Rect) -> Fault {
    let x = rng.gen_range(bounds.x..bounds.x_end());
    let y = rng.gen_range(bounds.y..bounds.y_end());
    match rng.gen_range(0..3) {
        0 => Fault::Tile { x, y },
        1 => Fault::Column { x },
        _ => Fault::Rect { x, y, w: 2, h: 3 },
    }
}

fn assert_scans_match(region: &Region, shapes: &[ShapeDef], what: &str) -> usize {
    let mut found = 0;
    for shape in shapes {
        let expected = reference_anchors(region, shape);
        assert_eq!(
            allowed_anchors(region, shape),
            expected,
            "{what}: {shape:?}"
        );
        assert_eq!(
            first_anchor(region, shape),
            expected.first().copied(),
            "{what}"
        );
        found += expected.len();
    }
    found
}

#[test]
fn anchor_scans_match_tile_by_tile_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    let mut found = 0;
    for case in 0..60 {
        // Every 10th region is taller than one 64-row word.
        let (w, h) = if case % 10 == 0 {
            (rng.gen_range(4..9), rng.gen_range(65..140))
        } else {
            (rng.gen_range(4..30), rng.gen_range(2..20))
        };
        let fabric = random_fabric(&mut rng, w, h);
        let mut region = if rng.gen_bool(0.5) {
            let x = rng.gen_range(0..w / 2);
            let y = rng.gen_range(0..h / 2);
            let bounds = Rect::new(x, y, rng.gen_range(1..=w - x), rng.gen_range(1..=h - y));
            Region::with_bounds(fabric, bounds).unwrap()
        } else {
            Region::whole(fabric)
        };
        let shapes: Vec<ShapeDef> = (0..6).map(|_| random_mixed_shape(&mut rng)).collect();
        found += assert_scans_match(&region, &shapes, "pristine");
        // Each mutation must drop the masks the scans above built.
        let b = region.bounds();
        region.add_static_mask(Rect::new(
            rng.gen_range(b.x..b.x_end()),
            rng.gen_range(b.y..b.y_end()),
            rng.gen_range(1..4),
            rng.gen_range(1..4),
        ));
        assert_scans_match(&region, &shapes, "masked");
        let faults: Vec<Fault> = (0..3).map(|_| random_fault(&mut rng, b)).collect();
        for &f in &faults {
            region.inject_fault(f);
            assert_scans_match(&region, &shapes, "faulted");
        }
        for &f in &faults[..2] {
            region.clear_fault(f);
            assert_scans_match(&region, &shapes, "cleared");
        }
        // Clones share the masks; a mutated clone must not disturb them.
        let mut clone = region.clone();
        clone.inject_fault(Fault::Column { x: b.x });
        assert_scans_match(&clone, &shapes, "mutated clone");
        assert_scans_match(&region, &shapes, "original after clone mutation");
        // The transposed region (tall when the original is wide).
        assert_scans_match(&region.transposed(), &shapes, "transposed");
    }
    // Boxes taller than one word, on a clean and on a faulted tall region.
    let mut tall = Region::whole(Fabric::homogeneous(5, 150).unwrap());
    let clb = ResourceKind::Clb;
    let tall_shapes = [
        ShapeDef::new(vec![ShiftedBox::new(0, 0, 2, 100, clb)]),
        ShapeDef::new(vec![
            ShiftedBox::new(0, 3, 1, 70, clb),
            ShiftedBox::new(1, 0, 1, 130, clb),
        ]),
    ];
    found += assert_scans_match(&tall, &tall_shapes, "tall boxes");
    tall.inject_fault(Fault::Tile { x: 1, y: 75 });
    assert_scans_match(&tall, &tall_shapes, "tall boxes, faulted");
    assert!(found > 1000, "too few anchors exercised: {found}");
}

#[test]
fn occupancy_fits_matches_count_check() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    for case in 0..40 {
        let h = if case % 8 == 0 {
            70
        } else {
            rng.gen_range(2..12)
        };
        let bounds = Rect::new(
            rng.gen_range(-3..3),
            rng.gen_range(-3..3),
            rng.gen_range(3..16),
            h,
        );
        let mut grid = OccupancyGrid::new(bounds);
        let mut stamped: Vec<Rect> = Vec::new();
        for _ in 0..30 {
            if !stamped.is_empty() && rng.gen_bool(0.3) {
                let r = stamped.swap_remove(rng.gen_range(0..stamped.len()));
                grid.add_rect(r, -1);
            } else {
                let r = Rect::new(
                    rng.gen_range(bounds.x - 2..bounds.x_end()),
                    rng.gen_range(bounds.y - 2..bounds.y_end()),
                    rng.gen_range(1..5),
                    rng.gen_range(1..5),
                );
                grid.add_rect(r, 1);
                stamped.push(r);
            }
            for _ in 0..20 {
                let shape = random_mixed_shape(&mut rng);
                let anchor = Point::new(
                    rng.gen_range(bounds.x - 3..bounds.x_end() + 1),
                    rng.gen_range(bounds.y - 3..bounds.y_end() + 1),
                );
                let naive = shape
                    .tiles_at(anchor.x, anchor.y)
                    .all(|(p, _)| grid.get(p.x, p.y) == 0);
                assert_eq!(grid.fits(&shape, anchor), naive, "{shape:?} at {anchor}");
            }
        }
    }
}

/// The reference anchors of `shape` whose tiles all have count 0.
fn reference_free_anchors(region: &Region, grid: &OccupancyGrid, shape: &ShapeDef) -> Vec<Point> {
    let mut free = reference_anchors(region, shape);
    free.retain(|p| (shape.tiles_at(p.x, p.y)).all(|(t, _)| grid.get(t.x, t.y) == 0));
    free
}

/// The first fit before `limit`: the smallest (x, y) of `free` before it.
fn reference_first_fit(free: &[Point], limit: Option<Point>) -> Option<Point> {
    (free.iter().copied())
        .filter(|p| limit.is_none_or(|l| (p.x, p.y) < (l.x, l.y)))
        .min_by_key(|p| (p.x, p.y))
}

#[test]
fn first_fit_matches_tile_by_tile_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(22);
    let (mut fits, mut limited) = (0, 0);
    for case in 0..60 {
        // Every 10th region is taller than one 64-row word.
        let (w, h) = if case % 10 == 0 {
            (rng.gen_range(4..9), rng.gen_range(65..140))
        } else {
            (rng.gen_range(6..30), rng.gen_range(4..20))
        };
        let fabric = random_fabric(&mut rng, w, h);
        let (x, y) = (rng.gen_range(0..w / 3), rng.gen_range(0..h / 3));
        let bounds = Rect::new(
            x,
            y,
            rng.gen_range(w / 2..=w - x),
            rng.gen_range(h / 2..=h - y),
        );
        let mut region = Region::with_bounds(fabric, bounds).unwrap();
        if rng.gen_bool(0.5) {
            region.inject_fault(random_fault(&mut rng, bounds));
        }
        let shapes: Vec<ShapeDef> = (0..6).map(|_| random_mixed_shape(&mut rng)).collect();
        let mut grid = OccupancyGrid::new(bounds);
        let mut stamped: Vec<Rect> = Vec::new();
        for _ in 0..25 {
            if !stamped.is_empty() && rng.gen_bool(0.3) {
                grid.add_rect(stamped.swap_remove(rng.gen_range(0..stamped.len())), -1);
            } else {
                let r = Rect::new(
                    rng.gen_range(bounds.x - 1..bounds.x_end()),
                    rng.gen_range(bounds.y - 1..bounds.y_end()),
                    rng.gen_range(1..4),
                    rng.gen_range(1..(bounds.h / 2).max(2)),
                );
                grid.add_rect(r, 1);
                stamped.push(r);
            }
            for shape in &shapes {
                let free = reference_free_anchors(&region, &grid, shape);
                let first = reference_first_fit(&free, None);
                assert_eq!(grid.first_fit(&region, shape, None), first, "{shape:?}");
                fits += first.is_some() as usize;
                // Before the first fit, on its column above and below it,
                // and beyond the bounds on either axis.
                let f = first.unwrap_or(Point::new(bounds.x + w / 2, bounds.y + h / 2));
                let mut limits = vec![
                    f,
                    Point::new(f.x - 1, f.y + 1),
                    Point::new(f.x, f.y + 1),
                    Point::new(f.x, f.y + rng.gen_range(2..5)),
                    Point::new(f.x, f.y - 1),
                    Point::new(bounds.x_end() + 3, bounds.y),
                    Point::new(f.x + 1, bounds.y_end() + 3),
                    Point::new(bounds.x - 4, bounds.y_end()),
                ];
                limits.extend((0..4).map(|_| {
                    Point::new(
                        rng.gen_range(bounds.x - 3..bounds.x_end() + 3),
                        rng.gen_range(bounds.y - 3..bounds.y_end() + 3),
                    )
                }));
                for limit in limits {
                    let expected = reference_first_fit(&free, Some(limit));
                    assert_eq!(
                        grid.first_fit(&region, shape, Some(limit)),
                        expected,
                        "{shape:?} before {limit}"
                    );
                    limited += expected.is_some() as usize;
                }
            }
        }
    }
    assert!(fits > 2000, "too few fits exercised: {fits}");
    assert!(limited > 5000, "too few limited fits exercised: {limited}");
}

/// The non-overlap propagator before column masks: per-tile `u16`
/// grids, tile-by-tile placement tests, every sweep run.
struct ReferenceNonOverlap {
    objects: Vec<GeostObject>,
    bounds: Rect,
}

impl ReferenceNonOverlap {
    fn mandatory(&self, space: &Space, i: usize, scratch: &mut OccupancyGrid) -> Vec<Rect> {
        let per_shape = self.objects[i].mandatory_rects_per_shape(space);
        match per_shape.len() {
            0 => Vec::new(),
            1 => per_shape.into_iter().next().unwrap(),
            n => {
                if per_shape.iter().any(|rects| rects.is_empty()) {
                    return Vec::new();
                }
                scratch.clear();
                for rects in &per_shape {
                    for &r in rects {
                        scratch.add_rect(r, 1);
                    }
                }
                let mut rects = Vec::new();
                let b = scratch.bounds();
                for y in b.y..b.y_end() {
                    let mut run_start: Option<i32> = None;
                    for x in b.x..=b.x_end() {
                        let full = x < b.x_end() && scratch.get(x, y) as usize == n;
                        match (full, run_start) {
                            (true, None) => run_start = Some(x),
                            (false, Some(s)) => {
                                rects.push(Rect::new(s, y, x - s, 1));
                                run_start = None;
                            }
                            _ => {}
                        }
                    }
                }
                rects
            }
        }
    }

    fn placement_free(
        &self,
        i: usize,
        s: usize,
        x: i32,
        y: i32,
        total: &OccupancyGrid,
        own: &[Rect],
    ) -> bool {
        self.objects[i].shapes[s]
            .tiles_at(x, y)
            .all(|(p, _)| total.get(p.x, p.y) == 0 || own.iter().any(|r| r.contains(p)))
    }

    fn value_feasible(
        &self,
        space: &Space,
        i: usize,
        axis_is_x: bool,
        v: i32,
        total: &OccupancyGrid,
        own: &[Rect],
    ) -> bool {
        let obj = &self.objects[i];
        let partner = if axis_is_x { obj.y } else { obj.x };
        for s in obj.alive_shapes(space) {
            for w in space.domain(partner).iter() {
                let (x, y) = if axis_is_x { (v, w) } else { (w, v) };
                if self.placement_free(i, s, x, y, total, own) {
                    return true;
                }
            }
        }
        false
    }

    fn prune_axis(
        &self,
        space: &mut Space,
        i: usize,
        axis_is_x: bool,
        total: &OccupancyGrid,
        own: &[Rect],
    ) -> Result<(), Conflict> {
        let var = if axis_is_x {
            self.objects[i].x
        } else {
            self.objects[i].y
        };
        let values: Vec<i32> = space.domain(var).iter().collect();
        let new_min = values
            .iter()
            .copied()
            .find(|&v| self.value_feasible(space, i, axis_is_x, v, total, own))
            .ok_or(Conflict)?;
        space.set_min(var, new_min)?;
        let new_max = values
            .iter()
            .rev()
            .copied()
            .find(|&v| self.value_feasible(space, i, axis_is_x, v, total, own))
            .unwrap();
        space.set_max(var, new_max)?;
        Ok(())
    }

    fn prune_shapes(
        &self,
        space: &mut Space,
        i: usize,
        total: &OccupancyGrid,
        own: &[Rect],
    ) -> Result<(), Conflict> {
        let obj = &self.objects[i];
        let alive: Vec<usize> = obj.alive_shapes(space).collect();
        if alive.len() <= 1 {
            return Ok(());
        }
        for s in alive {
            let feasible = space.domain(obj.x).iter().any(|x| {
                space
                    .domain(obj.y)
                    .iter()
                    .any(|y| self.placement_free(i, s, x, y, total, own))
            });
            if !feasible {
                space.remove(obj.shape, s as i32)?;
            }
        }
        Ok(())
    }

    fn propagate(&self, space: &mut Space) -> Result<(), Conflict> {
        let mut scratch = OccupancyGrid::new(self.bounds);
        let mandatory: Vec<Vec<Rect>> = (0..self.objects.len())
            .map(|i| self.mandatory(space, i, &mut scratch))
            .collect();
        let mut total = OccupancyGrid::new(self.bounds);
        for rects in &mandatory {
            for &r in rects {
                total.add_rect(r, 1);
            }
        }
        if total.max_count() >= 2 {
            return Err(Conflict);
        }
        for (i, own) in mandatory.iter().enumerate() {
            self.prune_axis(space, i, true, &total, own)?;
            self.prune_axis(space, i, false, &total, own)?;
            self.prune_shapes(space, i, &total, own)?;
        }
        Ok(())
    }
}

/// An anchor variable over `[lo, lo + span]` with random holes.
fn holey_var(space: &mut Space, rng: &mut ChaCha8Rng, lo: i32, span: i32) -> VarId {
    let v = space.new_var(Domain::interval(lo, lo + span));
    for x in lo..=lo + span {
        if rng.gen_bool(0.2) && space.size(v) > 1 {
            space.remove(v, x).unwrap();
        }
    }
    v
}

fn domains(space: &Space, vars: &[VarId]) -> Vec<Domain> {
    vars.iter().map(|&v| space.domain(v).clone()).collect()
}

fn touched(space: &mut Space) -> Vec<(VarId, DomainEvent)> {
    let mut log = Vec::new();
    space.drain_touched(&mut log);
    log
}

#[test]
fn nonoverlap_matches_reference_propagator() {
    let mut rng = ChaCha8Rng::seed_from_u64(22);
    let (mut ok, mut failed, mut pruned) = (0, 0, 0);
    for _ in 0..400 {
        let bounds = Rect::new(
            rng.gen_range(-2..2),
            rng.gen_range(-2..2),
            rng.gen_range(6..16),
            rng.gen_range(4..10),
        );
        let mut space = Space::new();
        let mut objects = Vec::new();
        for _ in 0..rng.gen_range(2..6) {
            let shapes: Vec<ShapeDef> = (0..rng.gen_range(1..4))
                .map(|_| random_shape(&mut rng))
                .collect();
            let fixed = rng.gen_bool(0.4);
            let (sx, sy) = if fixed {
                (0, 0)
            } else {
                (rng.gen_range(0..6), rng.gen_range(0..4))
            };
            let (x0, y0) = (
                rng.gen_range(0..bounds.w - 2),
                rng.gen_range(0..bounds.h - 2),
            );
            let x = holey_var(&mut space, &mut rng, bounds.x + x0, sx);
            let y = holey_var(&mut space, &mut rng, bounds.y + y0, sy);
            let s = holey_var(&mut space, &mut rng, 0, shapes.len() as i32 - 1);
            objects.push(GeostObject::new(x, y, s, Arc::new(shapes)));
        }
        touched(&mut space);
        let vars: Vec<VarId> = objects.iter().flat_map(|o| [o.x, o.y, o.shape]).collect();
        let reference = ReferenceNonOverlap {
            objects: objects.clone(),
            bounds,
        };
        let kernel = NonOverlap::new(objects, bounds);
        let (mut a, mut b) = (space.clone(), space);
        // A few rounds, as the engine would rerun it after its own changes.
        for _ in 0..3 {
            let (ra, rb) = (reference.propagate(&mut a), kernel.propagate(&mut b));
            assert_eq!(ra, rb, "outcome");
            assert_eq!(domains(&a, &vars), domains(&b, &vars), "domains");
            let (ta, tb) = (touched(&mut a), touched(&mut b));
            assert_eq!(ta, tb, "touch order");
            if ra.is_err() {
                failed += 1;
                break;
            }
            ok += 1;
            pruned += usize::from(!ta.is_empty());
        }
    }
    assert!(
        ok > 200 && failed > 30 && pruned > 50,
        "ok {ok} failed {failed} pruned {pruned}"
    );
}
