//! The geost non-overlap propagator over polymorphic objects.
//!
//! Implements the paper's constraint family `M_c` (eq. 4): no two modules
//! may occupy a tile at the same time. The filtering follows the classic
//! geost recipe:
//!
//! 1. compute every object's **mandatory part** — tiles it occupies under
//!    *all* of its remaining placements (anchor slack × shape alternatives);
//! 2. fail as soon as two mandatory parts collide;
//! 3. sweep each object's anchor domains: a candidate anchor survives only
//!    if *some* alive shape and *some* partner coordinate avoid every other
//!    object's mandatory tiles; bounds that cannot survive are pruned;
//! 4. prune shape selectors whose every placement collides.
//!
//! The propagator is sound at every node and **complete at leaves**: once
//! all objects are fixed, mandatory parts equal the true covers, so any
//! residual overlap is detected.
//!
//! Mandatory parts are rectangles marked in one [`ColumnMask`] of the
//! bounds, which catches collisions in step 2. An object none of whose
//! open placements can reach another object's mandatory tile skips steps
//! 3–4: no value it holds can lose its support. For the others, a
//! placement test is one word operation per box column, and a failed test
//! reports the tile it hit, so a scan jumps past every anchor that tile
//! blocks instead of testing them one by one.

use crate::fit;
use crate::object::GeostObject;
use rrf_fabric::{ColumnMask, Point, Rect};
use rrf_solver::{Conflict, Propagator, Space, VarId};

/// Non-overlap of a set of geost objects within `bounds`.
///
/// `bounds` must cover every anchor placement reachable by the objects
/// (in the placer this is the region's bounding box, which the
/// compatibility tables already enforce); mandatory parts are clipped to it.
pub struct NonOverlap {
    objects: Vec<GeostObject>,
    bounds: Rect,
}

impl NonOverlap {
    pub fn new(objects: Vec<GeostObject>, bounds: Rect) -> NonOverlap {
        assert!(!bounds.is_empty(), "non-overlap with empty bounds");
        NonOverlap { objects, bounds }
    }

    /// Append the mandatory part of object `i`, clipped to the bounds, to
    /// `out` as rectangles: the per-box compulsory rectangles if a single
    /// shape is alive; with several alive shapes, the tiles compulsory
    /// under every one of them (intersected as masks, re-encoded as
    /// column runs).
    fn mandatory(&self, space: &Space, i: usize, out: &mut Vec<Rect>) {
        let obj = &self.objects[i];
        let mut alive = obj.alive_shapes(space);
        let (Some(s), None) = (alive.next(), alive.next()) else {
            return self.common_mandatory(space, i, out);
        };
        out.extend(
            obj.mandatory_rects(space, s)
                .filter_map(|r| r.intersection(&self.bounds)),
        );
    }

    /// [`NonOverlap::mandatory`] with no or several alive shapes.
    fn common_mandatory(&self, space: &Space, i: usize, out: &mut Vec<Rect>) {
        let per_shape = self.objects[i].mandatory_rects_per_shape(space);
        if per_shape.is_empty() || per_shape.iter().any(|rects| rects.is_empty()) {
            // No alive shape (the sweep fails the object), or one with no
            // compulsory tile at all, so no tile is compulsory under every
            // shape.
            return;
        }
        // Every common tile lies in the first shape's part.
        let Some(span) = (per_shape[0].iter())
            .filter_map(|r| r.intersection(&self.bounds))
            .reduce(|a, b| a.union_bbox(&b))
        else {
            return;
        };
        let frame = Rect::new(span.x, self.bounds.y, span.w, self.bounds.h);
        let mask_of = |rects: &[Rect]| {
            let mut mask = ColumnMask::new(frame);
            rects.iter().for_each(|&r| mask.fill_rect(r));
            mask
        };
        let mut common = mask_of(&per_shape[0]);
        for rects in &per_shape[1..] {
            common.intersect_with(&mask_of(rects));
        }
        out.extend(common.runs());
    }

    /// Whether some value of the partner coordinate gives object `i` a
    /// free placement under shape `s` with the other coordinate at `v`
    /// (`axis_is_x`: `v` is x). Partner values are tried in ascending
    /// order; a collision skips every value whose placement still covers
    /// the tile hit.
    fn partner_free(
        &self,
        space: &Space,
        i: usize,
        s: usize,
        axis_is_x: bool,
        v: i32,
        others: &ColumnMask,
    ) -> bool {
        let obj = &self.objects[i];
        let shape = &obj.shapes[s];
        let dom = space.domain(if axis_is_x { obj.y } else { obj.x });
        let mut w = Some(dom.min());
        while let Some(cur) = w {
            let (x, y) = if axis_is_x { (v, cur) } else { (cur, v) };
            let Some((b, hit)) = fit::collision(others, shape, Point::new(x, y)) else {
                return true;
            };
            w = dom.next_at_least(if axis_is_x {
                hit.y - b.dy + 1
            } else {
                hit.x - b.dx + 1
            });
        }
        false
    }

    /// Whether *any* alive shape and partner coordinates make `fixed_axis`
    /// value `v` feasible for object `i`. `axis_is_x` selects which anchor
    /// coordinate `v` binds. The shape found free is marked in `witnessed`.
    fn value_feasible(
        &self,
        space: &Space,
        i: usize,
        axis_is_x: bool,
        v: i32,
        others: &ColumnMask,
        witnessed: &mut [bool],
    ) -> bool {
        let found = (self.objects[i].alive_shapes(space))
            .find(|&s| self.partner_free(space, i, s, axis_is_x, v, others));
        found.inspect(|&s| witnessed[s] = true).is_some()
    }

    /// Prune the min and max of one anchor axis of object `i` to the first
    /// and last feasible values.
    fn prune_axis(
        &self,
        space: &mut Space,
        i: usize,
        axis_is_x: bool,
        others: &ColumnMask,
        witnessed: &mut [bool],
    ) -> Result<(), Conflict> {
        let var: VarId = if axis_is_x {
            self.objects[i].x
        } else {
            self.objects[i].y
        };
        let mut feasible =
            |space: &Space, v: i32| self.value_feasible(space, i, axis_is_x, v, others, witnessed);
        // Min side.
        let new_min = space.domain(var).iter().find(|&v| feasible(space, v));
        let Some(new_min) = new_min else {
            return Err(Conflict);
        };
        space.set_min(var, new_min)?;
        // Max side: the largest feasible value, at least `new_min`.
        let new_max = (space.domain(var).ranges().iter().rev())
            .flat_map(|&(lo, hi)| (lo..=hi).rev())
            .find(|&v| feasible(space, v))
            .expect("max exists when min exists");
        space.set_max(var, new_max)?;
        Ok(())
    }

    /// Remove alive shapes of object `i` with no feasible placement left.
    /// A shape `witnessed` free at a bound the axis sweeps kept still has
    /// that placement, so only the others are scanned.
    fn prune_shapes(
        &self,
        space: &mut Space,
        i: usize,
        others: &ColumnMask,
        witnessed: &[bool],
    ) -> Result<(), Conflict> {
        let obj = &self.objects[i];
        let alive: Vec<usize> = obj.alive_shapes(space).collect();
        if alive.len() <= 1 {
            return Ok(()); // axis pruning already proved feasibility
        }
        for s in alive {
            let feasible = witnessed[s]
                || (space.domain(obj.x).iter())
                    .any(|x| self.partner_free(space, i, s, true, x, others));
            if !feasible {
                space.remove(obj.shape, s as i32)?;
            }
        }
        Ok(())
    }

    /// Steps 3–4 for object `i` against the other objects' mandatory
    /// tiles (`others`).
    fn sweep(&self, space: &mut Space, i: usize, others: &ColumnMask) -> Result<(), Conflict> {
        let obj = &self.objects[i];
        if obj.alive_shapes(space).next().is_none() {
            return Err(Conflict);
        }
        // The tiles a box can still cover; if no alive shape's boxes reach
        // another object's mandatory tile, every placement is free.
        let (x_min, x_max) = (space.min(obj.x), space.max(obj.x));
        let (y_min, y_max) = (space.min(obj.y), space.max(obj.y));
        let reaches = obj.alive_shapes(space).any(|s| {
            obj.shapes[s].boxes().iter().any(|b| {
                others.any_in(Rect::new(
                    x_min + b.dx,
                    y_min + b.dy,
                    x_max - x_min + b.w,
                    y_max - y_min + b.h,
                ))
            })
        });
        if !reaches {
            return Ok(());
        }
        let mut witnessed = vec![false; obj.shapes.len()];
        self.prune_axis(space, i, true, others, &mut witnessed)?;
        self.prune_axis(space, i, false, others, &mut witnessed)?;
        self.prune_shapes(space, i, others, &witnessed)
    }
}

impl Propagator for NonOverlap {
    fn propagate(&self, space: &mut Space) -> Result<(), Conflict> {
        // Phases 1+2: mandatory parts, failing as soon as two share a tile.
        let mut total = ColumnMask::new(self.bounds);
        let mut rects = Vec::new();
        let mut parts = Vec::with_capacity(self.objects.len());
        for i in 0..self.objects.len() {
            let start = rects.len();
            self.mandatory(space, i, &mut rects);
            for &r in &rects[start..] {
                if total.any_in(r) {
                    return Err(Conflict);
                }
                total.fill_rect(r);
            }
            parts.push(start..rects.len());
        }
        // Phase 3+4: sweep anchors and shape selectors, each object against
        // everyone else's mandatory tiles.
        for (i, own) in parts.into_iter().enumerate() {
            rects[own.clone()].iter().for_each(|&r| total.clear_rect(r));
            self.sweep(space, i, &total)?;
            rects[own].iter().for_each(|&r| total.fill_rect(r));
        }
        Ok(())
    }

    fn dependencies(&self) -> Vec<VarId> {
        self.objects
            .iter()
            .flat_map(|o| [o.x, o.y, o.shape])
            .collect()
    }

    fn name(&self) -> &'static str {
        "geost_non_overlap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{ShapeDef, ShiftedBox};
    use rrf_fabric::ResourceKind;
    use rrf_solver::{Domain, Engine};
    use std::sync::Arc;

    fn rect_shape(w: i32, h: i32) -> Arc<Vec<ShapeDef>> {
        Arc::new(vec![ShapeDef::new(vec![ShiftedBox::new(
            0,
            0,
            w,
            h,
            ResourceKind::Clb,
        )])])
    }

    fn obj(
        space: &mut Space,
        shapes: Arc<Vec<ShapeDef>>,
        x: (i32, i32),
        y: (i32, i32),
    ) -> GeostObject {
        let xv = space.new_var(Domain::interval(x.0, x.1));
        let yv = space.new_var(Domain::interval(y.0, y.1));
        let sv = space.new_var(Domain::interval(0, shapes.len() as i32 - 1));
        GeostObject::new(xv, yv, sv, shapes)
    }

    fn run(space: &mut Space, p: NonOverlap) -> Result<(), Conflict> {
        let mut engine = Engine::new(space.num_vars());
        engine.post(p);
        engine.schedule_all();
        engine.propagate(space)
    }

    #[test]
    fn fixed_overlap_fails() {
        let mut space = Space::new();
        let a = obj(&mut space, rect_shape(2, 2), (0, 0), (0, 0));
        let b = obj(&mut space, rect_shape(2, 2), (1, 1), (1, 1));
        assert!(run(
            &mut space,
            NonOverlap::new(vec![a, b], Rect::new(0, 0, 8, 8))
        )
        .is_err());
    }

    #[test]
    fn fixed_disjoint_ok() {
        let mut space = Space::new();
        let a = obj(&mut space, rect_shape(2, 2), (0, 0), (0, 0));
        let b = obj(&mut space, rect_shape(2, 2), (2, 2), (0, 0));
        run(
            &mut space,
            NonOverlap::new(vec![a, b], Rect::new(0, 0, 8, 8)),
        )
        .unwrap();
    }

    #[test]
    fn anchor_pushed_past_fixed_block() {
        // A 4x4 block fixed at origin in a 8x4 strip; a 2x4 object with
        // x ∈ [0,6] must start at x >= 4.
        let mut space = Space::new();
        let a = obj(&mut space, rect_shape(4, 4), (0, 0), (0, 0));
        let b = obj(&mut space, rect_shape(2, 4), (0, 6), (0, 0));
        let bx = b.x;
        run(
            &mut space,
            NonOverlap::new(vec![a, b], Rect::new(0, 0, 8, 4)),
        )
        .unwrap();
        assert_eq!(space.min(bx), 4);
        assert_eq!(space.max(bx), 6);
    }

    #[test]
    fn squeeze_between_blocks() {
        // Blocks at x=[0,2) and x=[5,7) in a 7-wide strip; a 3-wide object
        // must sit exactly at x=2.
        let mut space = Space::new();
        let a = obj(&mut space, rect_shape(2, 2), (0, 0), (0, 0));
        let b = obj(&mut space, rect_shape(2, 2), (5, 5), (0, 0));
        let c = obj(&mut space, rect_shape(3, 2), (0, 4), (0, 0));
        let cx = c.x;
        run(
            &mut space,
            NonOverlap::new(vec![a, b, c], Rect::new(0, 0, 7, 2)),
        )
        .unwrap();
        assert_eq!(space.value(cx), 2);
    }

    #[test]
    fn mandatory_parts_of_loose_objects_do_not_prune() {
        // Two 2x2 objects with x ∈ [0,6] in a wide strip: no mandatory
        // parts, nothing pruned.
        let mut space = Space::new();
        let a = obj(&mut space, rect_shape(2, 2), (0, 6), (0, 0));
        let b = obj(&mut space, rect_shape(2, 2), (0, 6), (0, 0));
        let (ax, bx) = (a.x, b.x);
        run(
            &mut space,
            NonOverlap::new(vec![a, b], Rect::new(0, 0, 8, 2)),
        )
        .unwrap();
        assert_eq!((space.min(ax), space.max(ax)), (0, 6));
        assert_eq!((space.min(bx), space.max(bx)), (0, 6));
    }

    #[test]
    fn infeasible_axis_fails() {
        // A 4x2 block fixed in a 4-wide strip leaves no room for a 1x1.
        let mut space = Space::new();
        let a = obj(&mut space, rect_shape(4, 2), (0, 0), (0, 0));
        let b = obj(&mut space, rect_shape(1, 1), (0, 3), (0, 1));
        assert!(run(
            &mut space,
            NonOverlap::new(vec![a, b], Rect::new(0, 0, 4, 2))
        )
        .is_err());
    }

    #[test]
    fn shape_selector_pruned() {
        // Containment is compat's job, so pin the anchor and let the two
        // shapes differ by internal layout: shape 0 collides with the fixed
        // block, shape 1 (offset right) does not — only shape 1 survives.
        let mut space = Space::new();
        let block = obj(&mut space, rect_shape(2, 2), (0, 0), (0, 0));
        let shapes = Arc::new(vec![
            ShapeDef::new(vec![ShiftedBox::new(0, 0, 2, 2, ResourceKind::Clb)]),
            ShapeDef::new(vec![ShiftedBox::new(4, 4, 2, 2, ResourceKind::Clb)]),
        ]);
        let flex = obj(&mut space, shapes, (0, 0), (0, 0));
        let sv = flex.shape;
        run(
            &mut space,
            NonOverlap::new(vec![block, flex], Rect::new(0, 0, 8, 8)),
        )
        .unwrap();
        assert_eq!(space.value(sv), 1);
    }

    #[test]
    fn polymorphic_mandatory_intersection() {
        // Object with two shapes that share a common column: shape A is a
        // 2-wide box, shape B a 2-wide box shifted right by 1, x fixed.
        // Mandatory = intersection = the shared column; a second object's
        // feasibility must respect only that column.
        let mut space = Space::new();
        let shapes = Arc::new(vec![
            ShapeDef::new(vec![ShiftedBox::new(0, 0, 2, 2, ResourceKind::Clb)]),
            ShapeDef::new(vec![ShiftedBox::new(1, 0, 2, 2, ResourceKind::Clb)]),
        ]);
        let poly = obj(&mut space, shapes, (0, 0), (0, 0));
        // Probe: 1x2 object with x ∈ [0,3].
        let probe = obj(&mut space, rect_shape(1, 2), (0, 3), (0, 0));
        let px = probe.x;
        let (poly2, probe2) = (poly.clone(), probe.clone());
        run(
            &mut space,
            NonOverlap::new(vec![poly, probe], Rect::new(0, 0, 4, 2)),
        )
        .unwrap();
        // Shared mandatory column is x=1 (covered by both shapes); probe
        // keeps 0 (shape B world) and 3, loses only... min is 0, max is 3.
        assert_eq!(space.min(px), 0);
        assert_eq!(space.max(px), 3);
        assert!(!space.contains(px, 1) || space.contains(px, 1));
        // The decisive check: px = 1 must be infeasible only via search;
        // bounds sweep keeps interior values. Fix probe to x=1 and expect
        // failure.
        space.assign(px, 1).unwrap();
        assert!(run(
            &mut space,
            NonOverlap::new(vec![poly2, probe2], Rect::new(0, 0, 4, 2))
        )
        .is_err());
    }
}
