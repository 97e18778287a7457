//! Polymorphic geost objects: an anchor position plus a shape selector.

use crate::shape::ShapeDef;
use rrf_solver::{Space, VarId};
use std::sync::Arc;

/// A geost object: `shape ∈ [0, shapes.len())` selects the design
/// alternative, `(x, y)` is the anchor. The shape list is shared immutably
/// (propagators must stay stateless; see `rrf-solver`).
#[derive(Clone)]
pub struct GeostObject {
    pub x: VarId,
    pub y: VarId,
    pub shape: VarId,
    pub shapes: Arc<Vec<ShapeDef>>,
}

impl GeostObject {
    pub fn new(x: VarId, y: VarId, shape: VarId, shapes: Arc<Vec<ShapeDef>>) -> GeostObject {
        assert!(!shapes.is_empty(), "object with no shapes");
        GeostObject {
            x,
            y,
            shape,
            shapes,
        }
    }

    /// Shape indices still in the selector's domain.
    pub fn alive_shapes<'a>(&'a self, space: &'a Space) -> impl Iterator<Item = usize> + 'a {
        space
            .domain(self.shape)
            .iter()
            .filter_map(|s| usize::try_from(s).ok())
            .filter(|&s| s < self.shapes.len())
    }

    /// The *mandatory rectangles* of this object: rectangles certainly
    /// occupied by the object whatever placement it ends up taking, derived
    /// per shifted box as the classic compulsory part
    /// `[x_max + dx, x_min + dx + w) × [y_max + dy, y_min + dy + h)` and
    /// kept only if occupied under **every** alive shape.
    ///
    /// This is a sound under-approximation of the true mandatory region:
    /// with several alive shapes we only keep box parts that are mandatory
    /// in *all* of them (computed per-tile by the caller's grid); here we
    /// return the per-shape mandatory rectangle lists for the caller to
    /// intersect.
    pub fn mandatory_rects_per_shape(&self, space: &Space) -> Vec<Vec<rrf_fabric::Rect>> {
        self.alive_shapes(space)
            .map(|s| self.mandatory_rects(space, s).collect())
            .collect()
    }

    /// The compulsory rectangles of shape `s` alone (see
    /// [`GeostObject::mandatory_rects_per_shape`]).
    pub fn mandatory_rects<'a>(
        &'a self,
        space: &Space,
        s: usize,
    ) -> impl Iterator<Item = rrf_fabric::Rect> + 'a {
        let x_min = space.min(self.x);
        let x_max = space.max(self.x);
        let y_min = space.min(self.y);
        let y_max = space.max(self.y);
        self.shapes[s].boxes().iter().filter_map(move |b| {
            let lo_x = x_max + b.dx;
            let hi_x = x_min + b.dx + b.w; // exclusive
            let lo_y = y_max + b.dy;
            let hi_y = y_min + b.dy + b.h;
            if lo_x < hi_x && lo_y < hi_y {
                Some(rrf_fabric::Rect::new(lo_x, lo_y, hi_x - lo_x, hi_y - lo_y))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::ShiftedBox;
    use rrf_fabric::{Rect, ResourceKind};
    use rrf_solver::Domain;

    fn simple_object(space: &mut Space, x_rng: (i32, i32), y_rng: (i32, i32)) -> GeostObject {
        let x = space.new_var(Domain::interval(x_rng.0, x_rng.1));
        let y = space.new_var(Domain::interval(y_rng.0, y_rng.1));
        let shape = space.new_var(Domain::singleton(0));
        let shapes = Arc::new(vec![ShapeDef::new(vec![ShiftedBox::new(
            0,
            0,
            3,
            2,
            ResourceKind::Clb,
        )])]);
        GeostObject::new(x, y, shape, shapes)
    }

    #[test]
    fn alive_shapes_tracks_domain() {
        let mut space = Space::new();
        let x = space.new_var(Domain::singleton(0));
        let y = space.new_var(Domain::singleton(0));
        let shape = space.new_var(Domain::interval(0, 2));
        let shapes = Arc::new(vec![
            ShapeDef::new(vec![ShiftedBox::new(
                0,
                0,
                1,
                1,
                ResourceKind::Clb
            )]);
            3
        ]);
        let obj = GeostObject::new(x, y, shape, shapes);
        assert_eq!(obj.alive_shapes(&space).collect::<Vec<_>>(), vec![0, 1, 2]);
        space.remove(shape, 1).unwrap();
        assert_eq!(obj.alive_shapes(&space).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn mandatory_part_of_fixed_object_is_full_cover() {
        let mut space = Space::new();
        let obj = simple_object(&mut space, (2, 2), (5, 5));
        let rects = obj.mandatory_rects_per_shape(&space);
        assert_eq!(rects, vec![vec![Rect::new(2, 5, 3, 2)]]);
    }

    #[test]
    fn mandatory_part_shrinks_with_slack() {
        let mut space = Space::new();
        // x ∈ [0,2], box width 3 → mandatory x-range [2, 3) (1 column).
        let obj = simple_object(&mut space, (0, 2), (0, 0));
        let rects = obj.mandatory_rects_per_shape(&space);
        assert_eq!(rects, vec![vec![Rect::new(2, 0, 1, 2)]]);
    }

    #[test]
    fn mandatory_part_vanishes_with_large_slack() {
        let mut space = Space::new();
        // x slack ≥ width → no mandatory part.
        let obj = simple_object(&mut space, (0, 3), (0, 0));
        let rects = obj.mandatory_rects_per_shape(&space);
        assert_eq!(rects, vec![Vec::<Rect>::new()]);
    }
}
