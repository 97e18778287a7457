//! Shapes as sets of resource-typed shifted boxes.
//!
//! geost defines a shape as a set of boxes, each with an offset from the
//! object's anchor and a size. Our boxes additionally carry the resource
//! kind their tiles require — extension (1) of the paper.

use rrf_fabric::{Point, Rect, ResourceKind};
use serde::{Deserialize, Serialize};

/// A box of `w × h` tiles of a single resource kind, offset `(dx, dy)` from
/// the shape's anchor (the anchor is the shape's local origin; offsets are
/// non-negative by convention but not by requirement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShiftedBox {
    pub dx: i32,
    pub dy: i32,
    pub w: i32,
    pub h: i32,
    pub resource: ResourceKind,
}

impl ShiftedBox {
    pub fn new(dx: i32, dy: i32, w: i32, h: i32, resource: ResourceKind) -> ShiftedBox {
        assert!(w > 0 && h > 0, "degenerate shifted box {w}x{h}");
        ShiftedBox {
            dx,
            dy,
            w,
            h,
            resource,
        }
    }

    /// The box's rectangle when the anchor sits at `(x, y)`.
    #[inline]
    pub fn placed(&self, x: i32, y: i32) -> Rect {
        Rect::new(x + self.dx, y + self.dy, self.w, self.h)
    }

    /// The box's rectangle relative to the anchor.
    #[inline]
    pub fn local(&self) -> Rect {
        Rect::new(self.dx, self.dy, self.w, self.h)
    }

    /// Tile count.
    #[inline]
    pub fn area(&self) -> i64 {
        self.w as i64 * self.h as i64
    }
}

/// One layout of a module: a non-empty set of shifted boxes. The paper's
/// *shape* (a set of tilesets); a module is then a set of `ShapeDef`s — its
/// design alternatives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShapeDef {
    boxes: Vec<ShiftedBox>,
}

impl ShapeDef {
    /// Build from boxes. Panics on an empty box set (the paper requires
    /// shapes to be non-empty) or on internally overlapping boxes, which
    /// would double-count area.
    pub fn new(boxes: Vec<ShiftedBox>) -> ShapeDef {
        assert!(!boxes.is_empty(), "shape with no boxes");
        for (i, a) in boxes.iter().enumerate() {
            for b in &boxes[i + 1..] {
                assert!(
                    !a.local().intersects(&b.local()),
                    "overlapping boxes within one shape: {:?} vs {:?}",
                    a,
                    b
                );
            }
        }
        ShapeDef { boxes }
    }

    /// Build a shape from unit tiles, greedily merged into maximal boxes:
    /// first horizontal runs per row and resource kind, then vertical
    /// stacking of equal runs. The result covers exactly the input tiles.
    ///
    /// Duplicated tiles are an error (a tile cannot carry two kinds).
    pub fn from_tiles(tiles: &[(Point, ResourceKind)]) -> ShapeDef {
        assert!(!tiles.is_empty(), "shape with no tiles");
        let mut sorted: Vec<(Point, ResourceKind)> = tiles.to_vec();
        sorted.sort_by_key(|(p, _)| (p.y, p.x));
        for w in sorted.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate tile {} in shape", w[0].0);
        }
        // Horizontal runs per row.
        #[derive(Clone, Copy, PartialEq)]
        struct Run {
            x: i32,
            y: i32,
            w: i32,
            kind: ResourceKind,
        }
        let mut runs: Vec<Run> = Vec::new();
        for &(p, kind) in &sorted {
            match runs.last_mut() {
                Some(run) if run.y == p.y && run.kind == kind && run.x + run.w == p.x => {
                    run.w += 1;
                }
                _ => runs.push(Run {
                    x: p.x,
                    y: p.y,
                    w: 1,
                    kind,
                }),
            }
        }
        // Vertical merge of identical runs on consecutive rows.
        let mut boxes: Vec<ShiftedBox> = Vec::new();
        let mut consumed = vec![false; runs.len()];
        for i in 0..runs.len() {
            if consumed[i] {
                continue;
            }
            let base = runs[i];
            let mut h = 1;
            'grow: loop {
                let want_y = base.y + h;
                for (j, other) in runs.iter().enumerate() {
                    if !consumed[j]
                        && other.y == want_y
                        && other.x == base.x
                        && other.w == base.w
                        && other.kind == base.kind
                    {
                        consumed[j] = true;
                        h += 1;
                        continue 'grow;
                    }
                }
                break;
            }
            boxes.push(ShiftedBox::new(base.x, base.y, base.w, h, base.kind));
        }
        ShapeDef::new(boxes)
    }

    pub fn boxes(&self) -> &[ShiftedBox] {
        &self.boxes
    }

    /// Whether the shape upholds what [`ShapeDef::new`] asserts: at least
    /// one box, every box with area, no two overlapping. Deserialized
    /// shapes skip `new`, so code that takes them from outside checks this.
    pub fn is_well_formed(&self) -> bool {
        let boxes = &self.boxes;
        !boxes.is_empty()
            && boxes.iter().all(|b| b.w > 0 && b.h > 0)
            && (boxes.iter().enumerate()).all(|(i, a)| {
                boxes[i + 1..]
                    .iter()
                    .all(|b| !a.local().intersects(&b.local()))
            })
    }

    /// Total tile count.
    pub fn area(&self) -> i64 {
        self.boxes.iter().map(ShiftedBox::area).sum()
    }

    /// Tight bounding box in anchor-relative coordinates.
    pub fn bounding_box(&self) -> Rect {
        let mut bb = self.boxes[0].local();
        for b in &self.boxes[1..] {
            bb = bb.union_bbox(&b.local());
        }
        bb
    }

    /// Width/height of the bounding box.
    pub fn width(&self) -> i32 {
        self.bounding_box().w
    }

    pub fn height(&self) -> i32 {
        self.bounding_box().h
    }

    /// Iterate all `(tile, kind)` pairs relative to the anchor.
    pub fn tiles(&self) -> impl Iterator<Item = (Point, ResourceKind)> + '_ {
        self.boxes
            .iter()
            .flat_map(|b| b.local().tiles().map(move |p| (p, b.resource)))
    }

    /// Iterate all tiles when the anchor sits at `(x, y)`.
    pub fn tiles_at(&self, x: i32, y: i32) -> impl Iterator<Item = (Point, ResourceKind)> + '_ {
        self.tiles().map(move |(p, k)| (p.offset(x, y), k))
    }

    /// Tile count per resource kind, as a multiset fingerprint. Two design
    /// alternatives of the same module typically (not necessarily) share
    /// this fingerprint.
    pub fn resource_multiset(&self) -> [i64; 6] {
        let mut counts = [0i64; 6];
        for b in &self.boxes {
            counts[b.resource.index()] += b.area();
        }
        counts
    }

    /// The shape rotated 180° about its bounding-box center — the paper's
    /// canonical design alternative ("the second layout is a 180 degree
    /// rotation of the first"). The rotated shape is re-anchored so its
    /// bounding box again starts at the anchor.
    pub fn rotated_180(&self) -> ShapeDef {
        let bb = self.bounding_box();
        let boxes = self
            .boxes
            .iter()
            .map(|b| {
                // Rotate the box rect: its far corner maps to the new
                // origin corner.
                let new_dx = (bb.x_end() - (b.dx + b.w)) + bb.x;
                let new_dy = (bb.y_end() - (b.dy + b.h)) + bb.y;
                ShiftedBox::new(new_dx, new_dy, b.w, b.h, b.resource)
            })
            .collect();
        ShapeDef::new(boxes)
    }

    /// The shape mirrored across the x=y diagonal (every box's offset and
    /// size swap coordinates).
    pub fn transposed(&self) -> ShapeDef {
        ShapeDef::new(
            self.boxes
                .iter()
                .map(|b| ShiftedBox::new(b.dy, b.dx, b.h, b.w, b.resource))
                .collect(),
        )
    }

    /// Translate all boxes so the bounding box origin is `(0, 0)` —
    /// normalization used by generators and the verifier.
    pub fn normalized(&self) -> ShapeDef {
        let bb = self.bounding_box();
        if bb.x == 0 && bb.y == 0 {
            return self.clone();
        }
        ShapeDef::new(
            self.boxes
                .iter()
                .map(|b| ShiftedBox::new(b.dx - bb.x, b.dy - bb.y, b.w, b.h, b.resource))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clb() -> ResourceKind {
        ResourceKind::Clb
    }

    #[test]
    fn box_placement() {
        let b = ShiftedBox::new(1, 2, 3, 4, clb());
        assert_eq!(b.placed(10, 20), Rect::new(11, 22, 3, 4));
        assert_eq!(b.local(), Rect::new(1, 2, 3, 4));
        assert_eq!(b.area(), 12);
    }

    #[test]
    #[should_panic]
    fn degenerate_box_panics() {
        let _ = ShiftedBox::new(0, 0, 0, 3, clb());
    }

    #[test]
    #[should_panic]
    fn overlapping_boxes_panic() {
        let _ = ShapeDef::new(vec![
            ShiftedBox::new(0, 0, 2, 2, clb()),
            ShiftedBox::new(1, 1, 2, 2, clb()),
        ]);
    }

    #[test]
    fn shape_metrics() {
        // L-shape: 3x1 bottom bar + 1x2 left column above it.
        let s = ShapeDef::new(vec![
            ShiftedBox::new(0, 0, 3, 1, clb()),
            ShiftedBox::new(0, 1, 1, 2, ResourceKind::Bram),
        ]);
        assert_eq!(s.area(), 5);
        assert_eq!(s.bounding_box(), Rect::new(0, 0, 3, 3));
        assert_eq!(s.width(), 3);
        assert_eq!(s.height(), 3);
        let ms = s.resource_multiset();
        assert_eq!(ms[ResourceKind::Clb.index()], 3);
        assert_eq!(ms[ResourceKind::Bram.index()], 2);
    }

    #[test]
    fn from_tiles_rectangle() {
        let tiles: Vec<(Point, ResourceKind)> =
            Rect::new(0, 0, 3, 2).tiles().map(|p| (p, clb())).collect();
        let s = ShapeDef::from_tiles(&tiles);
        assert_eq!(s.boxes().len(), 1);
        assert_eq!(s.boxes()[0], ShiftedBox::new(0, 0, 3, 2, clb()));
    }

    #[test]
    fn from_tiles_mixed_kinds() {
        // ccB / ccB — CLB 2x2 box plus BRAM 1x2 box.
        let mut tiles = Vec::new();
        for y in 0..2 {
            for x in 0..2 {
                tiles.push((Point::new(x, y), clb()));
            }
            tiles.push((Point::new(2, y), ResourceKind::Bram));
        }
        let s = ShapeDef::from_tiles(&tiles);
        assert_eq!(s.boxes().len(), 2);
        assert_eq!(s.area(), 6);
        let covered: std::collections::BTreeSet<(i32, i32)> =
            s.tiles().map(|(p, _)| (p.x, p.y)).collect();
        assert_eq!(covered.len(), 6);
    }

    #[test]
    fn from_tiles_covers_exactly_input() {
        // An awkward disconnected pattern.
        let tiles = vec![
            (Point::new(0, 0), clb()),
            (Point::new(2, 0), clb()),
            (Point::new(0, 1), clb()),
            (Point::new(2, 2), ResourceKind::Dsp),
        ];
        let s = ShapeDef::from_tiles(&tiles);
        let mut covered: Vec<(Point, ResourceKind)> = s.tiles().collect();
        covered.sort_by_key(|(p, _)| (p.y, p.x));
        let mut expect = tiles.clone();
        expect.sort_by_key(|(p, _)| (p.y, p.x));
        assert_eq!(covered, expect);
    }

    #[test]
    #[should_panic]
    fn from_tiles_duplicate_panics() {
        let tiles = vec![(Point::new(0, 0), clb()), (Point::new(0, 0), clb())];
        let _ = ShapeDef::from_tiles(&tiles);
    }

    #[test]
    fn tiles_at_translates() {
        let s = ShapeDef::new(vec![ShiftedBox::new(0, 0, 2, 1, clb())]);
        let placed: Vec<Point> = s.tiles_at(5, 7).map(|(p, _)| p).collect();
        assert_eq!(placed, vec![Point::new(5, 7), Point::new(6, 7)]);
    }

    #[test]
    fn rotation_involution() {
        let s = ShapeDef::new(vec![
            ShiftedBox::new(0, 0, 3, 1, clb()),
            ShiftedBox::new(0, 1, 1, 2, ResourceKind::Bram),
        ]);
        let r = s.rotated_180();
        // Same area/footprint metrics, same bounding box size.
        assert_eq!(r.area(), s.area());
        assert_eq!(r.width(), s.width());
        assert_eq!(r.height(), s.height());
        assert_eq!(r.resource_multiset(), s.resource_multiset());
        // Rotating twice returns the original.
        assert_eq!(r.rotated_180(), s);
        // And the rotation actually moved the BRAM column to the right.
        let bram_tiles: Vec<Point> = r
            .tiles()
            .filter(|(_, k)| *k == ResourceKind::Bram)
            .map(|(p, _)| p)
            .collect();
        assert_eq!(bram_tiles, vec![Point::new(2, 0), Point::new(2, 1)]);
    }

    #[test]
    fn rotation_of_symmetric_shape_is_identity() {
        let s = ShapeDef::new(vec![ShiftedBox::new(0, 0, 2, 2, clb())]);
        assert_eq!(s.rotated_180(), s);
    }

    #[test]
    fn transposed_swaps_axes() {
        let s = ShapeDef::new(vec![
            ShiftedBox::new(0, 0, 3, 1, clb()),
            ShiftedBox::new(0, 1, 1, 2, ResourceKind::Bram),
        ]);
        let t = s.transposed();
        assert_eq!(t.width(), s.height());
        assert_eq!(t.height(), s.width());
        assert_eq!(t.area(), s.area());
        assert_eq!(t.resource_multiset(), s.resource_multiset());
        assert_eq!(t.transposed(), s);
        let tiles: std::collections::BTreeSet<(i32, i32)> =
            t.tiles().map(|(p, _)| (p.x, p.y)).collect();
        let expected: std::collections::BTreeSet<(i32, i32)> =
            s.tiles().map(|(p, _)| (p.y, p.x)).collect();
        assert_eq!(tiles, expected);
    }

    #[test]
    fn normalized_moves_origin() {
        let s = ShapeDef::new(vec![ShiftedBox::new(3, 4, 2, 2, clb())]);
        let n = s.normalized();
        assert_eq!(n.bounding_box(), Rect::new(0, 0, 2, 2));
        assert_eq!(n.area(), s.area());
        // Idempotent.
        assert_eq!(n.normalized(), n);
    }

    #[test]
    fn serde_roundtrip() {
        let s = ShapeDef::new(vec![
            ShiftedBox::new(0, 0, 3, 1, clb()),
            ShiftedBox::new(0, 1, 1, 2, ResourceKind::Bram),
        ]);
        let json = serde_json::to_string(&s).unwrap();
        let back: ShapeDef = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
