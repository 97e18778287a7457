//! Resource compatibility: anchor filtering against a heterogeneous region.
//!
//! This module realizes the paper's constraint subsets `M_a` (eq. 2 — every
//! tile inside the constrained region) and `M_b` (eq. 3 — every tile on a
//! fabric tile of identical resource type), and is the second geost
//! extension: the fabric's non-matching and static tiles act as
//! *resource-typed forbidden regions* for each box of each shape.
//!
//! The output is the explicit set of valid `(shape, x, y)` triples per
//! object, posted to the solver as a table constraint — generalized arc
//! consistency over exactly the paper's two constraint families.

use crate::fit;
use crate::shape::ShapeDef;
use rrf_fabric::{Point, Region, ResourceKind};
use rrf_solver::{Model, VarId};
use std::collections::BTreeSet;

/// All anchor positions where every tile of `shape` lies inside the
/// region's bounds and on a fabric tile of its own resource kind, in
/// row-major order (y outer, x inner).
///
/// The scan is restricted to anchors that keep the shape's bounding box
/// inside the region's bounding box — anything else violates eq. 2 anyway.
pub fn allowed_anchors(region: &Region, shape: &ShapeDef) -> Vec<Point> {
    let mut anchors = Vec::new();
    scan_anchors(region, shape, |p| {
        anchors.push(p);
        true
    });
    anchors
}

/// The first valid anchor for `shape` on `region`, scanning the same
/// order as [`allowed_anchors`] but returning at the first hit — the
/// cheap "is this alternative dead?" query used by pre-solve analysis
/// and the server's submit-time preflight.
pub fn first_anchor(region: &Region, shape: &ShapeDef) -> Option<Point> {
    let mut first = None;
    scan_anchors(region, shape, |p| {
        first = Some(p);
        false
    });
    first
}

/// The one anchor scan behind [`allowed_anchors`] and [`first_anchor`]:
/// the mask kernel ([`fit`]), stopping when `visit` returns `false`.
fn scan_anchors(region: &Region, shape: &ShapeDef, visit: impl FnMut(Point) -> bool) {
    debug_assert!(
        shape.boxes().iter().all(|b| b.w > 0 && b.h > 0),
        "degenerate box reached anchor enumeration"
    );
    fit::scan_accepted(region, shape, visit);
}

/// What pre-solve analysis concluded about one design alternative of a
/// module, relative to its siblings on a concrete region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeFate {
    /// No reason to drop this shape.
    Keep,
    /// No valid anchor anywhere in the region (eq. 2–3 empty).
    Dead,
    /// Identical anchor-relative tile set as the (kept) shape at this
    /// index — e.g. the 180° rotation of a symmetric layout.
    DuplicateOf(usize),
    /// The (kept) shape at this index covers a strict subset of this
    /// shape's tiles and extends no further right, so every placement of
    /// this shape can be replaced by one of the dominating shape without
    /// increasing the extent objective.
    DominatedBy(usize),
}

/// The canonical anchor-relative tile set of a shape — box-decomposition
/// independent, so two `ShapeDef`s covering the same tiles with different
/// box splits compare equal.
pub fn canonical_tiles(shape: &ShapeDef) -> BTreeSet<(i32, i32, ResourceKind)> {
    shape.tiles().map(|(p, k)| (p.y, p.x, k)).collect()
}

/// Classify a module's design alternatives on `region`: dead shapes,
/// duplicates (first occurrence kept), and dominated shapes. The returned
/// vector is index-aligned with `shapes`; referenced indices always point
/// at a `Keep` entry, and classification is deterministic (earlier index
/// wins among duplicates, smallest dominating index is recorded).
///
/// Dropping every non-`Keep` shape is sound for the extent-minimizing
/// objective: dead shapes admit no placement, duplicates admit exactly
/// the same placements as their keeper, and a dominated shape's placement
/// can always be replaced by its dominator's (a tile subset at the same
/// anchor, reaching no further right).
pub fn classify_shapes(region: &Region, shapes: &[ShapeDef]) -> Vec<ShapeFate> {
    let mut fates = vec![ShapeFate::Keep; shapes.len()];
    let tiles: Vec<BTreeSet<(i32, i32, ResourceKind)>> =
        shapes.iter().map(canonical_tiles).collect();

    for (i, shape) in shapes.iter().enumerate() {
        if first_anchor(region, shape).is_none() {
            fates[i] = ShapeFate::Dead;
        }
    }
    // Duplicates: identical tile sets collapse onto the smallest live
    // index (a duplicate of a dead shape is itself dead).
    for i in 0..shapes.len() {
        if fates[i] != ShapeFate::Keep {
            continue;
        }
        for j in 0..i {
            if fates[j] == ShapeFate::Keep && tiles[j] == tiles[i] {
                fates[i] = ShapeFate::DuplicateOf(j);
                break;
            }
        }
    }
    // Dominance: strict tile-subset with no larger right extent. Strict
    // subset is a strict partial order, so the minimal elements survive
    // and the keep set can never empty out from mutual elimination. Two
    // phases: mark everything dominated by any live sibling, then point
    // each dominated shape at a surviving (minimal) dominator — one
    // exists by transitivity of the subset order.
    let dominates = |j: usize, i: usize| {
        tiles[j].len() < tiles[i].len()
            && shapes[j].bounding_box().x_end() <= shapes[i].bounding_box().x_end()
            && tiles[j].is_subset(&tiles[i])
    };
    let live: Vec<usize> = (0..shapes.len())
        .filter(|&i| fates[i] == ShapeFate::Keep)
        .collect();
    let dominated: Vec<usize> = live
        .iter()
        .copied()
        .filter(|&i| live.iter().any(|&j| j != i && dominates(j, i)))
        .collect();
    for &i in &dominated {
        let keeper = live
            .iter()
            .copied()
            .find(|&j| !dominated.contains(&j) && dominates(j, i))
            .expect("a minimal dominator survives");
        fates[i] = ShapeFate::DominatedBy(keeper);
    }
    fates
}

/// The `(shape, x, y)` rows valid for an object with the given design
/// alternatives on `region` — the paper's `M_a ∩ M_b` per module.
pub fn anchor_rows(region: &Region, shapes: &[ShapeDef]) -> Vec<Vec<i32>> {
    let mut rows = Vec::new();
    for (s, shape) in shapes.iter().enumerate() {
        for p in allowed_anchors(region, shape) {
            rows.push(vec![s as i32, p.x, p.y]);
        }
    }
    rows
}

/// Post the placement table `(shape, x, y) ∈ anchor_rows` for one object.
/// Returns the number of rows (0 means the model is already infeasible —
/// the table propagator will fail it).
pub fn post_placement_table(
    model: &mut Model,
    region: &Region,
    shapes: &[ShapeDef],
    shape_var: VarId,
    x: VarId,
    y: VarId,
) -> usize {
    let rows = anchor_rows(region, shapes);
    let n = rows.len();
    model.table(vec![shape_var, x, y], rows);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::ShiftedBox;
    use rrf_fabric::{device, Fabric, Rect, ResourceKind};

    fn clb_box(w: i32, h: i32) -> ShapeDef {
        ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)])
    }

    #[test]
    fn homogeneous_region_full_sliding_window() {
        let region = Region::whole(device::homogeneous(5, 4));
        let anchors = allowed_anchors(&region, &clb_box(2, 2));
        // (5-2+1) * (4-2+1) = 12 anchors.
        assert_eq!(anchors.len(), 12);
        assert!(anchors.contains(&Point::new(0, 0)));
        assert!(anchors.contains(&Point::new(3, 2)));
        assert!(!anchors.contains(&Point::new(4, 0)));
    }

    #[test]
    fn bram_column_blocks_clb_shape() {
        // Fabric: columns c c B c c — a 2-wide CLB shape cannot straddle x=2.
        let fabric = Fabric::from_art("ccBcc\nccBcc").unwrap();
        let region = Region::whole(fabric);
        let anchors = allowed_anchors(&region, &clb_box(2, 1));
        let xs: Vec<i32> = anchors.iter().map(|p| p.x).collect();
        assert!(xs.contains(&0));
        assert!(xs.contains(&3));
        assert!(!xs.contains(&1));
        assert!(!xs.contains(&2));
    }

    #[test]
    fn bram_shape_snaps_to_bram_column() {
        let fabric = Fabric::from_art("ccBcc\nccBcc").unwrap();
        let region = Region::whole(fabric);
        let shape = ShapeDef::new(vec![ShiftedBox::new(0, 0, 1, 2, ResourceKind::Bram)]);
        let anchors = allowed_anchors(&region, &shape);
        assert_eq!(anchors, vec![Point::new(2, 0)]);
    }

    #[test]
    fn mixed_shape_requires_both_resources() {
        // Shape: 1 CLB tile at (0,0) + 1 BRAM tile at (1,0).
        let fabric = Fabric::from_art("cBcB").unwrap();
        let region = Region::whole(fabric);
        let shape = ShapeDef::new(vec![
            ShiftedBox::new(0, 0, 1, 1, ResourceKind::Clb),
            ShiftedBox::new(1, 0, 1, 1, ResourceKind::Bram),
        ]);
        let anchors = allowed_anchors(&region, &shape);
        assert_eq!(anchors, vec![Point::new(0, 0), Point::new(2, 0)]);
    }

    #[test]
    fn static_mask_forbids() {
        let mut region = Region::whole(device::homogeneous(4, 2));
        region.add_static_mask(Rect::new(2, 0, 2, 2));
        let anchors = allowed_anchors(&region, &clb_box(2, 2));
        assert_eq!(anchors, vec![Point::new(0, 0)]);
    }

    #[test]
    fn faulted_tiles_are_forbidden_regions() {
        // The fault path needs no geost changes: a faulted tile reads as
        // `Static` from the region, so the same resource-typed forbidden
        // region machinery that models the static design excludes it.
        let mut region = Region::whole(device::homogeneous(4, 2));
        let before = allowed_anchors(&region, &clb_box(2, 2));
        assert_eq!(before.len(), 3);
        region.inject_fault(rrf_fabric::Fault::Tile { x: 1, y: 0 });
        let anchors = allowed_anchors(&region, &clb_box(2, 2));
        assert_eq!(anchors, vec![Point::new(2, 0)]);
        for p in &anchors {
            for (tile, _) in clb_box(2, 2).tiles_at(p.x, p.y) {
                assert!(!region.is_faulted(tile.x, tile.y));
            }
        }
        region.clear_fault(rrf_fabric::Fault::Tile { x: 1, y: 0 });
        assert_eq!(allowed_anchors(&region, &clb_box(2, 2)), before);
    }

    #[test]
    fn column_fault_splits_anchor_space_like_bram_column() {
        // A dead column behaves exactly like a resource-mismatched column:
        // shapes cannot straddle it (cf. `bram_column_blocks_clb_shape`).
        let mut region = Region::whole(device::homogeneous(5, 2));
        region.inject_fault(rrf_fabric::Fault::Column { x: 2 });
        let anchors = allowed_anchors(&region, &clb_box(2, 1));
        let xs: Vec<i32> = anchors.iter().map(|p| p.x).collect();
        assert!(xs.contains(&0) && xs.contains(&3));
        assert!(!xs.contains(&1) && !xs.contains(&2));
        // The table constraint shrinks accordingly — the solver sees the
        // fault purely through the anchor rows.
        let rows = anchor_rows(&region, &[clb_box(2, 1)]);
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn oversized_shape_has_no_anchor() {
        let region = Region::whole(device::homogeneous(3, 3));
        assert!(allowed_anchors(&region, &clb_box(4, 1)).is_empty());
    }

    #[test]
    fn rows_enumerate_all_shapes() {
        let region = Region::whole(device::homogeneous(3, 1));
        let shapes = vec![clb_box(1, 1), clb_box(2, 1)];
        let rows = anchor_rows(&region, &shapes);
        // Shape 0: 3 anchors; shape 1: 2 anchors.
        assert_eq!(rows.len(), 5);
        assert!(rows.contains(&vec![0, 2, 0]));
        assert!(rows.contains(&vec![1, 1, 0]));
        assert!(!rows.contains(&vec![1, 2, 0]));
    }

    #[test]
    fn first_anchor_agrees_with_full_scan() {
        let fabric = Fabric::from_art("ccBcc\nccBcc").unwrap();
        let region = Region::whole(fabric);
        for shape in [clb_box(2, 1), clb_box(2, 2), clb_box(5, 1), clb_box(6, 1)] {
            let all = allowed_anchors(&region, &shape);
            assert_eq!(first_anchor(&region, &shape), all.first().copied());
        }
    }

    #[test]
    fn classify_marks_dead_and_keeps_live() {
        let region = Region::whole(device::homogeneous(4, 3));
        let fates = classify_shapes(&region, &[clb_box(2, 2), clb_box(5, 1), clb_box(1, 4)]);
        assert_eq!(
            fates,
            vec![ShapeFate::Keep, ShapeFate::Dead, ShapeFate::Dead]
        );
    }

    #[test]
    fn classify_collapses_duplicates_onto_first() {
        // Same tiles, different box decomposition: still a duplicate.
        let region = Region::whole(device::homogeneous(6, 4));
        let split = ShapeDef::new(vec![
            ShiftedBox::new(0, 0, 2, 1, ResourceKind::Clb),
            ShiftedBox::new(0, 1, 2, 1, ResourceKind::Clb),
        ]);
        let fates = classify_shapes(&region, &[clb_box(2, 2), split, clb_box(2, 2)]);
        assert_eq!(
            fates,
            vec![
                ShapeFate::Keep,
                ShapeFate::DuplicateOf(0),
                ShapeFate::DuplicateOf(0)
            ]
        );
    }

    #[test]
    fn classify_prunes_dominated_superset() {
        // The L-shape strictly contains the bar's tiles and reaches no
        // further right, so the bar dominates it.
        let region = Region::whole(device::homogeneous(8, 4));
        let bar = clb_box(2, 1);
        let ell = ShapeDef::new(vec![
            ShiftedBox::new(0, 0, 2, 1, ResourceKind::Clb),
            ShiftedBox::new(0, 1, 1, 1, ResourceKind::Clb),
        ]);
        let fates = classify_shapes(&region, &[ell.clone(), bar.clone()]);
        assert_eq!(fates, vec![ShapeFate::DominatedBy(1), ShapeFate::Keep]);
        // A dominance chain keeps only the minimal element and every
        // reference points at a kept shape.
        let single = clb_box(1, 1);
        let fates = classify_shapes(&region, &[ell, bar, single]);
        assert_eq!(
            fates,
            vec![
                ShapeFate::DominatedBy(2),
                ShapeFate::DominatedBy(2),
                ShapeFate::Keep
            ]
        );
    }

    #[test]
    fn classify_keeps_equal_area_alternatives() {
        // Rotated/transposed equal-area shapes never dominate each other.
        let region = Region::whole(device::homogeneous(8, 8));
        let fates = classify_shapes(&region, &[clb_box(3, 2), clb_box(2, 3)]);
        assert_eq!(fates, vec![ShapeFate::Keep, ShapeFate::Keep]);
    }

    #[test]
    fn post_table_prunes_model() {
        let region = Region::whole(device::homogeneous(4, 1));
        let shapes = vec![clb_box(3, 1)];
        let mut model = Model::new();
        let s = model.new_var(0, 0);
        let x = model.new_var(0, 100);
        let y = model.new_var(0, 100);
        let n = post_placement_table(&mut model, &region, &shapes, s, x, y);
        assert_eq!(n, 2);
        let out = rrf_solver::solve(model, rrf_solver::SearchConfig::default());
        assert_eq!(out.stats.solutions, 2);
    }
}
