//! Reconfigurable regions: the part of a device available to modules.
//!
//! The paper's partial region model "encompasses the reconfigurable and the
//! static regions of the device" (§III-B, Fig. 4c): a bounding box limits
//! where modules may go at all, and the static design is modelled as tiles
//! whose resource type is *not available*. [`Region`] is that view: a fabric
//! plus a reconfigurable bounding box plus static-region masks.

use crate::{ColumnMask, Fabric, FabricError, Fault, FaultSet, Point, Rect, ResourceKind};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A reconfigurable region carved out of a [`Fabric`].
///
/// All placement constraint generation consumes a `Region`: its
/// [`Region::kind_at`] reports `Static` for every tile outside the bounding
/// box, inside a static mask, outside the device, or marked defective in
/// the fault set — so downstream code has a single uniform "what can live
/// here" query, and a faulted tile is excluded from placement exactly the
/// way a static tile is (see [`crate::fault`]).
///
/// The same answer is also kept as one bit per tile per placeable kind
/// ([`Region::accept_mask`]) for the fit kernels that test whole boxes.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    fabric: Fabric,
    bounds: Rect,
    static_masks: Vec<Rect>,
    /// Currently defective tiles. `default` keeps pre-fault serialized
    /// regions loadable.
    #[serde(default)]
    faults: FaultSet,
    /// Derived from the fields above: equality and serde ignore it, and
    /// every mutator resets it.
    #[serde(skip)]
    masks: AcceptMasks,
}

/// The per-kind accept masks of a region, built on first use and shared
/// between clones (one bit per tile of the bounds per placeable kind).
#[derive(Clone, Default)]
struct AcceptMasks(OnceLock<Arc<[ColumnMask; 3]>>);

impl PartialEq for AcceptMasks {
    fn eq(&self, _: &AcceptMasks) -> bool {
        true
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("fabric", &self.fabric)
            .field("bounds", &self.bounds)
            .field("static_masks", &self.static_masks)
            .field("faults", &self.faults)
            .finish()
    }
}

impl Region {
    /// A region spanning the whole fabric with no static mask.
    pub fn whole(fabric: Fabric) -> Region {
        let bounds = fabric.bounds();
        Region {
            fabric,
            bounds,
            static_masks: Vec::new(),
            faults: FaultSet::new(),
            masks: AcceptMasks::default(),
        }
    }

    /// A region restricted to `bounds` (must lie inside the fabric).
    pub fn with_bounds(fabric: Fabric, bounds: Rect) -> Result<Region, FabricError> {
        if !fabric.bounds().contains_rect(&bounds) || bounds.is_empty() {
            return Err(FabricError::RegionOutOfBounds);
        }
        Ok(Region {
            fabric,
            bounds,
            static_masks: Vec::new(),
            faults: FaultSet::new(),
            masks: AcceptMasks::default(),
        })
    }

    /// Check a deserialized region: a valid fabric, and bounds inside it.
    pub fn validate(&self) -> Result<(), FabricError> {
        self.fabric.validate()?;
        if !self.fabric.bounds().contains_rect(&self.bounds) || self.bounds.is_empty() {
            return Err(FabricError::RegionOutOfBounds);
        }
        Ok(())
    }

    /// Reserve `rect` for the static design; its tiles become unavailable.
    /// The mask may extend beyond the bounds (extra area is irrelevant).
    ///
    /// The paper's evaluation allocates "a bounding box consuming about 50%
    /// of the partial region … for the static region" (Fig. 4c); see
    /// [`Region::split_static_half`] for that exact setup.
    pub fn add_static_mask(&mut self, rect: Rect) {
        if !rect.is_empty() {
            self.static_masks.push(rect);
            self.masks = AcceptMasks::default();
        }
    }

    /// The Fig. 4c setup: mask the right `fraction` (in percent, 0–100) of
    /// the region for the static design, keeping the left part
    /// reconfigurable.
    pub fn split_static_half(fabric: Fabric, static_percent: i32) -> Region {
        let bounds = fabric.bounds();
        let static_w = (bounds.w * static_percent.clamp(0, 100)) / 100;
        let mut region = Region::whole(fabric);
        if static_w > 0 {
            region.add_static_mask(Rect::new(
                bounds.x_end() - static_w,
                bounds.y,
                static_w,
                bounds.h,
            ));
        }
        region
    }

    /// The underlying device fabric (unmasked).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The reconfigurable bounding box.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Static-region masks applied on top of the bounds.
    pub fn static_masks(&self) -> &[Rect] {
        &self.static_masks
    }

    /// Whether the tile at `(x, y)` is masked by a static rectangle.
    pub fn is_masked(&self, x: i32, y: i32) -> bool {
        let p = Point::new(x, y);
        self.static_masks.iter().any(|m| m.contains(p))
    }

    /// The effective resource kind at `(x, y)`: the fabric's kind, demoted to
    /// `Static` outside the bounds, under a mask, or on a defective tile.
    #[inline]
    pub fn kind_at(&self, x: i32, y: i32) -> ResourceKind {
        debug_assert!(
            self.fabric.bounds().contains_rect(&self.bounds),
            "region bounds escaped the fabric"
        );
        if !self.bounds.contains(Point::new(x, y))
            || self.is_masked(x, y)
            || self.faults.contains(x, y)
        {
            ResourceKind::Static
        } else {
            self.fabric.kind_at(x, y)
        }
    }

    /// Currently defective tiles.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Whether the tile at `(x, y)` is marked defective.
    #[inline]
    pub fn is_faulted(&self, x: i32, y: i32) -> bool {
        self.faults.contains(x, y)
    }

    /// Mark every tile covered by `fault` defective. Returns the tiles
    /// that *newly* lost a placeable resource — tiles that were already
    /// static, masked, out of bounds, or faulted do not change the
    /// region's capacity and are not reported (injecting a fault into the
    /// static half of a device is a no-op for placement). The healthy kind
    /// of each tile is recorded so [`Region::clear_fault`] can restore it.
    pub fn inject_fault(&mut self, fault: Fault) -> Vec<Point> {
        let mut lost = Vec::new();
        for p in fault.tiles_in(self.bounds) {
            let kind = self.kind_at(p.x, p.y);
            if kind.is_placeable() && self.faults.inject(p.x, p.y, kind) {
                lost.push(p);
            }
        }
        if !lost.is_empty() {
            self.masks = AcceptMasks::default();
        }
        lost
    }

    /// Clear every faulted tile covered by `fault`; their healthy resource
    /// kinds become available again. Returns the restored tiles.
    pub fn clear_fault(&mut self, fault: Fault) -> Vec<Point> {
        let cleared: Vec<Point> = self
            .faults
            .iter()
            .filter(|t| fault.covers(t.x, t.y))
            .map(|t| Point::new(t.x, t.y))
            .collect();
        for p in &cleared {
            self.faults.clear(p.x, p.y);
        }
        if !cleared.is_empty() {
            self.masks = AcceptMasks::default();
        }
        cleared
    }

    /// Whether a module tile of kind `kind` may sit at `(x, y)` (eq. 3:
    /// identical resource type required, and the effective type must be
    /// placeable at all).
    #[inline]
    pub fn accepts(&self, x: i32, y: i32, kind: ResourceKind) -> bool {
        kind.is_placeable() && self.kind_at(x, y) == kind
    }

    /// [`Region::accepts`] for every tile of the bounds at once: one bit
    /// per tile whose effective kind is `kind`, or `None` for a kind no
    /// module may occupy. Built from [`Region::kind_at`] on first use and
    /// shared by every clone taken afterwards.
    pub fn accept_mask(&self, kind: ResourceKind) -> Option<&ColumnMask> {
        if !kind.is_placeable() {
            return None;
        }
        let masks = self.masks.0.get_or_init(|| {
            let mut masks: [ColumnMask; 3] = std::array::from_fn(|_| ColumnMask::new(self.bounds));
            for (p, k) in self.iter() {
                if k.is_placeable() {
                    masks[k.index()].set(p.x, p.y, true);
                }
            }
            Arc::new(masks)
        });
        Some(&masks[kind.index()])
    }

    /// Iterate `(point, effective kind)` over the bounding box.
    pub fn iter(&self) -> impl Iterator<Item = (Point, ResourceKind)> + '_ {
        self.bounds
            .tiles()
            .map(move |p| (p, self.kind_at(p.x, p.y)))
    }

    /// Count tiles of an effective kind within the bounds.
    pub fn count(&self, kind: ResourceKind) -> usize {
        match self.accept_mask(kind) {
            Some(mask) => mask.count_in(self.bounds),
            None => self.iter().filter(|&(_, k)| k == kind).count(),
        }
    }

    /// Count module-occupiable tiles within the bounds.
    pub fn placeable_count(&self) -> usize {
        self.placeable_count_in(self.bounds)
    }

    /// Count module-occupiable tiles within `window ∩ bounds`. Used by the
    /// utilization metric, which divides occupied tiles by the placeable
    /// tiles of the consumed window.
    pub fn placeable_count_in(&self, window: Rect) -> usize {
        ResourceKind::PLACEABLE
            .iter()
            .filter_map(|&k| self.accept_mask(k))
            .map(|mask| mask.count_in(window))
            .sum()
    }

    /// The region mirrored across the x=y diagonal (fabric, bounds and
    /// masks all transposed).
    pub fn transposed(&self) -> Region {
        Region {
            fabric: self.fabric.transposed(),
            bounds: self.bounds.transposed(),
            static_masks: self.static_masks.iter().map(Rect::transposed).collect(),
            faults: self.faults.transposed(),
            masks: AcceptMasks::default(),
        }
    }

    /// Flatten to a standalone fabric where every non-reconfigurable tile is
    /// `Static` — convenient for rendering.
    pub fn to_effective_fabric(&self) -> Fabric {
        let mut out = Fabric::filled(
            self.fabric.width(),
            self.fabric.height(),
            ResourceKind::Static,
        )
        .expect("source fabric already validated");
        for y in 0..self.fabric.height() {
            for x in 0..self.fabric.width() {
                out.set(x, y, self.kind_at(x, y)).expect("in bounds");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device;

    #[test]
    fn whole_region_mirrors_fabric() {
        let f = device::virtex_like(24, 8);
        let r = Region::whole(f.clone());
        for (p, k) in f.iter() {
            assert_eq!(r.kind_at(p.x, p.y), k);
        }
    }

    #[test]
    fn out_of_bounds_is_static() {
        let r = Region::whole(device::homogeneous(4, 4));
        assert_eq!(r.kind_at(-1, 0), ResourceKind::Static);
        assert_eq!(r.kind_at(4, 0), ResourceKind::Static);
        assert_eq!(r.kind_at(0, 99), ResourceKind::Static);
    }

    #[test]
    fn bounds_restrict() {
        let f = device::homogeneous(8, 8);
        let r = Region::with_bounds(f, Rect::new(2, 2, 4, 4)).unwrap();
        assert_eq!(r.kind_at(0, 0), ResourceKind::Static);
        assert_eq!(r.kind_at(3, 3), ResourceKind::Clb);
        assert_eq!(r.kind_at(6, 6), ResourceKind::Static);
        assert_eq!(r.placeable_count(), 16);
    }

    #[test]
    fn bad_bounds_rejected() {
        let f = device::homogeneous(8, 8);
        assert!(Region::with_bounds(f.clone(), Rect::new(4, 4, 8, 2)).is_err());
        assert!(Region::with_bounds(f, Rect::new(0, 0, 0, 0)).is_err());
    }

    #[test]
    fn static_mask_hides_tiles() {
        let f = device::homogeneous(8, 4);
        let mut r = Region::whole(f);
        r.add_static_mask(Rect::new(4, 0, 4, 4));
        assert!(r.is_masked(5, 1));
        assert!(!r.is_masked(3, 1));
        assert_eq!(r.kind_at(5, 1), ResourceKind::Static);
        assert_eq!(r.kind_at(3, 1), ResourceKind::Clb);
        assert_eq!(r.placeable_count(), 16);
    }

    #[test]
    fn empty_mask_ignored() {
        let mut r = Region::whole(device::homogeneous(4, 4));
        r.add_static_mask(Rect::new(1, 1, 0, 3));
        assert!(r.static_masks().is_empty());
    }

    #[test]
    fn split_static_half_masks_right_side() {
        let r = Region::split_static_half(device::homogeneous(10, 4), 50);
        assert_eq!(r.placeable_count(), 20);
        assert_eq!(r.kind_at(4, 0), ResourceKind::Clb);
        assert_eq!(r.kind_at(5, 0), ResourceKind::Static);
    }

    #[test]
    fn split_static_zero_percent() {
        let r = Region::split_static_half(device::homogeneous(10, 4), 0);
        assert_eq!(r.placeable_count(), 40);
    }

    #[test]
    fn accepts_requires_exact_match() {
        let f = Fabric::from_art("cB\ncc").unwrap();
        let r = Region::whole(f);
        assert!(r.accepts(0, 0, ResourceKind::Clb));
        assert!(!r.accepts(0, 0, ResourceKind::Bram));
        assert!(r.accepts(1, 1, ResourceKind::Bram));
        assert!(!r.accepts(1, 1, ResourceKind::Clb));
        // Static is never placeable even if "matching".
        assert!(!r.accepts(-1, -1, ResourceKind::Static));
    }

    #[test]
    fn placeable_count_in_window() {
        let f = device::homogeneous(8, 4);
        let mut r = Region::whole(f);
        r.add_static_mask(Rect::new(0, 0, 2, 4));
        assert_eq!(r.placeable_count_in(Rect::new(0, 0, 4, 4)), 8);
        assert_eq!(r.placeable_count_in(Rect::new(0, 0, 100, 100)), 24);
        assert_eq!(r.placeable_count_in(Rect::new(50, 50, 2, 2)), 0);
    }

    #[test]
    fn effective_fabric_matches_kind_at() {
        let f = device::virtex_like(16, 6);
        let mut r = Region::with_bounds(f, Rect::new(2, 1, 10, 4)).unwrap();
        r.add_static_mask(Rect::new(6, 1, 2, 2));
        let eff = r.to_effective_fabric();
        for (p, k) in eff.iter() {
            assert_eq!(k, r.kind_at(p.x, p.y));
        }
    }

    #[test]
    fn transposed_region_mirrors_kinds() {
        let mut r =
            Region::with_bounds(device::virtex_like(12, 6), Rect::new(1, 1, 10, 4)).unwrap();
        r.add_static_mask(Rect::new(5, 1, 3, 2));
        let t = r.transposed();
        for x in 0..12 {
            for y in 0..6 {
                assert_eq!(t.kind_at(y, x), r.kind_at(x, y), "({x},{y})");
            }
        }
        assert_eq!(t.transposed(), r);
    }

    #[test]
    fn serde_roundtrip() {
        let mut r = Region::whole(device::virtex_like(16, 6));
        r.add_static_mask(Rect::new(8, 0, 8, 6));
        r.inject_fault(Fault::Column { x: 3 });
        let json = serde_json::to_string(&r).unwrap();
        let back: Region = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn pre_fault_region_json_still_loads() {
        let r = Region::whole(device::homogeneous(4, 2));
        let json = serde_json::to_string(&r).unwrap();
        // A serialized region from before the fault model has no `faults`
        // field; `serde(default)` must accept it.
        let stripped = json.replace(",\"faults\":{\"tiles\":[]}", "");
        assert!(stripped.len() < json.len(), "field not found to strip");
        let back: Region = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn faulted_tile_reads_static_and_restores() {
        let mut r = Region::whole(device::homogeneous(6, 3));
        assert_eq!(r.placeable_count(), 18);
        let lost = r.inject_fault(Fault::Tile { x: 2, y: 1 });
        assert_eq!(lost, vec![Point::new(2, 1)]);
        assert!(r.is_faulted(2, 1));
        assert_eq!(r.kind_at(2, 1), ResourceKind::Static);
        assert!(!r.accepts(2, 1, ResourceKind::Clb));
        assert_eq!(r.placeable_count(), 17);
        // Double injection is a no-op.
        assert!(r.inject_fault(Fault::Tile { x: 2, y: 1 }).is_empty());
        let cleared = r.clear_fault(Fault::Tile { x: 2, y: 1 });
        assert_eq!(cleared, vec![Point::new(2, 1)]);
        assert_eq!(r.kind_at(2, 1), ResourceKind::Clb);
        assert_eq!(r.placeable_count(), 18);
    }

    #[test]
    fn column_fault_records_healthy_kinds() {
        let mut r = Region::whole(Fabric::from_art("ccBc\nccBc").unwrap());
        let lost = r.inject_fault(Fault::Column { x: 2 });
        assert_eq!(lost.len(), 2);
        for t in r.faults().iter() {
            assert_eq!(t.kind, ResourceKind::Bram);
        }
        assert_eq!(r.count(ResourceKind::Bram), 0);
        r.clear_fault(Fault::Column { x: 2 });
        assert_eq!(r.count(ResourceKind::Bram), 2);
    }

    #[test]
    fn fault_on_masked_or_static_tiles_is_noop() {
        let mut r = Region::whole(device::homogeneous(4, 2));
        r.add_static_mask(Rect::new(2, 0, 2, 2));
        // Masked half: no placeable resource is lost.
        assert!(r.inject_fault(Fault::Tile { x: 3, y: 0 }).is_empty());
        // Out of bounds: no-op, too.
        assert!(r.inject_fault(Fault::Tile { x: 99, y: 0 }).is_empty());
        assert!(r.faults().is_empty());
    }

    fn assert_masks_match_accepts(r: &Region) {
        for kind in ResourceKind::ALL {
            let Some(mask) = r.accept_mask(kind) else {
                assert!(!kind.is_placeable());
                continue;
            };
            for p in r.bounds().tiles() {
                assert_eq!(
                    mask.get(p.x, p.y),
                    r.accepts(p.x, p.y, kind),
                    "{kind:?} {p}"
                );
            }
            assert_eq!(mask.count_in(r.bounds()), r.count(kind));
        }
    }

    #[test]
    fn accept_masks_follow_every_mutator() {
        let mut r =
            Region::with_bounds(device::virtex_like(24, 8), Rect::new(2, 1, 20, 6)).unwrap();
        let pristine = r.clone();
        assert_masks_match_accepts(&r);
        // Built masks are not part of the region's identity.
        assert_eq!(r, pristine);
        let shared = r.clone();
        r.add_static_mask(Rect::new(4, 1, 3, 3));
        assert_masks_match_accepts(&r);
        r.inject_fault(Fault::Column { x: 10 });
        assert_masks_match_accepts(&r);
        r.clear_fault(Fault::Column { x: 10 });
        assert_masks_match_accepts(&r);
        // The clone taken before the mutations kept its own view.
        assert_masks_match_accepts(&shared);
        assert_masks_match_accepts(&r.transposed());
        let back: Region = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_masks_match_accepts(&back);
    }

    #[test]
    fn transposed_region_transposes_faults() {
        let mut r = Region::whole(device::homogeneous(5, 3));
        r.inject_fault(Fault::Tile { x: 4, y: 1 });
        let t = r.transposed();
        assert!(t.is_faulted(1, 4));
        assert_eq!(t.kind_at(1, 4), ResourceKind::Static);
        assert_eq!(t.transposed(), r);
    }
}
