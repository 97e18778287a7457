//! A counting occupancy grid: the live layout of the greedy, annealing
//! and online placers.

// Determinism: grid digests escape into dump_session output.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use crate::fit;
use crate::shape::ShapeDef;
use rrf_fabric::{ColumnMask, Point, Rect, Region};

/// Per-tile occupation counts over a fixed extent, plus the occupied tiles
/// as a [`ColumnMask`] for [`OccupancyGrid::fits`] and
/// [`OccupancyGrid::first_fit`]. Counts (rather than bits) let a placer
/// lift a module off and put it back, and they are what
/// [`OccupancyGrid::digest`] fingerprints.
#[derive(Debug, Clone)]
pub struct OccupancyGrid {
    bounds: Rect,
    counts: Vec<u16>,
    /// Tiles with a non-zero count; kept in step by `add_rect`.
    occupied: ColumnMask,
}

impl OccupancyGrid {
    /// An all-zero grid covering `bounds`.
    pub fn new(bounds: Rect) -> OccupancyGrid {
        assert!(!bounds.is_empty(), "empty occupancy grid");
        OccupancyGrid {
            bounds,
            counts: vec![0; (bounds.w as usize) * (bounds.h as usize)],
            occupied: ColumnMask::new(bounds),
        }
    }

    #[inline]
    fn idx(&self, x: i32, y: i32) -> Option<usize> {
        if x < self.bounds.x
            || x >= self.bounds.x_end()
            || y < self.bounds.y
            || y >= self.bounds.y_end()
        {
            return None;
        }
        Some(((y - self.bounds.y) as usize) * self.bounds.w as usize + (x - self.bounds.x) as usize)
    }

    /// The covered extent.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Occupation count at `(x, y)`; tiles outside the grid count as 0.
    #[inline]
    pub fn get(&self, x: i32, y: i32) -> u16 {
        self.idx(x, y).map_or(0, |i| self.counts[i])
    }

    /// Add `delta` to every tile of `rect` (clipped to the grid).
    pub fn add_rect(&mut self, rect: Rect, delta: i16) {
        let Some(clipped) = rect.intersection(&self.bounds) else {
            return;
        };
        for y in clipped.y..clipped.y_end() {
            let row = ((y - self.bounds.y) as usize) * self.bounds.w as usize;
            for x in clipped.x..clipped.x_end() {
                let i = row + (x - self.bounds.x) as usize;
                self.counts[i] = (self.counts[i] as i32 + delta as i32)
                    .try_into()
                    .expect("occupancy count under/overflow");
                self.occupied.set(x, y, self.counts[i] > 0);
            }
        }
    }

    /// Whether `shape` at `anchor` touches no occupied tile; tiles outside
    /// the grid count as free. Containment and resource kinds are the
    /// anchor scan's job ([`crate::allowed_anchors`]).
    #[inline]
    pub fn fits(&self, shape: &ShapeDef, anchor: Point) -> bool {
        fit::collision(&self.occupied, shape, anchor).is_none()
    }

    /// The first anchor in (x, y) order (x outer, y inner), before
    /// `limit` if one is given, at which `shape` lies inside the region's
    /// bounds with every box on tiles of its own kind that no module
    /// occupies: the greedy placers' first fit, scanned column by column
    /// on the masks ([`fit::first_free`]). The grid must cover exactly the
    /// region's bounds.
    pub fn first_fit(
        &self,
        region: &Region,
        shape: &ShapeDef,
        limit: Option<Point>,
    ) -> Option<Point> {
        assert_eq!(
            self.bounds,
            region.bounds(),
            "grid and region bounds differ"
        );
        fit::first_free(region, shape, &self.occupied, limit)
    }

    /// Largest count anywhere.
    pub fn max_count(&self) -> u16 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Reset all counts to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.occupied.clear();
    }

    /// FNV-1a digest over the bounds and every per-tile count — a cheap
    /// fingerprint for "bit-identical occupancy" assertions (crash-recovery
    /// tests compare grids across process restarts by this digest).
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut mix = |v: i64| {
            for b in v.to_le_bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(PRIME);
            }
        };
        mix(self.bounds.x as i64);
        mix(self.bounds.y as i64);
        mix(self.bounds.w as i64);
        mix(self.bounds.h as i64);
        for &c in &self.counts {
            mix(c as i64);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut g = OccupancyGrid::new(Rect::new(0, 0, 4, 4));
        g.add_rect(Rect::new(1, 1, 2, 2), 1);
        g.add_rect(Rect::new(2, 2, 2, 2), 1);
        assert_eq!(g.get(1, 1), 1);
        assert_eq!(g.get(2, 2), 2);
        assert_eq!(g.get(3, 3), 1);
        assert_eq!(g.get(0, 0), 0);
        assert_eq!(g.max_count(), 2);
    }

    #[test]
    fn outside_reads_zero_and_writes_clip() {
        let mut g = OccupancyGrid::new(Rect::new(0, 0, 2, 2));
        g.add_rect(Rect::new(-5, -5, 20, 20), 1);
        assert_eq!(g.get(0, 0), 1);
        assert_eq!(g.get(1, 1), 1);
        assert_eq!(g.get(5, 5), 0);
        assert_eq!(g.get(-1, 0), 0);
    }

    #[test]
    fn negative_delta_and_clear() {
        let mut g = OccupancyGrid::new(Rect::new(0, 0, 3, 3));
        g.add_rect(Rect::new(0, 0, 3, 3), 2);
        g.add_rect(Rect::new(0, 0, 1, 1), -2);
        assert_eq!(g.get(0, 0), 0);
        assert_eq!(g.get(1, 1), 2);
        g.clear();
        assert_eq!(g.max_count(), 0);
    }

    #[test]
    fn offset_bounds() {
        let mut g = OccupancyGrid::new(Rect::new(10, 20, 2, 2));
        g.add_rect(Rect::new(10, 20, 1, 1), 1);
        assert_eq!(g.get(10, 20), 1);
        assert_eq!(g.get(0, 0), 0);
    }

    #[test]
    fn digest_tracks_content_not_history() {
        let mut a = OccupancyGrid::new(Rect::new(0, 0, 4, 4));
        let mut b = OccupancyGrid::new(Rect::new(0, 0, 4, 4));
        a.add_rect(Rect::new(0, 0, 2, 2), 1);
        b.add_rect(Rect::new(0, 0, 2, 2), 2);
        b.add_rect(Rect::new(0, 0, 2, 2), -1);
        assert_eq!(a.digest(), b.digest(), "same counts, same digest");
        b.add_rect(Rect::new(3, 3, 1, 1), 1);
        assert_ne!(a.digest(), b.digest());
        // Same counts over different bounds must not collide trivially.
        let c = OccupancyGrid::new(Rect::new(1, 0, 4, 4));
        let d = OccupancyGrid::new(Rect::new(0, 0, 4, 4));
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    #[should_panic]
    fn underflow_panics() {
        let mut g = OccupancyGrid::new(Rect::new(0, 0, 2, 2));
        g.add_rect(Rect::new(0, 0, 1, 1), -1);
    }
}
