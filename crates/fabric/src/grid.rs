//! The dense tile grid backing a device model.

use crate::{FabricError, Point, Rect, ResourceKind};
use serde::{Deserialize, Serialize};

/// Largest supported fabric edge, in tiles. Real devices are a few hundred
/// tiles on a side at this model's granularity; the cap keeps index math
/// comfortably inside `i32`/`usize`.
pub const MAX_DIM: i32 = 4096;

/// A width×height grid of resource-typed tiles — the paper's *partial region
/// layout* ("a set of tiles with different internal resource types", §III-B),
/// covering both the reconfigurable and static parts of the device.
///
/// Tiles are stored row-major from the bottom-left; `(0,0)` is the
/// bottom-left tile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fabric {
    width: i32,
    height: i32,
    tiles: Vec<ResourceKind>,
}

impl Fabric {
    /// A fabric filled entirely with `fill`.
    pub fn filled(width: i32, height: i32, fill: ResourceKind) -> Result<Fabric, FabricError> {
        if width <= 0 || height <= 0 || width > MAX_DIM || height > MAX_DIM {
            return Err(FabricError::BadDimensions { width, height });
        }
        Ok(Fabric {
            width,
            height,
            tiles: vec![fill; (width * height) as usize],
        })
    }

    /// Check what deserialization cannot: dimensions in range, and one
    /// tile per cell.
    pub fn validate(&self) -> Result<(), FabricError> {
        let (width, height) = (self.width, self.height);
        let in_range = 0 < width && width <= MAX_DIM && 0 < height && height <= MAX_DIM;
        if !in_range || self.tiles.len() != (width * height) as usize {
            return Err(FabricError::BadDimensions { width, height });
        }
        Ok(())
    }

    /// A purely homogeneous CLB fabric (the reference model the paper argues
    /// is no longer realistic, kept for the heterogeneity ablation).
    pub fn homogeneous(width: i32, height: i32) -> Result<Fabric, FabricError> {
        Fabric::filled(width, height, ResourceKind::Clb)
    }

    /// Parse a string-art fabric. The **first line is the top row** (so the
    /// literal reads like the figures in the paper); every line must have the
    /// same length. Codes are those of [`ResourceKind::code`], with `'.'`
    /// accepted for CLB. Blank lines and leading/trailing spaces per line are
    /// rejected only implicitly (space is an unknown code).
    ///
    /// ```
    /// use rrf_fabric::{Fabric, ResourceKind};
    /// let f = Fabric::from_art("cBc\nccc").unwrap();
    /// assert_eq!(f.width(), 3);
    /// assert_eq!(f.height(), 2);
    /// assert_eq!(f.get(1, 1).unwrap(), ResourceKind::Bram); // top row is y=1
    /// ```
    pub fn from_art(art: &str) -> Result<Fabric, FabricError> {
        let rows: Vec<&str> = art.lines().filter(|l| !l.is_empty()).collect();
        let height = rows.len() as i32;
        let width = rows.first().map_or(0, |r| r.chars().count()) as i32;
        let mut fabric = Fabric::filled(width, height, ResourceKind::Static)?;
        for (i, row) in rows.iter().enumerate() {
            let got = row.chars().count();
            if got != width as usize {
                return Err(FabricError::RaggedRows {
                    expected: width as usize,
                    got,
                    row: i,
                });
            }
            // Line 0 is the top row → y = height-1-i.
            let y = height - 1 - i as i32;
            for (x, c) in row.chars().enumerate() {
                let kind = ResourceKind::from_code(c)?;
                fabric.set(x as i32, y, kind)?;
            }
        }
        Ok(fabric)
    }

    /// Render back to string art (top row first) — the exact inverse of
    /// [`Fabric::from_art`] for canonical codes.
    pub fn to_art(&self) -> String {
        let mut out = String::with_capacity((self.width as usize + 1) * self.height as usize);
        for y in (0..self.height).rev() {
            for x in 0..self.width {
                out.push(self.tiles[self.idx(x, y)].code());
            }
            if y > 0 {
                out.push('\n');
            }
        }
        out
    }

    #[inline]
    pub fn width(&self) -> i32 {
        self.width
    }

    #[inline]
    pub fn height(&self) -> i32 {
        self.height
    }

    /// The full extent as a rectangle anchored at the origin.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    #[inline]
    fn idx(&self, x: i32, y: i32) -> usize {
        debug_assert!(self.in_bounds(x, y));
        (y * self.width + x) as usize
    }

    /// Whether `(x, y)` addresses a tile.
    #[inline]
    pub fn in_bounds(&self, x: i32, y: i32) -> bool {
        x >= 0 && x < self.width && y >= 0 && y < self.height
    }

    /// The resource kind at `(x, y)`.
    pub fn get(&self, x: i32, y: i32) -> Result<ResourceKind, FabricError> {
        if !self.in_bounds(x, y) {
            return Err(FabricError::OutOfBounds { x, y });
        }
        Ok(self.tiles[self.idx(x, y)])
    }

    /// The resource kind at `(x, y)`, treating everything outside the fabric
    /// as `Static`. This is the form constraint generation wants: off-device
    /// is simply unusable.
    #[inline]
    pub fn kind_at(&self, x: i32, y: i32) -> ResourceKind {
        if self.in_bounds(x, y) {
            self.tiles[(y * self.width + x) as usize]
        } else {
            ResourceKind::Static
        }
    }

    /// Overwrite the tile at `(x, y)`.
    pub fn set(&mut self, x: i32, y: i32, kind: ResourceKind) -> Result<(), FabricError> {
        if !self.in_bounds(x, y) {
            return Err(FabricError::OutOfBounds { x, y });
        }
        let i = self.idx(x, y);
        self.tiles[i] = kind;
        Ok(())
    }

    /// Overwrite every tile in `rect` (clipped to the fabric).
    pub fn fill_rect(&mut self, rect: Rect, kind: ResourceKind) {
        if let Some(clipped) = rect.intersection(&self.bounds()) {
            for p in clipped.tiles() {
                let i = self.idx(p.x, p.y);
                self.tiles[i] = kind;
            }
        }
    }

    /// Overwrite a full column `x` with `kind` (no-op if out of range).
    pub fn fill_column(&mut self, x: i32, kind: ResourceKind) {
        self.fill_rect(Rect::new(x, 0, 1, self.height), kind);
    }

    /// The fabric mirrored across the x=y diagonal (tile `(x, y)` moves to
    /// `(y, x)`), used to solve height-minimization as width-minimization
    /// on the transposed problem.
    pub fn transposed(&self) -> Fabric {
        let mut out = Fabric::filled(self.height, self.width, ResourceKind::Static)
            .expect("transposed dimensions are valid when the original's are");
        for (p, k) in self.iter() {
            out.set(p.y, p.x, k).expect("in bounds");
        }
        out
    }

    /// Iterate `(point, kind)` over all tiles, row-major from bottom-left.
    pub fn iter(&self) -> impl Iterator<Item = (Point, ResourceKind)> + '_ {
        self.bounds()
            .tiles()
            .map(move |p| (p, self.tiles[(p.y * self.width + p.x) as usize]))
    }

    /// All tile coordinates holding `kind`.
    pub fn tiles_of(&self, kind: ResourceKind) -> impl Iterator<Item = Point> + '_ {
        self.iter().filter(move |&(_, k)| k == kind).map(|(p, _)| p)
    }

    /// Number of tiles holding `kind`.
    pub fn count(&self, kind: ResourceKind) -> usize {
        self.tiles.iter().filter(|&&k| k == kind).count()
    }

    /// Number of tiles a module could ever occupy (CLB+BRAM+DSP).
    pub fn placeable_count(&self) -> usize {
        self.tiles.iter().filter(|k| k.is_placeable()).count()
    }

    /// Total number of tiles.
    pub fn area(&self) -> usize {
        self.tiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_counts() {
        let f = Fabric::filled(4, 3, ResourceKind::Clb).unwrap();
        assert_eq!(f.area(), 12);
        assert_eq!(f.count(ResourceKind::Clb), 12);
        assert_eq!(f.count(ResourceKind::Bram), 0);
        assert_eq!(f.placeable_count(), 12);
    }

    #[test]
    fn bad_dimensions() {
        assert!(Fabric::filled(0, 3, ResourceKind::Clb).is_err());
        assert!(Fabric::filled(3, 0, ResourceKind::Clb).is_err());
        assert!(Fabric::filled(-1, 3, ResourceKind::Clb).is_err());
        assert!(Fabric::filled(MAX_DIM + 1, 3, ResourceKind::Clb).is_err());
    }

    #[test]
    fn art_roundtrip() {
        let art = "ciB\nckD\nc#c";
        let f = Fabric::from_art(art).unwrap();
        assert_eq!(f.to_art(), art);
        // First art line is the TOP row.
        assert_eq!(f.get(2, 2).unwrap(), ResourceKind::Bram);
        assert_eq!(f.get(1, 0).unwrap(), ResourceKind::Static);
    }

    #[test]
    fn art_ragged_rejected() {
        assert!(matches!(
            Fabric::from_art("ccc\ncc"),
            Err(FabricError::RaggedRows { row: 1, .. })
        ));
    }

    #[test]
    fn art_unknown_code_rejected() {
        assert!(matches!(
            Fabric::from_art("c?c"),
            Err(FabricError::UnknownResourceCode('?'))
        ));
    }

    #[test]
    fn art_empty_rejected() {
        assert!(Fabric::from_art("").is_err());
    }

    #[test]
    fn get_set_bounds() {
        let mut f = Fabric::homogeneous(3, 3).unwrap();
        assert!(f.get(3, 0).is_err());
        assert!(f.get(0, -1).is_err());
        f.set(1, 2, ResourceKind::Dsp).unwrap();
        assert_eq!(f.get(1, 2).unwrap(), ResourceKind::Dsp);
        assert!(f.set(5, 5, ResourceKind::Clb).is_err());
    }

    #[test]
    fn kind_at_outside_is_static() {
        let f = Fabric::homogeneous(2, 2).unwrap();
        assert_eq!(f.kind_at(-1, 0), ResourceKind::Static);
        assert_eq!(f.kind_at(0, 2), ResourceKind::Static);
        assert_eq!(f.kind_at(1, 1), ResourceKind::Clb);
    }

    #[test]
    fn fill_rect_clips() {
        let mut f = Fabric::homogeneous(4, 4).unwrap();
        f.fill_rect(Rect::new(2, 2, 10, 10), ResourceKind::Static);
        assert_eq!(f.count(ResourceKind::Static), 4);
        assert_eq!(f.get(2, 2).unwrap(), ResourceKind::Static);
        assert_eq!(f.get(1, 1).unwrap(), ResourceKind::Clb);
        // Entirely outside: no-op.
        f.fill_rect(Rect::new(100, 100, 2, 2), ResourceKind::Bram);
        assert_eq!(f.count(ResourceKind::Bram), 0);
    }

    #[test]
    fn fill_column() {
        let mut f = Fabric::homogeneous(4, 3).unwrap();
        f.fill_column(2, ResourceKind::Bram);
        assert_eq!(f.count(ResourceKind::Bram), 3);
        for y in 0..3 {
            assert_eq!(f.get(2, y).unwrap(), ResourceKind::Bram);
        }
    }

    #[test]
    fn tiles_of_enumeration() {
        let f = Fabric::from_art("cBc\nBcc").unwrap();
        let brams: Vec<Point> = f.tiles_of(ResourceKind::Bram).collect();
        assert_eq!(brams, vec![Point::new(0, 0), Point::new(1, 1)]);
    }

    #[test]
    fn iter_covers_every_tile_once() {
        let f = Fabric::homogeneous(5, 4).unwrap();
        let pts: Vec<Point> = f.iter().map(|(p, _)| p).collect();
        assert_eq!(pts.len(), 20);
        let mut dedup = pts.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
    }

    #[test]
    fn transposed_mirrors_tiles() {
        let f = Fabric::from_art("cBc\nckD").unwrap();
        let t = f.transposed();
        assert_eq!(t.width(), 2);
        assert_eq!(t.height(), 3);
        for (p, k) in f.iter() {
            assert_eq!(t.get(p.y, p.x).unwrap(), k);
        }
        assert_eq!(t.transposed(), f);
    }

    #[test]
    fn serde_roundtrip() {
        let f = Fabric::from_art("cBc\nckD").unwrap();
        let json = serde_json::to_string(&f).unwrap();
        let back: Fabric = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }
}
