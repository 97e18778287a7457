//! Column-major tile bitmasks: one bit per tile.
//!
//! Dedicated resources on column-oriented devices sit in whole columns,
//! so a column is the natural unit of a fit test: with a column's rows
//! packed into `u64` words, checking one box at one anchor costs one word
//! operation per column the box spans (per 64 rows) instead of one lookup
//! per tile. [`ColumnMask`] is that layout; the same type backs a region's
//! per-resource masks ([`crate::Region::accept_mask`]), the occupancy
//! grids of the greedy placers and the mandatory parts of the geost
//! non-overlap propagator.

use crate::{Point, Rect};

const WORD: usize = u64::BITS as usize;

/// A set of tiles within `bounds`, column-major: column `x` holds rows
/// `bounds.y..bounds.y_end()` in [`ColumnMask::words_per_column`]
/// consecutive words, row `bounds.y + r` at bit `r % 64` of word `r / 64`.
/// Tiles outside `bounds` are never set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMask {
    bounds: Rect,
    words: usize,
    bits: Vec<u64>,
}

/// A run of rows of one column, as the words it touches and their masks.
#[derive(Debug, Clone, Copy)]
struct RowSpan {
    first: usize,
    last: usize,
    low: u64,
    high: u64,
}

impl RowSpan {
    /// Rows `lo..hi`, relative to the mask's bottom row (`lo < hi`).
    #[inline]
    fn new(lo: usize, hi: usize) -> RowSpan {
        RowSpan {
            first: lo / WORD,
            last: (hi - 1) / WORD,
            low: !0 << (lo % WORD),
            high: !0 >> (WORD - 1 - (hi - 1) % WORD),
        }
    }

    /// `(word index, mask)` for every word the span touches, bottom up.
    #[inline]
    fn words(self) -> impl DoubleEndedIterator<Item = (usize, u64)> {
        (self.first..=self.last).map(move |w| {
            let low = if w == self.first { self.low } else { !0 };
            let high = if w == self.last { self.high } else { !0 };
            (w, low & high)
        })
    }
}

impl ColumnMask {
    /// An empty mask over `bounds`.
    pub fn new(bounds: Rect) -> ColumnMask {
        let words = (bounds.h.max(0) as usize).div_ceil(WORD).max(1);
        ColumnMask {
            bounds,
            words,
            bits: vec![0; words * bounds.w.max(0) as usize],
        }
    }

    /// Words per column: `ceil(height / 64)`.
    pub fn words_per_column(&self) -> usize {
        self.words
    }

    /// The words of column `x`; panics outside the bounds.
    #[inline]
    pub fn column(&self, x: i32) -> &[u64] {
        assert!(
            x >= self.bounds.x && x < self.bounds.x_end(),
            "column {x} outside {:?}",
            self.bounds
        );
        let i = (x - self.bounds.x) as usize * self.words;
        &self.bits[i..i + self.words]
    }

    /// `rect ∩ bounds` as the word range of its columns and its row span.
    #[inline]
    fn clip(&self, rect: Rect) -> Option<(std::ops::Range<usize>, RowSpan)> {
        let r = rect.intersection(&self.bounds)?;
        let c0 = (r.x - self.bounds.x) as usize * self.words;
        let lo = (r.y - self.bounds.y) as usize;
        let cols = c0..c0 + r.w as usize * self.words;
        Some((cols, RowSpan::new(lo, lo + r.h as usize)))
    }

    /// Whether the tile at `(x, y)` is set (`false` outside the bounds).
    #[inline]
    pub fn get(&self, x: i32, y: i32) -> bool {
        self.any_in(Rect::new(x, y, 1, 1))
    }

    /// Set or clear the tile at `(x, y)`; ignored outside the bounds.
    #[inline]
    pub fn set(&mut self, x: i32, y: i32, on: bool) {
        if on {
            self.fill_rect(Rect::new(x, y, 1, 1));
        } else {
            self.clear_rect(Rect::new(x, y, 1, 1));
        }
    }

    /// Set every tile of `rect ∩ bounds`.
    pub fn fill_rect(&mut self, rect: Rect) {
        if let Some((cols, span)) = self.clip(rect) {
            for col in self.bits[cols].chunks_exact_mut(self.words) {
                span.words().for_each(|(w, m)| col[w] |= m);
            }
        }
    }

    /// Clear every tile of `rect ∩ bounds`.
    pub fn clear_rect(&mut self, rect: Rect) {
        if let Some((cols, span)) = self.clip(rect) {
            for col in self.bits[cols].chunks_exact_mut(self.words) {
                span.words().for_each(|(w, m)| col[w] &= !m);
            }
        }
    }

    /// Whether any tile of `rect ∩ bounds` is set.
    #[inline]
    pub fn any_in(&self, rect: Rect) -> bool {
        self.clip(rect).is_some_and(|(cols, span)| {
            (self.bits[cols].chunks_exact(self.words))
                .any(|col| span.words().any(|(w, m)| col[w] & m != 0))
        })
    }

    /// The rightmost column of `rect ∩ bounds` holding a set tile, with
    /// that column's topmost set tile in `rect`: a placement test that
    /// fails can jump past every anchor this tile also blocks.
    pub fn last_hit(&self, rect: Rect) -> Option<Point> {
        let (cols, span) = self.clip(rect)?;
        let first_col = cols.start / self.words;
        (self.bits[cols].chunks_exact(self.words).enumerate().rev()).find_map(|(c, col)| {
            let (w, bits) = span
                .words()
                .rev()
                .map(|(w, m)| (w, col[w] & m))
                .find(|&(_, b)| b != 0)?;
            let row = w * WORD + WORD - 1 - bits.leading_zeros() as usize;
            Some(Point::new(
                self.bounds.x + (first_col + c) as i32,
                self.bounds.y + row as i32,
            ))
        })
    }

    /// Number of set tiles in `rect ∩ bounds`.
    pub fn count_in(&self, rect: Rect) -> usize {
        self.clip(rect).map_or(0, |(cols, span)| {
            (self.bits[cols].chunks_exact(self.words))
                .flat_map(|col| {
                    span.words()
                        .map(|(w, m)| (col[w] & m).count_ones() as usize)
                })
                .sum()
        })
    }

    /// The set tiles as one-column rectangles: the runs of consecutive
    /// set rows within each word of each column, left to right, bottom
    /// to top.
    pub fn runs(&self) -> Vec<Rect> {
        let mut out = Vec::new();
        for (c, col) in self.bits.chunks_exact(self.words).enumerate() {
            let x = self.bounds.x + c as i32;
            for (w, &word) in col.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let start = bits.trailing_zeros();
                    let len = (bits >> start).trailing_ones();
                    let y = self.bounds.y + (w * WORD) as i32 + start as i32;
                    out.push(Rect::new(x, y, 1, len as i32));
                    bits &= !((u64::MAX >> (WORD as u32 - len)) << start);
                }
            }
        }
        out
    }

    /// Clear every tile, keeping the allocation.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
    }

    /// Keep only the tiles also set in `other`, which must cover the same
    /// bounds.
    pub fn intersect_with(&mut self, other: &ColumnMask) {
        assert_eq!(self.bounds, other.bounds, "intersecting unaligned masks");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random_mask(bounds: Rect, seed: u64) -> ColumnMask {
        let mut m = ColumnMask::new(bounds);
        let mut s = seed;
        for p in bounds.tiles() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m.set(p.x, p.y, !(s >> 33).is_multiple_of(4));
        }
        m
    }

    fn set_tiles(mask: &ColumnMask, rect: Rect) -> Vec<Point> {
        rect.tiles().filter(|p| mask.get(p.x, p.y)).collect()
    }

    #[test]
    fn set_get_and_bounds() {
        let mut m = ColumnMask::new(Rect::new(2, 3, 4, 5));
        m.set(3, 4, true);
        assert!(m.get(3, 4));
        assert!(!m.get(3, 5));
        m.set(0, 0, true); // outside: ignored
        assert!(!m.get(0, 0));
        assert_eq!(m.count_in(Rect::new(3, 0, 1, 99)), 1);
        m.set(3, 4, false);
        assert_eq!(m.count_in(Rect::new(0, 0, 9, 9)), 0);
    }

    #[test]
    fn rect_queries_match_tiles_across_word_boundaries() {
        // 130 rows: three words per column, so spans cross word edges.
        for (bounds, seed) in [
            (Rect::new(0, 0, 6, 16), 1),
            (Rect::new(-3, 5, 5, 130), 2),
            (Rect::new(1, 1, 3, 64), 3),
        ] {
            let mask = pseudo_random_mask(bounds, seed);
            for y in bounds.y - 2..bounds.y_end() + 2 {
                for h in [1, 2, 7, 63, 64, 65, 100] {
                    for x in bounds.x - 1..bounds.x_end() {
                        let rect = Rect::new(x, y, 2, h);
                        let set = set_tiles(&mask, rect);
                        assert_eq!(mask.any_in(rect), !set.is_empty(), "{rect:?}");
                        assert_eq!(mask.count_in(rect), set.len(), "{rect:?}");
                        let last = set.iter().copied().max_by_key(|p| (p.x, p.y));
                        assert_eq!(mask.last_hit(rect), last, "{rect:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn spans_over_three_words_touch_the_middle_word() {
        let bounds = Rect::new(0, 0, 2, 200);
        let tall = Rect::new(0, 10, 2, 180); // rows 10..190: words 0..=2
        let mut mask = ColumnMask::new(bounds);
        mask.fill_rect(tall);
        assert_eq!(mask.count_in(bounds), 360);
        mask.clear_rect(Rect::new(1, 100, 1, 1)); // inside word 1 only
        assert_eq!(mask.count_in(tall), 359);
        mask.clear_rect(tall);
        mask.set(1, 100, true);
        assert!(mask.any_in(tall));
        assert_eq!(mask.last_hit(tall), Some(Point::new(1, 100)));
    }

    #[test]
    fn fill_clear_intersect_and_runs() {
        let bounds = Rect::new(0, 0, 8, 70);
        let mut a = ColumnMask::new(bounds);
        a.fill_rect(Rect::new(2, 60, 3, 8));
        assert!(a.get(4, 67) && !a.get(5, 67));
        a.clear_rect(Rect::new(2, 60, 3, 8));
        assert_eq!(a.count_in(bounds), 0);

        let mut b = ColumnMask::new(bounds);
        a.fill_rect(Rect::new(0, 0, 4, 4));
        b.fill_rect(Rect::new(2, 2, 4, 4));
        a.intersect_with(&b);
        let common = vec![
            Point::new(2, 2),
            Point::new(3, 2),
            Point::new(2, 3),
            Point::new(3, 3),
        ];
        assert_eq!(set_tiles(&a, bounds), common);
        a.clear();
        assert_eq!(a.count_in(bounds), 0);
    }

    #[test]
    fn runs_cover_exactly_the_set_tiles() {
        for (bounds, seed) in [(Rect::new(0, 0, 5, 16), 7), (Rect::new(3, -2, 4, 140), 8)] {
            let mut mask = pseudo_random_mask(bounds, seed);
            mask.fill_rect(Rect::new(bounds.x, bounds.y, 1, bounds.h));
            let mut rebuilt = ColumnMask::new(bounds);
            for r in mask.runs() {
                assert_eq!(r.w, 1);
                assert!(!rebuilt.any_in(r), "runs are disjoint");
                rebuilt.fill_rect(r);
            }
            assert_eq!(rebuilt, mask);
        }
    }

    #[test]
    fn empty_rect_touches_nothing() {
        let mut m = ColumnMask::new(Rect::new(0, 0, 4, 4));
        m.fill_rect(Rect::new(0, 0, 4, 4));
        assert!(!m.any_in(Rect::new(1, 1, 0, 3)));
        assert_eq!(m.last_hit(Rect::new(1, 1, 3, 0)), None);
    }
}
