//! The column-mask fit kernel.
//!
//! Every tile scan on the placement path asks one of three questions
//! about a shape, and all are answered here on a [`ColumnMask`] with one
//! word operation per column a box spans (per 64 rows), never one lookup
//! per tile:
//!
//! * does every box sit on tiles of its own resource kind (eqs. 2–3)?
//!   The anchor scan of [`crate::compat`] asks it of every anchor against
//!   the region's per-kind accept masks ([`Region::accept_mask`]);
//! * does every box avoid the marked tiles (eq. 4)? [`collision`], against
//!   an occupancy mask ([`crate::OccupancyGrid::fits`]) or the other
//!   objects' mandatory parts ([`crate::NonOverlap`]), which also uses the
//!   tile it names to skip the anchors that tile blocks too;
//! * where is the first anchor, column by column, at which both hold?
//!   [`first_free`], the greedy placers' first fit
//!   ([`crate::OccupancyGrid::first_fit`]), which ANDs the accept masks
//!   with the free tiles before the scan and so never lists an anchor.

use crate::shape::{ShapeDef, ShiftedBox};
use rrf_fabric::{ColumnMask, Point, Region};

/// Visit, in row-major order (y outer, x inner), every anchor at which
/// each box of `shape` lies inside the region's bounds on tiles of its own
/// resource kind; stop when `visit` returns `false`.
///
/// Only anchors keeping the bounding box inside the bounds are candidates.
/// Each candidate column of anchors is one bitset over anchor rows: a box
/// fits at anchor row `t` of column `x` iff every column it covers holds
/// its `h` rows from `t + dy` on, so the bitset is the AND, over the box's
/// columns, of each accept-mask column eroded by `h` (bit `r` kept iff
/// rows `r..r + h` are all set) and shifted down by the box's row offset.
/// Anchor columns are built left to right while the bottom row is
/// scanned, so a scan that stops there early builds only a few.
pub(crate) fn scan_accepted(
    region: &Region,
    shape: &ShapeDef,
    mut visit: impl FnMut(Point) -> bool,
) {
    let bounds = region.bounds();
    let bb = shape.bounding_box();
    let (x_lo, y_lo) = (bounds.x - bb.x, bounds.y - bb.y);
    let (cols, rows) = (bounds.w - bb.w + 1, bounds.h - bb.h + 1);
    if cols <= 0 || rows <= 0 {
        return;
    }
    let (cols, rows) = (cols as usize, rows as usize);
    // A box of a kind no module may occupy accepts no anchor.
    let Some(mut boxes) = box_columns(region, shape, None) else {
        return;
    };
    let words = boxes[0].mask.words_per_column();
    let mut acc = vec![!0u64; cols * words];
    let mut scratch = vec![0u64; words];
    // Bottom row first, building anchor columns as the scan reaches them.
    for i in 0..cols {
        let anchors = &mut acc[i * words..(i + 1) * words];
        for bx in &mut boxes {
            for col in bx.window(i, &mut scratch).chunks_exact(words) {
                for (a, c) in anchors.iter_mut().zip(col) {
                    *a &= c;
                }
            }
        }
        if anchors[0] & 1 == 1 && !visit(Point::new(x_lo + i as i32, y_lo)) {
            return;
        }
    }
    // Every column is built now: skip the rows holding no anchor.
    let mut live_rows = vec![0u64; words];
    for anchors in acc.chunks_exact(words) {
        for (r, a) in live_rows.iter_mut().zip(anchors) {
            *r |= a;
        }
    }
    for t in 1..rows {
        let (word, bit) = (t / 64, t % 64);
        if live_rows[word] >> bit & 1 == 0 {
            continue;
        }
        for (i, anchors) in acc.chunks_exact(words).enumerate() {
            if anchors[word] >> bit & 1 == 1 && !visit(Point::new(x_lo + i as i32, y_lo + t as i32))
            {
                return;
            }
        }
    }
}

/// The first anchor, in (x, y) order (x outer, y inner), before `limit`
/// (in the same order) at which each box of `shape` lies inside the
/// region's bounds on tiles of its own resource kind that `occupied`, a
/// mask over the same bounds, leaves free.
///
/// The anchor columns are those of [`scan_accepted`], over accept-mask
/// columns with the occupied tiles cleared, but built only up to the
/// first one holding a set bit, whose lowest bit is the answer. A box
/// column with no bit set rules out every anchor column that puts the box
/// on it, so the scan jumps past them all without building their columns.
pub(crate) fn first_free(
    region: &Region,
    shape: &ShapeDef,
    occupied: &ColumnMask,
    limit: Option<Point>,
) -> Option<Point> {
    let bounds = region.bounds();
    let bb = shape.bounding_box();
    let (x_lo, y_lo) = (bounds.x - bb.x, bounds.y - bb.y);
    let (mut cols, rows) = (bounds.w - bb.w + 1, bounds.h - bb.h + 1);
    if cols <= 0 || rows <= 0 {
        return None;
    }
    // Anchor rows below `last_rows` in the last column, all rows before it.
    let mut last_rows = rows;
    if let Some(p) = limit.filter(|p| p.x - x_lo < cols) {
        (cols, last_rows) = (p.x - x_lo + 1, (p.y - y_lo).clamp(0, rows));
        if cols <= 0 {
            return None;
        }
    }
    let mut boxes = box_columns(region, shape, Some(occupied))?;
    let words = boxes[0].mask.words_per_column();
    let mut anchors = vec![0u64; words];
    let mut scratch = vec![0u64; words];
    let (cols, last_rows) = (cols as usize, last_rows as usize);
    let mut i = 0;
    while i < cols {
        anchors.fill(!0);
        let mut next = i + 1;
        for bx in &mut boxes {
            for (k, col) in bx.window(i, &mut scratch).chunks_exact(words).enumerate() {
                if col.iter().all(|&c| c == 0) {
                    next = next.max(i + k + 1);
                }
                for (a, c) in anchors.iter_mut().zip(col) {
                    *a &= c;
                }
            }
        }
        let lowest = (anchors.iter().enumerate())
            .find(|(_, &a)| a != 0)
            .map(|(w, a)| w * 64 + a.trailing_zeros() as usize);
        if let Some(t) = lowest {
            return (i + 1 < cols || t < last_rows)
                .then(|| Point::new(x_lo + i as i32, y_lo + t as i32));
        }
        i = next;
    }
    None
}

/// The column builders of every box of `shape`, over the region's accept
/// masks minus `occupied`; `None` if a box is of a kind no module may
/// occupy, which accepts no anchor.
fn box_columns<'m>(
    region: &'m Region,
    shape: &ShapeDef,
    occupied: Option<&'m ColumnMask>,
) -> Option<Vec<BoxColumns<'m>>> {
    let bounds = region.bounds();
    let bb = shape.bounding_box();
    (shape.boxes().iter())
        .map(|b| {
            let mask = region.accept_mask(b.resource)?;
            Some(BoxColumns {
                mask,
                occupied,
                x0: bounds.x - bb.x + b.dx,
                w: b.w as usize,
                h: b.h as usize,
                off: (b.dy - bb.y) as usize,
                first: 0,
                columns: Vec::new(),
            })
        })
        .collect()
}

/// One box's eroded, shifted accept-mask columns, built on demand left to
/// right: entry `k` is column `x0 + k`, bit `t` set iff the box fits with
/// its anchor at row `t` of the scan.
struct BoxColumns<'m> {
    mask: &'m ColumnMask,
    /// Tiles the box may not cover, if any.
    occupied: Option<&'m ColumnMask>,
    x0: i32,
    w: usize,
    h: usize,
    /// Bounds rows between anchor row 0 and the box's first row.
    off: usize,
    /// The entry `columns` starts at: the entries a scan jumped past are
    /// never built.
    first: usize,
    columns: Vec<u64>,
}

impl BoxColumns<'_> {
    /// Entries `i..i + w`, the columns the box covers from anchor column
    /// `i`, building every entry up to them first (from `i` on, if the
    /// scan jumped past the entries built so far).
    fn window(&mut self, i: usize, scratch: &mut [u64]) -> &[u64] {
        let words = scratch.len();
        if i > self.first + self.columns.len() / words {
            self.first = i;
            self.columns.clear();
        }
        let end = (i - self.first + self.w) * words;
        while self.columns.len() < end {
            let start = self.columns.len();
            let x = self.x0 + (self.first + start / words) as i32;
            self.columns.extend_from_slice(self.mask.column(x));
            let col = &mut self.columns[start..];
            if let Some(occupied) = self.occupied {
                for (c, o) in col.iter_mut().zip(occupied.column(x)) {
                    *c &= !o;
                }
            }
            erode(col, self.h, scratch);
            shift_down(col, self.off, scratch);
            col.copy_from_slice(scratch);
        }
        &self.columns[(i - self.first) * words..end]
    }
}

/// `out = col >> k` across the column's words (towards row 0), zero-filled.
fn shift_down(col: &[u64], k: usize, out: &mut [u64]) {
    let (skip, bits) = (k / 64, k % 64);
    for (i, o) in out.iter_mut().enumerate() {
        let lo = col.get(i + skip).copied().unwrap_or(0);
        let hi = col.get(i + skip + 1).copied().unwrap_or(0);
        *o = if bits == 0 {
            lo
        } else {
            lo >> bits | hi << (64 - bits)
        };
    }
}

/// Keep bit `r` of `col` iff bits `r..r + h` are all set, by doubling:
/// once bit `r` stands for a run of `n` rows, ANDing with the column
/// shifted by `s <= n` makes it stand for `n + s`.
fn erode(col: &mut [u64], h: usize, scratch: &mut [u64]) {
    let mut run = 1;
    while run < h {
        let s = run.min(h - run);
        shift_down(col, s, scratch);
        for (c, t) in col.iter_mut().zip(scratch.iter()) {
            *c &= t;
        }
        run += s;
    }
}

/// The first box of `shape` at `anchor` that covers a tile marked in
/// `marked`, with the rightmost column where it does and that column's
/// topmost marked tile under the box; `None` when no box does. Tiles
/// outside the mask's bounds count as unmarked.
#[inline]
pub fn collision<'s>(
    marked: &ColumnMask,
    shape: &'s ShapeDef,
    anchor: Point,
) -> Option<(&'s ShiftedBox, Point)> {
    (shape.boxes().iter()).find_map(|b| {
        marked
            .last_hit(b.placed(anchor.x, anchor.y))
            .map(|hit| (b, hit))
    })
}
