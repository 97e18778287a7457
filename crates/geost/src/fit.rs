//! The column-mask fit kernel.
//!
//! Every tile scan on the placement path asks one of two questions about
//! a shape at one anchor, and both are answered here on a [`ColumnMask`]
//! with one word operation per column a box spans (per 64 rows), never
//! one lookup per tile:
//!
//! * does every box sit on tiles of its own resource kind (eqs. 2–3)?
//!   The anchor scan of [`crate::compat`] asks it of every anchor against
//!   the region's per-kind accept masks ([`Region::accept_mask`]);
//! * does every box avoid the marked tiles (eq. 4)? [`collision`], against
//!   an occupancy mask ([`crate::OccupancyGrid::fits`]) or the other
//!   objects' mandatory parts ([`crate::NonOverlap`]), which also uses the
//!   tile it names to skip the anchors that tile blocks too.

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
    let Some(mut boxes) = (shape.boxes().iter())
        .map(|b| {
            region
                .accept_mask(b.resource)
                .map(|mask| BoxColumns::new(mask, b, x_lo, bb.y))
        })
        .collect::<Option<Vec<BoxColumns>>>()
    else {
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

/// One box's eroded, shifted accept-mask columns, built on demand left to
/// right: entry `k` is column `x0 + k`, bit `t` set iff the box fits with
/// its anchor at row `t` of the scan.
struct BoxColumns<'m> {
    mask: &'m ColumnMask,
    x0: i32,
    w: usize,
    h: usize,
    /// Bounds rows between anchor row 0 and the box's first row.
    off: usize,
    columns: Vec<u64>,
}

impl<'m> BoxColumns<'m> {
    fn new(mask: &'m ColumnMask, b: &ShiftedBox, x_lo: i32, bb_y: i32) -> BoxColumns<'m> {
        BoxColumns {
            mask,
            x0: x_lo + b.dx,
            w: b.w as usize,
            h: b.h as usize,
            off: (b.dy - bb_y) as usize,
            columns: Vec::new(),
        }
    }

    /// Entries `i..i + w`, the columns the box covers from anchor column
    /// `i`, building every entry up to them first.
    fn window(&mut self, i: usize, scratch: &mut [u64]) -> &[u64] {
        let words = scratch.len();
        let end = (i + self.w) * words;
        while self.columns.len() < end {
            let start = self.columns.len();
            let x = self.x0 + (start / words) as i32;
            self.columns.extend_from_slice(self.mask.column(x));
            let col = &mut self.columns[start..];
            erode(col, self.h, scratch);
            shift_down(col, self.off, scratch);
            col.copy_from_slice(scratch);
        }
        &self.columns[i * words..end]
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
