//! Positive table constraint: the variable tuple must match one of an
//! explicit list of allowed rows.
//!
//! The placement model uses tables for resource-compatibility filtering:
//! `(shape, x, y)` triples that put every module tile on a matching fabric
//! tile. Propagation is generalized arc consistency by support scanning,
//! which is exact and — for the table sizes the placer produces (thousands
//! of rows, arity 3) — fast enough without incremental support stores
//! (propagators are stateless by design; see `propagator.rs`). Each scan
//! tests and marks values in per-column bitsets over the part of the
//! current domain the table's values reach.

use crate::domain::{Domain, Range};
use crate::propagator::Propagator;
use crate::space::{Conflict, Space, VarId};
use std::sync::atomic::{AtomicU64, Ordering};

/// `(x₁, …, xₖ) ∈ rows`. Rows with arity differing from `vars` are a
/// construction error.
pub struct Table {
    vars: Vec<VarId>,
    /// The rows, flat: row `r` is `rows[r * arity..(r + 1) * arity]`.
    rows: Vec<i32>,
    /// Per column, the smallest and largest value any row holds.
    spans: Vec<Range>,
    /// Lifetime count of rows examined by `propagate`. Propagators are
    /// immutable after posting (shared across portfolio threads), so
    /// this is the one piece of mutable state — a relaxed counter read
    /// back through [`Propagator::scanned`].
    rows_scanned: AtomicU64,
}

impl Table {
    pub fn new(vars: Vec<VarId>, rows: Vec<Vec<i32>>) -> Table {
        assert!(!vars.is_empty(), "table over no variables");
        let mut spans = vec![(i32::MAX, i32::MIN); vars.len()];
        for row in &rows {
            assert_eq!(row.len(), vars.len(), "table row arity mismatch");
            for (span, &v) in spans.iter_mut().zip(row) {
                *span = (span.0.min(v), span.1.max(v));
            }
        }
        Table {
            vars,
            rows: rows.concat(),
            spans,
            rows_scanned: AtomicU64::new(0),
        }
    }

    /// Number of allowed rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len() / self.vars.len()
    }
}

/// One column's values over `[lo, lo + len)`: the current domain, and the
/// values some live row supports.
struct ColumnBits {
    lo: i64,
    len: u64,
    domain: Vec<u64>,
    supported: Vec<u64>,
}

impl ColumnBits {
    /// The part of `dom` inside `span`; `None` when they share no value.
    fn new(dom: &Domain, span: Range) -> Option<ColumnBits> {
        let lo = span.0.max(dom.min()) as i64;
        let hi = span.1.min(dom.max()) as i64;
        if lo > hi {
            return None;
        }
        let len = (hi - lo + 1) as u64;
        let words = len.div_ceil(64) as usize;
        let mut domain = vec![0u64; words];
        for &(a, b) in dom.ranges() {
            let (a, b) = ((a as i64).max(lo), (b as i64).min(hi));
            if a <= b {
                set_bits(&mut domain, (a - lo) as usize, (b - lo) as usize);
            }
        }
        Some(ColumnBits {
            lo,
            len,
            domain,
            supported: vec![0; words],
        })
    }

    /// The bit index of `v`, if it lies in the domain.
    #[inline]
    fn index(&self, v: i32) -> Option<usize> {
        let i = (v as i64 - self.lo) as u64;
        (i < self.len && self.domain[(i / 64) as usize] >> (i % 64) & 1 == 1).then_some(i as usize)
    }

    /// The supported values as a domain (`None` when there are none).
    fn supported_domain(&self) -> Option<Domain> {
        let mut ranges: Vec<Range> = Vec::new();
        for (w, &word) in self.supported.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = (self.lo + (w * 64) as i64 + bits.trailing_zeros() as i64) as i32;
                match ranges.last_mut() {
                    Some((_, hi)) if *hi + 1 == v => *hi = v,
                    _ => ranges.push((v, v)),
                }
                bits &= bits - 1;
            }
        }
        Domain::from_ranges(ranges)
    }
}

/// Set bits `first..=last` of `words`.
fn set_bits(words: &mut [u64], first: usize, last: usize) {
    let (w0, w1) = (first / 64, last / 64);
    let low = !0u64 << (first % 64);
    let high = !0u64 >> (63 - last % 64);
    if w0 == w1 {
        words[w0] |= low & high;
    } else {
        words[w0] |= low;
        words[w0 + 1..w1].iter_mut().for_each(|w| *w = !0);
        words[w1] |= high;
    }
}

impl Propagator for Table {
    fn propagate(&self, space: &mut Space) -> Result<(), Conflict> {
        let arity = self.vars.len();
        self.rows_scanned
            .fetch_add(self.num_rows() as u64, Ordering::Relaxed);
        // A column whose domain misses every table value kills every row.
        let mut columns = self
            .vars
            .iter()
            .zip(&self.spans)
            .map(|(&v, &span)| ColumnBits::new(space.domain(v), span))
            .collect::<Option<Vec<ColumnBits>>>()
            .ok_or(Conflict)?;
        // Mark the values supported by at least one live row, per column.
        let mut any_live = false;
        let mut at = vec![0usize; arity];
        'rows: for row in self.rows.chunks_exact(arity) {
            for ((slot, col), &v) in at.iter_mut().zip(&columns).zip(row) {
                match col.index(v) {
                    Some(i) => *slot = i,
                    None => continue 'rows,
                }
            }
            any_live = true;
            for (col, &i) in columns.iter_mut().zip(&at) {
                col.supported[i / 64] |= 1 << (i % 64);
            }
        }
        if !any_live {
            return Err(Conflict);
        }
        for (&var, col) in self.vars.iter().zip(&columns) {
            let dom = col.supported_domain().ok_or(Conflict)?;
            space.intersect(var, &dom)?;
        }
        Ok(())
    }

    fn dependencies(&self) -> Vec<VarId> {
        self.vars.clone()
    }

    fn name(&self) -> &'static str {
        "table"
    }

    fn scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::Engine;

    fn run(space: &mut Space, p: impl Propagator + 'static) -> Result<(), Conflict> {
        let mut engine = Engine::new(space.num_vars());
        engine.post(p);
        engine.schedule_all();
        engine.propagate(space)
    }

    fn space_with(ranges: &[(i32, i32)]) -> (Space, Vec<VarId>) {
        let mut space = Space::new();
        let vars = ranges
            .iter()
            .map(|&(lo, hi)| space.new_var(Domain::interval(lo, hi)))
            .collect();
        (space, vars)
    }

    #[test]
    fn filters_to_supported_values() {
        let (mut space, v) = space_with(&[(0, 5), (0, 5)]);
        let rows = vec![vec![0, 1], vec![2, 3], vec![4, 1]];
        run(&mut space, Table::new(v.clone(), rows)).unwrap();
        assert_eq!(space.domain(v[0]).iter().collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(space.domain(v[1]).iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn cross_column_consistency() {
        let (mut space, v) = space_with(&[(0, 5), (0, 5)]);
        let rows = vec![vec![0, 1], vec![2, 3]];
        space.remove(v[1], 1).unwrap();
        run(&mut space, Table::new(v.clone(), rows)).unwrap();
        // Row (0,1) dies with value 1, so x0 loses 0.
        assert_eq!(space.domain(v[0]).iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(space.domain(v[1]).iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn no_live_row_fails() {
        let (mut space, v) = space_with(&[(10, 20), (10, 20)]);
        let rows = vec![vec![0, 1], vec![2, 3]];
        assert!(run(&mut space, Table::new(v, rows)).is_err());
    }

    #[test]
    fn empty_table_fails() {
        let (mut space, v) = space_with(&[(0, 5)]);
        assert!(run(&mut space, Table::new(v, Vec::new())).is_err());
    }

    #[test]
    fn ternary_table() {
        let (mut space, v) = space_with(&[(0, 9), (0, 9), (0, 9)]);
        let rows = vec![vec![1, 2, 3], vec![1, 5, 6], vec![7, 2, 6]];
        space.assign(v[2], 6).unwrap();
        run(&mut space, Table::new(v.clone(), rows)).unwrap();
        assert_eq!(space.domain(v[0]).iter().collect::<Vec<_>>(), vec![1, 7]);
        assert_eq!(space.domain(v[1]).iter().collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn rows_scanned_counts_every_pass() {
        let (mut space, v) = space_with(&[(0, 5), (0, 5)]);
        let table = Table::new(v, vec![vec![0, 1], vec![2, 3], vec![4, 1]]);
        assert_eq!(table.scanned(), 0);
        table.propagate(&mut space).unwrap();
        assert_eq!(table.scanned(), 3);
        table.propagate(&mut space).unwrap();
        assert_eq!(table.scanned(), 6);
    }

    /// The support scan before per-column bitsets: rows as `Vec`s,
    /// membership by binary search, supports pushed and sorted.
    fn reference_propagate(
        vars: &[VarId],
        rows: &[Vec<i32>],
        space: &mut Space,
    ) -> Result<(), Conflict> {
        let mut supported: Vec<Vec<i32>> = vec![Vec::new(); vars.len()];
        let mut any_live = false;
        for row in rows {
            if row
                .iter()
                .zip(vars)
                .all(|(&v, &var)| space.contains(var, v))
            {
                any_live = true;
                for (j, &v) in row.iter().enumerate() {
                    supported[j].push(v);
                }
            }
        }
        if !any_live {
            return Err(Conflict);
        }
        for (values, &var) in supported.iter().zip(vars) {
            space.intersect(var, &Domain::from_values(values).ok_or(Conflict)?)?;
        }
        Ok(())
    }

    #[test]
    fn matches_reference_on_random_tables() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let (mut ok, mut failed) = (0, 0);
        for _ in 0..500 {
            let arity = rng.gen_range(1..4);
            let mut space = Space::new();
            let vars: Vec<VarId> = (0..arity)
                .map(|_| {
                    let lo = rng.gen_range(-70..70);
                    let v = space.new_var(Domain::interval(lo, lo + rng.gen_range(0..140)));
                    // Holes, sometimes whole runs of them.
                    for _ in 0..rng.gen_range(0..30) {
                        let at = rng.gen_range(lo..lo + 140);
                        for x in at..at + rng.gen_range(1..8) {
                            if space.size(v) > 1 {
                                space.remove(v, x).unwrap();
                            }
                        }
                    }
                    v
                })
                .collect();
            let rows: Vec<Vec<i32>> = (0..rng.gen_range(0..60))
                .map(|_| (0..arity).map(|_| rng.gen_range(-90..150)).collect())
                .collect();
            let mut log = Vec::new();
            space.drain_touched(&mut log);
            let table = Table::new(vars.clone(), rows.clone());
            let (mut a, mut b) = (space.clone(), space);
            let ra = reference_propagate(&vars, &rows, &mut a);
            assert_eq!(ra, table.propagate(&mut b));
            for &v in &vars {
                assert_eq!(a.domain(v), b.domain(v));
            }
            let (mut la, mut lb) = (Vec::new(), Vec::new());
            a.drain_touched(&mut la);
            b.drain_touched(&mut lb);
            assert_eq!(la, lb, "touch order");
            match ra {
                Ok(()) => ok += 1,
                Err(_) => failed += 1,
            }
        }
        assert!(ok > 100 && failed > 100, "ok {ok} failed {failed}");
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let (_, v) = space_with(&[(0, 1), (0, 1)]);
        let _ = Table::new(v, vec![vec![0]]);
    }
}
