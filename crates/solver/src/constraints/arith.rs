//! Binary disequality with an offset.

use crate::propagator::Propagator;
use crate::space::{Conflict, Space, VarId};

/// `x != y + c`. Prunes only once a side is fixed (value consistency, which
/// is complete for binary disequality).
pub struct NotEqualOffset {
    pub x: VarId,
    pub y: VarId,
    pub c: i32,
}

impl Propagator for NotEqualOffset {
    fn propagate(&self, space: &mut Space) -> Result<(), Conflict> {
        if space.is_fixed(self.x) {
            let forbidden = space.value(self.x) - self.c;
            space.remove(self.y, forbidden)?;
        } else if space.is_fixed(self.y) {
            let forbidden = space.value(self.y) + self.c;
            space.remove(self.x, forbidden)?;
        }
        Ok(())
    }

    fn dependencies(&self) -> Vec<VarId> {
        vec![self.x, self.y]
    }

    fn name(&self) -> &'static str {
        "not_equal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::propagator::Engine;

    fn setup(ranges: &[(i32, i32)]) -> (Space, Vec<VarId>) {
        let mut space = Space::new();
        let vars = ranges
            .iter()
            .map(|&(lo, hi)| space.new_var(Domain::interval(lo, hi)))
            .collect();
        (space, vars)
    }

    fn run(space: &mut Space, p: impl Propagator + 'static) -> Result<(), Conflict> {
        let mut engine = Engine::new(space.num_vars());
        engine.post(p);
        engine.schedule_all();
        engine.propagate(space)
    }

    #[test]
    fn not_equal_waits_until_fixed() {
        let (mut space, v) = setup(&[(0, 5), (0, 5)]);
        run(
            &mut space,
            NotEqualOffset {
                x: v[0],
                y: v[1],
                c: 0,
            },
        )
        .unwrap();
        assert_eq!(space.size(v[0]), 6); // nothing pruned yet
        space.assign(v[0], 3).unwrap();
        run(
            &mut space,
            NotEqualOffset {
                x: v[0],
                y: v[1],
                c: 0,
            },
        )
        .unwrap();
        assert!(!space.contains(v[1], 3));
    }

    #[test]
    fn not_equal_offset_semantics() {
        // x != y + 2 with y fixed at 1 removes 3 from x.
        let (mut space, v) = setup(&[(0, 5), (1, 1)]);
        run(
            &mut space,
            NotEqualOffset {
                x: v[0],
                y: v[1],
                c: 2,
            },
        )
        .unwrap();
        assert!(!space.contains(v[0], 3));
        assert_eq!(space.size(v[0]), 5);
    }

    #[test]
    fn not_equal_conflict_when_both_fixed_equal() {
        let (mut space, v) = setup(&[(2, 2), (2, 2)]);
        assert!(run(
            &mut space,
            NotEqualOffset {
                x: v[0],
                y: v[1],
                c: 0
            }
        )
        .is_err());
    }
}
