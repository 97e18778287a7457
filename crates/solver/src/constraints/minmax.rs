//! `max(x₁…xₙ) == y`.
//!
//! The placement objective is `makespan = max_i (xᵢ + widthᵢ)`; `Maximum`
//! ties the objective variable to the per-module right edges.

use crate::propagator::Propagator;
use crate::space::{Conflict, Space, VarId};

/// `y == max(vars)`, bounds-consistent.
pub struct Maximum {
    pub vars: Vec<VarId>,
    pub y: VarId,
}

impl Propagator for Maximum {
    fn propagate(&self, space: &mut Space) -> Result<(), Conflict> {
        assert!(!self.vars.is_empty(), "Maximum over no variables");
        // y's bounds from the xs.
        let max_of_maxs = self.vars.iter().map(|&v| space.max(v)).max().unwrap();
        let max_of_mins = self.vars.iter().map(|&v| space.min(v)).max().unwrap();
        space.set_max(self.y, max_of_maxs)?;
        space.set_min(self.y, max_of_mins)?;
        // Every x is <= y's max.
        let y_max = space.max(self.y);
        for &v in &self.vars {
            space.set_max(v, y_max)?;
        }
        // If only one x can reach y's min, it must.
        let y_min = space.min(self.y);
        let reachers: Vec<VarId> = self
            .vars
            .iter()
            .copied()
            .filter(|&v| space.max(v) >= y_min)
            .collect();
        if reachers.is_empty() {
            return Err(Conflict);
        }
        if reachers.len() == 1 {
            space.set_min(reachers[0], y_min)?;
        }
        Ok(())
    }

    fn dependencies(&self) -> Vec<VarId> {
        let mut deps = self.vars.clone();
        deps.push(self.y);
        deps
    }

    fn name(&self) -> &'static str {
        "maximum"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::propagator::Engine;

    fn run(space: &mut Space, p: impl Propagator + 'static) -> Result<(), Conflict> {
        let mut engine = Engine::new(space.num_vars());
        engine.post(p);
        engine.schedule_all();
        engine.propagate(space)
    }

    #[test]
    fn max_bounds_flow_to_y() {
        let mut space = Space::new();
        let a = space.new_var(Domain::interval(0, 5));
        let b = space.new_var(Domain::interval(3, 8));
        let y = space.new_var(Domain::interval(-100, 100));
        run(
            &mut space,
            Maximum {
                vars: vec![a, b],
                y,
            },
        )
        .unwrap();
        assert_eq!(space.min(y), 3);
        assert_eq!(space.max(y), 8);
    }

    #[test]
    fn max_upper_bound_flows_to_xs() {
        let mut space = Space::new();
        let a = space.new_var(Domain::interval(0, 50));
        let b = space.new_var(Domain::interval(0, 50));
        let y = space.new_var(Domain::interval(0, 7));
        run(
            &mut space,
            Maximum {
                vars: vec![a, b],
                y,
            },
        )
        .unwrap();
        assert_eq!(space.max(a), 7);
        assert_eq!(space.max(b), 7);
    }

    #[test]
    fn max_single_reacher_forced() {
        let mut space = Space::new();
        let a = space.new_var(Domain::interval(0, 3));
        let b = space.new_var(Domain::interval(0, 10));
        let y = space.new_var(Domain::interval(8, 10));
        run(
            &mut space,
            Maximum {
                vars: vec![a, b],
                y,
            },
        )
        .unwrap();
        assert_eq!(space.min(b), 8);
    }

    #[test]
    fn max_conflict_when_unreachable() {
        let mut space = Space::new();
        let a = space.new_var(Domain::interval(0, 3));
        let y = space.new_var(Domain::interval(8, 10));
        assert!(run(&mut space, Maximum { vars: vec![a], y }).is_err());
    }
}
