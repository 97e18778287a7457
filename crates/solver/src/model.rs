//! The model-building facade: variables plus convenience constraint posting.

use crate::constraints::{
    Cumulative, ElementConst, LinRel, Linear, Maximum, NotEqualOffset, Table, Task,
};
use crate::domain::Domain;
use crate::propagator::{Engine, Propagator};
use crate::space::{Space, VarId};

/// A constraint model: a [`Space`] of variables and an [`Engine`] of posted
/// propagators. Build it, then hand it to [`crate::search::solve`].
pub struct Model {
    space: Space,
    engine: Engine,
}

impl Model {
    pub fn new() -> Model {
        Model {
            space: Space::new(),
            engine: Engine::new(0),
        }
    }

    /// New variable with interval domain `[lo, hi]`.
    pub fn new_var(&mut self, lo: i32, hi: i32) -> VarId {
        self.space.new_var(Domain::interval(lo, hi))
    }

    /// New variable with an explicit (non-empty) value set.
    pub fn new_var_values(&mut self, values: &[i32]) -> VarId {
        self.space
            .new_var(Domain::from_values(values).expect("variable created with empty domain"))
    }

    /// New variable with a prepared domain.
    pub fn new_var_domain(&mut self, domain: Domain) -> VarId {
        self.space.new_var(domain)
    }

    /// New 0/1 variable.
    pub fn new_bool(&mut self) -> VarId {
        self.new_var(0, 1)
    }

    /// Number of variables so far.
    pub fn num_vars(&self) -> usize {
        self.space.num_vars()
    }

    /// Number of propagators posted so far.
    pub fn num_propagators(&self) -> usize {
        self.engine.num_propagators()
    }

    /// The variable store (read access for inspection / tests).
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Post an arbitrary propagator.
    pub fn post(&mut self, p: impl Propagator + 'static) {
        self.engine.post(p);
    }

    // --- convenience constraint builders -------------------------------

    /// `x != y`.
    pub fn ne(&mut self, x: VarId, y: VarId) {
        self.post(NotEqualOffset { x, y, c: 0 });
    }

    /// `Σ coeffs[i] * vars[i] ⋈ c`.
    pub fn linear(&mut self, coeffs: &[i64], vars: &[VarId], rel: LinRel, c: i64) {
        self.post(Linear::new(coeffs, vars, rel, c));
    }

    /// `Σ vars[i] <= c`.
    pub fn sum_le(&mut self, vars: &[VarId], c: i64) {
        let coeffs = vec![1i64; vars.len()];
        self.linear(&coeffs, vars, LinRel::Le, c);
    }

    /// `array[idx] == value`.
    pub fn element(&mut self, array: Vec<i32>, idx: VarId, value: VarId) {
        self.post(ElementConst { array, idx, value });
    }

    /// `(vars) ∈ rows`.
    pub fn table(&mut self, vars: Vec<VarId>, rows: Vec<Vec<i32>>) {
        self.post(Table::new(vars, rows));
    }

    /// `y == max(vars)`.
    pub fn maximum(&mut self, vars: Vec<VarId>, y: VarId) {
        self.post(Maximum { vars, y });
    }

    /// Cumulative resource constraint.
    pub fn cumulative(&mut self, tasks: Vec<Task>, capacity: i32) {
        self.post(Cumulative::new(tasks, capacity));
    }

    /// Decompose into the root space and engine for the search to drive.
    pub(crate) fn into_parts(self) -> (Space, Engine) {
        (self.space, self.engine)
    }

    /// Decompose into the root space and the shared propagator set, for
    /// portfolio workers that each build their own engine.
    pub(crate) fn into_shared_parts(
        self,
    ) -> (
        Space,
        Vec<std::sync::Arc<dyn crate::propagator::Propagator>>,
    ) {
        let shared = self.engine.shared_propagators();
        (self.space, shared)
    }
}

impl Default for Model {
    fn default() -> Model {
        Model::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_count() {
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let y = m.new_var_values(&[1, 4, 7]);
        let b = m.new_bool();
        m.ne(x, y);
        m.linear(&[1, 1], &[x, b], LinRel::Le, 3);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.num_propagators(), 2);
        assert_eq!(m.space().min(y), 1);
        assert_eq!(m.space().max(b), 1);
    }

    #[test]
    #[should_panic]
    fn empty_value_set_panics() {
        let mut m = Model::new();
        let _ = m.new_var_values(&[]);
    }
}
