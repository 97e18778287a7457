//! # rrf-solver — a finite-domain constraint programming solver
//!
//! The paper implements its placer "within a constraint programming
//! framework" on top of a geometric constraint kernel. Mature CP solvers
//! are not available as pure-Rust crates, so this crate provides the full
//! substrate from scratch:
//!
//! * [`domain::Domain`] — range-list integer domains with precise change
//!   events;
//! * [`space::Space`] — the per-search-node state (copy-based restoration,
//!   à la Gecode: propagators stay immutable and shareable);
//! * [`propagator`] — the propagator interface and fixpoint engine;
//! * [`constraints`] — disequality, linear, element, table, maximum,
//!   lexicographic order and cumulative propagators;
//! * [`model::Model`] — the model-building facade;
//! * [`search`] — DFS with branch & bound, branching heuristics, limits;
//! * [`portfolio`] — parallel multi-heuristic search sharing the incumbent
//!   bound through an atomic.
//!
//! ```
//! use rrf_solver::{constraints::LinRel, Model, SearchConfig, solve};
//!
//! // Minimize y subject to y >= x + 2, x >= 3.
//! let mut m = Model::new();
//! let x = m.new_var(0, 10);
//! let y = m.new_var(0, 20);
//! m.linear(&[1, -1], &[x, y], LinRel::Le, -2);
//! m.linear(&[1], &[x], LinRel::Ge, 3);
//! let out = solve(m, SearchConfig::minimize(y));
//! assert_eq!(out.objective, Some(5));
//! ```

#![forbid(unsafe_code)]

pub mod constraints;
pub mod domain;
pub mod model;
pub mod portfolio;
pub mod propagator;
pub mod search;
pub mod space;

pub use domain::{Domain, DomainEvent};
pub use model::Model;
pub use portfolio::{solve_portfolio, PortfolioOutcome};
pub use propagator::{Engine, PropKindStats, PropagationStats, Propagator};
pub use search::{
    solve, Limits, Objective, SearchConfig, SearchOutcome, SearchStats, Solution, ValSelect,
    VarSelect,
};
pub use space::{Conflict, Space, VarId};
