//! Parallel portfolio search: several workers race on the same model with
//! different branching heuristics, sharing the incumbent objective bound
//! through an atomic so every worker prunes against the global best.
//!
//! This is the classic way to parallelize branch & bound when the model is
//! cheap to share and the search tree is heuristic-sensitive — exactly the
//! situation for optimal placement, where different variable orders explore
//! wildly different trees. Because propagators are immutable ([`crate::
//! propagator::Propagator`]), workers share them by `Arc` and only clone the
//! root domains.

use crate::model::Model;
use crate::propagator::Engine;
use crate::search::{solve_with, Objective, SearchConfig, SearchOutcome, ValSelect, VarSelect};
use parking_lot::Mutex;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;

/// Heuristic assignments for portfolio workers, cycled when more workers
/// than entries are requested.
const WORKER_HEURISTICS: [(VarSelect, ValSelect); 4] = [
    (VarSelect::InputOrder, ValSelect::Min),
    (VarSelect::FirstFail, ValSelect::Min),
    (VarSelect::SmallestMin, ValSelect::Min),
    (VarSelect::FirstFail, ValSelect::Split),
];

/// Outcome of a portfolio run: the globally best solution plus each
/// worker's own outcome (for diagnostics and the search ablation).
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The best outcome across workers (optimal objective if any worker
    /// proved completeness, or the best incumbent otherwise).
    pub best: SearchOutcome,
    /// Index of the worker that produced `best`.
    pub winner: usize,
    /// Every worker's outcome, indexed by worker.
    pub workers: Vec<SearchOutcome>,
}

/// Run `workers` parallel searches over `model` with `base` configuration,
/// varying the branching heuristic per worker and sharing the minimization
/// bound. With `workers == 1` this degenerates to [`crate::search::solve`].
///
/// The model is decomposed once; propagators are shared immutably across
/// threads (crossbeam scoped threads keep lifetimes simple).
pub fn solve_portfolio(model: Model, base: SearchConfig, workers: usize) -> PortfolioOutcome {
    assert!(workers >= 1, "portfolio needs at least one worker");
    let (space, props) = model.into_shared_parts();
    let num_vars = space.num_vars();
    let shared_bound = Arc::new(AtomicI64::new(i64::MAX));
    let stop_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let results: Mutex<Vec<Option<SearchOutcome>>> = Mutex::new(vec![None; workers]);

    crossbeam::thread::scope(|scope| {
        for w in 0..workers {
            let (var_select, val_select) = WORKER_HEURISTICS[w % WORKER_HEURISTICS.len()];
            let mut config = base.clone();
            config.var_select = var_select;
            config.val_select = val_select;
            if matches!(config.objective, Objective::Minimize(_)) {
                config.shared_bound = Some(Arc::clone(&shared_bound));
            } else if config.stop_after.is_some() && config.stop_flag.is_none() {
                // Satisfaction race: the first worker to hit its solution
                // quota cancels the rest. An externally supplied stop flag
                // takes precedence (it already cancels every worker).
                config.stop_flag = Some(Arc::clone(&stop_flag));
            }
            let engine = Engine::from_shared(num_vars, props.clone());
            let space = space.clone();
            let results = &results;
            scope.spawn(move |_| {
                let outcome = solve_with(space, engine, config);
                results.lock()[w] = Some(outcome);
            });
        }
    })
    .expect("portfolio worker panicked");

    let workers_outcomes: Vec<SearchOutcome> = results
        .into_inner()
        .into_iter()
        .map(|o| o.expect("worker finished"))
        .collect();

    // Pick the winner: best objective value first, completeness as the
    // tie-breaker, then lowest index for determinism of reporting.
    let mut winner = 0;
    for (i, outcome) in workers_outcomes.iter().enumerate() {
        let better = {
            let cur = &workers_outcomes[winner];
            match (outcome.objective, cur.objective) {
                (Some(a), Some(b)) if a != b => a < b,
                _ => match (outcome.best.is_some(), cur.best.is_some()) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => outcome.complete && !cur.complete,
                },
            }
        };
        if better {
            winner = i;
        }
    }
    rrf_trace::tpoint!(base.tracer, "portfolio",
        "workers" => workers,
        "winner" => winner,
        "winner_complete" => workers_outcomes[winner].complete,
        "winner_nodes" => workers_outcomes[winner].stats.nodes);
    PortfolioOutcome {
        best: workers_outcomes[winner].clone(),
        winner,
        workers: workers_outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::LinRel;

    fn knapsack_model() -> (Model, crate::space::VarId) {
        // Minimize 5x + 4y + 3z subject to 2x + 3y + z >= 7, vars in [0,5].
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_var(0, 5);
        let z = m.new_var(0, 5);
        let obj = m.new_var(0, 100);
        m.linear(&[2, 3, 1], &[x, y, z], LinRel::Ge, 7);
        m.linear(&[5, 4, 3, -1], &[x, y, z, obj], LinRel::Eq, 0);
        (m, obj)
    }

    #[test]
    fn portfolio_matches_sequential_optimum() {
        let (m, obj) = knapsack_model();
        let seq = crate::search::solve(m, SearchConfig::minimize(obj));
        let (m2, obj2) = knapsack_model();
        let par = solve_portfolio(m2, SearchConfig::minimize(obj2), 4);
        assert_eq!(par.best.objective, seq.objective);
        assert!(par.best.complete);
        assert_eq!(par.workers.len(), 4);
    }

    #[test]
    fn single_worker_portfolio() {
        let (m, obj) = knapsack_model();
        let par = solve_portfolio(m, SearchConfig::minimize(obj), 1);
        assert!(par.best.objective.is_some());
        assert_eq!(par.winner, 0);
    }

    #[test]
    fn satisfaction_portfolio() {
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let y = m.new_var(0, 9);
        m.linear(&[1, -1], &[x, y], LinRel::Le, -1); // x < y
        let par = solve_portfolio(m, SearchConfig::first_solution(), 3);
        let sol = par.best.best.expect("satisfiable");
        assert!(sol.value(x) < sol.value(y));
    }

    #[test]
    fn infeasible_portfolio_is_complete() {
        let mut m = Model::new();
        let x = m.new_var(0, 3);
        let y = m.new_var(0, 3);
        // x < y and y < x.
        m.linear(&[1, -1], &[x, y], LinRel::Le, -1);
        m.linear(&[-1, 1], &[x, y], LinRel::Le, -1);
        let par = solve_portfolio(m, SearchConfig::default(), 2);
        assert!(par.best.best.is_none());
        assert!(par.best.complete);
    }
}
