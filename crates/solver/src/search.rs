//! Depth-first search with branch & bound, configurable branching
//! heuristics, and node/failure/time limits.

use crate::model::Model;
use crate::propagator::Engine;
use crate::space::{Space, VarId};
use rrf_trace::{tcount, thot, tpoint, Tracer};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Variable selection heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarSelect {
    /// First unfixed variable in declaration order.
    InputOrder,
    /// Smallest domain first ("first fail").
    FirstFail,
    /// Smallest lower bound first (packs leftward — a good fit for the
    /// placement objective).
    SmallestMin,
    /// Largest domain first (anti-first-fail; mostly for ablation).
    LargestDomain,
}

/// Value selection heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValSelect {
    /// Try the minimum value, on backtrack remove it.
    Min,
    /// Try the maximum value, on backtrack remove it.
    Max,
    /// Domain bisection: `x <= median` first.
    Split,
}

/// What to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Stop at the first solution (or enumerate, per `stop_after`).
    Satisfy,
    /// Minimize the given variable by branch & bound.
    Minimize(VarId),
}

/// Search limits. `None` means unlimited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Limits {
    pub nodes: Option<u64>,
    pub failures: Option<u64>,
    pub time: Option<Duration>,
}

/// Full search configuration.
#[derive(Clone)]
pub struct SearchConfig {
    pub var_select: VarSelect,
    pub val_select: ValSelect,
    pub objective: Objective,
    pub limits: Limits,
    /// Branch over these variables (in this priority order for
    /// `InputOrder`); other variables must be fixed by propagation, with a
    /// completeness fallback branching on any remaining unfixed variable.
    /// `None` = all variables.
    pub decision_vars: Option<Vec<VarId>>,
    /// Stop after this many solutions. `None`: exhaust (required to *prove*
    /// optimality under `Minimize`).
    pub stop_after: Option<u64>,
    /// Objective bound shared across portfolio workers (`i64::MAX` = none).
    pub shared_bound: Option<Arc<AtomicI64>>,
    /// Cooperative cancellation: when set to `true` (by another worker or a
    /// caller), the search unwinds as if a limit were hit.
    pub stop_flag: Option<Arc<AtomicBool>>,
    /// Trace destination. The default (disabled) tracer costs one branch
    /// per instrumentation point; see `rrf_trace` for the event schema.
    pub tracer: Tracer,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            var_select: VarSelect::InputOrder,
            val_select: ValSelect::Min,
            objective: Objective::Satisfy,
            limits: Limits::default(),
            decision_vars: None,
            stop_after: None,
            shared_bound: None,
            stop_flag: None,
            tracer: Tracer::default(),
        }
    }
}

impl SearchConfig {
    /// Satisfaction search that stops at the first solution.
    pub fn first_solution() -> SearchConfig {
        SearchConfig {
            stop_after: Some(1),
            ..SearchConfig::default()
        }
    }

    /// Branch-and-bound minimization of `obj`.
    pub fn minimize(obj: VarId) -> SearchConfig {
        SearchConfig {
            objective: Objective::Minimize(obj),
            ..SearchConfig::default()
        }
    }
}

/// One assignment satisfying all constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    values: Vec<i32>,
}

impl Solution {
    /// The value of `v` in this solution.
    pub fn value(&self, v: VarId) -> i32 {
        self.values[v.index()]
    }

    /// All values, indexed by variable.
    pub fn values(&self) -> &[i32] {
        &self.values
    }
}

/// Search counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Branch nodes visited (excluding the root propagation).
    pub nodes: u64,
    /// Dead ends encountered.
    pub failures: u64,
    /// Solutions found.
    pub solutions: u64,
    /// Deepest branch depth reached.
    pub max_depth: u64,
    /// Propagator executions (from the engine).
    pub propagations: u64,
    /// Wall-clock time of the search.
    pub duration: Duration,
    /// Time at which the final best solution was found (equals `duration`
    /// when no solution was found). Under branch & bound this is the
    /// *time-to-best-incumbent*, a fairer cross-run comparison than total
    /// time when proofs exceed the budget.
    pub time_to_best: Duration,
}

/// The result of running a search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best (under `Minimize`) or last found solution.
    pub best: Option<Solution>,
    /// Objective value of `best` under `Minimize`.
    pub objective: Option<i64>,
    /// Whether the search space was exhausted (proving optimality /
    /// infeasibility) rather than cut short by a limit or `stop_after`.
    pub complete: bool,
    pub stats: SearchStats,
}

enum Flow {
    Continue,
    Stop,
}

struct Ctx {
    engine: Engine,
    config: SearchConfig,
    started: Instant,
    best: Option<Solution>,
    best_obj: i64,
    stats: SearchStats,
    aborted: bool,
}

impl Ctx {
    fn limits_hit(&self) -> bool {
        if let Some(flag) = &self.config.stop_flag {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        let l = &self.config.limits;
        if let Some(n) = l.nodes {
            if self.stats.nodes >= n {
                return true;
            }
        }
        if let Some(f) = l.failures {
            if self.stats.failures >= f {
                return true;
            }
        }
        if let Some(t) = l.time {
            // Cheap guard: only check the clock every few nodes.
            if self.stats.nodes.is_multiple_of(64) && self.started.elapsed() >= t {
                return true;
            }
        }
        false
    }

    /// Current objective upper bound (exclusive of previous best).
    fn bound(&self) -> i64 {
        let local = self.best_obj;
        match &self.config.shared_bound {
            Some(shared) => local.min(shared.load(Ordering::Relaxed)),
            None => local,
        }
    }

    fn select_var(&self, space: &Space) -> Option<VarId> {
        let candidates: Box<dyn Iterator<Item = VarId> + '_> = match &self.config.decision_vars {
            Some(vars) => Box::new(vars.iter().copied()),
            None => Box::new((0..space.num_vars()).map(|i| VarId(i as u32))),
        };
        let unfixed: Vec<VarId> = candidates.filter(|&v| !space.is_fixed(v)).collect();
        let picked = match self.config.var_select {
            VarSelect::InputOrder => unfixed.first().copied(),
            VarSelect::FirstFail => unfixed.iter().copied().min_by_key(|&v| space.size(v)),
            VarSelect::SmallestMin => unfixed.iter().copied().min_by_key(|&v| space.min(v)),
            VarSelect::LargestDomain => unfixed.iter().copied().max_by_key(|&v| space.size(v)),
        };
        picked.or_else(|| {
            // Completeness fallback: decision variables fixed, but some
            // derived variable is not — branch on it in input order.
            (0..space.num_vars())
                .map(|i| VarId(i as u32))
                .find(|&v| !space.is_fixed(v))
        })
    }

    fn record_solution(&mut self, space: &Space) -> Flow {
        self.stats.solutions += 1;
        self.stats.time_to_best = self.started.elapsed();
        let solution = Solution {
            values: space.assignment(),
        };
        match self.config.objective {
            Objective::Satisfy => {
                self.best = Some(solution);
            }
            Objective::Minimize(obj) => {
                let value = space.value(obj) as i64;
                if value < self.best_obj {
                    self.best_obj = value;
                    self.best = Some(solution);
                    if let Some(shared) = &self.config.shared_bound {
                        shared.fetch_min(value, Ordering::Relaxed);
                    }
                }
            }
        }
        if let Some(stop) = self.config.stop_after {
            if self.stats.solutions >= stop {
                if let Some(flag) = &self.config.stop_flag {
                    flag.store(true, Ordering::Relaxed);
                }
                return Flow::Stop;
            }
        }
        Flow::Continue
    }

    fn dfs(&mut self, mut space: Space, depth: u64) -> Flow {
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if self.limits_hit() {
            self.aborted = true;
            return Flow::Stop;
        }
        // Branch & bound: force improvement over the incumbent.
        if let Objective::Minimize(obj) = self.config.objective {
            let bound = self.bound();
            if bound != i64::MAX {
                let cap = (bound - 1).clamp(i32::MIN as i64, i32::MAX as i64) as i32;
                if space.set_max(obj, cap).is_err() {
                    self.stats.failures += 1;
                    return Flow::Continue;
                }
            }
        }
        if self.engine.propagate(&mut space).is_err() {
            self.stats.failures += 1;
            return Flow::Continue;
        }
        let var = match self.select_var(&space) {
            None => return self.record_solution(&space),
            Some(v) => v,
        };
        self.stats.nodes += 1;
        thot!(self.config.tracer, "node",
            "depth" => depth,
            "nodes" => self.stats.nodes,
            "failures" => self.stats.failures);

        match self.config.val_select {
            ValSelect::Min | ValSelect::Max => {
                let val = if self.config.val_select == ValSelect::Min {
                    space.min(var)
                } else {
                    space.max(var)
                };
                // Left: var == val.
                let mut left = space.clone();
                left.assign(var, val).expect("value from current domain");
                if let Flow::Stop = self.dfs(left, depth + 1) {
                    return Flow::Stop;
                }
                // Right: var != val (in place).
                if space.remove(var, val).is_err() {
                    self.stats.failures += 1;
                    return Flow::Continue;
                }
                self.dfs(space, depth + 1)
            }
            ValSelect::Split => {
                let med = space.domain(var).median();
                let mut left = space.clone();
                left.set_max(var, med).expect("median within domain");
                if let Flow::Stop = self.dfs(left, depth + 1) {
                    return Flow::Stop;
                }
                if space.set_min(var, med + 1).is_err() {
                    self.stats.failures += 1;
                    return Flow::Continue;
                }
                self.dfs(space, depth + 1)
            }
        }
    }
}

/// Run a search over `model` with `config`.
pub fn solve(model: Model, config: SearchConfig) -> SearchOutcome {
    let (space, engine) = model.into_parts();
    solve_with(space, engine, config)
}

/// Run a search over a pre-decomposed space/engine pair. Used by the
/// portfolio, where threads share the propagator set but own their engine.
pub(crate) fn solve_with(space: Space, mut engine: Engine, config: SearchConfig) -> SearchOutcome {
    engine.schedule_all();
    let span = rrf_trace::tspan!(config.tracer, "search",
        "vars" => space.num_vars(),
        "props" => engine.num_propagators());
    let mut ctx = Ctx {
        engine,
        config,
        started: Instant::now(),
        best: None,
        best_obj: i64::MAX,
        stats: SearchStats::default(),
        aborted: false,
    };
    // Seed the shared bound view: a tighter foreign incumbent still prunes.
    ctx.dfs(space, 0);
    let objective = match ctx.config.objective {
        Objective::Minimize(_) if ctx.best.is_some() => Some(ctx.best_obj),
        _ => None,
    };
    let mut stats = ctx.stats;
    stats.propagations = ctx.engine.stats.executions;
    stats.duration = ctx.started.elapsed();
    if ctx.best.is_none() {
        stats.time_to_best = stats.duration;
    }
    let stopped_by_request = ctx
        .config
        .stop_after
        .is_some_and(|stop| stats.solutions >= stop);
    let complete = !ctx.aborted && !stopped_by_request;
    let tracer = &ctx.config.tracer;
    if tracer.enabled() {
        // Counters first (cheap aggregation), then one summary point and
        // one point per propagator kind — all logical-stream records, so
        // a fail-limited sequential search traces deterministically.
        tcount!(tracer, "search.nodes", stats.nodes);
        tcount!(tracer, "search.backtracks", stats.failures);
        tcount!(tracer, "search.solutions", stats.solutions);
        tpoint!(tracer, "search",
            "nodes" => stats.nodes,
            "failures" => stats.failures,
            "solutions" => stats.solutions,
            "max_depth" => stats.max_depth,
            "propagations" => ctx.engine.stats.executions,
            "fixpoints" => ctx.engine.stats.fixpoints,
            "conflicts" => ctx.engine.stats.conflicts,
            "complete" => complete);
        for kind in ctx.engine.kind_stats() {
            tpoint!(tracer, "prop",
                "kind" => kind.kind,
                "posted" => kind.posted,
                "execs" => kind.executions,
                "conflicts" => kind.conflicts,
                "scanned" => kind.scanned);
        }
    }
    span.close();
    SearchOutcome {
        best: ctx.best,
        objective,
        complete,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::LinRel;

    /// 4-queens has 2 solutions.
    fn queens_model(n: i32) -> (Model, Vec<VarId>) {
        let mut m = Model::new();
        let cols: Vec<VarId> = (0..n).map(|_| m.new_var(0, n - 1)).collect();
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                let d = (j - i) as i32;
                // cols[i] != cols[j] + c: distinct columns and diagonals.
                for c in [0, d, -d] {
                    m.post(crate::constraints::NotEqualOffset {
                        x: cols[i],
                        y: cols[j],
                        c,
                    });
                }
            }
        }
        (m, cols)
    }

    #[test]
    fn four_queens_first_solution() {
        let (m, cols) = queens_model(4);
        let outcome = solve(m, SearchConfig::first_solution());
        let sol = outcome.best.expect("4-queens is satisfiable");
        // Verify it is a valid placement.
        let vals: Vec<i32> = cols.iter().map(|&c| sol.value(c)).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(vals[i], vals[j]);
                assert_ne!((vals[i] - vals[j]).abs(), (i as i32 - j as i32).abs());
            }
        }
        assert!(!outcome.complete); // stopped at first solution
    }

    #[test]
    fn four_queens_count_all() {
        let (m, _) = queens_model(4);
        let outcome = solve(m, SearchConfig::default());
        assert_eq!(outcome.stats.solutions, 2);
        assert!(outcome.complete);
    }

    #[test]
    fn eight_queens_all_heuristics_agree() {
        for vs in [
            VarSelect::InputOrder,
            VarSelect::FirstFail,
            VarSelect::SmallestMin,
            VarSelect::LargestDomain,
        ] {
            for val in [ValSelect::Min, ValSelect::Max, ValSelect::Split] {
                let (m, _) = queens_model(6);
                let outcome = solve(
                    m,
                    SearchConfig {
                        var_select: vs,
                        val_select: val,
                        ..SearchConfig::default()
                    },
                );
                assert_eq!(outcome.stats.solutions, 4, "{vs:?}/{val:?}");
                assert!(outcome.complete);
            }
        }
    }

    #[test]
    fn infeasible_is_complete_with_no_solution() {
        let mut m = Model::new();
        let x = m.new_var(0, 3);
        let y = m.new_var(0, 3);
        // x < y and y < x.
        m.linear(&[1, -1], &[x, y], LinRel::Le, -1);
        m.linear(&[-1, 1], &[x, y], LinRel::Le, -1);
        let outcome = solve(m, SearchConfig::default());
        assert!(outcome.best.is_none());
        assert!(outcome.complete);
        assert_eq!(outcome.stats.solutions, 0);
    }

    #[test]
    fn minimization_finds_optimum_and_proves_it() {
        // Minimize x + y (via a derived var) subject to x + y >= 5.
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let y = m.new_var(0, 10);
        let sum = m.new_var(0, 20);
        m.linear(&[1, 1, -1], &[x, y, sum], LinRel::Eq, 0);
        m.linear(&[1, 1], &[x, y], LinRel::Ge, 5);
        let outcome = solve(m, SearchConfig::minimize(sum));
        assert_eq!(outcome.objective, Some(5));
        assert!(outcome.complete);
        let sol = outcome.best.unwrap();
        assert_eq!(sol.value(x) + sol.value(y), 5);
    }

    #[test]
    fn node_limit_truncates() {
        let (m, _) = queens_model(8);
        let outcome = solve(
            m,
            SearchConfig {
                limits: Limits {
                    nodes: Some(3),
                    ..Limits::default()
                },
                ..SearchConfig::default()
            },
        );
        assert!(!outcome.complete);
        assert!(outcome.stats.nodes <= 4);
    }

    #[test]
    fn time_limit_truncates() {
        let (m, _) = queens_model(12);
        let outcome = solve(
            m,
            SearchConfig {
                limits: Limits {
                    time: Some(Duration::from_millis(1)),
                    ..Limits::default()
                },
                ..SearchConfig::default()
            },
        );
        // Either it finished 12-queens instantly (unlikely) or it stopped.
        assert!(!outcome.complete || outcome.stats.duration < Duration::from_secs(1));
    }

    #[test]
    fn decision_vars_restrict_branching() {
        // y is functionally determined by x; branching on x only suffices.
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_var(0, 50);
        m.linear(&[3, -1], &[x, y], LinRel::Eq, 0);
        let outcome = solve(
            m,
            SearchConfig {
                decision_vars: Some(vec![x]),
                ..SearchConfig::default()
            },
        );
        assert_eq!(outcome.stats.solutions, 6);
        assert!(outcome.complete);
    }

    #[test]
    fn shared_bound_prunes() {
        // A foreign incumbent of 6 means: only solutions < 6 are explored.
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let shared = Arc::new(AtomicI64::new(6));
        let outcome = solve(
            m,
            SearchConfig {
                objective: Objective::Minimize(x),
                shared_bound: Some(Arc::clone(&shared)),
                ..SearchConfig::default()
            },
        );
        assert_eq!(outcome.objective, Some(0));
        assert_eq!(shared.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stats_are_populated() {
        let (m, _) = queens_model(5);
        let outcome = solve(m, SearchConfig::default());
        assert!(outcome.stats.nodes > 0);
        assert!(outcome.stats.propagations > 0);
        assert!(outcome.stats.max_depth > 0);
        assert_eq!(outcome.stats.solutions, 10);
    }
}
