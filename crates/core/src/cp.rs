//! The constraint-programming placer — the paper's contribution.
//!
//! Builds one CP model per instance:
//!
//! * per module: a shape selector `sᵢ` and anchor variables `(xᵢ, yᵢ)`;
//! * a **placement table** `(sᵢ, xᵢ, yᵢ) ∈ valid triples` encoding the
//!   containment and resource-compatibility families (eqs. 2–3) against the
//!   heterogeneous region — the geost resource extension;
//! * the **geost non-overlap** propagator over all modules (eq. 4);
//! * `rightᵢ = xᵢ + width(sᵢ)` via element constraints, and the objective
//!   `extent = max rightᵢ` minimized by branch & bound (eq. 6);
//! * optionally a redundant cumulative projection and a greedy warm start.
//!
//! The search branches module-by-module, biggest first, choosing shape,
//! then x (leftmost first), then y — the packing order that pairs well with
//! the extent objective.

use crate::baseline::bottom_left;
use crate::placement::{Floorplan, PlacedModule};
use crate::problem::{Heuristic, PlacementProblem, PlacerConfig, SearchStrategy};
use rrf_geost::{anchor_rows, GeostObject, NonOverlap};
use rrf_solver::constraints::{LinRel, Task};
use rrf_solver::{
    solve, solve_portfolio, Limits, Model, SearchConfig, SearchOutcome, ValSelect, VarId, VarSelect,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Search effort counters for one placement run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SolveStats {
    pub nodes: u64,
    pub failures: u64,
    pub propagations: u64,
    pub solutions: u64,
    /// Total placement-table rows across modules (model size indicator).
    pub table_rows: usize,
    /// Design alternatives stripped by the pre-solve static analysis
    /// (dead, duplicate, or dominated shapes; 0 when pruning is off).
    #[serde(default)]
    pub shapes_pruned: usize,
    pub duration: Duration,
    /// When the final best incumbent was found (≤ `duration`).
    pub time_to_best: Duration,
}

/// Result of a CP placement run.
#[derive(Debug, Clone)]
pub struct PlacementOutcome {
    /// The best floorplan found (`None` = infeasible or budget exhausted
    /// before any solution).
    pub plan: Option<Floorplan>,
    /// Spatial extent of `plan`: the rightmost occupied column + 1,
    /// absolute fabric coordinates.
    pub extent: Option<i64>,
    /// Whether the search proved the result (optimality, or infeasibility
    /// when `plan` is `None`).
    pub proven: bool,
    pub stats: SolveStats,
}

pub(crate) struct BuiltModel {
    pub(crate) model: Model,
    pub(crate) objective: VarId,
    pub(crate) decision_vars: Vec<VarId>,
    /// (shape, x, y) variables per module, in module order.
    pub(crate) module_vars: Vec<(VarId, VarId, VarId)>,
    pub(crate) table_rows: usize,
}

/// Build the CP model for `problem`. Returns `None` if some module has no
/// valid placement at all (the instance is trivially infeasible).
pub(crate) fn build_model(problem: &PlacementProblem, config: &PlacerConfig) -> Option<BuiltModel> {
    let region = &problem.region;
    let b = region.bounds();
    let mut model = Model::new();
    let mut module_vars = Vec::with_capacity(problem.modules.len());
    let mut objects = Vec::with_capacity(problem.modules.len());
    let mut rights = Vec::with_capacity(problem.modules.len());
    let mut table_rows = 0usize;

    for module in &problem.modules {
        let n = module.num_shapes() as i32;
        let s = model.new_var(0, n - 1);
        let x = model.new_var(b.x, b.x_end() - 1);
        let y = model.new_var(b.y, b.y_end() - 1);
        let rows = anchor_rows(region, module.shapes());
        if rows.is_empty() {
            return None;
        }
        table_rows += rows.len();
        model.table(vec![s, x, y], rows);

        // right = x + widths[s]; widths measured to the bounding box's
        // exclusive right edge in anchor-relative coordinates.
        let widths: Vec<i32> = module
            .shapes()
            .iter()
            .map(|sh| sh.bounding_box().x_end())
            .collect();
        let w_min = *widths.iter().min().expect("non-empty shapes");
        let w_max = *widths.iter().max().expect("non-empty shapes");
        let w = model.new_var(w_min, w_max);
        model.element(widths, s, w);
        let right = model.new_var(b.x + w_min, b.x_end());
        model.linear(&[1, 1, -1], &[x, w, right], LinRel::Eq, 0);
        rights.push(right);

        objects.push(GeostObject::new(x, y, s, module.shapes_arc()));
        module_vars.push((s, x, y));
    }

    // Symmetry breaking: identical modules (same design-alternative list)
    // are interchangeable, so order their anchors lexicographically.
    for i in 0..problem.modules.len() {
        for j in (i + 1)..problem.modules.len() {
            if problem.modules[i].shapes() == problem.modules[j].shapes() {
                let (_, xi, yi) = module_vars[i];
                let (_, xj, yj) = module_vars[j];
                model.post(rrf_solver::constraints::LexLeqPair {
                    x1: xi,
                    y1: yi,
                    x2: xj,
                    y2: yj,
                });
            }
        }
    }

    let objective = model.new_var(b.x, b.x_end());
    model.maximum(rights.clone(), objective);
    model.post(NonOverlap::new(objects, b));

    // Area lower bound: the first `E - b.x` columns must offer at least as
    // many placeable tiles as the modules demand, so the objective can
    // never drop below the smallest such `E` (prefix sum over columns).
    // Use each module's smallest alternative so the bound stays sound even
    // when alternatives differ in area.
    let demand: i64 = problem
        .modules
        .iter()
        .map(|m| {
            m.shapes()
                .iter()
                .map(rrf_geost::ShapeDef::area)
                .min()
                .expect("non-empty shapes")
        })
        .sum();
    let mut cumulative_tiles = 0i64;
    let mut lb = b.x_end();
    for col in b.x..b.x_end() {
        cumulative_tiles +=
            region.placeable_count_in(rrf_fabric::Rect::new(col, b.y, 1, b.h)) as i64;
        if cumulative_tiles >= demand {
            lb = col + 1;
            break;
        }
    }
    model.linear(&[1], &[objective], LinRel::Ge, lb as i64);

    if config.redundant_cumulative {
        // Project every module onto the x axis using its smallest width and
        // height over the alternatives (a sound under-approximation); the
        // projected demand can never exceed the region height.
        let tasks: Vec<Task> = problem
            .modules
            .iter()
            .zip(&module_vars)
            .map(|(module, &(_, x, _))| {
                let duration = module
                    .shapes()
                    .iter()
                    .map(|sh| sh.bounding_box().w)
                    .min()
                    .expect("non-empty shapes");
                let demand = module
                    .shapes()
                    .iter()
                    .map(|sh| sh.bounding_box().h)
                    .min()
                    .expect("non-empty shapes");
                Task {
                    start: x,
                    duration,
                    demand,
                }
            })
            .collect();
        model.cumulative(tasks, b.h);
    }

    // Decision order: biggest module first; per module shape → x → y.
    let mut order: Vec<usize> = (0..problem.modules.len()).collect();
    order.sort_by_key(|&i| (-problem.modules[i].max_area(), i));
    let decision_vars = order
        .iter()
        .flat_map(|&i| {
            let (s, x, y) = module_vars[i];
            [s, x, y]
        })
        .collect();

    Some(BuiltModel {
        model,
        objective,
        decision_vars,
        module_vars,
        table_rows,
    })
}

/// Outcome of the pre-solve static prune.
enum Pruned {
    /// Every shape survived; solve the original problem.
    Unchanged,
    /// Some shapes were stripped: the shrunk problem, plus per-module
    /// maps from surviving shape index back to the original index.
    Shrunk {
        problem: PlacementProblem,
        keep: Vec<Vec<usize>>,
        removed: usize,
    },
    /// A module lost every alternative (all dead): proven infeasible
    /// without building a model.
    Infeasible { removed: usize },
}

/// Strip dead, duplicate, and dominated design alternatives (see
/// `rrf_geost::classify_shapes` for the soundness argument). Module order
/// and indices are preserved; only shape indices shift, and the returned
/// maps undo that shift on extracted floorplans.
fn prune_problem(problem: &PlacementProblem) -> Pruned {
    let mut keep: Vec<Vec<usize>> = Vec::with_capacity(problem.modules.len());
    let mut removed = 0usize;
    for module in &problem.modules {
        let fates = rrf_geost::classify_shapes(&problem.region, module.shapes());
        let kept: Vec<usize> = fates
            .iter()
            .enumerate()
            .filter(|(_, f)| **f == rrf_geost::ShapeFate::Keep)
            .map(|(i, _)| i)
            .collect();
        removed += module.num_shapes() - kept.len();
        if kept.is_empty() {
            return Pruned::Infeasible { removed };
        }
        keep.push(kept);
    }
    if removed == 0 {
        return Pruned::Unchanged;
    }
    let modules = problem
        .modules
        .iter()
        .zip(&keep)
        .map(|(m, kept)| {
            crate::model::Module::new(
                m.name.clone(),
                kept.iter().map(|&s| m.shapes()[s].clone()).collect(),
            )
        })
        .collect();
    Pruned::Shrunk {
        problem: PlacementProblem::new(problem.region.clone(), modules),
        keep,
        removed,
    }
}

pub(crate) fn extract_plan(
    outcome: &SearchOutcome,
    module_vars: &[(VarId, VarId, VarId)],
) -> Option<Floorplan> {
    let sol = outcome.best.as_ref()?;
    Some(Floorplan::new(
        module_vars
            .iter()
            .enumerate()
            .map(|(i, &(s, x, y))| PlacedModule {
                module: i,
                shape: sol.value(s) as usize,
                x: sol.value(x),
                y: sol.value(y),
            })
            .collect(),
    ))
}

/// Minimize the floorplan's *height* (the paper's eq. 6 speaks of "the
/// set of solutions with minimal height") instead of its width: the
/// problem is transposed across the x=y diagonal, solved with the regular
/// width-minimizing placer, and the floorplan mapped back. `extent` is
/// then the rightmost occupied *row* + 1.
pub fn place_minimize_height(
    problem: &PlacementProblem,
    config: &PlacerConfig,
) -> PlacementOutcome {
    let transposed = PlacementProblem::new(
        problem.region.transposed(),
        problem
            .modules
            .iter()
            .map(|m| {
                crate::model::Module::new(
                    m.name.clone(),
                    m.shapes()
                        .iter()
                        .map(rrf_geost::ShapeDef::transposed)
                        .collect(),
                )
            })
            .collect(),
    );
    let mut out = place(&transposed, config);
    if let Some(plan) = &mut out.plan {
        for p in &mut plan.placements {
            std::mem::swap(&mut p.x, &mut p.y);
        }
    }
    out
}

/// Place `problem` optimally (within the configured budget).
pub fn place(problem: &PlacementProblem, config: &PlacerConfig) -> PlacementOutcome {
    let started = Instant::now();
    let tracer = &config.tracer;
    let place_span = rrf_trace::tspan!(tracer, "place", "modules" => problem.modules.len());
    if problem.modules.is_empty() {
        place_span.close();
        return PlacementOutcome {
            plan: Some(Floorplan::new(vec![])),
            extent: Some(problem.region.bounds().x as i64),
            proven: true,
            stats: SolveStats {
                duration: started.elapsed(),
                ..SolveStats::default()
            },
        };
    }

    // Pre-solve static prune: solve the shrunk problem, then map shape
    // indices back so the returned floorplan indexes the caller's module
    // shape lists.
    let mut shapes_pruned = 0usize;
    let mut keep_maps: Option<Vec<Vec<usize>>> = None;
    let mut shrunk: Option<PlacementProblem> = None;
    if config.analyze_prune {
        let prune_span = rrf_trace::tspan!(tracer, "place.prune");
        let pruned = prune_problem(problem);
        prune_span.close();
        match pruned {
            Pruned::Unchanged => {}
            Pruned::Shrunk {
                problem,
                keep,
                removed,
            } => {
                shapes_pruned = removed;
                keep_maps = Some(keep);
                shrunk = Some(problem);
            }
            Pruned::Infeasible { removed } => {
                rrf_trace::tpoint!(tracer, "place.result",
                    "found" => false, "proven" => true, "pruned_infeasible" => true,
                    "shapes_pruned" => removed);
                place_span.close();
                return PlacementOutcome {
                    plan: None,
                    extent: None,
                    proven: true,
                    stats: SolveStats {
                        shapes_pruned: removed,
                        duration: started.elapsed(),
                        ..SolveStats::default()
                    },
                };
            }
        }
    }
    rrf_trace::tcount!(tracer, "place.shapes_pruned", shapes_pruned);
    let problem = shrunk.as_ref().unwrap_or(problem);

    let build_span = rrf_trace::tspan!(tracer, "place.build");
    let built = build_model(problem, config);
    build_span.close();
    let Some(mut built) = built else {
        rrf_trace::tpoint!(tracer, "place.result",
            "found" => false, "proven" => true, "pruned_infeasible" => false,
            "shapes_pruned" => shapes_pruned);
        place_span.close();
        return PlacementOutcome {
            plan: None,
            extent: None,
            proven: true,
            stats: SolveStats {
                shapes_pruned,
                duration: started.elapsed(),
                ..SolveStats::default()
            },
        };
    };
    rrf_trace::tcount!(tracer, "place.table_rows", built.table_rows);

    // Greedy warm start bounds the objective from above; keep the greedy
    // plan as the fallback incumbent.
    let mut warm: Option<(Floorplan, i64)> = None;
    if config.warm_start {
        let warm_span = rrf_trace::tspan!(tracer, "place.warm_start");
        if let Some(plan) = bottom_left(problem) {
            let extent = plan.x_extent(&problem.modules, problem.region.bounds().x) as i64;
            built
                .model
                .linear(&[1], &[built.objective], LinRel::Le, extent);
            warm = Some((plan, extent));
        }
        warm_span.close();
    }

    let (var_select, val_select) = match config.heuristic {
        Heuristic::InputOrderMin => (VarSelect::InputOrder, ValSelect::Min),
        Heuristic::FirstFailMin => (VarSelect::FirstFail, ValSelect::Min),
        Heuristic::SmallestMin => (VarSelect::SmallestMin, ValSelect::Min),
        Heuristic::FirstFailSplit => (VarSelect::FirstFail, ValSelect::Split),
    };
    let search = SearchConfig {
        var_select,
        val_select,
        objective: rrf_solver::Objective::Minimize(built.objective),
        limits: Limits {
            time: config.time_limit,
            failures: config.fail_limit,
            nodes: None,
        },
        decision_vars: Some(built.decision_vars.clone()),
        stop_after: None,
        shared_bound: None,
        stop_flag: config.stop.clone(),
        tracer: tracer.clone(),
    };

    let search_span = rrf_trace::tspan!(tracer, "place.search");
    let outcome = match config.strategy {
        SearchStrategy::Sequential => solve(built.model, search),
        SearchStrategy::Portfolio(workers) => {
            solve_portfolio(built.model, search, workers.max(1)).best
        }
    };
    search_span.close();

    let mut plan = extract_plan(&outcome, &built.module_vars);
    let mut extent = outcome.objective;
    let mut proven = outcome.complete;
    if plan.is_none() {
        if let Some((greedy_plan, greedy_extent)) = warm {
            // The search found nothing better than the greedy incumbent
            // within budget (or proved nothing beats it: a complete search
            // under bound `greedy_extent` with no solution means greedy
            // was within 0 of optimal only if bound was exclusive — we
            // posted an inclusive bound, so no solution + complete means
            // infeasible-under-bound cannot happen; treat greedy as the
            // answer, proven only if the search was complete).
            proven = outcome.complete;
            extent = Some(greedy_extent);
            plan = Some(greedy_plan);
        }
    }

    // Undo the prune's shape-index shift so placements index the
    // caller's original shape lists.
    if let (Some(plan), Some(maps)) = (plan.as_mut(), keep_maps.as_ref()) {
        for p in &mut plan.placements {
            p.shape = maps[p.module][p.shape];
        }
    }

    rrf_trace::tpoint!(tracer, "place.result",
        "found" => plan.is_some(),
        "proven" => proven,
        "extent" => extent.unwrap_or(-1),
        "shapes_pruned" => shapes_pruned);
    place_span.close();

    PlacementOutcome {
        plan,
        extent,
        proven,
        stats: SolveStats {
            nodes: outcome.stats.nodes,
            failures: outcome.stats.failures,
            propagations: outcome.stats.propagations,
            solutions: outcome.stats.solutions,
            table_rows: built.table_rows,
            shapes_pruned,
            duration: started.elapsed(),
            time_to_best: outcome.stats.time_to_best,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Module;
    use crate::verify::is_valid;
    use rrf_fabric::{device, Fabric, Region, ResourceKind};
    use rrf_geost::{ShapeDef, ShiftedBox};

    fn clb_shape(w: i32, h: i32) -> ShapeDef {
        ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)])
    }

    fn exact() -> PlacerConfig {
        PlacerConfig::exact()
    }

    #[test]
    fn single_module_leftmost() {
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(8, 4)),
            vec![Module::new("a", vec![clb_shape(3, 2)])],
        );
        let out = place(&problem, &exact());
        assert!(out.proven);
        assert_eq!(out.extent, Some(3));
        let plan = out.plan.unwrap();
        assert!(is_valid(&problem.region, &problem.modules, &plan));
        assert_eq!(plan.placements[0].x, 0);
    }

    #[test]
    fn two_modules_stack_vertically() {
        // 4-tall region, two 2-tall modules: optimal extent stacks them.
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(8, 4)),
            vec![
                Module::new("a", vec![clb_shape(3, 2)]),
                Module::new("b", vec![clb_shape(3, 2)]),
            ],
        );
        let out = place(&problem, &exact());
        assert_eq!(out.extent, Some(3));
        assert!(out.proven);
        let plan = out.plan.unwrap();
        assert!(is_valid(&problem.region, &problem.modules, &plan));
    }

    #[test]
    fn alternatives_reduce_extent() {
        // Region 2 tall. Modules: a = 4x2 fixed; b = {4x1, 2x2}.
        // Without alternatives (4x1 only): extent 8. With: 2x2 at x=4 → 6.
        let region = Region::whole(device::homogeneous(10, 2));
        let with = PlacementProblem::new(
            region.clone(),
            vec![
                Module::new("a", vec![clb_shape(4, 2)]),
                Module::new("b", vec![clb_shape(4, 1), clb_shape(2, 2)]),
            ],
        );
        let without = with.without_alternatives();
        let out_with = place(&with, &exact());
        let out_without = place(&without, &exact());
        assert_eq!(out_with.extent, Some(6));
        assert_eq!(out_without.extent, Some(8));
        assert!(out_with.proven && out_without.proven);
    }

    #[test]
    fn heterogeneous_fabric_respected() {
        let fabric = Fabric::from_art("ccBcc\nccBcc").unwrap();
        let problem = PlacementProblem::new(
            Region::whole(fabric),
            vec![
                Module::new(
                    "mem",
                    vec![ShapeDef::new(vec![ShiftedBox::new(
                        0,
                        0,
                        1,
                        2,
                        ResourceKind::Bram,
                    )])],
                ),
                Module::new("logic", vec![clb_shape(2, 2)]),
            ],
        );
        let out = place(&problem, &exact());
        let plan = out.plan.unwrap();
        assert!(is_valid(&problem.region, &problem.modules, &plan));
        assert_eq!(plan.placements[0].x, 2); // BRAM column
        assert_eq!(plan.placements[1].x, 0); // leftmost CLB gap
        assert_eq!(out.extent, Some(3));
    }

    #[test]
    fn infeasible_detected() {
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(3, 3)),
            vec![Module::new("too-big", vec![clb_shape(4, 1)])],
        );
        let out = place(&problem, &exact());
        assert!(out.plan.is_none());
        assert!(out.proven);
    }

    #[test]
    fn infeasible_by_packing_detected() {
        // Each fits alone, both cannot: 2 modules of 3x2 in a 4x2 region.
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(4, 2)),
            vec![
                Module::new("a", vec![clb_shape(3, 2)]),
                Module::new("b", vec![clb_shape(3, 2)]),
            ],
        );
        let out = place(&problem, &exact());
        assert!(out.plan.is_none());
        assert!(out.proven);
    }

    #[test]
    fn empty_problem_trivial() {
        let problem = PlacementProblem::new(Region::whole(device::homogeneous(4, 4)), vec![]);
        let out = place(&problem, &exact());
        assert!(out.proven);
        assert_eq!(out.plan.unwrap().placements.len(), 0);
    }

    #[test]
    fn preset_stop_flag_aborts_with_greedy_incumbent() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // A non-trivial instance: with the stop flag already set the search
        // must abort at its first step, fall back to the greedy warm-start
        // plan, and never claim the result proven.
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(20, 4)),
            vec![
                Module::new("a", vec![clb_shape(4, 2), clb_shape(2, 4)]),
                Module::new("b", vec![clb_shape(4, 2), clb_shape(2, 4)]),
                Module::new("c", vec![clb_shape(3, 2), clb_shape(2, 3)]),
                Module::new("d", vec![clb_shape(3, 2), clb_shape(2, 3)]),
                Module::new("e", vec![clb_shape(2, 2)]),
            ],
        );
        let flag = Arc::new(AtomicBool::new(true));
        let config = PlacerConfig::exact().with_stop(Arc::clone(&flag));
        assert!(config.stop_requested());
        let started = std::time::Instant::now();
        let out = place(&problem, &config);
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(!out.proven);
        let plan = out.plan.expect("greedy incumbent survives cancellation");
        assert!(is_valid(&problem.region, &problem.modules, &plan));
    }

    #[test]
    fn unset_stop_flag_does_not_disturb_search() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(8, 4)),
            vec![
                Module::new("a", vec![clb_shape(3, 2)]),
                Module::new("b", vec![clb_shape(3, 2)]),
            ],
        );
        let config = PlacerConfig::exact().with_stop(Arc::new(AtomicBool::new(false)));
        let out = place(&problem, &config);
        assert!(out.proven);
        assert_eq!(out.extent, Some(3));
    }

    #[test]
    fn optimal_beats_or_matches_greedy() {
        // A mix the greedy packs suboptimally or equally; CP must never be
        // worse.
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(12, 4)),
            vec![
                Module::new("a", vec![clb_shape(3, 3)]),
                Module::new("b", vec![clb_shape(2, 4), clb_shape(4, 2)]),
                Module::new("c", vec![clb_shape(3, 1), clb_shape(1, 3)]),
                Module::new("d", vec![clb_shape(2, 2)]),
            ],
        );
        let greedy = bottom_left(&problem).unwrap();
        let greedy_extent = greedy.x_extent(&problem.modules, 0) as i64;
        let out = place(&problem, &exact());
        assert!(out.proven);
        assert!(out.extent.unwrap() <= greedy_extent);
        let plan = out.plan.unwrap();
        assert!(is_valid(&problem.region, &problem.modules, &plan));
    }

    #[test]
    fn warm_start_does_not_change_optimum() {
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(10, 3)),
            vec![
                Module::new("a", vec![clb_shape(2, 3)]),
                Module::new("b", vec![clb_shape(3, 2), clb_shape(2, 3)]),
                Module::new("c", vec![clb_shape(2, 1), clb_shape(1, 2)]),
            ],
        );
        let mut cfg = exact();
        cfg.warm_start = true;
        let a = place(&problem, &cfg);
        cfg.warm_start = false;
        let b = place(&problem, &cfg);
        assert_eq!(a.extent, b.extent);
        assert!(a.proven && b.proven);
    }

    #[test]
    fn redundant_cumulative_does_not_change_optimum() {
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(10, 3)),
            vec![
                Module::new("a", vec![clb_shape(2, 3)]),
                Module::new("b", vec![clb_shape(3, 2), clb_shape(2, 3)]),
                Module::new("c", vec![clb_shape(4, 1), clb_shape(2, 2)]),
            ],
        );
        let mut cfg = exact();
        cfg.redundant_cumulative = true;
        let a = place(&problem, &cfg);
        cfg.redundant_cumulative = false;
        let b = place(&problem, &cfg);
        assert_eq!(a.extent, b.extent);
    }

    #[test]
    fn portfolio_matches_sequential() {
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(10, 3)),
            vec![
                Module::new("a", vec![clb_shape(2, 3)]),
                Module::new("b", vec![clb_shape(3, 2), clb_shape(2, 3)]),
                Module::new("c", vec![clb_shape(2, 1), clb_shape(1, 2)]),
            ],
        );
        let seq = place(&problem, &exact());
        let mut cfg = exact();
        cfg.strategy = SearchStrategy::Portfolio(3);
        let par = place(&problem, &cfg);
        assert_eq!(par.extent, seq.extent);
    }

    #[test]
    fn minimize_height_mirrors_width_solve() {
        // A 4x8 region (taller than wide): minimizing height stacks the
        // modules horizontally instead.
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(4, 8)),
            vec![
                Module::new("a", vec![clb_shape(2, 3)]),
                Module::new("b", vec![clb_shape(2, 3)]),
            ],
        );
        let out = place_minimize_height(&problem, &exact());
        assert!(out.proven);
        assert_eq!(out.extent, Some(3)); // both modules side by side, 3 rows
        let plan = out.plan.unwrap();
        assert!(is_valid(&problem.region, &problem.modules, &plan));
        let max_row = plan
            .placements
            .iter()
            .map(|p| p.y + problem.modules[p.module].shapes()[p.shape].height())
            .max()
            .unwrap();
        assert_eq!(max_row as i64, out.extent.unwrap());
    }

    #[test]
    fn minimize_height_respects_heterogeneity() {
        // BRAM row in the transposed world = BRAM column here.
        let fabric = Fabric::from_art(
            "ccc
BBB
ccc
ccc",
        )
        .unwrap();
        let problem = PlacementProblem::new(
            Region::whole(fabric),
            vec![Module::new(
                "mem",
                vec![ShapeDef::new(vec![ShiftedBox::new(
                    0,
                    0,
                    2,
                    1,
                    ResourceKind::Bram,
                )])],
            )],
        );
        let out = place_minimize_height(&problem, &exact());
        let plan = out.plan.unwrap();
        assert!(is_valid(&problem.region, &problem.modules, &plan));
        assert_eq!(plan.placements[0].y, 2); // the BRAM row
        assert_eq!(out.extent, Some(3));
    }

    #[test]
    fn prune_strips_dead_and_duplicate_shapes() {
        // Shape 1 is a byte-level duplicate of shape 0, shape 2 is too
        // tall for the region: both pruned, and the returned placement
        // still indexes the original three-shape list.
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(8, 3)),
            vec![
                Module::new("a", vec![clb_shape(2, 3)]),
                Module::new("b", vec![clb_shape(3, 2), clb_shape(3, 2), clb_shape(1, 6)]),
            ],
        );
        let out = place(&problem, &exact());
        assert_eq!(out.stats.shapes_pruned, 2);
        let plan = out.plan.unwrap();
        assert!(is_valid(&problem.region, &problem.modules, &plan));
        assert_eq!(plan.placements[1].shape, 0);
    }

    #[test]
    fn prune_does_not_change_optimum() {
        // A mix with a dead alternative (too tall), a duplicate, and two
        // live rotations: pruned and unpruned solves agree on the proven
        // optimal extent.
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(12, 4)),
            vec![
                Module::new("a", vec![clb_shape(3, 2), clb_shape(2, 3), clb_shape(1, 6)]),
                Module::new("b", vec![clb_shape(4, 2), clb_shape(4, 2), clb_shape(2, 4)]),
                Module::new("c", vec![clb_shape(2, 2)]),
            ],
        );
        let mut cfg = exact();
        cfg.analyze_prune = true;
        let pruned = place(&problem, &cfg);
        cfg.analyze_prune = false;
        let full = place(&problem, &cfg);
        assert!(pruned.proven && full.proven);
        assert_eq!(pruned.extent, full.extent);
        assert!(pruned.stats.shapes_pruned > 0);
        assert_eq!(full.stats.shapes_pruned, 0);
        assert!(pruned.stats.table_rows < full.stats.table_rows);
        let plan = pruned.plan.unwrap();
        assert!(is_valid(&problem.region, &problem.modules, &plan));
    }

    #[test]
    fn prune_proves_dead_module_infeasible() {
        // Every alternative of "b" is too tall: infeasibility is proven
        // by analysis alone, without a search.
        let problem = PlacementProblem::new(
            Region::whole(device::homogeneous(8, 3)),
            vec![
                Module::new("a", vec![clb_shape(2, 2)]),
                Module::new("b", vec![clb_shape(1, 4), clb_shape(2, 5)]),
            ],
        );
        let out = place(&problem, &exact());
        assert!(out.plan.is_none());
        assert!(out.proven);
        assert_eq!(out.stats.shapes_pruned, 2);
        assert_eq!(out.stats.nodes, 0);
    }

    #[test]
    fn time_limit_returns_incumbent() {
        // Big enough to not be provably solved in ~1ms, but the warm start
        // guarantees an incumbent.
        let modules: Vec<Module> = (0..8)
            .map(|i| {
                Module::new(
                    format!("m{i}"),
                    vec![clb_shape(3, 2), clb_shape(2, 3), clb_shape(6, 1)],
                )
            })
            .collect();
        let problem = PlacementProblem::new(Region::whole(device::homogeneous(24, 6)), modules);
        let cfg = PlacerConfig {
            time_limit: Some(Duration::from_millis(1)),
            ..PlacerConfig::default()
        };
        let out = place(&problem, &cfg);
        let plan = out.plan.expect("warm start incumbent");
        assert!(is_valid(&problem.region, &problem.modules, &plan));
    }
}
