//! The CP placer against an independent brute force on small paper
//! workloads: the same optimal extent, a proof, and a plan that passes
//! `verify`.
//!
//! The brute force shares nothing with the placer but the data types:
//! anchors come from a tile loop over `ShapeDef::tiles_at` and
//! `Region::accepts` (not from `rrf-geost`'s fit kernel), occupancy is one
//! `u32` row mask per column, and a DFS over the modules, biggest first,
//! tries each module's anchors in order of the edge they reach and cuts
//! at the best edge found so far.
//!
//! The placer runs with `redundant_cumulative: false`. The default model's
//! redundant cumulative is unsound: its x projection claims rows the
//! modules' ragged columns never use, so it proves a wider extent than
//! the optimum. A pinned case is `workload_arms(6, 3).0` on the 240×16
//! paper region: the default proves 39, the optimum is 37.
//! Until the cumulative is sound, the default config fails this oracle.

use proptest::prelude::*;
use rrf_bench::{workload_arms, ExperimentSetup};
use rrf_core::verify::verify;
use rrf_core::{cp, Module, PlacementOutcome, PlacementProblem, PlacerConfig};
use rrf_fabric::Region;

/// One placement of one module: the row mask it sets per column (relative
/// to the region's left edge) and the objective edge it reaches.
struct Candidate {
    columns: Vec<(usize, u32)>,
    edge: i32,
}

/// Every valid placement of `module`, in order of the edge reached: the
/// rightmost occupied column + 1, or the topmost row + 1 with `rows`.
fn candidates(region: &Region, module: &Module, rows: bool) -> Vec<Candidate> {
    let b = region.bounds();
    let mut out = Vec::new();
    for shape in module.shapes() {
        for x in b.x..b.x + b.w {
            for y in b.y..b.y + b.h {
                let tiles: Vec<_> = shape.tiles_at(x, y).collect();
                if !tiles.iter().all(|(p, k)| region.accepts(p.x, p.y, *k)) {
                    continue;
                }
                let mut columns: Vec<(usize, u32)> = Vec::new();
                for (p, _) in &tiles {
                    let col = (p.x - b.x) as usize;
                    let bit = 1u32 << (p.y - b.y);
                    match columns.iter_mut().find(|(c, _)| *c == col) {
                        Some((_, mask)) => *mask |= bit,
                        None => columns.push((col, bit)),
                    }
                }
                let edge = tiles.iter().map(|(p, _)| if rows { p.y } else { p.x });
                out.push(Candidate {
                    columns,
                    edge: edge.max().expect("a shape has tiles") + 1,
                });
            }
        }
    }
    out.sort_by_key(|c| c.edge);
    out
}

fn dfs(modules: &[Vec<Candidate>], occupied: &mut [u32], reached: i32, best: &mut i32) {
    let Some((first, rest)) = modules.split_first() else {
        *best = reached;
        return;
    };
    for c in first {
        if c.edge >= *best {
            break;
        }
        if c.columns.iter().any(|&(x, m)| occupied[x] & m != 0) {
            continue;
        }
        for &(x, m) in &c.columns {
            occupied[x] |= m;
        }
        dfs(rest, occupied, reached.max(c.edge), best);
        for &(x, m) in &c.columns {
            occupied[x] &= !m;
        }
    }
}

/// The optimal extent, or `None` if no floorplan exists.
fn brute_force(region: &Region, modules: &[Module], rows: bool) -> Option<i64> {
    let mut order: Vec<&Module> = modules.iter().collect();
    order.sort_by_key(|m| std::cmp::Reverse(m.max_area()));
    let cands: Vec<Vec<Candidate>> = order.iter().map(|m| candidates(region, m, rows)).collect();
    let mut occupied = vec![0u32; region.bounds().w as usize];
    let mut best = i32::MAX;
    dfs(&cands, &mut occupied, 0, &mut best);
    (best != i32::MAX).then_some(i64::from(best))
}

fn check(
    problem: &PlacementProblem,
    out: &PlacementOutcome,
    optimum: Option<i64>,
) -> Result<(), TestCaseError> {
    prop_assert!(out.proven, "the placer proves its answer");
    prop_assert_eq!(out.extent, optimum);
    if let Some(plan) = &out.plan {
        let violations = verify(&problem.region, &problem.modules, plan);
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn optima_match_bruteforce(modules in 3usize..=5, seed in 0u64..1_000) {
        let config = PlacerConfig {
            redundant_cumulative: false,
            ..PlacerConfig::exact()
        };
        // Paper-distribution workloads on a 50×16 slice of the paper
        // fabric (a BRAM column every 10).
        let (with, without) = workload_arms(modules, seed);
        for arm in [with, without] {
            let problem = PlacementProblem::new(ExperimentSetup::with_width(50).region(), arm);
            let width = brute_force(&problem.region, &problem.modules, false);
            check(&problem, &cp::place(&problem, &config), width)?;
            let height = brute_force(&problem.region, &problem.modules, true);
            check(&problem, &cp::place_minimize_height(&problem, &config), height)?;
        }
    }
}
