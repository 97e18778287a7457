//! Property: under arbitrary solver configurations (heuristics, limits,
//! objectives, portfolio widths), the trace stream is well-parenthesized
//! — every `close`/`wall` matches an open span, nothing stays open — and
//! the end-of-search summary point agrees with the returned stats.

use proptest::prelude::*;
use std::sync::Arc;

use rrf_solver::constraints::NotEqualOffset;
use rrf_solver::{
    solve, solve_portfolio, Limits, Model, Objective, SearchConfig, ValSelect, VarId, VarSelect,
};
use rrf_trace::{check_balanced, parse_text, MemorySink, Tracer};

fn queens(n: i32) -> (Model, Vec<VarId>) {
    let mut m = Model::new();
    let cols: Vec<VarId> = (0..n).map(|_| m.new_var(0, n - 1)).collect();
    for i in 0..n as usize {
        for j in (i + 1)..n as usize {
            let d = (j - i) as i32;
            // Distinct columns and diagonals.
            for c in [0, d, -d] {
                m.post(NotEqualOffset {
                    x: cols[i],
                    y: cols[j],
                    c,
                });
            }
        }
    }
    (m, cols)
}

/// Everything but the objective/tracer, which need variable ids.
#[derive(Debug, Clone)]
struct ConfigShape {
    var_select: VarSelect,
    val_select: ValSelect,
    limits: Limits,
    stop_after: Option<u64>,
    minimize_first: bool,
}

fn config_strategy() -> impl Strategy<Value = ConfigShape> {
    (
        0usize..4,
        0usize..3,
        prop_oneof![Just(None), (1u64..40).prop_map(Some)],
        prop_oneof![Just(None), (1u64..40).prop_map(Some)],
        prop_oneof![Just(None), (1u64..4).prop_map(Some)],
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(
            |(vs, val, nodes, failures, stop_after, minimize_first)| ConfigShape {
                var_select: [
                    VarSelect::InputOrder,
                    VarSelect::FirstFail,
                    VarSelect::SmallestMin,
                    VarSelect::LargestDomain,
                ][vs],
                val_select: [ValSelect::Min, ValSelect::Max, ValSelect::Split][val],
                limits: Limits {
                    nodes,
                    failures,
                    time: None,
                },
                stop_after,
                minimize_first,
            },
        )
}

fn build_config(shape: &ConfigShape, first_var: VarId, tracer: Tracer) -> SearchConfig {
    SearchConfig {
        var_select: shape.var_select,
        val_select: shape.val_select,
        objective: if shape.minimize_first {
            Objective::Minimize(first_var)
        } else {
            Objective::Satisfy
        },
        limits: shape.limits,
        stop_after: shape.stop_after,
        tracer,
        ..SearchConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traced_search_is_well_parenthesized(
        shape in config_strategy(),
        n in 4i32..7,
        sample_every in 1u64..64,
    ) {
        let sink = Arc::new(MemorySink::new());
        let (model, cols) = queens(n);
        let tracer = Tracer::with_sample_every(sink.clone(), sample_every);
        let outcome = solve(model, build_config(&shape, cols[0], tracer));

        let lines = parse_text(&sink.text()).map_err(TestCaseError::Fail)?;
        check_balanced(&lines).map_err(TestCaseError::Fail)?;

        // Exactly one search span and one summary point, agreeing with
        // the outcome's own stats.
        let summaries: Vec<_> = lines
            .iter()
            .filter(|l| l.ev() == Some("point") && l.name() == Some("search"))
            .collect();
        prop_assert_eq!(summaries.len(), 1);
        let s = summaries[0];
        prop_assert_eq!(
            s.get("nodes").and_then(rrf_trace::Parsed::as_u64),
            Some(outcome.stats.nodes)
        );
        prop_assert_eq!(
            s.get("failures").and_then(rrf_trace::Parsed::as_u64),
            Some(outcome.stats.failures)
        );
        prop_assert_eq!(
            s.get("propagations").and_then(rrf_trace::Parsed::as_u64),
            Some(outcome.stats.propagations)
        );
        prop_assert_eq!(
            s.get("complete").and_then(rrf_trace::Parsed::as_u64),
            Some(u64::from(outcome.complete))
        );
        let opens = lines.iter().filter(|l| l.ev() == Some("open")).count();
        prop_assert_eq!(opens, 1);
    }

    #[test]
    fn traced_portfolio_is_well_parenthesized(
        shape in config_strategy(),
        workers in 1usize..5,
    ) {
        let sink = Arc::new(MemorySink::new());
        let (model, cols) = queens(5);
        let tracer = Tracer::new(sink.clone());
        let outcome = solve_portfolio(model, build_config(&shape, cols[0], tracer), workers);

        let lines = parse_text(&sink.text()).map_err(TestCaseError::Fail)?;
        check_balanced(&lines).map_err(TestCaseError::Fail)?;

        // One search span per worker (interleaved arbitrarily), and one
        // portfolio point naming a valid winner.
        let opens = lines.iter().filter(|l| l.ev() == Some("open")).count();
        prop_assert_eq!(opens, workers);
        let portfolio: Vec<_> = lines
            .iter()
            .filter(|l| l.ev() == Some("point") && l.name() == Some("portfolio"))
            .collect();
        prop_assert_eq!(portfolio.len(), 1);
        let winner = portfolio[0].get("winner").and_then(rrf_trace::Parsed::as_u64);
        prop_assert_eq!(winner, Some(outcome.winner as u64));
        prop_assert!(outcome.winner < workers);
    }
}
