//! Propagator contracts, property-tested: every propagator must be
//! *sound* (never removes a value that participates in a solution of its
//! constraint), *contracting* (only narrows domains), and *idempotent at
//! the engine's fixpoint* (re-running propagation changes nothing).

use proptest::prelude::*;
use rrf_solver::constraints::{
    Cumulative, ElementConst, LinRel, Linear, Maximum, NotEqualOffset, Task,
};
use rrf_solver::{Conflict, Domain, Engine, Propagator, Space, VarId};

/// A small domain as explicit values.
fn domain_strategy() -> impl Strategy<Value = Vec<i32>> {
    proptest::collection::btree_set(-4i32..6, 1..6)
        .prop_map(|s| s.into_iter().collect::<Vec<i32>>())
}

fn space_with(domains: &[Vec<i32>]) -> (Space, Vec<VarId>) {
    let mut space = Space::new();
    let vars = domains
        .iter()
        .map(|vals| space.new_var(Domain::from_values(vals).unwrap()))
        .collect();
    (space, vars)
}

/// Brute-force every assignment of `domains`, keep those accepted by
/// `check`, and return per-variable surviving value sets.
fn bruteforce_supports(
    domains: &[Vec<i32>],
    check: &dyn Fn(&[i32]) -> bool,
) -> Option<Vec<Vec<i32>>> {
    let n = domains.len();
    let mut supports: Vec<std::collections::BTreeSet<i32>> = vec![Default::default(); n];
    let mut any = false;
    let mut idx = vec![0usize; n];
    'outer: loop {
        let assignment: Vec<i32> = idx.iter().zip(domains).map(|(&i, d)| d[i]).collect();
        if check(&assignment) {
            any = true;
            for (s, &v) in supports.iter_mut().zip(&assignment) {
                s.insert(v);
            }
        }
        // odometer
        for i in 0..n {
            idx[i] += 1;
            if idx[i] < domains[i].len() {
                continue 'outer;
            }
            idx[i] = 0;
        }
        break;
    }
    if any {
        Some(
            supports
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
        )
    } else {
        None
    }
}

/// Run one propagator to fixpoint and assert the three contracts against
/// the brute-force ground truth.
fn assert_contracts(
    domains: &[Vec<i32>],
    prop: impl Propagator + 'static,
    check: &dyn Fn(&[i32]) -> bool,
) -> Result<(), TestCaseError> {
    let (mut space, vars) = space_with(domains);
    let mut engine = Engine::new(space.num_vars());
    engine.post(prop);
    engine.schedule_all();
    let result = engine.propagate(&mut space);
    let truth = bruteforce_supports(domains, check);
    match (&result, &truth) {
        (Err(Conflict), _) => {
            // Failure must only happen when no solution exists.
            prop_assert!(truth.is_none(), "propagator failed a satisfiable instance");
        }
        (Ok(()), None) => {
            // Incomplete propagation may miss infeasibility — allowed —
            // but domains must still be narrowed soundly (vacuous here).
        }
        (Ok(()), Some(supports)) => {
            for (i, &v) in vars.iter().enumerate() {
                // Soundness: every supported value survives.
                for &val in &supports[i] {
                    prop_assert!(
                        space.contains(v, val),
                        "var {i}: supported value {val} was pruned"
                    );
                }
                // Contraction: domains never grow.
                for val in space.domain(v).iter() {
                    prop_assert!(
                        domains[i].contains(&val),
                        "var {i}: value {val} appeared from nowhere"
                    );
                }
            }
            // Idempotence: a second fixpoint changes nothing.
            let before: Vec<Domain> = vars.iter().map(|&v| space.domain(v).clone()).collect();
            engine.schedule_all();
            prop_assert!(engine.propagate(&mut space).is_ok());
            for (i, &v) in vars.iter().enumerate() {
                prop_assert_eq!(space.domain(v), &before[i], "fixpoint not stable");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn not_equal_contract(a in domain_strategy(), b in domain_strategy(), c in -3i32..4) {
        let domains = vec![a, b];
        let (_, vars) = space_with(&domains);
        assert_contracts(
            &domains,
            NotEqualOffset { x: vars[0], y: vars[1], c },
            &|asg| asg[0] != asg[1] + c,
        )?;
    }

    #[test]
    fn linear_contract(a in domain_strategy(), b in domain_strategy(),
                       c in domain_strategy(),
                       coeffs in proptest::array::uniform3(-3i64..4),
                       rhs in -8i64..12) {
        let domains = vec![a, b, c];
        let (_, vars) = space_with(&domains);
        assert_contracts(
            &domains,
            Linear::new(&coeffs, &vars, LinRel::Le, rhs),
            &|asg| {
                coeffs.iter().zip(asg).map(|(&k, &x)| k * x as i64).sum::<i64>() <= rhs
            },
        )?;
    }

    #[test]
    fn element_contract(idx in domain_strategy(), value in domain_strategy(),
                        array in proptest::collection::vec(-4i32..6, 1..6)) {
        let domains = vec![idx, value];
        let (_, vars) = space_with(&domains);
        let array2 = array.clone();
        assert_contracts(
            &domains,
            ElementConst { array, idx: vars[0], value: vars[1] },
            &|asg| {
                usize::try_from(asg[0]).is_ok_and(|i| array2.get(i) == Some(&asg[1]))
            },
        )?;
    }

    #[test]
    fn maximum_contract(a in domain_strategy(), b in domain_strategy(),
                        y in domain_strategy()) {
        let domains = vec![a, b, y];
        let (_, vars) = space_with(&domains);
        assert_contracts(
            &domains,
            Maximum { vars: vec![vars[0], vars[1]], y: vars[2] },
            &|asg| asg[0].max(asg[1]) == asg[2],
        )?;
    }

    #[test]
    fn cumulative_contract(a in domain_strategy(), b in domain_strategy(),
                           d1 in 1i32..4, d2 in 1i32..4, cap in 1i32..3) {
        let domains = vec![a, b];
        let (_, vars) = space_with(&domains);
        let tasks = vec![
            Task { start: vars[0], duration: d1, demand: 1 },
            Task { start: vars[1], duration: d2, demand: 1 },
        ];
        assert_contracts(
            &domains,
            Cumulative::new(tasks, cap),
            &|asg| {
                // Demand-1 tasks: with capacity >= 2 anything goes; with
                // capacity 1 the two intervals must not overlap.
                cap >= 2 || asg[0] + d1 <= asg[1] || asg[1] + d2 <= asg[0]
            },
        )?;
    }
}
