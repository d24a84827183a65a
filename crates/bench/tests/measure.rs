//! The one timing routine: exact quartiles, observable alternation, and
//! termination on a workload that reports no time.

use std::cell::RefCell;
use std::time::Duration;

use mpf_bench::measure::{measure, Budget, Stat, Workload};

#[test]
fn quartiles_are_exact_on_known_samples() {
    let five = Stat::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
    assert_eq!((five.q1, five.median, five.q3, five.n), (2.0, 3.0, 4.0, 5));
    let seven = Stat::of(&[7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
    assert_eq!(
        (seven.q1, seven.median, seven.q3, seven.n),
        (2.5, 4.0, 5.5, 7)
    );
    let one = Stat::of(&[42.0]);
    assert_eq!((one.q1, one.median, one.q3, one.n), (42.0, 42.0, 42.0, 1));
    // An infinite rate (a zero-time run) must not turn into NaN.
    let inf = Stat::of(&[f64::INFINITY; 3]);
    assert_eq!(
        (inf.q1, inf.median, inf.q3),
        (f64::INFINITY, f64::INFINITY, f64::INFINITY)
    );
}

#[test]
fn runs_are_alternated_point_by_point() {
    const POINTS: usize = 3;
    let budget = Budget::QUICK;
    let calls = RefCell::new(Vec::new());
    let mut points: Vec<Workload> = (0..POINTS)
        .map(|p| -> Workload {
            let calls = &calls;
            // Reports exactly the window at any iteration count, so the
            // pilot of each point is one call.
            Box::new(move |_| {
                calls.borrow_mut().push(p);
                budget.window
            })
        })
        .collect();
    let ns = measure(&mut points, budget);
    drop(points);
    let calls = calls.into_inner();
    // One pilot call per point, then r-major: run r of every point before
    // run r + 1 of any.
    let (pilots, runs) = calls.split_at(POINTS);
    assert_eq!(pilots, [0, 1, 2]);
    let expected: Vec<usize> = (0..budget.runs).flat_map(|_| 0..POINTS).collect();
    assert_eq!(runs, expected);
    assert!(ns.iter().all(|point| point.len() == budget.runs));
}

#[test]
fn a_workload_that_reports_zero_time_ends_and_divides_nothing_by_zero() {
    let mut calls = 0u32;
    let mut points: Vec<Workload> = vec![Box::new(|_| {
        calls += 1;
        Duration::ZERO
    })];
    let ns = measure(&mut points, Budget::QUICK);
    drop(points);
    // The pilot gives up at its iteration cap: a bounded number of calls.
    assert!(calls < 32, "{calls} calls");
    assert_eq!(ns, [[0.0; 3]]);
    let stat = Stat::of(&ns[0]);
    assert_eq!((stat.q1, stat.median, stat.q3), (0.0, 0.0, 0.0));
}

#[test]
fn iterations_scale_with_the_window() {
    // 1 µs per iteration: the quick budget's 4 ms window wants ~4000.
    let mut seen = Vec::new();
    let mut points: Vec<Workload> = vec![Box::new(|iters| {
        seen.push(iters);
        Duration::from_micros(iters)
    })];
    measure(&mut points, Budget::QUICK);
    drop(points);
    let timed = &seen[seen.len() - Budget::QUICK.runs..];
    assert!(timed.iter().all(|&n| n == 4000), "{seen:?}");
}
