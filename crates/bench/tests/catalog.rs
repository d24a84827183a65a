//! The catalog: every entry runs and measures positive, finite numbers, a
//! simulated entry is exactly the model's figure, the loop-back routine does
//! the same work on both mappings, ids are found wherever they stand, and
//! the report carries what the north star asks of a committed number.

use std::collections::HashSet;
use std::rc::Rc;
use std::time::Duration;

use mpf::{IpcMpf, Protocol};
use mpf_apps::gauss_jordan;
use mpf_apps::linalg::{random_rhs, Matrix};
use mpf_bench::catalog::{named, Entry, Output, CATALOG};
use mpf_bench::measure::{measure, Budget, Workload};
use mpf_bench::native::{self, loopback, loopback_config, repeat, Round, Tally};
use mpf_bench::report::{Figure, JsonReport};
use mpf_bench::Series;
use mpf_sim::{figures, CostModel, MachineConfig};

/// The bench target's entries; its `main` is `cargo bench`'s.
#[allow(dead_code)]
#[path = "../benches/ablations.rs"]
mod ablations;
use ablations::ABLATIONS;

fn entry(id: &str) -> &'static Entry {
    CATALOG.iter().find(|e| e.0 == id).expect("a catalog id")
}

fn simulated(id: &str) -> Vec<Series> {
    let out = (entry(id).1.expect("a simulated mode"))();
    out.figures.into_iter().flat_map(|f| f.series).collect()
}

/// Every measured figure has one quartile pair per point, and every
/// measured point — a rate, a time or a speedup — is a positive, finite
/// number between its quartiles: a workload that timed nothing (an infinite
/// rate) or never finished an iteration (a zero one) fails here.
fn assert_shaped(id: &str, out: &Output) {
    for fig in &out.figures {
        assert!(!fig.series.is_empty(), "{id}: {} is empty", fig.title);
        for (s, iqr) in fig.series.iter().zip(&fig.spread) {
            assert_eq!(s.points.len(), iqr.len(), "{id}: {}", fig.title);
            for (&(x, y), &(q1, q3)) in s.points.iter().zip(iqr) {
                let at = format!("{id}: {} / {} at x = {x}", fig.title, s.label);
                assert!(q1 > 0.0 && q3.is_finite(), "{at}: [{q1}, {q3}]");
                assert!(q1 <= y && y <= q3, "{at}: {y} outside [{q1}, {q3}]");
            }
        }
    }
}

#[test]
fn ids_are_unique() {
    let ids: HashSet<&str> = CATALOG.iter().chain(ABLATIONS).map(|e| e.0).collect();
    assert_eq!(ids.len(), CATALOG.len() + ABLATIONS.len());
}

#[test]
fn every_entry_runs_under_the_quick_budget() {
    // One test, so the native entries do not compete for the CPUs.
    for &Entry(id, sim, native) in CATALOG.iter().chain(ABLATIONS) {
        assert!(sim.is_some() || native.is_some(), "{id} has no mode");
        if let Some(run) = sim {
            let out = run();
            assert!(!out.figures.is_empty() || !out.text.is_empty(), "{id}");
            assert!(out.figures.iter().all(|f| f.spread.is_empty()), "{id}");
        }
        if let Some(run) = native {
            let out = run(Budget::QUICK);
            assert!(out.figures.iter().any(|f| !f.spread.is_empty()), "{id}");
            assert_shaped(id, &out);
        }
    }
}

/// Each program behind Figures 3–8 at a fixed small size, off the figures'
/// axes: it ends, times a section that is not empty, and tallies the
/// messages it sent.
#[test]
fn each_native_program_times_a_positive_section() {
    let timed = |what: &str, mut program: Workload, iters: u64| {
        assert!(program(iters) > Duration::ZERO, "{what}");
    };
    for observed in [true, false] {
        let region = IpcMpf::anon(&loopback_config(observed)).expect("map");
        timed("base", loopback(region, 128, Round::Single), 50);
    }
    let tally = Rc::<Tally>::default();
    let fcfs = native::fanout(Protocol::Fcfs, 64, 3, tally.clone());
    timed("fcfs, 3 receivers", fcfs, 40);
    let broadcast = native::fanout(Protocol::Broadcast, 64, 4, tally.clone());
    timed("broadcast, 4 receivers", broadcast, 30);
    timed(
        "random, 4 processes",
        native::random(32, 4, 99, tally.clone()),
        20,
    );
    // Counters over a message count that is not zero.
    assert!(tally.per_message().iter().all(|c| c.is_finite()));
    let (a, b) = (Matrix::random_diag_dominant(12, 5), random_rhs(12, 5));
    timed("gauss", repeat(|| gauss_jordan::solve_mpf(&a, &b, 2)), 1);
    timed(
        "gauss, sequential",
        repeat(|| gauss_jordan::solve_sequential(&a, &b)),
        1,
    );
    timed("sor", native::sor(9, 2), 5);
}

#[test]
fn an_id_is_found_wherever_it_stands() {
    let ids = |args: &[&str]| {
        let args = Vec::from_iter(args.iter().map(|a| a.to_string()));
        named(CATALOG, &args).map(|found| Vec::from_iter(found.iter().map(|e| e.0)))
    };
    assert_eq!(ids(&[]), Ok(vec![]));
    assert_eq!(ids(&["fig4", "--native", "fig6"]), Ok(vec!["fig4", "fig6"]));
    assert_eq!(ids(&["--native", "fig4"]), Ok(vec!["fig4"]));
    // `--json`'s value is not an id, even when it is spelled like one.
    assert_eq!(
        ids(&["--json", "fig5", "--quick", "fig3"]),
        Ok(vec!["fig3"])
    );
    assert!(ids(&["--native", "fig9"])
        .unwrap_err()
        .contains("unknown id `fig9`"));
    assert!(ids(&["fig4", "--msgs"])
        .unwrap_err()
        .contains("unknown flag `--msgs`"));
}

#[test]
fn simulated_entries_are_the_models_figures() {
    let machine = MachineConfig::balance21000();
    let costs = CostModel::calibrated(&machine);
    assert_eq!(simulated("fig3"), [figures::fig3_base(&machine, &costs)]);
    assert_eq!(simulated("fig4"), figures::fig4_fcfs(&machine, &costs));
    assert_eq!(simulated("fig5"), figures::fig5_broadcast(&machine, &costs));
    assert_eq!(
        simulated("fig6"),
        figures::fig6_random(&machine, &costs, 0xF16)
    );
    assert_eq!(simulated("fig7"), figures::fig7_gauss(&costs));
    assert_eq!(simulated("fig8"), figures::fig8_sor(&costs));
}

#[test]
fn loopback_does_the_same_work_on_both_mappings() {
    let cfg = loopback_config(true);
    let named = format!("bench-test-{}", std::process::id());
    for round in [Round::Single, Round::Batch(8)] {
        let maps = [IpcMpf::anon(&cfg), IpcMpf::create(&named, &cfg)].map(|m| m.expect("map"));
        let per_round = if let Round::Batch(n) = round {
            n as u64
        } else {
            1
        };
        let moved = maps.each_ref().map(|m| {
            let mut point = loopback(m.attach_view().expect("view"), 100, round);
            assert!(point(50) > Duration::ZERO);
            let t = m.telemetry_snapshot();
            (t.sends, t.receives, t.bytes_in, t.bytes_out)
        });
        let expected = (
            50 * per_round,
            50 * per_round,
            5000 * per_round,
            5000 * per_round,
        );
        assert_eq!(moved, [expected; 2], "{round:?}");
        // And the two are measured as one alternated pair.
        let mut points = maps
            .each_ref()
            .map(|m| loopback(m.attach_view().expect("view"), 16, round));
        let ns = measure(&mut points, Budget::QUICK);
        assert!(ns.iter().flatten().all(|&t| t > 0.0));
    }
}

#[test]
fn the_report_carries_meta_and_one_quartile_pair_per_point() {
    let path = std::env::temp_dir().join(format!("bench-report-{}.json", std::process::id()));
    let mut report = JsonReport::at(&path);
    report.set_budget(Budget::QUICK);
    let points = vec![(16.0, 1.5e6), (64.0, f64::NAN), (256.0, f64::INFINITY)];
    report.add_figure(&Figure {
        title: "measured".into(),
        series: vec![Series {
            label: "a".into(),
            points: points.clone(),
        }],
        spread: vec![vec![(1.4e6, 1.6e6), (f64::NAN, f64::NAN), (1.0, 2.0)]],
    });
    report.add(
        "plain",
        &[Series {
            label: "b".into(),
            points,
        }],
    );
    let doc = std::fs::read_to_string(report.write().unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    for key in [
        "\"meta\":{\"host\":\"",
        "\"nproc\":",
        "\"revision\":\"",
        "\"runs\":3",
        "\"window_ms\":4",
    ] {
        assert!(doc.contains(key), "{key} missing from {doc}");
    }
    assert!(
        doc.contains("\"points\":[[16,1500000],[64,null],[256,null]]"),
        "{doc}"
    );
    assert!(
        doc.contains("\"spread\":[[1400000,1600000],[null,null],[1,2]]"),
        "{doc}"
    );
    // The figure added without spread has no spread array at all.
    assert_eq!(doc.matches("\"spread\"").count(), 1);
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(
            doc.matches(open).count(),
            doc.matches(close).count(),
            "{doc}"
        );
    }
}
