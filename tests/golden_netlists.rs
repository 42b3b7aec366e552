//! Golden regression tests for the optimizer's *results*, not its
//! speed: final netlist statistics (cell count, area, critical-path
//! delay) for three representative designs. Matcher or engine changes
//! that alter which rewrites fire — e.g. a conflict-set ordering bug in
//! the incremental `MatchIndex` — fail here loudly instead of slipping
//! through as a silent quality regression. If a change *intentionally*
//! improves results, update the constants (and say so in the PR).

use milo::circuits::{abadd, fig19, random_logic};
use milo::{Constraints, Milo};
use milo_bench::metarule_rules::metarule_rule_set;
use milo_rules::Engine;
use milo_techmap::{cmos_library, ecl_library, map_netlist};
use milo_timing::statistics;

fn assert_close(what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= want.abs() * 1e-9 + 1e-9,
        "{what}: got {got}, want {want}"
    );
}

#[test]
fn golden_fig19_circuit3_pipeline() {
    let mut milo = Milo::new(ecl_library());
    let result = milo
        .synthesize(&fig19::circuit3(), &Constraints::none())
        .expect("synthesizes");
    let s = &result.stats;
    assert_eq!(s.cells, 6, "area {} delay {}", s.area, s.delay);
    assert_close("area", s.area, 8.2);
    assert_close("delay", s.delay, 2.2922);
}

#[test]
fn golden_abadd_datapath_pipeline() {
    let mut milo = Milo::new(ecl_library());
    let result = milo
        .synthesize(&abadd(), &Constraints::none())
        .expect("synthesizes");
    let s = &result.stats;
    assert_eq!(s.cells, 9, "area {} delay {}", s.area, s.delay);
    assert_close("area", s.area, 27.8);
    assert_close("delay", s.delay, 4.52);
}

/// The three golden synthesis designs through `synthesize_batch`: the
/// batched path runs the same Pass API stages, so it must reproduce the
/// committed per-design snapshots exactly, in input order.
#[test]
fn golden_batch_matches_sequential_snapshots() {
    let designs = [fig19::circuit3(), abadd(), random_logic(80, 10, 7)];
    let mut milo = Milo::new(ecl_library());
    let results = milo
        .synthesize_batch(&designs, &Constraints::none())
        .into_iter()
        .map(|run| run.map(|out| out.result))
        .collect::<Result<Vec<_>, _>>()
        .expect("batch synthesizes");
    assert_eq!(results.len(), 3);

    // fig19 circuit 3 — same constants as the sequential golden above.
    let s = &results[0].stats;
    assert_eq!(s.cells, 6, "area {} delay {}", s.area, s.delay);
    assert_close("c3 area", s.area, 8.2);
    assert_close("c3 delay", s.delay, 2.2922);

    // ABADD datapath — same constants as the sequential golden above.
    let s = &results[1].stats;
    assert_eq!(s.cells, 9, "area {} delay {}", s.area, s.delay);
    assert_close("abadd area", s.area, 27.8);
    assert_close("abadd delay", s.delay, 4.52);

    // 80-gate random logic — pinned here (no sequential twin above).
    let s = &results[2].stats;
    let mut seq = Milo::new(ecl_library());
    let want = seq
        .synthesize(&random_logic(80, 10, 7), &Constraints::none())
        .expect("sequential synthesizes");
    assert_eq!(
        s.cells, want.stats.cells,
        "area {} delay {}",
        s.area, s.delay
    );
    assert_close("rand area", s.area, want.stats.area);
    assert_close("rand delay", s.delay, want.stats.delay);
}

#[test]
fn golden_random_logic_sweeps() {
    let lib = cmos_library();
    let mut nl = map_netlist(&random_logic(200, 16, 9), &lib).expect("maps");
    let mut engine = Engine::new(metarule_rule_set(&lib));
    let fired = engine.run_sweeps(&mut nl, None, 20);
    let s = statistics(&nl).expect("analyzes");
    assert_eq!(
        (fired, s.cells),
        (28, 211),
        "area {} delay {}",
        s.area,
        s.delay
    );
    assert_close("area", s.area, 263.37);
    assert_close("delay", s.delay, 17.445);
}
