//! Exact work counts of the timing-area pass on one constrained design,
//! `random_control(300, 24, 7)` at 0.8× its direct-mapped delay (the
//! shape of `serve_soak`'s constrained variants): how many power-down
//! candidates the pass tries under its guard and how many it skips as
//! ones the guard must reject, and how many incremental-STA refreshes
//! and trial rollbacks it makes. Counts, not times, so the pins hold on
//! any host and in debug builds, whose oracles count nothing here.
//!
//! This file is its own test binary with one test, so the registry
//! deltas it reads are its own run's. Probe passes around
//! `timing-area` read the counters as the pass starts and ends.

use milo::circuits::random_control;
use milo::{Constraints, FlowContext, Milo, MiloError, Pass, PassReport};
use milo_netlist::structural_hash;
use milo_techmap::ecl_library;
use milo_timing::statistics;
use milo_trace::Registry;
use std::sync::{Arc, Mutex};

const COUNTERS: [&str; 4] = [
    "power_down.trials",
    "power_down.skipped",
    "sta.refreshes",
    "sta.rollbacks",
];

/// A pass that records the counters when it runs.
struct Snapshot(Arc<Mutex<Vec<[u64; 4]>>>);

impl Pass for Snapshot {
    fn name(&self) -> &str {
        "counter-snapshot"
    }

    fn run(&mut self, _ctx: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        let registry = Registry::global();
        let now = COUNTERS.map(|name| registry.counter(name).get());
        self.0.lock().unwrap().push(now);
        Ok(PassReport::applied(0))
    }
}

/// The design enters the power-down loop over its bound (the logic
/// cleanups before it are unguarded), so every one of its 266 ECL
/// power-down candidates is skipped: its low-power variant is slower
/// from every pin and per load. Run as trials, the 266 candidates and
/// an undo refresh per rejected trial made 869 refreshes inside the
/// pass; a rejected trial rolls back instead of refreshing. The result
/// is the pinned `golden_constrained_control_and_fsm` one.
#[test]
fn constrained_control_skips_every_power_down_trial() {
    let nl = random_control(300, 24, 7);
    let direct = Milo::new(ecl_library())
        .elaborate_unoptimized(&nl)
        .expect("elaborates");
    let limit = statistics(&direct).expect("analyzes").delay * 0.8;
    let snapshots = Arc::new(Mutex::new(Vec::new()));
    let mut milo = Milo::new(ecl_library());
    let mut flow = milo.flow();
    flow.insert_before("timing-area", Snapshot(snapshots.clone()));
    flow.insert_after("timing-area", Snapshot(snapshots.clone()));
    let out = flow
        .run(&mut milo, &nl, &Constraints::none().with_max_delay(limit))
        .expect("the flow runs");
    assert_eq!(structural_hash(&out.result.netlist), 0x49df_38be_2576_4a72);
    let snapshots = snapshots.lock().unwrap();
    let [start, end] = [snapshots[0], snapshots[1]];
    let counts: [u64; 4] = std::array::from_fn(|i| end[i] - start[i]);
    assert_eq!(
        counts,
        [0, 266, 218, 119],
        "inside timing-area: {COUNTERS:?}"
    );
}
