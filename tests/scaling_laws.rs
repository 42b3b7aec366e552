//! Scaling laws: the cost of the flow's phases, checked by counting
//! their work instead of timing it, so a law holds on any host and in
//! debug builds. Each law runs `Flow::standard()` on a design at
//! doubling sizes and reads counters from the global metrics registry:
//! `random_control(n, 24, 7)` for the design-size laws, and
//! `pipelined_datapath(n, 8, 7)`, whose every register loads one shared
//! clock net and one shared select net, for the fanout law. A per-firing
//! law bounds how a work count per firing grows per doubling: an
//! O(touched) phase stays flat, one that redoes O(design) or O(fanout)
//! work per firing doubles with every doubling. A per-flow law bounds
//! how often the flow does O(design) work at all. The critic law runs
//! the microarchitecture critic alone, on `pipelined_datapath(n, 8, 7)`
//! under a delay limit, and bounds the components stitched per feedback
//! measurement: a trial that swaps one adder body stays flat, one that
//! re-stitches the design doubles.
//!
//! This file is its own test binary, so the registry deltas it reads
//! are its own runs'. Each design's run happens once under a lock, so
//! runs never overlap and the laws share them.

use milo::circuits::{pipelined_datapath, random_control};
use milo::{Constraints, Milo};
use milo_netlist::DesignDb;
use milo_techmap::ecl_library;
use milo_trace::Registry;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// How much a per-firing count may grow when the design doubles.
const PER_DOUBLING: f64 = 1.25;

/// How many from-scratch timing analyses one default flow may build:
/// one for the bottom-up logic run and one for the timing-area pass,
/// whose logic-critic runs refresh the pass's analysis instead of
/// building their own.
const MAX_FULL_REBUILDS: u64 = 2;

/// A design the laws run the default flow (or the critic) on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Design {
    /// `random_control(gates, 24, 7)`: combinational control logic.
    Control(usize),
    /// `pipelined_datapath(stages, 8, 7)`: `8 × stages` registers on one
    /// clock net and one select net, so both nets' fanout doubles with
    /// the stage count while each mux+DFF merge stays the same size.
    Pipeline(usize),
    /// `pipelined_datapath(stages, 8, 7)` through `milo_microarch::optimize`
    /// alone, at 0.8× its measured delay: one ripple adder per stage, so
    /// the carry-mode trials grow with the stage count and every one of
    /// them is an 8-bit adder's body swap.
    ConstrainedCritic(usize),
}

/// The registry counters one run adds.
#[derive(Clone, Copy, Debug)]
struct FlowCounts {
    terms: u64,
    rewrites: u64,
    full_rebuilds: u64,
    match_repairs: u64,
    repair_anchors: u64,
    refreshes: u64,
    refresh_props: u64,
    endpoint_restructures: u64,
    stitched: u64,
    measures: u64,
}

/// Each design's flow, run once per binary. The lock also serializes
/// the flows: the registry is process-wide.
static FLOWS: Mutex<BTreeMap<Design, FlowCounts>> = Mutex::new(BTreeMap::new());

/// The counters the default flow (or the critic) on `design` adds.
fn flow_counts(design: Design) -> FlowCounts {
    let mut flows = FLOWS.lock().unwrap_or_else(|e| e.into_inner());
    *flows.entry(design).or_insert_with(|| {
        let lib = ecl_library();
        let (nl, limit) = match design {
            Design::Control(gates) => (random_control(gates, 24, 7), None),
            Design::Pipeline(stages) => (pipelined_datapath(stages, 8, 7), None),
            Design::ConstrainedCritic(stages) => {
                let nl = pipelined_datapath(stages, 8, 7);
                let direct =
                    milo_microarch::measure(&nl, &mut DesignDb::new(), &lib).expect("measures");
                (nl, Some(direct.delay * 0.8))
            }
        };
        let registry = Registry::global();
        let counters = [
            "stats.terms",
            "engine.rewrites",
            "sta.full_rebuilds",
            "engine.match_repairs",
            "engine.repair_anchors",
            "sta.refreshes",
            "sta.refresh_props",
            "sta.endpoint_restructures",
            "critic.stitched",
            "critic.measures",
        ]
        .map(|name| registry.counter(name));
        let before = counters.each_ref().map(|c| c.get());
        match limit {
            None => {
                let mut milo = Milo::new(lib);
                let mut flow = milo.flow();
                flow.run(&mut milo, &nl, &Constraints::none())
                    .expect("the flow runs");
            }
            Some(limit) => {
                let mut nl = nl;
                milo_microarch::optimize(&mut nl, &mut DesignDb::new(), &lib, Some(limit))
                    .expect("the critic runs");
            }
        }
        let [terms, rewrites, full_rebuilds, match_repairs, repair_anchors, refreshes, refresh_props, endpoint_restructures, stitched, measures] =
            std::array::from_fn(|i| counters[i].get() - before[i]);
        let counts = FlowCounts {
            terms,
            rewrites,
            full_rebuilds,
            match_repairs,
            repair_anchors,
            refreshes,
            refresh_props,
            endpoint_restructures,
            stitched,
            measures,
        };
        println!("{design:?}: {counts:?}");
        counts
    })
}

/// A per-firing law: `work / per` over each design's flow grows at
/// most [`PER_DOUBLING`]× from one design to the next, each double the
/// last. `suspect` names the regression a failure points to.
fn assert_flat_per_doubling(
    designs: &[Design],
    what: &str,
    ratio: impl Fn(&FlowCounts) -> (u64, u64),
    suspect: &str,
) {
    let per: Vec<f64> = designs
        .iter()
        .map(|&d| {
            let (work, per) = ratio(&flow_counts(d));
            assert!(per > 0, "{d:?}: no {what} denominator: nothing fired");
            work as f64 / per as f64
        })
        .collect();
    for (i, pair) in per.windows(2).enumerate() {
        assert!(
            pair[1] <= PER_DOUBLING * pair[0],
            "{what} grew {:.2}x from {:?} to {:?} ({:.1} -> {:.1}): {suspect}",
            pair[1] / pair[0],
            designs[i],
            designs[i + 1],
            pair[0],
            pair[1]
        );
    }
}

/// The statistics law: terms added to or removed from a design total,
/// per committed firing, grow at most [`PER_DOUBLING`]× per doubling.
fn assert_statistics_law(designs: &[Design]) {
    assert_flat_per_doubling(
        designs,
        "stats.terms per rewrite",
        |c| (c.terms, c.rewrites),
        "a statistics sum over the whole design per firing?",
    );
}

/// The rebuild law: at every size, one flow builds at most
/// [`MAX_FULL_REBUILDS`] timing analyses from scratch, each O(design).
fn assert_rebuild_law(designs: &[Design]) {
    for &d in designs {
        let rebuilds = flow_counts(d).full_rebuilds;
        assert!(
            rebuilds <= MAX_FULL_REBUILDS,
            "{d:?}: {rebuilds} sta.full_rebuilds in one flow, more than \
             {MAX_FULL_REBUILDS}: an analysis rebuilt where one could be handed on?"
        );
    }
}

/// The repair law: anchors re-matched per match-index repair grow at
/// most [`PER_DOUBLING`]× per doubling.
fn assert_repair_law(designs: &[Design]) {
    assert_flat_per_doubling(
        designs,
        "engine.repair_anchors per match repair",
        |c| (c.repair_anchors, c.match_repairs),
        "repair re-matching every connection of a touched net, loads included?",
    );
}

/// The frontier law: components re-evaluated per STA refresh grow at
/// most [`PER_DOUBLING`]× per doubling.
fn assert_frontier_law(designs: &[Design]) {
    assert_flat_per_doubling(
        designs,
        "sta.refresh_props per refresh",
        |c| (c.refresh_props, c.refreshes),
        "a touched net's loads seeded although its arrival did not change?",
    );
}

/// The endpoint law: on a design without sequential cells, no refresh
/// re-derives the endpoint list, an O(endpoints) walk.
fn assert_endpoint_law(designs: &[Design]) {
    for &d in designs {
        let restructures = flow_counts(d).endpoint_restructures;
        assert_eq!(
            restructures, 0,
            "{d:?}: {restructures} sta.endpoint_restructures on a combinational design: \
             the endpoint list rebuilt for a removed combinational cell?"
        );
    }
}

/// The critic law: components added to a stitched netlist per
/// feedback measurement grow at most [`PER_DOUBLING`]× per doubling.
fn assert_critic_law(designs: &[Design]) {
    assert_flat_per_doubling(
        designs,
        "critic.stitched per measurement",
        |c| (c.stitched, c.measures),
        "a carry-mode trial re-stitching the whole design instead of swapping one body?",
    );
}

const TIER1: [Design; 3] = [
    Design::Control(1_250),
    Design::Control(2_500),
    Design::Control(5_000),
];

/// The 10k–40k arm. CI runs it in release:
/// `cargo test --release -q --test scaling_laws -- --ignored`.
const AT_SCALE: [Design; 3] = [
    Design::Control(10_000),
    Design::Control(20_000),
    Design::Control(40_000),
];

const PIPELINES: [Design; 3] = [
    Design::Pipeline(8),
    Design::Pipeline(16),
    Design::Pipeline(32),
];

/// The 64- and 128-stage arm, with 32 as the base of the first doubling.
const PIPELINES_AT_SCALE: [Design; 3] = [
    Design::Pipeline(32),
    Design::Pipeline(64),
    Design::Pipeline(128),
];

#[test]
fn statistics_terms_per_rewrite_stay_flat() {
    assert_statistics_law(&TIER1);
}

#[test]
#[ignore = "10k-40k flows: run in release with --ignored"]
fn statistics_terms_per_rewrite_stay_flat_at_scale() {
    assert_statistics_law(&AT_SCALE);
}

#[test]
fn full_rebuilds_per_flow_stay_bounded() {
    assert_rebuild_law(&TIER1);
}

#[test]
#[ignore = "10k-40k flows: run in release with --ignored"]
fn full_rebuilds_per_flow_stay_bounded_at_scale() {
    assert_rebuild_law(&AT_SCALE);
}

#[test]
fn repairs_and_endpoints_stay_flat_with_design_size() {
    assert_repair_law(&TIER1);
    assert_endpoint_law(&TIER1);
}

#[test]
#[ignore = "10k-40k flows: run in release with --ignored"]
fn repairs_and_endpoints_stay_flat_with_design_size_at_scale() {
    assert_repair_law(&AT_SCALE);
    assert_endpoint_law(&AT_SCALE);
}

#[test]
fn firings_stay_flat_with_net_fanout() {
    assert_repair_law(&PIPELINES);
    assert_frontier_law(&PIPELINES);
}

#[test]
#[ignore = "64- and 128-stage flows: run in release with --ignored"]
fn firings_stay_flat_with_net_fanout_at_scale() {
    assert_repair_law(&PIPELINES_AT_SCALE);
    assert_frontier_law(&PIPELINES_AT_SCALE);
}

const CONSTRAINED_CRITICS: [Design; 3] = [
    Design::ConstrainedCritic(8),
    Design::ConstrainedCritic(16),
    Design::ConstrainedCritic(32),
];

/// The 64-stage arm, with 32 as the base of its doubling.
const CONSTRAINED_CRITICS_AT_SCALE: [Design; 2] =
    [Design::ConstrainedCritic(32), Design::ConstrainedCritic(64)];

#[test]
fn critic_trials_stay_flat_with_design_size() {
    assert_critic_law(&CONSTRAINED_CRITICS);
}

#[test]
#[ignore = "a 64-stage critic: run in release with --ignored"]
fn critic_trials_stay_flat_with_design_size_at_scale() {
    assert_critic_law(&CONSTRAINED_CRITICS_AT_SCALE);
}
