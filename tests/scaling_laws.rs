//! Scaling laws: the cost of the flow's phases, checked by counting
//! their work instead of timing it, so a law holds on any host and in
//! debug builds. Each law runs `Flow::standard()` on
//! `random_control(n, 24, 7)` at doubling sizes and reads counters from
//! the global metrics registry. A per-firing law bounds how a work count
//! per firing grows per doubling: an O(touched) phase stays flat, one
//! that redoes O(design) work per firing doubles with every doubling. A
//! per-flow law bounds how often the flow does O(design) work at all.
//!
//! This file is its own test binary, so the registry deltas it reads
//! are its own flows'. Each size's flow runs once under a lock, so flows
//! never overlap and the laws share them.

use milo::circuits::random_control;
use milo::{Constraints, Milo};
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

/// The registry counters one default flow adds.
#[derive(Clone, Copy, Debug)]
struct FlowCounts {
    terms: u64,
    rewrites: u64,
    full_rebuilds: u64,
}

/// Each size's flow, run once per binary. The lock also serializes the
/// flows: the registry is process-wide.
static FLOWS: Mutex<BTreeMap<usize, FlowCounts>> = Mutex::new(BTreeMap::new());

/// The counters the default flow on `random_control(gates, 24, 7)`
/// adds.
fn flow_counts(gates: usize) -> FlowCounts {
    let mut flows = FLOWS.lock().unwrap_or_else(|e| e.into_inner());
    *flows.entry(gates).or_insert_with(|| {
        let registry = Registry::global();
        let counters = [
            registry.counter("stats.terms"),
            registry.counter("engine.rewrites"),
            registry.counter("sta.full_rebuilds"),
        ];
        let before = counters.each_ref().map(|c| c.get());
        let nl = random_control(gates, 24, 7);
        let mut milo = Milo::new(ecl_library());
        let mut flow = milo.flow();
        flow.run(&mut milo, &nl, &Constraints::none())
            .expect("the flow runs");
        let [terms, rewrites, full_rebuilds] = [0, 1, 2].map(|i| counters[i].get() - before[i]);
        let counts = FlowCounts {
            terms,
            rewrites,
            full_rebuilds,
        };
        println!("{gates} gates: {counts:?}");
        counts
    })
}

/// The statistics law: terms added to or removed from a design total,
/// per committed firing, grow at most [`PER_DOUBLING`]× per doubling.
fn assert_statistics_law(sizes: &[usize]) {
    let per: Vec<f64> = sizes
        .iter()
        .map(|&n| {
            let c = flow_counts(n);
            assert!(c.rewrites > 0, "{n} gates: nothing fired");
            c.terms as f64 / c.rewrites as f64
        })
        .collect();
    for (i, pair) in per.windows(2).enumerate() {
        assert!(
            pair[1] <= PER_DOUBLING * pair[0],
            "stats.terms per rewrite grew {:.2}x from {} to {} gates ({:.1} -> {:.1}): \
             a statistics sum over the whole design per firing?",
            pair[1] / pair[0],
            sizes[i],
            sizes[i + 1],
            pair[0],
            pair[1]
        );
    }
}

/// The rebuild law: at every size, one flow builds at most
/// [`MAX_FULL_REBUILDS`] timing analyses from scratch, each O(design).
fn assert_rebuild_law(sizes: &[usize]) {
    for &n in sizes {
        let rebuilds = flow_counts(n).full_rebuilds;
        assert!(
            rebuilds <= MAX_FULL_REBUILDS,
            "{n} gates: {rebuilds} sta.full_rebuilds in one flow, more than \
             {MAX_FULL_REBUILDS}: an analysis rebuilt where one could be handed on?"
        );
    }
}

const TIER1: [usize; 3] = [1_250, 2_500, 5_000];

/// The 10k–40k arm. CI runs it in release:
/// `cargo test --release -q --test scaling_laws -- --ignored`.
const AT_SCALE: [usize; 3] = [10_000, 20_000, 40_000];

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
