//! Scaling laws: the per-firing cost of an engine phase, checked by
//! counting its work instead of timing it, so a law holds on any host
//! and in debug builds. Each law runs `Flow::standard()` on
//! `random_control(n, 24, 7)` at doubling sizes and bounds how a
//! per-firing work counter from the global metrics registry grows per
//! doubling. An O(touched) phase stays flat; one that redoes O(design)
//! work per firing doubles with every doubling.
//!
//! This file is its own test binary, so the registry deltas it reads
//! are its own flows'; its tests also take a lock so they never overlap.

use milo::circuits::random_control;
use milo::{Constraints, Milo};
use milo_techmap::ecl_library;
use milo_trace::Registry;
use std::sync::Mutex;

/// Serializes the flows of this binary: the registry is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// How much a per-firing count may grow when the design doubles.
const PER_DOUBLING: f64 = 1.25;

/// The default flow on `random_control(gates, 24, 7)`: the
/// `stats.terms` it adds per `engine.rewrites`.
fn terms_per_rewrite(gates: usize) -> f64 {
    let registry = Registry::global();
    let terms = registry.counter("stats.terms");
    let rewrites = registry.counter("engine.rewrites");
    let (terms0, rewrites0) = (terms.get(), rewrites.get());
    let nl = random_control(gates, 24, 7);
    let mut milo = Milo::new(ecl_library());
    let mut flow = milo.flow();
    flow.run(&mut milo, &nl, &Constraints::none())
        .expect("the flow runs");
    let (terms, rewrites) = (terms.get() - terms0, rewrites.get() - rewrites0);
    assert!(rewrites > 0, "{gates} gates: nothing fired");
    let per = terms as f64 / rewrites as f64;
    println!("{gates} gates: {terms} statistics terms / {rewrites} rewrites = {per:.1}");
    per
}

/// The statistics law: terms added to or removed from a design total,
/// per committed firing, grow at most [`PER_DOUBLING`]× per doubling.
fn assert_statistics_law(sizes: &[usize]) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let per: Vec<f64> = sizes.iter().map(|&n| terms_per_rewrite(n)).collect();
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

#[test]
fn statistics_terms_per_rewrite_stay_flat() {
    assert_statistics_law(&[1_250, 2_500, 5_000]);
}

/// The same law at 10k–40k gates. CI runs it in release:
/// `cargo test --release -q --test scaling_laws -- --ignored`.
#[test]
#[ignore = "10k-40k flows: run in release with --ignored"]
fn statistics_terms_per_rewrite_stay_flat_at_scale() {
    assert_statistics_law(&[10_000, 20_000, 40_000]);
}
