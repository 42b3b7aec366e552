//! Differential fuzz over the scenario zoo: every generated design must
//! synthesize identically through `Flow::standard()` and through
//! `Milo::synthesize` on that flow's now-warm instance, validate
//! cleanly, and stay functionally equivalent to its unoptimized
//! elaboration.
//!
//! This tier-1 run keeps the seed count small (debug builds are slow);
//! the full sweep lives in the `milo-bench` `fuzz` bin:
//! `cargo run --release -p milo-bench --bin fuzz -- --seeds 100`.
//!
//! To replay a failure from either harness, set `MILO_FUZZ_SEED=<seed>` —
//! it overrides the default seed range here too.

use milo_bench::fuzz::{fuzz_case, seeds_from_env};

#[test]
fn differential_fuzz_smoke() {
    // Eight seeds starting at 1: covers every generator family in the
    // seed→case mapping without dominating tier-1 wall time.
    let seeds = seeds_from_env(1, 8);
    let mut failures = Vec::new();
    for &seed in &seeds {
        if let Err(msg) = fuzz_case(seed) {
            failures.push(msg);
        }
    }
    assert!(
        failures.is_empty(),
        "{} seed(s) diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
