//! The differential-fuzz harness: one seed → one zoo design → three
//! synthesis arms that must agree.
//!
//! Each seed deterministically picks a generator family and parameters
//! from the scenario zoo (`milo-circuits`), then runs the design through
//!
//! 1. the observable [`Flow::standard`](milo_core::Flow::standard) API
//!    on a fresh [`Milo`],
//! 2. [`Milo::synthesize`] again on that same instance, now warm with
//!    the first run's compiled designs, and
//! 3. a one-element [`Milo::synthesize_batch`] on another fresh
//!    instance,
//!
//! and checks that all three arms produce the same structural
//! fingerprint, statistics, and baseline (so a warm design database
//! cannot change a result);
//! that the result validates cleanly; and that the result is
//! functionally equivalent to the unoptimized elaboration of the same
//! design (exhaustive for small combinational cones, randomized vectors
//! otherwise, clocked vectors for sequential designs).
//!
//! Every failure message embeds the replayable seed; rerun a single
//! seed with `MILO_FUZZ_SEED=<seed>` (both `tests/differential_fuzz.rs`
//! and the `fuzz` bin honor it). See `docs/TESTING.md`.

use milo_circuits::{
    fsm_bank, high_fanout, pipelined_datapath, random_control, random_logic, reconvergent_ladder,
};
use milo_compilers::verify::{check_comb_equivalence, check_seq_equivalence};
use milo_core::{Constraints, Milo};
use milo_netlist::{structural_hash, structural_summary, validate, Netlist, Violation};
use milo_techmap::ecl_library;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated fuzz case: the design plus the provenance needed to
/// report and replay it.
pub struct FuzzCase {
    /// The replayable seed.
    pub seed: u64,
    /// Generator family name (the zoo function that built the design).
    pub family: &'static str,
    /// Whether the design holds state (selects the equivalence checker).
    pub sequential: bool,
    /// The generated design.
    pub design: Netlist,
}

/// What a passing seed ran, for harness-side accounting.
pub struct FuzzReport {
    /// The seed that passed.
    pub seed: u64,
    /// Generator family of the design.
    pub family: &'static str,
    /// Source design component count.
    pub source_components: usize,
    /// Mapped result component count (identical across arms).
    pub result_components: usize,
}

/// Deterministically derives a zoo design from a seed. Sizes are kept
/// small enough that a hundred seeds run in seconds in release mode
/// while still crossing every generator family and both sequential and
/// combinational shapes.
pub fn case_for_seed(seed: u64) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_f0dd);
    let (family, sequential, design): (&'static str, bool, Netlist) = match rng.gen_range(0..6u32) {
        0 => (
            "random_control",
            false,
            random_control(
                rng.gen_range(40..=220usize),
                rng.gen_range(6..=10usize),
                seed,
            ),
        ),
        1 => (
            "random_logic",
            false,
            random_logic(
                rng.gen_range(40..=160usize),
                rng.gen_range(6..=10usize),
                seed,
            ),
        ),
        2 => (
            "pipelined_datapath",
            true,
            pipelined_datapath(
                rng.gen_range(1..=3usize),
                rng.gen_range(2..=4u32) as u8,
                seed,
            ),
        ),
        3 => (
            "fsm_bank",
            true,
            fsm_bank(rng.gen_range(1..=4usize), rng.gen_range(1..=3usize), seed),
        ),
        4 => (
            "high_fanout",
            false,
            high_fanout(rng.gen_range(16..=48usize), seed),
        ),
        _ => (
            "reconvergent_ladder",
            false,
            reconvergent_ladder(rng.gen_range(6..=24usize), seed),
        ),
    };
    FuzzCase {
        seed,
        family,
        sequential,
        design,
    }
}

/// The hint appended to every failure so a human (or CI log reader) can
/// replay exactly this case.
fn replay(seed: u64) -> String {
    format!("replay with MILO_FUZZ_SEED={seed} (see docs/TESTING.md)")
}

fn violations_beyond_dangling(nl: &Netlist) -> Vec<Violation> {
    validate(nl, true)
        .into_iter()
        .filter(|v| !matches!(v, Violation::DanglingOutput { .. }))
        .collect()
}

/// Runs one seed through all three arms and every check. `Ok` carries
/// the accounting report; `Err` is a human-readable divergence
/// description that embeds the replayable seed.
pub fn fuzz_case(seed: u64) -> Result<FuzzReport, String> {
    let case = case_for_seed(seed);
    let tag = format!("seed {} ({})", case.seed, case.family);

    // Reference: the unoptimized "human designer" elaboration.
    let baseline = Milo::new(ecl_library())
        .elaborate_unoptimized(&case.design)
        .map_err(|e| format!("{tag}: baseline elaboration failed: {e}; {}", replay(seed)))?;

    // Arm 1: the observable Flow API.
    let mut flow_milo = Milo::new(ecl_library());
    let mut flow = flow_milo.flow();
    let flow_out = flow
        .run(&mut flow_milo, &case.design, &Constraints::none())
        .map_err(|e| format!("{tag}: flow arm failed: {e}; {}", replay(seed)))?;
    let flow_result = flow_out.result;

    // Arm 2: the same design again on the flow arm's instance, warm
    // with the first run's compiled designs.
    let warm_result = flow_milo
        .synthesize(&case.design, &Constraints::none())
        .map_err(|e| format!("{tag}: warm arm failed: {e}; {}", replay(seed)))?;

    // Arm 3: a one-element batch.
    let batch_result = Milo::new(ecl_library())
        .synthesize_batch(std::slice::from_ref(&case.design), &Constraints::none())
        .pop()
        .ok_or_else(|| format!("{tag}: batch arm returned no result; {}", replay(seed)))?
        .map_err(|e| format!("{tag}: batch arm failed: {e}; {}", replay(seed)))?
        .result;

    // Identical fingerprints across arms.
    let flow_fp = structural_summary(&flow_result.netlist);
    for (arm, result) in [("warm", &warm_result), ("batch", &batch_result)] {
        let fp = structural_summary(&result.netlist);
        if fp != flow_fp {
            return Err(format!(
                "{tag}: {arm} arm fingerprint diverges from flow arm \
                 (flow hash {:#018x}, {arm} hash {:#018x}); {}",
                structural_hash(&flow_result.netlist),
                structural_hash(&result.netlist),
                replay(seed)
            ));
        }
        if result.stats != flow_result.stats {
            return Err(format!(
                "{tag}: {arm} arm stats diverge: {:?} vs {:?}; {}",
                result.stats,
                flow_result.stats,
                replay(seed)
            ));
        }
        if result.baseline != flow_result.baseline {
            return Err(format!(
                "{tag}: {arm} arm baseline diverges: {:?} vs {:?}; {}",
                result.baseline,
                flow_result.baseline,
                replay(seed)
            ));
        }
    }

    // Clean validation (dangling outputs are legitimate in generated
    // designs whose unused cones were optimized away).
    let v = violations_beyond_dangling(&flow_result.netlist);
    if !v.is_empty() {
        return Err(format!(
            "{tag}: result fails validation: {v:?}; {}",
            replay(seed)
        ));
    }

    // Cheap functional equivalence against the unoptimized elaboration.
    let equivalence = if case.sequential {
        check_seq_equivalence(&baseline, &flow_result.netlist, 12, seed ^ 0x9e37_79b9)
    } else {
        check_comb_equivalence(&baseline, &flow_result.netlist, 64)
    };
    if let Err(e) = equivalence {
        return Err(format!(
            "{tag}: optimized result not equivalent to baseline: {e}; {}",
            replay(seed)
        ));
    }

    Ok(FuzzReport {
        seed,
        family: case.family,
        source_components: case.design.component_count(),
        result_components: flow_result.netlist.component_count(),
    })
}

/// The seed list a harness run should cover: `MILO_FUZZ_SEED` (a single
/// replay) when set, otherwise `start..start + count`.
pub fn seeds_from_env(start: u64, count: u64) -> Vec<u64> {
    if let Some(seed) = std::env::var("MILO_FUZZ_SEED")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
    {
        return vec![seed];
    }
    (start..start.saturating_add(count)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_cover_families() {
        let mut families = std::collections::BTreeSet::new();
        for seed in 0..24u64 {
            let a = case_for_seed(seed);
            let b = case_for_seed(seed);
            assert_eq!(
                structural_summary(&a.design),
                structural_summary(&b.design),
                "seed {seed} not deterministic"
            );
            families.insert(a.family);
        }
        assert!(
            families.len() >= 5,
            "24 seeds should cross most families, got {families:?}"
        );
    }

    #[test]
    fn seeds_from_env_defaults_to_range() {
        // Runs without MILO_FUZZ_SEED in the environment under normal
        // `cargo test`; the replay path is covered by the fuzz bin's CI
        // invocation.
        if std::env::var("MILO_FUZZ_SEED").is_err() {
            assert_eq!(seeds_from_env(5, 3), vec![5, 6, 7]);
        }
    }

    #[test]
    fn one_seed_passes_end_to_end() {
        let report = fuzz_case(3).expect("seed 3 passes");
        assert!(report.result_components > 0);
    }
}
