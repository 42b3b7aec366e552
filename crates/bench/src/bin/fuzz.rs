//! Differential-fuzz driver over the scenario zoo, plus the 10k- and
//! 20k-gate scale smoke.
//!
//! Run with `cargo run --release -p milo-bench --bin fuzz [-- options]`:
//!
//! * `--seeds N` — number of seeds to run (default 100);
//! * `--start S` — first seed (default 1);
//! * `--scale-smoke` — instead of fuzzing, push a 10k-gate and then a
//!   20k-gate control design through `Flow::standard()`, print each
//!   per-pass report, and fail unless each result is the pinned one
//!   (structural hash, cells, area, delay) and matches the unoptimized
//!   elaboration on 48 random vectors (the CI scale gate).
//!
//! `MILO_FUZZ_SEED=<seed>` replays exactly one seed, overriding
//! `--seeds`/`--start`. Every failure line embeds the seed to replay.
//! Exit status is non-zero if any seed diverges — seeds are echoed on
//! failure so CI logs are directly replayable.
//!
//! `MILO_TRACE=1` (or `--trace-out <file>`, which forces tracing on)
//! arms the `milo-trace` spans; with `--trace-out` the buffered events
//! are written to `<file>` as Chrome trace-event JSON at exit — see
//! `docs/OBSERVABILITY.md`.

use milo_bench::fuzz::{fuzz_case, seeds_from_env};
use milo_circuits::random_control;
use milo_compilers::verify::check_comb_equivalence;
use milo_core::{Constraints, Milo, PassOutcome};
use milo_netlist::{structural_hash, validate, Violation};
use milo_techmap::ecl_library;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A pinned scale-smoke result: `random_control(gates, 24, 7)` through
/// the default flow with the ECL library. A change to any of these fails
/// the scale smoke until it is re-pinned with an explained QoR delta.
struct Pinned {
    gates: usize,
    hash: u64,
    cells: usize,
    area: &'static str,
    delay: &'static str,
}

const SCALE_PINS: [Pinned; 2] = [
    Pinned {
        gates: 10_000,
        hash: 0x975a_203e_5ed8_f303,
        cells: 8798,
        area: "12615.4",
        delay: "38.184",
    },
    Pinned {
        gates: 20_000,
        hash: 0x5fa1_c374_9ddc_021d,
        cells: 17629,
        area: "25120.6",
        delay: "39.342",
    },
];

/// Random vectors for the scale smoke's equivalence checks (~0.5 s at
/// 10k, ~1.8 s at 20k).
const SCALE_VECTORS: u32 = 48;

fn arg_value(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// One pinned control design through the default flow: prints the
/// per-pass wall times, validates the result, checks it against the
/// pinned one and against the unoptimized elaboration.
fn scale_smoke(pin: &Pinned) -> Result<(), String> {
    let gates = pin.gates;
    let nl = random_control(gates, 24, 7);
    println!(
        "scale-smoke: {} ({} components, {} ports)",
        nl.name,
        nl.component_count(),
        nl.ports().len()
    );
    let start = Instant::now();
    let mut milo = Milo::new(ecl_library());
    let mut flow = milo.flow();
    let out = flow
        .run(&mut milo, &nl, &Constraints::none())
        .map_err(|e| format!("scale-smoke {gates}: flow failed: {e}"))?;
    let total = start.elapsed();
    for p in &out.report.passes {
        println!(
            "  {:<18} {:>12.3?} applied={}{}",
            p.name,
            p.wall,
            p.rules_applied,
            if p.outcome == PassOutcome::Skipped {
                " (skipped)"
            } else {
                ""
            }
        );
    }
    println!(
        "scale-smoke: {} -> {} cells, area {:.1}, delay {:.3} in {total:.3?}",
        gates, out.result.stats.cells, out.result.stats.area, out.result.stats.delay
    );
    let v: Vec<Violation> = validate(&out.result.netlist, true)
        .into_iter()
        .filter(|v| !matches!(v, Violation::DanglingOutput { .. }))
        .collect();
    if !v.is_empty() {
        return Err(format!(
            "scale-smoke {gates}: result fails validation: {v:?}"
        ));
    }
    let stats = &out.result.stats;
    let got = (
        structural_hash(&out.result.netlist),
        stats.cells,
        format!("{:.1}", stats.area),
        format!("{:.3}", stats.delay),
    );
    let pinned = (
        pin.hash,
        pin.cells,
        pin.area.to_owned(),
        pin.delay.to_owned(),
    );
    if got != pinned {
        return Err(format!(
            "scale-smoke {gates}: result {:#018x}, {} cells, area {}, delay {} differs from \
             the pinned {:#018x}, {} cells, area {}, delay {}",
            got.0, got.1, got.2, got.3, pinned.0, pinned.1, pinned.2, pinned.3
        ));
    }
    let started = Instant::now();
    let golden = Milo::new(ecl_library())
        .elaborate_unoptimized(&nl)
        .map_err(|e| format!("scale-smoke {gates}: elaboration failed: {e}"))?;
    catch_unwind(AssertUnwindSafe(|| {
        check_comb_equivalence(&golden, &out.result.netlist, SCALE_VECTORS)
    }))
    .map_err(|p| {
        format!(
            "scale-smoke {gates}: equivalence check panicked: {}",
            milo_par::Panic(p).message()
        )
    })?
    .map_err(|e| {
        format!("scale-smoke {gates}: result is not equivalent to its elaboration: {e}")
    })?;
    println!(
        "scale-smoke: pinned result {:#018x} reproduced; equivalent to the \
         elaboration on {SCALE_VECTORS} vectors ({:.3?})",
        pin.hash,
        started.elapsed()
    );
    Ok(())
}

/// Drains the buffered trace events into `path` (no-op without
/// `--trace-out`).
fn write_trace(path: Option<&str>) {
    let Some(path) = path else { return };
    std::fs::write(path, milo_trace::drain_chrome_json()).expect("writes trace");
    println!("wrote trace {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    milo_trace::init_from_env();
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if trace_out.is_some() {
        milo_trace::set_enabled(true);
    }
    if args.iter().any(|a| a == "--scale-smoke") {
        if let Err(e) = SCALE_PINS.iter().try_for_each(scale_smoke) {
            eprintln!("FAIL {e}");
            std::process::exit(1);
        }
        write_trace(trace_out.as_deref());
        return;
    }

    let count = arg_value(&args, "--seeds").unwrap_or(100);
    let start = arg_value(&args, "--start").unwrap_or(1);
    let seeds = seeds_from_env(start, count);
    println!(
        "differential fuzz: {} seed(s) starting at {}",
        seeds.len(),
        seeds.first().copied().unwrap_or(0)
    );

    let began = Instant::now();
    let mut failures = 0usize;
    for &seed in &seeds {
        // Tag even panics (simulator asserts, port-list mismatches)
        // with the seed, so every failure mode is replayable.
        match catch_unwind(AssertUnwindSafe(|| fuzz_case(seed))) {
            Ok(Ok(report)) => {
                println!(
                    "  ok seed {:<6} {:<20} {:>5} -> {:>5} components",
                    report.seed, report.family, report.source_components, report.result_components
                );
            }
            Ok(Err(msg)) => {
                failures += 1;
                eprintln!("FAIL {msg}");
            }
            Err(payload) => {
                failures += 1;
                let msg = milo_par::Panic(payload).message();
                eprintln!("FAIL seed {seed}: panicked: {msg}; replay with MILO_FUZZ_SEED={seed}");
            }
        }
    }
    println!(
        "differential fuzz: {}/{} seeds passed in {:.3?}",
        seeds.len() - failures,
        seeds.len(),
        began.elapsed()
    );
    write_trace(trace_out.as_deref());
    if failures > 0 {
        eprintln!("{failures} seed(s) diverged — rerun each with MILO_FUZZ_SEED=<seed>");
        std::process::exit(1);
    }
}
