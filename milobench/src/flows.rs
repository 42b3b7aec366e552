//! The flow-level workloads: `ctrl10k` and `micro_timed`.
//!
//! Each design runs through `Flow::standard()` configured exactly as
//! `Milo::synthesize` configures it (statistics sampling off), on a
//! fresh `Milo` with the ECL library, so every repeat does identical
//! work.

use crate::host::Normalizer;
use crate::layers::{self, Counters, PassLog, SelfTimes};
use crate::report::{Outcome, PASSES};
use crate::{stats, Spec};
use milo_circuits::{fig19_all, fsm_bank, pipelined_datapath, random_control};
use milo_core::compilers::verify::{check_comb_equivalence, check_seq_equivalence, XorShift};
use milo_core::netlist::Netlist;
use milo_core::techmap::ecl_library;
use milo_core::{trace, Constraints, Flow, FlowOutput, Milo};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The generator seed of every timed design: the zoo goldens' seed and
/// the ROADMAP's measurements. `--seed` varies what leaves the amount of
/// work unchanged (run order and verification vectors); a seeded design
/// would make its own work the run-to-run spread (seeds 11-15 of
/// `random_control(10_000, 24, seed)` took 16.8-20.6 s with delay
/// ratios 0.897-0.969).
pub const DESIGN_SEED: u64 = 7;

/// One design of a workload, with the generator call that made it.
pub struct Design {
    /// The generator call and constraint, as printed.
    pub call: String,
    /// The entry netlist.
    pub netlist: Netlist,
    /// Its constraints.
    pub constraints: Constraints,
}

/// Worst-path delay of the direct mapping (Fig. 19's baseline).
pub fn direct_delay(nl: &Netlist) -> Result<f64, String> {
    let mapped = Milo::new(ecl_library())
        .elaborate_unoptimized(nl)
        .map_err(|e| e.to_string())?;
    milo_core::timing::statistics(&mapped)
        .map(|s| s.delay)
        .map_err(|e| e.to_string())
}

/// `nl` under a delay constraint of `factor` times its direct-mapped
/// delay, or unconstrained.
fn design(call: String, netlist: Netlist, factor: Option<f64>) -> Result<Design, String> {
    let (constraints, call) = match factor {
        Some(f) => {
            let limit = direct_delay(&netlist)? * f;
            (
                Constraints::none().with_max_delay(limit),
                format!("{call} at {f}x direct delay ({limit:.3} ns)"),
            )
        }
        None => (Constraints::none(), format!("{call} unconstrained")),
    };
    Ok(Design {
        call,
        netlist,
        constraints,
    })
}

/// The flow workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `random_control(10_000, 24, seed)`, one design.
    Ctrl10k,
    /// Fig. 19 plus five zoo designs under delay constraints.
    MicroTimed,
}

impl Workload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ctrl10k => "ctrl10k",
            Workload::MicroTimed => "micro_timed",
        }
    }

    /// Builds the design set, computing delay constraints. `tiny`
    /// shrinks it for smoke tests.
    pub fn designs(self, tiny: bool) -> Result<Vec<Design>, String> {
        let seed = DESIGN_SEED;
        match self {
            Workload::Ctrl10k => {
                let gates = if tiny { 400 } else { 10_000 };
                Ok(vec![design(
                    format!("random_control({gates}, 24, {seed})"),
                    random_control(gates, 24, seed),
                    None,
                )?])
            }
            Workload::MicroTimed => {
                let mut out = Vec::new();
                for case in fig19_all() {
                    out.push(design(
                        format!("fig19::circuit{}()", case.index),
                        case.netlist,
                        Some(case.delay_factor),
                    )?);
                }
                if !tiny {
                    out.push(design(
                        format!("pipelined_datapath(16, 8, {seed})"),
                        pipelined_datapath(16, 8, seed),
                        Some(0.8),
                    )?);
                    out.push(design(
                        format!("pipelined_datapath(8, 16, {seed})"),
                        pipelined_datapath(8, 16, seed),
                        Some(0.8),
                    )?);
                    out.push(design(
                        format!("pipelined_datapath(32, 8, {seed})"),
                        pipelined_datapath(32, 8, seed),
                        None,
                    )?);
                    out.push(design(
                        format!("random_control(1000, 24, {seed})"),
                        random_control(1000, 24, seed),
                        Some(0.8),
                    )?);
                    out.push(design(
                        format!("fsm_bank(64, 4, {seed})"),
                        fsm_bank(64, 4, seed),
                        Some(0.8),
                    )?);
                }
                Ok(out)
            }
        }
    }

    /// Repeats per design: fixed work for a given `--seconds`, sized so
    /// a run measures about that long on a 2-core x86-64 VM.
    pub fn repeats(self, seconds: u64, tiny: bool) -> usize {
        if tiny {
            return 2;
        }
        match self {
            // One 10k flow takes 15-18 s; three give a median that a
            // single slow phase of the host moves less.
            Workload::Ctrl10k => (seconds / 5).max(1) as usize,
            // One pass over the set takes about a second.
            Workload::MicroTimed => seconds.max(3) as usize,
        }
    }

    /// Untraced/traced pairs per design in a traced run.
    fn traced_pairs(self, tiny: bool) -> usize {
        match self {
            Workload::Ctrl10k => 1,
            Workload::MicroTimed if tiny => 1,
            Workload::MicroTimed => 3,
        }
    }
}

/// The flow `Milo::synthesize` runs: the standard passes with per-pass
/// statistics sampling off. `traced` wraps every pass in a timer.
fn standard_flow(traced: bool) -> (Flow, Option<PassLog>) {
    let mut flow = Flow::standard();
    flow.sample_stats(false);
    let log = traced.then(|| layers::instrument(&mut flow));
    (flow, log)
}

/// A caught panic's message.
pub fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}

/// One timed flow: result, pass log when traced, raw seconds.
fn timed_flow(d: &Design, traced: bool) -> (Result<FlowOutput, String>, Option<PassLog>, f64) {
    let mut milo = Milo::new(ecl_library());
    let (mut flow, log) = standard_flow(traced);
    let start = std::time::Instant::now();
    let out = {
        let _span = traced.then(|| trace::span("bench.flow"));
        catch_unwind(AssertUnwindSafe(|| {
            flow.run(&mut milo, &d.netlist, &d.constraints)
        }))
    };
    let raw = start.elapsed().as_secs_f64();
    let out = match out {
        Ok(Ok(o)) => Ok(o),
        Ok(Err(e)) => Err(e.to_string()),
        Err(p) => Err(format!("flow panicked: {}", panic_message(p))),
    };
    (out, log, raw)
}

/// Whether any component of `nl` holds state.
pub fn holds_state(nl: &Netlist) -> bool {
    nl.component_ids()
        .any(|id| nl.component(id).is_ok_and(|c| c.kind.is_sequential()))
}

/// The correctness gate for one flow result: clean validation, no
/// degraded passes, and functional equivalence to the unoptimized
/// elaboration. Combinational designs with at most 12 inputs are checked
/// exhaustively; every other design gets `seed`-drawn random vectors,
/// clocked for designs that hold state. The equivalence checkers panic
/// on port mismatches, so the whole check is panic-isolated.
pub fn check(entry: &Netlist, out: &FlowOutput, seed: u64) -> Result<(), String> {
    let _span = trace::span("bench.check:equivalence");
    if !out.result.violations.is_empty() {
        return Err(format!("violations: {:?}", out.result.violations));
    }
    if out.report.degraded {
        return Err("flow degraded".to_owned());
    }
    let golden = Milo::new(ecl_library())
        .elaborate_unoptimized(entry)
        .map_err(|e| format!("elaboration failed: {e}"))?;
    let inputs = entry
        .ports()
        .iter()
        .filter(|p| p.dir == milo_core::netlist::PinDir::In)
        .count();
    let exhaustive = inputs <= 12 && !holds_state(entry);
    catch_unwind(AssertUnwindSafe(|| {
        if exhaustive {
            check_comb_equivalence(&golden, &out.result.netlist, 0)
        } else {
            check_seq_equivalence(&golden, &out.result.netlist, 48, seed)
        }
    }))
    .map_err(|p| format!("equivalence check panicked: {}", panic_message(p)))?
}

/// Runs `nl` through the standard flow on a fresh `Milo`, untimed.
pub fn synthesize(nl: &Netlist, constraints: &Constraints) -> Result<FlowOutput, String> {
    let mut milo = Milo::new(ecl_library());
    let (mut flow, _) = standard_flow(false);
    catch_unwind(AssertUnwindSafe(|| flow.run(&mut milo, nl, constraints)))
        .map_err(|p| format!("flow panicked: {}", panic_message(p)))?
        .map_err(|e| format!("flow failed: {e}"))
}

/// A small flow that builds the process-wide lazy state (library,
/// hash-rule table, worker pool) before anything is timed.
pub fn warm_up() -> Result<(), String> {
    synthesize(&milo_circuits::fig19::circuit3(), &Constraints::none()).map(|_| ())
}

/// Per-design bookkeeping across repeats.
#[derive(Default)]
struct Runs {
    raw: Vec<f64>,
    scaled: Vec<f64>,
    hashes: Vec<Option<u64>>,
    first: Option<FlowOutput>,
    error: Option<String>,
}

fn record(runs: &mut Runs, out: Result<FlowOutput, String>, raw: f64, scaled: f64) {
    runs.raw.push(raw);
    runs.scaled.push(scaled);
    match out {
        Ok(o) => {
            runs.hashes.push(o.report.result_hash);
            if runs.first.is_none() {
                runs.first = Some(o);
            }
        }
        Err(e) => {
            runs.hashes.push(None);
            runs.error.get_or_insert(e);
        }
    }
}

/// Runs a flow workload and fills `outcome`.
pub fn run(
    w: Workload,
    spec: &Spec,
    setup_s: f64,
    designs: &[Design],
    norm: &mut Normalizer,
    outcome: &mut Outcome,
) {
    let Spec {
        seed,
        seconds,
        traced,
        tiny,
        ..
    } = *spec;
    let repeats = w.repeats(seconds, tiny);
    let mut runs: Vec<Runs> = designs.iter().map(|_| Runs::default()).collect();
    let mut self_times = SelfTimes::default();
    let mut counters = Counters::default();
    let mut pass_s: BTreeMap<String, f64> = BTreeMap::new();
    let mut rest_s = 0.0;
    let mut traced_scaled: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    let mut job_s: Vec<f64> = Vec::new();

    if traced {
        let pairs = w.traced_pairs(tiny);
        for pair in 0..pairs {
            for (i, d) in designs.iter().enumerate() {
                // An untraced and a traced run of the design share one
                // normalization unit, so their ratio is the raw ratio.
                norm.reopen();
                let (out, _, raw) = timed_flow(d, false);
                trace::set_enabled(true);
                let before = Counters::read();
                let (out_t, log, raw_t) = timed_flow(d, true);
                let delta = Counters::read().since(&before);
                trace::set_enabled(false);
                let factor = norm.close();
                self_times.drain();
                record(&mut runs[i], out, raw, raw * factor);
                let scaled_t = raw_t * factor;
                traced_scaled[i].push(scaled_t);
                if pair == 0 {
                    counters.add(&delta);
                }
                // The traced flow must compute what the untraced one did.
                let hash_t = out_t.as_ref().ok().and_then(|o| o.report.result_hash);
                if hash_t.is_none() || hash_t != *runs[i].hashes.last().expect("just pushed") {
                    runs[i]
                        .error
                        .get_or_insert(format!("traced result hash {hash_t:x?} differs"));
                }
                let log = log.expect("traced flows are instrumented");
                let log = log.lock().expect("flow finished");
                let mut in_passes = 0.0;
                for (name, wall) in log.iter() {
                    let s = wall.as_secs_f64() * factor;
                    in_passes += s;
                    *pass_s.entry(name.clone()).or_insert(0.0) += s / pairs as f64;
                }
                rest_s += (scaled_t - in_passes) / pairs as f64;
            }
        }
    } else {
        // Round-robin passes over the set spread host drift evenly
        // across designs; each pass runs them in a seeded order and is
        // one normalization unit.
        let mut rng = XorShift::new(seed ^ 0x0bde_5eed);
        let mut order: Vec<usize> = (0..designs.len()).collect();
        norm.reopen();
        for _ in 0..repeats {
            for k in (1..order.len()).rev() {
                order.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
            }
            let pass: Vec<_> = order
                .iter()
                .map(|&i| {
                    let (out, _, raw) = timed_flow(&designs[i], false);
                    (i, out, raw)
                })
                .collect();
            let factor = norm.close();
            job_s.push(pass.iter().map(|(_, _, raw)| raw * factor).sum());
            for (i, out, raw) in pass {
                record(&mut runs[i], out, raw, raw * factor);
            }
        }
    }

    // Correctness, outside every timed region.
    if traced {
        trace::set_enabled(true);
    }
    let mut ok = 0u64;
    let mut area = Vec::new();
    let mut delay = Vec::new();
    let mut applied: BTreeMap<String, f64> = BTreeMap::new();
    for (d, r) in designs.iter().zip(&runs) {
        let verdict = match (&r.error, &r.first) {
            (Some(e), _) => Err(e.clone()),
            (None, None) => Err("no result".to_owned()),
            (None, Some(o)) => {
                if r.hashes.iter().any(|h| *h != r.hashes[0]) {
                    Err(format!("repeats disagree: {:x?}", r.hashes))
                } else {
                    check(&d.netlist, o, seed)
                }
            }
        };
        if let Some(o) = &r.first {
            let (s, b) = (&o.result.stats, &o.result.baseline);
            area.push(s.area / b.area);
            delay.push(s.delay / b.delay);
            for p in &o.report.passes {
                *applied.entry(p.name.clone()).or_insert(0.0) += p.rules_applied as f64;
            }
            println!(
                "design {}: median {:.4} s normalized, {:.4} s raw, over {} runs \
                 (raw s {:.4?}); hash {:#018x}; cells {} area {:.1}/{:.1} delay {:.3}/{:.3} \
                 (MILO/direct)",
                d.call,
                stats::median(&r.scaled),
                stats::median(&r.raw),
                r.scaled.len(),
                r.raw,
                o.report.result_hash.unwrap_or(0),
                s.cells,
                s.area,
                b.area,
                s.delay,
                b.delay
            );
        }
        match verdict {
            Ok(()) => ok += 1,
            Err(e) => println!("FAILED {}: {e}", d.call),
        }
    }
    if traced {
        trace::set_enabled(false);
        self_times.drain();
    }
    outcome.attempted = designs.len() as u64;
    outcome.failed = outcome.attempted - ok;

    // One job is one pass over the design set: the unit a user submits.
    let jobs_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    println!(
        "{}",
        stats::describe_tail("job_ms (one job = one pass over the design set)", &jobs_ms)
    );
    outcome.set("setup_s", setup_s);
    outcome.set(
        "flow_s",
        runs.iter().map(|r| stats::median(&r.scaled)).sum::<f64>(),
    );
    outcome.set("job_ms.p50", stats::median(&jobs_ms));
    outcome.set("job_ms.p99", stats::percentile(&jobs_ms, 99.0));
    outcome.set("jobs_per_s", job_s.len() as f64 / job_s.iter().sum::<f64>());
    outcome.set("qor.area_ratio", stats::geomean(&area));
    outcome.set("qor.delay_ratio", stats::geomean(&delay));
    outcome.set("ok_ratio", ok as f64 / designs.len() as f64);
    outcome.set("peak_rss_mib", layers::proc_status_kib("VmHWM") / 1024.0);

    if traced {
        for p in PASSES {
            outcome.set(format!("pass_s.{p}"), pass_s.get(p).copied().unwrap_or(0.0));
            outcome.set(
                format!("pass_applied.{p}"),
                applied.get(p).copied().unwrap_or(0.0),
            );
        }
        outcome.set("pass_s.rest", rest_s);
        for (k, v) in &counters.0 {
            outcome.set(*k, *v);
        }
        // Flows never reach the daemon.
        for (name, _) in crate::report::per_layer() {
            if name.starts_with("serve.") {
                outcome.set(name, 0.0);
            }
        }
        let untraced: f64 = runs.iter().map(|r| stats::median(&r.scaled)).sum();
        let traced_sum: f64 = traced_scaled.iter().map(|v| stats::median(v)).sum();
        outcome.set("trace.overhead_ratio", traced_sum / untraced);
        let passes_sum: f64 = pass_s.values().sum();
        println!(
            "accounting: traced flow {:.4} s = passes {:.4} s + rest {:.4} s ({:.1} % rest)",
            passes_sum + rest_s,
            passes_sum,
            rest_s,
            100.0 * rest_s / (passes_sum + rest_s)
        );
        crate::finish_trace(&self_times, w.name(), seed);
    }
}
