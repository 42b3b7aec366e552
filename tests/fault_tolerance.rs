//! Fault-tolerant flow execution: panic isolation, per-pass budgets,
//! checkpoint/rollback, batch partial failure, and the deterministic
//! fault-injection harness that exercises all of it. See
//! `docs/ROBUSTNESS.md` for the contract.

use milo::circuits::{abadd, fig19, random_logic};
use milo::{
    Constraints, FailureAction, FaultInjector, Flow, FlowContext, Milo, MiloError, Pass,
    PassOutcome, PassPolicy, PassReport, RecoveryAction, RewriteBudget,
};
use milo_bench::metarule_rules::metarule_rule_set;
use milo_netlist::{validate, Netlist, NetlistError, Violation};
use milo_rules::{Engine, Rule, RuleClass, RuleCtx, RuleMatch, Tx};
use milo_techmap::{cmos_library, ecl_library, map_netlist};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Structural fingerprint (same shape as `tests/flow_api.rs`):
/// components with pin bindings, nets, ports.
fn fingerprint(nl: &Netlist) -> String {
    use std::fmt::Write;
    let mut out = format!("design {} nets {}\n", nl.name, nl.net_count());
    for id in nl.component_ids() {
        let c = nl.component(id).expect("live id");
        write!(out, "comp {} {}", c.name, c.kind.label()).expect("write");
        for pin in &c.pins {
            if let Some(net) = pin.net {
                write!(out, " {}=n{}", pin.name, net.index()).expect("write");
            }
        }
        out.push('\n');
    }
    for p in nl.ports() {
        writeln!(out, "port {} {:?} n{}", p.name, p.dir, p.net.index()).expect("write");
    }
    out
}

fn non_dangling(nl: &Netlist) -> Vec<Violation> {
    validate(nl, true)
        .into_iter()
        .filter(|v| !matches!(v, Violation::DanglingOutput { .. }))
        .collect()
}

fn injector(spec: &str) -> Arc<FaultInjector> {
    Arc::new(FaultInjector::parse(spec).expect("valid fault spec"))
}

/// The headline acceptance scenario: a batch of 8 designs with 2
/// fault-injected (one panic that survives its retry, one corruption)
/// completes with 6 healthy results that match fresh sequential runs
/// exactly, plus 2 structured errors — the process never dies and the
/// healthy designs never notice.
#[test]
fn batch_partial_failure_isolates_faulty_designs() {
    let designs = [
        fig19::circuit3(),
        abadd(),
        random_logic(80, 10, 7),
        random_logic(40, 8, 1),
        random_logic(40, 8, 2), // panic target (twice: first run + retry)
        random_logic(40, 8, 3), // corruption target
        random_logic(50, 9, 4),
        random_logic(60, 10, 5),
    ];
    let mut milo = Milo::new(ecl_library());
    milo.set_fault_injector(injector(
        "panic@bottom-up-logic/rand40_2#2;corrupt@timing-area/rand40_3",
    ));
    let results = milo.synthesize_batch(&designs, &Constraints::none());
    assert_eq!(results.len(), 8);

    for (i, (nl, run)) in designs.iter().zip(&results).enumerate() {
        match i {
            4 => match run {
                Err(MiloError::PassPanicked {
                    pass,
                    design,
                    payload,
                    recovery,
                }) => {
                    assert_eq!(pass, "bottom-up-logic");
                    assert_eq!(design, "rand40_2");
                    assert!(payload.contains("injected fault"), "{payload}");
                    assert_eq!(
                        *recovery,
                        RecoveryAction::Retried,
                        "second charge hit the retry"
                    );
                }
                other => panic!("expected PassPanicked for rand40_2, got {other:?}"),
            },
            5 => match run {
                Err(MiloError::DesignCorrupt { design, detail }) => {
                    assert_eq!(design, "rand40_3");
                    assert!(detail.contains("drivers"), "{detail}");
                }
                other => panic!("expected DesignCorrupt for rand40_3, got {other:?}"),
            },
            _ => {
                let got = run.as_ref().unwrap_or_else(|e| {
                    panic!("healthy design {} failed: {e}", nl.name);
                });
                let mut seq = Milo::new(ecl_library());
                let want = seq
                    .synthesize(nl, &Constraints::none())
                    .expect("sequential synthesizes");
                assert_eq!(
                    fingerprint(&got.result.netlist),
                    fingerprint(&want.netlist),
                    "batch arm diverged from sequential for {}",
                    nl.name
                );
            }
        }
    }
}

/// Per-design results come back in input order: the first failing
/// result belongs to the first faulted design, whatever order the arms
/// actually ran in.
#[test]
fn atomic_batch_surfaces_first_error_in_input_order() {
    let designs = [
        random_logic(40, 8, 1),
        random_logic(40, 8, 2),
        random_logic(40, 8, 3),
    ];
    let mut milo = Milo::new(ecl_library());
    milo.set_fault_injector(injector(
        "corrupt@timing-area/rand40_3;panic@compile/rand40_2#2",
    ));
    let results = milo.synthesize_batch(&designs, &Constraints::none());
    assert!(results[0].is_ok(), "the unfaulted design completes");
    let err = results
        .into_iter()
        .find_map(Result::err)
        .expect("two designs are faulted");
    // rand40_2 comes before rand40_3 in input order.
    match err {
        MiloError::PassPanicked { design, .. } => assert_eq!(design, "rand40_2"),
        other => panic!("expected the earlier design's panic, got {other:?}"),
    }
}

/// A panicked arm whose fault has a single charge succeeds on its one
/// bounded retry — transient faults don't fail the design.
#[test]
fn batch_retry_recovers_single_charge_panic() {
    let designs = [random_logic(40, 8, 1), random_logic(40, 8, 2)];
    let mut milo = Milo::new(ecl_library());
    milo.set_fault_injector(injector("panic@bottom-up-logic/rand40_1#1"));
    let results = milo.synthesize_batch(&designs, &Constraints::none());
    for (nl, run) in designs.iter().zip(&results) {
        let got = run
            .as_ref()
            .unwrap_or_else(|e| panic!("{} failed despite retry: {e}", nl.name));
        let mut seq = Milo::new(ecl_library());
        let want = seq
            .synthesize(nl, &Constraints::none())
            .expect("sequential synthesizes");
        assert_eq!(fingerprint(&got.result.netlist), fingerprint(&want.netlist));
    }
}

/// Acceptance scenario two: `RollbackAndContinue` on an injected
/// `BottomUpLogic` panic still produces a valid mapped netlist, with
/// `degraded: true` in the JSON report and the pass marked rolled-back.
#[test]
fn rollback_and_continue_degrades_gracefully() {
    let mut milo = Milo::new(ecl_library());
    let mut flow = milo.flow();
    flow.with_policy(
        "bottom-up-logic",
        PassPolicy::on_failure(FailureAction::RollbackAndContinue),
    )
    .inject_faults(injector("panic@bottom-up-logic/fig19_3"));
    let out = flow
        .run(&mut milo, &fig19::circuit3(), &Constraints::none())
        .expect("flow degrades instead of dying");

    assert!(out.report.degraded);
    let p = out
        .report
        .passes
        .iter()
        .find(|p| p.name == "bottom-up-logic")
        .expect("pass reported");
    assert_eq!(p.outcome, PassOutcome::RolledBack);
    assert!(
        p.error.as_deref().is_some_and(|e| e.contains("panicked")),
        "{:?}",
        p.error
    );
    let json = out.report.to_json();
    assert!(json.contains("\"degraded\": true"), "{json}");
    assert!(json.contains("\"outcome\": \"rolled-back\""), "{json}");

    // The epilogue direct-mapped the compiled top: still a legal netlist.
    assert!(non_dangling(&out.result.netlist).is_empty());
    assert!(out.result.stats.cells > 0);
}

// A rolled-back pass must leave state byte-identical to its pre-pass
// checkpoint — so a flow that panics-and-rolls-back inside a pass ends
// up exactly where a flow that skipped the pass outright does.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn rollback_is_byte_identical_to_skipping(seed in 0u64..1000) {
        let nl = random_logic(40, 8, seed);

        let mut skip_milo = Milo::new(ecl_library());
        let mut skip_flow = skip_milo.flow();
        skip_flow.skip_when("bottom-up-logic", |_| true);
        let skipped = skip_flow
            .run(&mut skip_milo, &nl, &Constraints::none())
            .expect("skip flow runs");

        let mut rb_milo = Milo::new(ecl_library());
        let mut rb_flow = rb_milo.flow();
        rb_flow
            .with_policy(
                "bottom-up-logic",
                PassPolicy::on_failure(FailureAction::RollbackAndContinue),
            )
            .inject_faults(injector("panic@bottom-up-logic/*"));
        let rolled = rb_flow
            .run(&mut rb_milo, &nl, &Constraints::none())
            .expect("rollback flow runs");

        prop_assert!(rolled.report.degraded);
        prop_assert!(!skipped.report.degraded);
        prop_assert_eq!(
            fingerprint(&rolled.result.netlist),
            fingerprint(&skipped.result.netlist)
        );
    }
}

/// Budget exhaustion under `SkipPass` keeps the partial (valid, merely
/// over-budget) work and completes the flow, degraded.
#[test]
fn budget_exhaustion_skips_and_keeps_partial_work() {
    let mut milo = Milo::new(ecl_library());
    let mut flow = milo.flow();
    flow.with_policy(
        "bottom-up-logic",
        PassPolicy::on_failure(FailureAction::SkipPass).with_budget(RewriteBudget::rewrites(0)),
    );
    let out = flow
        .run(&mut milo, &random_logic(80, 10, 7), &Constraints::none())
        .expect("flow completes over budget");
    assert!(out.report.degraded);
    let p = out
        .report
        .passes
        .iter()
        .find(|p| p.name == "bottom-up-logic")
        .expect("pass reported");
    assert_eq!(p.outcome, PassOutcome::FailedSkipped);
    assert!(
        p.error.as_deref().is_some_and(|e| e.contains("budget")),
        "{:?}",
        p.error
    );
    assert!(non_dangling(&out.result.netlist).is_empty());
}

/// A pass that takes 3 ms and applies nothing.
struct Slow;

impl Pass for Slow {
    fn name(&self) -> &str {
        "slow"
    }
    fn run(&mut self, _: &mut FlowContext<'_>) -> Result<PassReport, MiloError> {
        std::thread::sleep(Duration::from_millis(3));
        Ok(PassReport::applied(0))
    }
}

/// One wall reading per pass: the wall budget is checked against the
/// duration the report carries, so the budget error quotes it exactly.
#[test]
fn wall_budget_error_quotes_the_reported_wall() {
    let mut milo = Milo::new(ecl_library());
    let mut flow = Flow::empty();
    flow.push(Slow).with_policy(
        "slow",
        PassPolicy::on_failure(FailureAction::SkipPass)
            .with_budget(RewriteBudget::wall(Duration::from_millis(1))),
    );
    let out = flow
        .run(&mut milo, &fig19::circuit3(), &Constraints::none())
        .expect("flow completes over budget");
    let report = &out.report.passes[0];
    assert_eq!(report.outcome, PassOutcome::FailedSkipped);
    let error = report.error.as_deref().expect("budget error recorded");
    assert!(
        error.contains(&format!("{:?} wall > budget", report.wall)),
        "{error} reports {:?}",
        report.wall
    );
}

/// With validation checkpoints on, injected corruption is pinned to the
/// pass that caused it; rollback then recovers to a result identical to
/// a clean run (the recompile after rollback is deterministic).
#[test]
fn validation_checkpoint_pins_and_rollback_recovers() {
    let mut clean_milo = Milo::new(ecl_library());
    let clean = clean_milo
        .synthesize(&fig19::circuit3(), &Constraints::none())
        .expect("clean run");

    let mut milo = Milo::new(ecl_library());
    let mut flow = milo.flow();
    flow.sample_stats(false) // match the synthesize shim exactly
        .validate_each_pass(true)
        .with_policy(
            "compile",
            PassPolicy::on_failure(FailureAction::RollbackAndContinue),
        )
        .inject_faults(injector("corrupt@compile/fig19_3"));
    let out = flow
        .run(&mut milo, &fig19::circuit3(), &Constraints::none())
        .expect("rollback recovers");

    assert!(out.report.degraded);
    let p = out
        .report
        .passes
        .iter()
        .find(|p| p.name == "compile")
        .expect("pass reported");
    assert_eq!(p.outcome, PassOutcome::RolledBack);
    assert!(
        p.error.as_deref().is_some_and(|e| e.contains("validation")),
        "{:?}",
        p.error
    );
    assert_eq!(
        fingerprint(&out.result.netlist),
        fingerprint(&clean.netlist),
        "post-rollback recompile must reproduce the clean result"
    );
}

/// With validation checkpoints on and the default abort policy, the
/// error names the corrupting pass.
#[test]
fn validation_checkpoint_aborts_at_corrupting_pass() {
    let mut milo = Milo::new(ecl_library());
    let mut flow = milo.flow();
    flow.validate_each_pass(true)
        .inject_faults(injector("corrupt@compile/fig19_3"));
    let err = flow
        .run(&mut milo, &fig19::circuit3(), &Constraints::none())
        .expect_err("corruption must not produce a result");
    match err {
        MiloError::ValidationFailed {
            pass,
            design,
            violations,
            recovery,
        } => {
            assert_eq!(pass, "compile");
            assert_eq!(design, "fig19_3");
            assert!(!violations.is_empty());
            assert_eq!(recovery, RecoveryAction::Aborted);
        }
        other => panic!("expected ValidationFailed, got {other:?}"),
    }
}

/// Without per-pass validation, the epilogue's corruption gate still
/// refuses to map/report a structurally corrupt netlist.
#[test]
fn corruption_gate_catches_late_corruption() {
    let mut milo = Milo::new(ecl_library());
    let mut flow = milo.flow();
    flow.inject_faults(injector("corrupt@timing-area/fig19_3"));
    let err = flow
        .run(&mut milo, &fig19::circuit3(), &Constraints::none())
        .expect_err("corrupt netlist must not be reported");
    match err {
        MiloError::DesignCorrupt { design, detail } => {
            assert_eq!(design, "fig19_3");
            assert!(detail.contains("drivers"), "{detail}");
        }
        other => panic!("expected DesignCorrupt, got {other:?}"),
    }
}

/// A rule that does real transactional work (adds a net, removes a
/// component) and then panics — the worst case for mid-sweep recovery.
struct MidSweepPanic;

impl Rule for MidSweepPanic {
    fn name(&self) -> &'static str {
        "mid-sweep-panic"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Logic
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        ctx.nl.component_ids().take(1).map(RuleMatch::at).collect()
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        tx.add_net("doomed_partial_net");
        tx.remove_component(m.site)?;
        panic!("injected mid-sweep fault");
    }
}

// Satellite property: an injected mid-sweep panic (with partially
// applied transactional mutations) plus a journal rollback leaves the
// netlist byte-identical to the checkpoint, for arbitrary designs —
// the engine-level half of checkpoint/rollback.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn midsweep_panic_and_rollback_restore_checkpoint(
        seed in 0u64..10_000,
        gates in 20usize..64,
    ) {
        let lib = cmos_library();
        let mut nl = map_netlist(&random_logic(gates, 8, seed), &lib).expect("maps");
        let mut rules = metarule_rule_set(&lib);
        rules.push(Box::new(MidSweepPanic));
        let mut engine = Engine::new(rules);
        engine.enable_journal();

        let mark = engine.journal_mark();
        let checkpoint = fingerprint(&nl);

        // Real metarule firings interleave with the panicking rule's
        // caught-and-undone attempts.
        let fired = engine.run_sweeps(&mut nl, None, 10);
        prop_assert_eq!(engine.journal_mark(), mark + fired);

        let undone = engine.rollback_to(&mut nl, mark);
        prop_assert_eq!(undone, fired);
        prop_assert_eq!(fingerprint(&nl), checkpoint);
    }
}

/// CI fault-injection matrix entry point: driven entirely by
/// `MILO_FAULT_INJECT`, ignored otherwise. Healthy (and successfully
/// retried) designs must match a clean, injector-disarmed run exactly;
/// targeted designs may instead fail with a structured fault error.
#[test]
#[ignore = "set MILO_FAULT_INJECT and run explicitly (CI fault-injection matrix)"]
fn fault_injection_matrix_golden_designs() {
    let spec = std::env::var("MILO_FAULT_INJECT").unwrap_or_default();
    assert!(
        !spec.trim().is_empty(),
        "this test is driven by MILO_FAULT_INJECT"
    );
    let targeted = |name: &str| {
        spec.split(';').any(|clause| {
            clause
                .split_once('/')
                .map(|(_, d)| {
                    let d = d.split('#').next().unwrap_or(d).trim();
                    d == "*" || d == name
                })
                .unwrap_or(false)
        })
    };

    let designs = [fig19::circuit3(), abadd(), random_logic(80, 10, 7)];
    let mut milo = Milo::new(ecl_library());
    let results = milo.synthesize_batch(&designs, &Constraints::none());

    for (nl, run) in designs.iter().zip(&results) {
        // An empty programmatic injector masks the env injector, so the
        // comparator run is guaranteed clean.
        let mut clean = Milo::new(ecl_library());
        clean.set_fault_injector(Arc::new(FaultInjector::new(Vec::new())));
        let want = clean
            .synthesize(nl, &Constraints::none())
            .expect("clean comparator run");
        match run {
            Ok(got) => {
                assert_eq!(
                    fingerprint(&got.result.netlist),
                    fingerprint(&want.netlist),
                    "{} does not match its clean golden output",
                    nl.name
                );
            }
            Err(e) => {
                assert!(
                    targeted(&nl.name),
                    "untargeted design {} failed: {e}",
                    nl.name
                );
                assert!(
                    matches!(
                        e,
                        MiloError::PassPanicked { .. }
                            | MiloError::DesignCorrupt { .. }
                            | MiloError::BudgetExceeded { .. }
                            | MiloError::ValidationFailed { .. }
                    ),
                    "fault must surface as a structured error, got: {e}"
                );
            }
        }
    }
}
