//! Contract tests for the composable Flow/pass API: the default flow
//! must reproduce `Milo::synthesize` exactly, `synthesize_batch` must
//! equal per-design sequential runs (stats *and* mapped netlists), and
//! reordered / skipped / custom flows must still produce valid netlists.

use milo::circuits::{datapath, fig19, random_logic};
use milo::{Constraints, FlowEvent, Milo, Pass, PassOutcome, PassReport};
use milo_compilers::verify::check_comb_equivalence;
use milo_netlist::{validate, ComponentKind, DesignDb, Netlist, Violation};
use milo_techmap::ecl_library;
use proptest::prelude::*;

/// A structural fingerprint covering everything synthesis output cares
/// about: components (name, kind, pin bindings), nets, and ports.
/// Unlike `emit_netlist`, it handles technology cells.
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

/// The sorted design names of `db`.
fn design_names(db: &DesignDb) -> Vec<String> {
    let mut names: Vec<String> = db.names().map(str::to_owned).collect();
    names.sort();
    names
}

/// Whether any design of `db` holds a technology cell (compilers emit
/// only generic macros and instances).
fn holds_tech_cells(db: &DesignDb) -> bool {
    db.names().any(|name| {
        let nl = db.get(name).expect("listed design");
        nl.component_ids().any(|id| {
            matches!(
                nl.component(id).map(|c| &c.kind),
                Ok(ComponentKind::Tech(_))
            )
        })
    })
}

fn non_dangling(nl: &Netlist) -> Vec<Violation> {
    validate(nl, true)
        .into_iter()
        .filter(|v| !matches!(v, Violation::DanglingOutput { .. }))
        .collect()
}

#[test]
fn default_flow_matches_synthesize_shim() {
    let cases: Vec<Netlist> = vec![
        fig19::circuit3(), // gate-level
        fig19::circuit8(), // micro-level (critic fires)
        random_logic(80, 10, 7),
    ];
    for case in &cases {
        let mut via_shim = Milo::new(ecl_library());
        let shim = via_shim
            .synthesize(case, &Constraints::none())
            .expect("shim synthesizes");

        let mut via_flow = Milo::new(ecl_library());
        let mut flow = via_flow.flow();
        let out = flow
            .run(&mut via_flow, case, &Constraints::none())
            .expect("flow runs");

        assert_eq!(shim.stats, out.result.stats, "{}", case.name);
        assert_eq!(shim.baseline, out.result.baseline, "{}", case.name);
        assert_eq!(
            fingerprint(&shim.netlist),
            fingerprint(&out.result.netlist),
            "{}",
            case.name
        );
        assert_eq!(shim.buffers_inserted, out.result.buffers_inserted);
        assert_eq!(shim.violations.len(), out.result.violations.len());
        assert_eq!(shim.levels.len(), out.result.levels.len());
        assert_eq!(shim.critic.is_some(), out.result.critic.is_some());
        // The report covers the five paper passes, none skipped.
        assert_eq!(
            out.report
                .passes
                .iter()
                .map(|p| p.name.as_str())
                .collect::<Vec<_>>(),
            vec![
                "micro-critic",
                "compile",
                "bottom-up-logic",
                "fanout-repair",
                "timing-area"
            ]
        );
        assert!(out
            .report
            .passes
            .iter()
            .all(|p| p.outcome != PassOutcome::Skipped));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched synthesis equals per-design sequential synthesis — same
    /// statistics and same mapped netlists — over randomized design
    /// sets. Sequential arms start from a fresh instance, matching the
    /// batch's snapshot semantics (every arm sees the database as of
    /// batch entry).
    #[test]
    fn batch_matches_sequential(count in 1usize..5, seed in any::<u64>(), bits in 2u32..6) {
        let mut designs: Vec<Netlist> = (0..count)
            .map(|i| random_logic(30 + 10 * i, 8, seed.wrapping_add(i as u64)))
            .collect();
        // One micro-level member exercises the critic + compilers arm.
        designs.push(datapath(bits as u8));

        let sequential: Vec<_> = designs
            .iter()
            .map(|nl| {
                Milo::new(ecl_library())
                    .synthesize(nl, &Constraints::none())
                    .expect("sequential synthesizes")
            })
            .collect();

        let mut milo = Milo::new(ecl_library());
        let batch = milo
            .synthesize_batch(&designs, &Constraints::none())
            .into_iter()
            .map(|run| run.map(|out| out.result))
            .collect::<Result<Vec<_>, _>>()
            .expect("batch synthesizes");

        prop_assert_eq!(batch.len(), sequential.len());
        for (b, s) in batch.iter().zip(&sequential) {
            prop_assert_eq!(b.stats, s.stats);
            prop_assert_eq!(b.baseline, s.baseline);
            prop_assert_eq!(fingerprint(&b.netlist), fingerprint(&s.netlist));
            prop_assert_eq!(b.buffers_inserted, s.buffers_inserted);
        }
        // The arms' compiled designs, and nothing else, were folded
        // back into the cache: the gate-level members compile nothing.
        let mut micro_only = Milo::new(ecl_library());
        micro_only
            .synthesize(&datapath(bits as u8), &Constraints::none())
            .expect("micro member synthesizes");
        prop_assert_eq!(
            design_names(milo.database()),
            design_names(micro_only.database())
        );
        prop_assert!(!holds_tech_cells(milo.database()));
    }
}

#[test]
fn batch_of_empty_and_single() {
    let mut milo = Milo::new(ecl_library());
    assert!(milo.synthesize_batch(&[], &Constraints::none()).is_empty());
    let one = milo
        .synthesize_batch(&[fig19::circuit3()], &Constraints::none())
        .pop()
        .expect("one result")
        .expect("single batch");
    let mut fresh = Milo::new(ecl_library());
    let seq = fresh
        .synthesize(&fig19::circuit3(), &Constraints::none())
        .expect("sequential");
    assert_eq!(one.result.stats, seq.stats);
}

#[test]
fn reordering_and_skipping_passes_still_validates() {
    let case = fig19::circuit3();
    let mut reference = Milo::new(ecl_library());
    let baseline = reference
        .elaborate_unoptimized(&case)
        .expect("baseline elaborates");

    // Skip the optional passes: no critic, no bottom-up optimization,
    // fanout repair predicated off. The driver epilogue still maps,
    // repairs fanout, and validates.
    let mut milo = Milo::new(ecl_library());
    let mut flow = milo.flow();
    flow.remove("micro-critic");
    flow.remove("bottom-up-logic");
    flow.skip_when("fanout-repair", |_| true);
    let out = flow
        .run(&mut milo, &case, &Constraints::none())
        .expect("skipping flow runs");
    assert!(
        non_dangling(&out.result.netlist).is_empty(),
        "{:?}",
        non_dangling(&out.result.netlist)
    );
    check_comb_equivalence(&baseline, &out.result.netlist, 256).expect("function preserved");
    let skipped: Vec<_> = out
        .report
        .passes
        .iter()
        .filter(|p| p.outcome == PassOutcome::Skipped)
        .collect();
    assert_eq!(skipped.len(), 1);
    assert_eq!(skipped[0].name, "fanout-repair");

    // Reorder: run the time/area optimizer before the electric critic
    // (a removed boxed pass is itself a pass, so it re-inserts as-is).
    let mut milo2 = Milo::new(ecl_library());
    let mut flow2 = milo2.flow();
    let timing_area = flow2.remove("timing-area").expect("pass exists");
    flow2.insert_before("fanout-repair", timing_area);
    let out2 = flow2
        .run(&mut milo2, &case, &Constraints::none())
        .expect("reordered flow runs");
    assert!(
        non_dangling(&out2.result.netlist).is_empty(),
        "{:?}",
        non_dangling(&out2.result.netlist)
    );
    check_comb_equivalence(&baseline, &out2.result.netlist, 256).expect("function preserved");
}

/// A custom pass: counts mapped cells, applying nothing.
struct CellCensus {
    seen: usize,
}

impl Pass for CellCensus {
    fn name(&self) -> &str {
        "cell-census"
    }
    fn run(&mut self, ctx: &mut milo::FlowContext<'_>) -> Result<PassReport, milo::MiloError> {
        ctx.ensure_mapped()?;
        self.seen = ctx
            .work
            .component_ids()
            .filter(|&id| {
                matches!(
                    ctx.work.component(id).map(|c| &c.kind),
                    Ok(milo_netlist::ComponentKind::Tech(_))
                )
            })
            .count();
        Ok(PassReport::noted(0, format!("{} mapped cells", self.seen)))
    }
}

#[test]
fn custom_pass_insertion_and_observer() {
    let case = fig19::circuit3();
    let mut milo = Milo::new(ecl_library());
    let mut flow = milo.flow();
    flow.insert_after("bottom-up-logic", CellCensus { seen: 0 });

    let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&events);
    flow.observe(move |e| {
        let line = match e {
            FlowEvent::FlowStarted { design, passes } => format!("start {design} {passes}"),
            FlowEvent::PassStarted { name, .. } => format!("pass {name}"),
            FlowEvent::PassFinished { report, .. } => format!("done {}", report.name),
        };
        sink.lock().expect("observer lock").push(line);
    });

    let out = flow
        .run(&mut milo, &case, &Constraints::none())
        .expect("flow runs");
    assert_eq!(out.report.passes.len(), 6);
    assert_eq!(out.report.passes[3].name, "cell-census");
    assert!(out.report.passes[3].note.ends_with("mapped cells"));

    let events = events.lock().expect("events lock");
    assert_eq!(events[0], format!("start {} 6", case.name));
    assert_eq!(events.iter().filter(|l| l.starts_with("pass ")).count(), 6);
    assert_eq!(events.iter().filter(|l| l.starts_with("done ")).count(), 6);

    // The default flow samples statistics, so mapped-stage passes carry
    // before/after deltas, and the report serializes to JSON.
    let timing_pass = out
        .report
        .passes
        .iter()
        .find(|p| p.name == "timing-area")
        .expect("timing pass present");
    assert!(timing_pass.cells_delta().is_some());
    let json = out.to_json();
    for key in [
        "\"result\"",
        "\"flow\"",
        "\"passes\"",
        "\"rules_applied\"",
        "\"design\"",
        "\"stats\"",
        "\"baseline\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
