//! End-to-end integration tests spanning every crate: entry → critic →
//! compilers → mapper → optimizer, with behavioural equivalence checks.

use milo::circuits::{abadd, fig19, random_logic};
use milo::{parse_netlist, Constraints, Milo};
use milo_compilers::verify::{check_comb_equivalence, check_seq_equivalence};
use milo_netlist::{validate, PinDir, Violation};
use milo_techmap::{cmos_library, ecl_library, map_netlist};
use milo_timing::statistics;

fn non_dangling(nl: &milo_netlist::Netlist) -> Vec<Violation> {
    validate(nl, true)
        .into_iter()
        .filter(|v| !matches!(v, Violation::DanglingOutput { .. }))
        .collect()
}

#[test]
fn fig19_gate_circuit_full_pipeline_equivalence() {
    let case = fig19::circuit3();
    let mut milo = Milo::new(ecl_library());
    let baseline = milo.elaborate_unoptimized(&case).expect("baseline");
    let result = milo
        .synthesize(&case, &Constraints::none())
        .expect("synthesis");
    assert!(result.stats.area <= result.baseline.area);
    assert!(
        non_dangling(&result.netlist).is_empty(),
        "{:?}",
        non_dangling(&result.netlist)
    );
    check_comb_equivalence(&baseline, &result.netlist, 256).expect("function preserved");
}

#[test]
fn fig19_micro_circuit_full_pipeline_equivalence() {
    let case = fig19::circuit8();
    let mut milo = Milo::new(ecl_library());
    let baseline = milo.elaborate_unoptimized(&case).expect("baseline");
    let result = milo
        .synthesize(&case, &Constraints::none())
        .expect("synthesis");
    let critic = result.critic.as_ref().expect("micro entry");
    assert!(critic.fired.contains(&"adder-register-to-counter"));
    assert!(result.stats.area < result.baseline.area);
    check_seq_equivalence(&baseline, &result.netlist, 50, 23).expect("behaviour preserved");
}

#[test]
fn timing_constraint_is_met_and_respected() {
    let case = fig19::circuit4();
    let mut milo = Milo::new(ecl_library());
    let loose = milo.synthesize(&case, &Constraints::none()).expect("loose");
    let target = loose.stats.delay * 0.85;
    let tight = milo
        .synthesize(&case, &Constraints::none().with_max_delay(target))
        .expect("tight");
    assert!(tight.timing.met, "{:?}", tight.timing);
    assert!(tight.stats.delay <= target + 1e-9);
}

#[test]
fn abadd_through_core_pipeline() {
    let entry = abadd();
    let mut milo = Milo::new(ecl_library());
    let baseline = milo.elaborate_unoptimized(&entry).expect("baseline");
    let result = milo
        .synthesize(&entry, &Constraints::none())
        .expect("synthesis");
    // Fig. 18: merged mux-FF macros appear.
    let mxff = result
        .netlist
        .component_ids()
        .filter(|&id| {
            matches!(
                result.netlist.component(id).map(|c| &c.kind),
                Ok(milo_netlist::ComponentKind::Tech(c)) if c.name.starts_with("MXFF")
            )
        })
        .count();
    assert!(mxff >= 4, "expected merged mux-FF macros, got {mxff}");
    check_seq_equivalence(&baseline, &result.netlist, 60, 31).expect("behaviour preserved");
}

#[test]
fn parse_synthesize_roundtrip() {
    let src = "
design parsed
input a b c
output y z
comp and3 g1 A0=a A1=b A2=c Y=t
comp inv  g2 A0=t Y=u
comp inv  g3 A0=u Y=y
comp xor2 g4 A0=a A1=c Y=z
";
    let nl = parse_netlist(src).expect("parses");
    let mut milo = Milo::new(cmos_library());
    let baseline = milo.elaborate_unoptimized(&nl).expect("baseline");
    let result = milo
        .synthesize(&nl, &Constraints::none())
        .expect("synthesis");
    // The inverter pair around t must be gone.
    assert!(result.stats.cells < baseline.component_count());
    check_comb_equivalence(&baseline, &result.netlist, 0).expect("equivalent");
}

#[test]
fn random_logic_survives_both_libraries() {
    for (seed, lib) in [(11u64, ecl_library()), (12, cmos_library())] {
        let nl = random_logic(80, 10, seed);
        let mut milo = Milo::new(lib);
        let baseline = milo.elaborate_unoptimized(&nl).expect("baseline");
        let result = milo
            .synthesize(&nl, &Constraints::none())
            .expect("synthesis");
        assert!(result.stats.area <= statistics(&baseline).expect("stats").area + 1e-9);
        check_comb_equivalence(&baseline, &result.netlist, 600).expect("equivalent");
    }
}

#[test]
fn compiler_cache_reused_across_runs() {
    let mut milo = Milo::new(ecl_library());
    milo.synthesize(&abadd(), &Constraints::none())
        .expect("first run");
    let designs_after_first = milo.database().len();
    milo.synthesize(&abadd(), &Constraints::none())
        .expect("second run");
    // Nothing is new: the compiled component designs (ADD4, MUX2:1:4,
    // REG4…) are cache hits, and no run stores its top.
    assert!(milo.database().contains("ADD4"));
    assert_eq!(milo.database().len(), designs_after_first);
}

#[test]
fn dagon_baseline_agrees_with_lookup_mapper() {
    // The "algorithms only" baseline and the lookup mapper implement the
    // same function on pure gate circuits.
    let nl = random_logic(60, 8, 99);
    let lib = cmos_library();
    let direct = map_netlist(&nl, &lib).expect("maps");
    let dagon = milo_techmap::dagon_map(&nl, &lib, milo_techmap::Objective::Area).expect("maps");
    check_comb_equivalence(&direct, &dagon, 512).expect("equivalent");
}

#[test]
fn ports_survive_synthesis() {
    let case = fig19::circuit1();
    let mut milo = Milo::new(ecl_library());
    let result = milo
        .synthesize(&case, &Constraints::none())
        .expect("synthesis");
    let inputs =
        |nl: &milo_netlist::Netlist| nl.ports().iter().filter(|p| p.dir == PinDir::In).count();
    assert_eq!(inputs(&case), inputs(&result.netlist));
    assert_eq!(case.ports().len(), result.netlist.ports().len());
}

#[test]
fn per_path_constraint_targets_one_output() {
    // Circuit 4 has three outputs (eq, lt, gt). Constrain only `lt`.
    let case = fig19::circuit4();
    let mut milo = Milo::new(ecl_library());
    let loose = milo.synthesize(&case, &Constraints::none()).expect("loose");
    // Find the unconstrained arrival of `lt`.
    let sta = milo_timing::analyze(&loose.netlist).expect("sta");
    let lt_net = loose.netlist.port("lt").expect("lt port").net;
    let lt_arrival = sta.arrival(lt_net);
    let target = lt_arrival * 0.8;
    let tight = milo
        .synthesize(&case, &Constraints::none().with_path_delay("lt", target))
        .expect("tight");
    assert!(tight.timing.met, "{:?}", tight.timing);
    let sta2 = milo_timing::analyze(&tight.netlist).expect("sta");
    let lt_net2 = tight.netlist.port("lt").expect("lt port").net;
    assert!(
        sta2.arrival(lt_net2) <= target + 1e-9,
        "constrained path meets its requirement: {} vs {}",
        sta2.arrival(lt_net2),
        target
    );
}
