//! Ablation: what each pipeline stage contributes on the Fig. 19 micro
//! circuits. Configurations: direct mapping (baseline), logic optimizer
//! only, + microarchitecture critic, full MILO (+ timing strategies).
//!
//! ```text
//! cargo run -p milo-bench --release --bin ablation
//! ```

use milo_circuits::fig19;
use milo_core::{f2, Constraints, Milo, Table};
use milo_opt::optimize_bottom_up;
use milo_techmap::ecl_library;
use milo_timing::statistics;

fn main() {
    println!("Ablation: per-stage contribution on circuit 8 (the Fig. 14 timer block)\n");
    let case = fig19::circuit8();
    let mut table = Table::new(&["Configuration", "Delay (ns)", "Area (cells)", "Power (mA)"]);

    // (a) direct mapping.
    let mut milo = Milo::new(ecl_library());
    let direct = milo.elaborate_unoptimized(&case).expect("elaborates");
    let direct_stats = statistics(&direct).expect("stats");
    table.row_owned(vec![
        "direct mapping (human proxy)".into(),
        f2(direct_stats.delay),
        f2(direct_stats.area),
        f2(direct_stats.power),
    ]);

    // (b) logic optimizer only (no microarchitecture critic): compile the
    // raw entry, bottom-up optimize, area pass.
    let mut db = milo_netlist::DesignDb::new();
    let lib = ecl_library();
    let mut compiled = case.clone();
    compiled.name = "abl_logic_only".into();
    milo_compilers::expand_micro_components(&mut compiled, &mut db).expect("compiles");
    let (mut logic_only, _) = optimize_bottom_up(&compiled, &db, &lib).expect("optimizes");
    milo_opt::optimize(&mut logic_only, &lib, None, 200);
    let logic_stats = statistics(&logic_only).expect("stats");
    table.row_owned(vec![
        "logic optimizer only".into(),
        f2(logic_stats.delay),
        f2(logic_stats.area),
        f2(logic_stats.power),
    ]);

    // (c) + microarchitecture critic (no timing constraint).
    let mut milo2 = Milo::new(ecl_library());
    let unconstrained = milo2
        .synthesize(&case, &Constraints::none())
        .expect("synthesizes");
    table.row_owned(vec![
        "+ microarchitecture critic".into(),
        f2(unconstrained.stats.delay),
        f2(unconstrained.stats.area),
        f2(unconstrained.stats.power),
    ]);

    // (d) full MILO with a timing constraint (strategies + CLA tradeoffs).
    let target = direct_stats.delay * 0.92;
    let mut milo3 = Milo::new(ecl_library());
    let full = milo3
        .synthesize(&case, &Constraints::none().with_max_delay(target))
        .expect("synthesizes");
    table.row_owned(vec![
        format!("full MILO (delay <= {:.2} ns)", target),
        f2(full.stats.delay),
        f2(full.stats.area),
        f2(full.stats.power),
    ]);

    println!("{}", table.render());
    println!("Reading: the logic optimizer alone cleans seams between compiled macros;");
    println!("the microarchitecture critic's counter rewrite removes whole components");
    println!("(the paper's core claim: gate-level tools cannot recover this structure);");
    println!("the timing run then spends area only where the constraint demands it.");
    println!("(Note: after the counter rewrite there is no adder left to CLA-swap, so very");
    println!("tight constraints on this circuit become infeasible — the flip side of the");
    println!("microarchitecture restructuring the paper advocates.)");
    assert!(
        unconstrained.stats.area < logic_stats.area,
        "critic must add area savings"
    );
    assert!(full.stats.delay <= target + 1e-9, "constraint met");
}
