//! The ABADD walkthrough of Figs. 16 and 18: microarchitecture capture,
//! hierarchical compilation (the register compiler calling the mux
//! compiler), and bottom-up logic optimization with mux+FF merging.
//!
//! ```text
//! cargo run --example abadd
//! ```

use milo::circuits::abadd;
use milo_compilers::expand_micro_components;
use milo_netlist::DesignDb;
use milo_opt::optimize_bottom_up;
use milo_techmap::{ecl_library, map_netlist};
use milo_timing::statistics;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut top = abadd();
    println!(
        "ABADD entry (Fig. 16): {} microarchitecture components",
        top.component_count()
    );

    // Fig. 16: the logic compilers expand ADD4, MUX2:1:4 and REG4;
    // the register compiler calls the multiplexor compiler (MUX4:1:1).
    let mut db = DesignDb::new();
    expand_micro_components(&mut top, &mut db)?;
    let mut names: Vec<&str> = db.names().collect();
    names.sort();
    println!("compiled designs in the database: {names:?}");
    assert!(db.contains("ADD4"));
    assert!(db.contains("MUX2:1:4"));
    assert!(db.contains("MUX4:1:1"), "nested compiler call of Fig. 16");

    let direct = map_netlist(&db.flatten_netlist(&top)?, &ecl_library())?;
    let direct_stats = statistics(&direct)?;

    // Fig. 18: bottom-up optimization, merging mux+FF pairs.
    let (optimized, levels) = optimize_bottom_up(&top, &db, &ecl_library())?;
    let opt_stats = statistics(&optimized)?;

    println!("\nper-level optimization (Fig. 18):");
    for l in &levels {
        println!(
            "  {:>10}: area {:>6.2} -> {:>6.2} ({} rules)",
            l.design, l.before.area, l.after.area, l.fired
        );
    }
    println!("\ndirect-mapped area: {:.2}", direct_stats.area);
    println!("optimized area:     {:.2}", opt_stats.area);
    assert!(opt_stats.area < direct_stats.area);
    Ok(())
}
