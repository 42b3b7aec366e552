//! Constraint-driven synthesis: the same 8-bit adder datapath under a
//! loose and a tight timing constraint. The tight run makes the
//! microarchitecture critic swap the ripple adder for carry-lookahead
//! (the Fig. 16 tradeoff), buying speed with area. The critic judges
//! timing on compiled, directly mapped measurements; here the
//! constraint is met only once bottom-up logic optimization has run,
//! so the example checks the result's timing report. The tight run goes
//! through a customized flow — a skip predicate drops the electric
//! critic's first pass when no fanout work is possible — to show the
//! pass-level control the Flow API adds.
//!
//! ```text
//! cargo run --example timing_driven
//! ```

use milo::circuits::datapath;
use milo_core::{Constraints, Milo, PassOutcome};
use milo_techmap::ecl_library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let entry = datapath(8);
    let mut milo = Milo::new(ecl_library());

    let loose = milo.synthesize(&entry, &Constraints::none())?;
    println!(
        "unconstrained: delay {:.2} ns, area {:.1}",
        loose.stats.delay, loose.stats.area
    );

    let target = loose.stats.delay * 0.75;
    let mut flow = milo.flow();
    // Skip the dedicated fanout pass on small designs — the driver's
    // final electric check still repairs any violations.
    flow.skip_when("fanout-repair", |ctx| ctx.work.component_count() < 256);
    let out = flow.run(
        &mut milo,
        &entry,
        &Constraints::none().with_max_delay(target),
    )?;
    let tight = &out.result;
    let critic = tight.critic.as_ref().expect("micro entry");
    println!(
        "constrained to {target:.2} ns: delay {:.2} ns, area {:.1} ({} CLA upgrades)",
        tight.stats.delay, tight.stats.area, critic.cla_upgrades
    );
    println!(
        "timing met: {} (critic's pre-optimization estimate: {:?})",
        tight.timing.met, critic.met_timing
    );
    println!("\nper-pass wall time:");
    for pass in &out.report.passes {
        println!(
            "  {:<16} {:>8.1} µs{}",
            pass.name,
            pass.wall.as_nanos() as f64 / 1000.0,
            if pass.outcome == PassOutcome::Skipped {
                "  (skipped)"
            } else {
                ""
            }
        );
    }
    assert!(tight.stats.delay < loose.stats.delay);
    assert!(
        tight.stats.area > loose.stats.area,
        "speed was bought with area"
    );
    assert!(critic.cla_upgrades >= 1, "the critic chose carry-lookahead");
    assert!(
        tight.timing.met && tight.stats.delay <= target,
        "the result meets the constraint"
    );
    Ok(())
}
