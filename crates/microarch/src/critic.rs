//! The microarchitecture critic (§6.3): local word-level rewrites, plus
//! constraint-driven time/area tradeoffs informed by the compile→map→
//! measure feedback loop of Fig. 16.

use crate::feedback::{Elaborator, FeedbackError};
use crate::rules::{standard_rules, ClaToRipple, RippleToCla};
use milo_netlist::{DesignDb, Netlist};
use milo_rules::{Engine, Rule, RuleCtx, RuleMatch, Selection, Tx};
use milo_techmap::TechLibrary;
use milo_timing::DesignStats;

/// Report from one critic run.
#[derive(Clone, Debug)]
pub struct CriticReport {
    /// Names of rules fired during the unconditional rewrite phase.
    pub fired: Vec<&'static str>,
    /// Mapped-design statistics before the critic ran.
    pub before: DesignStats,
    /// Mapped-design statistics after.
    pub after: DesignStats,
    /// Ripple→CLA upgrades made to meet timing.
    pub cla_upgrades: usize,
    /// CLA→ripple downgrades made to recover area under slack.
    pub ripple_downgrades: usize,
    /// Whether the timing constraint was met (None = unconstrained).
    pub met_timing: Option<bool>,
    /// Feedback measurements taken (compile → map → statistics runs).
    pub measurements: usize,
}

/// Runs the microarchitecture critic on a micro-level netlist.
///
/// Phase 1 applies the always-beneficial structural rewrites (counter
/// recognition, mux merging, decoder/OR simplification, constant
/// propagation, dead-logic cleanup). Phase 2, when `max_delay` is given,
/// uses the feedback loop: upgrade ripple adders to carry-lookahead while
/// the measured mapped delay misses the constraint, then downgrade CLA
/// adders back where slack allows, recovering area — exactly the Fig. 16
/// flow ("changing the parameters of the adder to instantiate a
/// carry-lookahead model").
///
/// Every measurement goes through one [`Elaborator`], so each compiled
/// design is flattened and mapped once per run. Each carry-mode
/// candidate is tried in a [`Tx`] on `nl` itself and measured by
/// swapping that adder's body in the elaborator's live stitched netlist
/// ([`Elaborator::measure_swap`]); a losing trial rolls back, the winner
/// is committed and its body kept ([`Elaborator::keep_swap`]), and its
/// measured statistics stand for the netlist from then on — no netlist
/// is measured twice.
///
/// # Errors
///
/// Propagates feedback-measurement failures.
pub fn optimize(
    nl: &mut Netlist,
    db: &mut DesignDb,
    lib: &TechLibrary,
    max_delay: Option<f64>,
) -> Result<CriticReport, FeedbackError> {
    let mut elab = Elaborator::new();
    let before = elab.measure(nl, db, lib)?;

    // Phase 1: unconditional microarchitecture rewrites.
    let mut engine = Engine::new(standard_rules());
    engine.run(nl, Selection::OpsOrder, 1000);
    let fired: Vec<&'static str> = engine.firings.iter().map(|f| f.rule).collect();
    // Statistics of `nl` as it stands.
    let mut stats = if fired.is_empty() {
        before
    } else {
        elab.measure(nl, db, lib)?
    };

    // Phase 2: constraint-driven carry-mode tradeoffs via feedback.
    let mut cla_upgrades = 0usize;
    let mut ripple_downgrades = 0usize;
    let mut met_timing = None;
    if let Some(limit) = max_delay {
        // Upgrade while failing.
        while stats.delay > limit {
            let rule = RippleToCla;
            let candidates = rule.matches(&RuleCtx { nl, sta: None });
            // Try each candidate, keep the one with the best measured
            // delay (the critic evaluates through the compilers).
            let mut best: Option<(DesignStats, RuleMatch)> = None;
            for m in candidates {
                let mut tx = Tx::new(nl);
                if rule.apply(&mut tx, &m).is_err() {
                    continue;
                }
                if let Ok(s) = elab.measure_swap(tx.netlist(), m.site, db, lib) {
                    if best.as_ref().is_none_or(|(b, _)| s.delay < b.delay) {
                        best = Some((s, m));
                    }
                }
            }
            match best {
                Some((s, m)) => {
                    let mut tx = Tx::new(nl);
                    rule.apply(&mut tx, &m).map_err(FeedbackError::Netlist)?;
                    tx.commit();
                    elab.keep_swap(nl, m.site, db, lib);
                    cla_upgrades += 1;
                    stats = s;
                }
                None => break, // no more adders to upgrade
            }
        }
        // Downgrade where slack allows.
        loop {
            let rule = ClaToRipple;
            let candidates = rule.matches(&RuleCtx { nl, sta: None });
            let mut applied = false;
            for m in candidates {
                let mut tx = Tx::new(nl);
                if rule.apply(&mut tx, &m).is_err() {
                    continue;
                }
                if let Ok(s) = elab.measure_swap(tx.netlist(), m.site, db, lib) {
                    if s.delay <= limit {
                        tx.commit();
                        elab.keep_swap(nl, m.site, db, lib);
                        stats = s;
                        ripple_downgrades += 1;
                        applied = true;
                        break;
                    }
                }
            }
            if !applied {
                break;
            }
        }
        met_timing = Some(stats.delay <= limit);
    }

    Ok(CriticReport {
        fired,
        before,
        after: stats,
        cla_upgrades,
        ripple_downgrades,
        met_timing,
        measurements: elab.measurements(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_netlist::{ArithOps, CarryMode, ComponentKind, MicroComponent, PinDir};
    use milo_techmap::ecl_library;
    use std::collections::BTreeSet;

    /// A 8-bit ripple adder between ports — timing-constrainable.
    fn adder_netlist(bits: u8) -> Netlist {
        let mut nl = Netlist::new("addtop");
        let au = nl.add_component(
            "au",
            ComponentKind::Micro(MicroComponent::ArithmeticUnit {
                bits,
                ops: ArithOps::ADD,
                mode: CarryMode::Ripple,
            }),
        );
        let pins: Vec<(String, PinDir)> = nl
            .component(au)
            .unwrap()
            .pins
            .iter()
            .map(|p| (p.name.clone(), p.dir))
            .collect();
        for (pin, dir) in pins {
            let net = nl.add_net(pin.clone());
            nl.connect_named(au, &pin, net).unwrap();
            nl.add_port(pin, dir, net);
        }
        nl
    }

    #[test]
    fn critic_upgrades_to_cla_under_tight_constraint() {
        let mut nl = adder_netlist(8);
        let mut db = DesignDb::new();
        let lib = ecl_library();
        let unconstrained = crate::measure(&nl, &mut db, &lib).unwrap();
        // Pick a limit between CLA and ripple delay.
        let report = optimize(&mut nl, &mut db, &lib, Some(unconstrained.delay * 0.7)).unwrap();
        assert!(report.cla_upgrades >= 1, "{report:?}");
        assert_eq!(report.met_timing, Some(true), "{report:?}");
        assert!(report.after.delay < report.before.delay);
        assert!(
            report.after.area > report.before.area,
            "speed was bought with area"
        );
    }

    #[test]
    fn critic_stores_only_compiled_designs() {
        let mut nl = adder_netlist(8);
        let lib = ecl_library();
        let direct = crate::measure(&nl, &mut DesignDb::new(), &lib).unwrap();
        let mut db = DesignDb::new();
        optimize(&mut nl, &mut db, &lib, Some(direct.delay * 0.7)).unwrap();
        // The trials compiled both carry modes of the adder; nothing
        // else (no elaboration top) may land in the caller's database.
        let mut compiled = DesignDb::new();
        for mode in [CarryMode::Ripple, CarryMode::CarryLookahead] {
            let adder = MicroComponent::ArithmeticUnit {
                bits: 8,
                ops: ArithOps::ADD,
                mode,
            };
            milo_compilers::compile(&adder, &mut compiled).unwrap();
        }
        let names = |db: &DesignDb| db.names().map(str::to_owned).collect::<BTreeSet<_>>();
        assert_eq!(names(&db), names(&compiled));
    }

    #[test]
    fn critic_measures_each_netlist_once() {
        let mut nl = milo_circuits::pipelined_datapath(16, 8, 7);
        let lib = ecl_library();
        let direct = crate::measure(&nl, &mut DesignDb::new(), &lib).unwrap();
        let report = optimize(
            &mut nl,
            &mut DesignDb::new(),
            &lib,
            Some(direct.delay * 0.8),
        )
        .unwrap();
        // Phase 1 fires nothing here, so: the initial measurement, 100
        // upgrade trials (16 + 15 + … + 9 ripple adders over 8 rounds)
        // and 8 failed downgrade trials. Re-measuring each committed
        // upgrade, the Phase-1 result and the final netlist would take
        // 120.
        assert!(report.fired.is_empty(), "{report:?}");
        assert_eq!(
            (report.cla_upgrades, report.ripple_downgrades),
            (8, 0),
            "{report:?}"
        );
        assert_eq!(report.measurements, 109);
    }

    #[test]
    fn critic_keeps_ripple_under_loose_constraint() {
        let mut nl = adder_netlist(8);
        let mut db = DesignDb::new();
        let lib = ecl_library();
        let report = optimize(&mut nl, &mut db, &lib, Some(1e6)).unwrap();
        assert_eq!(report.cla_upgrades, 0);
        assert_eq!(report.met_timing, Some(true));
    }

    #[test]
    fn critic_recognizes_counter_and_shrinks_design() {
        let mut nl = crate::rules::tests::fig14_netlist(4);
        let mut db = DesignDb::new();
        let lib = ecl_library();
        let report = optimize(&mut nl, &mut db, &lib, None).unwrap();
        assert!(
            report.fired.contains(&"adder-register-to-counter"),
            "{report:?}"
        );
        assert!(
            report.after.area < report.before.area,
            "counter beats adder+register: {report:?}"
        );
    }
}
