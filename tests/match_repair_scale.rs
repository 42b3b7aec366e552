//! Scale regression tests for the incremental match index under the
//! logic critic: each repair after a real firing stays within the
//! firing's touch set, and the conflict set offers no inverter pair
//! that cannot apply.

use milo::circuits::random_control;
use milo_netlist::Netlist;
use milo_opt::critics::InvPairElimination;
use milo_opt::logic_rules;
use milo_rules::{Engine, Locality, Rule, RuleCtx, RuleMatch, Tx};
use milo_techmap::{ecl_library, map_netlist};

/// The ECL-mapped control design the default flow's logic critic
/// rewrites.
fn mapped_control(gates: usize, seed: u64) -> Netlist {
    map_netlist(&random_control(gates, 24, seed), &ecl_library()).expect("maps")
}

/// Match-index repair by count. The logic critic fires in `OpsOrder` on
/// a 2k-gate design to quiescence; after each firing, the repair must
/// not re-match any rule in full (duplicate-gate merging is keyed, not
/// `Global`), and the components it visits per rule — anchors re-matched
/// for local rules, components re-keyed or re-joined for the keyed one —
/// must stay within 3× the touch set's extent (its components plus the
/// connections of its nets; the worst firing here reaches 1.25×). A full
/// re-match visits the whole design on every firing.
#[test]
fn logic_repairs_stay_within_the_touch_set() {
    let lib = ecl_library();
    let mut nl = mapped_control(2_000, 11);
    let engine = Engine::new(logic_rules(&lib));
    let local_rules = engine
        .rules()
        .iter()
        .filter(|r| r.locality() == Locality::Local)
        .count() as u64;
    let mut index = engine.build_index(&nl, None);
    let mut firings = 0;
    while firings < 10_000 {
        // The engine's `OpsOrder` choice: most specific first, index
        // order among equals, the first that applies.
        let mut conflict: Vec<(usize, RuleMatch)> =
            index.iter().map(|(i, m)| (i, m.clone())).collect();
        conflict.sort_by_key(|(_, m)| std::cmp::Reverse(m.specificity()));
        let Some(log) = conflict.iter().find_map(|(idx, m)| {
            let mut tx = Tx::new(&mut nl);
            // A rejected candidate's transaction rolls back on drop.
            engine.rules()[*idx]
                .apply(&mut tx, m)
                .ok()
                .map(|()| tx.commit())
        }) else {
            break;
        };
        let ts = log.touch_set();
        let before = index.stats();
        index.repair(engine.rules(), &RuleCtx { nl: &nl, sta: None }, &ts);
        let after = index.stats();
        assert_eq!(
            after.global_rematches, before.global_rematches,
            "firing {firings}: a rule was re-matched in full"
        );
        let visited = (after.anchors_rematched - before.anchors_rematched) / local_rules
            + (after.keyed_rejoins - before.keyed_rejoins);
        let extent = ts.components.len()
            + ts.nets
                .iter()
                .map(|&n| nl.net(n).map_or(0, |net| net.connections.len()))
                .sum::<usize>();
        assert!(
            visited <= 3 * extent as u64,
            "firing {firings}: {visited} components visited for a touch set of extent {extent}"
        );
        firings += 1;
    }
    assert!(firings > 100, "only {firings} firings");
}

/// Every inverter pair the logic critic is offered on the mapped 10k
/// design applies: a pair whose second output is port-bound, or with an
/// unconnected pin `apply` needs, is never matched.
#[test]
fn every_offered_inverter_pair_applies() {
    let mut nl = mapped_control(10_000, 7);
    let rule = InvPairElimination;
    let pairs = rule.matches(&RuleCtx { nl: &nl, sta: None });
    assert!(!pairs.is_empty(), "the design has inverter pairs");
    for m in &pairs {
        let mut tx = Tx::new(&mut nl);
        // The transaction rolls back on drop, so every pair is tried
        // on the unmodified design.
        if let Err(e) = rule.apply(&mut tx, m) {
            panic!("offered pair {m:?} fails to apply: {e:?}");
        }
    }
}
