//! The time-optimizer control flow of Fig. 8, and the overall
//! time → area → power optimization order that SOCRATES popularized
//! (§2.2.2: "rules are applied that optimize time … until all timing
//! constraints are satisfied. Finally, area optimizations are made on
//! noncritical paths").

use crate::critics::{logic_rules, PowerDownSlack};
use crate::strategies::{apply_strategy, StrategyCtx, StrategyId};
use milo_netlist::{ComponentId, NetId, Netlist, PinDir};
use milo_rules::{
    refresh_or_rebuild, Engine, HashRuleTable, LibraryRef, Rule, RuleCtx, Selection, Tx,
};
use milo_techmap::TechLibrary;
use milo_timing::{analyze, Endpoint, IncrementalSta, Sta};
use std::collections::{HashMap, HashSet};

/// One successful strategy application, for traces.
#[derive(Clone, Debug)]
pub struct StrategyFiring {
    /// Which strategy fired.
    pub strategy: StrategyId,
    /// Where.
    pub site: ComponentId,
    /// Worst constraint violation (ns) before the application.
    pub before: f64,
    /// Worst constraint violation (ns) after.
    pub after: f64,
}

/// Result of a timing-optimization run.
#[derive(Clone, Debug)]
pub struct TimingReport {
    /// Whether the constraint was met.
    pub met: bool,
    /// Worst delay at entry.
    pub initial_delay: f64,
    /// Worst delay at exit.
    pub final_delay: f64,
    /// Applied strategies in order.
    pub applied: Vec<StrategyFiring>,
}

impl TimingReport {
    /// The report of a design with no timing constraint: met, with no
    /// strategy applied, at the netlist's current worst delay.
    pub fn unconstrained(nl: &Netlist) -> Self {
        let d = analyze(nl).map(|s| s.worst_delay()).unwrap_or(0.0);
        Self {
            met: true,
            initial_delay: d,
            final_delay: d,
            applied: Vec::new(),
        }
    }
}

/// The required time per timing endpoint (per-path constraints, §6's
/// "parameters for path delays"); `None` leaves an endpoint
/// unconstrained.
type RequiredAt<'a> = dyn Fn(&Endpoint) -> Option<f64> + 'a;

/// Chooses the strategy ordering from the slack magnitude (§4.1.3:
/// "the control strategy can be changed depending on how far the critical
/// path is from the timing constraints").
pub fn strategy_order(deficit_ratio: f64) -> Vec<StrategyId> {
    use StrategyId::*;
    if deficit_ratio < 0.08 {
        // "When the time difference is small, a local optimization can be
        // attempted using some combination of strategies 1 - 4" — no-cost
        // rules before tradeoff rules.
        vec![S1PinSwap, S4BetterMacro, S2PowerUp, S3Factor, S5Duplicate]
    } else if deficit_ratio < 0.25 {
        // Moderate slack: strategy 4 "will be the first strategy examined
        // for moderate gain", then 6.
        vec![
            S4BetterMacro,
            S6BetterMacroCost,
            S3Factor,
            S2PowerUp,
            S5Duplicate,
            S1PinSwap,
        ]
    } else {
        // "When the time difference is great … the circuit can be
        // minimized into a two level circuit using strategy 7"; strategy 8
        // "will be examined for a large slack but … after less costly
        // strategies".
        vec![
            S4BetterMacro,
            S7Minimize,
            S6BetterMacroCost,
            S8ShannonMux,
            S3Factor,
            S2PowerUp,
            S5Duplicate,
            S1PinSwap,
        ]
    }
}

/// Worst violation (arrival − required) over constrained endpoints, and
/// the nets of the endpoints within `margin` of that violation.
fn violations(sta: &Sta, required_at: &RequiredAt<'_>, margin: f64) -> (f64, Vec<NetId>) {
    let mut worst = f64::MIN;
    let mut per_endpoint: Vec<(f64, NetId)> = Vec::new();
    for (e, arrival, net) in sta.endpoints() {
        let Some(r) = required_at(e) else { continue };
        let v = arrival - r;
        per_endpoint.push((v, *net));
        worst = worst.max(v);
    }
    if per_endpoint.is_empty() {
        return (f64::MIN, Vec::new());
    }
    let nets = per_endpoint
        .into_iter()
        .filter(|(v, _)| *v >= worst - margin)
        .map(|(_, n)| n)
        .collect();
    (worst, nets)
}

/// Selects the point of optimization per §4: "the component which the
/// most critical paths pass through", ties broken by "the component …
/// closest to an external input" (the earliest output arrival), and a
/// full tie by the lowest [`ComponentId`], so the choice does not depend
/// on the hash map's iteration order. The candidates are the
/// combinational components on the critical paths into
/// `critical_nets`; blacklisted components, where every strategy has
/// already failed, are skipped.
fn select_point(
    nl: &Netlist,
    sta: &Sta,
    critical_nets: &[NetId],
    blacklist: &HashSet<ComponentId>,
) -> Option<ComponentId> {
    let mut counts: HashMap<ComponentId, usize> = HashMap::new();
    for net in critical_nets {
        for c in sta.critical_path_components(nl, *net) {
            if nl.component(c).is_ok_and(|x| !x.kind.is_sequential()) && !blacklist.contains(&c) {
                *counts.entry(c).or_insert(0) += 1;
            }
        }
    }
    // Criterion 1: max path count. Criterion 2: earliest output arrival.
    // Criterion 3: lowest id.
    counts
        .into_iter()
        .map(|(id, count)| {
            let out_arrival = nl
                .component(id)
                .ok()
                .and_then(|c| {
                    c.pins
                        .iter()
                        .find(|p| p.dir == PinDir::Out)
                        .and_then(|p| p.net)
                        .map(|n| sta.arrival(n))
                })
                .unwrap_or(f64::MAX);
            (id, count, out_arrival)
        })
        .max_by(|a, b| {
            a.1.cmp(&b.1)
                .then(b.2.partial_cmp(&a.2).expect("arrivals are not NaN"))
                .then(b.0.cmp(&a.0))
        })
        .map(|(id, _, _)| id)
}

/// The Fig. 8 loop: analyze → select critical path → select point of
/// optimization → select strategy → select rule → evaluate → iterate.
///
/// `required_at` returns the required time per timing endpoint
/// (per-path constraints, §6's "parameters for path delays"); `None`
/// leaves an endpoint unconstrained. Criticality is measured by
/// violation (arrival − required), so the "critical path … whose delay
/// is furthest from the user's specifications" is selected first, exactly
/// as §4 describes. Strategies whose measured result does not reduce the
/// worst violation are undone via the change log.
pub fn optimize_timing_paths(
    nl: &mut Netlist,
    lib: &TechLibrary,
    hash: &HashRuleTable,
    required_at: &RequiredAt<'_>,
    max_iters: usize,
) -> TimingReport {
    let ctx = StrategyCtx { lib, hash };
    // The feedback cycle maintains one incremental STA: every strategy
    // application (and every undo) refreshes only the touched fan-out
    // cone instead of re-analyzing the whole netlist.
    let mut inc = IncrementalSta::new(nl).ok();
    let initial_delay = inc.as_ref().map(|i| i.sta().worst_delay()).unwrap_or(0.0);
    let mut applied = Vec::new();
    let mut exhausted: HashSet<(ComponentId, StrategyId)> = HashSet::new();
    let mut blacklist: HashSet<ComponentId> = HashSet::new();

    for _ in 0..max_iters {
        let Some(tracker) = inc.as_ref() else { break };
        let sta = tracker.sta();
        let worst_delay = sta.worst_delay();
        let (violation, critical_nets) = violations(sta, required_at, worst_delay * 0.02);
        if violation <= 0.0 || critical_nets.is_empty() {
            return TimingReport {
                met: true,
                initial_delay,
                final_delay: worst_delay,
                applied,
            };
        }
        let deficit_ratio = violation / worst_delay.max(1e-9);
        let Some(site) = select_point(nl, sta, &critical_nets, &blacklist) else {
            break;
        };
        let mut progressed = false;
        for strategy in strategy_order(deficit_ratio) {
            if exhausted.contains(&(site, strategy)) {
                continue;
            }
            exhausted.insert((site, strategy));
            let log = match inc.as_ref() {
                Some(i) => apply_strategy(strategy, nl, site, i.sta(), &ctx),
                None => None,
            };
            let Some(log) = log else { continue };
            let ts = log.touch_set();
            refresh_or_rebuild(&mut inc, nl, &ts);
            let new_violation = inc
                .as_ref()
                .map(|i| violations(i.sta(), required_at, 0.0).0)
                .unwrap_or(f64::MAX);
            if new_violation < violation - 1e-9 {
                applied.push(StrategyFiring {
                    strategy,
                    site,
                    before: violation,
                    after: new_violation,
                });
                progressed = true;
                break;
            }
            // "If the cost of applying the rule is too great or the rule
            // fails to achieve a sizeable gain, a new rule will be
            // selected" — undo and try the next strategy.
            log.undo(nl);
            refresh_or_rebuild(&mut inc, nl, &ts);
        }
        if !progressed {
            // "If the strategy has exhausted all possible rules without
            // solving the critical path, a new strategy will be selected"
            // — and ultimately a new point.
            blacklist.insert(site);
        }
    }
    let final_delay = inc.as_ref().map(|i| i.sta().worst_delay()).unwrap_or(0.0);
    let met = inc
        .as_ref()
        .map(|i| violations(i.sta(), required_at, 0.0).0 <= 0.0)
        .unwrap_or(false);
    TimingReport {
        met,
        initial_delay,
        final_delay,
        applied,
    }
}

/// The area pass: logic-critic cleanups, cone merges and power-down on
/// slack paths, each applied wherever it does not create or worsen a
/// violation of the per-endpoint required times ("area optimizations are
/// made on noncritical paths, possibly at the expense of time").
pub fn optimize_area_paths(
    nl: &mut Netlist,
    lib: &TechLibrary,
    required_at: &RequiredAt<'_>,
    max_steps: usize,
) -> usize {
    let allowed = |inc: &Option<IncrementalSta>, baseline: f64| -> bool {
        inc.as_ref()
            .map(|i| violations(i.sta(), required_at, 0.0).0 <= baseline.max(0.0) + 1e-9)
            .unwrap_or(false)
    };
    let mut inc = IncrementalSta::new(nl).ok();
    let baseline_violation = inc
        .as_ref()
        .map(|i| violations(i.sta(), required_at, 0.0).0)
        .unwrap_or(f64::MIN);
    let mut fired_total = 0usize;
    // Logic critic first: always-beneficial cleanups. The engine refreshes
    // the pass's analysis from its firings and hands it back.
    let mut engine = Engine::new(logic_rules(lib));
    fired_total += engine
        .run_tracked(nl, &mut inc, Selection::OpsOrder, max_steps)
        .fired;
    // Area critic: cone merges into smaller macros, guarded by the timing
    // constraints.
    let hash = HashRuleTable::cached(&LibraryRef { cells: lib.cells() });
    let ctx = crate::strategies::StrategyCtx { lib, hash: &hash };
    // Each pass keeps scanning after a successful merge (every merge
    // decision re-reads the current netlist, so this only changes visit
    // order); passes repeat until a full scan fires nothing. This bounds
    // the quadratic restart-scan-per-fire of the naive loop.
    let mut merges = 0usize;
    while merges < max_steps {
        let sites: Vec<_> = nl.component_ids().collect();
        let mut fired_this_pass = false;
        for site in sites {
            if merges >= max_steps {
                break;
            }
            let Some(log) = crate::strategies::area_macro_merge(nl, site, &ctx) else {
                continue;
            };
            let ts = log.touch_set();
            refresh_or_rebuild(&mut inc, nl, &ts);
            if allowed(&inc, baseline_violation) {
                fired_this_pass = true;
                merges += 1;
                fired_total += 1;
            } else {
                log.undo(nl);
                refresh_or_rebuild(&mut inc, nl, &ts);
            }
        }
        if !fired_this_pass {
            break;
        }
    }
    // Re-run the cleanups the merges may have enabled (skip when no
    // merge fired — the first cleanup run already reached quiescence).
    if merges > 0 {
        fired_total += engine
            .run_tracked(nl, &mut inc, Selection::OpsOrder, max_steps)
            .fired;
    }
    // Power/area downsizing under the timing guard. Every candidate of a
    // pass is tried (guarded individually); a fresh match pass only runs
    // after a pass that changed something.
    let rule = PowerDownSlack::new(lib.clone());
    let mut downsized = 0usize;
    while downsized < max_steps {
        let candidates = match inc.as_ref() {
            Some(i) => rule.matches(&RuleCtx {
                nl,
                sta: Some(i.sta()),
            }),
            None => break,
        };
        let mut fired_this_pass = false;
        for m in candidates {
            if downsized >= max_steps {
                break;
            }
            let mut tx = Tx::new(nl);
            if rule.apply(&mut tx, &m).is_err() {
                continue;
            }
            let log = tx.commit();
            let ts = log.touch_set();
            refresh_or_rebuild(&mut inc, nl, &ts);
            if allowed(&inc, baseline_violation) {
                fired_this_pass = true;
                downsized += 1;
                fired_total += 1;
            } else {
                log.undo(nl);
                refresh_or_rebuild(&mut inc, nl, &ts);
            }
        }
        if !fired_this_pass {
            break;
        }
    }
    fired_total
}

/// Full optimization in the SOCRATES phase order: the Fig. 8 time
/// optimizer until every constraint is met (or no strategy makes
/// progress), then the area pass on the slack that remains. Returns the
/// timing report and the number of area steps applied.
///
/// `required_at` gives the required time per timing endpoint. `None`
/// means the design has no timing constraint: every path is
/// "non-critical", so only the area pass runs.
pub fn optimize(
    nl: &mut Netlist,
    lib: &TechLibrary,
    required_at: Option<&RequiredAt<'_>>,
    max_steps: usize,
) -> (TimingReport, usize) {
    let report = match required_at {
        Some(required_at) => {
            let hash = HashRuleTable::cached(&LibraryRef { cells: lib.cells() });
            optimize_timing_paths(nl, lib, &hash, required_at, max_steps)
        }
        None => TimingReport::unconstrained(nl),
    };
    let area_steps = optimize_area_paths(nl, lib, required_at.unwrap_or(&|_| None), max_steps);
    (report, area_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_compilers::verify::check_comb_equivalence;
    use milo_netlist::{ComponentKind, GateFn, GenericMacro};
    use milo_techmap::{cmos_library, ecl_library};
    use milo_timing::statistics;

    /// A deliberately bad circuit: redundant cone + pessimal pin use.
    fn sloppy_circuit(lib: &TechLibrary) -> Netlist {
        let mut nl = Netlist::new("sloppy");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let c = nl.add_net("c");
        for (n, net) in [("a", a), ("b", b), ("c", c)] {
            nl.add_port(n, PinDir::In, net);
        }
        // (a & b) | (a & !b) | c  — reduces to a | c.
        let nb = nl.add_net("nb");
        let i1 = nl.add_component("i1", ComponentKind::Tech(lib.get("INV").unwrap().clone()));
        nl.connect_named(i1, "A0", b).unwrap();
        nl.connect_named(i1, "Y", nb).unwrap();
        let t1 = nl.add_net("t1");
        let g1 = nl.add_component("g1", ComponentKind::Tech(lib.get("AND2").unwrap().clone()));
        nl.connect_named(g1, "A0", a).unwrap();
        nl.connect_named(g1, "A1", b).unwrap();
        nl.connect_named(g1, "Y", t1).unwrap();
        let t2 = nl.add_net("t2");
        let g2 = nl.add_component("g2", ComponentKind::Tech(lib.get("AND2").unwrap().clone()));
        nl.connect_named(g2, "A0", a).unwrap();
        nl.connect_named(g2, "A1", nb).unwrap();
        nl.connect_named(g2, "Y", t2).unwrap();
        let y = nl.add_net("y");
        let g3 = nl.add_component("g3", ComponentKind::Tech(lib.get("OR3").unwrap().clone()));
        nl.connect_named(g3, "A0", t1).unwrap();
        nl.connect_named(g3, "A1", t2).unwrap();
        nl.connect_named(g3, "A2", c).unwrap();
        nl.connect_named(g3, "Y", y).unwrap();
        nl.add_port("y", PinDir::Out, y);
        nl
    }

    #[test]
    fn timing_optimizer_improves_and_preserves() {
        for lib in [cmos_library(), ecl_library()] {
            let mut nl = sloppy_circuit(&lib);
            let golden = nl.clone();
            let before = analyze(&nl).unwrap().worst_delay();
            let hash = HashRuleTable::cached(&LibraryRef { cells: lib.cells() });
            let report = optimize_timing_paths(&mut nl, &lib, &hash, &|_| Some(before * 0.5), 40);
            assert!(report.final_delay < before, "{}: {report:?}", lib.name);
            assert!(!report.applied.is_empty());
            check_comb_equivalence(&golden, &nl, 0).unwrap_or_else(|e| panic!("{}: {e}", lib.name));
        }
    }

    #[test]
    fn already_met_constraint_is_a_noop() {
        let lib = cmos_library();
        let mut nl = sloppy_circuit(&lib);
        let hash = HashRuleTable::cached(&LibraryRef { cells: lib.cells() });
        let report = optimize_timing_paths(&mut nl, &lib, &hash, &|_| Some(1e9), 40);
        assert!(report.met);
        assert!(report.applied.is_empty());
    }

    #[test]
    fn full_optimize_reduces_area_without_breaking_timing() {
        let lib = ecl_library();
        let mut nl = sloppy_circuit(&lib);
        let golden = nl.clone();
        let before = statistics(&nl).unwrap();
        let (report, _) = optimize(&mut nl, &lib, Some(&|_| Some(before.delay * 0.8)), 60);
        let after = statistics(&nl).unwrap();
        assert!(report.final_delay <= before.delay);
        assert!(after.delay <= before.delay * 0.8 + 1e-9 || !report.met);
        check_comb_equivalence(&golden, &nl, 0).unwrap();
    }

    #[test]
    fn point_of_optimization_picks_shared_component() {
        // Two outputs sharing g1: g1 is on both critical paths.
        let mut nl = Netlist::new("c");
        let a = nl.add_net("a");
        let m = nl.add_net("m");
        let y1 = nl.add_net("y1");
        let y2 = nl.add_net("y2");
        let inv = || ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1));
        let g1 = nl.add_component("g1", inv());
        let g2 = nl.add_component("g2", inv());
        let g3 = nl.add_component("g3", inv());
        nl.connect_named(g1, "A0", a).unwrap();
        nl.connect_named(g1, "Y", m).unwrap();
        nl.connect_named(g2, "A0", m).unwrap();
        nl.connect_named(g2, "Y", y1).unwrap();
        nl.connect_named(g3, "A0", m).unwrap();
        nl.connect_named(g3, "Y", y2).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("y1", PinDir::Out, y1);
        nl.add_port("y2", PinDir::Out, y2);
        let sta = analyze(&nl).unwrap();
        let (_, critical_nets) = violations(&sta, &|_| Some(0.0), 0.01);
        assert_eq!(critical_nets.len(), 2);
        let mut blacklist = HashSet::new();
        assert_eq!(
            select_point(&nl, &sta, &critical_nets, &blacklist),
            Some(g1)
        );
        // Once every strategy has failed at g1, the point moves to a
        // component on one path only. g2 and g3 tie on every criterion,
        // so the lower id wins, on every call (the path counts live in a
        // randomly seeded hash map).
        blacklist.insert(g1);
        for _ in 0..200 {
            assert_eq!(
                select_point(&nl, &sta, &critical_nets, &blacklist),
                Some(g2)
            );
        }
        blacklist.extend([g2, g3]);
        assert_eq!(select_point(&nl, &sta, &critical_nets, &blacklist), None);
    }

    #[test]
    fn strategy_order_changes_with_deficit() {
        let small = strategy_order(0.02);
        let large = strategy_order(0.5);
        assert_eq!(small[0], StrategyId::S1PinSwap);
        assert!(small.len() < large.len());
        assert!(large.contains(&StrategyId::S7Minimize));
        assert!(large.contains(&StrategyId::S8ShannonMux));
        assert!(!small.contains(&StrategyId::S7Minimize));
    }
}
