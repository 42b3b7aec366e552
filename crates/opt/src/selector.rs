//! The time-optimizer control flow of Fig. 8, and the overall
//! time → area → power optimization order that SOCRATES popularized
//! (§2.2.2: "rules are applied that optimize time … until all timing
//! constraints are satisfied. Finally, area optimizations are made on
//! noncritical paths").

use crate::critics::{logic_rules, PowerDownSlack};
use crate::strategies::{apply_strategy, StrategyCtx, StrategyId};
use milo_netlist::{ComponentId, NetId, Netlist, PinDir};
use milo_rules::{
    judge_trial, Engine, HashRuleTable, LibraryRef, Rule, RuleCtx, RuleMatch, Selection, Tx,
};
use milo_techmap::TechLibrary;
use milo_timing::{analyze, Endpoint, IncrementalSta, Sta};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

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

/// `power_down.trials` in the global metrics registry: power-down
/// candidates the area pass applied and judged under its timing guard.
fn obs_power_down_trials() -> &'static milo_trace::Counter {
    static C: OnceLock<Arc<milo_trace::Counter>> = OnceLock::new();
    C.get_or_init(|| milo_trace::Registry::global().counter("power_down.trials"))
}

/// `power_down.skipped`: power-down candidates the guard must reject,
/// skipped without a trial.
fn obs_power_down_skipped() -> &'static milo_trace::Counter {
    static C: OnceLock<Arc<milo_trace::Counter>> = OnceLock::new();
    C.get_or_init(|| milo_trace::Registry::global().counter("power_down.skipped"))
}

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

/// Worst violation (arrival − required) over constrained endpoints;
/// `f64::MIN` without one. Allocates nothing.
fn worst_violation(sta: &Sta, required_at: &RequiredAt<'_>) -> f64 {
    let mut worst = f64::MIN;
    for (e, arrival, _) in sta.endpoints() {
        if let Some(r) = required_at(e) {
            worst = worst.max(arrival - r);
        }
    }
    worst
}

/// [`worst_violation`], with the nets of the constrained endpoints
/// within `margin` of it written to `nets`.
fn critical_endpoints(
    sta: &Sta,
    required_at: &RequiredAt<'_>,
    margin: f64,
    nets: &mut Vec<NetId>,
) -> f64 {
    let worst = worst_violation(sta, required_at);
    nets.clear();
    for (e, arrival, net) in sta.endpoints() {
        if required_at(e).is_some_and(|r| arrival - r >= worst - margin) {
            nets.push(*net);
        }
    }
    worst
}

/// Path counts per component slot for [`select_point`], kept across
/// calls so that a selection allocates nothing once the table has grown
/// to the design. All zero between calls.
#[derive(Default)]
struct PathCounts {
    count: Vec<u32>,
    /// The components counted by the running call, in first-count order.
    seen: Vec<ComponentId>,
}

/// Selects the point of optimization per §4: "the component which the
/// most critical paths pass through", ties broken by "the component …
/// closest to an external input" (the earliest output arrival), and a
/// full tie by the lowest [`ComponentId`], so the choice does not depend
/// on the order the paths are counted in. The candidates are the
/// combinational components on the critical paths into
/// `critical_nets`; blacklisted components, where every strategy has
/// already failed, are skipped.
fn select_point(
    nl: &Netlist,
    sta: &Sta,
    critical_nets: &[NetId],
    blacklist: &HashSet<ComponentId>,
    counts: &mut PathCounts,
) -> Option<ComponentId> {
    if counts.count.len() < nl.component_slot_count() {
        counts.count.resize(nl.component_slot_count(), 0);
    }
    for net in critical_nets {
        for c in sta.critical_path_back(nl, *net) {
            if nl.component(c).is_ok_and(|x| !x.kind.is_sequential()) && !blacklist.contains(&c) {
                let n = &mut counts.count[c.index()];
                if *n == 0 {
                    counts.seen.push(c);
                }
                *n += 1;
            }
        }
    }
    // Criterion 1: max path count. Criterion 2: earliest output arrival.
    // Criterion 3: lowest id.
    let point = counts
        .seen
        .iter()
        .map(|&id| {
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
            (id, counts.count[id.index()], out_arrival)
        })
        .max_by(|a, b| {
            a.1.cmp(&b.1)
                .then(b.2.partial_cmp(&a.2).expect("arrivals are not NaN"))
                .then(b.0.cmp(&a.0))
        })
        .map(|(id, _, _)| id);
    for id in counts.seen.drain(..) {
        counts.count[id.index()] = 0;
    }
    point
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
    // application refreshes only the touched fan-out cone instead of
    // re-analyzing the whole netlist, and a rejected one rolls it back.
    let mut inc = IncrementalSta::new(nl).ok();
    let initial_delay = inc.as_ref().map(|i| i.sta().worst_delay()).unwrap_or(0.0);
    let mut critical_nets = Vec::new();
    let mut counts = PathCounts::default();
    let mut applied = Vec::new();
    let mut exhausted: HashSet<(ComponentId, StrategyId)> = HashSet::new();
    let mut blacklist: HashSet<ComponentId> = HashSet::new();

    for _ in 0..max_iters {
        let Some(tracker) = inc.as_ref() else { break };
        let sta = tracker.sta();
        let worst_delay = sta.worst_delay();
        let violation =
            critical_endpoints(sta, required_at, worst_delay * 0.02, &mut critical_nets);
        if violation <= 0.0 || critical_nets.is_empty() {
            return TimingReport {
                met: true,
                initial_delay,
                final_delay: worst_delay,
                applied,
            };
        }
        let deficit_ratio = violation / worst_delay.max(1e-9);
        let Some(site) = select_point(nl, sta, &critical_nets, &blacklist, &mut counts) else {
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
            // "If the cost of applying the rule is too great or the rule
            // fails to achieve a sizeable gain, a new rule will be
            // selected" — a trial that does not lower the worst
            // violation is undone, and the next strategy is tried.
            let mut new_violation = f64::MAX;
            let kept = judge_trial(&mut inc, nl, log, |inc| {
                new_violation = inc
                    .as_ref()
                    .map_or(f64::MAX, |i| worst_violation(i.sta(), required_at));
                new_violation < violation - 1e-9
            });
            if kept {
                applied.push(StrategyFiring {
                    strategy,
                    site,
                    before: violation,
                    after: new_violation,
                });
                progressed = true;
                break;
            }
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
        .is_some_and(|i| worst_violation(i.sta(), required_at) <= 0.0);
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
///
/// A guarded trial is kept when the worst violation ends at or below
/// the pass-entry violation (or 0, when that is negative). A power-down
/// trial cannot pass while the design is already over that bound and
/// the slower variant is no faster on any input pin and no lighter per
/// load: no arrival can fall. Such candidates are skipped without a
/// trial; debug builds still apply each one and check that the guard
/// rejects it.
pub fn optimize_area_paths(
    nl: &mut Netlist,
    lib: &TechLibrary,
    required_at: &RequiredAt<'_>,
    max_steps: usize,
) -> usize {
    let mut inc = IncrementalSta::new(nl).ok();
    let baseline_violation = inc
        .as_ref()
        .map_or(f64::MIN, |i| worst_violation(i.sta(), required_at));
    let bound = baseline_violation.max(0.0) + 1e-9;
    let allowed = |inc: &Option<IncrementalSta>| -> bool {
        inc.as_ref()
            .is_some_and(|i| worst_violation(i.sta(), required_at) <= bound)
    };
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
            if judge_trial(&mut inc, nl, log, allowed) {
                fired_this_pass = true;
                merges += 1;
                fired_total += 1;
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
        // A rejected trial leaves the analysis as it found it, so the
        // design stays over the bound until a trial is kept.
        let mut over_bound = !allowed(&inc);
        let mut fired_this_pass = false;
        for m in candidates {
            if downsized >= max_steps {
                break;
            }
            if over_bound && rule.never_faster(nl, &m) {
                obs_power_down_skipped().inc();
                debug_assert_guard_rejects(nl, &rule, &m, required_at, bound);
                continue;
            }
            let mut tx = Tx::new(nl);
            if rule.apply(&mut tx, &m).is_err() {
                continue;
            }
            let log = tx.commit();
            obs_power_down_trials().inc();
            if judge_trial(&mut inc, nl, log, allowed) {
                fired_this_pass = true;
                over_bound = false;
                downsized += 1;
                fired_total += 1;
            }
        }
        if !fired_this_pass {
            break;
        }
    }
    fired_total
}

/// The oracle of debug builds for a skipped power-down candidate:
/// applied for real, it leaves the worst violation above `bound`, so
/// the guard would reject it. Measures with a from-scratch [`analyze`],
/// which counts nothing in `sta.*`, and undoes the candidate.
fn debug_assert_guard_rejects(
    nl: &mut Netlist,
    rule: &PowerDownSlack,
    m: &RuleMatch,
    required_at: &RequiredAt<'_>,
    bound: f64,
) {
    if cfg!(debug_assertions) {
        let mut tx = Tx::new(nl);
        if rule.apply(&mut tx, m).is_err() {
            return;
        }
        let log = tx.commit();
        let worst = analyze(nl)
            .ok()
            .map(|sta| worst_violation(&sta, required_at));
        log.undo(nl);
        debug_assert!(
            worst.is_some_and(|w| w > bound),
            "skipped power-down candidate {:?} passes the guard: worst {worst:?}, bound {bound}",
            m.note
        );
    }
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
        let mut critical_nets = Vec::new();
        critical_endpoints(&sta, &|_| Some(0.0), 0.01, &mut critical_nets);
        assert_eq!(critical_nets.len(), 2);
        let mut blacklist = HashSet::new();
        let mut counts = PathCounts::default();
        assert_eq!(
            select_point(&nl, &sta, &critical_nets, &blacklist, &mut counts),
            Some(g1)
        );
        // Once every strategy has failed at g1, the point moves to a
        // component on one path only. g2 and g3 tie on every criterion,
        // so the lower id wins, whichever path is counted first.
        blacklist.insert(g1);
        let reversed: Vec<NetId> = critical_nets.iter().rev().copied().collect();
        for nets in [&critical_nets, &reversed] {
            assert_eq!(
                select_point(&nl, &sta, nets, &blacklist, &mut counts),
                Some(g2)
            );
        }
        blacklist.extend([g2, g3]);
        assert_eq!(
            select_point(&nl, &sta, &critical_nets, &blacklist, &mut counts),
            None
        );
        assert!(
            counts.count.iter().all(|&n| n == 0),
            "the table is left zeroed"
        );
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
