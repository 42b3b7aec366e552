//! SOCRATES-style state-space search with metarules (§2.2.2).
//!
//! The optimizer builds a depth-first search tree whose nodes are circuit
//! states and whose arcs are rule applications; backtracking uses the undo
//! log. Metarule parameters bound the tree: `B` (breadth), `Dmax` (depth),
//! `Dapp` (how much of the best sequence is applied), `N` (neighborhood),
//! and `Δcost` (maximum cost increase tolerated per application). Dynamic
//! metarules vary the lookahead depth by rule class — "greater lookahead
//! is required for area-saving rules than general rules … little or no
//! lookahead is required for the most powerful rules".

use crate::engine::{Engine, RuleClass, RuleMatch, Selection};
use milo_netlist::{ComponentId, Netlist};
use milo_timing::{analyze, statistics};
use std::collections::{HashSet, VecDeque};

/// The SOCRATES metarule control parameters (§2.2.2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MetaParams {
    /// `B`: maximum sons per search node.
    pub breadth: usize,
    /// `Dmax`: maximum depth of the search tree.
    pub depth: usize,
    /// `Dapp`: how many rules of the best sequence are applied.
    pub apply_depth: usize,
    /// `N`: restrict rule applications to components within this path
    /// distance of the previous firing (`None` = unrestricted).
    pub neighborhood: Option<usize>,
    /// `Δcost`: maximum tolerated cost increase for a single application.
    pub max_cost_increase: f64,
    /// `R`: weight of area in the cost function.
    pub area_weight: f64,
    /// `S`: weight of delay in the cost function.
    pub delay_weight: f64,
}

impl Default for MetaParams {
    fn default() -> Self {
        Self {
            breadth: 3,
            depth: 3,
            apply_depth: 1,
            neighborhood: None,
            max_cost_increase: 5.0,
            area_weight: 1.0,
            delay_weight: 1.0,
        }
    }
}

/// Counters from a search run.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct SearchStats {
    /// Search-tree nodes visited.
    pub states_explored: usize,
    /// Rules actually applied to the design.
    pub rules_fired: usize,
    /// Candidate (rule, match) evaluations.
    pub evaluations: usize,
}

fn cost_of(nl: &Netlist, p: &MetaParams) -> f64 {
    match statistics(nl) {
        Ok(s) => p.area_weight * s.area + p.delay_weight * s.delay,
        Err(_) => f64::MAX,
    }
}

/// BFS distance between components over the net graph (for `N`).
fn within_distance(nl: &Netlist, from: ComponentId, to: ComponentId, limit: usize) -> bool {
    if from == to {
        return true;
    }
    let mut seen: HashSet<ComponentId> = HashSet::new();
    let mut queue: VecDeque<(ComponentId, usize)> = VecDeque::new();
    queue.push_back((from, 0));
    seen.insert(from);
    while let Some((c, d)) = queue.pop_front() {
        if d >= limit {
            continue;
        }
        let Ok(comp) = nl.component(c) else { continue };
        for pin in &comp.pins {
            let Some(net) = pin.net else { continue };
            let Ok(n) = nl.net(net) else { continue };
            for p in &n.connections {
                if seen.insert(p.component) {
                    if p.component == to {
                        return true;
                    }
                    queue.push_back((p.component, d + 1));
                }
            }
        }
    }
    false
}

/// Lookahead optimization loop. Returns search statistics; the netlist is
/// optimized in place.
///
/// With `dynamic_metarules` the per-branch depth shrinks for high-merit
/// ("powerful") candidates and non-area rules, reproducing the CoBa85
/// observation the paper cites: metarules roughly halve the search cost
/// while keeping the area result.
pub fn lookahead_optimize(
    nl: &mut Netlist,
    engine: &mut Engine,
    params: MetaParams,
    dynamic_metarules: bool,
    max_firings: usize,
) -> SearchStats {
    let mut stats = SearchStats::default();
    let mut last_site: Option<ComponentId> = None;
    while stats.rules_fired < max_firings {
        let (delta, seq) = search(
            nl,
            engine,
            params,
            dynamic_metarules,
            params.depth,
            last_site,
            &mut stats,
        );
        if delta >= -1e-9 || seq.is_empty() {
            break;
        }
        // Apply the first Dapp rules of the best sequence.
        let mut applied = 0;
        for (rule_idx, m) in seq.into_iter().take(params.apply_depth.max(1)) {
            match engine.try_apply(nl, rule_idx, &m) {
                Some((_, _log)) => {
                    applied += 1;
                    stats.rules_fired += 1;
                    last_site = Some(m.site);
                }
                None => break,
            }
        }
        if applied == 0 {
            break;
        }
    }
    stats
}

/// DFS returning (best cost delta, rule sequence achieving it). The
/// netlist is restored before returning.
fn search(
    nl: &mut Netlist,
    engine: &Engine,
    params: MetaParams,
    dynamic: bool,
    depth: usize,
    last_site: Option<ComponentId>,
    stats: &mut SearchStats,
) -> (f64, Vec<(usize, RuleMatch)>) {
    stats.states_explored += 1;
    if depth == 0 {
        return (0.0, Vec::new());
    }
    let base_cost = cost_of(nl, &params);
    let sta = analyze(nl).ok();
    let mut conflict = engine.conflict_set(nl, sta.as_ref(), None);
    if let (Some(n), Some(site)) = (params.neighborhood, last_site) {
        conflict.retain(|(_, m)| within_distance(nl, site, m.site, n));
    }
    // Rank candidates by immediate merit; keep the best B.
    let mut ranked: Vec<(f64, usize, RuleMatch)> = Vec::new();
    for (idx, m) in conflict {
        stats.evaluations += 1;
        let Some((effect, log)) = engine.try_apply(nl, idx, &m) else {
            continue;
        };
        log.undo(nl);
        let merit = effect.merit(params.delay_weight, params.area_weight, 0.0);
        ranked.push((merit, idx, m));
    }
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("merits are not NaN"));
    ranked.truncate(params.breadth);

    let mut best: (f64, Vec<(usize, RuleMatch)>) = (0.0, Vec::new());
    for (merit, idx, m) in ranked {
        let Some((_, log)) = engine.try_apply(nl, idx, &m) else {
            continue;
        };
        let new_cost = cost_of(nl, &params);
        let delta = new_cost - base_cost;
        if delta > params.max_cost_increase {
            // "If the resulting circuit is deemed unacceptable, SOCRATES
            // backtracks to the node's father."
            log.undo(nl);
            continue;
        }
        // Dynamic metarules: powerful rules need little lookahead; area
        // rules warrant the full depth.
        let child_depth = if dynamic {
            let class = engine.rules()[idx].class();
            if merit > 1.0 {
                1 // powerful rule: no further lookahead
            } else if class == RuleClass::Area {
                depth
            } else {
                depth / 2 + 1
            }
        } else {
            depth
        };
        let (future, mut seq) = search(
            nl,
            engine,
            params,
            dynamic,
            child_depth - 1,
            Some(m.site),
            stats,
        );
        log.undo(nl);
        let total = delta + future;
        if total < best.0 {
            seq.insert(0, (idx, m));
            best = (total, seq);
        }
    }
    best
}

/// Greedy (no-lookahead) optimization with the same cost function — the
/// baseline the paper compares lookahead against. Returns rules fired.
pub fn greedy_optimize(
    nl: &mut Netlist,
    engine: &mut Engine,
    params: MetaParams,
    max_firings: usize,
) -> usize {
    engine.run(
        nl,
        Selection::MaxGain {
            delay: params.delay_weight,
            area: params.area_weight,
            power: 0.0,
        },
        None,
        max_firings,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Rule, RuleCtx};
    use crate::undo::Tx;
    use milo_netlist::{ComponentKind, GateFn, GenericMacro, NetlistError, PinDir};

    /// Rule A: replace a BUF with two INVs (cost increase, enables B).
    struct BufToInvs;
    impl Rule for BufToInvs {
        fn name(&self) -> &'static str {
            "buf-to-inverters"
        }
        fn class(&self) -> RuleClass {
            RuleClass::Area
        }
        fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
            ctx.nl
                .component_ids()
                .filter(|&id| {
                    matches!(
                        ctx.nl.component(id).map(|c| &c.kind),
                        Ok(ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)))
                    )
                })
                .map(RuleMatch::at)
                .collect()
        }
        fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
            let a = tx.netlist().pin_net(m.site, "A0").expect("buf input");
            let y = tx.netlist().pin_net(m.site, "Y").expect("buf output");
            tx.remove_component(m.site)?;
            let i1 = tx.add_component(
                "li1",
                ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
            );
            let i2 = tx.add_component(
                "li2",
                ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
            );
            let mid = tx.add_net("lmid");
            tx.connect_named(i1, "A0", a)?;
            tx.connect_named(i1, "Y", mid)?;
            tx.connect_named(i2, "A0", mid)?;
            tx.connect_named(i2, "Y", y)?;
            Ok(())
        }
    }

    /// Rule B: a pair of chained inverters disappears entirely when the
    /// first drives only the second.
    struct InvPair;
    impl Rule for InvPair {
        fn name(&self) -> &'static str {
            "inverter-pair"
        }
        fn class(&self) -> RuleClass {
            RuleClass::Logic
        }
        fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
            let nl = ctx.nl;
            let mut out = Vec::new();
            for id in nl.component_ids() {
                let Ok(c) = nl.component(id) else { continue };
                if !matches!(
                    c.kind,
                    ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1))
                ) {
                    continue;
                }
                let Some(y) = nl.pin_net(id, "Y") else {
                    continue;
                };
                if nl.fanout(y) != 1 {
                    continue;
                }
                let Some(load) = nl.loads(y).first().copied() else {
                    continue;
                };
                let Ok(n) = nl.component(load.component) else {
                    continue;
                };
                if matches!(
                    n.kind,
                    ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1))
                ) {
                    out.push(RuleMatch::at(id).with_aux(vec![load.component]));
                }
            }
            out
        }
        fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
            let input = tx.netlist().pin_net(m.site, "A0").expect("matched");
            let out = tx.netlist().pin_net(m.aux[0], "Y").expect("matched");
            tx.remove_component(m.site)?;
            tx.remove_component(m.aux[0])?;
            tx.move_loads(out, input)?;
            Ok(())
        }
    }

    fn buf_chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("b");
        let mut prev = nl.add_net("a");
        nl.add_port("a", PinDir::In, prev);
        for i in 0..n {
            let g = nl.add_component(
                format!("b{i}"),
                ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)),
            );
            nl.connect_named(g, "A0", prev).unwrap();
            let y = nl.add_net(format!("n{i}"));
            nl.connect_named(g, "Y", y).unwrap();
            prev = y;
        }
        nl.add_port("y", PinDir::Out, prev);
        nl
    }

    #[test]
    fn lookahead_finds_two_step_win() {
        // Greedy can't improve a BUF chain (BUF→2×INV is an immediate
        // loss), but lookahead sees INV-pair elimination afterwards.
        let mut nl = buf_chain(2);
        let mut engine = Engine::new(vec![Box::new(BufToInvs), Box::new(InvPair)]);
        let greedy_fired = greedy_optimize(&mut nl.clone(), &mut engine, MetaParams::default(), 50);
        assert_eq!(greedy_fired, 0, "greedy sees no immediate gain");

        let mut engine2 = Engine::new(vec![Box::new(BufToInvs), Box::new(InvPair)]);
        let params = MetaParams {
            depth: 3,
            breadth: 4,
            apply_depth: 2,
            ..MetaParams::default()
        };
        let stats = lookahead_optimize(&mut nl, &mut engine2, params, false, 50);
        assert!(stats.rules_fired > 0, "lookahead fires: {stats:?}");
        // Each BUF (area ~0.5, delay 0.3) became nothing.
        assert_eq!(nl.component_count(), 0, "{nl:?}");
    }

    #[test]
    fn metarules_reduce_exploration() {
        let run = |dynamic: bool| -> (SearchStats, usize) {
            let mut nl = buf_chain(4);
            let mut engine = Engine::new(vec![Box::new(BufToInvs), Box::new(InvPair)]);
            let params = MetaParams {
                depth: 4,
                breadth: 4,
                apply_depth: 2,
                ..MetaParams::default()
            };
            let stats = lookahead_optimize(&mut nl, &mut engine, params, dynamic, 60);
            (stats, nl.component_count())
        };
        let (full, full_count) = run(false);
        let (meta, meta_count) = run(true);
        assert!(meta.states_explored <= full.states_explored);
        assert_eq!(full_count, meta_count, "same final quality");
    }

    #[test]
    fn neighborhood_limits_candidates() {
        let nl = buf_chain(6);
        let first = nl.component_ids().next().unwrap();
        // Within 2 hops of the first buffer: itself + 2 neighbors.
        let near = nl
            .component_ids()
            .filter(|&c| within_distance(&nl, first, c, 2))
            .count();
        assert_eq!(near, 3);
        let last = nl.component_ids().last().unwrap();
        assert!(!within_distance(&nl, first, last, 2));
        assert!(within_distance(&nl, first, last, 10));
    }
}
