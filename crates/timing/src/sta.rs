//! Static timing analysis: arrival times, critical paths, slacks and the
//! point-of-optimization selection criteria of §4.
//!
//! Two entry points share one propagation core:
//!
//! * [`analyze`] — from-scratch analysis over dense id-indexed vectors
//!   (fanouts and port bindings are O(1) netlist reads; no hash maps on
//!   the hot path);
//! * [`IncrementalSta`] — keeps the last analysis alive and, given the
//!   [`milo_netlist::TouchSet`] of a rewrite, re-evaluates components in
//!   level order outward from the touched ones, stopping wherever a net
//!   comes out bitwise unchanged (early cutoff). The rules engine's
//!   accept/undo loop refreshes it after every transaction instead of
//!   re-analyzing the whole netlist. It also maintains the design
//!   statistics from the same touch set ([`IncrementalSta::stats`]),
//!   and rolls a rejected trial back from a journal of what the trial's
//!   refresh overwrote ([`IncrementalSta::roll_back`]).

use crate::model::{input_pin_delay, load_delay};
use crate::stats::{contribution, count_terms, design_totals, DesignStats, Totals};
use milo_netlist::{
    Component, ComponentId, ComponentKind, NetId, Netlist, NetlistError, PinDir, PinRef, TouchSet,
};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet};

/// `sta.full_rebuilds` in the global metrics registry: how often the
/// incremental path gave up and re-analyzed from scratch — the
/// fallback rate docs/OBSERVABILITY.md tracks.
fn obs_full_rebuilds() -> &'static milo_trace::Counter {
    static C: std::sync::OnceLock<std::sync::Arc<milo_trace::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| milo_trace::Registry::global().counter("sta.full_rebuilds"))
}

/// `sta.refreshes`: incremental refresh requests (the denominator for
/// the fallback rate).
fn obs_refreshes() -> &'static milo_trace::Counter {
    static C: std::sync::OnceLock<std::sync::Arc<milo_trace::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| milo_trace::Registry::global().counter("sta.refreshes"))
}

/// `sta.refresh_props`: components re-evaluated by incremental
/// refreshes — the frontier size the early cutoff keeps small.
fn obs_refresh_props() -> &'static milo_trace::Counter {
    static C: std::sync::OnceLock<std::sync::Arc<milo_trace::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| milo_trace::Registry::global().counter("sta.refresh_props"))
}

/// `sta.endpoint_restructures`: incremental refreshes that re-derived
/// the endpoint list because the set of sequential components changed.
fn obs_endpoint_restructures() -> &'static milo_trace::Counter {
    static C: std::sync::OnceLock<std::sync::Arc<milo_trace::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| milo_trace::Registry::global().counter("sta.endpoint_restructures"))
}

/// `sta.rollbacks`: trials restored from their journal by
/// [`IncrementalSta::roll_back`] instead of re-propagated. Not counted
/// in `sta.refreshes`; a rollback that falls back to a refresh is.
fn obs_rollbacks() -> &'static milo_trace::Counter {
    static C: std::sync::OnceLock<std::sync::Arc<milo_trace::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| milo_trace::Registry::global().counter("sta.rollbacks"))
}

/// `sta.refresh_ns`: wall time of each refresh request, fallback
/// rebuilds included.
fn obs_refresh_ns() -> &'static milo_trace::Histogram {
    static H: std::sync::OnceLock<std::sync::Arc<milo_trace::Histogram>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| milo_trace::Registry::global().histogram("sta.refresh_ns"))
}

/// A timing endpoint: where a path terminates.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// A primary output port, by name.
    Port(String),
    /// An input pin of a sequential element.
    SeqInput(PinRef),
}

/// Result of a timing run. Arrival and predecessor tables are dense
/// vectors indexed by [`NetId::index`].
#[derive(Clone, Debug)]
pub struct Sta {
    arrival: Vec<Option<f64>>,
    /// The driving pin whose input determined each net's arrival.
    pred: Vec<Option<PinRef>>,
    endpoints: Vec<(Endpoint, f64, NetId)>,
    /// The worst of `endpoints`, kept up to date as arrivals change.
    worst: WorstTree,
}

/// Marks an empty slot in the endpoint tables.
const NONE: u32 = u32::MAX;

/// A tournament tree over endpoint arrivals. Each inner node holds the
/// winner of its two children: the later arrival, and among equal
/// arrivals the higher endpoint index, which is `Iterator::max_by`'s
/// choice. The worst endpoint is read at the root, and a changed arrival
/// costs one leaf-to-root walk.
#[derive(Clone, Debug, Default)]
struct WorstTree {
    /// Heap layout: node `i` has children `2i` and `2i + 1`, and leaf
    /// `k` (endpoint `k`, or [`NONE`]) sits at `nodes.len() / 2 + k`.
    nodes: Vec<u32>,
}

impl WorstTree {
    fn build(endpoints: &[(Endpoint, f64, NetId)]) -> Self {
        let leaves = endpoints.len().next_power_of_two();
        let mut nodes = vec![NONE; 2 * leaves];
        for (k, leaf) in nodes[leaves..][..endpoints.len()].iter_mut().enumerate() {
            *leaf = k as u32;
        }
        for i in (1..leaves).rev() {
            nodes[i] = winner(endpoints, nodes[2 * i], nodes[2 * i + 1]);
        }
        Self { nodes }
    }

    /// Replays the matches on endpoint `k`'s path after its arrival
    /// changed.
    fn update(&mut self, endpoints: &[(Endpoint, f64, NetId)], k: usize) {
        let mut i = (self.nodes.len() / 2 + k) / 2;
        while i >= 1 {
            self.nodes[i] = winner(endpoints, self.nodes[2 * i], self.nodes[2 * i + 1]);
            i /= 2;
        }
    }

    /// The worst endpoint's index, `None` without endpoints.
    fn root(&self) -> Option<usize> {
        self.nodes
            .get(1)
            .filter(|&&k| k != NONE)
            .map(|&k| k as usize)
    }
}

/// The winner of a match between endpoint `left` and a later endpoint
/// `right` (either may be [`NONE`]): `right` unless it arrives earlier.
fn winner(endpoints: &[(Endpoint, f64, NetId)], left: u32, right: u32) -> u32 {
    if right == NONE {
        left
    } else if left == NONE || endpoints[right as usize].1 >= endpoints[left as usize].1 {
        right
    } else {
        left
    }
}

/// The latest input arrival of a combinational component, plus its
/// per-pin delay, and the input pin it arrives through. Components
/// without inputs (constants) launch at 0 through pin 0.
fn worst_input(id: ComponentId, comp: &Component, arrival: &[Option<f64>]) -> (f64, PinRef) {
    let mut worst: Option<(f64, PinRef)> = None;
    let mut input_index = 0usize;
    for (pin_idx, pin) in comp.pins.iter().enumerate() {
        if pin.dir != PinDir::In {
            continue;
        }
        let a = pin.net.and_then(|n| arrival[n.index()]).unwrap_or(0.0)
            + input_pin_delay(&comp.kind, input_index);
        input_index += 1;
        if worst.is_none_or(|(w, _)| a > w) {
            worst = Some((a, PinRef::new(id, pin_idx as u16)));
        }
    }
    worst.unwrap_or((0.0, PinRef::new(id, 0)))
}

/// Recomputes one combinational component: reads input arrivals, writes
/// output-net arrivals and predecessors (worst input + per-pin delay,
/// plus fanout-scaled load delay per output).
fn propagate_component(
    nl: &Netlist,
    id: ComponentId,
    arrival: &mut [Option<f64>],
    pred: &mut [Option<PinRef>],
) {
    let Ok(comp) = nl.component(id) else { return };
    let (base, through) = worst_input(id, comp, arrival);
    let ld = load_delay(&comp.kind);
    for pin in &comp.pins {
        if pin.dir != PinDir::Out {
            continue;
        }
        if let Some(net) = pin.net {
            let a = base + ld * nl.fanout(net) as f64;
            // Max-accumulate: a net driven by several sources (or seeded
            // at 0 by an input port) keeps the latest arrival.
            if arrival[net.index()].is_none_or(|cur| a > cur) {
                arrival[net.index()] = Some(a);
                pred[net.index()] = Some(through);
            }
        }
    }
}

/// Builds the endpoint list (output ports + sequential inputs) and their
/// arrivals.
fn collect_endpoints(
    nl: &Netlist,
    arrival: &[Option<f64>],
) -> Result<Vec<(Endpoint, f64, NetId)>, NetlistError> {
    let mut endpoints = Vec::new();
    for p in nl.ports() {
        if p.dir == PinDir::Out {
            let a = arrival[p.net.index()].unwrap_or(0.0);
            endpoints.push((Endpoint::Port(p.name.clone()), a, p.net));
        }
    }
    for id in nl.component_ids() {
        let comp = nl.component(id)?;
        if !comp.kind.is_sequential() {
            continue;
        }
        for (pin_idx, pin) in comp.pins.iter().enumerate() {
            if pin.dir == PinDir::In {
                if let Some(net) = pin.net {
                    let a = arrival[net.index()].unwrap_or(0.0);
                    endpoints.push((Endpoint::SeqInput(PinRef::new(id, pin_idx as u16)), a, net));
                }
            }
        }
    }
    Ok(endpoints)
}

/// Runs static timing analysis.
///
/// Launch points (arrival 0): input-port nets and sequential-element
/// outputs. Capture points: output ports and sequential-element inputs.
/// Component delays come from [`crate::model`]; each output additionally
/// pays `load_delay × fanout`.
///
/// # Errors
///
/// Propagates topological-order failures (combinational cycles).
pub fn analyze(nl: &Netlist) -> Result<Sta, NetlistError> {
    analyze_ordered(nl).map(|(sta, _)| sta)
}

/// [`analyze`], also returning the topological order it propagated in
/// (the seed of [`IncrementalSta`]'s levels).
fn analyze_ordered(nl: &Netlist) -> Result<(Sta, Vec<ComponentId>), NetlistError> {
    let net_cap = nl.net_slot_count();
    let mut arrival: Vec<Option<f64>> = vec![None; net_cap];
    let mut pred: Vec<Option<PinRef>> = vec![None; net_cap];
    for p in nl.ports() {
        if p.dir == PinDir::In {
            arrival[p.net.index()] = Some(0.0);
        }
    }
    let order = nl.topo_order()?;
    for id in &order {
        let comp = nl.component(*id)?;
        if comp.kind.is_sequential() {
            for (pin_idx, pin) in comp.pins.iter().enumerate() {
                if pin.dir == PinDir::Out {
                    if let Some(net) = pin.net {
                        arrival[net.index()] = Some(0.0);
                        pred[net.index()] = Some(PinRef::new(*id, pin_idx as u16));
                    }
                }
            }
        }
    }
    for id in &order {
        let comp = nl.component(*id)?;
        if comp.kind.is_sequential() {
            continue;
        }
        propagate_component(nl, *id, &mut arrival, &mut pred);
    }
    let endpoints = collect_endpoints(nl, &arrival)?;
    let sta = Sta {
        arrival,
        pred,
        worst: WorstTree::build(&endpoints),
        endpoints,
    };
    Ok((sta, order))
}

impl Sta {
    /// Arrival time at a net (0 if unknown).
    pub fn arrival(&self, net: NetId) -> f64 {
        self.arrival
            .get(net.index())
            .copied()
            .flatten()
            .unwrap_or(0.0)
    }

    /// All endpoints with their arrival times.
    pub fn endpoints(&self) -> &[(Endpoint, f64, NetId)] {
        &self.endpoints
    }

    /// The worst (latest) endpoint, the last listed among equals. O(1):
    /// the analysis keeps it up to date.
    pub fn worst(&self) -> Option<(&Endpoint, f64)> {
        self.worst_endpoint().map(|(e, a, _)| (e, *a))
    }

    fn worst_endpoint(&self) -> Option<&(Endpoint, f64, NetId)> {
        self.worst.root().map(|k| &self.endpoints[k])
    }

    /// Worst combinational delay of the design (0 for empty designs).
    pub fn worst_delay(&self) -> f64 {
        self.worst().map_or(0.0, |(_, a)| a)
    }

    /// Reconstructs the component chain of the worst path into `endpoint`
    /// (from launch to capture).
    pub fn critical_path_components(&self, nl: &Netlist, end_net: NetId) -> Vec<ComponentId> {
        let mut out: Vec<ComponentId> = self.critical_path_back(nl, end_net).collect();
        out.reverse();
        out
    }

    /// The component chain of the worst path into `end_net`, from
    /// capture back to launch: [`Sta::critical_path_components`] in
    /// reverse, without allocating.
    pub fn critical_path_back<'a>(
        &'a self,
        nl: &'a Netlist,
        end_net: NetId,
    ) -> impl Iterator<Item = ComponentId> + 'a {
        let mut net = Some(end_net);
        let mut guard = 0usize;
        let limit = nl.component_slot_count() + 2;
        std::iter::from_fn(move || {
            let at = net.take()?;
            let pin = self.pred.get(at.index()).copied().flatten()?;
            guard += 1;
            if guard > limit {
                return None;
            }
            let comp = nl.component(pin.component).ok()?;
            // Continue from the net feeding the recorded input pin,
            // unless this is a launch point.
            if !comp.kind.is_sequential() {
                net = comp
                    .pins
                    .get(pin.pin as usize)
                    .and_then(|p| p.net)
                    .filter(|&prev| prev != at);
            }
            Some(pin.component)
        })
    }
}

/// Incrementally maintained timing analysis.
///
/// Holds the latest [`Sta`] plus the dense helper tables needed to
/// re-propagate arrivals. After a netlist transaction (or its undo),
/// [`IncrementalSta::refresh`] re-evaluates only the components whose
/// inputs actually changed, instead of re-running [`analyze`] over the
/// whole design:
///
/// * **Levels.** Every component slot carries a pseudo-topological
///   level: for each combinational edge `u → v` (`u` drives a net `v`
///   loads, both combinational) `level[u] < level[v]`. A rebuild sets
///   the levels from the topological order. A refresh checks the edges a
///   transaction could have created (those through touched nets, and
///   around touched components) and *raises* a load that violates the
///   invariant, cascading to its fan-out; levels are never lowered, so
///   the check stays O(touched).
/// * **Frontier.** Seeds (touched combinational components, drivers of
///   touched nets, and the loads of touched nets whose value is set
///   directly — undriven, port-driven or sequentially driven — when that
///   value changed) enter a `(level, id)` min-heap. Popping in level
///   order evaluates every component after all of its changed inputs.
/// * **Cutoff.** An evaluated component writes each output net's
///   arrival and predecessor; its loads are queued only when that
///   `(arrival, pred)` pair changed bitwise. A rewrite whose effect dies
///   out after a few gates costs a few evaluations, not its whole
///   fan-out cone.
/// * **Fallbacks to [`IncrementalSta::rebuild`].** A changed port list
///   (the output-port endpoints are stale); a multi-driven net on an
///   evaluated component (the one-writer-per-net model breaks); and
///   more level raises in one refresh than there are components. A new
///   combinational cycle raises forever, so it always ends up there,
///   and the rebuild reports it as [`NetlistError::CombinationalCycle`].
///
/// Endpoint arrivals are rewritten in place on the nets whose arrival a
/// refresh wrote, and the worst endpoint is maintained with them; the
/// endpoint list is only re-derived when the set of sequential
/// components changed (one was added, removed, re-kinded or re-pinned),
/// never for a removed combinational cell. So neither a refresh's seeds
/// nor its endpoint work grow with a touched clock or select net's
/// fanout or with the endpoint count, as long as no sequential cell
/// changes. Results are bitwise equal to a from-scratch
/// [`analyze`], predecessors included (property-tested).
///
/// The design statistics are maintained from the same touch sets:
/// each component slot keeps its `(area, power)` terms, a refresh
/// replaces the terms of the touched slots in exact sums, and
/// [`IncrementalSta::stats`] reads them in O(1), bit for bit equal to
/// [`crate::statistics`].
///
/// A trial (apply a transaction, judge it, undo it when it fails) need
/// not re-propagate on the way back. While a trial is open
/// ([`IncrementalSta::open_trial`]), a refresh journals the prior value
/// of every slot it writes: each net's arrival and predecessor, each
/// endpoint arrival, each raised level, each component slot's terms
/// and instance flag, and the table lengths. After the transaction is
/// undone, [`IncrementalSta::roll_back`] restores them in O(written),
/// replaying the worst-endpoint tree on the restored endpoints, and
/// the analysis is bit for bit what it was before the trial. A trial
/// whose refresh rebuilt the analysis or re-derived the endpoint list
/// rolls back by refreshing from the touch set instead.
#[derive(Clone, Debug)]
pub struct IncrementalSta {
    sta: Sta,
    /// The port count at the last rebuild: output ports are endpoints,
    /// and ports never change during optimization, so a changed count
    /// forces a rebuild.
    ports_len: usize,
    /// Output ports: the leading entries of `sta.endpoints`, in port
    /// order.
    out_ports: usize,
    /// Sequential components, ascending — the endpoint structure cache.
    seq_comps: Vec<ComponentId>,
    /// Pseudo-topological level per component slot (see the type docs).
    level: Vec<u32>,
    /// The endpoints on each net slot, as a linked list: the first
    /// endpoint index per net, and the next one per endpoint ([`NONE`]
    /// ends a list).
    endpoint_head: Vec<u32>,
    endpoint_next: Vec<u32>,
    /// Each component slot's terms in `totals` (`None` for an empty
    /// slot), the totals, and the instance slots, whose presence makes
    /// the statistics an error.
    terms: Vec<SlotTerms>,
    totals: Totals,
    instances: BTreeSet<ComponentId>,
    /// Scratch tables, empty between refreshes: the seed list, the
    /// `(level, id)` frontier, its membership flags per component slot,
    /// the raise worklist, and the nets whose arrival was written.
    seeds: Vec<ComponentId>,
    frontier: BinaryHeap<Reverse<(u32, ComponentId)>>,
    queued: Vec<bool>,
    raises: Vec<(ComponentId, u32)>,
    written: Vec<NetId>,
    /// What the refreshes of the open trial overwrote.
    journal: Journal,
    /// Refresh statistics: components re-evaluated incrementally.
    pub incremental_props: u64,
    /// Refresh statistics: full rebuilds taken.
    pub full_rebuilds: u64,
    /// Trials rolled back from their journal.
    pub rollbacks: u64,
}

impl IncrementalSta {
    /// Analyzes from scratch and caches the helper tables.
    ///
    /// # Errors
    ///
    /// Propagates [`analyze`] failures (combinational cycles).
    pub fn new(nl: &Netlist) -> Result<Self, NetlistError> {
        let mut s = Self {
            sta: Sta {
                arrival: Vec::new(),
                pred: Vec::new(),
                endpoints: Vec::new(),
                worst: WorstTree::default(),
            },
            ports_len: 0,
            out_ports: 0,
            seq_comps: Vec::new(),
            level: Vec::new(),
            endpoint_head: Vec::new(),
            endpoint_next: Vec::new(),
            terms: Vec::new(),
            totals: Totals::default(),
            instances: BTreeSet::new(),
            seeds: Vec::new(),
            frontier: BinaryHeap::new(),
            queued: Vec::new(),
            raises: Vec::new(),
            written: Vec::new(),
            journal: Journal::default(),
            incremental_props: 0,
            full_rebuilds: 0,
            rollbacks: 0,
        };
        s.rebuild(nl)?;
        Ok(s)
    }

    /// The current analysis.
    pub fn sta(&self) -> &Sta {
        &self.sta
    }

    /// The design statistics of the analyzed netlist, read from the
    /// maintained totals and worst endpoint in O(1). Bit for bit equal
    /// to [`crate::statistics`] of the same netlist: the sums are exact,
    /// so their order does not matter.
    ///
    /// # Errors
    ///
    /// [`NetlistError::HierarchyPresent`] naming the first instance in
    /// component order, as [`crate::statistics`] fails.
    pub fn stats(&self) -> Result<DesignStats, NetlistError> {
        match self.instances.first() {
            Some(&first) => Err(NetlistError::HierarchyPresent(first)),
            None => Ok(self.totals.stats(self.sta.worst_delay())),
        }
    }

    /// The oracle for [`IncrementalSta::stats`]: the totals of `nl`
    /// summed from scratch, as [`crate::statistics`] sums them but not
    /// counted in `stats.terms`, with the worst delay found by scanning
    /// every endpoint's net in the arrival table. O(design).
    ///
    /// # Errors
    ///
    /// As [`IncrementalSta::stats`].
    pub fn recount(&self, nl: &Netlist) -> Result<DesignStats, NetlistError> {
        let delay = self
            .sta
            .endpoints
            .iter()
            .map(|&(_, _, net)| self.sta.arrival(net))
            .max_by(|a, b| a.partial_cmp(b).expect("arrivals are not NaN"))
            .unwrap_or(0.0);
        Ok(design_totals(nl)?.stats(delay))
    }

    /// Full re-analysis, refreshing every cached table, resetting the
    /// levels to the topological order, summing the statistics from
    /// scratch and emptying the scratch tables.
    ///
    /// # Errors
    ///
    /// Propagates [`analyze`] failures.
    pub fn rebuild(&mut self, nl: &Netlist) -> Result<(), NetlistError> {
        self.full_rebuilds += 1;
        obs_full_rebuilds().inc();
        self.journal.spoiled = true;
        self.seeds.clear();
        self.frontier.clear();
        self.queued.fill(false);
        self.raises.clear();
        self.written.clear();
        let (sta, order) = analyze_ordered(nl)?;
        self.sta = sta;
        let net_cap = nl.net_slot_count();
        self.ports_len = nl.ports().len();
        self.out_ports = nl.ports().iter().filter(|p| p.dir == PinDir::Out).count();
        self.endpoint_head = vec![NONE; net_cap];
        self.link_endpoints();
        let comp_cap = nl.component_slot_count();
        self.seq_comps.clear();
        self.terms = vec![None; comp_cap];
        self.totals = Totals::default();
        self.instances.clear();
        for id in nl.component_ids() {
            let comp = nl.component(id)?;
            if comp.kind.is_sequential() {
                self.seq_comps.push(id);
            }
            let t = contribution(&comp.kind);
            self.totals.add(t);
            self.terms[id.index()] = Some(t);
            if matches!(comp.kind, ComponentKind::Instance { .. }) {
                self.instances.insert(id);
            }
        }
        count_terms(nl.component_count());
        self.level = vec![0; comp_cap];
        for (pos, id) in order.iter().enumerate() {
            self.level[id.index()] = pos as u32;
        }
        self.queued.resize(comp_cap, false);
        Ok(())
    }

    /// Re-evaluates what `touched` changed after a netlist edit (or
    /// after undoing one — the same touch set applies), in level order
    /// with early cutoff (see the type docs).
    ///
    /// # Errors
    ///
    /// Propagates analysis failures (combinational cycles); the state is
    /// rebuilt from scratch when the incremental path cannot apply.
    pub fn refresh(&mut self, nl: &Netlist, touched: &TouchSet) -> Result<(), NetlistError> {
        if touched.is_empty() {
            return Ok(());
        }
        obs_refreshes().inc();
        let started = std::time::Instant::now();
        let props = self.incremental_props;
        let result = self.refresh_frontier(nl, touched);
        obs_refresh_props().add(self.incremental_props - props);
        obs_refresh_ns().record(started.elapsed().as_nanos() as u64);
        result
    }

    /// Opens a trial: until [`IncrementalSta::keep_trial`] or
    /// [`IncrementalSta::roll_back`], refreshes journal what they
    /// overwrite. Opening discards the journal of a trial left open.
    pub fn open_trial(&mut self) {
        let j = &mut self.journal;
        j.open = true;
        j.spoiled = false;
        j.net_len = self.sta.arrival.len();
        j.level_len = self.level.len();
        j.terms_len = self.terms.len();
        j.nets.clear();
        j.endpoints.clear();
        j.levels.clear();
        j.terms.clear();
    }

    /// Closes the open trial, keeping what its refreshes wrote.
    pub fn keep_trial(&mut self) {
        self.journal.open = false;
    }

    /// Closes the open trial after its transaction was undone, so that
    /// `nl` is again the netlist the trial started from, and brings the
    /// analysis back to it. Restores the journal in O(written) and
    /// counts a `sta.rollbacks`; with no trial open, or when a refresh
    /// of the trial rebuilt the analysis or re-derived the endpoint
    /// list, refreshes from `touched` (the trial's touch set) instead.
    ///
    /// # Errors
    ///
    /// As [`IncrementalSta::refresh`], on the refresh path.
    pub fn roll_back(&mut self, nl: &Netlist, touched: &TouchSet) -> Result<(), NetlistError> {
        let open = std::mem::replace(&mut self.journal.open, false);
        if !open || self.journal.spoiled {
            return self.refresh(nl, touched);
        }
        self.rollbacks += 1;
        obs_rollbacks().inc();
        let mut j = std::mem::take(&mut self.journal);
        for &(net, arrival, pred) in j.nets.iter().rev() {
            self.sta.arrival[net.index()] = arrival;
            self.sta.pred[net.index()] = pred;
        }
        self.sta.arrival.truncate(j.net_len);
        self.sta.pred.truncate(j.net_len);
        self.endpoint_head.truncate(j.net_len);
        for &(k, a) in j.endpoints.iter().rev() {
            self.sta.endpoints[k as usize].1 = a;
        }
        // Replayed after every arrival is back: each match on a changed
        // path is then last decided between restored children.
        for &(k, _) in &j.endpoints {
            self.sta.worst.update(&self.sta.endpoints, k as usize);
        }
        for &(id, level) in j.levels.iter().rev() {
            self.level[id.index()] = level;
        }
        self.level.truncate(j.level_len);
        let mut replaced = 0;
        for &(id, terms, instance) in j.terms.iter().rev() {
            let slot = &mut self.terms[id.index()];
            if let Some(t) = slot.take() {
                self.totals.remove(t);
                replaced += 1;
            }
            if let Some(t) = terms {
                self.totals.add(t);
                *slot = Some(t);
                replaced += 1;
            }
            if instance {
                self.instances.insert(id);
            } else {
                self.instances.remove(&id);
            }
        }
        self.terms.truncate(j.terms_len);
        count_terms(replaced);
        self.debug_assert_levels(nl, touched);
        j.nets.clear();
        j.endpoints.clear();
        j.levels.clear();
        j.terms.clear();
        self.journal = j;
        Ok(())
    }

    /// The level oracle of debug builds: every combinational edge
    /// through a touched net, or into or out of a touched component,
    /// goes strictly upward — what a refresh's level check would leave.
    fn debug_assert_levels(&self, nl: &Netlist, touched: &TouchSet) {
        if !cfg!(debug_assertions) {
            return;
        }
        let up = |from: ComponentId, to: ComponentId| {
            !is_combinational(nl, from)
                || !is_combinational(nl, to)
                || self.level[from.index()] < self.level[to.index()]
        };
        let nets = touched.nets.iter().copied();
        let around = touched
            .components
            .iter()
            .filter_map(|&id| nl.component(id).ok());
        for net in nets.chain(around.flat_map(|c| c.pins.iter().filter_map(|p| p.net))) {
            let Some(d) = nl.driver(net) else { continue };
            for load in nl.load_pins(net) {
                debug_assert!(
                    up(d.component, load.component),
                    "level invariant broken after a rollback at {:?} -> {:?}",
                    d.component,
                    load.component
                );
            }
        }
    }

    /// Journals a net slot's `(arrival, pred)` before a write, in a
    /// trial.
    fn journal_net(&mut self, net: NetId) {
        if self.journal.open {
            let i = net.index();
            let prior = (net, self.sta.arrival[i], self.sta.pred[i]);
            self.journal.nets.push(prior);
        }
    }

    fn refresh_frontier(&mut self, nl: &Netlist, touched: &TouchSet) -> Result<(), NetlistError> {
        // Ports changed (never happens inside rule transactions): the
        // output-port endpoints are stale, rebuild.
        if nl.ports().len() != self.ports_len {
            return self.rebuild(nl);
        }
        let net_cap = nl.net_slot_count();
        let comp_cap = nl.component_slot_count();
        // A journal cannot give back slots a shrinking table drops (a
        // trial's own transaction only adds slots).
        self.journal.spoiled |= net_cap < self.sta.arrival.len() || comp_cap < self.level.len();
        self.sta.arrival.resize(net_cap, None);
        self.sta.pred.resize(net_cap, None);
        self.endpoint_head.resize(net_cap, NONE);
        self.refresh_terms(nl, touched);
        // Slots past the old capacity (new components, or slots freed
        // and re-allocated by an undo) start at level 0; the edge checks
        // below raise them.
        self.level.resize(comp_cap, 0);
        self.queued.resize(comp_cap, false);

        // Seeds: touched combinational components, drivers of touched
        // nets, and the loads of nets whose value is set directly here
        // when that value changed; sequential touches re-launch their
        // outputs.
        let mut seeds = std::mem::take(&mut self.seeds);
        let known_seq = self.seq_comps.len();
        let mut endpoint_dirty = false;
        for &id in &touched.components {
            // A component that left the set of sequential components
            // (removed, or re-kinded combinational) leaves stale endpoints
            // behind. A removed combinational component owns none.
            let was_seq = || self.seq_comps[..known_seq].binary_search(&id).is_ok();
            match nl.component(id) {
                Err(_) => endpoint_dirty |= was_seq(),
                Ok(c) if c.kind.is_sequential() => {
                    self.seq_comps.push(id);
                    endpoint_dirty = true;
                    for (pin_idx, pin) in c.pins.iter().enumerate() {
                        if pin.dir == PinDir::Out {
                            if let Some(net) = pin.net {
                                let launch = Some(PinRef::new(id, pin_idx as u16));
                                self.set_direct(nl, net, Some(0.0), launch, &mut seeds);
                            }
                        }
                    }
                }
                Ok(_) => {
                    endpoint_dirty |= was_seq();
                    seeds.push(id);
                }
            }
        }
        for &n in &touched.nets {
            if nl.net(n).is_err() {
                // Removed net: clear its slots.
                if n.index() < net_cap {
                    self.journal_net(n);
                    self.sta.arrival[n.index()] = None;
                    self.sta.pred[n.index()] = None;
                    self.written.push(n);
                }
                continue;
            }
            match nl.driver(n) {
                Some(d) => {
                    let comp = nl.component(d.component)?;
                    if comp.kind.is_sequential() {
                        self.set_direct(nl, n, Some(0.0), Some(d), &mut seeds);
                    } else {
                        seeds.push(d.component);
                    }
                }
                None => {
                    let floor = nl.net_is_port_driven(n).then_some(0.0);
                    self.set_direct(nl, n, floor, None, &mut seeds);
                }
            }
        }
        if endpoint_dirty {
            // The endpoint list will be re-derived.
            self.journal.spoiled = true;
            self.seq_comps.sort();
            self.seq_comps.dedup();
            self.seq_comps
                .retain(|&id| nl.component(id).is_ok_and(|c| c.kind.is_sequential()));
        }

        // Restore the level invariant on every edge the transaction
        // could have created or made combinational.
        if !self.restore_levels(nl, touched) {
            self.seeds = seeds; // emptied by the rebuild
            return self.rebuild(nl);
        }

        // Level-ordered propagation with early cutoff.
        for id in seeds.drain(..) {
            self.enqueue(nl, id);
        }
        self.seeds = seeds;
        while let Some(Reverse((lvl, id))) = self.frontier.pop() {
            self.queued[id.index()] = false;
            let Ok(comp) = nl.component(id) else { continue };
            self.incremental_props += 1;
            let (base, through) = worst_input(id, comp, &self.sta.arrival);
            let ld = load_delay(&comp.kind);
            for pin in &comp.pins {
                let (PinDir::Out, Some(net)) = (pin.dir, pin.net) else {
                    continue;
                };
                // Multi-driven nets break the one-writer model.
                if nl.driver_count(net) > 1 {
                    return self.rebuild(nl);
                }
                let i = net.index();
                let a = base + ld * nl.fanout(net) as f64;
                // The from-scratch value: an input port seeds the net at
                // 0, and the driver's arrival must beat it (the
                // max-accumulate of `propagate_component`).
                let floor = nl.net_is_port_driven(net).then_some(0.0);
                let (arrival, pred) = if floor.is_none_or(|cur| a > cur) {
                    (Some(a), Some(through))
                } else {
                    (floor, None)
                };
                if self.sta.arrival[i].map(f64::to_bits) == arrival.map(f64::to_bits)
                    && self.sta.pred[i] == pred
                {
                    continue; // cutoff: the loads see nothing new
                }
                self.journal_net(net);
                self.sta.arrival[i] = arrival;
                self.sta.pred[i] = pred;
                self.written.push(net);
                for load in nl.load_pins(net) {
                    debug_assert!(
                        self.level[load.component.index()] > lvl
                            || !is_combinational(nl, load.component),
                        "level invariant broken at {:?} -> {:?}",
                        id,
                        load.component
                    );
                    self.enqueue(nl, load.component);
                }
            }
        }
        self.refresh_endpoints(nl, endpoint_dirty)
    }

    /// Sets a net whose value the refresh knows without evaluating a
    /// driver (undriven, port-driven or sequentially driven) and seeds
    /// its loads, unless its `(arrival, pred)` pair is bitwise unchanged:
    /// the frontier's own cutoff. That is sound because a load re-pinned
    /// onto or off the net is itself a touched component, seeded on its
    /// own, so an unchanged net has no load with anything new to read.
    fn set_direct(
        &mut self,
        nl: &Netlist,
        net: NetId,
        arrival: Option<f64>,
        pred: Option<PinRef>,
        seeds: &mut Vec<ComponentId>,
    ) {
        let i = net.index();
        if self.sta.arrival[i].map(f64::to_bits) == arrival.map(f64::to_bits)
            && self.sta.pred[i] == pred
        {
            return;
        }
        self.journal_net(net);
        self.sta.arrival[i] = arrival;
        self.sta.pred[i] = pred;
        self.written.push(net);
        seeds.extend(nl.load_pins(net).map(|p| p.component));
    }

    /// Raises levels until every combinational edge through a touched
    /// net, or into or out of a touched component, goes strictly
    /// upward. Returns `false` when the raises of one refresh pass the
    /// component count: a combinational cycle raises forever, and an
    /// acyclic rewrite that needs that many is cheaper to rebuild.
    fn restore_levels(&mut self, nl: &Netlist, touched: &TouchSet) -> bool {
        let mut budget = nl.component_slot_count();
        for &n in &touched.nets {
            let Some(d) = nl.driver(n) else { continue };
            if !is_combinational(nl, d.component) {
                continue;
            }
            let above = self.level[d.component.index()].saturating_add(1);
            for load in nl.load_pins(n) {
                if !self.raise(nl, load.component, above, &mut budget) {
                    return false;
                }
            }
        }
        for &id in &touched.components {
            let Ok(comp) = nl.component(id) else { continue };
            if comp.kind.is_sequential() {
                continue;
            }
            for pin in &comp.pins {
                let (PinDir::In, Some(net)) = (pin.dir, pin.net) else {
                    continue;
                };
                if let Some(d) = nl.driver(net) {
                    if is_combinational(nl, d.component) {
                        let above = self.level[d.component.index()].saturating_add(1);
                        if !self.raise(nl, id, above, &mut budget) {
                            return false;
                        }
                    }
                }
            }
            let above = self.level[id.index()].saturating_add(1);
            for pin in &comp.pins {
                let (PinDir::Out, Some(net)) = (pin.dir, pin.net) else {
                    continue;
                };
                for load in nl.load_pins(net) {
                    if !self.raise(nl, load.component, above, &mut budget) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Lifts combinational `id` to at least level `min`, cascading
    /// through its combinational fan-out; every raise spends one unit of
    /// `budget`. `false` when the budget (or the level range) runs out.
    fn raise(&mut self, nl: &Netlist, id: ComponentId, min: u32, budget: &mut usize) -> bool {
        let mut work = std::mem::take(&mut self.raises);
        work.push((id, min));
        let mut ok = true;
        while let Some((c, m)) = work.pop() {
            let Ok(comp) = nl.component(c) else { continue };
            // Sequential inputs cut combinational paths.
            if comp.kind.is_sequential() || self.level[c.index()] >= m {
                continue;
            }
            if *budget == 0 || m == u32::MAX {
                ok = false;
                break;
            }
            *budget -= 1;
            if self.journal.open {
                self.journal.levels.push((c, self.level[c.index()]));
            }
            self.level[c.index()] = m;
            for pin in &comp.pins {
                let (PinDir::Out, Some(net)) = (pin.dir, pin.net) else {
                    continue;
                };
                work.extend(nl.load_pins(net).map(|p| (p.component, m + 1)));
            }
        }
        work.clear();
        self.raises = work;
        ok
    }

    /// Puts a live combinational component on the frontier once.
    fn enqueue(&mut self, nl: &Netlist, id: ComponentId) {
        if !is_combinational(nl, id) || self.queued[id.index()] {
            return;
        }
        self.queued[id.index()] = true;
        self.frontier.push(Reverse((self.level[id.index()], id)));
    }

    /// Brings endpoint arrivals up to date in place, on the nets whose
    /// arrival this refresh wrote, and the worst endpoint with them;
    /// `restructure` re-derives the sequential endpoints after the set of
    /// sequential components changed. Output-port endpoints keep their
    /// entries: the port list is immutable between rebuilds.
    fn refresh_endpoints(&mut self, nl: &Netlist, restructure: bool) -> Result<(), NetlistError> {
        let mut written = std::mem::take(&mut self.written);
        if restructure {
            obs_endpoint_restructures().inc();
            written.clear();
            for &(_, _, net) in &self.sta.endpoints {
                if let Some(head) = self.endpoint_head.get_mut(net.index()) {
                    *head = NONE;
                }
            }
            let endpoints = &mut self.sta.endpoints;
            endpoints.truncate(self.out_ports);
            for &id in &self.seq_comps {
                let comp = nl.component(id)?;
                for (pin_idx, pin) in comp.pins.iter().enumerate() {
                    if pin.dir == PinDir::In {
                        if let Some(net) = pin.net {
                            let at = PinRef::new(id, pin_idx as u16);
                            endpoints.push((Endpoint::SeqInput(at), 0.0, net));
                        }
                    }
                }
            }
            for (_, a, net) in endpoints.iter_mut() {
                *a = self.sta.arrival[net.index()].unwrap_or(0.0);
            }
            self.sta.worst = WorstTree::build(endpoints);
            self.link_endpoints();
        }
        for net in written.drain(..) {
            let a = self.sta.arrival[net.index()].unwrap_or(0.0);
            let mut next = self.endpoint_head[net.index()];
            while next != NONE {
                let k = next as usize;
                if self.sta.endpoints[k].1.to_bits() != a.to_bits() {
                    if self.journal.open {
                        self.journal.endpoints.push((next, self.sta.endpoints[k].1));
                    }
                    self.sta.endpoints[k].1 = a;
                    self.sta.worst.update(&self.sta.endpoints, k);
                }
                next = self.endpoint_next[k];
            }
        }
        self.written = written;
        Ok(())
    }

    /// Threads every endpoint into its net's list (the heads of the nets
    /// involved must be [`NONE`]).
    fn link_endpoints(&mut self) {
        self.endpoint_next.clear();
        for (k, &(_, _, net)) in self.sta.endpoints.iter().enumerate() {
            let head = &mut self.endpoint_head[net.index()];
            self.endpoint_next.push(*head);
            *head = k as u32;
        }
    }

    /// Replaces the terms of every touched component slot in the
    /// statistics totals: added, removed, re-kinded and freed-tail slots
    /// alike (an undo frees tail slots its transaction added, and the
    /// touch set lists those).
    fn refresh_terms(&mut self, nl: &Netlist, touched: &TouchSet) {
        let comp_cap = nl.component_slot_count();
        if self.terms.len() < comp_cap {
            self.terms.resize(comp_cap, None);
        }
        let mut replaced = 0;
        for &id in &touched.components {
            let Some(slot) = self.terms.get_mut(id.index()) else {
                continue;
            };
            let comp = nl.component(id).ok();
            let new = comp.map(|c| contribution(&c.kind));
            let instance = comp.is_some_and(|c| matches!(c.kind, ComponentKind::Instance { .. }));
            let bits = |t: Option<(f64, f64)>| t.map(|(a, p)| (a.to_bits(), p.to_bits()));
            let was_instance = self.instances.contains(&id);
            if bits(*slot) == bits(new) && was_instance == instance {
                continue;
            }
            if self.journal.open {
                self.journal.terms.push((id, *slot, was_instance));
            }
            if let Some(old) = slot.take() {
                self.totals.remove(old);
                replaced += 1;
            }
            if let Some(t) = new {
                self.totals.add(t);
                *slot = Some(t);
                replaced += 1;
            }
            if instance {
                self.instances.insert(id);
            } else {
                self.instances.remove(&id);
            }
        }
        debug_assert!(
            self.terms[comp_cap..].iter().all(Option::is_none),
            "a freed component slot missing from the touch set"
        );
        self.terms.truncate(comp_cap);
        count_terms(replaced);
    }
}

/// The prior values the refreshes of an open trial overwrote, in write
/// order (see [`IncrementalSta`]).
#[derive(Clone, Debug, Default)]
struct Journal {
    /// A trial is open: refreshes journal.
    open: bool,
    /// A refresh of the trial rebuilt the analysis, re-derived the
    /// endpoint list or shrank a table: the rollback refreshes instead.
    spoiled: bool,
    /// Table lengths at the trial's start: the net tables, the levels
    /// and the terms.
    net_len: usize,
    level_len: usize,
    terms_len: usize,
    /// Per net slot written: its arrival and predecessor.
    nets: Vec<(NetId, Option<f64>, Option<PinRef>)>,
    /// Per endpoint written: its index and arrival.
    endpoints: Vec<(u32, f64)>,
    /// Per level raised: the component and its level.
    levels: Vec<(ComponentId, u32)>,
    /// Per component slot replaced in the totals: its terms and whether
    /// it held an instance.
    terms: Vec<(ComponentId, SlotTerms, bool)>,
}

/// A component slot's `(area, power)` terms in the totals (`None` for
/// an empty slot).
type SlotTerms = Option<(f64, f64)>;

/// Whether `id` is a live combinational component.
fn is_combinational(nl: &Netlist, id: ComponentId) -> bool {
    nl.component(id).is_ok_and(|c| !c.kind.is_sequential())
}

/// The components on the worst critical path: the path into the latest
/// endpoint (the last one listed, among equals). Built with one path
/// walk, so a rule testing every component for criticality pays O(path)
/// once instead of once per component. Empty for a design without
/// endpoints.
pub fn worst_path_components(nl: &Netlist, sta: &Sta) -> HashSet<ComponentId> {
    sta.worst_endpoint()
        .map(|(_, _, net)| sta.critical_path_components(nl, *net).into_iter().collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_netlist::{ComponentKind, GateFn, GenericMacro, Netlist};

    /// in -> INV -> INV -> out, plus a short side branch.
    fn chain() -> (Netlist, ComponentId, ComponentId, ComponentId) {
        let mut nl = Netlist::new("c");
        let a = nl.add_net("a");
        let m = nl.add_net("m");
        let y = nl.add_net("y");
        let z = nl.add_net("z");
        let g1 = nl.add_component(
            "g1",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        let g2 = nl.add_component(
            "g2",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        let g3 = nl.add_component(
            "g3",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)),
        );
        nl.connect_named(g1, "A0", a).unwrap();
        nl.connect_named(g1, "Y", m).unwrap();
        nl.connect_named(g2, "A0", m).unwrap();
        nl.connect_named(g2, "Y", y).unwrap();
        nl.connect_named(g3, "A0", a).unwrap();
        nl.connect_named(g3, "Y", z).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("y", PinDir::Out, y);
        nl.add_port("z", PinDir::Out, z);
        (nl, g1, g2, g3)
    }

    #[test]
    fn chain_has_two_gate_path() {
        let (nl, g1, g2, _) = chain();
        let sta = analyze(&nl).unwrap();
        let (e, a) = sta.worst().unwrap();
        assert_eq!(*e, Endpoint::Port("y".into()));
        assert!(a > 0.0);
        let worst_net = nl.port("y").unwrap().net;
        let path = sta.critical_path_components(&nl, worst_net);
        assert_eq!(path, vec![g1, g2]);
    }

    #[test]
    fn sequential_cuts_paths() {
        let mut nl = Netlist::new("s");
        let d = nl.add_net("d");
        let q = nl.add_net("q");
        let y = nl.add_net("y");
        let clk = nl.add_net("clk");
        let ff = nl.add_component(
            "ff",
            ComponentKind::Generic(GenericMacro::Dff {
                set: false,
                reset: false,
                enable: false,
            }),
        );
        let g = nl.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        nl.connect_named(ff, "D", d).unwrap();
        nl.connect_named(ff, "CLK", clk).unwrap();
        nl.connect_named(ff, "Q", q).unwrap();
        nl.connect_named(g, "A0", q).unwrap();
        nl.connect_named(g, "Y", y).unwrap();
        nl.add_port("d", PinDir::In, d);
        nl.add_port("clk", PinDir::In, clk);
        nl.add_port("y", PinDir::Out, y);
        let sta = analyze(&nl).unwrap();
        // Endpoints: port y, plus the DFF's D and CLK inputs.
        assert_eq!(sta.endpoints().len(), 3);
        // Path to y starts at the DFF output (arrival 0) + one inverter.
        let y_net = nl.port("y").unwrap().net;
        assert!(sta.arrival(y_net) > 0.0);
        assert!(sta.arrival(y_net) < 1.0);
    }
}
