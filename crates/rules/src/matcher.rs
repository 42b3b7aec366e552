//! Rete-style incremental conflict-set matching.
//!
//! OPS-family production systems avoid re-running every rule against
//! every working-memory element per cycle: "once a test has been
//! performed … it is not redone until a change in data occurs" (§2.2.1).
//! [`MatchIndex`] is that discipline for the netlist rule engine. It
//! keeps one memory per rule — an alpha memory keyed by the *anchor*
//! component of each [`RuleMatch`] (`RuleMatch::site`) for local rules,
//! a join memory over component keys for keyed rules — built once by
//! full matching and then **repaired** from [`UndoLog::touch_set`] after
//! each accepted or undone rewrite, instead of rescanned from scratch
//! every recognize–act cycle.
//!
//! # Repair contract
//!
//! A rule declares its support radius through [`Rule::locality`]:
//!
//! * [`Locality::Local`] — a match anchored at component `a` is fully
//!   determined by (1) `a`'s own kind and pin connections, (2) the nets
//!   **`a` drives** — their driver/load lists (including order), fanout
//!   and port bindings — (3) of each net `a` only loads, which net it is
//!   and its port binding, nothing more (not its connection list, its
//!   fanout or its driver), and (4) for each component loading a net `a`
//!   drives: its kind, its pin names, the nets its pins connect to, and
//!   whether those nets are port-bound (but not those nets' own
//!   connection lists). Matching must not read the STA, and must not
//!   read the internals (kind, other pins) of any component `a` does not
//!   drive — neither a net's driver from the load side nor a *sibling*
//!   load on a shared input net; rules that need any of those must be
//!   `Keyed` or `Global`. Under this contract, any match created or
//!   destroyed by a rewrite has its anchor inside a small closure of the
//!   touch set — the touched components, and the drivers of the touched
//!   nets and of the nets on touched components' pins — so repair
//!   re-runs [`Rule::matches_at`] only there. The loads of a touched net
//!   stay out of the closure: what they read of it cannot change unless
//!   they are re-pinned, which touches them. The closure is therefore
//!   independent of fanout: a firing on a clock or select net with
//!   hundreds of loads re-matches its drivers only. Reading a load's
//!   other pins is covered by the same closure: they change only when
//!   the load is re-pinned, which touches it and so re-matches every
//!   driver of each of its nets, and a [`Tx`] cannot change port
//!   bindings.
//! * [`Locality::Keyed`] — a match joins two components with equal
//!   [`Rule::join_key`] (structural hashing, as in ABC's strash). The
//!   key is a pure function of a component's own kind and pin nets, and
//!   [`Rule::join_match`] reads only the two joined components and the
//!   port bindings of their nets. The index keeps a join memory (a Rete
//!   beta memory, Forgy '82): one key per component slot, each key's
//!   holders in ascending id, and the joined matches by their second
//!   component `dup`. `dup` pairs with the lowest-id earlier holder of
//!   its key for which `join_match` returns a match, and the conflict
//!   order is ascending `dup`; [`Rule::matches`] must produce exactly
//!   that list. A kind change or a pin reconnect always touches the
//!   component itself, and a `Tx` has no port operations, so repair
//!   re-keys only the touched components and re-joins the old and new
//!   group of each.
//! * [`Locality::Global`] — no support bound is promised
//!   (STA-dependent criticality tests, say). The rule is re-matched in
//!   full on every repair; this is still no worse than the rescans it
//!   replaces.
//!
//! Correctness (index ≡ full rescan after every apply/undo step, in
//! the same order for keyed and global rules) is property-tested in
//! `tests/perf_equivalence.rs`, and the engine can cross-check every
//! indexed conflict set against a rescan when the `MILO_MATCH_ORACLE`
//! oracle flag is set (see `docs/PERFORMANCE.md`).
//!
//! [`UndoLog::touch_set`]: crate::UndoLog::touch_set
//! [`Tx`]: crate::Tx
//! [`Rule::locality`]: crate::Rule::locality
//! [`Rule::matches`]: crate::Rule::matches
//! [`Rule::matches_at`]: crate::Rule::matches_at
//! [`Rule::join_key`]: crate::Rule::join_key
//! [`Rule::join_match`]: crate::Rule::join_match

use crate::engine::{Rule, RuleCtx, RuleMatch};
use milo_netlist::{ComponentId, NetId, TouchSet};
use std::collections::hash_map::{Entry as MapEntry, HashMap};
use std::collections::BTreeMap;

/// How far a rule's match predicate reads from its anchor component —
/// the repair contract of [`MatchIndex`] (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Locality {
    /// Matches are determined by the anchor itself, the nets it drives
    /// (with their connection lists and fanout), the identity and port
    /// binding of the nets it loads, and the loads on nets the anchor
    /// drives (with those loads' pin nets and their port bindings) — and
    /// never read the STA (see the module docs for the exact support
    /// contract).
    Local,
    /// Matches join two components with equal [`Rule::join_key`]; the
    /// index repairs only the key groups of touched components. Never
    /// reads the STA.
    Keyed,
    /// No support bound: re-match the whole rule on every repair.
    Global,
}

/// Counters describing how much work repairs did, for perf assertions
/// and traces.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RepairStats {
    /// Number of `repair` calls that did any work.
    pub repairs: u64,
    /// Anchor components re-matched across all local rules.
    pub anchors_rematched: u64,
    /// Components re-keyed or re-joined across all keyed rules.
    pub keyed_rejoins: u64,
    /// Full re-matches of `Global` rules.
    pub global_rematches: u64,
}

/// Per-rule storage: anchored matches for local rules, a join memory
/// for keyed ones, a flat list for global ones.
enum Entry {
    /// `Locality::Local`: matches grouped by anchor, in anchor order
    /// (deterministic iteration regardless of repair history).
    Local(BTreeMap<ComponentId, Vec<RuleMatch>>),
    /// `Locality::Keyed`: the join memory.
    Keyed(JoinMemory),
    /// `Locality::Global`: matches exactly as `Rule::matches` returned
    /// them at the last (re)build.
    Global(Vec<RuleMatch>),
}

/// A keyed rule's join memory. Each key group is an intrusive list
/// through `next`, so a component costs two slots and a group of one —
/// the common case — allocates nothing of its own.
struct JoinMemory {
    /// `Rule::join_key` per component slot, as of the last repair.
    keys: Vec<Option<u64>>,
    /// The lowest-id holder of each key.
    heads: HashMap<u64, ComponentId>,
    /// The next higher-id holder of the same key, per component slot.
    next: Vec<Option<ComponentId>>,
    /// The joined matches, by their `dup` component: ascending `dup` is
    /// the conflict order.
    matches: BTreeMap<ComponentId, RuleMatch>,
}

impl JoinMemory {
    fn build(rule: &dyn Rule, ctx: &RuleCtx) -> Self {
        let slots = ctx.nl.component_slot_count();
        let mut mem = Self {
            keys: vec![None; slots],
            heads: HashMap::with_capacity(slots),
            next: vec![None; slots],
            matches: BTreeMap::new(),
        };
        for id in ctx.nl.component_ids() {
            if let Some(key) = rule.join_key(ctx, id) {
                mem.link(id, key);
            }
        }
        let shared: Vec<u64> = mem
            .heads
            .iter()
            .filter(|&(_, head)| mem.next[head.index()].is_some())
            .map(|(&key, _)| key)
            .collect();
        for key in shared {
            mem.rejoin(rule, ctx, key);
        }
        mem
    }

    fn grow(&mut self, id: ComponentId) {
        if id.index() >= self.keys.len() {
            self.keys.resize(id.index() + 1, None);
            self.next.resize(id.index() + 1, None);
        }
    }

    /// Inserts `id` into `key`'s group at its ascending position.
    fn link(&mut self, id: ComponentId, key: u64) {
        self.keys[id.index()] = Some(key);
        match self.heads.entry(key) {
            MapEntry::Vacant(slot) => {
                slot.insert(id);
                self.next[id.index()] = None;
            }
            MapEntry::Occupied(mut head) if id < *head.get() => {
                self.next[id.index()] = Some(*head.get());
                head.insert(id);
            }
            MapEntry::Occupied(head) => {
                let mut at = *head.get();
                while let Some(n) = self.next[at.index()].filter(|&n| n < id) {
                    at = n;
                }
                self.next[id.index()] = self.next[at.index()];
                self.next[at.index()] = Some(id);
            }
        }
    }

    /// Removes `id` from `key`'s group.
    fn unlink(&mut self, id: ComponentId, key: u64) {
        self.keys[id.index()] = None;
        let after = self.next[id.index()].take();
        let head = self.heads[&key];
        if head == id {
            match after {
                Some(n) => self.heads.insert(key, n),
                None => self.heads.remove(&key),
            };
            return;
        }
        let mut at = head;
        while self.next[at.index()] != Some(id) {
            at = self.next[at.index()].expect("a linked holder is in its key's group");
        }
        self.next[at.index()] = after;
    }

    /// Re-derives the matches of every holder of `key`: each pairs with
    /// the first earlier holder it joins. Only holders that joined no
    /// earlier one are tried as partners (a holder that joined one has
    /// that one's signature, so the earlier one answers first), which
    /// keeps a group of duplicates linear. Returns the holders visited.
    fn rejoin(&mut self, rule: &dyn Rule, ctx: &RuleCtx, key: u64) -> u64 {
        let mut partners: Vec<ComponentId> = Vec::new();
        let mut visited = 0;
        let mut at = self.heads.get(&key).copied();
        while let Some(dup) = at {
            visited += 1;
            match partners
                .iter()
                .find_map(|&first| rule.join_match(ctx, first, dup))
            {
                Some(m) => {
                    self.matches.insert(dup, m);
                }
                None => {
                    self.matches.remove(&dup);
                    partners.push(dup);
                }
            }
            at = self.next[dup.index()];
        }
        visited
    }

    /// Re-keys the touched components and re-joins every group one of
    /// them left or entered. Returns the components visited.
    fn repair(&mut self, rule: &dyn Rule, ctx: &RuleCtx, touched: &[ComponentId]) -> u64 {
        let mut dirty: Vec<u64> = Vec::new();
        for &id in touched {
            self.grow(id);
            let old = self.keys[id.index()];
            let new = if ctx.nl.component(id).is_ok() {
                rule.join_key(ctx, id)
            } else {
                None
            };
            if old != new {
                if let Some(key) = old {
                    self.unlink(id, key);
                }
                if let Some(key) = new {
                    self.link(id, key);
                }
                self.matches.remove(&id);
            }
            dirty.extend(old);
            dirty.extend(new);
        }
        dirty.sort_unstable();
        dirty.dedup();
        let mut visited = touched.len() as u64;
        for key in dirty {
            visited += self.rejoin(rule, ctx, key);
        }
        visited
    }
}

/// The incremental conflict-set index. Build once per optimization run,
/// repair after every committed rewrite (or undo) with the same touch
/// set that refreshes the incremental STA.
pub struct MatchIndex {
    with_sta: bool,
    entries: Vec<Entry>,
    stats: RepairStats,
}

impl MatchIndex {
    /// Full matching pass over `rules`. Records whether an STA was
    /// available so callers can detect staleness when the analysis
    /// appears or disappears.
    pub fn build(rules: &[Box<dyn Rule>], ctx: &RuleCtx) -> Self {
        let entries = rules
            .iter()
            .map(|rule| match rule.locality() {
                Locality::Global => Entry::Global(rule.matches(ctx)),
                Locality::Keyed => Entry::Keyed(JoinMemory::build(rule.as_ref(), ctx)),
                Locality::Local => {
                    let mut map: BTreeMap<ComponentId, Vec<RuleMatch>> = BTreeMap::new();
                    for m in rule.matches(ctx) {
                        map.entry(m.site).or_default().push(m);
                    }
                    Entry::Local(map)
                }
            })
            .collect();
        Self {
            with_sta: ctx.sta.is_some(),
            entries,
            stats: RepairStats::default(),
        }
    }

    /// Whether the index was built with an STA in the rule context.
    /// Local and keyed rules never read it, but `Global` matches may;
    /// callers must rebuild when STA availability flips.
    pub fn with_sta(&self) -> bool {
        self.with_sta
    }

    /// Repair counters since construction.
    pub fn stats(&self) -> RepairStats {
        self.stats
    }

    /// Total matches currently indexed.
    pub fn len(&self) -> usize {
        self.entries
            .iter()
            .map(|e| match e {
                Entry::Local(map) => map.values().map(Vec::len).sum(),
                Entry::Keyed(mem) => mem.matches.len(),
                Entry::Global(v) => v.len(),
            })
            .sum()
    }

    /// Whether no matches are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Repairs the index after a rewrite (or its undo) described by
    /// `ts`. `ctx` must reflect the *current* netlist — and, for
    /// `Global` rules that read timing, an STA already refreshed from
    /// the same touch set.
    pub fn repair(&mut self, rules: &[Box<dyn Rule>], ctx: &RuleCtx, ts: &TouchSet) {
        if ts.is_empty() {
            return;
        }
        self.stats.repairs += 1;
        self.with_sta = ctx.sta.is_some();

        let mut touched = ts.components.clone();
        touched.sort_unstable();
        touched.dedup();
        // Dirty anchors — every anchor whose support can intersect the
        // touch set under the `Local` contract:
        //   * every touched component (its own state changed);
        //   * every driver of a touched net (it may read the connection
        //     list and fanout of the nets it drives);
        //   * every driver of a net on a touched component's pins (it may
        //     read the kinds, pins and pin nets of the loads on the nets
        //     it drives, and a kind change or a re-pin touches only the
        //     load).
        // The loads of a touched net are not dirty: of a net it only
        // loads, an anchor reads which net it is and its port binding,
        // and neither changes unless the load itself is re-pinned. So a
        // firing on a shared clock or select net costs its drivers (none,
        // for a port-driven net), not its hundreds of loads. Removed
        // components no longer resolve, but the undo log records their
        // connections, so their former nets are in `ts.nets`. Only
        // computed when a local rule is indexed.
        let nl = ctx.nl;
        let mut anchors: Vec<ComponentId> = Vec::new();
        if self.entries.iter().any(|e| matches!(e, Entry::Local(_))) {
            let mut nets: Vec<NetId> = ts.nets.clone();
            for &c in &touched {
                if let Ok(comp) = nl.component(c) {
                    nets.extend(comp.pins.iter().filter_map(|pin| pin.net));
                }
            }
            nets.sort_unstable();
            nets.dedup();
            anchors.extend(touched.iter().copied());
            for &n in &nets {
                anchors.extend(nl.drivers(n).map(|d| d.component));
            }
            anchors.sort_unstable();
            anchors.dedup();
        }

        for (rule, entry) in rules.iter().zip(self.entries.iter_mut()) {
            match entry {
                Entry::Global(stored) => {
                    self.stats.global_rematches += 1;
                    *stored = rule.matches(ctx);
                }
                Entry::Keyed(mem) => {
                    self.stats.keyed_rejoins += mem.repair(rule.as_ref(), ctx, &touched);
                }
                Entry::Local(map) => {
                    for &a in &anchors {
                        self.stats.anchors_rematched += 1;
                        map.remove(&a);
                        let fresh = rule.matches_at(ctx, a);
                        if !fresh.is_empty() {
                            map.insert(a, fresh);
                        }
                    }
                }
            }
        }
    }

    /// The indexed conflict set, borrowed: `(rule index, match)` pairs
    /// in deterministic order — rule-major; local rules by ascending
    /// anchor id, keyed rules by ascending `dup` id, global rules as
    /// `Rule::matches` listed them. Refraction filtering is the
    /// engine's job.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &RuleMatch)> + '_ {
        self.entries.iter().enumerate().flat_map(|(i, entry)| {
            let local = match entry {
                Entry::Local(map) => Some(map.values().flatten()),
                _ => None,
            };
            let keyed = match entry {
                Entry::Keyed(mem) => Some(mem.matches.values()),
                _ => None,
            };
            let global = match entry {
                Entry::Global(v) => Some(v.iter()),
                _ => None,
            };
            local
                .into_iter()
                .flatten()
                .chain(keyed.into_iter().flatten())
                .chain(global.into_iter().flatten())
                .map(move |m| (i, m))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RuleClass};
    use crate::undo::Tx;
    use milo_netlist::{ComponentKind, GateFn, GenericMacro, Netlist, NetlistError, PinDir};

    fn is_inv(nl: &Netlist, id: ComponentId) -> bool {
        matches!(
            nl.component(id).map(|c| &c.kind),
            Ok(ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)))
        )
    }

    /// Merges inverters that share an input net, keyed so that every
    /// inverter collides: each group holds several exact signatures,
    /// and a re-pinned inverter changes signature without changing key.
    struct CollidingInvMerge;

    impl Rule for CollidingInvMerge {
        fn name(&self) -> &'static str {
            "colliding-inverter-merge"
        }
        fn class(&self) -> RuleClass {
            RuleClass::Logic
        }
        /// The keyed contract, literally: each holder joins the first
        /// earlier holder that `join_match` accepts.
        fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
            let holders: Vec<ComponentId> = ctx
                .nl
                .component_ids()
                .filter(|&id| self.join_key(ctx, id).is_some())
                .collect();
            holders
                .iter()
                .enumerate()
                .filter_map(|(k, &dup)| {
                    holders[..k]
                        .iter()
                        .find_map(|&first| self.join_match(ctx, first, dup))
                })
                .collect()
        }
        fn locality(&self) -> Locality {
            Locality::Keyed
        }
        fn join_key(&self, ctx: &RuleCtx, id: ComponentId) -> Option<u64> {
            is_inv(ctx.nl, id).then_some(0)
        }
        fn join_match(
            &self,
            ctx: &RuleCtx,
            first: ComponentId,
            dup: ComponentId,
        ) -> Option<RuleMatch> {
            let nl = ctx.nl;
            let a = nl.pin_net(first, "A0")?;
            let y = nl.pin_net(dup, "Y")?;
            (nl.pin_net(dup, "A0") == Some(a) && !nl.net_is_port_bound(y))
                .then(|| RuleMatch::at(first).with_aux(vec![dup]))
        }
        fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
            let nl = tx.netlist();
            let keep = nl
                .pin_net(m.site, "Y")
                .ok_or(NetlistError::NoSuchComponent(m.site))?;
            let dup = m.aux[0];
            let gone = nl
                .pin_net(dup, "Y")
                .ok_or(NetlistError::NoSuchComponent(dup))?;
            tx.remove_component(dup)?;
            tx.move_loads(gone, keep)?;
            Ok(())
        }
    }

    /// Four input nets, 24 inverters over them, each driving a buffer;
    /// every fifth inverter output is also a port.
    fn shared_inputs() -> (Netlist, Vec<milo_netlist::NetId>) {
        let mut nl = Netlist::new("shared");
        let ins: Vec<_> = (0..4)
            .map(|i| {
                let n = nl.add_net(format!("i{i}"));
                nl.add_port(format!("i{i}"), PinDir::In, n);
                n
            })
            .collect();
        for k in 0..24 {
            let g = nl.add_component(
                format!("g{k}"),
                ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
            );
            nl.connect_named(g, "A0", ins[(k * 7) % 4]).unwrap();
            let y = nl.add_net(format!("y{k}"));
            nl.connect_named(g, "Y", y).unwrap();
            if k % 5 == 0 {
                nl.add_port(format!("y{k}"), PinDir::Out, y);
            }
            let b = nl.add_component(
                format!("b{k}"),
                ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)),
            );
            nl.connect_named(b, "A0", y).unwrap();
            let z = nl.add_net(format!("z{k}"));
            nl.connect_named(b, "Y", z).unwrap();
            nl.add_port(format!("z{k}"), PinDir::Out, z);
        }
        (nl, ins)
    }

    fn assert_in_order(engine: &Engine, index: &MatchIndex, nl: &Netlist, step: usize) {
        let key = |m: &RuleMatch| (m.site, m.aux.clone());
        let indexed: Vec<_> = index.iter().map(|(_, m)| key(m)).collect();
        let rescan: Vec<_> = engine.rules()[0]
            .matches(&RuleCtx { nl, sta: None })
            .iter()
            .map(key)
            .collect();
        assert_eq!(indexed, rescan, "step {step}");
    }

    /// The join memory under colliding keys: merges, undone merges and
    /// re-pinned inputs (a new signature under the same key) keep the
    /// index equal to the literal contract, in order.
    #[test]
    fn join_memory_tracks_colliding_keys_in_order() {
        let (mut nl, ins) = shared_inputs();
        let engine = Engine::new(vec![Box::new(CollidingInvMerge)]);
        let mut index = engine.build_index(&nl, None);
        assert_in_order(&engine, &index, &nl, 0);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for step in 1..=60 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let matches: Vec<RuleMatch> = index.iter().map(|(_, m)| m.clone()).collect();
            let invs: Vec<ComponentId> = nl.component_ids().filter(|&c| is_inv(&nl, c)).collect();
            let mut tx = Tx::new(&mut nl);
            if state.is_multiple_of(3) && !matches.is_empty() {
                let m = &matches[(state >> 8) as usize % matches.len()];
                engine.rules()[0].apply(&mut tx, m).unwrap();
            } else {
                let g = invs[(state >> 8) as usize % invs.len()];
                let pin = tx.netlist().component(g).unwrap().pin_index("A0").unwrap();
                let pin = milo_netlist::PinRef::new(g, pin);
                tx.disconnect(pin).unwrap();
                tx.connect(pin, ins[(state >> 16) as usize % ins.len()])
                    .unwrap();
            }
            let log = tx.commit();
            let ts = log.touch_set();
            if state >> 32 & 3 == 0 {
                log.undo(&mut nl);
            }
            index.repair(engine.rules(), &RuleCtx { nl: &nl, sta: None }, &ts);
            assert_in_order(&engine, &index, &nl, step);
        }
        assert!(index.stats().keyed_rejoins > 0);
    }
}
