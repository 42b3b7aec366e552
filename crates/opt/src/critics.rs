//! The logic optimizer's critics (§6.4, Fig. 17) that run as rule sets:
//! the logic critic's always-beneficial cleanups ([`logic_rules`]) and
//! the power critic's slack-driven power-down ([`PowerDownSlack`]),
//! which the area pass runs. Each critic has one implementation: the
//! timing critic's power-up is strategy 2 ([`crate::strategies`]) and
//! the electric critic is `milo_techmap::enforce_fanout`.

use milo_netlist::{
    CellFunction, ComponentId, ComponentKind, GateFn, NetId, Netlist, NetlistError, PinDir,
    PowerLevel, TechCell,
};
use milo_rules::{Locality, Rule, RuleClass, RuleCtx, RuleMatch, Tx};
use milo_techmap::TechLibrary;
use milo_timing::worst_path_components;
use std::collections::hash_map::{Entry, HashMap};

fn tech_cell_of(nl: &Netlist, id: ComponentId) -> Option<TechCell> {
    tech_cell_ref(nl, id).cloned()
}

/// Borrowing variant for match predicates — re-run thousands of times
/// per index repair, so they must not clone the cell.
fn tech_cell_ref(nl: &Netlist, id: ComponentId) -> Option<&TechCell> {
    match &nl.component(id).ok()?.kind {
        ComponentKind::Tech(c) => Some(c),
        _ => None,
    }
}

fn is_inv(nl: &Netlist, id: ComponentId) -> bool {
    matches!(
        tech_cell_ref(nl, id).map(|c| &c.function),
        Some(CellFunction::Gate(GateFn::Inv, 1))
    )
}

fn single_output_net(nl: &Netlist, id: ComponentId) -> Option<NetId> {
    let comp = nl.component(id).ok()?;
    let mut outs = comp.pins.iter().filter(|p| p.dir == PinDir::Out);
    let first = outs.next()?;
    if outs.next().is_some() {
        None
    } else {
        first.net
    }
}

/// Logic critic: inverter-pair elimination (Fig. 17a is a double-negation
/// cleanup of exactly this shape).
pub struct InvPairElimination;

impl Rule for InvPairElimination {
    fn name(&self) -> &'static str {
        "inverter-pair-elimination"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Logic
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        milo_rules::scan_all_components(self, ctx)
    }
    // Support: the anchor's kind and whether its input pin is connected;
    // the load count, first load and port binding of the net it drives;
    // and that load's kind and output net with the net's port binding.
    // Nothing of the input net beyond its identity: drive-side, inside
    // the `Local` contract.
    fn locality(&self) -> Locality {
        Locality::Local
    }
    fn matches_at(&self, ctx: &RuleCtx, id: ComponentId) -> Vec<RuleMatch> {
        let nl = ctx.nl;
        if !is_inv(nl, id) || nl.pin_net(id, "A0").is_none() {
            return Vec::new();
        }
        let Some(y) = single_output_net(nl, id) else {
            return Vec::new();
        };
        // Port-bound nets are excluded anyway, so `fanout == 1` reduces
        // to the allocation-free load count.
        if nl.net_is_port_bound(y) || nl.load_count(y) != 1 {
            return Vec::new();
        }
        let Some(load) = nl.first_load(y) else {
            return Vec::new();
        };
        if !is_inv(nl, load.component) || load.component == id {
            return Vec::new();
        }
        // `apply` keeps a port-bound output net (a buffer would be
        // needed — no gain), so such a pair is never offered.
        match nl.pin_net(load.component, "Y") {
            Some(out) if !nl.net_is_port_bound(out) => vec![RuleMatch::at(id)
                .with_aux(vec![load.component])
                .with_note("INV-INV pair removed")],
            _ => Vec::new(),
        }
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let nl = tx.netlist();
        let input = nl
            .pin_net(m.site, "A0")
            .ok_or(NetlistError::NoSuchComponent(m.site))?;
        let second = m.aux[0];
        let out = nl
            .pin_net(second, "Y")
            .ok_or(NetlistError::NoSuchComponent(second))?;
        if nl.net_is_port_bound(out) {
            return Err(NetlistError::NetInUse(out));
        }
        tx.remove_component(m.site)?;
        tx.remove_component(second)?;
        tx.move_loads(out, input)?;
        Ok(())
    }
}

/// Logic critic: drop buffers (their drive role is re-established by the
/// electric critic where needed).
pub struct BufferElimination;

impl Rule for BufferElimination {
    fn name(&self) -> &'static str {
        "buffer-elimination"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Logic
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        milo_rules::scan_all_components(self, ctx)
    }
    // Support: the anchor's kind and the port binding of the net it
    // drives; nothing of its input net — drive-side.
    fn locality(&self) -> Locality {
        Locality::Local
    }
    fn matches_at(&self, ctx: &RuleCtx, id: ComponentId) -> Vec<RuleMatch> {
        let nl = ctx.nl;
        let Some(cell) = tech_cell_ref(nl, id) else {
            return Vec::new();
        };
        if !matches!(cell.function, CellFunction::Gate(GateFn::Buf, 1)) {
            return Vec::new();
        }
        let Some(y) = single_output_net(nl, id) else {
            return Vec::new();
        };
        if nl.net_is_port_bound(y) {
            return Vec::new();
        }
        vec![RuleMatch::at(id).with_note("buffer removed")]
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let nl = tx.netlist();
        let input = nl
            .pin_net(m.site, "A0")
            .ok_or(NetlistError::NoSuchComponent(m.site))?;
        let y = nl
            .pin_net(m.site, "Y")
            .ok_or(NetlistError::NoSuchComponent(m.site))?;
        tx.remove_component(m.site)?;
        tx.move_loads(y, input)?;
        Ok(())
    }
}

/// The signature of a gate or table cell for [`DuplicateGateMerge`]:
/// its cell name and ordered input nets, pre-hashed to a `u64` (FNV-1a
/// — SipHash costs ~5x here). `None` for other kinds and for cells with
/// an unconnected input.
fn signature_hash(nl: &Netlist, id: ComponentId) -> Option<u64> {
    let comp = nl.component(id).ok()?;
    let ComponentKind::Tech(cell) = &comp.kind else {
        return None;
    };
    if !matches!(
        cell.function,
        CellFunction::Gate(..) | CellFunction::Table(_)
    ) {
        return None;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &b in cell.name.as_bytes() {
        eat(u64::from(b));
    }
    for p in comp.pins.iter().filter(|p| p.dir == PinDir::In) {
        eat(p.net?.index() as u64 + 1);
    }
    Some(h)
}

/// Whether `a` and `b` have the same signature exactly (the check
/// behind a [`signature_hash`] match, which may collide).
fn same_signature(nl: &Netlist, a: ComponentId, b: ComponentId) -> bool {
    let (Ok(ca), Ok(cb)) = (nl.component(a), nl.component(b)) else {
        return false;
    };
    let (ComponentKind::Tech(ta), ComponentKind::Tech(tb)) = (&ca.kind, &cb.kind) else {
        return false;
    };
    ta.name == tb.name
        && ca
            .pins
            .iter()
            .filter(|p| p.dir == PinDir::In)
            .map(|p| p.net)
            .eq(cb
                .pins
                .iter()
                .filter(|p| p.dir == PinDir::In)
                .map(|p| p.net))
}

/// The merge of duplicate `dup` into `keep`, unless `dup`'s output is a
/// port net (the port binding cannot be moved).
fn duplicate_merge(nl: &Netlist, keep: ComponentId, dup: ComponentId) -> Option<RuleMatch> {
    let y = single_output_net(nl, dup)?;
    (!nl.net_is_port_bound(y)).then(|| {
        RuleMatch::at(keep)
            .with_aux(vec![dup])
            .with_note("identical gates merged")
    })
}

/// Logic critic: merge structurally identical gates driving separate nets
/// (common-subexpression elimination at cell level).
///
/// A match pairs the lowest-id holder of a signature with a later
/// duplicate, so removing or re-kinding one component can move matches
/// anchored arbitrarily far away — there is no 1-hop support bound. The
/// rule is therefore [`Locality::Keyed`]: the index joins components on
/// the pre-hashed signature (cell name and ordered input nets) and
/// re-joins only the signature groups a rewrite touched (structural
/// hashing, as in ABC's strash). [`Rule::matches`]
/// stays the full scan the `MILO_MATCH_ORACLE` check compares against.
pub struct DuplicateGateMerge;

impl Rule for DuplicateGateMerge {
    fn name(&self) -> &'static str {
        "duplicate-gate-merge"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Logic
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        let nl = ctx.nl;
        // One first holder per signature hash, in a map sized to the
        // design; a later signature landing on a taken hash (a true
        // collision) spills to `collided`. Each holder is only ever
        // compared under its own hash, so the scan finds the same first
        // holder, and emits the same matches in the same order, as a
        // per-hash bucket list would. The map keeps the default keyed
        // hasher: the signatures come from the design, which a service
        // client supplies, and a pass-through hasher measured no faster
        // on the 10k flow.
        let mut first: HashMap<u64, ComponentId> =
            HashMap::with_capacity(nl.component_slot_count());
        let mut collided: Vec<(u64, ComponentId)> = Vec::new();
        let mut out = Vec::new();
        for id in nl.component_ids() {
            let Some(h) = signature_hash(nl, id) else {
                continue;
            };
            let keep = match first.entry(h) {
                Entry::Vacant(slot) => {
                    slot.insert(id);
                    continue;
                }
                Entry::Occupied(holder) if same_signature(nl, *holder.get(), id) => *holder.get(),
                Entry::Occupied(_) => {
                    match collided
                        .iter()
                        .find(|&&(ch, k)| ch == h && same_signature(nl, k, id))
                    {
                        Some(&(_, k)) => k,
                        None => {
                            collided.push((h, id));
                            continue;
                        }
                    }
                }
            };
            out.extend(duplicate_merge(nl, keep, id));
        }
        out
    }
    fn locality(&self) -> Locality {
        Locality::Keyed
    }
    fn join_key(&self, ctx: &RuleCtx, id: ComponentId) -> Option<u64> {
        signature_hash(ctx.nl, id)
    }
    fn join_match(&self, ctx: &RuleCtx, first: ComponentId, dup: ComponentId) -> Option<RuleMatch> {
        if same_signature(ctx.nl, first, dup) {
            duplicate_merge(ctx.nl, first, dup)
        } else {
            None
        }
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let nl = tx.netlist();
        let keep_y = nl
            .pin_net(m.site, "Y")
            .ok_or(NetlistError::NoSuchComponent(m.site))?;
        let dup = m.aux[0];
        let dup_y = nl
            .pin_net(dup, "Y")
            .ok_or(NetlistError::NoSuchComponent(dup))?;
        tx.remove_component(dup)?;
        tx.move_loads(dup_y, keep_y)?;
        Ok(())
    }
}

/// Logic/area critic: merge a mux cell that exclusively feeds a plain DFF's
/// D input into the library's merged mux-FF macro — the optimization of
/// Fig. 18 ("each multiplexor and flip-flop set can be combined into a
/// single technology-specific element, providing a decrease in area").
pub struct MuxDffMerge {
    lib: TechLibrary,
}

impl MuxDffMerge {
    /// Creates the rule bound to a library (it needs the MXFF cells).
    pub fn new(lib: TechLibrary) -> Self {
        Self { lib }
    }
}

impl Rule for MuxDffMerge {
    fn name(&self) -> &'static str {
        "mux-dff-merge"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Logic
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        milo_rules::scan_all_components(self, ctx)
    }
    // Support: the anchor mux's kind; the load count, first load and
    // port binding of the net it drives; and the kind and entry pin of
    // that single load. Nothing of the data and select nets it loads, so
    // a merge on a shared select or clock net re-matches their drivers,
    // not their loads — drive-side, 1-hop.
    fn locality(&self) -> Locality {
        Locality::Local
    }
    fn matches_at(&self, ctx: &RuleCtx, id: ComponentId) -> Vec<RuleMatch> {
        let nl = ctx.nl;
        let Some(cell) = tech_cell_ref(nl, id) else {
            return Vec::new();
        };
        let CellFunction::Mux { selects } = cell.function else {
            return Vec::new();
        };
        if self
            .lib
            .cell_at_level(&CellFunction::MuxDff { selects }, PowerLevel::Standard)
            .is_none()
        {
            return Vec::new();
        }
        let Some(y) = single_output_net(nl, id) else {
            return Vec::new();
        };
        if nl.net_is_port_bound(y) || nl.load_count(y) != 1 {
            return Vec::new();
        }
        let Some(load) = nl.first_load(y) else {
            return Vec::new();
        };
        let Some(ff) = tech_cell_ref(nl, load.component) else {
            return Vec::new();
        };
        if !matches!(
            ff.function,
            CellFunction::Dff {
                set: false,
                reset: false,
                enable: false
            }
        ) {
            return Vec::new();
        }
        let Ok(ff_comp) = nl.component(load.component) else {
            return Vec::new();
        };
        if ff_comp.pins[load.pin as usize].name != "D" {
            return Vec::new();
        }
        vec![RuleMatch::at(id)
            .with_aux(vec![load.component])
            .with_choice(selects as usize)
            .with_note(format!("mux{}+DFF -> MXFF", 1 << selects))]
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let selects = m.choice as u8;
        let merged = self
            .lib
            .cell_at_level(&CellFunction::MuxDff { selects }, PowerLevel::Standard)
            .ok_or(NetlistError::NoSuchComponent(m.site))?
            .clone();
        let nl = tx.netlist();
        let data = 1usize << selects;
        let d_nets: Vec<NetId> = (0..data)
            .map(|i| nl.pin_net(m.site, &format!("D{i}")).expect("matched mux"))
            .collect();
        let s_nets: Vec<NetId> = (0..selects)
            .map(|i| nl.pin_net(m.site, &format!("S{i}")).expect("matched mux"))
            .collect();
        let ff = m.aux[0];
        let clk = nl
            .pin_net(ff, "CLK")
            .ok_or(NetlistError::NoSuchComponent(ff))?;
        let q = nl
            .pin_net(ff, "Q")
            .ok_or(NetlistError::NoSuchComponent(ff))?;
        tx.remove_component(m.site)?;
        tx.remove_component(ff)?;
        let c = tx.add_component(
            format!("mxff{}", m.site.index()),
            ComponentKind::Tech(merged),
        );
        for (i, n) in d_nets.iter().enumerate() {
            tx.connect_named(c, &format!("D{i}"), *n)?;
        }
        for (i, n) in s_nets.iter().enumerate() {
            tx.connect_named(c, &format!("S{i}"), *n)?;
        }
        tx.connect_named(c, "CLK", clk)?;
        tx.connect_named(c, "Q", q)?;
        Ok(())
    }
}

/// Second-level Fig. 18 merge: a 2:1 mux feeding a data input of an MXFF2
/// becomes an MXFF4 ("making use of high-level macros that have 4-1
/// multiplexors combined with a flip-flop").
pub struct MuxIntoMuxDff {
    lib: TechLibrary,
}

impl MuxIntoMuxDff {
    /// Creates the rule bound to a library.
    pub fn new(lib: TechLibrary) -> Self {
        Self { lib }
    }
}

impl Rule for MuxIntoMuxDff {
    fn name(&self) -> &'static str {
        "mux-into-muxdff"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Logic
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        milo_rules::scan_all_components(self, ctx)
    }
    // Support: as `MuxDffMerge` — the anchor mux's kind, the net it
    // drives and the kind and entry pin of its single load; nothing of
    // the nets it loads — drive-side, 1-hop.
    fn locality(&self) -> Locality {
        Locality::Local
    }
    fn matches_at(&self, ctx: &RuleCtx, id: ComponentId) -> Vec<RuleMatch> {
        let nl = ctx.nl;
        let Some(cell) = tech_cell_ref(nl, id) else {
            return Vec::new();
        };
        if !matches!(cell.function, CellFunction::Mux { selects: 1 }) {
            return Vec::new();
        }
        if self
            .lib
            .cell_at_level(&CellFunction::MuxDff { selects: 2 }, PowerLevel::Standard)
            .is_none()
        {
            return Vec::new();
        }
        let Some(y) = single_output_net(nl, id) else {
            return Vec::new();
        };
        if nl.net_is_port_bound(y) || nl.load_count(y) != 1 {
            return Vec::new();
        }
        let Some(load) = nl.first_load(y) else {
            return Vec::new();
        };
        let Some(mxff) = tech_cell_ref(nl, load.component) else {
            return Vec::new();
        };
        if !matches!(mxff.function, CellFunction::MuxDff { selects: 1 }) {
            return Vec::new();
        }
        let Ok(mx_comp) = nl.component(load.component) else {
            return Vec::new();
        };
        let word = match mx_comp.pins[load.pin as usize].name.as_str() {
            "D0" => 0usize,
            "D1" => 1,
            _ => return Vec::new(),
        };
        vec![RuleMatch::at(id)
            .with_aux(vec![load.component])
            .with_choice(word)
            .with_note("2:1 mux + MXFF2 -> MXFF4")]
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let merged = self
            .lib
            .cell_at_level(&CellFunction::MuxDff { selects: 2 }, PowerLevel::Standard)
            .ok_or(NetlistError::NoSuchComponent(m.site))?
            .clone();
        let nl = tx.netlist();
        let word = m.choice; // which MXFF2 data pin the mux feeds
        let a = nl
            .pin_net(m.site, "D0")
            .ok_or(NetlistError::NoSuchComponent(m.site))?;
        let b = nl
            .pin_net(m.site, "D1")
            .ok_or(NetlistError::NoSuchComponent(m.site))?;
        let t = nl
            .pin_net(m.site, "S0")
            .ok_or(NetlistError::NoSuchComponent(m.site))?;
        let mxff = m.aux[0];
        let other = nl
            .pin_net(mxff, &format!("D{}", 1 - word))
            .ok_or(NetlistError::NoSuchComponent(mxff))?;
        let s = nl
            .pin_net(mxff, "S0")
            .ok_or(NetlistError::NoSuchComponent(mxff))?;
        let clk = nl
            .pin_net(mxff, "CLK")
            .ok_or(NetlistError::NoSuchComponent(mxff))?;
        let q = nl
            .pin_net(mxff, "Q")
            .ok_or(NetlistError::NoSuchComponent(mxff))?;
        tx.remove_component(m.site)?;
        tx.remove_component(mxff)?;
        let c = tx.add_component(
            format!("mxff4_{}", m.site.index()),
            ComponentKind::Tech(merged),
        );
        // Result: S ? D1' : D0' where D{word}' = (T ? b : a), D{other}' = other.
        // Encode as 4:1 with S0=T, S1=S.
        let words: [NetId; 4] = if word == 0 {
            [a, b, other, other] // S=0 -> T?b:a ; S=1 -> other
        } else {
            [other, other, a, b]
        };
        for (i, n) in words.iter().enumerate() {
            tx.connect_named(c, &format!("D{i}"), *n)?;
        }
        tx.connect_named(c, "S0", t)?;
        tx.connect_named(c, "S1", s)?;
        tx.connect_named(c, "CLK", clk)?;
        tx.connect_named(c, "Q", q)?;
        Ok(())
    }
}

/// Power critic: replace macros off the critical path with lower-power,
/// slower variants (Fig. 17d analog).
pub struct PowerDownSlack {
    lib: TechLibrary,
}

impl PowerDownSlack {
    /// Creates the rule bound to a library.
    pub fn new(lib: TechLibrary) -> Self {
        Self { lib }
    }

    /// Whether applying `m` can make no arrival earlier: the slower
    /// variant is no faster from any input pin and no lighter per load
    /// than the cell it replaces. IEEE `+`, `×` by a fanout and `max`
    /// are monotone, so every arrival then stays or rises, and no
    /// violation can fall.
    pub fn never_faster(&self, nl: &Netlist, m: &RuleMatch) -> bool {
        let Some(cell) = tech_cell_ref(nl, m.site) else {
            return false;
        };
        let Some(slower) = self.lib.slower_variant(cell) else {
            return false;
        };
        let inputs = nl
            .component(m.site)
            .map_or(0, |c| c.pins.iter().filter(|p| p.dir == PinDir::In).count());
        slower.load_delay >= cell.load_delay
            && (0..inputs).all(|i| slower.input_delay(i) >= cell.input_delay(i))
    }
}

impl Rule for PowerDownSlack {
    fn name(&self) -> &'static str {
        "power-down-slack-macro"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Power
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        let Some(sta) = ctx.sta else {
            return Vec::new();
        };
        let nl = ctx.nl;
        let critical = worst_path_components(nl, sta);
        let mut out = Vec::new();
        for id in nl.component_ids() {
            let Some(cell) = tech_cell_ref(nl, id) else {
                continue;
            };
            if self.lib.slower_variant(cell).is_none() {
                continue;
            }
            if !critical.contains(&id) {
                out.push(RuleMatch::at(id).with_note(format!("{} -> low power", cell.name)));
            }
        }
        out
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        let cell =
            tech_cell_of(tx.netlist(), m.site).ok_or(NetlistError::NoSuchComponent(m.site))?;
        let slower = self
            .lib
            .slower_variant(&cell)
            .ok_or(NetlistError::NoSuchComponent(m.site))?
            .clone();
        tx.change_kind(m.site, ComponentKind::Tech(slower))
    }
}

/// Cleanup: dead combinational logic at the technology level.
pub struct DeadCellRemoval;

impl Rule for DeadCellRemoval {
    fn name(&self) -> &'static str {
        "dead-cell-removal"
    }
    fn class(&self) -> RuleClass {
        RuleClass::Cleanup
    }
    fn matches(&self, ctx: &RuleCtx) -> Vec<RuleMatch> {
        milo_rules::scan_all_components(self, ctx)
    }
    // Support: the anchor's kind and the load counts and port bindings
    // of the nets it drives — drive-side.
    fn locality(&self) -> Locality {
        Locality::Local
    }
    fn matches_at(&self, ctx: &RuleCtx, id: ComponentId) -> Vec<RuleMatch> {
        let nl = ctx.nl;
        let Ok(comp) = nl.component(id) else {
            return Vec::new();
        };
        if comp.kind.is_sequential() {
            return Vec::new();
        }
        let mut has_out = false;
        let mut dead = true;
        for p in &comp.pins {
            if p.dir == PinDir::Out {
                has_out = true;
                if let Some(net) = p.net {
                    if nl.load_count(net) > 0 || nl.net_is_port_bound(net) {
                        dead = false;
                        break;
                    }
                }
            }
        }
        if has_out && dead {
            vec![RuleMatch::at(id).with_note("dead cell")]
        } else {
            Vec::new()
        }
    }
    fn apply(&self, tx: &mut Tx, m: &RuleMatch) -> Result<(), NetlistError> {
        tx.remove_component(m.site)
    }
}

/// The logic-critic rule set (always-beneficial cleanups).
pub fn logic_rules(lib: &TechLibrary) -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(InvPairElimination),
        Box::new(BufferElimination),
        Box::new(DuplicateGateMerge),
        Box::new(MuxDffMerge::new(lib.clone())),
        Box::new(MuxIntoMuxDff::new(lib.clone())),
        Box::new(DeadCellRemoval),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_compilers::verify::check_comb_equivalence;
    use milo_netlist::GenericMacro;
    use milo_rules::{Engine, Selection};
    use milo_techmap::{cmos_library, ecl_library, map_netlist};

    fn tech(nl: &Netlist, lib: &TechLibrary) -> Netlist {
        map_netlist(nl, lib).unwrap()
    }

    #[test]
    fn inv_pair_removed_and_equivalent() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let m1 = nl.add_net("m1");
        let m2 = nl.add_net("m2");
        let y = nl.add_net("y");
        for (name, i, o) in [("i1", a, m1), ("i2", m1, m2), ("i3", m2, y)] {
            let g = nl.add_component(
                name,
                ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
            );
            nl.connect_named(g, "A0", i).unwrap();
            nl.connect_named(g, "Y", o).unwrap();
        }
        nl.add_port("a", PinDir::In, a);
        nl.add_port("y", PinDir::Out, y);
        let lib = cmos_library();
        let mut mapped = tech(&nl, &lib);
        let golden = mapped.clone();
        let mut engine = Engine::new(logic_rules(&lib));
        let fired = engine.run(&mut mapped, Selection::OpsOrder, 50);
        assert!(fired >= 1);
        assert_eq!(mapped.component_count(), 1);
        check_comb_equivalence(&golden, &mapped, 0).unwrap();
    }

    #[test]
    fn duplicate_gates_merge() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let y1 = nl.add_net("y1");
        let y2 = nl.add_net("y2");
        let o1 = nl.add_net("o1");
        for (name, out) in [("g1", y1), ("g2", y2)] {
            let g = nl.add_component(
                name,
                ComponentKind::Generic(GenericMacro::Gate(GateFn::And, 2)),
            );
            nl.connect_named(g, "A0", a).unwrap();
            nl.connect_named(g, "A1", b).unwrap();
            nl.connect_named(g, "Y", out).unwrap();
        }
        // y2 feeds an inverter so it is not port-bound.
        let inv = nl.add_component(
            "i",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        nl.connect_named(inv, "A0", y2).unwrap();
        nl.connect_named(inv, "Y", o1).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("b", PinDir::In, b);
        nl.add_port("y1", PinDir::Out, y1);
        nl.add_port("o1", PinDir::Out, o1);
        let lib = cmos_library();
        let mut mapped = tech(&nl, &lib);
        let golden = mapped.clone();
        let mut engine = Engine::new(logic_rules(&lib));
        engine.run(&mut mapped, Selection::OpsOrder, 50);
        assert_eq!(mapped.component_count(), 2, "{mapped:?}");
        check_comb_equivalence(&golden, &mapped, 0).unwrap();
    }

    #[test]
    fn mux_dff_merges_fig18() {
        let lib = ecl_library();
        let mut nl = Netlist::new("t");
        let mux_cell = lib.get("MUX2TO1").unwrap().clone();
        let dff_cell = lib.get("DFF").unwrap().clone();
        let m = nl.add_component("m", ComponentKind::Tech(mux_cell));
        let f = nl.add_component("f", ComponentKind::Tech(dff_cell));
        let d0 = nl.add_net("d0");
        let d1 = nl.add_net("d1");
        let s = nl.add_net("s");
        let md = nl.add_net("md");
        let clk = nl.add_net("clk");
        let q = nl.add_net("q");
        nl.connect_named(m, "D0", d0).unwrap();
        nl.connect_named(m, "D1", d1).unwrap();
        nl.connect_named(m, "S0", s).unwrap();
        nl.connect_named(m, "Y", md).unwrap();
        nl.connect_named(f, "D", md).unwrap();
        nl.connect_named(f, "CLK", clk).unwrap();
        nl.connect_named(f, "Q", q).unwrap();
        for (n, net) in [("d0", d0), ("d1", d1), ("s", s), ("clk", clk)] {
            nl.add_port(n, PinDir::In, net);
        }
        nl.add_port("q", PinDir::Out, q);

        let golden = nl.clone();
        let before = milo_timing::statistics(&nl).unwrap();
        let mut engine = Engine::new(logic_rules(&lib));
        let fired = engine.run(&mut nl, Selection::OpsOrder, 10);
        assert!(fired >= 1);
        assert_eq!(nl.component_count(), 1);
        let after = milo_timing::statistics(&nl).unwrap();
        assert!(after.area < before.area, "Fig. 18: merged macro is smaller");
        milo_compilers::verify::check_seq_equivalence(&golden, &nl, 50, 5).unwrap();
    }
}
