//! The truth-table hash rules of strategy 4 (§4.1.2, Fig. 10).
//!
//! "Lookup in the hash table is accomplished through a key that is the
//! truth table entry for a particular function. The hash table is
//! typically limited to entries of up to five variables, making each hash
//! table key a maximum of 32 bits — a common computer word." One table
//! entry covers every *structural* implementation of the same function —
//! Fig. 10's two mux circuits need two pattern rules but only one hash
//! entry.

use milo_logic::TruthTable;
#[cfg(test)]
use milo_netlist::GateFn;
use milo_netlist::{CellFunction, ComponentKind, NetId, Netlist, PinDir, TechCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// A replacement candidate stored under a truth-table key.
#[derive(Clone, Debug)]
pub struct HashEntry {
    /// The cell that implements the function.
    pub cell: TechCell,
    /// Input permutation: cell input pin `i` connects to cone input
    /// `perm[i]`.
    pub perm: Vec<u8>,
}

/// The hash-rule table: 32-bit truth-table keys → replacement cells.
#[derive(Clone, Debug, Default)]
pub struct HashRuleTable {
    map: HashMap<(u8, u32), Vec<HashEntry>>,
}

/// The single-output combinational function of a cell, if it has one of
/// at most five inputs.
pub fn cell_truth_table(cell: &TechCell) -> Option<TruthTable> {
    match &cell.function {
        CellFunction::Gate(f, n) if *n <= 5 => {
            let f = *f;
            let n = *n;
            Some(TruthTable::from_fn(n, move |row| f.eval(row as u64, n)))
        }
        CellFunction::Table(tt) if tt.vars() <= 5 => Some(*tt),
        CellFunction::Mux { selects } if (1 << selects) + selects <= 5 => {
            let s = *selects;
            let data = 1u32 << s;
            Some(TruthTable::from_fn((data + s as u32) as u8, move |row| {
                let sel = (row >> data) & ((1 << s) - 1);
                row >> sel & 1 == 1
            }))
        }
        _ => None,
    }
}

impl HashRuleTable {
    /// Builds the table from a technology library: every ≤ 5-input
    /// single-output combinational cell is entered under the keys of all
    /// input permutations of its truth table, so lookup is a single probe
    /// regardless of how the matched cone orders its inputs.
    pub fn from_library(lib: &crate::LibraryRef<'_>) -> Self {
        let mut table = Self::default();
        for cell in lib.cells {
            let Some(tt) = cell_truth_table(cell) else {
                continue;
            };
            let n = tt.vars();
            permutations(n, &mut (0..n).collect::<Vec<u8>>(), 0, &mut |perm| {
                let permuted = tt.permute(perm);
                let key = permuted.key32().expect("≤5 vars");
                let entries = table.map.entry((n, key)).or_default();
                // Avoid exact duplicates (symmetric functions generate
                // identical permuted tables).
                if !entries
                    .iter()
                    .any(|e| e.cell.name == cell.name && e.perm == perm)
                    && entries.iter().all(|e| e.cell.name != cell.name)
                {
                    entries.push(HashEntry {
                        cell: cell.clone(),
                        perm: perm.to_vec(),
                    });
                }
            });
        }
        table
    }

    /// [`HashRuleTable::from_library`] through a process-wide memo cache.
    ///
    /// Building the table enumerates every input permutation of every
    /// ≤ 5-input cell — ~100 µs per library — and the result is a pure
    /// function of the cell list, so synthesis pipelines that construct
    /// fresh `Milo` instances per run share one build via a fingerprint
    /// of the cells.
    pub fn cached(lib: &crate::LibraryRef<'_>) -> Arc<Self> {
        static CACHE: OnceLock<Mutex<HashMap<u64, Arc<HashRuleTable>>>> = OnceLock::new();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        lib.cells.len().hash(&mut h);
        for cell in lib.cells {
            // Every field of the cell participates: entries carry full
            // TechCell clones, so libraries differing in *any* attribute
            // (pin skews, fanout limits, power grade, family, function)
            // must not share a table.
            cell.name.hash(&mut h);
            cell.family.hash(&mut h);
            cell.area.to_bits().hash(&mut h);
            cell.delay.to_bits().hash(&mut h);
            cell.load_delay.to_bits().hash(&mut h);
            cell.power.to_bits().hash(&mut h);
            cell.max_fanout.hash(&mut h);
            (cell.level as u8).hash(&mut h);
            cell.pin_delay.len().hash(&mut h);
            for d in &cell.pin_delay {
                d.to_bits().hash(&mut h);
            }
            match cell_truth_table(cell) {
                Some(tt) => {
                    tt.vars().hash(&mut h);
                    tt.key32().hash(&mut h);
                }
                // No compact truth table (MSI/sequential): hash the
                // function's debug form instead.
                None => format!("{:?}", cell.function).hash(&mut h),
            }
        }
        let key = h.finish();
        let cache = CACHE.get_or_init(Default::default);
        let mut guard = cache.lock().expect("hash-rule cache poisoned");
        if let Some(t) = guard.get(&key) {
            return Arc::clone(t);
        }
        let t = Arc::new(Self::from_library(lib));
        guard.insert(key, Arc::clone(&t));
        t
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Single-probe lookup: all replacement cells implementing `tt`.
    pub fn lookup(&self, tt: &TruthTable) -> &[HashEntry] {
        let Some(key) = tt.key32() else { return &[] };
        self.map.get(&(tt.vars(), key)).map_or(&[], Vec::as_slice)
    }

    /// The smallest-area replacement for `tt` — used by the area critic
    /// on paths with timing slack.
    pub fn best_for_area(&self, tt: &TruthTable) -> Option<&HashEntry> {
        self.lookup(tt)
            .iter()
            .min_by(|a, b| a.cell.area.partial_cmp(&b.cell.area).expect("not NaN"))
    }

    /// The fastest replacement for `tt`, optionally bounded by area and
    /// power budgets (strategy 4 demands "no cost"; strategy 6 relaxes
    /// the bound).
    pub fn best_for_delay(
        &self,
        tt: &TruthTable,
        max_area: Option<f64>,
        max_power: Option<f64>,
    ) -> Option<&HashEntry> {
        self.lookup(tt)
            .iter()
            .filter(|e| max_area.is_none_or(|a| e.cell.area <= a + 1e-9))
            .filter(|e| max_power.is_none_or(|p| e.cell.power <= p + 1e-9))
            .min_by(|a, b| a.cell.delay.partial_cmp(&b.cell.delay).expect("not NaN"))
    }
}

fn permutations(n: u8, scratch: &mut Vec<u8>, k: usize, f: &mut impl FnMut(&[u8])) {
    if k == n as usize {
        f(scratch);
        return;
    }
    for i in k..n as usize {
        scratch.swap(k, i);
        permutations(n, scratch, k + 1, f);
        scratch.swap(k, i);
    }
}

/// Borrow-view of a library's cells (avoids a dependency on
/// `milo-techmap` from this crate).
pub struct LibraryRef<'a> {
    /// The library's cells.
    pub cells: &'a [TechCell],
}

/// Extracts the local single-output function of a fanin cone rooted at a
/// component output, up to `max_inputs` distinct input nets. Returns the
/// truth table and the cone's input nets (in variable order) plus the
/// interior components.
///
/// Cones stop at sequential elements, ports and components that are not
/// single-output combinational cells. The extraction bails out — *before*
/// the exhaustive cone simulation — when the cone has fewer than
/// `min_interior` components (0 extracts every cone). The cone-merge
/// strategies all require ≥ 2 interior cells, and on a quiesced netlist
/// most cones are single cells, so skipping the truth-table evaluation
/// for them removes most of the scan cost.
pub fn extract_cone_min(
    nl: &Netlist,
    root: milo_netlist::ComponentId,
    max_inputs: usize,
    min_interior: usize,
) -> Option<(TruthTable, Vec<NetId>, Vec<milo_netlist::ComponentId>)> {
    let comp = nl.component(root).ok()?;
    if comp.kind.is_sequential() {
        return None;
    }
    let out_pins: Vec<_> = comp.output_pins().collect();
    if out_pins.len() != 1 {
        return None;
    }
    // Gather the cone: DFS from the root, stopping at boundaries.
    let mut interior = vec![root];
    let mut inputs: Vec<NetId> = Vec::new();
    let mut stack: Vec<NetId> = comp
        .pins
        .iter()
        .filter(|p| p.dir == PinDir::In)
        .filter_map(|p| p.net)
        .collect();
    let mut seen_nets: Vec<NetId> = stack.clone();
    while let Some(net) = stack.pop() {
        let expandable = match nl.driver(net) {
            None => None,
            Some(drv) => {
                let c = nl.component(drv.component).ok()?;
                let single_out = c.output_pins().count() == 1;
                let comb = !c.kind.is_sequential();
                let small = matches!(&c.kind, ComponentKind::Tech(_) | ComponentKind::Generic(_));
                // Only expand gates whose *only* fanout is inside the cone
                // (duplication would change cost accounting).
                let exclusive = nl.fanout(net) == 1;
                (single_out && comb && small && exclusive && !interior.contains(&drv.component))
                    .then_some(drv.component)
            }
        };
        match expandable {
            Some(c) if interior.len() < 8 => {
                interior.push(c);
                let comp = nl.component(c).ok()?;
                for p in comp.pins.iter().filter(|p| p.dir == PinDir::In) {
                    if let Some(n) = p.net {
                        if !seen_nets.contains(&n) {
                            seen_nets.push(n);
                            stack.push(n);
                        }
                    }
                }
            }
            _ => {
                if !inputs.contains(&net) {
                    inputs.push(net);
                }
            }
        }
    }
    if inputs.len() > max_inputs || inputs.is_empty() || interior.len() < min_interior {
        return None;
    }
    // Evaluate the cone exhaustively.
    let root_out_net = comp.pins[out_pins[0] as usize].net?;
    let tt = eval_cone(nl, &interior, &inputs, root_out_net);
    Some((tt, inputs, interior))
}

/// Evaluates the cone for every input assignment at once, as `u64` row
/// words: bit `r` of a net's word is its value under assignment `r` (cone
/// input `i` reads bit `i` of `r`). Every expanded interior cell has one
/// load, and that load is inside the cone and was discovered before it,
/// so the reverse of discovery order is topological: one pass evaluates
/// each cell once, over a local table of the cone's nets. An input pin
/// on no net of the table reads 0.
fn eval_cone(
    nl: &Netlist,
    interior: &[milo_netlist::ComponentId],
    inputs: &[NetId],
    root_out: NetId,
) -> TruthTable {
    let vars = inputs.len() as u8;
    let mut words: Vec<(NetId, u64)> = inputs
        .iter()
        .enumerate()
        .map(|(i, &net)| (net, TruthTable::var(vars, i as u8).bits()))
        .collect();
    let word = |words: &[(NetId, u64)], net: Option<NetId>| {
        net.and_then(|n| words.iter().rev().find(|(w, _)| *w == n))
            .map_or(0, |&(_, w)| w)
    };
    let mut ins: Vec<u64> = Vec::new();
    let mut row: Vec<bool> = Vec::new();
    for &c in interior.iter().rev() {
        let Ok(comp) = nl.component(c) else { continue };
        ins.clear();
        ins.extend(
            comp.pins
                .iter()
                .filter(|p| p.dir == PinDir::In)
                .map(|p| word(&words, p.net)),
        );
        let out = eval_cell_word(&comp.kind, &ins, vars, &mut row);
        if let Some(net) = comp
            .pins
            .iter()
            .find(|p| p.dir == PinDir::Out)
            .and_then(|p| p.net)
        {
            words.push((net, out));
        }
    }
    TruthTable::new(vars, word(&words, Some(root_out)))
}

/// A single-output cell's output word over the `2^vars` rows, from its
/// input words. With no more input pins than `vars`, so no more input
/// combinations than rows, each combination some row holds is evaluated
/// once and lands on the rows that hold it; otherwise each row is
/// evaluated. Either way the cell is evaluated only on input vectors
/// that occur. `scratch` holds one input vector.
fn eval_cell_word(kind: &ComponentKind, ins: &[u64], vars: u8, scratch: &mut Vec<bool>) -> u64 {
    let eval = |scratch: &[bool]| {
        milo_netlist::eval_component(kind, scratch, 0)
            .first()
            .copied()
            .unwrap_or(false)
    };
    let mut out = 0u64;
    if ins.len() <= usize::from(vars) {
        let all = TruthTable::one(vars).bits();
        for combo in 0..1u64 << ins.len() {
            let mut on = all;
            for (i, &w) in ins.iter().enumerate() {
                on &= if combo >> i & 1 == 1 { w } else { !w };
            }
            if on == 0 {
                continue;
            }
            scratch.clear();
            scratch.extend((0..ins.len()).map(|i| combo >> i & 1 == 1));
            if eval(scratch) {
                out |= on;
            }
        }
    } else {
        for r in 0..1u32 << vars {
            scratch.clear();
            scratch.extend(ins.iter().map(|w| w >> r & 1 == 1));
            if eval(scratch) {
                out |= 1u64 << r;
            }
        }
    }
    out
}

/// The evaluator [`eval_cone`] replaced, kept as its test oracle: the
/// cone's value for one input assignment by relaxing every interior
/// cell `interior.len() + 1` times.
#[cfg(test)]
fn eval_cone_relaxed(
    nl: &Netlist,
    interior: &[milo_netlist::ComponentId],
    inputs: &[NetId],
    row: u32,
    root_out: NetId,
) -> bool {
    let mut values: HashMap<NetId, bool> = HashMap::new();
    for (i, net) in inputs.iter().enumerate() {
        values.insert(*net, row >> i & 1 == 1);
    }
    // Relax until stable (cones are tiny).
    for _ in 0..interior.len() + 1 {
        for &c in interior {
            let Ok(comp) = nl.component(c) else { continue };
            let ins: Vec<bool> = comp
                .pins
                .iter()
                .filter(|p| p.dir == PinDir::In)
                .map(|p| p.net.and_then(|n| values.get(&n).copied()).unwrap_or(false))
                .collect();
            let outs = milo_netlist::eval_component(&comp.kind, &ins, 0);
            for (p, out) in comp.pins.iter().filter(|p| p.dir == PinDir::Out).zip(outs) {
                if let Some(n) = p.net {
                    values.insert(n, out);
                }
            }
        }
    }
    values.get(&root_out).copied().unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_netlist::{GenericMacro, PowerLevel};

    fn mk_cell(name: &str, f: GateFn, n: u8, delay: f64, area: f64) -> TechCell {
        TechCell {
            name: name.into(),
            family: "t".into(),
            function: CellFunction::Gate(f, n),
            area,
            delay,
            pin_delay: Vec::new(),
            load_delay: 0.1,
            power: 0.5,
            max_fanout: 8,
            level: PowerLevel::Standard,
        }
    }

    fn mux_cell() -> TechCell {
        TechCell {
            name: "MUX2TO1".into(),
            family: "t".into(),
            function: CellFunction::Mux { selects: 1 },
            area: 1.6,
            delay: 0.9,
            pin_delay: Vec::new(),
            load_delay: 0.1,
            power: 0.9,
            max_fanout: 8,
            level: PowerLevel::Standard,
        }
    }

    #[test]
    fn fig10_one_entry_covers_both_structures() {
        // Two structurally different 1-bit mux implementations produce the
        // same truth table, hence a single hash probe finds MUX2TO1.
        let cells = vec![mux_cell()];
        let table = HashRuleTable::from_library(&LibraryRef { cells: &cells });

        // Structure 1: (D0 & !S) | (D1 & S), vars: 0=D0, 1=D1, 2=S.
        let s1 = TruthTable::from_fn(3, |r| {
            let d0 = r & 1 == 1;
            let d1 = r >> 1 & 1 == 1;
            let s = r >> 2 & 1 == 1;
            if s {
                d1
            } else {
                d0
            }
        });
        // Structure 2: same function via (D0|S)&(D1|!S) ... evaluated it
        // is the identical table, which is the point of Fig. 10.
        #[allow(clippy::nonminimal_bool)] // redundant consensus term is the point
        let s2 = TruthTable::from_fn(3, |r| {
            let d0 = r & 1 == 1;
            let d1 = r >> 1 & 1 == 1;
            let s = r >> 2 & 1 == 1;
            (d0 || s) && (d1 || !s) && (d0 || d1)
        });
        assert_eq!(s1, s2);
        let hits = table.lookup(&s1);
        assert!(!hits.is_empty(), "mux function found by hash lookup");
        assert_eq!(hits[0].cell.name, "MUX2TO1");
    }

    #[test]
    fn permuted_inputs_still_hit() {
        let cells = vec![mk_cell("AND2", GateFn::And, 2, 0.5, 1.0)];
        let table = HashRuleTable::from_library(&LibraryRef { cells: &cells });
        let tt = TruthTable::from_fn(2, |r| r == 3);
        assert!(!table.lookup(&tt).is_empty());
    }

    #[test]
    fn best_for_delay_respects_budgets() {
        let cells = vec![
            mk_cell("AND2_SLOW", GateFn::And, 2, 1.0, 1.0),
            mk_cell("AND2_FAST", GateFn::And, 2, 0.4, 3.0),
        ];
        let table = HashRuleTable::from_library(&LibraryRef { cells: &cells });
        let tt = TruthTable::from_fn(2, |r| r == 3);
        let unbounded = table.best_for_delay(&tt, None, None).unwrap();
        assert_eq!(unbounded.cell.name, "AND2_FAST");
        let bounded = table.best_for_delay(&tt, Some(1.5), None).unwrap();
        assert_eq!(bounded.cell.name, "AND2_SLOW");
    }

    #[test]
    fn extract_cone_of_two_gates() {
        // y = (a & b) | c as AND2 -> OR2.
        let mut nl = Netlist::new("c");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let c = nl.add_net("c");
        let ab = nl.add_net("ab");
        let y = nl.add_net("y");
        let g1 = nl.add_component(
            "g1",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::And, 2)),
        );
        let g2 = nl.add_component(
            "g2",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Or, 2)),
        );
        nl.connect_named(g1, "A0", a).unwrap();
        nl.connect_named(g1, "A1", b).unwrap();
        nl.connect_named(g1, "Y", ab).unwrap();
        nl.connect_named(g2, "A0", ab).unwrap();
        nl.connect_named(g2, "A1", c).unwrap();
        nl.connect_named(g2, "Y", y).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("b", PinDir::In, b);
        nl.add_port("c", PinDir::In, c);
        nl.add_port("y", PinDir::Out, y);

        let (tt, inputs, interior) = extract_cone_min(&nl, g2, 5, 0).expect("cone extracted");
        assert_eq!(interior.len(), 2);
        assert_eq!(inputs.len(), 3);
        // Verify against the expected function under the cone's own
        // variable ordering.
        for row in 0..8u32 {
            let val = |net: NetId| -> bool {
                let idx = inputs.iter().position(|&n| n == net).unwrap();
                row >> idx & 1 == 1
            };
            assert_eq!(tt.eval(row), (val(a) && val(b)) || val(c), "row {row}");
        }
    }

    /// `top` expanded, flattened and mapped into `lib`.
    fn mapped(mut top: Netlist, lib: &milo_techmap::TechLibrary) -> Netlist {
        let mut db = milo_netlist::DesignDb::new();
        milo_compilers::expand_micro_components(&mut top, &mut db).expect("compiles");
        let top = db.insert(top);
        milo_techmap::map_netlist(&db.flatten(&top).expect("flattens"), lib).expect("maps")
    }

    /// The levelized evaluator against the relaxation it replaced: the
    /// same table for the cone rooted at every component of mapped
    /// `random_control(300|1000, 24, 7)`, the eight Fig. 19 circuits and
    /// `pipelined_datapath(3, 4, 0)`, at 5 and 6 inputs.
    #[test]
    fn levelized_cones_match_relaxation() {
        use milo_circuits::{fig19_all, pipelined_datapath, random_control};
        let lib = milo_techmap::ecl_library();
        let mut designs: Vec<Netlist> = fig19_all().into_iter().map(|c| c.netlist).collect();
        designs.push(random_control(300, 24, 7));
        designs.push(random_control(1000, 24, 7));
        designs.push(pipelined_datapath(3, 4, 0));
        let mut deep = 0;
        for design in designs {
            let name = design.name.clone();
            let nl = mapped(design, &lib);
            for id in nl.component_ids() {
                for max_inputs in [5, 6] {
                    let Some((tt, inputs, interior)) = extract_cone_min(&nl, id, max_inputs, 0)
                    else {
                        continue;
                    };
                    let root = nl.component(id).expect("live");
                    let root_out = root
                        .output_pins()
                        .find_map(|p| root.pins[p as usize].net)
                        .expect("extracted cones have an output net");
                    let want = TruthTable::from_fn(inputs.len() as u8, |row| {
                        eval_cone_relaxed(&nl, &interior, &inputs, row, root_out)
                    });
                    assert_eq!(tt, want, "{name}: cone at {id:?}, {max_inputs} inputs");
                    deep += usize::from(interior.len() > 2);
                }
            }
        }
        assert!(deep > 100, "only {deep} cones of three or more cells");
    }

    #[test]
    fn cone_not_extracted_past_fanout() {
        // The AND's output also feeds a port: cone must stop there.
        let mut nl = Netlist::new("c");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let c = nl.add_net("c");
        let ab = nl.add_net("ab");
        let y = nl.add_net("y");
        let g1 = nl.add_component(
            "g1",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::And, 2)),
        );
        let g2 = nl.add_component(
            "g2",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Or, 2)),
        );
        nl.connect_named(g1, "A0", a).unwrap();
        nl.connect_named(g1, "A1", b).unwrap();
        nl.connect_named(g1, "Y", ab).unwrap();
        nl.connect_named(g2, "A0", ab).unwrap();
        nl.connect_named(g2, "A1", c).unwrap();
        nl.connect_named(g2, "Y", y).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("b", PinDir::In, b);
        nl.add_port("c", PinDir::In, c);
        nl.add_port("ab", PinDir::Out, ab);
        nl.add_port("y", PinDir::Out, y);
        let (_, inputs, interior) = extract_cone_min(&nl, g2, 5, 0).expect("cone extracted");
        assert_eq!(interior.len(), 1, "AND not absorbed (its net has fanout 2)");
        assert_eq!(inputs.len(), 2);
    }
}
