//! A DAGON-style technology binder (§2.2.3): the paper's "algorithms only"
//! baseline.
//!
//! Following Keutzer's DAGON, the subject circuit is decomposed into a
//! NAND2/INV graph, partitioned into trees at multi-fanout points ("making
//! every component in the graph whose fanout is greater than one the root
//! of a new tree"), and each tree is covered with library patterns by
//! dynamic programming, giving a locally optimal match per tree.

use crate::libraries::{aoi21, aoi22, oai21};
use crate::library::TechLibrary;
use crate::mapper::MapError;
use milo_netlist::{
    CellFunction, ComponentKind, GateFn, GenericMacro, NetId, Netlist, PinDir, PowerLevel, TechCell,
};
use std::collections::HashMap;

/// Optimization objective for the tree covering.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Objective {
    /// Minimize total cell area.
    Area,
    /// Minimize the longest intrinsic-delay path per tree.
    Delay,
}

/// A node of the NAND2/INV subject graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Node {
    /// Primary input (index into the input-name table).
    Input(u32),
    Nand(u32, u32),
    Inv(u32),
}

#[derive(Default)]
struct Graph {
    nodes: Vec<Node>,
    input_names: Vec<String>,
    inv_cache: HashMap<u32, u32>,
    nand_cache: HashMap<(u32, u32), u32>,
}

impl Graph {
    fn input(&mut self, name: &str) -> u32 {
        self.input_names.push(name.to_owned());
        self.nodes
            .push(Node::Input(self.input_names.len() as u32 - 1));
        self.nodes.len() as u32 - 1
    }

    fn inv(&mut self, x: u32) -> u32 {
        // Double-inverter elimination keeps AOI-shaped structures visible.
        if let Node::Inv(y) = self.nodes[x as usize] {
            return y;
        }
        if let Some(&n) = self.inv_cache.get(&x) {
            return n;
        }
        self.nodes.push(Node::Inv(x));
        let n = self.nodes.len() as u32 - 1;
        self.inv_cache.insert(x, n);
        n
    }

    fn nand(&mut self, a: u32, b: u32) -> u32 {
        let key = (a.min(b), a.max(b));
        if let Some(&n) = self.nand_cache.get(&key) {
            return n;
        }
        self.nodes.push(Node::Nand(a, b));
        let n = self.nodes.len() as u32 - 1;
        self.nand_cache.insert(key, n);
        n
    }

    fn and2(&mut self, a: u32, b: u32) -> u32 {
        let n = self.nand(a, b);
        self.inv(n)
    }

    fn or2(&mut self, a: u32, b: u32) -> u32 {
        let na = self.inv(a);
        let nb = self.inv(b);
        self.nand(na, nb)
    }

    fn xor2(&mut self, a: u32, b: u32) -> u32 {
        let na = self.inv(a);
        let nb = self.inv(b);
        let p = self.nand(a, nb);
        let q = self.nand(na, b);
        self.nand(p, q)
    }

    /// Decomposes an `n`-input gate over already-built operand nodes.
    fn gate(&mut self, f: GateFn, ops: &[u32]) -> u32 {
        match f {
            GateFn::Inv => self.inv(ops[0]),
            GateFn::Buf => ops[0],
            GateFn::And => ops.iter().skip(1).fold(ops[0], |acc, &x| self.and2(acc, x)),
            GateFn::Or => ops.iter().skip(1).fold(ops[0], |acc, &x| self.or2(acc, x)),
            GateFn::Xor => ops.iter().skip(1).fold(ops[0], |acc, &x| self.xor2(acc, x)),
            GateFn::Nand => {
                let a = self.gate(GateFn::And, ops);
                self.inv(a)
            }
            GateFn::Nor => {
                let a = self.gate(GateFn::Or, ops);
                self.inv(a)
            }
            GateFn::Xnor => {
                let a = self.gate(GateFn::Xor, ops);
                self.inv(a)
            }
        }
    }
}

/// A library pattern tree over leaf indices.
#[derive(Clone, Debug)]
enum PTree {
    Leaf(u8),
    Nand(Box<PTree>, Box<PTree>),
    Inv(Box<PTree>),
}

struct Pattern {
    cell: TechCell,
    tree: PTree,
    nleaves: u8,
}

/// Builds the pattern tree of an `n`-input gate with the same left-deep
/// decomposition the subject graph uses.
fn gate_ptree(f: GateFn, n: u8) -> Option<PTree> {
    fn and_chain(leaves: &mut std::ops::Range<u8>, n: u8) -> PTree {
        // AND_n = Inv(nand_chain)
        PTree::Inv(Box::new(nand_chain(leaves, n)))
    }
    fn nand_chain(leaves: &mut std::ops::Range<u8>, n: u8) -> PTree {
        // NAND_n left-deep: Nand(AND_{n-1}, leaf)
        if n == 2 {
            let a = leaves.next().expect("leaf supply");
            let b = leaves.next().expect("leaf supply");
            return PTree::Nand(Box::new(PTree::Leaf(a)), Box::new(PTree::Leaf(b)));
        }
        let inner = and_chain(leaves, n - 1);
        let last = leaves.next().expect("leaf supply");
        PTree::Nand(Box::new(inner), Box::new(PTree::Leaf(last)))
    }
    fn or_chain(leaves: &mut std::ops::Range<u8>, n: u8) -> PTree {
        // OR left-deep: or2(or_{n-1}, leaf); or2(a,b) = Nand(Inv a, Inv b)
        if n == 1 {
            let a = leaves.next().expect("leaf supply");
            return PTree::Leaf(a);
        }
        let inner = or_chain(leaves, n - 1);
        let last = leaves.next().expect("leaf supply");
        PTree::Nand(
            Box::new(PTree::Inv(Box::new(inner))),
            Box::new(PTree::Inv(Box::new(PTree::Leaf(last)))),
        )
    }
    fn xor_chain(leaves: &mut std::ops::Range<u8>, n: u8) -> PTree {
        if n == 1 {
            let a = leaves.next().expect("leaf supply");
            return PTree::Leaf(a);
        }
        let a = xor_chain(leaves, n - 1);
        let b = PTree::Leaf(leaves.next().expect("leaf supply"));
        // xor2(a,b) = Nand(Nand(a, Inv b), Nand(Inv a, b))
        let na = PTree::Inv(Box::new(a.clone()));
        let nb = PTree::Inv(Box::new(b.clone()));
        PTree::Nand(
            Box::new(PTree::Nand(Box::new(a), Box::new(nb))),
            Box::new(PTree::Nand(Box::new(na), Box::new(b))),
        )
    }
    let mut leaves = 0..n;
    let t = match f {
        GateFn::Inv => PTree::Inv(Box::new(PTree::Leaf(0))),
        GateFn::Buf => return None, // no pattern: buffers are free wires
        GateFn::And => and_chain(&mut leaves, n),
        GateFn::Nand => nand_chain(&mut leaves, n),
        GateFn::Or => or_chain(&mut leaves, n),
        GateFn::Nor => PTree::Inv(Box::new(or_chain(&mut leaves, n))),
        GateFn::Xor => xor_chain(&mut leaves, n),
        GateFn::Xnor => PTree::Inv(Box::new(xor_chain(&mut leaves, n))),
    };
    Some(t)
}

/// Hand-built patterns for the complex AOI/OAI cells (recognized by their
/// truth tables).
fn table_ptree(cell: &TechCell) -> Option<PTree> {
    let CellFunction::Table(tt) = &cell.function else {
        return None;
    };
    let nand = |a: PTree, b: PTree| PTree::Nand(Box::new(a), Box::new(b));
    let invp = |a: PTree| PTree::Inv(Box::new(a));
    let leaf = |i: u8| PTree::Leaf(i);
    if *tt == aoi21() {
        // !((a&b)|c) = Inv(Nand(Nand(a,b), Inv c))
        Some(invp(nand(nand(leaf(0), leaf(1)), invp(leaf(2)))))
    } else if *tt == oai21() {
        // !((a|b)&c) = Nand(Or(a,b), c) = Nand(Nand(!a,!b), c)
        Some(nand(nand(invp(leaf(0)), invp(leaf(1))), leaf(2)))
    } else if *tt == aoi22() {
        // !((a&b)|(c&d)) = Inv(Nand(Nand(a,b), Nand(c,d)))
        Some(invp(nand(nand(leaf(0), leaf(1)), nand(leaf(2), leaf(3)))))
    } else {
        None
    }
}

fn build_patterns(lib: &TechLibrary) -> Vec<Pattern> {
    let mut out = Vec::new();
    for cell in lib.cells() {
        if cell.level != PowerLevel::Standard {
            continue;
        }
        let tree = match &cell.function {
            CellFunction::Gate(f, n) => gate_ptree(*f, *n),
            CellFunction::Table(_) => table_ptree(cell),
            _ => None,
        };
        if let Some(tree) = tree {
            let nleaves = match &cell.function {
                CellFunction::Gate(_, n) => *n,
                CellFunction::Table(tt) => tt.vars(),
                _ => 0,
            };
            out.push(Pattern {
                cell: cell.clone(),
                tree,
                nleaves,
            });
        }
    }
    out
}

/// Maps a purely combinational generic-gate netlist with DAGON-style tree
/// covering.
///
/// # Errors
///
/// * [`MapError::Unmapped`] if the netlist contains anything but generic
///   gates (run on random-logic circuits; MSI components go through the
///   lookup-table mapper instead);
/// * [`MapError::NoCell`] if the library lacks NAND2 or INV.
pub fn dagon_map(
    nl: &Netlist,
    lib: &TechLibrary,
    objective: Objective,
) -> Result<Netlist, MapError> {
    // 1. Build the subject graph.
    let mut g = Graph::default();
    let mut net_node: HashMap<NetId, u32> = HashMap::new();
    for p in nl.ports() {
        if p.dir == PinDir::In {
            let n = g.input(&p.name);
            net_node.insert(p.net, n);
        }
    }
    let order = nl.topo_order()?;
    for id in order {
        let comp = nl.component(id)?;
        let ComponentKind::Generic(GenericMacro::Gate(f, _)) = comp.kind else {
            return Err(MapError::Unmapped(format!(
                "dagon baseline handles generic gates only, found {}",
                comp.kind.label()
            )));
        };
        let ops: Vec<u32> = comp
            .pins
            .iter()
            .filter(|p| p.dir == PinDir::In)
            .map(|p| {
                let net = p.net.expect("validated netlist");
                *net_node.get(&net).expect("topological order")
            })
            .collect();
        let out = g.gate(f, &ops);
        let y = comp
            .pins
            .iter()
            .find(|p| p.dir == PinDir::Out)
            .and_then(|p| p.net)
            .expect("gate output connected");
        net_node.insert(y, out);
    }

    // 2. Fanout counts and tree boundaries — over *live* nodes only
    // (decomposition byproducts such as the unused Inv of an AND feeding
    // an inverting consumer must not inflate fanout and break matches).
    let mut output_nodes: Vec<(String, u32)> = Vec::new();
    for p in nl.ports() {
        if p.dir == PinDir::Out {
            let n = *net_node.get(&p.net).expect("driven output");
            output_nodes.push((p.name.clone(), n));
        }
    }
    let mut live = vec![false; g.nodes.len()];
    let mut stack: Vec<u32> = output_nodes.iter().map(|(_, n)| *n).collect();
    while let Some(n) = stack.pop() {
        if std::mem::replace(&mut live[n as usize], true) {
            continue;
        }
        match g.nodes[n as usize] {
            Node::Input(_) => {}
            Node::Inv(x) => stack.push(x),
            Node::Nand(a, b) => {
                stack.push(a);
                stack.push(b);
            }
        }
    }
    let mut fanout = vec![0u32; g.nodes.len()];
    for (i, node) in g.nodes.iter().enumerate() {
        if !live[i] {
            continue;
        }
        match node {
            Node::Input(_) => {}
            Node::Inv(x) => fanout[*x as usize] += 1,
            Node::Nand(a, b) => {
                fanout[*a as usize] += 1;
                fanout[*b as usize] += 1;
            }
        }
    }
    for (_, n) in &output_nodes {
        fanout[*n as usize] += 1;
    }
    let is_boundary = |n: u32, g: &Graph, fanout: &[u32]| -> bool {
        matches!(g.nodes[n as usize], Node::Input(_)) || fanout[n as usize] > 1
    };

    // 3. Patterns & DP covering.
    let patterns = build_patterns(lib);
    if !patterns
        .iter()
        .any(|p| matches!(p.cell.function, CellFunction::Gate(GateFn::Nand, 2)))
    {
        return Err(MapError::NoCell("NAND2".to_owned()));
    }
    // best[n] = (cost, pattern index, leaf assignment)
    let mut best: Vec<Option<(f64, usize, Vec<u32>)>> = vec![None; g.nodes.len()];

    fn match_at(
        g: &Graph,
        n: u32,
        p: &PTree,
        assign: &mut Vec<Option<u32>>,
        is_boundary: &dyn Fn(u32) -> bool,
        root: bool,
    ) -> bool {
        match p {
            PTree::Leaf(i) => {
                assign[*i as usize] = Some(n);
                true
            }
            // Trees may cross multi-fanout *inverters* by duplicating them
            // (the standard DAGON inverter heuristic); any other fanout
            // point is a hard tree boundary.
            _ if !root && is_boundary(n) && !matches!(g.nodes[n as usize], Node::Inv(_)) => false,
            PTree::Inv(q) => match g.nodes[n as usize] {
                Node::Inv(x) => match_at(g, x, q, assign, is_boundary, false),
                _ => false,
            },
            PTree::Nand(q1, q2) => match g.nodes[n as usize] {
                Node::Nand(a, b) => {
                    let save = assign.clone();
                    if match_at(g, a, q1, assign, is_boundary, false)
                        && match_at(g, b, q2, assign, is_boundary, false)
                    {
                        return true;
                    }
                    *assign = save;
                    match_at(g, b, q1, assign, is_boundary, false)
                        && match_at(g, a, q2, assign, is_boundary, false)
                }
                _ => false,
            },
        }
    }

    fn cover(
        g: &Graph,
        n: u32,
        patterns: &[Pattern],
        best: &mut Vec<Option<(f64, usize, Vec<u32>)>>,
        fanout: &[u32],
        objective: Objective,
    ) -> f64 {
        if matches!(g.nodes[n as usize], Node::Input(_)) {
            return 0.0;
        }
        if let Some((c, _, _)) = &best[n as usize] {
            return *c;
        }
        let boundary =
            |x: u32| matches!(g.nodes[x as usize], Node::Input(_)) || fanout[x as usize] > 1;
        let mut best_here: Option<(f64, usize, Vec<u32>)> = None;
        for (pi, pat) in patterns.iter().enumerate() {
            let mut assign: Vec<Option<u32>> = vec![None; pat.nleaves as usize];
            if !match_at(g, n, &pat.tree, &mut assign, &boundary, true) {
                continue;
            }
            let leaves: Vec<u32> = assign.into_iter().map(|a| a.expect("full match")).collect();
            let cell_cost = match objective {
                Objective::Area => pat.cell.area,
                Objective::Delay => pat.cell.delay,
            };
            let cost = match objective {
                Objective::Area => {
                    cell_cost
                        + leaves
                            .iter()
                            .map(|&l| {
                                if boundary(l) {
                                    0.0
                                } else {
                                    cover(g, l, patterns, best, fanout, objective)
                                }
                            })
                            .sum::<f64>()
                }
                Objective::Delay => {
                    cell_cost
                        + leaves
                            .iter()
                            .map(|&l| {
                                if boundary(l) {
                                    0.0
                                } else {
                                    cover(g, l, patterns, best, fanout, objective)
                                }
                            })
                            .fold(0.0f64, f64::max)
                }
            };
            if best_here.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                best_here = Some((cost, pi, leaves));
            }
        }
        let entry = best_here.expect("NAND2+INV guarantee a cover");
        let c = entry.0;
        best[n as usize] = Some(entry);
        c
    }

    // Roots: boundary nodes that are not inputs, plus output nodes.
    let mut roots: Vec<u32> = (0..g.nodes.len() as u32)
        .filter(|&n| !matches!(g.nodes[n as usize], Node::Input(_)) && fanout[n as usize] > 1)
        .collect();
    for (_, n) in &output_nodes {
        if !roots.contains(n) && !matches!(g.nodes[*n as usize], Node::Input(_)) {
            roots.push(*n);
        }
    }
    for &r in &roots {
        cover(&g, r, &patterns, &mut best, &fanout, objective);
    }

    // 4. Emit the mapped netlist.
    let mut out = Netlist::new(format!("{}_dagon", nl.name));
    let mut node_net: HashMap<u32, NetId> = HashMap::new();
    for p in nl.ports() {
        if p.dir == PinDir::In {
            let net = out.add_net(&p.name);
            out.add_port(&p.name, PinDir::In, net);
            let n = net_node[&p.net];
            node_net.insert(n, net);
        }
    }
    let mut counter = 0usize;

    #[allow(clippy::too_many_arguments)]
    fn emit(
        n: u32,
        best: &[Option<(f64, usize, Vec<u32>)>],
        patterns: &[Pattern],
        out: &mut Netlist,
        node_net: &mut HashMap<u32, NetId>,
        counter: &mut usize,
    ) -> NetId {
        if let Some(&net) = node_net.get(&n) {
            return net;
        }
        let (_, pi, leaves) = best[n as usize].as_ref().expect("covered node");
        let pat = &patterns[*pi];
        let input_nets: Vec<NetId> = leaves
            .iter()
            .map(|&l| emit(l, best, patterns, out, node_net, counter))
            .collect();
        *counter += 1;
        let comp = out.add_component(
            format!("dg{}_{}", counter, pat.cell.name.to_lowercase()),
            ComponentKind::Tech(pat.cell.clone()),
        );
        for (i, net) in input_nets.iter().enumerate() {
            out.connect_named(comp, &format!("A{i}"), *net)
                .expect("fresh cell pin");
        }
        let y = out.add_net(format!("dgn{counter}"));
        out.connect_named(comp, "Y", y).expect("fresh cell pin");
        node_net.insert(n, y);
        y
    }

    // Emit roots in dependency order (recursive emit handles it).
    for &r in &roots {
        emit(r, &best, &patterns, &mut out, &mut node_net, &mut counter);
    }
    // Bind output ports (insert a buffer for input-passthrough outputs).
    let _ = is_boundary;
    for (name, n) in output_nodes {
        let net = match node_net.get(&n) {
            Some(&net) => net,
            None => emit(n, &best, &patterns, &mut out, &mut node_net, &mut counter),
        };
        out.add_port(name, PinDir::Out, net);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libraries::{cmos_library, ecl_library};
    use crate::mapper::map_netlist;
    use milo_compilers::verify::check_comb_equivalence;
    use milo_netlist::Netlist;

    /// y = !((a & b) | c), plus a second output d = a & b to create fanout.
    fn aoi_circuit() -> Netlist {
        let mut nl = Netlist::new("aoi");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let c = nl.add_net("c");
        let ab = nl.add_net("ab");
        let y = nl.add_net("y");
        let g1 = nl.add_component(
            "g1",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::And, 2)),
        );
        nl.connect_named(g1, "A0", a).unwrap();
        nl.connect_named(g1, "A1", b).unwrap();
        nl.connect_named(g1, "Y", ab).unwrap();
        let g2 = nl.add_component(
            "g2",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Nor, 2)),
        );
        nl.connect_named(g2, "A0", ab).unwrap();
        nl.connect_named(g2, "A1", c).unwrap();
        nl.connect_named(g2, "Y", y).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("b", PinDir::In, b);
        nl.add_port("c", PinDir::In, c);
        nl.add_port("y", PinDir::Out, y);
        nl
    }

    /// Single-tree AOI circuit (no extra fanout): y = !((a&b)|c).
    fn aoi_tree() -> Netlist {
        aoi_circuit()
    }

    #[test]
    fn dagon_preserves_function() {
        for lib in [cmos_library(), ecl_library()] {
            let nl = aoi_tree();
            let mapped = dagon_map(&nl, &lib, Objective::Area).unwrap();
            check_comb_equivalence(&nl, &mapped, 0).unwrap_or_else(|e| panic!("{}: {e}", lib.name));
        }
    }

    #[test]
    fn dagon_finds_complex_cell() {
        let lib = cmos_library();
        let nl = aoi_tree();
        let mapped = dagon_map(&nl, &lib, Objective::Area).unwrap();
        let has_aoi = mapped.component_ids().any(|id| {
            matches!(
                mapped.component(id).map(|c| &c.kind),
                Ok(ComponentKind::Tech(c)) if c.name == "AOI21"
            )
        });
        assert!(has_aoi, "expected AOI21 in cover: {mapped:?}");
    }

    #[test]
    fn dagon_beats_or_ties_direct_mapping_area() {
        let lib = cmos_library();
        let nl = aoi_tree();
        let direct = map_netlist(&nl, &lib).unwrap();
        let dagon = dagon_map(&nl, &lib, Objective::Area).unwrap();
        let area = |n: &Netlist| -> f64 {
            n.component_ids()
                .filter_map(|id| match n.component(id).map(|c| c.kind.clone()) {
                    Ok(ComponentKind::Tech(c)) => Some(c.area),
                    _ => None,
                })
                .sum()
        };
        assert!(
            area(&dagon) <= area(&direct),
            "dagon {} vs direct {}",
            area(&dagon),
            area(&direct)
        );
    }

    #[test]
    fn dagon_xor_maps() {
        let mut nl = Netlist::new("x");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let y = nl.add_net("y");
        let g = nl.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Xor, 2)),
        );
        nl.connect_named(g, "A0", a).unwrap();
        nl.connect_named(g, "A1", b).unwrap();
        nl.connect_named(g, "Y", y).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("b", PinDir::In, b);
        nl.add_port("y", PinDir::Out, y);
        let mapped = dagon_map(&nl, &cmos_library(), Objective::Area).unwrap();
        check_comb_equivalence(&nl, &mapped, 0).unwrap();
    }

    #[test]
    fn dagon_rejects_msi() {
        let mut nl = Netlist::new("m");
        nl.add_component(
            "u",
            ComponentKind::Generic(GenericMacro::Adder {
                bits: 4,
                cla: false,
            }),
        );
        assert!(matches!(
            dagon_map(&nl, &cmos_library(), Objective::Area),
            Err(MapError::Unmapped(_))
        ));
    }

    #[test]
    fn delay_objective_runs() {
        let nl = aoi_tree();
        let mapped = dagon_map(&nl, &cmos_library(), Objective::Delay).unwrap();
        check_comb_equivalence(&nl, &mapped, 0).unwrap();
    }
}
