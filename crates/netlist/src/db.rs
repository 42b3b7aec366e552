//! The design database: named designs with hierarchical instantiation and
//! flattening.
//!
//! The paper's design compilers "see if the requested design already exists
//! in the database" before building (§6.1) and "build circuits in a
//! hierarchical fashion", one design calling another (the register compiler
//! calls the multiplexor compiler). [`DesignDb`] is that database;
//! [`DesignDb::flatten`] expands the hierarchy for analysis.

use crate::kind::PinSpec;
use crate::netlist::{ComponentKind, Netlist, NetlistError};
use crate::{ComponentId, NetId};
use std::collections::HashMap;
use std::sync::Arc;

/// A store of named designs.
///
/// Designs are held behind [`Arc`], so cloning a database — e.g. to hand
/// a read-mostly snapshot to a parallel synthesis arm — copies only the
/// name table, never the netlists themselves. Mutation through
/// [`DesignDb::get_mut`] is copy-on-write.
///
/// # Examples
///
/// ```
/// use milo_netlist::{DesignDb, Netlist};
///
/// let mut db = DesignDb::new();
/// db.insert(Netlist::new("ADD4"));
/// assert!(db.get("ADD4").is_some());
/// assert!(db.get("MUX2") .is_none());
/// ```
#[derive(Clone, Debug, Default)]
pub struct DesignDb {
    designs: HashMap<String, Arc<Netlist>>,
}

impl DesignDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a design under its own name, replacing any previous entry.
    pub fn insert(&mut self, design: Netlist) -> String {
        let name = design.name.clone();
        self.designs.insert(name.clone(), Arc::new(design));
        name
    }

    /// Looks up a design by name.
    pub fn get(&self, name: &str) -> Option<&Netlist> {
        self.designs.get(name).map(Arc::as_ref)
    }

    /// Mutable lookup (copy-on-write when the design is shared with a
    /// snapshot of this database).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Netlist> {
        self.designs.get_mut(name).map(Arc::make_mut)
    }

    /// Adopts every design of `other`, overwriting same-name entries
    /// (last write wins). Sharing is by [`Arc`], so this moves
    /// pointers, not netlists — the merge step batched synthesis uses
    /// to fold each arm's compiled designs back into the caller's
    /// cache, and the service uses to fold each job's back into its
    /// store.
    pub fn merge_from(&mut self, other: &DesignDb) {
        for (name, design) in &other.designs {
            self.designs.insert(name.clone(), Arc::clone(design));
        }
    }

    /// Whether a design exists (the compilers' cache check).
    pub fn contains(&self, name: &str) -> bool {
        self.designs.contains_key(name)
    }

    /// Number of stored designs.
    pub fn len(&self) -> usize {
        self.designs.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.designs.is_empty()
    }

    /// Iterates design names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.designs.keys().map(String::as_str)
    }

    /// The port layout of a design, as pin specs for an instance
    /// (directions are the design's own port directions).
    pub fn instance_ports(&self, name: &str) -> Option<Vec<PinSpec>> {
        self.get(name).map(|d| {
            d.ports()
                .iter()
                .map(|p| PinSpec {
                    name: p.name.clone(),
                    dir: p.dir,
                })
                .collect()
        })
    }

    /// Creates an instance component kind for `design`.
    pub fn instance_kind(&self, design: &str) -> Option<ComponentKind> {
        self.instance_ports(design)
            .map(|ports| ComponentKind::Instance {
                design: design.to_owned(),
                ports,
            })
    }

    /// Recursively flattens `design`: every [`ComponentKind::Instance`] is
    /// replaced by a copy of the instantiated design's contents, with
    /// instance pins spliced onto the surrounding nets (see
    /// [`Netlist::splice`]).
    ///
    /// Expanding an instance only empties its own slot and appends, so
    /// one forward pass over the slots meets every instance, nested ones
    /// included, in the order a rescan from slot 0 would: the cost is
    /// linear in the flattened size.
    ///
    /// # Errors
    ///
    /// Fails if an instance references an unknown design or the hierarchy
    /// is malformed.
    pub fn flatten(&self, design: &str) -> Result<Netlist, NetlistError> {
        let top = self
            .get(design)
            .ok_or_else(|| NetlistError::NoSuchPort(format!("design {design}")))?;
        self.flatten_netlist(top)
    }

    /// [`DesignDb::flatten`] for a top that is not stored: its instances
    /// are expanded from this database, which stays unchanged.
    ///
    /// # Errors
    ///
    /// Fails if an instance references an unknown design or the hierarchy
    /// is malformed.
    pub fn flatten_netlist(&self, top: &Netlist) -> Result<Netlist, NetlistError> {
        let mut out = top.clone();
        let mut slot = 0;
        while slot < out.component_slot_count() {
            self.expand_instance(&mut out, ComponentId(slot as u32))?;
            slot += 1;
        }
        out.sweep_dead_nets();
        Ok(out)
    }

    /// Expands `inst_id` in place when it is an instance (a no-op for
    /// any other component or an empty slot).
    fn expand_instance(&self, nl: &mut Netlist, inst_id: ComponentId) -> Result<(), NetlistError> {
        let Ok(comp) = nl.component(inst_id) else {
            return Ok(());
        };
        let ComponentKind::Instance { design, .. } = &comp.kind else {
            return Ok(());
        };
        let inner = self
            .get(design)
            .ok_or_else(|| NetlistError::NoSuchPort(format!("design {design}")))?;
        let pin_nets: Vec<Option<NetId>> = comp.pins.iter().map(|p| p.net).collect();
        let removed = nl.remove_component(inst_id)?;
        let pins: Vec<(&str, Option<NetId>)> = removed
            .pins
            .iter()
            .zip(pin_nets)
            .map(|(p, net)| (p.name.as_str(), net))
            .collect();
        nl.splice(inner, &removed.name, &pins)?;
        Ok(())
    }
}

/// Convenience: builds a one-level test hierarchy and flattens it.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{GateFn, GenericMacro, PinDir};
    use crate::Simulator;

    /// An inner design: y = !(a & b).
    fn inner_nand() -> Netlist {
        let mut nl = Netlist::new("NAND2D");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let y = nl.add_net("y");
        let g = nl.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Nand, 2)),
        );
        nl.connect_named(g, "A0", a).unwrap();
        nl.connect_named(g, "A1", b).unwrap();
        nl.connect_named(g, "Y", y).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("b", PinDir::In, b);
        nl.add_port("y", PinDir::Out, y);
        nl
    }

    #[test]
    fn flatten_single_level() {
        let mut db = DesignDb::new();
        db.insert(inner_nand());

        let mut top = Netlist::new("TOP");
        let x = top.add_net("x");
        let y = top.add_net("y");
        let z = top.add_net("z");
        let kind = db.instance_kind("NAND2D").unwrap();
        let u = top.add_component("u0", kind);
        top.connect_named(u, "a", x).unwrap();
        top.connect_named(u, "b", y).unwrap();
        top.connect_named(u, "y", z).unwrap();
        top.add_port("x", PinDir::In, x);
        top.add_port("y", PinDir::In, y);
        top.add_port("z", PinDir::Out, z);
        db.insert(top);

        let flat = db.flatten("TOP").unwrap();
        assert!(!flat.has_hierarchy());
        assert_eq!(flat.component_count(), 1);

        let mut sim = Simulator::new(&flat).unwrap();
        for (a, b) in [(false, false), (true, false), (true, true)] {
            sim.set_input("x", a).unwrap();
            sim.set_input("y", b).unwrap();
            sim.settle();
            assert_eq!(sim.output("z").unwrap(), !(a && b), "{a} {b}");
        }
    }

    #[test]
    fn flatten_nested_hierarchy() {
        let mut db = DesignDb::new();
        db.insert(inner_nand());

        // MID wraps NAND2D and inverts its output: y = a & b.
        let mut mid = Netlist::new("MID");
        let a = mid.add_net("a");
        let b = mid.add_net("b");
        let n = mid.add_net("n");
        let y = mid.add_net("y");
        let u = mid.add_component("u", db.instance_kind("NAND2D").unwrap());
        let inv = mid.add_component(
            "i",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        mid.connect_named(u, "a", a).unwrap();
        mid.connect_named(u, "b", b).unwrap();
        mid.connect_named(u, "y", n).unwrap();
        mid.connect_named(inv, "A0", n).unwrap();
        mid.connect_named(inv, "Y", y).unwrap();
        mid.add_port("a", PinDir::In, a);
        mid.add_port("b", PinDir::In, b);
        mid.add_port("y", PinDir::Out, y);
        db.insert(mid);

        let mut top = Netlist::new("TOP2");
        let p = top.add_net("p");
        let q = top.add_net("q");
        let r = top.add_net("r");
        let m = top.add_component("m0", db.instance_kind("MID").unwrap());
        top.connect_named(m, "a", p).unwrap();
        top.connect_named(m, "b", q).unwrap();
        top.connect_named(m, "y", r).unwrap();
        top.add_port("p", PinDir::In, p);
        top.add_port("q", PinDir::In, q);
        top.add_port("r", PinDir::Out, r);
        db.insert(top);

        let flat = db.flatten("TOP2").unwrap();
        assert_eq!(flat.component_count(), 2);
        let mut sim = Simulator::new(&flat).unwrap();
        sim.set_input("p", true).unwrap();
        sim.set_input("q", true).unwrap();
        sim.settle();
        assert!(sim.output("r").unwrap());
        sim.set_input("q", false).unwrap();
        sim.settle();
        assert!(!sim.output("r").unwrap());
    }

    #[test]
    fn merge_from_overwrites_same_name_entries() {
        let mut store = DesignDb::new();
        let mut old = Netlist::new("X");
        old.add_net("only_in_old");
        store.insert(old);
        store.insert(Netlist::new("KEPT"));

        let mut job = DesignDb::new();
        let mut new = Netlist::new("X");
        new.add_net("n0");
        new.add_net("n1");
        job.insert(new);
        store.merge_from(&job);

        assert_eq!(store.len(), 2, "same-name entries collapse");
        assert_eq!(
            store.get("X").map(Netlist::net_count),
            Some(2),
            "last write wins"
        );
        assert!(store.contains("KEPT"), "other entries survive");
    }

    #[test]
    fn cache_check() {
        let mut db = DesignDb::new();
        assert!(!db.contains("NAND2D"));
        db.insert(inner_nand());
        assert!(db.contains("NAND2D"));
        assert_eq!(db.len(), 1);
    }
}
