//! The netlist graph: components with pins, nets, and top-level ports.

use crate::kind::{GenericMacro, MicroComponent, PinDir, PinSpec, TechCell};
use crate::{ComponentId, NetId, PinRef};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// What a component is.
#[derive(Clone, PartialEq, Debug)]
pub enum ComponentKind {
    /// A generic library macro (Fig. 13).
    Generic(GenericMacro),
    /// A parameterized microarchitecture component (Fig. 12).
    Micro(MicroComponent),
    /// A technology-specific cell.
    Tech(TechCell),
    /// An instance of a named design in a [`crate::DesignDb`].
    Instance {
        /// Name of the instantiated design.
        design: String,
        /// Port layout copied from the design at instantiation time.
        ports: Vec<PinSpec>,
    },
}

impl ComponentKind {
    /// Pin layout of the component.
    pub fn pin_specs(&self) -> Vec<PinSpec> {
        match self {
            ComponentKind::Generic(m) => m.pin_specs(),
            ComponentKind::Micro(m) => m.pin_specs(),
            ComponentKind::Tech(c) => c.pin_specs(),
            ComponentKind::Instance { ports, .. } => ports.clone(),
        }
    }

    /// Whether the component holds state across clock edges.
    pub fn is_sequential(&self) -> bool {
        match self {
            ComponentKind::Generic(m) => m.is_sequential(),
            ComponentKind::Micro(m) => m.is_sequential(),
            ComponentKind::Tech(c) => c.function.is_sequential(),
            // Conservative: treat unexpanded instances as sequential
            // boundaries so analyses do not look through them.
            ComponentKind::Instance { .. } => true,
        }
    }

    /// Short label for display.
    pub fn label(&self) -> String {
        match self {
            ComponentKind::Generic(m) => m.catalog_name(),
            ComponentKind::Micro(m) => m.describe(),
            ComponentKind::Tech(c) => c.name.clone(),
            ComponentKind::Instance { design, .. } => format!("@{design}"),
        }
    }
}

/// One pin of a placed component.
#[derive(Clone, PartialEq, Debug)]
pub struct Pin {
    /// Pin name (from the kind's pin spec).
    pub name: String,
    /// Direction.
    pub dir: PinDir,
    /// Net the pin is attached to, if any.
    pub net: Option<NetId>,
}

/// A placed component.
#[derive(Clone, PartialEq, Debug)]
pub struct Component {
    /// Instance name (unique within the netlist by convention, not
    /// enforced).
    pub name: String,
    /// What the component is.
    pub kind: ComponentKind,
    /// Pins, in the order given by the kind's pin specs.
    pub pins: Vec<Pin>,
}

impl Component {
    fn new(name: String, kind: ComponentKind) -> Self {
        let pins = kind
            .pin_specs()
            .into_iter()
            .map(|s| Pin {
                name: s.name,
                dir: s.dir,
                net: None,
            })
            .collect();
        Self { name, kind, pins }
    }

    /// Index of the pin called `name`.
    pub fn pin_index(&self, name: &str) -> Option<u16> {
        self.pins
            .iter()
            .position(|p| p.name == name)
            .map(|i| i as u16)
    }

    /// Indices of all input pins.
    pub fn input_pins(&self) -> impl Iterator<Item = u16> + '_ {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dir == PinDir::In)
            .map(|(i, _)| i as u16)
    }

    /// Indices of all output pins.
    pub fn output_pins(&self) -> impl Iterator<Item = u16> + '_ {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dir == PinDir::Out)
            .map(|(i, _)| i as u16)
    }
}

/// A net (electrical node).
///
/// Besides its connections, a net counts its bindings by kind: input
/// ports, output ports, output pins (drivers) and input pins (loads).
/// [`Netlist::add_port`], [`Netlist::connect`] and
/// [`Netlist::disconnect`] keep the counts, and are the only ways a
/// net's bindings change, so every per-net query reads them in O(1).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Attached pins (drivers and loads).
    pub connections: Vec<PinRef>,
    in_ports: u32,
    out_ports: u32,
    drivers: u32,
    loads: u32,
}

impl Net {
    /// Whether any pin or port is bound to the net.
    fn in_use(&self) -> bool {
        !self.connections.is_empty() || self.in_ports + self.out_ports > 0
    }

    /// The count a pin of direction `dir` adds to.
    fn pins_of(&mut self, dir: PinDir) -> &mut u32 {
        match dir {
            PinDir::Out => &mut self.drivers,
            PinDir::In => &mut self.loads,
        }
    }
}

/// A top-level port of the design.
#[derive(Clone, PartialEq, Debug)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction, from outside the design: `In` ports drive their net.
    pub dir: PinDir,
    /// The net the port is bound to.
    pub net: NetId,
}

/// Errors from netlist operations.
#[derive(Clone, PartialEq, Debug)]
pub enum NetlistError {
    /// A referenced component does not exist (or was removed).
    NoSuchComponent(ComponentId),
    /// A referenced net does not exist (or was removed).
    NoSuchNet(NetId),
    /// Pin index out of range for the component.
    NoSuchPin(PinRef),
    /// The pin is already connected to a net.
    PinAlreadyConnected(PinRef),
    /// The pin is not connected to a net.
    PinNotConnected(PinRef),
    /// Removing a net that still has connections or ports.
    NetInUse(NetId),
    /// No port by that name.
    NoSuchPort(String),
    /// The combinational part of the netlist has a cycle.
    CombinationalCycle,
    /// The operation requires a flat netlist but an instance was found.
    HierarchyPresent(ComponentId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::NoSuchComponent(c) => write!(f, "no such component {c:?}"),
            NetlistError::NoSuchNet(n) => write!(f, "no such net {n:?}"),
            NetlistError::NoSuchPin(p) => write!(f, "no such pin {p:?}"),
            NetlistError::PinAlreadyConnected(p) => write!(f, "pin {p:?} already connected"),
            NetlistError::PinNotConnected(p) => write!(f, "pin {p:?} not connected"),
            NetlistError::NetInUse(n) => write!(f, "net {n:?} still has connections"),
            NetlistError::NoSuchPort(s) => write!(f, "no such port {s}"),
            NetlistError::CombinationalCycle => write!(f, "combinational cycle detected"),
            NetlistError::HierarchyPresent(c) => {
                write!(f, "unexpanded design instance {c:?} present")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// The netlist: a flat (or hierarchical, via [`ComponentKind::Instance`])
/// graph of components and nets with named top-level ports.
///
/// # Examples
///
/// ```
/// use milo_netlist::{Netlist, ComponentKind, GenericMacro, GateFn, PinDir};
///
/// let mut nl = Netlist::new("demo");
/// let a = nl.add_net("a");
/// let y = nl.add_net("y");
/// let inv = nl.add_component("u1", ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)));
/// nl.connect_named(inv, "A0", a)?;
/// nl.connect_named(inv, "Y", y)?;
/// nl.add_port("a", PinDir::In, a);
/// nl.add_port("y", PinDir::Out, y);
/// assert_eq!(nl.component_count(), 1);
/// # Ok::<(), milo_netlist::NetlistError>(())
/// ```
#[derive(Clone, Default)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    components: Vec<Option<Component>>,
    nets: Vec<Option<Net>>,
    ports: Vec<Port>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            components: Vec::new(),
            nets: Vec::new(),
            ports: Vec::new(),
        }
    }

    /// Adds a net and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        self.nets.push(Some(Net {
            name: name.into(),
            ..Net::default()
        }));
        NetId(self.nets.len() as u32 - 1)
    }

    /// Adds a component (all pins unconnected) and returns its id.
    pub fn add_component(&mut self, name: impl Into<String>, kind: ComponentKind) -> ComponentId {
        self.components
            .push(Some(Component::new(name.into(), kind)));
        ComponentId(self.components.len() as u32 - 1)
    }

    /// Declares a top-level port bound to `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a live net: a port cannot bind a net that
    /// does not exist.
    pub fn add_port(&mut self, name: impl Into<String>, dir: PinDir, net: NetId) {
        let n = self
            .nets
            .get_mut(net.index())
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("port bound to dead net {net:?}"));
        match dir {
            PinDir::In => n.in_ports += 1,
            PinDir::Out => n.out_ports += 1,
        }
        self.ports.push(Port {
            name: name.into(),
            dir,
            net,
        });
    }

    /// The component with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoSuchComponent`] if absent.
    pub fn component(&self, id: ComponentId) -> Result<&Component, NetlistError> {
        self.components
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or(NetlistError::NoSuchComponent(id))
    }

    /// Mutable access to a component. Private: a pin's net changes only
    /// through [`Netlist::connect`] and [`Netlist::disconnect`], which
    /// keep the per-net counts.
    fn component_mut(&mut self, id: ComponentId) -> Result<&mut Component, NetlistError> {
        self.components
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .ok_or(NetlistError::NoSuchComponent(id))
    }

    /// Replaces a component's kind in place, returning the old kind. Its
    /// pins keep their names, directions and nets, so the new kind's pin
    /// layout must be compatible.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoSuchComponent`] if absent.
    pub fn set_kind(
        &mut self,
        id: ComponentId,
        kind: ComponentKind,
    ) -> Result<ComponentKind, NetlistError> {
        Ok(std::mem::replace(&mut self.component_mut(id)?.kind, kind))
    }

    /// The net with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoSuchNet`] if absent.
    pub fn net(&self, id: NetId) -> Result<&Net, NetlistError> {
        self.nets
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or(NetlistError::NoSuchNet(id))
    }

    /// Iterates live component ids.
    pub fn component_ids(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.components
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(i, _)| ComponentId(i as u32))
    }

    /// Iterates live net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_some())
            .map(|(i, _)| NetId(i as u32))
    }

    /// Number of live components.
    pub fn component_count(&self) -> usize {
        self.components.iter().filter(|c| c.is_some()).count()
    }

    /// Number of live nets.
    pub fn net_count(&self) -> usize {
        self.nets.iter().filter(|n| n.is_some()).count()
    }

    /// Arena capacity of the component store: every live
    /// [`ComponentId::index`] is below this. Lets analyses use dense
    /// id-indexed vectors instead of hash maps.
    pub fn component_slot_count(&self) -> usize {
        self.components.len()
    }

    /// Arena capacity of the net store: every live [`NetId::index`] is
    /// below this.
    pub fn net_slot_count(&self) -> usize {
        self.nets.len()
    }

    /// Top-level ports.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Finds a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Connects a pin to a net.
    ///
    /// # Errors
    ///
    /// Fails if the pin/net does not exist or the pin is already connected.
    pub fn connect(&mut self, pin: PinRef, net: NetId) -> Result<(), NetlistError> {
        self.net(net)?;
        let comp = self.component_mut(pin.component)?;
        let p = comp
            .pins
            .get_mut(pin.pin as usize)
            .ok_or(NetlistError::NoSuchPin(pin))?;
        if p.net.is_some() {
            return Err(NetlistError::PinAlreadyConnected(pin));
        }
        p.net = Some(net);
        let dir = p.dir;
        let n = self.nets[net.index()].as_mut().expect("checked above");
        n.connections.push(pin);
        *n.pins_of(dir) += 1;
        Ok(())
    }

    /// Connects a pin (looked up by name) to a net.
    ///
    /// # Errors
    ///
    /// Fails like [`Netlist::connect`], or with [`NetlistError::NoSuchPin`]
    /// for an unknown pin name.
    pub fn connect_named(
        &mut self,
        component: ComponentId,
        pin_name: &str,
        net: NetId,
    ) -> Result<(), NetlistError> {
        let idx = self
            .component(component)?
            .pin_index(pin_name)
            .ok_or(NetlistError::NoSuchPin(PinRef::new(component, u16::MAX)))?;
        self.connect(PinRef::new(component, idx), net)
    }

    /// Disconnects a pin, returning the net it was attached to.
    ///
    /// # Errors
    ///
    /// Fails if the pin does not exist or is not connected.
    pub fn disconnect(&mut self, pin: PinRef) -> Result<NetId, NetlistError> {
        let comp = self.component_mut(pin.component)?;
        let p = comp
            .pins
            .get_mut(pin.pin as usize)
            .ok_or(NetlistError::NoSuchPin(pin))?;
        let net = p.net.take().ok_or(NetlistError::PinNotConnected(pin))?;
        let dir = p.dir;
        let n = self.nets[net.index()]
            .as_mut()
            .expect("net exists while referenced");
        n.connections.retain(|c| *c != pin);
        *n.pins_of(dir) -= 1;
        Ok(net)
    }

    /// Removes a component, disconnecting all its pins first. Returns the
    /// removed component.
    ///
    /// # Errors
    ///
    /// Fails if the component does not exist.
    pub fn remove_component(&mut self, id: ComponentId) -> Result<Component, NetlistError> {
        let pin_count = self.component(id)?.pins.len();
        for pin in 0..pin_count {
            let r = PinRef::new(id, pin as u16);
            if self.component(id)?.pins[pin].net.is_some() {
                self.disconnect(r)?;
            }
        }
        Ok(self.components[id.index()].take().expect("checked above"))
    }

    /// Re-inserts a previously removed component under its old id
    /// (used by the undo log). The slot must be empty and the component's
    /// pins unconnected, as [`Netlist::remove_component`] returns them;
    /// reconnect them with [`Netlist::connect`].
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied or out of range, or a pin is
    /// connected.
    pub fn restore_component(&mut self, id: ComponentId, component: Component) {
        assert!(
            component.pins.iter().all(|p| p.net.is_none()),
            "restore of a component with connected pins"
        );
        let slot = &mut self.components[id.index()];
        assert!(slot.is_none(), "restore into occupied slot");
        *slot = Some(component);
    }

    /// Removes an unused net.
    ///
    /// # Errors
    ///
    /// Fails if the net does not exist, still has connections, or is bound
    /// to a port.
    pub fn remove_net(&mut self, id: NetId) -> Result<Net, NetlistError> {
        if self.net(id)?.in_use() {
            return Err(NetlistError::NetInUse(id));
        }
        Ok(self.nets[id.index()].take().expect("checked above"))
    }

    /// Re-inserts a previously removed net under its old id (undo log).
    /// The net must be unused, as [`Netlist::remove_net`] returns it.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied or the net has connections or
    /// ports.
    pub fn restore_net(&mut self, id: NetId, net: Net) {
        assert!(!net.in_use(), "restore of a net in use");
        let slot = &mut self.nets[id.index()];
        assert!(slot.is_none(), "restore into occupied slot");
        *slot = Some(net);
    }

    /// Frees the (already removed) component slot `id`, which must be the
    /// last arena slot. Used by undo logs so that future id allocation is
    /// deterministic after a rollback.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied or not the last one.
    pub fn free_component_slot(&mut self, id: ComponentId) {
        assert_eq!(
            id.index() + 1,
            self.components.len(),
            "only the tail slot can be freed"
        );
        assert!(self.components[id.index()].is_none(), "slot still occupied");
        self.components.pop();
    }

    /// Frees the (already removed) net slot `id`, which must be the last
    /// arena slot. See [`Netlist::free_component_slot`].
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied or not the last one.
    pub fn free_net_slot(&mut self, id: NetId) {
        assert_eq!(
            id.index() + 1,
            self.nets.len(),
            "only the tail slot can be freed"
        );
        assert!(self.nets[id.index()].is_none(), "slot still occupied");
        self.nets.pop();
    }

    /// A live net, or `None`.
    fn live_net(&self, net: NetId) -> Option<&Net> {
        self.nets.get(net.index()).and_then(Option::as_ref)
    }

    /// The connections of `net` whose pin has direction `dir`, lazily.
    fn pins_on(&self, net: NetId, dir: PinDir) -> impl Iterator<Item = PinRef> + '_ {
        self.live_net(net)
            .into_iter()
            .flat_map(|n| n.connections.iter().copied())
            .filter(move |p| {
                self.component(p.component)
                    .ok()
                    .and_then(|c| c.pins.get(p.pin as usize))
                    .is_some_and(|pin| pin.dir == dir)
            })
    }

    /// The output pin driving `net`, if any: the first in connection
    /// order when several do. `None` at once on a net no pin drives.
    /// Input *ports* also drive their nets but are not pins; see
    /// [`Netlist::net_is_port_driven`].
    pub fn driver(&self, net: NetId) -> Option<PinRef> {
        self.drivers(net).next()
    }

    /// Every output pin driving `net`, in connection order, lazily. The
    /// walk stops after the [`Netlist::driver_count`]th driver, so an
    /// undriven net costs nothing and the loads after the last driver
    /// are never visited.
    pub fn drivers(&self, net: NetId) -> impl Iterator<Item = PinRef> + '_ {
        self.pins_on(net, PinDir::Out).take(self.driver_count(net))
    }

    /// Number of output pins driving `net` (0 for a dead net). O(1).
    pub fn driver_count(&self, net: NetId) -> usize {
        self.live_net(net).map_or(0, |n| n.drivers as usize)
    }

    /// Whether an input port drives this net. O(1).
    pub fn net_is_port_driven(&self, net: NetId) -> bool {
        self.live_net(net).is_some_and(|n| n.in_ports > 0)
    }

    /// The load pins of `net` (connections whose pin is an input), lazily,
    /// in connection order. Empty for a dead net.
    pub fn load_pins(&self, net: NetId) -> impl Iterator<Item = PinRef> + '_ {
        self.pins_on(net, PinDir::In)
    }

    /// The input pins loading `net`.
    pub fn loads(&self, net: NetId) -> Vec<PinRef> {
        self.load_pins(net).collect()
    }

    /// Number of input pins loading `net` — the port-free part of
    /// [`Netlist::fanout`]. O(1).
    pub fn load_count(&self, net: NetId) -> usize {
        self.live_net(net).map_or(0, |n| n.loads as usize)
    }

    /// The first input pin loading `net` (the head of
    /// [`Netlist::loads`]), without allocating.
    pub fn first_load(&self, net: NetId) -> Option<PinRef> {
        self.load_pins(net).next()
    }

    /// Whether any top-level port (either direction) binds `net`. O(1).
    pub fn net_is_port_bound(&self, net: NetId) -> bool {
        self.live_net(net)
            .is_some_and(|n| n.in_ports + n.out_ports > 0)
    }

    /// Fanout of a net: input pins plus output ports attached. O(1).
    pub fn fanout(&self, net: NetId) -> usize {
        self.live_net(net)
            .map_or(0, |n| n.loads as usize + n.out_ports as usize)
    }

    /// The net attached to a named pin of a component, if connected.
    pub fn pin_net(&self, component: ComponentId, pin_name: &str) -> Option<NetId> {
        let c = self.component(component).ok()?;
        let idx = c.pin_index(pin_name)?;
        c.pins[idx as usize].net
    }

    /// Topological order of the combinational components. Sequential
    /// components appear first (their outputs are sources); their inputs do
    /// not create dependency edges.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalCycle`] if the combinational part is
    /// cyclic.
    pub fn topo_order(&self) -> Result<Vec<ComponentId>, NetlistError> {
        let ids: Vec<ComponentId> = self.component_ids().collect();
        // Dense id-indexed tables instead of hash maps: position of each
        // live component, and the driving pin of each net (one pass over
        // the connection lists, mirroring `driver`'s first-output-pin
        // choice).
        let mut pos = vec![usize::MAX; self.components.len()];
        for (i, id) in ids.iter().enumerate() {
            pos[id.index()] = i;
        }
        let mut drv: Vec<Option<PinRef>> = vec![None; self.nets.len()];
        for (ni, slot) in self.nets.iter().enumerate() {
            let Some(net) = slot.as_ref().filter(|n| n.drivers > 0) else {
                continue;
            };
            for p in &net.connections {
                let is_out = self
                    .components
                    .get(p.component.index())
                    .and_then(Option::as_ref)
                    .and_then(|c| c.pins.get(p.pin as usize))
                    .is_some_and(|pin| pin.dir == PinDir::Out);
                if is_out {
                    drv[ni] = Some(*p);
                    break;
                }
            }
        }
        let mut indegree = vec![0usize; ids.len()];
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
        for (i, id) in ids.iter().enumerate() {
            let comp = self.component(*id)?;
            if comp.kind.is_sequential() {
                continue; // no incoming combinational edges
            }
            for pin_idx in comp.input_pins() {
                if let Some(net) = comp.pins[pin_idx as usize].net {
                    if let Some(d) = drv[net.index()] {
                        let j = pos[d.component.index()];
                        edges[j].push(i);
                        indegree[i] += 1;
                    }
                }
            }
        }
        let mut queue: Vec<usize> = (0..ids.len()).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(ids.len());
        while let Some(i) = queue.pop() {
            order.push(ids[i]);
            for &j in &edges[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if order.len() != ids.len() {
            return Err(NetlistError::CombinationalCycle);
        }
        Ok(order)
    }

    /// Splices a copy of `inner` into this netlist as the contents of an
    /// instance called `prefix` whose pins are `pins` (name, outer net)
    /// — one expansion step of [`crate::DesignDb::flatten`], and the
    /// microarchitecture critic's way of stitching cached bodies.
    ///
    /// An inner net bound to a port joins the outer net of the first pin
    /// named like that port (when a net carries several ports, the first
    /// one decides). Every other inner net becomes a new net
    /// `"{prefix}.{name}"`, and every inner component a new component
    /// `"{prefix}.{name}"`. Nets are added in inner slot order, then
    /// components, each with its pins connected in pin order. Returns
    /// what was added.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NoSuchPort`] if a connected pin names no port of
    /// `inner`, and [`NetlistError::NoSuchNet`] if a port joins an outer
    /// net that does not exist. Nothing is added then.
    pub fn splice(
        &mut self,
        inner: &Netlist,
        prefix: &str,
        pins: &[(&str, Option<NetId>)],
    ) -> Result<Spliced, NetlistError> {
        // Per port name, the net of the first pin with that name (outer
        // `None`: no such pin seen yet; inner `None`: it is unconnected).
        let mut by_name: HashMap<&str, Option<Option<NetId>>> =
            HashMap::with_capacity(inner.ports.len());
        for p in &inner.ports {
            by_name.insert(p.name.as_str(), None);
        }
        for &(name, net) in pins {
            match by_name.get_mut(name) {
                Some(first @ None) => *first = Some(net),
                Some(Some(_)) => {}
                None if net.is_some() => {
                    return Err(NetlistError::NoSuchPort(format!("{prefix}.{name}")))
                }
                None => {}
            }
        }
        // Per inner net, the binding of the first port on it (outer
        // `None`: no port on it yet; later ports never override it).
        let mut bound: Vec<Option<Option<NetId>>> = vec![None; inner.nets.len()];
        for p in &inner.ports {
            if let Some(slot @ None) = bound.get_mut(p.net.index()) {
                let outer = by_name[p.name.as_str()].flatten();
                if let Some(net) = outer {
                    self.net(net)?;
                }
                *slot = Some(outer);
            }
        }
        let (first_net, first_component) = (self.nets.len() as u32, self.components.len() as u32);
        let mut net_map = vec![NetId(u32::MAX); inner.nets.len()];
        for (i, slot) in inner.nets.iter().enumerate() {
            let Some(net) = slot else { continue };
            net_map[i] = match bound[i].flatten() {
                Some(outer) => outer,
                None => self.add_net(format!("{prefix}.{}", net.name)),
            };
        }
        for c in inner.components.iter().flatten() {
            let id = self.add_component(format!("{prefix}.{}", c.name), c.kind.clone());
            for (pin, p) in c.pins.iter().enumerate() {
                if let Some(net) = p.net {
                    self.connect(PinRef::new(id, pin as u16), net_map[net.index()])
                        .expect("a fresh pin on a live net connects");
                }
            }
        }
        Ok(Spliced {
            nets: first_net..self.nets.len() as u32,
            components: first_component..self.components.len() as u32,
        })
    }

    /// Whether the netlist contains unexpanded design instances.
    pub fn has_hierarchy(&self) -> bool {
        self.component_ids().any(|id| {
            matches!(
                self.component(id).map(|c| &c.kind),
                Ok(ComponentKind::Instance { .. })
            )
        })
    }

    /// Removes nets that have no connections and no port bindings.
    /// Returns how many were removed.
    pub fn sweep_dead_nets(&mut self) -> usize {
        let mut removed = 0;
        for slot in &mut self.nets {
            if slot.as_ref().is_some_and(|net| !net.in_use()) {
                *slot = None;
                removed += 1;
            }
        }
        removed
    }
}

/// What one [`Netlist::splice`] added. A splice appends, so each kind
/// of id it added is one contiguous run of arena slots.
#[derive(Clone, Debug, PartialEq)]
pub struct Spliced {
    nets: Range<u32>,
    components: Range<u32>,
}

impl Spliced {
    /// The new nets, the inner nets that joined no outer net, in the
    /// order they were added.
    pub fn nets(&self) -> impl Iterator<Item = NetId> {
        self.nets.clone().map(NetId)
    }

    /// The copies of the inner components, in the order they were
    /// added.
    pub fn components(&self) -> impl Iterator<Item = ComponentId> {
        self.components.clone().map(ComponentId)
    }
}

/// The set of components and nets a transaction (or its undo) touched.
///
/// Produced by the rules engine's undo log and consumed by incremental
/// analyses (`milo-timing`'s incremental STA) to re-evaluate only what
/// the change affected instead of re-analyzing the whole netlist.
/// Entries may reference components/nets that no longer exist (e.g. after
/// an undo removed them); consumers must tolerate dead ids.
#[derive(Clone, Debug, Default)]
pub struct TouchSet {
    /// Components added, removed, re-kinded, or re-pinned.
    pub components: Vec<ComponentId>,
    /// Nets added, removed, or whose connection list changed.
    pub nets: Vec<NetId>,
}

impl TouchSet {
    /// An empty touch set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a touched component.
    pub fn component(&mut self, id: ComponentId) {
        self.components.push(id);
    }

    /// Records a touched net.
    pub fn net(&mut self, id: NetId) {
        self.nets.push(id);
    }

    /// Merges another touch set into this one.
    pub fn merge(&mut self, other: &TouchSet) {
        self.components.extend_from_slice(&other.components);
        self.nets.extend_from_slice(&other.nets);
    }

    /// Whether nothing was touched.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty() && self.nets.is_empty()
    }
}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Netlist {} ({} components, {} nets, {} ports)",
            self.name,
            self.component_count(),
            self.net_count(),
            self.ports.len()
        )?;
        for id in self.component_ids() {
            let c = self.component(id).expect("live id");
            write!(f, "  {id:?} {} [{}]:", c.name, c.kind.label())?;
            for p in &c.pins {
                match p.net {
                    Some(n) => write!(f, " {}={:?}", p.name, n)?,
                    None => write!(f, " {}=-", p.name)?,
                }
            }
            writeln!(f)?;
        }
        for p in &self.ports {
            writeln!(f, "  port {} {:?} -> {:?}", p.name, p.dir, p.net)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::GateFn;

    fn gate(nl: &mut Netlist, name: &str, f: GateFn, n: u8) -> ComponentId {
        nl.add_component(name, ComponentKind::Generic(GenericMacro::Gate(f, n)))
    }

    #[test]
    fn connect_and_query() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let y = nl.add_net("y");
        let g = gate(&mut nl, "g", GateFn::And, 2);
        nl.connect_named(g, "A0", a).unwrap();
        nl.connect_named(g, "A1", b).unwrap();
        nl.connect_named(g, "Y", y).unwrap();
        assert_eq!(nl.driver(y), Some(PinRef::new(g, 2)));
        assert_eq!(nl.loads(a).len(), 1);
        assert_eq!(nl.fanout(a), 1);
        assert_eq!(nl.pin_net(g, "Y"), Some(y));
    }

    #[test]
    fn double_connect_fails() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let g = gate(&mut nl, "g", GateFn::Inv, 1);
        nl.connect_named(g, "A0", a).unwrap();
        let err = nl.connect_named(g, "A0", b).unwrap_err();
        assert!(matches!(err, NetlistError::PinAlreadyConnected(_)));
    }

    #[test]
    fn remove_component_detaches_pins() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let g = gate(&mut nl, "g", GateFn::Inv, 1);
        nl.connect_named(g, "A0", a).unwrap();
        let removed = nl.remove_component(g).unwrap();
        assert_eq!(removed.name, "g");
        assert!(nl.net(a).unwrap().connections.is_empty());
        assert!(nl.component(g).is_err());
    }

    #[test]
    fn restore_after_remove() {
        let mut nl = Netlist::new("t");
        let g = gate(&mut nl, "g", GateFn::Inv, 1);
        let removed = nl.remove_component(g).unwrap();
        nl.restore_component(g, removed);
        assert!(nl.component(g).is_ok());
    }

    #[test]
    fn remove_net_in_use_fails() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let g = gate(&mut nl, "g", GateFn::Inv, 1);
        nl.connect_named(g, "A0", a).unwrap();
        assert!(matches!(nl.remove_net(a), Err(NetlistError::NetInUse(_))));
        nl.disconnect(PinRef::new(g, 0)).unwrap();
        assert!(nl.remove_net(a).is_ok());
    }

    #[test]
    fn topo_order_chain() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let m = nl.add_net("m");
        let y = nl.add_net("y");
        let g1 = gate(&mut nl, "g1", GateFn::Inv, 1);
        let g2 = gate(&mut nl, "g2", GateFn::Inv, 1);
        nl.connect_named(g1, "A0", a).unwrap();
        nl.connect_named(g1, "Y", m).unwrap();
        nl.connect_named(g2, "A0", m).unwrap();
        nl.connect_named(g2, "Y", y).unwrap();
        let order = nl.topo_order().unwrap();
        let p1 = order.iter().position(|&c| c == g1).unwrap();
        let p2 = order.iter().position(|&c| c == g2).unwrap();
        assert!(p1 < p2);
    }

    #[test]
    fn topo_detects_cycle() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let g1 = gate(&mut nl, "g1", GateFn::Inv, 1);
        let g2 = gate(&mut nl, "g2", GateFn::Inv, 1);
        nl.connect_named(g1, "A0", a).unwrap();
        nl.connect_named(g1, "Y", b).unwrap();
        nl.connect_named(g2, "A0", b).unwrap();
        nl.connect_named(g2, "Y", a).unwrap();
        assert_eq!(
            nl.topo_order().unwrap_err(),
            NetlistError::CombinationalCycle
        );
    }

    #[test]
    fn sequential_breaks_cycle() {
        let mut nl = Netlist::new("t");
        let d = nl.add_net("d");
        let q = nl.add_net("q");
        let ff = nl.add_component(
            "ff",
            ComponentKind::Generic(GenericMacro::Dff {
                set: false,
                reset: false,
                enable: false,
            }),
        );
        let g = gate(&mut nl, "g", GateFn::Inv, 1);
        let clk = nl.add_net("clk");
        nl.connect_named(ff, "D", d).unwrap();
        nl.connect_named(ff, "CLK", clk).unwrap();
        nl.connect_named(ff, "Q", q).unwrap();
        nl.connect_named(g, "A0", q).unwrap();
        nl.connect_named(g, "Y", d).unwrap();
        assert!(nl.topo_order().is_ok());
    }

    #[test]
    fn driver_falls_to_the_next_when_the_first_disconnects() {
        let mut nl = Netlist::new("t");
        let y = nl.add_net("y");
        let g1 = gate(&mut nl, "g1", GateFn::Inv, 1);
        let g2 = gate(&mut nl, "g2", GateFn::Inv, 1);
        nl.connect_named(g1, "Y", y).unwrap();
        nl.connect_named(g2, "Y", y).unwrap();
        let (y1, y2) = (PinRef::new(g1, 1), PinRef::new(g2, 1));
        assert_eq!((nl.driver(y), nl.driver_count(y)), (Some(y1), 2));
        assert_eq!(nl.drivers(y).collect::<Vec<_>>(), [y1, y2]);
        nl.disconnect(y1).unwrap();
        assert_eq!((nl.driver(y), nl.driver_count(y)), (Some(y2), 1));
        assert_eq!(nl.drivers(y).collect::<Vec<_>>(), [y2]);
        nl.disconnect(y2).unwrap();
        assert_eq!((nl.driver(y), nl.driver_count(y)), (None, 0));
        assert_eq!(nl.drivers(y).count(), 0);
    }

    #[test]
    #[should_panic(expected = "port bound to dead net")]
    fn port_on_a_removed_net_panics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        nl.remove_net(a).unwrap();
        nl.add_port("a", PinDir::In, a);
    }

    #[test]
    #[should_panic(expected = "port bound to dead net")]
    fn port_past_the_net_arena_panics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        nl.remove_net(a).unwrap();
        nl.free_net_slot(a);
        nl.add_port("a", PinDir::Out, a);
    }

    #[test]
    #[should_panic(expected = "connected pins")]
    fn restoring_a_connected_component_panics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let g = gate(&mut nl, "g", GateFn::Inv, 1);
        nl.connect_named(g, "A0", a).unwrap();
        let connected = nl.component(g).unwrap().clone();
        nl.remove_component(g).unwrap();
        nl.restore_component(g, connected);
    }

    #[test]
    fn sweep_dead_nets() {
        let mut nl = Netlist::new("t");
        let _a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.add_port("b", PinDir::In, b);
        assert_eq!(nl.sweep_dead_nets(), 1);
        assert_eq!(nl.net_count(), 1);
    }

    /// `splice` returns exactly the nets and components it added, and
    /// a splice that would join a dead outer net adds nothing.
    #[test]
    fn splice_reports_what_it_added_and_fails_whole() {
        let mut inner = Netlist::new("inner");
        let [a, m, y] = ["a", "m", "y"].map(|n| inner.add_net(n));
        let g1 = gate(&mut inner, "g1", GateFn::Inv, 1);
        let g2 = gate(&mut inner, "g2", GateFn::Inv, 1);
        inner.connect_named(g1, "A0", a).unwrap();
        inner.connect_named(g1, "Y", m).unwrap();
        inner.connect_named(g2, "A0", m).unwrap();
        inner.connect_named(g2, "Y", y).unwrap();
        inner.add_port("a", PinDir::In, a);
        inner.add_port("y", PinDir::Out, y);

        let mut nl = Netlist::new("top");
        let x = nl.add_net("x");
        let dead = nl.add_net("dead");
        nl.add_port("x", PinDir::In, x);
        nl.sweep_dead_nets();
        let before = format!("{nl:?}");
        let err = nl.splice(&inner, "u", &[("a", Some(x)), ("y", Some(dead))]);
        assert!(matches!(err, Err(NetlistError::NoSuchNet(n)) if n == dead));
        assert_eq!(format!("{nl:?}"), before);
        assert_eq!(
            (nl.net_slot_count(), nl.component_slot_count()),
            (2, 0),
            "nothing added"
        );

        let added = nl.splice(&inner, "u", &[("a", Some(x))]).unwrap();
        let nets: Vec<_> = added
            .nets()
            .map(|n| nl.net(n).unwrap().name.clone())
            .collect();
        let comps: Vec<_> = added
            .components()
            .map(|c| nl.component(c).unwrap().name.clone())
            .collect();
        assert_eq!(nets, ["u.m", "u.y"]);
        assert_eq!(comps, ["u.g1", "u.g2"]);
        assert_eq!(nl.component_count(), 2);
    }
}
