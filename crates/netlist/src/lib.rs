//! # milo-netlist
//!
//! The netlist substrate of the MILO reproduction: components, pins, nets,
//! hierarchical design database, cycle-based simulation and structural
//! validation.
//!
//! Component kinds mirror the paper's three representation levels:
//!
//! * [`MicroComponent`] — the parameterized microarchitecture components of
//!   Fig. 12 (multiplexors, decoders, comparators, logic units, arithmetic
//!   units, registers, counters);
//! * [`GenericMacro`] — the technology-independent generic library of
//!   Fig. 13 that the logic compilers emit;
//! * [`TechCell`] — technology-specific cells produced by the technology
//!   mapper.
//!
//! # Examples
//!
//! ```
//! use milo_netlist::{Netlist, ComponentKind, GenericMacro, GateFn, PinDir, Simulator};
//!
//! // y = a NAND b
//! let mut nl = Netlist::new("nand");
//! let (a, b, y) = (nl.add_net("a"), nl.add_net("b"), nl.add_net("y"));
//! let g = nl.add_component("u1", ComponentKind::Generic(GenericMacro::Gate(GateFn::Nand, 2)));
//! nl.connect_named(g, "A0", a)?;
//! nl.connect_named(g, "A1", b)?;
//! nl.connect_named(g, "Y", y)?;
//! nl.add_port("a", PinDir::In, a);
//! nl.add_port("b", PinDir::In, b);
//! nl.add_port("y", PinDir::Out, y);
//!
//! let mut sim = Simulator::new(&nl)?;
//! sim.set_input("a", true)?;
//! sim.set_input("b", true)?;
//! sim.settle();
//! assert!(!sim.output("y")?);
//! # Ok::<(), milo_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]

mod db;
mod fingerprint;
mod ids;
mod kind;
mod netlist;
mod sim;
mod validate;

pub use db::DesignDb;
pub use fingerprint::{fnv1a, structural_hash, structural_summary, FNV_OFFSET};
pub use ids::{ComponentId, NetId, PinRef};
pub use kind::{
    sel_bits, ArithOp, ArithOps, CarryMode, CellFunction, CmpOp, ControlSet, CounterFunctions,
    GateFn, GenericMacro, MicroComponent, PinDir, PinSpec, PowerLevel, RegFunctions, TechCell,
    Trigger,
};
pub use netlist::{
    Component, ComponentKind, Net, Netlist, NetlistError, Pin, Port, Spliced, TouchSet,
};
pub use sim::{eval_component, next_state, Simulator};
pub use validate::{fatal_violations, validate, Violation};
