//! # milo-timing
//!
//! Timing analysis and design statistics for the MILO reproduction:
//!
//! * [`analyze`] — static timing analysis with critical-path
//!   reconstruction ([`Sta::critical_path_components`], which the §4
//!   time optimizer in `milo-opt` walks to pick its point of
//!   optimization); dense id-indexed vectors and one-pass fanout/driver
//!   tables keep it allocation-light;
//! * [`IncrementalSta`] — an incrementally maintained analysis: after a
//!   rewrite, components are re-evaluated in level order outward from
//!   the touched components/nets (a [`milo_netlist::TouchSet`], produced
//!   by the rules engine's undo log), stopping wherever a net comes out
//!   bitwise unchanged, with results equal to a from-scratch
//!   [`analyze`]. The same refresh maintains the design statistics
//!   ([`IncrementalSta::stats`]), so the rule engine's recognize–act
//!   loop reads them per step instead of re-analyzing and re-summing the
//!   whole netlist, and a rejected trial rolls back from a journal of
//!   what its refresh wrote ([`IncrementalSta::roll_back`]; see
//!   `docs/PERFORMANCE.md`);
//! * [`worst_path_components`] — the worst path's component set, for
//!   criticality tests over many components;
//! * [`statistics`] — the Fig. 11 statistics generator (area, power,
//!   delay, cell count) feeding the microarchitecture critic;
//! * [`model`] — delay/area/power models for generic macros, technology
//!   cells, and the §5 parameterized estimator for microarchitecture
//!   components.
//!
//! # Examples
//!
//! ```
//! use milo_netlist::{ComponentKind, GateFn, GenericMacro, Netlist, PinDir};
//! use milo_timing::{analyze, statistics};
//!
//! let mut nl = Netlist::new("inv");
//! let a = nl.add_net("a");
//! let y = nl.add_net("y");
//! let g = nl.add_component("g", ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)));
//! nl.connect_named(g, "A0", a)?;
//! nl.connect_named(g, "Y", y)?;
//! nl.add_port("a", PinDir::In, a);
//! nl.add_port("y", PinDir::Out, y);
//!
//! let sta = analyze(&nl)?;
//! assert!(sta.worst_delay() > 0.0);
//! let stats = statistics(&nl)?;
//! assert_eq!(stats.cells, 1);
//! # Ok::<(), milo_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]

pub mod model;
mod sta;
mod stats;

pub use model::{estimate_generic, estimate_kind, estimate_micro, Estimate};
pub use sta::{analyze, worst_path_components, Endpoint, IncrementalSta, Sta};
pub use stats::{gate_equivalents, statistics, DesignStats};
