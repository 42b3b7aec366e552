//! # milo-techmap
//!
//! Technology libraries and mapping for the MILO reproduction (§6.2):
//!
//! * [`TechLibrary`] plus two shipped families — a synthetic ECL
//!   gate-array library ([`ecl_library`], standing in for the proprietary
//!   AMCC library of §7) and a CMOS standard-cell library
//!   ([`cmos_library`]);
//! * the lookup-table mapper [`map_netlist`] that replaces generic
//!   components with technology cells (or small cell sets);
//! * a DAGON-style tree-covering binder [`dagon_map`] — the paper's
//!   "algorithms only" baseline (§2.2.3);
//! * electric-rule repair [`enforce_fanout`] for the electric critic.
//!
//! # Examples
//!
//! ```
//! use milo_techmap::{ecl_library, map_netlist};
//! use milo_netlist::{ComponentKind, GateFn, GenericMacro, Netlist, PinDir};
//!
//! let mut nl = Netlist::new("inv");
//! let a = nl.add_net("a");
//! let y = nl.add_net("y");
//! let g = nl.add_component("g", ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)));
//! nl.connect_named(g, "A0", a)?;
//! nl.connect_named(g, "Y", y)?;
//! nl.add_port("a", PinDir::In, a);
//! nl.add_port("y", PinDir::Out, y);
//! let mapped = map_netlist(&nl, &ecl_library())?;
//! assert_eq!(mapped.component_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod dagon;
mod electric;
mod libraries;
mod library;
mod mapper;

pub use dagon::{dagon_map, Objective};
pub use electric::enforce_fanout;
pub use libraries::{cmos_library, ecl_library};
pub use library::TechLibrary;
pub use mapper::{map_netlist, MapError};
