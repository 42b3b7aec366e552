//! Structural validation — the data behind the paper's *electric critic*
//! ("rules that spot and correct electrical errors in the circuit …
//! very much like an electronic rule checker", §6.4).

use crate::kind::PinDir;
use crate::netlist::{ComponentKind, Netlist};
use crate::{ComponentId, NetId};
use std::fmt;

/// One structural/electrical problem found in a netlist.
#[derive(Clone, PartialEq, Debug)]
pub enum Violation {
    /// A net with more than one driving output pin.
    MultipleDrivers {
        /// The offending net.
        net: NetId,
        /// Number of drivers found.
        drivers: usize,
    },
    /// An input pin (or output port) on a net with no driver.
    UndrivenNet {
        /// The offending net.
        net: NetId,
    },
    /// A component input pin left unconnected.
    UnconnectedInput {
        /// The component.
        component: ComponentId,
        /// Pin index.
        pin: u16,
    },
    /// A net whose fanout exceeds the driving cell's `max_fanout`.
    FanoutExceeded {
        /// The offending net.
        net: NetId,
        /// Actual fanout.
        fanout: usize,
        /// The driving cell's limit.
        limit: u32,
    },
    /// An output pin driving nothing (dead logic).
    DanglingOutput {
        /// The component.
        component: ComponentId,
        /// Pin index.
        pin: u16,
    },
}

impl Violation {
    /// Whether this violation means the netlist is structurally corrupt
    /// — logic function undefined — rather than merely suboptimal or
    /// repairable. Fault-tolerant flow execution treats fatal
    /// violations as `DesignCorrupt`/`ValidationFailed` errors;
    /// non-fatal ones (fanout overruns the electric critic repairs,
    /// benign dangling outputs, unconnected inputs in mid-compilation
    /// hierarchy) stay warnings.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            Violation::MultipleDrivers { .. } | Violation::UndrivenNet { .. }
        )
    }
}

/// The fatal subset of [`validate`] — the corruption test the flow's
/// per-pass validation checkpoints and batch pre-flight use.
pub fn fatal_violations(nl: &Netlist) -> Vec<Violation> {
    validate(nl, false)
        .into_iter()
        .filter(Violation::is_fatal)
        .collect()
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MultipleDrivers { net, drivers } => {
                write!(f, "net {net:?} has {drivers} drivers")
            }
            Violation::UndrivenNet { net } => write!(f, "net {net:?} has loads but no driver"),
            Violation::UnconnectedInput { component, pin } => {
                write!(f, "input pin {pin} of {component:?} unconnected")
            }
            Violation::FanoutExceeded { net, fanout, limit } => {
                write!(f, "net {net:?} fanout {fanout} exceeds limit {limit}")
            }
            Violation::DanglingOutput { component, pin } => {
                write!(f, "output pin {pin} of {component:?} drives nothing")
            }
        }
    }
}

/// Checks a netlist for structural and electrical problems.
///
/// `check_fanout` additionally compares each net's fanout against the
/// driving technology cell's `max_fanout` (meaningful only on mapped
/// netlists).
///
/// One pass over the nets, reading their maintained counts, then one
/// over the component pins.
pub fn validate(nl: &Netlist, check_fanout: bool) -> Vec<Violation> {
    let mut out = Vec::new();

    for net in nl.net_ids() {
        let total_drivers = nl.driver_count(net) + usize::from(nl.net_is_port_driven(net));
        if total_drivers > 1 {
            out.push(Violation::MultipleDrivers {
                net,
                drivers: total_drivers,
            });
        }
        let load_count = nl.fanout(net);
        if total_drivers == 0 && load_count > 0 {
            out.push(Violation::UndrivenNet { net });
        }
        if check_fanout && total_drivers == 1 {
            let cell = nl
                .driver(net)
                .and_then(|drv| nl.component(drv.component).ok())
                .and_then(|comp| match &comp.kind {
                    ComponentKind::Tech(cell) => Some(cell),
                    _ => None,
                });
            if let Some(cell) = cell {
                if load_count as u32 > cell.max_fanout {
                    out.push(Violation::FanoutExceeded {
                        net,
                        fanout: load_count,
                        limit: cell.max_fanout,
                    });
                }
            }
        }
    }

    for id in nl.component_ids() {
        let comp = nl.component(id).expect("live id");
        for (i, pin) in comp.pins.iter().enumerate() {
            match pin.dir {
                PinDir::In if pin.net.is_none() => {
                    out.push(Violation::UnconnectedInput {
                        component: id,
                        pin: i as u16,
                    });
                }
                PinDir::Out => {
                    let dangling = match pin.net {
                        None => true,
                        Some(net) => nl.fanout(net) == 0,
                    };
                    if dangling {
                        out.push(Violation::DanglingOutput {
                            component: id,
                            pin: i as u16,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{GateFn, GenericMacro};
    use crate::netlist::ComponentKind;

    #[test]
    fn clean_netlist_passes() {
        let mut nl = Netlist::new("ok");
        let a = nl.add_net("a");
        let y = nl.add_net("y");
        let g = nl.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        nl.connect_named(g, "A0", a).unwrap();
        nl.connect_named(g, "Y", y).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("y", PinDir::Out, y);
        assert!(validate(&nl, true).is_empty());
    }

    #[test]
    fn detects_multiple_drivers() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_net("a");
        let y = nl.add_net("y");
        let g1 = nl.add_component(
            "g1",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        let g2 = nl.add_component(
            "g2",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        nl.connect_named(g1, "A0", a).unwrap();
        nl.connect_named(g2, "A0", a).unwrap();
        nl.connect_named(g1, "Y", y).unwrap();
        nl.connect_named(g2, "Y", y).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("y", PinDir::Out, y);
        let v = validate(&nl, false);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MultipleDrivers { drivers: 2, .. })));
    }

    #[test]
    fn detects_undriven_and_unconnected() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_net("a"); // no driver
        let y = nl.add_net("y");
        let g = nl.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::And, 2)),
        );
        nl.connect_named(g, "A0", a).unwrap();
        // A1 left unconnected
        nl.connect_named(g, "Y", y).unwrap();
        nl.add_port("y", PinDir::Out, y);
        let v = validate(&nl, false);
        assert!(v.iter().any(|x| matches!(x, Violation::UndrivenNet { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::UnconnectedInput { .. })));
    }

    #[test]
    fn detects_dangling_output() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_net("a");
        let g = nl.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        nl.connect_named(g, "A0", a).unwrap();
        nl.add_port("a", PinDir::In, a);
        let v = validate(&nl, false);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::DanglingOutput { .. })));
    }
}
