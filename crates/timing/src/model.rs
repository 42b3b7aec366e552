//! Delay/area/power models.
//!
//! Mapped technology cells carry their own numbers. Generic macros use a
//! built-in estimate table, and microarchitecture components use the
//! parameterized estimator of §5 ("a formula that when passed the
//! component parameters produces a reasonable estimate of the time and
//! area required") — the cheap alternative to compiling the component and
//! measuring the mapped design.

use milo_netlist::{ArithOps, CarryMode, ComponentKind, GateFn, GenericMacro, MicroComponent};

/// Estimated characteristics of a component.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Estimate {
    /// Worst pin-to-pin delay in ns.
    pub delay: f64,
    /// Area in cell units.
    pub area: f64,
    /// Power in mA.
    pub power: f64,
}

/// Estimate table for generic macros (used before technology mapping).
pub fn estimate_generic(m: &GenericMacro) -> Estimate {
    match *m {
        GenericMacro::Gate(f, n) => {
            let nf = f64::from(n);
            let (d, a, p) = match f {
                GateFn::Inv | GateFn::Buf => (0.3, 0.5, 0.3),
                GateFn::And | GateFn::Nand => (0.5 + 0.08 * nf, 0.9 + 0.25 * nf, 0.5 + 0.1 * nf),
                GateFn::Or | GateFn::Nor => (0.45 + 0.07 * nf, 0.9 + 0.22 * nf, 0.5 + 0.1 * nf),
                GateFn::Xor | GateFn::Xnor => (0.9 + 0.1 * nf, 1.6 + 0.2 * nf, 0.9),
            };
            Estimate {
                delay: d,
                area: a,
                power: p,
            }
        }
        GenericMacro::Vdd | GenericMacro::Vss => Estimate {
            delay: 0.0,
            area: 0.1,
            power: 0.05,
        },
        GenericMacro::Mux { selects } => Estimate {
            delay: 0.7 + 0.3 * f64::from(selects),
            area: 1.0 + 0.8 * f64::from(1u8 << selects),
            power: 0.6 + 0.4 * f64::from(selects),
        },
        GenericMacro::Decoder { inputs } => Estimate {
            delay: 0.6 + 0.3 * f64::from(inputs),
            area: 0.8 + 0.5 * f64::from(1u8 << inputs),
            power: 0.6 + 0.4 * f64::from(inputs),
        },
        GenericMacro::Adder { bits, cla } => {
            let bf = f64::from(bits);
            if cla {
                Estimate {
                    delay: 1.1 + 0.2 * bf,
                    area: 2.2 * bf + 2.0,
                    power: 1.3 * bf,
                }
            } else {
                Estimate {
                    delay: 0.7 * bf + 0.6,
                    area: 1.7 * bf,
                    power: 0.9 * bf,
                }
            }
        }
        GenericMacro::Comparator { bits } => {
            let bf = f64::from(bits);
            Estimate {
                delay: 0.8 + 0.35 * bf,
                area: 1.3 * bf + 0.5,
                power: 0.7 * bf,
            }
        }
        GenericMacro::Counter { bits } => {
            let bf = f64::from(bits);
            Estimate {
                delay: 1.2 + 0.2 * bf,
                area: 2.3 * bf,
                power: 1.2 * bf,
            }
        }
        GenericMacro::Dff { set, reset, enable } => {
            let extra = f64::from(u8::from(set) + u8::from(reset) + u8::from(enable));
            Estimate {
                delay: 1.0,
                area: 2.0 + 0.2 * extra,
                power: 1.1 + 0.1 * extra,
            }
        }
        GenericMacro::Latch { set, reset } => {
            let extra = f64::from(u8::from(set) + u8::from(reset));
            Estimate {
                delay: 0.8,
                area: 1.4 + 0.2 * extra,
                power: 0.9 + 0.1 * extra,
            }
        }
    }
}

/// The §5 parameterized estimator for microarchitecture components.
///
/// Only used when the microarchitecture critic wants a quick screen; the
/// accurate route is compiling + mapping + analyzing (§6.3).
pub fn estimate_micro(m: &MicroComponent) -> Estimate {
    match *m {
        MicroComponent::Gate { function, inputs } => {
            // log4 tree of generic gates.
            let levels = (f64::from(inputs).ln() / 4f64.ln()).ceil().max(1.0);
            let base = estimate_generic(&GenericMacro::Gate(function, 4));
            Estimate {
                delay: base.delay * levels,
                area: base.area * (f64::from(inputs) / 3.0).max(1.0),
                power: base.power * (f64::from(inputs) / 3.0).max(1.0),
            }
        }
        MicroComponent::Multiplexor {
            bits,
            inputs,
            enable,
        } => {
            let selects = inputs.trailing_zeros() as f64;
            let bf = f64::from(bits);
            Estimate {
                delay: 0.7 + 0.45 * selects + if enable { 0.5 } else { 0.0 },
                area: bf * (0.9 * f64::from(inputs) + 0.4),
                power: bf * (0.5 + 0.3 * selects),
            }
        }
        MicroComponent::Decoder { bits, enable } => Estimate {
            delay: 0.6 + 0.35 * f64::from(bits) + if enable { 0.5 } else { 0.0 },
            area: 0.7 * f64::from(1u16 << bits) + 0.5,
            power: 0.5 + 0.4 * f64::from(bits),
        },
        MicroComponent::Comparator { bits, .. } => {
            let bf = f64::from(bits);
            Estimate {
                delay: 0.9 + 0.4 * bf / 2.0,
                area: 1.4 * bf,
                power: 0.8 * bf,
            }
        }
        MicroComponent::LogicUnit {
            function,
            inputs,
            bits,
        } => {
            let slice = estimate_micro(&MicroComponent::Gate { function, inputs });
            Estimate {
                delay: slice.delay,
                area: slice.area * f64::from(bits),
                power: slice.power * f64::from(bits),
            }
        }
        MicroComponent::ArithmeticUnit { bits, ops, mode } => {
            let bf = f64::from(bits);
            let groups = (bf / 4.0).ceil();
            let base = match mode {
                CarryMode::Ripple => Estimate {
                    delay: 0.85 * bf + 0.6,
                    area: 1.8 * bf,
                    power: 0.9 * bf,
                },
                CarryMode::CarryLookahead => Estimate {
                    delay: 0.6 * groups + 1.3,
                    area: 2.6 * bf,
                    power: 1.35 * bf,
                },
            };
            let op_count = ops.ops().len() as f64;
            let cond = if ops == ArithOps::ADD {
                0.0
            } else {
                0.4 + 0.2 * op_count
            };
            Estimate {
                delay: base.delay + if op_count > 1.0 { 0.6 } else { cond.min(0.3) },
                area: base.area + cond * bf,
                power: base.power + 0.3 * cond * bf,
            }
        }
        MicroComponent::Register {
            bits, funcs, ctrl, ..
        } => {
            let bf = f64::from(bits);
            let sources = f64::from(funcs.source_count());
            let ctrl_extra =
                f64::from(u8::from(ctrl.set) + u8::from(ctrl.reset) + u8::from(ctrl.enable));
            Estimate {
                delay: 1.0 + if sources > 1.0 { 0.9 } else { 0.0 },
                area: bf * (2.0 + 0.9 * (sources - 1.0) + 0.2 * ctrl_extra),
                power: bf * (1.1 + 0.3 * (sources - 1.0)),
            }
        }
        MicroComponent::Counter { bits, funcs, ctrl } => {
            let bf = f64::from(bits);
            let ctrl_extra =
                f64::from(u8::from(ctrl.set) + u8::from(ctrl.reset) + u8::from(ctrl.enable));
            let loadable = if funcs.load { 0.8 } else { 0.0 };
            Estimate {
                delay: 1.6 + 0.18 * bf,
                area: bf * (2.6 + loadable + 0.2 * ctrl_extra),
                power: bf * (1.3 + 0.2 * loadable),
            }
        }
    }
}

/// Estimated characteristics of any component kind.
pub fn estimate_kind(kind: &ComponentKind) -> Estimate {
    match kind {
        ComponentKind::Generic(m) => estimate_generic(m),
        ComponentKind::Micro(m) => estimate_micro(m),
        ComponentKind::Tech(c) => Estimate {
            delay: c.delay,
            area: c.area,
            power: c.power,
        },
        // Instances must be flattened before analysis; give a neutral
        // placeholder so statistics do not panic mid-flow.
        ComponentKind::Instance { .. } => Estimate::default(),
    }
}

/// Intrinsic delay from the `input_index`-th input pin of a component to
/// its outputs (before load-dependent terms).
pub fn input_pin_delay(kind: &ComponentKind, input_index: usize) -> f64 {
    match kind {
        ComponentKind::Tech(c) => c.input_delay(input_index),
        other => estimate_kind(other).delay,
    }
}

/// Load-dependent delay increment per fanout.
pub fn load_delay(kind: &ComponentKind) -> f64 {
    match kind {
        ComponentKind::Tech(c) => c.load_delay,
        _ => 0.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cla_estimate_faster_bigger() {
        let r = estimate_micro(&MicroComponent::ArithmeticUnit {
            bits: 16,
            ops: ArithOps::ADD,
            mode: CarryMode::Ripple,
        });
        let c = estimate_micro(&MicroComponent::ArithmeticUnit {
            bits: 16,
            ops: ArithOps::ADD,
            mode: CarryMode::CarryLookahead,
        });
        assert!(c.delay < r.delay, "CLA faster: {c:?} vs {r:?}");
        assert!(c.area > r.area, "CLA bigger");
    }

    #[test]
    fn wider_gates_slower() {
        let g2 = estimate_micro(&MicroComponent::Gate {
            function: GateFn::Or,
            inputs: 4,
        });
        let g16 = estimate_micro(&MicroComponent::Gate {
            function: GateFn::Or,
            inputs: 16,
        });
        assert!(g16.delay > g2.delay);
    }

    #[test]
    fn tech_cell_numbers_pass_through() {
        let c = milo_netlist::TechCell {
            name: "X".into(),
            family: "t".into(),
            function: milo_netlist::CellFunction::Gate(GateFn::And, 2),
            area: 3.0,
            delay: 0.9,
            pin_delay: vec![0.5, 1.0],
            load_delay: 0.1,
            power: 0.4,
            max_fanout: 4,
            level: milo_netlist::PowerLevel::Standard,
        };
        let kind = ComponentKind::Tech(c);
        assert!((estimate_kind(&kind).delay - 0.9).abs() < 1e-12);
        assert!((input_pin_delay(&kind, 0) - 0.5).abs() < 1e-12);
        assert!((input_pin_delay(&kind, 1) - 1.0).abs() < 1e-12);
    }
}
