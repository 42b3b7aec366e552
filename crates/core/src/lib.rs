//! # milo-core
//!
//! The MILO system facade — a Rust reproduction of *MILO: A
//! Microarchitecture and Logic Optimizer* (Vander Zanden & Gajski, 1988).
//!
//! MILO accepts a microarchitecture- or gate-level netlist plus design
//! constraints, optimizes at the microarchitecture level (with feedback
//! from compiled, technology-mapped statistics), expands components
//! through parameterized logic compilers into generic SSI/MSI macros,
//! maps them into a technology library, and optimizes the result with
//! rule-based critics and the eight delay-reduction strategies.
//!
//! # Examples
//!
//! ```
//! use milo_core::{parse_netlist, Constraints, Milo};
//! use milo_techmap::ecl_library;
//!
//! let nl = parse_netlist("
//! design demo
//! input a b c
//! output y
//! comp and2 g1 A0=a A1=b Y=t
//! comp or2  g2 A0=t A1=c Y=y
//! ")?;
//! let mut milo = Milo::new(ecl_library());
//! let result = milo.synthesize(&nl, &Constraints::none())?;
//! assert!(result.stats.area > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Flow-facing code must propagate errors, not die on them: a synthesis
// service can't afford an `unwrap` in the middle of a 200-design batch.
// Tests are exempt — panicking asserts are the point there.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod constraints;
mod fault;
mod flow;
mod parse;
mod pipeline;
mod report;

pub use constraints::Constraints;
pub use fault::{FaultInjector, FaultKind, FaultSpec};
pub use flow::{
    json_string, BottomUpLogic, Compile, FailureAction, FanoutRepair, Flow, FlowContext, FlowEvent,
    FlowOutput, FlowReport, MicroCritic, Pass, PassOutcome, PassPolicy, PassReport, RewriteBudget,
    TimingArea,
};
pub use parse::{emit_netlist, parse_netlist, ParseError};
pub use pipeline::{run_with_retry, Milo, MiloError, RecoveryAction, SynthesisResult};
pub use report::{f2, pct, Table};

// Re-export the workspace API for single-dependency consumers.
pub use milo_compilers as compilers;
pub use milo_logic as logic;
pub use milo_microarch as microarch;
pub use milo_netlist as netlist;
pub use milo_opt as opt;
pub use milo_rules as rules;
pub use milo_techmap as techmap;
pub use milo_timing as timing;
pub use milo_trace as trace;
