//! # milo-microarch
//!
//! The microarchitecture critic of MILO (§6.3, Figs. 14–16): word-level
//! rewrite rules over parameterized components, plus the statistics
//! feedback loop that compiles and technology-maps the design to obtain
//! true delay/area/power numbers before making tradeoffs.
//!
//! * [`rules`] — the rule set: adder+register→counter (Fig. 14/15), mux
//!   cascade merging, decoder/OR simplification (LSS Fig. 7a), word-level
//!   constant propagation, dead-logic cleanup, and the ripple↔CLA
//!   tradeoff pair;
//! * [`feedback`] — compile → map → measure (Fig. 16) through an
//!   [`Elaborator`] that flattens and maps each compiled design once per
//!   critic run, stitches the cached bodies for a full measurement, and
//!   measures a carry-mode trial by swapping one body in the kept
//!   stitched netlist;
//! * [`critic::optimize`] — the full critic: unconditional rewrites, then
//!   constraint-driven carry-mode tradeoffs.

#![warn(missing_docs)]

pub mod critic;
pub mod feedback;
pub mod rules;

pub use critic::{optimize, CriticReport};
pub use feedback::{elaborate, measure, Elaborator, FeedbackError};
pub use rules::{standard_rules, AdderRegToCounter, ClaToRipple, RippleToCla};
