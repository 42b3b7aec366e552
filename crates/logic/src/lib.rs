//! # milo-logic
//!
//! Boolean-logic substrate for the MILO reproduction (Vander Zanden &
//! Gajski, *MILO: A Microarchitecture and Logic Optimizer*, 1988).
//!
//! This crate provides the combinational machinery the synthesis pipeline
//! is built on:
//!
//! * [`TruthTable`] — complete tables of ≤ 6 inputs, including the 32-bit
//!   hash-table key of the paper's strategy 4 (Fig. 10);
//! * [`Cube`] / [`Cover`] — two-level sum-of-products forms with the
//!   unate-recursive complement and tautology operations;
//! * [`espresso`] — an ESPRESSO-style expand/irredundant/reduce minimizer
//!   (§2.1.1 and strategy 7);
//! * [`divide`] — weak (algebraic) division and kernel extraction;
//! * [`factor`] — good-factor area factoring plus the timing-driven gate
//!   decomposition of Fig. 4 (strategy 3).
//!
//! # Performance architecture
//!
//! The minimizer and factorizer are on the synthesis hot path and are
//! engineered accordingly (see `docs/PERFORMANCE.md`):
//!
//! * covers of ≤ 6 variables use **dense 64-bit row masks** for
//!   tautology, containment, irredundancy and reduction — the recursive
//!   unate paradigm only runs for wider covers;
//! * [`divide`] intersects candidate sets and filters the remainder via
//!   **hashed cube sets** instead of quadratic scans, and
//!   [`Cover::single_cube_containment`] dedups through a hash set with
//!   literal-count-pruned containment checks.
//!
//! # Examples
//!
//! ```
//! use milo_logic::{espresso, Cover, TruthTable};
//!
//! let tt = TruthTable::from_fn(3, |r| r != 0); // x0 | x1 | x2
//! let res = espresso::minimize(&Cover::from_truth(&tt), None);
//! assert_eq!(res.cover.len(), 3);
//! assert_eq!(res.cover.literal_count(), 3);
//! ```

#![warn(missing_docs)]

mod cover;
mod cube;
pub mod divide;
pub mod espresso;
pub mod factor;
mod truth;

pub use cover::Cover;
pub use cube::{Cube, Phase};
pub use factor::{good_factor, timing_decompose, DecompTree, Expr};
pub use truth::TruthTable;
