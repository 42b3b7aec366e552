//! # milo-circuits
//!
//! Benchmark circuits for the MILO reproduction:
//!
//! * [`fig19`] — the eight test cases of the paper's results table
//!   (synthetic designs with the published complexities and entry styles);
//! * [`random_logic`] — seeded random logic for the scaling and metarule
//!   experiments;
//! * [`zoo`] — the large-workload scenario zoo (pipelined datapaths,
//!   ISCAS-style control logic at 10k–100k gates, FSM banks, and
//!   pathological fanout shapes) behind the differential-fuzz harness;
//! * sum-of-products construction helpers (the private `sop` module)
//!   are internal to the circuits.

#![warn(missing_docs)]

pub mod datapath;
pub mod fig19;
mod random;
mod sop;
pub mod zoo;

pub use datapath::{abadd, abadd_load_register, datapath};
pub use fig19::{all as fig19_all, TestCase};
pub use random::random_logic;
pub use zoo::{fsm_bank, high_fanout, pipelined_datapath, random_control, reconvergent_ladder};
