//! # milo-rules
//!
//! The expert-system machinery of the MILO reproduction (§2.2):
//!
//! * [`Rule`] / [`Engine`] — an OPS-style recognize–act cycle with
//!   conflict-set construction, refraction, specificity ordering and
//!   Logic-Consultant-style maximum-gain selection (§2.2.1);
//! * [`Tx`] / [`UndoLog`] — transactional netlist mutation with the change
//!   log SOCRATES uses for backtracking (§2.2.2);
//! * [`lookahead_optimize`] — the SOCRATES search tree with the metarule
//!   parameters B, Dmax, Dapp, N and Δcost, plus dynamic metarules;
//! * [`HashRuleTable`] — the 32-bit truth-table hash rules of strategy 4
//!   (Fig. 10), with cone extraction ([`extract_cone_min`]).
//!
//! # Performance architecture
//!
//! The engine's accept/undo loop maintains an incremental STA
//! ([`milo_timing::IncrementalSta`]) instead of re-analyzing the whole
//! netlist per candidate: [`UndoLog::touch_set`] reports exactly which
//! components and nets a transaction (or its undo) touched, and the
//! analysis re-evaluates outward from them only until nets stop
//! changing. The same refresh maintains the design statistics as exact
//! sums, so each recognize–act step reads its `before` snapshot and every
//! candidate's `after` in O(1) instead of re-summing the design.
//! [`HashRuleTable::cached`] memoizes table construction process-wide,
//! and [`extract_cone_min`] skips the exhaustive cone simulation for
//! cones below the caller's minimum size.
//!
//! Conflict-set matching is incremental too: [`MatchIndex`] keeps a
//! Rete-style per-rule match memory keyed by anchor component, repaired
//! from [`UndoLog::touch_set`] after every committed rewrite instead of
//! rescanning every rule against every component ([`Rule::locality`] /
//! [`Rule::matches_at`] define the repair contract; the full-rescan
//! [`Engine::conflict_set`] remains as the `MILO_MATCH_ORACLE` debug
//! oracle). See `docs/PERFORMANCE.md`.

#![warn(missing_docs)]

mod engine;
mod hashrules;
mod matcher;
mod search;
mod undo;

pub use engine::{
    refresh_or_rebuild, scan_all_components, Effect, Engine, Firing, Rule, RuleClass, RuleCtx,
    RuleMatch, RunOutcome, Selection,
};
pub use hashrules::{cell_truth_table, extract_cone_min, HashEntry, HashRuleTable, LibraryRef};
pub use matcher::{Locality, MatchIndex, RepairStats};
pub use search::{greedy_optimize, lookahead_optimize, MetaParams, SearchStats};
pub use undo::{Tx, UndoLog};
