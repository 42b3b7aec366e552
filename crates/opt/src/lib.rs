//! # milo-opt
//!
//! MILO's logic optimizer (§6.4): three optimizers (time, area, power)
//! built on five critics (logic, timing, area, power, electric — Fig. 17)
//! and the eight delay-reduction strategies of §4.1.2 (Fig. 9), driven by
//! the Fig. 8 control flow, plus the bottom-up hierarchical optimization
//! of Fig. 18.
//!
//! * [`critics`] — the critics' local transformation rules;
//! * [`strategies`] — strategies 1–8 ([`apply_strategy`]);
//! * [`selector`] — [`optimize`], the time→area optimizer: the Fig. 8
//!   time-optimizer loop ([`optimize_timing_paths`]), then the area pass
//!   ([`optimize_area_paths`]);
//! * [`hierarchy`] — [`optimize_bottom_up`] over a design database.

#![warn(missing_docs)]

pub mod critics;
pub mod hierarchy;
pub mod selector;
pub mod strategies;

pub use critics::{all_rules, logic_rules};
pub use hierarchy::{optimize_bottom_up, HierarchyError, LevelReport};
pub use selector::{
    optimize, optimize_area_paths, optimize_timing_paths, strategy_order, StrategyFiring,
    TimingReport,
};
pub use strategies::{apply_strategy, StrategyCtx, StrategyId};
