//! The statistics generator of Fig. 11: area / power / delay / size
//! numbers for a design, used by the microarchitecture critic's feedback
//! loop and by every report in the bench harness.
//!
//! Area and power are exact sums, rounded once: `ExactSum` keeps the
//! terms in an integer superaccumulator (Neal, "Fast exact summation
//! using small and large superaccumulators", arXiv:1505.05571). An exact
//! sum does not depend on the order of its terms, so the totals
//! [`crate::IncrementalSta`] maintains by removing a rewritten
//! component's old terms and adding its new ones carry the same bits as
//! a from-scratch [`statistics`].

use crate::model::{estimate_kind, Estimate};
use crate::sta::analyze;
use milo_netlist::{ComponentKind, Netlist, NetlistError};

/// `stats.terms` in the global metrics registry: component
/// contributions (one component's area and power) added to or removed
/// from a design total, by from-scratch sums and maintained totals
/// alike — the statistics work `tests/scaling_laws.rs` bounds per
/// firing.
fn obs_terms() -> &'static milo_trace::Counter {
    static C: std::sync::OnceLock<std::sync::Arc<milo_trace::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| milo_trace::Registry::global().counter("stats.terms"))
}

/// Counts `n` contributions in `stats.terms`.
pub(crate) fn count_terms(n: usize) {
    obs_terms().add(n as u64);
}

/// Aggregate statistics of a design.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct DesignStats {
    /// Total area in cell units: the exact sum of the components'
    /// areas, rounded once to the nearest `f64` (ties to even).
    pub area: f64,
    /// Total static power in mA, summed like `area`.
    pub power: f64,
    /// Number of components.
    pub cells: usize,
    /// Worst combinational path delay in ns.
    pub delay: f64,
}

impl DesignStats {
    /// Percentage improvement of `self` over `baseline` for delay
    /// (positive = faster).
    pub fn delay_improvement_pct(&self, baseline: &DesignStats) -> f64 {
        if baseline.delay == 0.0 {
            return 0.0;
        }
        (baseline.delay - self.delay) / baseline.delay * 100.0
    }

    /// Percentage improvement of `self` over `baseline` for area.
    pub fn area_improvement_pct(&self, baseline: &DesignStats) -> f64 {
        if baseline.area == 0.0 {
            return 0.0;
        }
        (baseline.area - self.area) / baseline.area * 100.0
    }
}

/// Computes the design statistics (Fig. 11's statistics generator):
/// the area, power and cell totals are summed over the components, the
/// delay is the worst endpoint of a fresh timing analysis.
/// [`crate::IncrementalSta::stats`] maintains the same totals across
/// rewrites instead of re-summing them.
///
/// # Errors
///
/// Fails on combinational cycles (the timing pass needs a topological
/// order), and when unexpanded hierarchy is present, naming the first
/// instance in component order.
pub fn statistics(nl: &Netlist) -> Result<DesignStats, NetlistError> {
    let sta = analyze(nl)?;
    let totals = design_totals(nl)?;
    count_terms(totals.cells);
    Ok(totals.stats(sta.worst_delay()))
}

/// Every component's contribution to the design totals, summed from
/// scratch without counting them in `stats.terms`.
///
/// # Errors
///
/// [`NetlistError::HierarchyPresent`] at the first instance in
/// component order.
pub(crate) fn design_totals(nl: &Netlist) -> Result<Totals, NetlistError> {
    let mut totals = Totals::default();
    for id in nl.component_ids() {
        let comp = nl.component(id)?;
        if matches!(comp.kind, ComponentKind::Instance { .. }) {
            return Err(NetlistError::HierarchyPresent(id));
        }
        totals.add(contribution(&comp.kind));
    }
    Ok(totals)
}

/// A component's `(area, power)` terms in the design totals.
pub(crate) fn contribution(kind: &ComponentKind) -> (f64, f64) {
    let Estimate { area, power, .. } = estimate_kind(kind);
    (area, power)
}

/// Exact area and power totals over a set of components, and their
/// count.
#[derive(Clone, Debug, Default)]
pub(crate) struct Totals {
    area: ExactSum,
    power: ExactSum,
    cells: usize,
}

impl Totals {
    /// Adds one component's terms.
    pub(crate) fn add(&mut self, (area, power): (f64, f64)) {
        self.area.add(area);
        self.power.add(power);
        self.cells += 1;
    }

    /// Removes terms an earlier [`Totals::add`] put in.
    pub(crate) fn remove(&mut self, (area, power): (f64, f64)) {
        self.area.sub(area);
        self.power.sub(power);
        self.cells -= 1;
    }

    /// The totals as statistics, with the given worst delay.
    pub(crate) fn stats(&self, delay: f64) -> DesignStats {
        DesignStats {
            area: self.area.value(),
            power: self.power.value(),
            cells: self.cells,
            delay,
        }
    }
}

/// Chunks of an [`ExactSum`]: 32 value bits each, held in an `i64` so
/// that carries can wait. A finite `f64` is an integer multiple of
/// 2^-1074 whose 53-bit significand starts at bit `biased exponent - 1`
/// (bit 0 for subnormals), so its bits fall in chunks 0..=65; the last
/// chunk takes what carries out of chunk 65, with the sign.
const CHUNKS: usize = 67;
const CHUNK_BITS: u32 = 32;
const CHUNK_MASK: i64 = (1 << CHUNK_BITS) - 1;
/// Terms between two carry passes. Each term moves a chunk by less than
/// 2^32, and a carried chunk lies in [0, 2^32), so 2^30 terms keep every
/// chunk far inside an `i64`.
const CARRY_EVERY: u32 = 1 << 30;

/// An exact sum of `f64` terms: a small superaccumulator (Neal,
/// arXiv:1505.05571) holding the sum as an integer multiple of 2^-1074.
/// Adding and removing terms is exact, so the sum does not depend on
/// their order, and a term added and then removed leaves no trace.
/// [`ExactSum::value`] rounds the exact sum once, to the nearest `f64`
/// with ties to even.
///
/// Non-finite terms are counted apart and follow IEEE addition: any NaN,
/// or both infinities, read as NaN; otherwise an infinity reads as
/// itself.
#[derive(Clone, Debug)]
pub(crate) struct ExactSum {
    chunk: [i64; CHUNKS],
    /// The chunks written so far, `lo..=hi` (none while `lo > hi`):
    /// reads carry through this range only, so a sum of a few terms of
    /// similar magnitude reads in a few chunk operations.
    lo: usize,
    hi: usize,
    /// Terms since the last carry pass.
    pending: u32,
    /// +∞, −∞ and NaN terms present.
    special: [i64; 3],
}

impl Default for ExactSum {
    fn default() -> Self {
        Self {
            chunk: [0; CHUNKS],
            lo: CHUNKS,
            hi: 0,
            pending: 0,
            special: [0; 3],
        }
    }
}

impl ExactSum {
    /// Adds `x`.
    pub(crate) fn add(&mut self, x: f64) {
        self.put(x, false);
    }

    /// Removes `x`, which an earlier [`ExactSum::add`] put in.
    pub(crate) fn sub(&mut self, x: f64) {
        self.put(x, true);
    }

    fn put(&mut self, x: f64, remove: bool) {
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as usize;
        if exp == 0x7ff {
            let kind = if x.is_nan() { 2 } else { usize::from(x < 0.0) };
            self.special[kind] += if remove { -1 } else { 1 };
            return;
        }
        let frac = bits & ((1 << 52) - 1);
        let (significand, at) = if exp == 0 {
            (frac, 0)
        } else {
            (frac | 1 << 52, exp - 1)
        };
        if significand == 0 {
            return;
        }
        let first = at / CHUNK_BITS as usize;
        let wide = u128::from(significand) << (at % CHUNK_BITS as usize);
        let negative = (bits >> 63 == 1) != remove;
        for k in 0..3 {
            let part = ((wide >> (CHUNK_BITS as usize * k)) as i64) & CHUNK_MASK;
            if negative {
                self.chunk[first + k] -= part;
            } else {
                self.chunk[first + k] += part;
            }
        }
        self.lo = self.lo.min(first);
        self.hi = self.hi.max(first + 2);
        self.pending += 1;
        if self.pending == CARRY_EVERY {
            self.hi = carry(&mut self.chunk, self.lo, self.hi);
            self.pending = 0;
        }
    }

    /// The exact sum, rounded once to the nearest `f64` (ties to even).
    pub(crate) fn value(&self) -> f64 {
        let [pos_inf, neg_inf, nan] = self.special;
        if nan != 0 || (pos_inf != 0 && neg_inf != 0) {
            return f64::NAN;
        }
        if pos_inf != 0 {
            return f64::INFINITY;
        }
        if neg_inf != 0 {
            return f64::NEG_INFINITY;
        }
        if self.lo > self.hi {
            return 0.0;
        }
        let lo = self.lo;
        let mut c = self.chunk;
        let top = carry(&mut c, lo, self.hi);
        let Some(mut t) = (lo..=top).rev().find(|&i| c[i] != 0) else {
            return 0.0;
        };
        // Carried chunks are non-negative, so only the last one can make
        // the sum negative: round its magnitude instead.
        let negative = c[t] < 0;
        if negative {
            for v in &mut c[lo..=t] {
                *v = -*v;
            }
            let top = carry(&mut c, lo, t);
            t = (lo..=top)
                .rev()
                .find(|&i| c[i] != 0)
                .expect("a nonzero sum");
        }
        let magnitude = round_to_f64(&c, lo, t);
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// Carries chunks `lo..` into [0, 2^32) until past `hi` with nothing
/// left to carry; the last chunk keeps the remainder and the sign.
/// Returns the highest chunk that may be nonzero.
fn carry(c: &mut [i64; CHUNKS], lo: usize, hi: usize) -> usize {
    let mut carry = 0;
    let mut i = lo;
    while i < CHUNKS - 1 && (i <= hi || carry != 0) {
        let v = c[i] + carry;
        c[i] = v & CHUNK_MASK;
        carry = v >> CHUNK_BITS;
        i += 1;
    }
    if i == CHUNKS - 1 {
        c[i] += carry;
        return i;
    }
    i - 1
}

/// Rounds the non-negative carried sum `c` (chunks below `lo` zero,
/// `c[t]` its highest nonzero chunk) to the nearest `f64`, ties to even.
fn round_to_f64(c: &[i64; CHUNKS], lo: usize, t: usize) -> f64 {
    if t == CHUNKS - 1 {
        // At least 2^(32·66) units of 2^-1074: past `f64::MAX`.
        return f64::INFINITY;
    }
    // The top three chunks hold 65 or more significant bits unless the
    // whole sum fits in them; below them, only "nonzero" matters.
    let base = t.saturating_sub(2);
    let window = (base..=t).fold(0u128, |w, k| {
        w | (c[k] as u128) << (CHUNK_BITS as usize * (k - base))
    });
    let sticky = c[lo.min(base)..base].iter().any(|&v| v != 0);
    let unit = CHUNK_BITS as i32 * base as i32 - 1074;
    let bits = 128 - window.leading_zeros();
    if bits <= 53 {
        // Exact: the sum is below 2^53 units of 2^-1074 (`base` is 0).
        return window as f64 * pow2(unit);
    }
    let shift = bits - 53;
    let mut significand = (window >> shift) as u64;
    let rest = window & ((1 << shift) - 1);
    let half = 1u128 << (shift - 1);
    if rest > half || (rest == half && (sticky || significand & 1 == 1)) {
        significand += 1;
    }
    let mut exp = unit + shift as i32;
    if significand == 1 << 53 {
        significand >>= 1;
        exp += 1;
    }
    if exp > 1023 - 52 {
        return f64::INFINITY;
    }
    // Exact: a 53-bit significand times a power of two in range.
    significand as f64 * pow2(exp)
}

/// 2^`e` for `e` in -1074..=1023.
fn pow2(e: i32) -> f64 {
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (e + 1074))
    }
}

/// Two-input-equivalent gate count — the complexity measure of Fig. 19
/// ("Complexity (gates)"). MSI macros are weighted by the gate content of
/// their discrete equivalents (an ADD4 macro *replaces* ~24 gates even if
/// its silicon is denser).
pub fn gate_equivalents(nl: &Netlist) -> f64 {
    use milo_netlist::{CellFunction, GateFn, GenericMacro};
    fn gate_cost(f: GateFn, n: u8) -> f64 {
        match f {
            GateFn::Inv | GateFn::Buf => 0.5,
            GateFn::Xor | GateFn::Xnor => 3.0 * f64::from(n.saturating_sub(1)).max(1.0),
            _ => f64::from(n.saturating_sub(1)).max(1.0),
        }
    }
    let kind_cost = |kind: &ComponentKind| -> f64 {
        match kind {
            ComponentKind::Generic(m) => match *m {
                GenericMacro::Gate(f, n) => gate_cost(f, n),
                GenericMacro::Vdd | GenericMacro::Vss => 0.0,
                GenericMacro::Mux { selects } => 3.0 * f64::from((1u8 << selects) - 1),
                GenericMacro::Decoder { inputs } => f64::from(1u8 << inputs) + f64::from(inputs),
                GenericMacro::Adder { bits, cla } => f64::from(bits) * if cla { 8.0 } else { 6.0 },
                GenericMacro::Comparator { bits } => 5.0 * f64::from(bits),
                GenericMacro::Counter { bits } => 10.0 * f64::from(bits),
                GenericMacro::Dff { set, reset, enable } => {
                    6.0 + f64::from(u8::from(set) + u8::from(reset) + u8::from(enable))
                }
                GenericMacro::Latch { set, reset } => {
                    4.0 + f64::from(u8::from(set) + u8::from(reset))
                }
            },
            ComponentKind::Tech(c) => match &c.function {
                CellFunction::Gate(f, n) => gate_cost(*f, *n),
                CellFunction::Table(tt) => f64::from(tt.vars()),
                CellFunction::Mux { selects } => 3.0 * f64::from((1u8 << selects) - 1),
                CellFunction::Dff { set, reset, enable } => {
                    6.0 + f64::from(u8::from(*set) + u8::from(*reset) + u8::from(*enable))
                }
                CellFunction::MuxDff { selects } => 6.0 + 3.0 * f64::from((1u8 << selects) - 1),
                CellFunction::Latch { set, reset } => {
                    4.0 + f64::from(u8::from(*set) + u8::from(*reset))
                }
                CellFunction::Const(_) => 0.0,
                CellFunction::Adder { bits, cla } => {
                    f64::from(*bits) * if *cla { 8.0 } else { 6.0 }
                }
                CellFunction::Decoder { inputs } => f64::from(1u8 << *inputs) + f64::from(*inputs),
                CellFunction::Comparator { bits } => 5.0 * f64::from(*bits),
                CellFunction::Counter { bits } => 10.0 * f64::from(*bits),
            },
            // Micro components / instances: fall back to the area estimate.
            other => estimate_kind(other).area / 1.4,
        }
    };
    nl.component_ids()
        .filter_map(|id| nl.component(id).ok())
        .map(|c| kind_cost(&c.kind))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_netlist::{GateFn, GenericMacro, PinDir};

    fn small() -> Netlist {
        let mut nl = Netlist::new("s");
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
        nl
    }

    #[test]
    fn stats_accumulate() {
        let nl = small();
        let s = statistics(&nl).unwrap();
        assert_eq!(s.cells, 1);
        assert!(s.area > 0.0 && s.power > 0.0 && s.delay > 0.0);
    }

    #[test]
    fn improvement_percentages() {
        let base = DesignStats {
            area: 10.0,
            power: 1.0,
            cells: 5,
            delay: 4.0,
        };
        let opt = DesignStats {
            area: 8.0,
            power: 1.0,
            cells: 4,
            delay: 3.0,
        };
        assert!((opt.delay_improvement_pct(&base) - 25.0).abs() < 1e-9);
        assert!((opt.area_improvement_pct(&base) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn gate_equivalents_positive() {
        assert!(gate_equivalents(&small()) > 0.0);
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn exact(terms: &[f64]) -> f64 {
        let mut sum = ExactSum::default();
        for &t in terms {
            sum.add(t);
        }
        sum.value()
    }

    /// Mixed magnitudes and signs, subnormals included: left-to-right
    /// float sums of these disagree between orders.
    const MIXED: [f64; 17] = [
        1e300,
        -1e300,
        3.5,
        1e-300,
        -2.25,
        1e16,
        1.0,
        -1e-16,
        f64::MIN_POSITIVE,
        5e-324,
        0.1,
        0.7,
        -0.3,
        1.6e-5,
        123_456.789,
        f64::MAX / 4.0,
        -f64::MAX / 8.0,
    ];

    #[test]
    fn exact_sum_does_not_depend_on_term_order() {
        let expected = exact(&MIXED).to_bits();
        let mut order = MIXED.to_vec();
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let mut naive = std::collections::HashSet::new();
        for _ in 0..200 {
            for i in (1..order.len()).rev() {
                order.swap(i, (xorshift(&mut state) % (i as u64 + 1)) as usize);
            }
            assert_eq!(exact(&order).to_bits(), expected, "{order:?}");
            naive.insert(order.iter().sum::<f64>().to_bits());
        }
        assert!(naive.len() > 1, "the float sums should disagree");
    }

    #[test]
    fn exact_sum_add_then_remove_is_exactly_zero() {
        let mut sum = ExactSum::default();
        for &t in &MIXED {
            sum.add(t);
        }
        assert_ne!(sum.value(), 0.0);
        for &t in MIXED.iter().rev() {
            sum.sub(t);
        }
        assert_eq!(sum.value().to_bits(), 0.0f64.to_bits());
    }

    /// Terms `k · 2^-40` with `k` a 53-bit integer shifted by up to 50
    /// bits: every term is exact in `f64` and the exact sum of 64 fits
    /// an `i128`, whose `as f64` conversion rounds to nearest, ties to
    /// even. Every fourth case ends on a constructed tie, or one unit
    /// above or below it.
    #[test]
    fn exact_sum_rounds_like_an_i128_reference() {
        let scale = 2f64.powi(-40);
        let mut state = 7;
        for case in 0..2000 {
            let mut sum = ExactSum::default();
            let mut reference = 0i128;
            let push = |k: i128, sum: &mut ExactSum, reference: &mut i128| {
                sum.add(k as f64 * scale);
                *reference += k;
            };
            for _ in 0..1 + xorshift(&mut state) % 64 {
                let significand = (xorshift(&mut state) >> 11) as i128;
                let k = significand << (xorshift(&mut state) % 51);
                let k = if xorshift(&mut state) & 1 == 0 { k } else { -k };
                push(k, &mut sum, &mut reference);
            }
            if case % 4 == 0 {
                // Move the total onto an exact tie of its own rounding
                // (half a unit in the last place), then off by ±1.
                let bits = 128 - reference.unsigned_abs().leading_zeros();
                if bits > 54 {
                    let ulp = 1i128 << (bits - 53);
                    let off = reference.rem_euclid(ulp);
                    let nudge = (xorshift(&mut state) % 3) as i128 - 1;
                    let k = ulp / 2 - off + nudge;
                    // Two terms, each exact in `f64`.
                    let low = k % (1 << 52);
                    push(k - low, &mut sum, &mut reference);
                    push(low, &mut sum, &mut reference);
                }
            }
            assert_eq!(
                sum.value().to_bits(),
                (reference as f64 * scale).to_bits(),
                "case {case}: exact total {reference} · 2^-40"
            );
        }
    }

    #[test]
    fn exact_sum_rounds_ties_to_even_and_saturates() {
        let half_ulp = 2f64.powi(-53);
        let odd = 1.0 + 2f64.powi(-52);
        assert_eq!(exact(&[1.0, half_ulp]), 1.0, "tie, down to even");
        assert_eq!(
            exact(&[odd, half_ulp]),
            1.0 + 2f64.powi(-51),
            "tie, up to even"
        );
        assert_eq!(
            exact(&[1.0, half_ulp, 2f64.powi(-200)]),
            odd,
            "just past the tie"
        );
        assert_eq!(exact(&[-1.0, -half_ulp]), -1.0);
        assert_eq!(
            exact(&[5e-324, 5e-324, 5e-324]),
            1.5e-323,
            "subnormals add exactly"
        );
        assert_eq!(exact(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(exact(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        assert_eq!(exact(&[f64::INFINITY, 1.0]), f64::INFINITY);
        assert!(exact(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        let mut sum = ExactSum::default();
        sum.add(f64::INFINITY);
        sum.add(2.5);
        sum.sub(f64::INFINITY);
        assert_eq!(sum.value(), 2.5, "a removed infinity leaves no trace");
    }

    /// Maintained totals and a from-scratch sum agree bit for bit: terms
    /// removed and re-added in another order change nothing.
    #[test]
    fn totals_agree_after_replacing_terms() {
        let mut scratch = Totals::default();
        for &t in &MIXED {
            scratch.add((t, t / 3.0));
        }
        let mut maintained = Totals::default();
        for &t in MIXED.iter().rev() {
            maintained.add((t, t / 3.0));
        }
        maintained.remove((MIXED[4], MIXED[4] / 3.0));
        maintained.add((7.0, 7.0 / 3.0));
        maintained.remove((7.0, 7.0 / 3.0));
        maintained.add((MIXED[4], MIXED[4] / 3.0));
        let bits = |s: DesignStats| (s.area.to_bits(), s.power.to_bits(), s.cells);
        assert_eq!(bits(maintained.stats(1.0)), bits(scratch.stats(1.0)));
    }
}
