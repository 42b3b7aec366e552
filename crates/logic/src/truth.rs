//! Single-output truth tables over up to [`TruthTable::MAX_VARS`] variables.
//!
//! The paper's strategy 4 keys its transformation hash table by "the truth
//! table entry for a particular function", limited "to entries of up to five
//! variables, making each hash table key a maximum of 32 bits -- a common
//! computer word" (§4.1.2). [`TruthTable::key32`] produces exactly that key.
//!
//! We allow six variables internally (64 bits) so the minimizer and the
//! equivalence checks in the test-suite can handle slightly larger cones.

use std::fmt;

/// A complete truth table for a Boolean function of `vars` inputs.
///
/// Row `i` of the table (the function value under the input assignment whose
/// bit `k` is `(i >> k) & 1`) is stored in bit `i` of `bits`.
///
/// # Examples
///
/// ```
/// use milo_logic::TruthTable;
///
/// let and2 = TruthTable::from_fn(2, |row| row == 0b11);
/// assert!(and2.eval(0b11));
/// assert!(!and2.eval(0b01));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    vars: u8,
    bits: u64,
}

impl TruthTable {
    /// Maximum supported variable count.
    pub const MAX_VARS: u8 = 6;

    /// Creates a table from an explicit bit pattern.
    ///
    /// # Panics
    ///
    /// Panics if `vars > Self::MAX_VARS` or if `bits` has bits set beyond
    /// the `2^vars` rows of the table.
    pub fn new(vars: u8, bits: u64) -> Self {
        assert!(
            vars <= Self::MAX_VARS,
            "at most {} variables",
            Self::MAX_VARS
        );
        let mask = Self::row_mask(vars);
        assert_eq!(bits & !mask, 0, "bits beyond 2^vars rows");
        Self { vars, bits }
    }

    fn row_mask(vars: u8) -> u64 {
        if vars == 6 {
            u64::MAX
        } else {
            (1u64 << (1u32 << vars)) - 1
        }
    }

    /// Builds a table by evaluating `f` on every input row.
    pub fn from_fn(vars: u8, mut f: impl FnMut(u32) -> bool) -> Self {
        assert!(vars <= Self::MAX_VARS);
        let mut bits = 0u64;
        for row in 0..(1u32 << vars) {
            if f(row) {
                bits |= 1u64 << row;
            }
        }
        Self { vars, bits }
    }

    /// The constant-zero function.
    pub fn zero(vars: u8) -> Self {
        Self::new(vars, 0)
    }

    /// The constant-one function.
    pub fn one(vars: u8) -> Self {
        Self::new(vars, Self::row_mask(vars))
    }

    /// The projection onto variable `var`.
    pub fn var(vars: u8, var: u8) -> Self {
        assert!(var < vars);
        Self::from_fn(vars, |row| row >> var & 1 == 1)
    }

    /// Number of input variables.
    pub fn vars(&self) -> u8 {
        self.vars
    }

    /// Raw table bits (row `i` in bit `i`).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Evaluates the function for the given input row.
    pub fn eval(&self, row: u32) -> bool {
        debug_assert!(row < (1u32 << self.vars));
        self.bits >> row & 1 == 1
    }

    /// The 32-bit hash-table key of §4.1.2 for functions of up to 5 inputs.
    ///
    /// Returns `None` for 6-variable tables, which do not fit "a common
    /// computer word" and, per the paper, fall back to the rule base.
    pub fn key32(&self) -> Option<u32> {
        if self.vars <= 5 {
            Some(self.bits as u32)
        } else {
            None
        }
    }

    /// Complement (logical NOT).
    #[must_use]
    pub fn not(&self) -> Self {
        Self {
            vars: self.vars,
            bits: !self.bits & Self::row_mask(self.vars),
        }
    }

    /// Conjunction with another table over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        assert_eq!(self.vars, other.vars);
        Self {
            vars: self.vars,
            bits: self.bits & other.bits,
        }
    }

    /// Disjunction with another table over the same variables.
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        assert_eq!(self.vars, other.vars);
        Self {
            vars: self.vars,
            bits: self.bits | other.bits,
        }
    }

    /// Positive (`phase == true`) or negative cofactor with respect to `var`.
    ///
    /// The result still ranges over the same `vars` inputs but no longer
    /// depends on `var`.
    #[must_use]
    pub fn cofactor(&self, var: u8, phase: bool) -> Self {
        assert!(var < self.vars);
        Self::from_fn(self.vars, |row| {
            let fixed = if phase {
                row | (1 << var)
            } else {
                row & !(1 << var)
            };
            self.eval(fixed)
        })
    }

    /// Whether the function actually depends on `var`.
    pub fn depends_on(&self, var: u8) -> bool {
        self.cofactor(var, false) != self.cofactor(var, true)
    }

    /// The set of variables the function depends on.
    pub fn support(&self) -> Vec<u8> {
        (0..self.vars).filter(|&v| self.depends_on(v)).collect()
    }

    /// `Some(value)` if the function is constant.
    pub fn as_const(&self) -> Option<bool> {
        if self.bits == 0 {
            Some(false)
        } else if self.bits == Self::row_mask(self.vars) {
            Some(true)
        } else {
            None
        }
    }

    /// Number of rows on which the function is true.
    pub fn count_ones(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Applies an input permutation: output variable `i` reads former
    /// variable `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..vars`.
    #[must_use]
    pub fn permute(&self, perm: &[u8]) -> Self {
        assert_eq!(perm.len(), self.vars as usize);
        let mut seen = vec![false; self.vars as usize];
        for &p in perm {
            assert!(
                !std::mem::replace(&mut seen[p as usize], true),
                "not a permutation"
            );
        }
        Self::from_fn(self.vars, |row| {
            let mut orig = 0u32;
            for (i, &p) in perm.iter().enumerate() {
                if row >> i & 1 == 1 {
                    orig |= 1 << p;
                }
            }
            self.eval(orig)
        })
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TruthTable({} vars, {:#0width$b})",
            self.vars,
            self.bits,
            width = (1usize << self.vars) + 2
        )
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in (0..(1u32 << self.vars)).rev() {
            write!(f, "{}", u8::from(self.eval(row)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and2_rows() {
        let t = TruthTable::from_fn(2, |r| r == 3);
        assert_eq!(t.bits(), 0b1000);
        assert_eq!(t.key32(), Some(0b1000));
    }

    #[test]
    fn constants() {
        assert_eq!(TruthTable::zero(3).as_const(), Some(false));
        assert_eq!(TruthTable::one(3).as_const(), Some(true));
        assert_eq!(TruthTable::var(3, 1).as_const(), None);
    }

    #[test]
    fn ops_match_bitwise_semantics() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 2);
        let f = a.and(&b.not());
        for row in 0..8 {
            let expect = (row & 1 == 1) && (row >> 2 & 1 == 0);
            assert_eq!(f.eval(row), expect, "row {row}");
        }
    }

    #[test]
    fn cofactor_and_support() {
        // f = x0 & x1 | x2
        let f = TruthTable::var(3, 0)
            .and(&TruthTable::var(3, 1))
            .or(&TruthTable::var(3, 2));
        assert_eq!(f.support(), vec![0, 1, 2]);
        let f_x2 = f.cofactor(2, true);
        assert_eq!(f_x2.as_const(), Some(true));
        let f_nx2 = f.cofactor(2, false);
        assert_eq!(f_nx2.support(), vec![0, 1]);
    }

    #[test]
    fn six_vars_has_no_key32() {
        let t = TruthTable::var(6, 5);
        assert_eq!(t.key32(), None);
    }

    #[test]
    fn permute_swaps_inputs() {
        // f(x0,x1) = x0 & !x1 ; swap inputs
        let f = TruthTable::var(2, 0).and(&TruthTable::var(2, 1).not());
        let g = f.permute(&[1, 0]);
        assert!(g.eval(0b10));
        assert!(!g.eval(0b01));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_vars_panics() {
        let _ = TruthTable::new(7, 0);
    }
}
