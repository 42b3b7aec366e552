//! Multi-level factoring.
//!
//! Two factoring modes from the paper:
//!
//! * **Area factoring** (weak division): repeatedly extract the
//!   best-saving kernel — SOCRATES' path from two-level back to multi-level
//!   form (§2.1.1), used by strategy 7.
//! * **Timing-driven decomposition** (Fig. 4 / strategy 3): decompose a
//!   wide associative gate into a tree of narrower gates so that the
//!   latest-arriving input passes through the fewest levels.

use crate::divide::{best_kernel, divide, largest_common_cube};
use crate::{Cover, Cube, Phase};
use std::fmt;

/// A factored Boolean expression tree.
#[derive(Clone, PartialEq, Eq)]
pub enum Expr {
    /// Constant false / true.
    Const(bool),
    /// A literal `x_var` or `!x_var`.
    Lit(u8, Phase),
    /// Conjunction of sub-expressions.
    And(Vec<Expr>),
    /// Disjunction of sub-expressions.
    Or(Vec<Expr>),
}

impl Expr {
    /// Number of literal leaves — the standard factored-form cost.
    pub fn literal_count(&self) -> u32 {
        match self {
            Expr::Const(_) => 0,
            Expr::Lit(..) => 1,
            Expr::And(xs) | Expr::Or(xs) => xs.iter().map(Expr::literal_count).sum(),
        }
    }

    /// Depth in gate levels (literals are level 0).
    pub fn depth(&self) -> u32 {
        match self {
            Expr::Const(_) | Expr::Lit(..) => 0,
            Expr::And(xs) | Expr::Or(xs) => 1 + xs.iter().map(Expr::depth).max().unwrap_or(0),
        }
    }

    /// Evaluates under an assignment (bit `v` of `row` is `x_v`).
    pub fn eval(&self, row: u32) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Lit(v, Phase::Pos) => row >> v & 1 == 1,
            Expr::Lit(v, Phase::Neg) => row >> v & 1 == 0,
            Expr::And(xs) => xs.iter().all(|x| x.eval(row)),
            Expr::Or(xs) => xs.iter().any(|x| x.eval(row)),
        }
    }

    /// Flattens the expression back to a sum-of-products cover.
    pub fn to_cover(&self, nvars: u8) -> Cover {
        match self {
            Expr::Const(false) => Cover::zero(nvars),
            Expr::Const(true) => Cover::one(nvars),
            Expr::Lit(v, p) => Cover::literal(nvars, *v, *p),
            Expr::And(xs) => {
                let mut acc = Cover::one(nvars);
                for x in xs {
                    acc = acc.and(&x.to_cover(nvars));
                }
                acc
            }
            Expr::Or(xs) => {
                let mut acc = Cover::zero(nvars);
                for x in xs {
                    acc = acc.or(&x.to_cover(nvars));
                }
                acc
            }
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(b) => write!(f, "{}", u8::from(*b)),
            Expr::Lit(v, Phase::Pos) => write!(f, "x{v}"),
            Expr::Lit(v, Phase::Neg) => write!(f, "!x{v}"),
            Expr::And(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Expr::Or(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

fn cube_to_expr(c: &Cube) -> Expr {
    let lits: Vec<Expr> = c.literals().map(|(v, p)| Expr::Lit(v, p)).collect();
    match lits.len() {
        0 => Expr::Const(true),
        1 => lits.into_iter().next().expect("one literal"),
        _ => Expr::And(lits),
    }
}

fn cover_sum_expr(f: &Cover) -> Expr {
    let terms: Vec<Expr> = f.cubes().iter().map(cube_to_expr).collect();
    match terms.len() {
        0 => Expr::Const(false),
        1 => terms.into_iter().next().expect("one term"),
        _ => Expr::Or(terms),
    }
}

/// Good-factor: recursive weak-division factoring driven by the
/// best-saving kernel. Falls back to the flat SOP when no kernel helps.
///
/// # Examples
///
/// ```
/// use milo_logic::{factor, Cover, Cube};
///
/// // ac | ad | bc | bd  ->  (a|b)&(c|d): 4 literals instead of 8.
/// let f = Cover::from_cubes(4, vec![
///     Cube::top().with_pos(0).with_pos(2),
///     Cube::top().with_pos(0).with_pos(3),
///     Cube::top().with_pos(1).with_pos(2),
///     Cube::top().with_pos(1).with_pos(3),
/// ]);
/// let e = factor::good_factor(&f);
/// assert_eq!(e.literal_count(), 4);
/// ```
pub fn good_factor(f: &Cover) -> Expr {
    if f.is_empty() {
        return Expr::Const(false);
    }
    if f.cubes().iter().any(Cube::is_top) {
        return Expr::Const(true);
    }
    // Pull out the common cube first.
    let lcc = largest_common_cube(f);
    if !lcc.is_top() {
        let stripped: Vec<Cube> = f
            .cubes()
            .iter()
            .map(|c| c.algebraic_quotient(&lcc).expect("common cube divides"))
            .collect();
        let inner = good_factor(&Cover::from_cubes(f.nvars(), stripped));
        let mut parts = vec![cube_to_expr(&lcc)];
        match inner {
            Expr::And(xs) => parts.extend(xs),
            Expr::Const(true) => {}
            other => parts.push(other),
        }
        return if parts.len() == 1 {
            parts.into_iter().next().expect("one part")
        } else {
            Expr::And(parts)
        };
    }
    match best_kernel(f) {
        None => cover_sum_expr(f),
        Some(k) => {
            let div = divide(f, &k.kernel);
            if div.quotient.is_empty() {
                return cover_sum_expr(f);
            }
            let d_expr = good_factor(&k.kernel);
            let q_expr = good_factor(&div.quotient);
            let product = Expr::And(vec![d_expr, q_expr]);
            if div.remainder.is_empty() {
                product
            } else {
                let r_expr = good_factor(&div.remainder);
                let mut terms = vec![product];
                match r_expr {
                    Expr::Or(xs) => terms.extend(xs),
                    other => terms.push(other),
                }
                Expr::Or(terms)
            }
        }
    }
}

/// Timing-driven decomposition of an `n`-ary associative gate (Fig. 4 /
/// strategy 3).
///
/// Builds a tree over `inputs` (with per-input `arrival` times) using gates
/// of at most `max_fanin` inputs, greedily combining the *earliest*
/// arriving signals first (Huffman-style), so the latest signal traverses
/// the fewest levels. Returns the nesting as lists of merged groups: each
/// step merges the first `k` entries of the work list.
///
/// The returned tree is expressed over input indices `0..inputs`.
///
/// # Panics
///
/// Panics if `max_fanin < 2` or `inputs == 0` or the lengths differ.
#[derive(Clone, Debug, PartialEq)]
pub enum DecompTree {
    /// An original input (by index) with its arrival time.
    Leaf(usize),
    /// A gate combining sub-trees.
    Node(Vec<DecompTree>),
}

impl DecompTree {
    /// Completion time of this subtree under unit gate delay.
    pub fn ready_time(&self, arrival: &[f64]) -> f64 {
        match self {
            DecompTree::Leaf(i) => arrival[*i],
            DecompTree::Node(children) => {
                1.0 + children
                    .iter()
                    .map(|c| c.ready_time(arrival))
                    .fold(f64::MIN, f64::max)
            }
        }
    }

    /// Number of gate nodes in the tree.
    pub fn gate_count(&self) -> usize {
        match self {
            DecompTree::Leaf(_) => 0,
            DecompTree::Node(children) => {
                1 + children.iter().map(DecompTree::gate_count).sum::<usize>()
            }
        }
    }

    /// Depth experienced by input `idx` (levels from that leaf to the root),
    /// or `None` if the input does not appear.
    pub fn depth_of(&self, idx: usize) -> Option<u32> {
        match self {
            DecompTree::Leaf(i) => (*i == idx).then_some(0),
            DecompTree::Node(children) => {
                children.iter().find_map(|c| c.depth_of(idx)).map(|d| d + 1)
            }
        }
    }
}

/// Builds the timing-driven decomposition tree. See [`DecompTree`].
pub fn timing_decompose(arrival: &[f64], max_fanin: usize) -> DecompTree {
    assert!(max_fanin >= 2, "gates need at least two inputs");
    assert!(!arrival.is_empty(), "need at least one input");
    let mut work: Vec<DecompTree> = (0..arrival.len()).map(DecompTree::Leaf).collect();
    if work.len() == 1 {
        return work.pop().expect("one entry");
    }
    while work.len() > 1 {
        // Sort by readiness: earliest first.
        work.sort_by(|a, b| {
            a.ready_time(arrival)
                .partial_cmp(&b.ready_time(arrival))
                .expect("arrival times are not NaN")
        });
        let take = max_fanin.min(work.len());
        let group: Vec<DecompTree> = work.drain(..take).collect();
        work.push(DecompTree::Node(group));
    }
    work.pop().expect("one tree remains")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(pos: &[u8]) -> Cube {
        let mut c = Cube::top();
        for &v in pos {
            c = c.with_pos(v);
        }
        c
    }

    #[test]
    fn factor_preserves_function() {
        let f = Cover::from_cubes(
            4,
            vec![cube(&[0, 2]), cube(&[0, 3]), cube(&[1, 2]), cube(&[1, 3])],
        );
        let e = good_factor(&f);
        assert!(e.to_cover(4).equivalent(&f));
        assert_eq!(e.literal_count(), 4);
    }

    #[test]
    fn factor_with_common_cube() {
        // abc | abd = ab(c|d)
        let f = Cover::from_cubes(4, vec![cube(&[0, 1, 2]), cube(&[0, 1, 3])]);
        let e = good_factor(&f);
        assert_eq!(e.literal_count(), 4);
        assert!(e.to_cover(4).equivalent(&f));
    }

    #[test]
    fn factor_constant_covers() {
        assert_eq!(good_factor(&Cover::zero(3)), Expr::Const(false));
        assert_eq!(good_factor(&Cover::one(3)), Expr::Const(true));
    }

    #[test]
    fn factor_single_literal() {
        let f = Cover::literal(3, 1, Phase::Neg);
        assert_eq!(good_factor(&f), Expr::Lit(1, Phase::Neg));
    }

    #[test]
    fn timing_decompose_favors_late_input() {
        // Fig. 4: a 3-input AND where one input arrives late; the late
        // input should see fewer levels than the early ones.
        let arrival = [0.0, 0.0, 5.0];
        let tree = timing_decompose(&arrival, 2);
        let late_depth = tree.depth_of(2).expect("input present");
        let early_depth = tree.depth_of(0).expect("input present");
        assert!(late_depth <= early_depth);
        assert_eq!(late_depth, 1, "late input goes straight to the root gate");
    }

    #[test]
    fn timing_decompose_balanced_when_equal() {
        let arrival = [0.0; 8];
        let tree = timing_decompose(&arrival, 2);
        assert_eq!(tree.gate_count(), 7);
        // Balanced tree of 8 leaves with fanin 2 has depth 3: readiness 3.
        assert!((tree.ready_time(&arrival) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn timing_decompose_wide_gates() {
        let arrival = [0.0; 9];
        let tree = timing_decompose(&arrival, 4);
        // 9 leaves, fanin 4: 4+4 -> 2 nodes + 1 leaf -> 3 -> root: 3 gates.
        assert_eq!(tree.gate_count(), 3);
    }

    #[test]
    fn expr_eval_matches_cover() {
        let f = Cover::from_cubes(3, vec![cube(&[0, 1]), cube(&[2])]);
        let e = good_factor(&f);
        for row in 0..8 {
            assert_eq!(e.eval(row), f.eval(row), "row {row}");
        }
    }
}
