//! Algebraic (weak) division and kernel extraction — the machinery behind
//! SOCRATES' "weak-division to find common subterms" (§2.1.1) and MILO's
//! strategies 3 and 7 (§4.1.2).

use crate::{Cover, Cube};
use std::collections::{BTreeSet, HashSet};

/// Result of dividing a cover `f` by a divisor `d`: `f = d·q + r`
/// (algebraically, i.e. treating cubes as products of distinct literals).
#[derive(Clone, Debug)]
pub struct Division {
    /// The quotient `q`.
    pub quotient: Cover,
    /// The remainder `r`.
    pub remainder: Cover,
}

/// Weak (algebraic) division of `f` by `d`.
///
/// The quotient is the largest cover `q` with `f ⊇ d·q` algebraically; the
/// remainder collects the cubes of `f` not expressible as `d·q`.
///
/// # Examples
///
/// ```
/// use milo_logic::{divide, Cover, Cube};
///
/// // f = a·c | a·d | b·c | b·d | e  divided by  d = a | b
/// let f = Cover::from_cubes(5, vec![
///     Cube::top().with_pos(0).with_pos(2),
///     Cube::top().with_pos(0).with_pos(3),
///     Cube::top().with_pos(1).with_pos(2),
///     Cube::top().with_pos(1).with_pos(3),
///     Cube::top().with_pos(4),
/// ]);
/// let d = Cover::from_cubes(5, vec![Cube::top().with_pos(0), Cube::top().with_pos(1)]);
/// let div = divide::divide(&f, &d);
/// assert_eq!(div.quotient.len(), 2); // c | d
/// assert_eq!(div.remainder.len(), 1); // e
/// ```
pub fn divide(f: &Cover, d: &Cover) -> Division {
    assert_eq!(f.nvars(), d.nvars());
    let nvars = f.nvars();
    if d.is_empty() {
        return Division {
            quotient: Cover::zero(nvars),
            remainder: f.clone(),
        };
    }
    // Candidate quotients for the first divisor cube, in f-order (this
    // fixes the quotient's deterministic cube order); hashed candidate
    // sets for the remaining divisor cubes so the intersection below is
    // O(|f|·|d|) instead of the quadratic Vec::contains scan.
    let (first_dc, rest_dc) = d.cubes().split_first().expect("divisor is non-empty");
    let mut first_set: Vec<Cube> = Vec::new();
    let mut first_seen: HashSet<Cube> = HashSet::new();
    for fc in f.cubes() {
        if let Some(q) = fc.algebraic_quotient(first_dc) {
            // Algebraic division requires disjoint supports between the
            // divisor cube and the quotient cube.
            if q.support_mask() & first_dc.support_mask() == 0 && first_seen.insert(q) {
                first_set.push(q);
            }
        }
    }
    let rest_sets: Vec<HashSet<Cube>> = rest_dc
        .iter()
        .map(|dc| {
            f.cubes()
                .iter()
                .filter_map(|fc| fc.algebraic_quotient(dc))
                .filter(|q| q.support_mask() & dc.support_mask() == 0)
                .collect()
        })
        .collect();
    // Quotient = intersection of candidate sets.
    let quotient_cubes: Vec<Cube> = first_set
        .into_iter()
        .filter(|q| rest_sets.iter().all(|set| set.contains(q)))
        .collect();
    let quotient = Cover::from_cubes(nvars, quotient_cubes);
    // Remainder = cubes of f not produced by d * quotient (hashed
    // membership test instead of Vec::contains per f-cube).
    let mut produced: HashSet<Cube> = HashSet::with_capacity(d.len() * quotient.len());
    for dc in d.cubes() {
        for qc in quotient.cubes() {
            produced.insert(dc.intersect(qc));
        }
    }
    let remainder_cubes: Vec<Cube> = f
        .cubes()
        .iter()
        .filter(|fc| !produced.contains(fc))
        .copied()
        .collect();
    Division {
        quotient,
        remainder: Cover::from_cubes(nvars, remainder_cubes),
    }
}

/// A kernel of a cover together with its co-kernel cube.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// The cube-free quotient (the kernel itself).
    pub kernel: Cover,
    /// The cube that was divided out (the co-kernel).
    pub co_kernel: Cube,
}

/// Computes the set of kernels of `f` (including, per convention, `f`
/// itself when it is cube-free).
///
/// Kernels are the cube-free primary divisors; common kernels across
/// functions expose multi-cube common subexpressions — the basis of weak
/// division factoring.
pub fn kernels(f: &Cover) -> Vec<Kernel> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<Vec<(u32, u32)>> = BTreeSet::new();
    kernels_rec(f, 0, Cube::top(), &mut out, &mut seen);
    // f itself, if cube-free.
    if largest_common_cube(f).is_top() && f.len() > 1 {
        let key = cover_key(f);
        if seen.insert(key) {
            out.push(Kernel {
                kernel: f.clone(),
                co_kernel: Cube::top(),
            });
        }
    }
    out
}

fn cover_key(f: &Cover) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = f.cubes().iter().map(|c| (c.pos(), c.neg())).collect();
    v.sort_unstable();
    v
}

fn kernels_rec(
    f: &Cover,
    start_var: u8,
    co_kernel: Cube,
    out: &mut Vec<Kernel>,
    seen: &mut BTreeSet<Vec<(u32, u32)>>,
) {
    let nvars = f.nvars();
    // One pass over the cubes counts every literal's occurrences, instead
    // of re-scanning the cover once per (variable, phase) pair.
    let mut pos_count = [0u32; Cube::MAX_VARS as usize];
    let mut neg_count = [0u32; Cube::MAX_VARS as usize];
    for c in f.cubes() {
        let (mut p, mut n) = (c.pos(), c.neg());
        while p != 0 {
            let v = p.trailing_zeros() as usize;
            pos_count[v] += 1;
            p &= p - 1;
        }
        while n != 0 {
            let v = n.trailing_zeros() as usize;
            neg_count[v] += 1;
            n &= n - 1;
        }
    }
    for v in start_var..nvars {
        for phase in [crate::Phase::Pos, crate::Phase::Neg] {
            let lit = Cube::top().with_literal(v, phase);
            // Count cubes containing this literal.
            let count = match phase {
                crate::Phase::Pos => pos_count[v as usize],
                crate::Phase::Neg => neg_count[v as usize],
            };
            if count < 2 {
                continue;
            }
            let d = Cover::from_cube(nvars, lit);
            let q = divide(f, &d).quotient;
            if q.is_empty() {
                continue;
            }
            // Make the quotient cube-free.
            let lcc = largest_common_cube(&q);
            let q = if lcc.is_top() {
                q
            } else {
                strip_cube(&q, &lcc)
            };
            let new_cok = co_kernel.intersect(&lit).intersect(&lcc);
            if q.len() > 1 {
                let key = cover_key(&q);
                if seen.insert(key) {
                    out.push(Kernel {
                        kernel: q.clone(),
                        co_kernel: new_cok,
                    });
                }
                kernels_rec(&q, v + 1, new_cok, out, seen);
            }
        }
    }
}

/// The largest cube dividing every cube of `f` (its common-literal cube).
pub fn largest_common_cube(f: &Cover) -> Cube {
    let mut iter = f.cubes().iter();
    match iter.next() {
        None => Cube::top(),
        Some(first) => {
            let mut pos = first.pos();
            let mut neg = first.neg();
            for c in iter {
                pos &= c.pos();
                neg &= c.neg();
            }
            Cube::from_masks(pos, neg)
        }
    }
}

/// Divides every cube of `f` by `cube` (which must divide each cube).
fn strip_cube(f: &Cover, cube: &Cube) -> Cover {
    let cubes = f
        .cubes()
        .iter()
        .map(|c| c.algebraic_quotient(cube).expect("cube divides all cubes"))
        .collect();
    Cover::from_cubes(f.nvars(), cubes)
}

/// Picks the kernel whose extraction saves the most literals, if any.
///
/// The saving estimate for factoring `f = d·q + r` counts literals of
/// `d + q + r` against literals of `f`.
pub fn best_kernel(f: &Cover) -> Option<Kernel> {
    let ks = kernels(f);
    let base = f.literal_count() as i64;
    let mut best: Option<(i64, Kernel)> = None;
    for k in ks {
        if k.kernel.len() < 2 {
            continue;
        }
        let div = divide(f, &k.kernel);
        if div.quotient.is_empty() {
            continue;
        }
        let new_cost = k.kernel.literal_count() as i64
            + div.quotient.literal_count() as i64
            + div.remainder.literal_count() as i64;
        let saving = base - new_cost;
        if saving > 0 && best.as_ref().is_none_or(|(s, _)| saving > *s) {
            best = Some((saving, k));
        }
    }
    best.map(|(_, k)| k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    fn cube(pos: &[u8]) -> Cube {
        let mut c = Cube::top();
        for &v in pos {
            c = c.with_pos(v);
        }
        c
    }

    #[test]
    fn divide_exact() {
        // f = ab | ac,  d = b | c  =>  q = a, r = 0
        let f = Cover::from_cubes(3, vec![cube(&[0, 1]), cube(&[0, 2])]);
        let d = Cover::from_cubes(3, vec![cube(&[1]), cube(&[2])]);
        let div = divide(&f, &d);
        assert_eq!(div.quotient.len(), 1);
        assert_eq!(div.quotient.cubes()[0], cube(&[0]));
        assert!(div.remainder.is_empty());
    }

    #[test]
    fn divide_with_remainder() {
        // f = ab | ac | d,  d = b | c  =>  q = a, r = d
        let f = Cover::from_cubes(4, vec![cube(&[0, 1]), cube(&[0, 2]), cube(&[3])]);
        let d = Cover::from_cubes(4, vec![cube(&[1]), cube(&[2])]);
        let div = divide(&f, &d);
        assert_eq!(div.quotient.len(), 1);
        assert_eq!(div.remainder.len(), 1);
        assert_eq!(div.remainder.cubes()[0], cube(&[3]));
    }

    #[test]
    fn divide_by_nondivisor() {
        let f = Cover::from_cubes(3, vec![cube(&[0])]);
        let d = Cover::from_cubes(3, vec![cube(&[1]), cube(&[2])]);
        let div = divide(&f, &d);
        assert!(div.quotient.is_empty());
        assert_eq!(div.remainder.len(), 1);
    }

    #[test]
    fn divide_respects_phases() {
        // f = a!b | ab — dividing by b must not pick up a!b.
        let f = Cover::from_cubes(
            2,
            vec![
                Cube::top().with_pos(0).with_neg(1),
                Cube::top().with_pos(0).with_pos(1),
            ],
        );
        let d = Cover::literal(2, 1, Phase::Pos);
        let div = divide(&f, &d);
        assert_eq!(div.quotient.len(), 1);
        assert_eq!(div.quotient.cubes()[0], cube(&[0]));
        assert_eq!(div.remainder.len(), 1);
    }

    #[test]
    fn kernels_of_textbook_example() {
        // f = adf + aef + bdf + bef + cdf + cef + g
        //   = ((a+b+c)(d+e))f + g
        let mk = |vs: &[u8]| cube(vs);
        let f = Cover::from_cubes(
            7,
            vec![
                mk(&[0, 3, 5]),
                mk(&[0, 4, 5]),
                mk(&[1, 3, 5]),
                mk(&[1, 4, 5]),
                mk(&[2, 3, 5]),
                mk(&[2, 4, 5]),
                mk(&[6]),
            ],
        );
        let ks = kernels(&f);
        // Expect kernels containing (a+b+c) and (d+e) among others.
        let has_abc = ks.iter().any(|k| {
            k.kernel.len() == 3 && k.kernel.cubes().iter().all(|c| c.literal_count() == 1)
        });
        let has_de = ks.iter().any(|k| {
            k.kernel.len() == 2 && k.kernel.cubes().iter().all(|c| c.literal_count() == 1)
        });
        assert!(has_abc, "missing (a+b+c)-like kernel: {ks:?}");
        assert!(has_de, "missing (d+e)-like kernel: {ks:?}");
    }

    #[test]
    fn best_kernel_saves_literals() {
        // f = ac | ad | bc | bd: extracting (a+b) or (c+d) saves literals.
        let f = Cover::from_cubes(
            4,
            vec![cube(&[0, 2]), cube(&[0, 3]), cube(&[1, 2]), cube(&[1, 3])],
        );
        let k = best_kernel(&f).expect("a kernel should save literals");
        assert_eq!(k.kernel.len(), 2);
        let div = divide(&f, &k.kernel);
        let new_cost =
            k.kernel.literal_count() + div.quotient.literal_count() + div.remainder.literal_count();
        assert!(new_cost < f.literal_count());
    }

    #[test]
    fn largest_common_cube_finds_shared_literals() {
        let f = Cover::from_cubes(3, vec![cube(&[0, 1]), cube(&[0, 2])]);
        assert_eq!(largest_common_cube(&f), cube(&[0]));
    }

    #[test]
    fn no_kernel_in_single_cube() {
        let f = Cover::from_cube(3, cube(&[0, 1, 2]));
        assert!(best_kernel(&f).is_none());
    }
}
