//! A compact reimplementation of the ESPRESSO two-level minimization loop
//! (expand → irredundant → reduce, iterated to a fixed point).
//!
//! The paper leans on ESPRESSO IIC twice: SOCRATES uses it as the central
//! minimizer (§2.1.1), and MILO's strategy 7 "expands the design into
//! two-level SOP form then minimizes by removing redundant terms" (§4.1.2).
//! We implement the heuristic loop over the cube/cover substrate of this
//! crate; it is not the full ESPRESSO IIC, but it produces irredundant prime
//! covers, which is all the optimizer needs.

use crate::{Cover, Cube};

/// Outcome of a [`minimize`] run.
#[derive(Clone, Debug)]
pub struct MinimizeResult {
    /// The minimized cover (irredundant, all cubes prime w.r.t. ON ∪ DC).
    pub cover: Cover,
    /// Number of expand/irredundant/reduce passes executed.
    pub passes: u32,
    /// Literal count before minimization.
    pub literals_before: u32,
    /// Literal count after minimization.
    pub literals_after: u32,
}

/// Minimizes `on` against the optional don't-care set `dc`.
///
/// The result covers every minterm of `on`, no minterm of the OFF-set
/// (complement of `on ∪ dc`), and is an irredundant prime cover.
///
/// # Examples
///
/// ```
/// use milo_logic::{espresso, Cover, TruthTable};
///
/// // Full minterm cover of XOR-free function x0 | x1 collapses to 2 cubes.
/// let tt = TruthTable::from_fn(2, |r| r != 0);
/// let messy = Cover::from_truth(&tt);
/// let min = espresso::minimize(&messy, None);
/// assert_eq!(min.cover.len(), 2);
/// assert!(min.cover.to_truth() == tt);
/// ```
pub fn minimize(on: &Cover, dc: Option<&Cover>) -> MinimizeResult {
    let literals_before = on.literal_count();
    let nvars = on.nvars();
    let dc = dc.cloned().unwrap_or_else(|| Cover::zero(nvars));
    assert_eq!(
        dc.nvars(),
        nvars,
        "don't-care set must range over the same variables"
    );

    // OFF-set = !(ON | DC).
    let off = on.or(&dc).complement();
    // Care cover the result must keep covering: ON ∪ DC (for redundancy
    // tests we check against ON only, with DC as a helper).
    let mut f = on.clone();
    f.single_cube_containment();

    let mut passes = 0u32;
    let mut best_cost = cost(&f);
    loop {
        passes += 1;
        f = expand(&f, &off);
        f = irredundant(&f, &dc);
        let c = cost(&f);
        if c >= best_cost && passes > 1 {
            break;
        }
        best_cost = c;
        f = reduce(&f, &dc);
        f = expand(&f, &off);
        f = irredundant(&f, &dc);
        let c = cost(&f);
        if c >= best_cost {
            break;
        }
        best_cost = c;
        if passes >= 10 {
            break;
        }
    }
    let literals_after = f.literal_count();
    MinimizeResult {
        cover: f,
        passes,
        literals_before,
        literals_after,
    }
}

/// Cost = (cubes, literals); lexicographic, fewer is better.
fn cost(f: &Cover) -> (usize, u32) {
    (f.len(), f.literal_count())
}

/// Expands every cube of `f` to a prime implicant against the OFF-set,
/// then removes single-cube containment.
pub fn expand(f: &Cover, off: &Cover) -> Cover {
    let nvars = f.nvars();
    // Per-variable occupancy counts over the OFF-set, computed once for
    // the whole pass (they used to be recomputed for every cube).
    let mut off_counts = [0u32; Cube::MAX_VARS as usize];
    for oc in off.cubes() {
        let mut m = oc.support_mask();
        while m != 0 {
            off_counts[m.trailing_zeros() as usize] += 1;
            m &= m - 1;
        }
    }
    // Expand biggest cubes first so smaller cubes are more likely to be
    // absorbed afterwards.
    let mut order: Vec<Cube> = f.cubes().to_vec();
    order.sort_by_key(|c| c.literal_count());
    // Cube expansions are independent; fan out across cores when the
    // cover is large enough to amortize thread startup. Results land in
    // input order either way (milo-par's determinism policy).
    let expanded: Vec<Cube> = if order.len() >= 64 && off.len() >= 32 {
        milo_par::par_map(&order, |&cube| expand_cube(cube, off, nvars, &off_counts))
    } else {
        order
            .iter()
            .map(|&cube| expand_cube(cube, off, nvars, &off_counts))
            .collect()
    };
    let mut out = Cover::zero(nvars);
    for cube in expanded {
        out.push(cube);
    }
    out.single_cube_containment();
    out
}

/// Greedily raises (removes) literals of `cube` while it stays disjoint from
/// the OFF-set.
fn expand_cube(cube: Cube, off: &Cover, nvars: u8, off_counts: &[u32]) -> Cube {
    let mut c = cube;
    // Heuristic order: try to drop literals of variables that block the
    // fewest OFF cubes (approximated by occurrence count in OFF).
    let mut vars: Vec<u8> = (0..nvars).filter(|&v| c.literal(v).is_some()).collect();
    vars.sort_by_key(|&v| off_counts[v as usize]);
    for v in vars {
        let candidate = c.without(v);
        if disjoint(&candidate, off) {
            c = candidate;
        }
    }
    c
}

/// True when `cube ∩ off == ∅`.
fn disjoint(cube: &Cube, off: &Cover) -> bool {
    off.cubes().iter().all(|oc| cube.intersect(oc).is_empty())
}

/// Removes redundant cubes: a cube is redundant when the rest of the cover
/// plus the DC-set covers it.
pub fn irredundant(f: &Cover, dc: &Cover) -> Cover {
    let nvars = f.nvars();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    // Try to remove cubes with many literals first (cheap wins last).
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cubes[i].literal_count()));
    let mut removed = vec![false; cubes.len()];
    if nvars <= 6 {
        // Dense path: the whole space fits one 64-bit word, so "rest
        // covers cube i" is a bitmask containment test over precomputed
        // per-cube row masks — no intermediate covers are built.
        let masks: Vec<u64> = cubes
            .iter()
            .map(|c| Cover::cube_row_mask(c, nvars))
            .collect();
        let dc_mask = dc.row_mask();
        for &i in &order {
            let mut rest = dc_mask;
            for (j, m) in masks.iter().enumerate() {
                if j != i && !removed[j] {
                    rest |= m;
                }
            }
            if masks[i] & !rest == 0 {
                removed[i] = true;
            }
        }
    } else {
        for &i in &order {
            let rest: Vec<Cube> = cubes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i && !removed[j])
                .map(|(_, c)| *c)
                .chain(dc.cubes().iter().copied())
                .collect();
            let rest_cover = Cover::from_cubes(nvars, rest);
            if rest_cover.covers_cube(&cubes[i]) {
                removed[i] = true;
            }
        }
    }
    cubes = cubes
        .into_iter()
        .zip(removed)
        .filter(|(_, r)| !r)
        .map(|(c, _)| c)
        .collect();
    Cover::from_cubes(nvars, cubes)
}

/// Reduces each cube to the smallest cube still covering its unique part of
/// the ON-set, enabling different expansions on the next pass.
pub fn reduce(f: &Cover, dc: &Cover) -> Cover {
    let nvars = f.nvars();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    // Reduce in order of decreasing size.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| cubes[i].literal_count());
    if nvars <= 6 {
        // Dense path: the residue (part of cube i the rest does not
        // cover) is a row bitmask, and its enclosing supercube falls out
        // of per-variable mask tests — no complement recursion.
        reduce_dense(&mut cubes, &order, dc, nvars);
        return Cover::from_cubes(nvars, cubes);
    }
    for &i in &order {
        let c = cubes[i];
        let rest: Vec<Cube> = cubes
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, d)| *d)
            .chain(dc.cubes().iter().copied())
            .collect();
        let rest_cover = Cover::from_cubes(nvars, rest);
        // Part of c not covered by the rest: (rest cofactored by c)'.
        let residue = rest_cover.cofactor_cube(&c).complement();
        if residue.is_empty() {
            continue; // fully covered; irredundant should have caught it
        }
        // Smallest cube containing the residue, re-expressed inside c.
        let mut sc = residue.cubes()[0];
        for r in residue.cubes().iter().skip(1) {
            sc = sc.supercube(r);
        }
        cubes[i] = c.intersect(&sc);
    }
    Cover::from_cubes(nvars, cubes)
}

/// Dense (`nvars <= 6`) core of [`reduce`]: per-cube residue masks and
/// supercube-by-bitmask.
fn reduce_dense(cubes: &mut [Cube], order: &[usize], dc: &Cover, nvars: u8) {
    // Rows (0..64) where variable v is 1.
    const VAR_ROWS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    // Row mask of cube `d` cofactored by `c` (None if they conflict).
    let cof_mask = |d: &Cube, c: &Cube| -> u64 {
        if (d.pos() & c.neg()) | (d.neg() & c.pos()) != 0 {
            return 0;
        }
        let cof = Cube::from_masks(d.pos() & !c.pos(), d.neg() & !c.neg());
        Cover::cube_row_mask(&cof, nvars)
    };
    let full = Cover::full_row_mask(nvars);
    for &i in order {
        let c = cubes[i];
        // (rest ∪ dc) cofactored by c, as a row mask. The residue —
        // mirroring the cofactor-complement of the sparse path — ranges
        // over the whole space; the final intersection with c restricts
        // it.
        let mut rest_cof = 0u64;
        for (j, d) in cubes.iter().enumerate() {
            if j != i {
                rest_cof |= cof_mask(d, &c);
            }
        }
        for d in dc.cubes() {
            rest_cof |= cof_mask(d, &c);
        }
        let residue = full & !rest_cof;
        if residue == 0 {
            continue; // fully covered; irredundant should have caught it
        }
        // Smallest cube containing the residue rows.
        let mut sc = Cube::top();
        for (v, rows) in VAR_ROWS.iter().enumerate().take(nvars as usize) {
            if residue & !rows == 0 {
                sc = sc.with_pos(v as u8);
            } else if residue & rows == 0 {
                sc = sc.with_neg(v as u8);
            }
        }
        cubes[i] = c.intersect(&sc);
    }
}

/// Exact check (for tests / assertions): `candidate` equals `on` modulo the
/// DC-set — it covers all of ON, and nothing in OFF.
pub fn verify(candidate: &Cover, on: &Cover, dc: Option<&Cover>) -> bool {
    let nvars = on.nvars();
    let dc = dc.cloned().unwrap_or_else(|| Cover::zero(nvars));
    // ON ⊆ candidate ∪ DC
    let cand_dc = candidate.or(&dc);
    for c in on.cubes() {
        if !cand_dc.covers_cube(c) {
            return false;
        }
    }
    // candidate ⊆ ON ∪ DC
    let on_dc = on.or(&dc);
    for c in candidate.cubes() {
        if !on_dc.covers_cube(c) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TruthTable;

    #[test]
    fn minimize_minterms_of_or() {
        let tt = TruthTable::from_fn(3, |r| r != 0);
        let f = Cover::from_truth(&tt);
        let res = minimize(&f, None);
        assert!(verify(&res.cover, &f, None));
        assert_eq!(res.cover.len(), 3); // x0 | x1 | x2
        assert_eq!(res.cover.literal_count(), 3);
        assert_eq!(res.cover.to_truth(), tt);
    }

    #[test]
    fn minimize_with_dont_cares() {
        // ON = {3}, DC = {1, 2}: minimal result over x0,x1 is a single
        // one-literal cube (x0 or x1).
        let on = Cover::from_truth(&TruthTable::new(2, 0b1000));
        let dc = Cover::from_truth(&TruthTable::new(2, 0b0110));
        let res = minimize(&on, Some(&dc));
        assert!(verify(&res.cover, &on, Some(&dc)));
        assert_eq!(res.cover.len(), 1);
        assert_eq!(res.cover.literal_count(), 1);
    }

    #[test]
    fn minimize_xor_stays_two_cubes() {
        let tt = TruthTable::from_fn(2, |r| (r.count_ones() & 1) == 1);
        let f = Cover::from_truth(&tt);
        let res = minimize(&f, None);
        assert_eq!(res.cover.len(), 2);
        assert_eq!(res.cover.to_truth(), tt);
    }

    #[test]
    fn minimize_idempotent() {
        let tt = TruthTable::from_fn(4, |r| (r & 0b11) == 0b11 || r >> 3 == 1);
        let f = Cover::from_truth(&tt);
        let once = minimize(&f, None);
        let twice = minimize(&once.cover, None);
        assert_eq!(once.cover.to_truth(), twice.cover.to_truth());
        assert!(twice.literals_after <= once.literals_after);
    }

    #[test]
    fn expand_produces_primes() {
        let tt = TruthTable::from_fn(3, |r| r >= 4); // f = x2
        let f = Cover::from_truth(&tt);
        let off = f.complement();
        let e = expand(&f, &off);
        assert_eq!(e.len(), 1);
        assert_eq!(e.cubes()[0].literal_count(), 1);
    }

    #[test]
    fn irredundant_removes_consensus_cube() {
        // x0x1 | !x0x2 | x1x2 — the last cube is redundant.
        let f = Cover::from_cubes(
            3,
            vec![
                Cube::top().with_pos(0).with_pos(1),
                Cube::top().with_neg(0).with_pos(2),
                Cube::top().with_pos(1).with_pos(2),
            ],
        );
        let out = irredundant(&f, &Cover::zero(3));
        assert_eq!(out.len(), 2);
        assert!(out.equivalent(&f));
    }

    #[test]
    fn verify_rejects_wrong_cover() {
        let on = Cover::from_truth(&TruthTable::new(2, 0b1000));
        let wrong = Cover::one(2);
        assert!(!verify(&wrong, &on, None));
    }
}
