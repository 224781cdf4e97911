//! Availability analysis of *static* coteries under the site model
//! (reliable links, nodes up independently with probability `p`).
//!
//! Provides exact closed forms for the grid and voting coteries (used to
//! regenerate the "Static Grid" column of the paper's Table 1), a generic
//! exact enumeration for any rule over small views, and minimal-quorum
//! enumeration used by tests and the structure-aware experiments.

use crate::grid::GridShape;
use crate::node::{NodeSet, View};
use crate::rule::{CoterieRule, QuorumKind};

/// Exact availability of `rule` over `view` when every node is up
/// independently with probability `p`: the probability that the set of up
/// nodes includes a quorum of the requested kind.
///
/// Enumerates all `2^N` up-sets; panics if the view exceeds 25 nodes (use
/// the closed forms or Monte Carlo beyond that).
pub fn exact_availability(rule: &dyn CoterieRule, view: &View, p: f64, kind: QuorumKind) -> f64 {
    let n = view.len();
    assert!(n <= 25, "exact enumeration is limited to 25 nodes");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    // Per-member bit positions, so an enumeration mask converts to the
    // view's NodeSet encoding with one table lookup per set bit.
    let bits: Vec<u128> = view.members().iter().map(|m| 1u128 << m.index()).collect();
    let q = 1.0 - p;
    // Precompute p^k q^(n-k) per popcount to avoid 2^N powf calls.
    let mut weight = vec![0.0f64; n + 1];
    for (k, w) in weight.iter_mut().enumerate() {
        *w = p.powi(k as i32) * q.powi((n - k) as i32);
    }
    // Compile the rule once: the 2^N-iteration loop then runs on pure
    // bitmask evaluation.
    let plan = rule.compile(view);
    let sum_range = |lo: u32, hi: u32| {
        let mut avail = 0.0;
        for mask in lo..hi {
            let mut up = 0u128;
            let mut rest = mask;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                up |= bits[i];
            }
            if plan.includes_quorum(NodeSet(up), kind) {
                avail += weight[mask.count_ones() as usize];
            }
        }
        avail
    };
    let total = 1u32 << n;
    let workers = sweep_workers(total as usize);
    if workers <= 1 {
        return sum_range(0, total);
    }
    // Partial sums are produced per contiguous chunk and added in chunk
    // order, so the result is deterministic for a given worker count.
    let chunk = total.div_ceil(workers as u32);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers as u32)
            .map(|t| {
                let lo = t * chunk;
                let hi = (lo + chunk).min(total);
                scope.spawn(move || sum_range(lo, hi))
            })
            .collect();
        #[expect(clippy::unwrap_used, reason = "join fails only if a worker panicked")]
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// Number of worker threads for an embarrassingly parallel sweep of
/// `iterations` steps: available parallelism, but never so many that a
/// chunk becomes trivially small, and one (i.e. inline) for small sweeps
/// where spawn overhead would dominate.
fn sweep_workers(iterations: usize) -> usize {
    const MIN_CHUNK: usize = 1 << 14;
    if iterations < 2 * MIN_CHUNK {
        return 1;
    }
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(iterations / MIN_CHUNK).max(1)
}

/// Closed-form write availability of a static grid of the given shape:
///
/// `A_w = Π_j (1 - q^{h_j})  -  Π_j (1 - q^{h_j} - p^{h_j})`
///
/// where `h_j` is the physical height of column `j` (holes shorten the last
/// `b` columns). The first product is "every column covered"; the second is
/// "every column covered but none fully up"; their difference is the
/// probability of a read cover plus at least one fully-up column.
pub fn grid_write_availability(shape: GridShape, p: f64) -> f64 {
    let q = 1.0 - p;
    let mut all_covered = 1.0;
    let mut covered_none_full = 1.0;
    for j in 1..=shape.n {
        let h = shape.column_height(j) as i32;
        let cover = 1.0 - q.powi(h);
        let full = p.powi(h);
        all_covered *= cover;
        covered_none_full *= cover - full;
    }
    all_covered - covered_none_full
}

/// Closed-form read availability of a static grid: every column covered.
pub fn grid_read_availability(shape: GridShape, p: f64) -> f64 {
    let q = 1.0 - p;
    (1..=shape.n)
        .map(|j| 1.0 - q.powi(shape.column_height(j) as i32))
        .product()
}

/// Binomial tail: probability that at least `k` of `n` independent nodes
/// (each up with probability `p`) are up. This is the availability of a
/// voting coterie with quorum size `k`.
pub fn at_least_k_up(n: usize, k: usize, p: f64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    let q = 1.0 - p;
    // Sum the tail from the most likely end for accuracy.
    let mut total = 0.0;
    for i in k..=n {
        total += binomial(n, i) * p.powi(i as i32) * q.powi((n - i) as i32);
    }
    total.min(1.0)
}

/// Write availability of majority voting over `n` nodes.
pub fn majority_write_availability(n: usize, p: f64) -> f64 {
    at_least_k_up(n, n / 2 + 1, p)
}

/// Read availability of ROWA over `n` nodes (any node up).
pub fn rowa_read_availability(n: usize, p: f64) -> f64 {
    1.0 - (1.0 - p).powi(n as i32)
}

/// Write availability of ROWA over `n` nodes (all nodes up).
pub fn rowa_write_availability(n: usize, p: f64) -> f64 {
    p.powi(n as i32)
}

/// Exhaustive search over the *exact-fit* grids `m × n = N`, returning the
/// shape with the best (highest) write availability. This mirrors the
/// "Best dimens." column of the paper's Table 1, which — following the
/// original grid-protocol paper \[3\] — only considers grids without
/// unoccupied positions. See [`best_grid_allowing_holes`] for the wider
/// search (which sometimes wins: a 4×5 grid with 4 holes beats 4×4 for
/// N = 16 at p = 0.95, because short columns are easier to fully cover).
pub fn best_static_grid(n_nodes: usize, p: f64) -> (GridShape, f64) {
    assert!(n_nodes >= 1);
    let mut best: Option<(GridShape, f64)> = None;
    for m in 1..=n_nodes {
        if !n_nodes.is_multiple_of(m) {
            continue;
        }
        let n = n_nodes / m;
        let shape = GridShape { m, n, b: 0 };
        let a = grid_write_availability(shape, p);
        if best.is_none_or(|(_, ba)| a > ba) {
            best = Some((shape, a));
        }
    }
    #[expect(clippy::expect_used, reason = "the loop visits the 1 x N shape")]
    best.expect("the 1 x N grid is always a candidate")
}

/// Like [`best_static_grid`] but also considering hole-bearing grids with
/// `m*n >= N` and `b = m*n - N < n` (the constraint `DefineGrid` maintains).
pub fn best_grid_allowing_holes(n_nodes: usize, p: f64) -> (GridShape, f64) {
    assert!(n_nodes >= 1);
    let mut best: Option<(GridShape, f64)> = None;
    for m in 1..=n_nodes {
        for n in 1..=n_nodes {
            if m * n < n_nodes || m * n - n_nodes >= n {
                continue;
            }
            let shape = GridShape {
                m,
                n,
                b: m * n - n_nodes,
            };
            let a = grid_write_availability(shape, p);
            if best.is_none_or(|(_, ba)| a > ba) {
                best = Some((shape, a));
            }
        }
    }
    #[expect(clippy::expect_used, reason = "the loop visits the hole-free 1 x N")]
    best.expect("at least the 1 x N grid is always a candidate")
}

fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// Enumerates all *minimal* quorums of `rule` over `view`. Exponential in
/// the view size; restricted to 20 nodes.
pub fn minimal_quorums(rule: &dyn CoterieRule, view: &View, kind: QuorumKind) -> Vec<NodeSet> {
    let n = view.len();
    assert!(n <= 20, "minimal quorum enumeration is limited to 20 nodes");
    let bits: Vec<u128> = view.members().iter().map(|m| 1u128 << m.index()).collect();
    let plan = rule.compile(view);
    let scan_range = |lo: u32, hi: u32| {
        let mut quorums = Vec::new();
        'outer: for mask in lo..hi {
            let mut up = 0u128;
            let mut rest = mask;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                up |= bits[i];
            }
            let s = NodeSet(up);
            if !plan.includes_quorum(s, kind) {
                continue;
            }
            for node in s.iter() {
                let mut reduced = s;
                reduced.remove(node);
                if plan.includes_quorum(reduced, kind) {
                    continue 'outer; // not minimal
                }
            }
            quorums.push(s);
        }
        quorums
    };
    let total = 1u32 << n;
    let workers = sweep_workers(total as usize);
    if workers <= 1 {
        return scan_range(1, total);
    }
    // Chunks are scanned in parallel but concatenated in chunk order, so
    // the output keeps the sequential enumeration order.
    let chunk = total.div_ceil(workers as u32);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers as u32)
            .map(|t| {
                let lo = (t * chunk).max(1);
                let hi = (t * chunk + chunk).min(total);
                scope.spawn(move || scan_range(lo, hi))
            })
            .collect();
        #[expect(clippy::unwrap_used, reason = "join fails only if a worker panicked")]
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridCoterie;
    use crate::majority::MajorityCoterie;
    use crate::rowa::RowaCoterie;

    const P: f64 = 0.95;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1e-300)
    }

    #[test]
    fn table1_static_grid_column() {
        // Paper Table 1: best static-grid write unavailability at p = 0.95.
        let cases = [
            (9, (3, 3), 3268.59e-6),
            (12, (3, 4), 912.25e-6),
            (15, (3, 5), 683.60e-6),
            (16, (4, 4), 1208.75e-6),
            (20, (4, 5), 250.82e-6),
            (24, (4, 6), 78.23e-6),
            (30, (5, 6), 135.90e-6),
        ];
        for (n_nodes, (m, n), expected_unavail) in cases {
            let shape = GridShape {
                m,
                n,
                b: m * n - n_nodes,
            };
            let unavail = 1.0 - grid_write_availability(shape, P);
            assert!(
                close(unavail, expected_unavail, 2e-3),
                "N={n_nodes}: got {unavail:e}, paper {expected_unavail:e}"
            );
        }
    }

    #[test]
    fn closed_form_matches_enumeration_for_grid() {
        let rule = GridCoterie::new();
        for n_nodes in [3usize, 4, 5, 6, 7, 9, 12] {
            let view = View::first_n(n_nodes);
            let shape = GridShape::define(n_nodes);
            for p in [0.5, 0.8, 0.95] {
                let exact = exact_availability(&rule, &view, p, QuorumKind::Write);
                let formula = grid_write_availability(shape, p);
                assert!(
                    close(exact, formula, 1e-12),
                    "N={n_nodes} p={p}: enum {exact} vs formula {formula}"
                );
                let exact_r = exact_availability(&rule, &view, p, QuorumKind::Read);
                let formula_r = grid_read_availability(shape, p);
                assert!(close(exact_r, formula_r, 1e-12), "read N={n_nodes} p={p}");
            }
        }
    }

    #[test]
    fn closed_form_matches_enumeration_for_majority() {
        let rule = MajorityCoterie::new();
        for n in [1usize, 2, 3, 5, 8, 11] {
            let view = View::first_n(n);
            for p in [0.3, 0.7, 0.95] {
                let exact = exact_availability(&rule, &view, p, QuorumKind::Write);
                let formula = majority_write_availability(n, p);
                assert!(close(exact, formula, 1e-12), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn rowa_closed_forms() {
        let rule = RowaCoterie::new();
        let view = View::first_n(6);
        for p in [0.2, 0.9] {
            assert!(close(
                exact_availability(&rule, &view, p, QuorumKind::Read),
                rowa_read_availability(6, p),
                1e-12
            ));
            assert!(close(
                exact_availability(&rule, &view, p, QuorumKind::Write),
                rowa_write_availability(6, p),
                1e-12
            ));
        }
    }

    #[test]
    fn availability_monotone_in_p() {
        let shape = GridShape::define(12);
        let mut prev = 0.0;
        for i in 1..=20 {
            let p = i as f64 / 20.0;
            let a = grid_write_availability(shape, p);
            assert!(a >= prev - 1e-12, "availability dips at p={p}");
            prev = a;
        }
        assert!(close(grid_write_availability(shape, 1.0), 1.0, 1e-12));
        assert_eq!(grid_write_availability(shape, 0.0), 0.0);
    }

    #[test]
    fn best_static_grid_matches_paper_dimensions() {
        // Table 1 lists best dimensions per N (rows x columns up to
        // transpose: availability is symmetric in m,n only for b=0 exact
        // fits; compare the m+n pair).
        let expect = [
            (9, 3, 3),
            (12, 3, 4),
            (16, 4, 4),
            (20, 4, 5),
            (24, 4, 6),
            (30, 5, 6),
        ];
        for (n_nodes, em, en) in expect {
            let (shape, _) = best_static_grid(n_nodes, P);
            let mut dims = [shape.m, shape.n];
            dims.sort_unstable();
            let mut exp = [em, en];
            exp.sort_unstable();
            assert_eq!(dims, exp, "N={n_nodes}: got {shape:?}");
        }
    }

    #[test]
    fn minimal_quorums_intersect() {
        let rule = GridCoterie::new();
        let view = View::first_n(9);
        let reads = minimal_quorums(&rule, &view, QuorumKind::Read);
        let writes = minimal_quorums(&rule, &view, QuorumKind::Write);
        assert!(!reads.is_empty() && !writes.is_empty());
        for &w1 in &writes {
            for &w2 in &writes {
                assert!(w1.intersects(w2));
            }
            for &r in &reads {
                assert!(r.intersects(w1));
            }
        }
        // 3x3 grid: 3^3 = 27 minimal read quorums; write quorums pick a full
        // column (3 choices) and one of 3 representatives in each of the two
        // other columns: 3 * 9 = 27.
        assert_eq!(reads.len(), 27);
        assert_eq!(writes.len(), 27);
    }

    #[test]
    fn holes_can_beat_exact_fit() {
        let (shape, a_holes) = best_grid_allowing_holes(16, P);
        let (_, a_exact) = best_static_grid(16, P);
        assert!(a_holes > a_exact);
        assert!(shape.b > 0);
    }

    #[test]
    fn binomial_sanity() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(4, 7), 0.0);
        assert!(close(at_least_k_up(10, 0, 0.5), 1.0, 1e-12));
        assert_eq!(at_least_k_up(3, 4, 0.9), 0.0);
    }
}
