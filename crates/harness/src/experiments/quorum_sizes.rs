//! **E6 — quorum sizes.** Backs the paper's §1 claim: "For square grids,
//! the size of read quorums is √N and the size of write quorums is
//! 2√N − 1 ... in contrast to the voting protocol, where the quorum size in
//! the simplest case is ⌊(N+1)/2⌋."

use crate::report::Table;
use coterie_quorum::{
    CoterieRule, GridCoterie, GridShape, MajorityCoterie, QuorumKind, RowaCoterie, TreeCoterie,
    View,
};

/// One row of the quorum-size table.
#[derive(Clone, Debug)]
pub struct QuorumSizeRow {
    /// Replica count.
    pub n: usize,
    /// Grid read quorum size.
    pub grid_read: usize,
    /// Grid write quorum size.
    pub grid_write: usize,
    /// Majority quorum size.
    pub majority: usize,
    /// Tree (hierarchical) quorum size, measured from the quorum function.
    pub tree: usize,
    /// ROWA write quorum size (= N).
    pub rowa_write: usize,
}

/// Computes sizes for the given replica counts.
pub fn compute(ns: &[usize]) -> Vec<QuorumSizeRow> {
    ns.iter()
        .map(|&n| {
            let shape = GridShape::define(n);
            let view = View::first_n(n);
            let tree_rule = TreeCoterie::new();
            let tree = tree_rule
                .pick_quorum(&view, view.set(), 0, QuorumKind::Write)
                .map(|q| q.len())
                .unwrap_or(0);
            // Sanity-check the analytic grid sizes against actual quorums.
            let grid = GridCoterie::new();
            let gw = grid
                .pick_quorum(&view, view.set(), 0, QuorumKind::Write)
                .unwrap()
                .len();
            debug_assert_eq!(gw, shape.write_quorum_size());
            let _ = RowaCoterie::new();
            QuorumSizeRow {
                n,
                grid_read: shape.read_quorum_size(),
                grid_write: shape.write_quorum_size(),
                majority: MajorityCoterie::new().write_quorum_size(n),
                tree,
                rowa_write: n,
            }
        })
        .collect()
}

/// Renders the table.
pub fn render(ns: &[usize]) -> String {
    let rows = compute(ns);
    let mut t = Table::new(
        "E6 - quorum sizes by coterie rule",
        &[
            "N",
            "grid read",
            "grid write",
            "majority",
            "tree",
            "ROWA write",
        ],
    );
    for r in &rows {
        t.row(&[
            r.n.to_string(),
            r.grid_read.to_string(),
            r.grid_write.to_string(),
            r.majority.to_string(),
            r.tree.to_string(),
            r.rowa_write.to_string(),
        ]);
    }
    t.render()
}

/// The default sweep.
pub const DEFAULT_NS: [usize; 10] = [4, 9, 16, 25, 36, 49, 64, 81, 100, 121];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_grids_match_the_paper_formulas() {
        for r in compute(&DEFAULT_NS) {
            let root = (r.n as f64).sqrt() as usize;
            if root * root == r.n {
                assert_eq!(r.grid_read, root);
                assert_eq!(r.grid_write, 2 * root - 1);
            }
            assert_eq!(r.majority, r.n / 2 + 1);
            assert_eq!(r.rowa_write, r.n);
            assert!(r.tree >= 1 && r.tree <= r.majority);
        }
    }

    #[test]
    fn grid_quorums_beat_majority_for_large_n() {
        let rows = compute(&[49, 100]);
        for r in rows {
            assert!(r.grid_write < r.majority, "N={}", r.n);
        }
    }
}
