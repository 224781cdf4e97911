//! The grid coterie (§5 of the paper): `DefineGrid`, row-major placement
//! with unoccupied positions in the bottom row (right-justified), and the
//! `IsReadQuorum` / `IsWriteQuorum` predicates, including the optimization
//! noted in the paper's acknowledgements that "write quorums in the grid
//! protocol need include only the part of a grid column that corresponds to
//! physical nodes".

use crate::node::{NodeId, NodeSet, View};
use crate::plan::QuorumPlan;
use crate::rule::{CoterieRule, QuorumKind};
use serde::{Deserialize, Serialize};

/// Grid dimensions as returned by the paper's `DefineGrid` subroutine.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub struct GridShape {
    /// Number of rows `m`.
    pub m: usize,
    /// Number of columns `n`.
    pub n: usize,
    /// Number of unoccupied positions `b` (always `< n`), assumed to be in
    /// the bottom row and right-justified.
    pub b: usize,
}

impl GridShape {
    /// The paper's `DefineGrid`: given the number of nodes `N`, returns the
    /// grid dimensions `m × n` and the number of unoccupied positions `b`.
    ///
    /// ```text
    /// m := ⌊√N⌋;  n := ⌈√N⌉;
    /// if m*n < N then m := m+1; endif;
    /// b := m*n - N;
    /// ```
    ///
    /// The rule always yields `m*n ≥ N`, keeps `|m-n| ≤ 1`, and "when
    /// choosing between n×(n+1) and (n+1)×n grids ... chooses the former".
    pub fn define(n_nodes: usize) -> GridShape {
        assert!(n_nodes >= 1, "a grid needs at least one node");
        // Exact integer floor(sqrt(N)); f64 sqrt is only a seed.
        let mut floor_root = (n_nodes as f64).sqrt() as usize;
        while (floor_root + 1) * (floor_root + 1) <= n_nodes {
            floor_root += 1;
        }
        while floor_root * floor_root > n_nodes {
            floor_root -= 1;
        }
        let mut m = floor_root;
        let n = if floor_root * floor_root == n_nodes {
            floor_root
        } else {
            floor_root + 1
        };
        if m * n < n_nodes {
            m += 1;
        }
        let b = m * n - n_nodes;
        debug_assert!(b < n, "DefineGrid invariant: b < n (got {b} >= {n})");
        GridShape { m, n, b }
    }

    /// Number of occupied (physical) positions.
    pub fn occupied(&self) -> usize {
        self.m * self.n - self.b
    }

    /// The physical height of column `j` (1-based): `m` for the first
    /// `n - b` columns, `m - 1` for the `b` right-most columns whose bottom
    /// position is unoccupied.
    pub fn column_height(&self, j: usize) -> usize {
        debug_assert!(j >= 1 && j <= self.n);
        if j <= self.n - self.b {
            self.m
        } else {
            self.m - 1
        }
    }

    /// Coordinates `(i, j)` (1-based, row-major) of the `k`-th node
    /// (`k` 1-based), exactly as in the paper's `IsWriteQuorum`:
    /// `i := quotient((k-1), n) + 1; j := remainder((k-1), n) + 1`.
    pub fn position(&self, k: usize) -> (usize, usize) {
        debug_assert!(k >= 1 && k <= self.occupied());
        let i = (k - 1) / self.n + 1;
        let j = (k - 1) % self.n + 1;
        (i, j)
    }

    /// Inverse of [`position`](GridShape::position): the 1-based ordered
    /// number of the node at `(i, j)`, or `None` for an unoccupied position.
    pub fn ordered_number_at(&self, i: usize, j: usize) -> Option<usize> {
        if i < 1 || i > self.m || j < 1 || j > self.n {
            return None;
        }
        let k = (i - 1) * self.n + j;
        if k <= self.occupied() {
            Some(k)
        } else {
            None
        }
    }

    /// Minimum read quorum size: one representative per column.
    pub fn read_quorum_size(&self) -> usize {
        self.n
    }

    /// Minimum write quorum size: a column cover plus one full physical
    /// column (the covered column's representative is shared), i.e.
    /// `n - 1 + min_column_height`.
    pub fn write_quorum_size(&self) -> usize {
        let min_h = if self.b > 0 { self.m - 1 } else { self.m };
        self.n - 1 + min_h
    }
}

impl GridShape {
    /// The *tall* orientation: `m = ⌈√N⌉` rows, `n = ⌊√N⌋` columns
    /// (growing `n` when the grid falls short). The paper's `DefineGrid`
    /// prefers the wide `n × (n+1)` orientation, which for N = 5 puts a
    /// *single node* in the right-most column — a single point of failure
    /// for every quorum, undermining the §6 claim that grids of four or
    /// more nodes tolerate any single failure (see experiment E10). With
    /// holes at the bottom of the *row-major* layout, the tall orientation
    /// keeps every column at height ≥ m - 1 ≥ 1 with at least two
    /// physical members whenever `N ≥ 4`, restoring the claim.
    pub fn define_tall(n_nodes: usize) -> GridShape {
        assert!(n_nodes >= 1, "a grid needs at least one node");
        let mut floor_root = (n_nodes as f64).sqrt() as usize;
        while (floor_root + 1) * (floor_root + 1) <= n_nodes {
            floor_root += 1;
        }
        while floor_root * floor_root > n_nodes {
            floor_root -= 1;
        }
        let mut m = if floor_root * floor_root == n_nodes {
            floor_root
        } else {
            floor_root + 1
        };
        let n = floor_root;
        if m * n < n_nodes {
            m += 1;
        }
        let b = m * n - n_nodes;
        debug_assert!(b < n || n == 1, "define_tall invariant: b < n");
        GridShape { m, n, b }
    }
}

/// Which grid orientation the rule derives from a view.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GridOrientation {
    /// The paper's published `DefineGrid`: wide (`n × (n+1)` preferred).
    #[default]
    PaperWide,
    /// The corrected tall orientation (`(n+1) × n` preferred); avoids
    /// singleton columns for every `N ≥ 4`.
    Tall,
}

/// The grid coterie rule. Stateless: the grid is re-derived from each view,
/// which is what makes the protocol *dynamic* (§5: "All we have to do to make
/// this protocol dynamic is design a rule to construct the grid given an
/// arbitrary set V of ordered nodes").
#[derive(Clone, Copy, Debug, Default)]
pub struct GridCoterie {
    orientation: GridOrientation,
}

impl GridCoterie {
    /// Creates the grid rule with the paper's published orientation.
    pub fn new() -> Self {
        GridCoterie {
            orientation: GridOrientation::PaperWide,
        }
    }

    /// Creates the grid rule with the corrected tall orientation (see
    /// [`GridShape::define_tall`]).
    pub fn tall() -> Self {
        GridCoterie {
            orientation: GridOrientation::Tall,
        }
    }

    /// Derives the grid shape for a view of `n` nodes under this rule's
    /// orientation.
    pub fn shape(&self, n_nodes: usize) -> GridShape {
        match self.orientation {
            GridOrientation::PaperWide => GridShape::define(n_nodes),
            GridOrientation::Tall => GridShape::define_tall(n_nodes),
        }
    }

    /// The members of `view` occupying column `j` of the derived grid.
    pub fn column_members(&self, view: &View, j: usize) -> NodeSet {
        let shape = self.shape(view.len());
        let mut set = NodeSet::new();
        for i in 1..=shape.column_height(j) {
            if let Some(k) = shape.ordered_number_at(i, j) {
                if let Some(node) = view.member_at(k) {
                    set.insert(node);
                }
            }
        }
        set
    }

    /// Renders the grid layout for `view` as ASCII art (used to regenerate
    /// the paper's Figures 1 and 2).
    pub fn render(&self, view: &View) -> String {
        let shape = self.shape(view.len());
        let mut out = String::new();
        let width = view
            .members()
            .iter()
            .map(|n| n.to_string().len())
            .max()
            .unwrap_or(1)
            .max(1);
        out.push_str(&format!(
            "grid for N = {}: {} rows x {} columns, {} unoccupied\n",
            view.len(),
            shape.m,
            shape.n,
            shape.b
        ));
        for i in 1..=shape.m {
            for j in 1..=shape.n {
                let cell = match shape.ordered_number_at(i, j) {
                    #[expect(clippy::unwrap_used, reason = "ordered numbers are < |view|")]
                    Some(k) => view.member_at(k).unwrap().to_string(),
                    None => "-".to_string(),
                };
                out.push_str(&format!(" {cell:>width$}"));
            }
            out.push('\n');
        }
        out
    }
}

impl CoterieRule for GridCoterie {
    fn name(&self) -> &'static str {
        match self.orientation {
            GridOrientation::PaperWide => "grid",
            GridOrientation::Tall => "grid-tall",
        }
    }

    fn includes_quorum(&self, view: &View, s: NodeSet, kind: QuorumKind) -> bool {
        if view.is_empty() {
            return false;
        }
        let shape = self.shape(view.len());
        let s = s.intersection(view.set());
        // COLUMN-COVER and COLUMNS[1..n] from the paper's pseudo-code,
        // tracked as per-column counts of covered physical rows.
        let mut covered = vec![false; shape.n + 1];
        let mut col_count = vec![0usize; shape.n + 1];
        for node in s.iter() {
            #[expect(clippy::expect_used, reason = "ordered-number(V, s) is total: s ⊆ V")]
            let k = view.ordered_number(node).expect("s ⊆ view");
            let (_, j) = shape.position(k);
            covered[j] = true;
            col_count[j] += 1;
        }
        let all_covered = (1..=shape.n).all(|j| covered[j]);
        if !all_covered {
            return false;
        }
        match kind {
            QuorumKind::Read => true,
            // "there exists j such that COLUMN[j] = {1..m} if j <= n-b, or
            // {1..m-1} otherwise" — i.e. some column is fully covered over
            // its physical positions.
            QuorumKind::Write => (1..=shape.n).any(|j| col_count[j] == shape.column_height(j)),
        }
    }

    fn compile(&self, view: &View) -> QuorumPlan {
        if view.is_empty() {
            return QuorumPlan::never(view);
        }
        let shape = self.shape(view.len());
        let columns = (1..=shape.n)
            .map(|j| self.column_members(view, j).0)
            .collect();
        QuorumPlan::grid(view, columns)
    }

    fn pick_quorum(
        &self,
        view: &View,
        prefer: NodeSet,
        seed: u64,
        kind: QuorumKind,
    ) -> Option<NodeSet> {
        if view.is_empty() {
            return None;
        }
        let shape = self.shape(view.len());
        let alive = prefer.intersection(view.set());
        let mut quorum = NodeSet::new();

        // For writes, first choose a column whose physical members are all
        // preferred; rotate the starting column by seed for load sharing.
        let full_column = match kind {
            QuorumKind::Read => None,
            QuorumKind::Write => {
                let mut chosen = None;
                for off in 0..shape.n {
                    let j = (seed as usize + off) % shape.n + 1;
                    let col = self.column_members(view, j);
                    if !col.is_empty() && col.is_subset_of(alive) {
                        chosen = Some((j, col));
                        break;
                    }
                }
                let (j, col) = chosen?;
                quorum = quorum.union(col);
                Some(j)
            }
        };

        // One representative from each column, rotated by seed within the
        // column so different coordinators hit different rows.
        for j in 1..=shape.n {
            if full_column == Some(j) {
                continue; // already fully covered
            }
            let col = self.column_members(view, j);
            let members = col.to_vec();
            if members.is_empty() {
                // A column with no physical nodes cannot exist: b < n keeps
                // every column at height >= m-1 >= 1 whenever m >= 2, and for
                // m == 1, b == 0. Defensive regardless.
                return None;
            }
            let alive_members: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|n| alive.contains(*n))
                .collect();
            if alive_members.is_empty() {
                return None;
            }
            let pick = alive_members[(seed as usize).wrapping_add(j) % alive_members.len()];
            quorum.insert(pick);
        }
        debug_assert!(self.includes_quorum(view, quorum, kind));
        Some(quorum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> NodeSet {
        NodeSet::from_iter(v.iter().map(|&x| NodeId(x)))
    }

    #[test]
    fn define_grid_matches_paper_examples() {
        // Figure 1: N = 14 is a 4x4 grid with 2 unoccupied positions.
        assert_eq!(GridShape::define(14), GridShape { m: 4, n: 4, b: 2 });
        // Figure 2: N = 3 yields a 2x2 grid with one hole.
        assert_eq!(GridShape::define(3), GridShape { m: 2, n: 2, b: 1 });
        // Perfect squares.
        assert_eq!(GridShape::define(9), GridShape { m: 3, n: 3, b: 0 });
        assert_eq!(GridShape::define(16), GridShape { m: 4, n: 4, b: 0 });
        // n x (n+1) preference: N = 12 gives 3x4 (rows x cols).
        assert_eq!(GridShape::define(12), GridShape { m: 3, n: 4, b: 0 });
        assert_eq!(GridShape::define(20), GridShape { m: 4, n: 5, b: 0 });
        assert_eq!(GridShape::define(30), GridShape { m: 5, n: 6, b: 0 });
        assert_eq!(GridShape::define(1), GridShape { m: 1, n: 1, b: 0 });
        assert_eq!(GridShape::define(2), GridShape { m: 1, n: 2, b: 0 });
    }

    #[test]
    fn define_grid_invariants_hold_widely() {
        for n_nodes in 1..=2000 {
            let g = GridShape::define(n_nodes);
            assert!(g.m * g.n >= n_nodes);
            assert_eq!(g.b, g.m * g.n - n_nodes);
            assert!(g.b < g.n, "b < n violated at N={n_nodes}: {g:?}");
            assert!(g.m.abs_diff(g.n) <= 1, "dims differ by >1 at N={n_nodes}");
            assert_eq!(g.occupied(), n_nodes);
        }
    }

    #[test]
    fn positions_round_trip() {
        for n_nodes in 1..=100 {
            let g = GridShape::define(n_nodes);
            for k in 1..=n_nodes {
                let (i, j) = g.position(k);
                assert_eq!(g.ordered_number_at(i, j), Some(k));
                assert!(i <= g.column_height(j), "node {k} beyond physical column");
            }
        }
    }

    #[test]
    fn unoccupied_positions_are_bottom_right() {
        let g = GridShape::define(14); // 4x4, b=2
        assert_eq!(g.ordered_number_at(4, 3), None);
        assert_eq!(g.ordered_number_at(4, 4), None);
        assert_eq!(g.ordered_number_at(4, 2), Some(14));
        assert_eq!(g.column_height(1), 4);
        assert_eq!(g.column_height(2), 4);
        assert_eq!(g.column_height(3), 3);
        assert_eq!(g.column_height(4), 3);
    }

    #[test]
    fn paper_figure1_write_quorum_example() {
        // §5: for N = 14, {1, 6, 3, 7, 11, 4} is a write quorum; the paper
        // labels nodes 1..14, our ids are 0-based so subtract one.
        let view = View::first_n(14);
        let rule = GridCoterie::new();
        let q = ids(&[0, 5, 2, 6, 10, 3]);
        assert!(rule.is_write_quorum(&view, q));
        assert!(rule.is_read_quorum(&view, q));
        // {3, 7, 11} (0-based {2, 6, 10}) covers the physical part of column
        // 3 but is not a read quorum on its own.
        let col = ids(&[2, 6, 10]);
        assert!(!rule.is_read_quorum(&view, col));
        assert!(!rule.is_write_quorum(&view, col));
    }

    #[test]
    fn read_quorum_requires_all_columns() {
        let view = View::first_n(9); // 3x3
        let rule = GridCoterie::new();
        assert!(rule.is_read_quorum(&view, ids(&[0, 1, 2])));
        assert!(rule.is_read_quorum(&view, ids(&[0, 4, 8])));
        assert!(!rule.is_read_quorum(&view, ids(&[0, 3, 6]))); // one column only
        assert!(!rule.is_read_quorum(&view, ids(&[0, 1]))); // column 3 uncovered
    }

    #[test]
    fn write_quorum_requires_full_column() {
        let view = View::first_n(9); // 3x3, columns {0,3,6},{1,4,7},{2,5,8}
        let rule = GridCoterie::new();
        assert!(!rule.is_write_quorum(&view, ids(&[0, 1, 2])));
        assert!(rule.is_write_quorum(&view, ids(&[0, 3, 6, 1, 2])));
        assert!(rule.is_write_quorum(&view, ids(&[1, 4, 7, 0, 8])));
        // Full column but missing a representative elsewhere.
        assert!(!rule.is_write_quorum(&view, ids(&[0, 3, 6, 1])));
    }

    #[test]
    fn short_column_counts_as_full_when_physically_covered() {
        // N = 3: 2x2 grid, hole at (2,2). Column 2 physically holds only
        // node 2 (0-based 1), so {node0?, ...}. Per the optimized rule,
        // {0,1} covers both columns and column 2 is physically full.
        let view = View::first_n(3);
        let rule = GridCoterie::new();
        assert!(rule.is_write_quorum(&view, ids(&[0, 1])));
        assert!(rule.is_write_quorum(&view, ids(&[1, 2])));
        // {0,2} is all of column 1 but leaves column 2 uncovered.
        assert!(!rule.is_write_quorum(&view, ids(&[0, 2])));
        assert!(!rule.is_read_quorum(&view, ids(&[0, 2])));
    }

    #[test]
    fn quorum_ignores_nodes_outside_view() {
        let view = View::new([NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        let rule = GridCoterie::new();
        let with_stranger = ids(&[0, 1, 99]);
        let without = ids(&[0, 1]);
        assert_eq!(
            rule.is_write_quorum(&view, with_stranger),
            rule.is_write_quorum(&view, without)
        );
    }

    #[test]
    fn grid_over_non_contiguous_names() {
        // The dynamic protocol re-derives the grid over epoch survivors with
        // arbitrary names.
        let view = View::new([NodeId(5), NodeId(9), NodeId(17), NodeId(40)]); // 2x2
        let rule = GridCoterie::new();
        // Columns: {5, 17} and {9, 40}.
        assert_eq!(rule.column_members(&view, 1), ids(&[5, 17]));
        assert_eq!(rule.column_members(&view, 2), ids(&[9, 40]));
        assert!(rule.is_write_quorum(&view, ids(&[5, 17, 9])));
        assert!(!rule.is_write_quorum(&view, ids(&[5, 9])));
        assert!(rule.is_read_quorum(&view, ids(&[5, 9])));
    }

    #[test]
    fn pick_quorum_returns_valid_quorums() {
        let rule = GridCoterie::new();
        for n in 1..=30 {
            let view = View::first_n(n);
            for seed in 0..8 {
                let rq = rule
                    .pick_quorum(&view, view.set(), seed, QuorumKind::Read)
                    .unwrap();
                assert!(rule.is_read_quorum(&view, rq), "N={n} seed={seed}");
                let wq = rule
                    .pick_quorum(&view, view.set(), seed, QuorumKind::Write)
                    .unwrap();
                assert!(rule.is_write_quorum(&view, wq), "N={n} seed={seed}");
            }
        }
    }

    #[test]
    fn pick_quorum_respects_preferences() {
        let rule = GridCoterie::new();
        let view = View::first_n(9);
        // Node 4 down: quorums avoid it.
        let mut alive = view.set();
        alive.remove(NodeId(4));
        let q = rule
            .pick_quorum(&view, alive, 3, QuorumKind::Write)
            .unwrap();
        assert!(!q.contains(NodeId(4)));
        // A whole column down: no write quorum.
        let mut dead_col = view.set();
        dead_col.remove(NodeId(1));
        dead_col.remove(NodeId(4));
        dead_col.remove(NodeId(7));
        assert!(rule
            .pick_quorum(&view, dead_col, 0, QuorumKind::Read)
            .is_none());
    }

    #[test]
    fn pick_quorum_spreads_load() {
        let rule = GridCoterie::new();
        let view = View::first_n(16);
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..16 {
            distinct.insert(
                rule.pick_quorum(&view, view.set(), seed, QuorumKind::Read)
                    .unwrap(),
            );
        }
        assert!(distinct.len() > 1, "quorum function should vary with seed");
    }

    #[test]
    fn quorum_size_formulas() {
        // Square grids: read = sqrt(N), write = 2 sqrt(N) - 1 (§1).
        for root in 2..=10usize {
            let n_nodes = root * root;
            let g = GridShape::define(n_nodes);
            assert_eq!(g.read_quorum_size(), root);
            assert_eq!(g.write_quorum_size(), 2 * root - 1);
        }
    }

    #[test]
    fn tall_orientation_avoids_singleton_columns() {
        for n_nodes in 4..=200 {
            let g = GridShape::define_tall(n_nodes);
            assert!(g.m * g.n >= n_nodes);
            assert_eq!(g.occupied(), n_nodes);
            assert!(g.m >= g.n, "tall means rows >= columns: {g:?}");
            for j in 1..=g.n {
                assert!(
                    g.column_height(j) >= 2,
                    "N={n_nodes}: column {j} of {g:?} has a singleton"
                );
            }
        }
        // The N = 5 defect of the published rule, fixed.
        assert_eq!(GridShape::define_tall(5), GridShape { m: 3, n: 2, b: 1 });
        // N = 3 degenerates to a single column: all three nodes in every
        // quorum — exactly the paper's Figure 2 narrative.
        assert_eq!(GridShape::define_tall(3), GridShape { m: 3, n: 1, b: 0 });
    }

    #[test]
    fn tall_rule_tolerates_single_failures_from_four_nodes() {
        let rule = GridCoterie::tall();
        for n in 4..=30usize {
            let view = View::first_n(n);
            for &victim in view.members() {
                let mut survivors = view.set();
                survivors.remove(victim);
                assert!(
                    rule.is_write_quorum(&view, survivors),
                    "tall grid of {n} must survive any single failure (victim {victim:?})"
                );
            }
        }
        // And quorum selection works.
        for n in [4usize, 5, 9, 14] {
            let view = View::first_n(n);
            let q = rule
                .pick_quorum(&view, view.set(), 3, QuorumKind::Write)
                .unwrap();
            assert!(rule.is_write_quorum(&view, q));
        }
    }

    #[test]
    fn render_shows_holes() {
        let rule = GridCoterie::new();
        let art = rule.render(&View::first_n(14));
        assert!(art.contains('-'));
        assert!(art.contains("4 rows x 4 columns"));
    }
}
