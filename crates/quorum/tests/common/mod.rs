//! The rules both property suites check, kept in one list so that a rule
//! cannot be covered by one suite and missing from the other.

use coterie_quorum::{CoterieRule, GridCoterie, MajorityCoterie, RowaCoterie, TreeCoterie};

/// Every shipped coterie rule: grid, tall grid, majority, tree and ROWA.
pub fn rules() -> Vec<Box<dyn CoterieRule>> {
    vec![
        Box::new(GridCoterie::new()),
        Box::new(GridCoterie::tall()),
        Box::new(MajorityCoterie::new()),
        Box::new(TreeCoterie::new()),
        Box::new(RowaCoterie::new()),
    ]
}
