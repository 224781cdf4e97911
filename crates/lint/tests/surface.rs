//! Workspace-level surface-matrix tests over checked-in mini-trees.
//!
//! `tests/fixtures/surface_bad/` plants one defect of each matrix kind
//! around two tracked enums — `Effect` with an extra `Ghost` variant (a
//! dead variant, a never-matched variant, a consumer missing an arm, and
//! a consumer with no match at all) and `TraceEvent` with an extra
//! `Phantom` variant (dead, never matched, and missing from its own
//! `kind` match — trace.rs is its own designated consumer).
//! `surface_clean/` is the same tree with the defects removed. The
//! registry degrades gracefully on these partial workspaces (absent enums
//! are skipped), so only `Effect` and `TraceEvent` rules fire.

use coterie_lint::run_workspace;
use std::path::{Path, PathBuf};

fn tree(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn surface_matrix_reports_exact_positions() {
    let outcome = run_workspace(&tree("surface_bad")).expect("scan mini-tree");
    let got: Vec<String> = outcome
        .findings
        .iter()
        .map(|f| format!("{}:{}:{}:{}", f.rule, f.file, f.line, f.col))
        .collect();
    let want = vec![
        // Consumer match misses `Ghost`: anchored at its first Effect match.
        "surface:crates/core/src/engine/interp.rs:7:5".to_string(),
        // `Ghost` is never constructed and never pattern-matched: both
        // anchored at the variant's definition.
        "surface:crates/core/src/engine/io.rs:6:5".to_string(),
        "surface:crates/core/src/engine/io.rs:6:5".to_string(),
        // `Phantom` is dead and never matched (anchored at its def), and
        // trace.rs's own `kind` match misses it (anchored at the match).
        "surface:crates/core/src/engine/trace.rs:6:5".to_string(),
        "surface:crates/core/src/engine/trace.rs:6:5".to_string(),
        "surface:crates/core/src/engine/trace.rs:15:9".to_string(),
        // Designated consumer with no match over `Effect` at all.
        "surface:crates/core/src/host.rs:1:1".to_string(),
    ];
    assert_eq!(got, want, "findings: {:#?}", outcome.findings);
}

#[test]
fn surface_matrix_clean_tree_is_clean() {
    let outcome = run_workspace(&tree("surface_clean")).expect("scan mini-tree");
    assert!(
        outcome.findings.is_empty(),
        "clean mini-tree fired: {:#?}",
        outcome.findings
    );
}
