//! Workspace walking and role assignment.
//!
//! The role model mirrors DESIGN.md §8: the *engine* (coterie-core's
//! protocol modules) carries the full determinism contract; *protocol
//! libraries* (quorum, base) are pure but may use scoped parallelism for
//! offline analysis; *host crates* (simnet) own real time and threads but
//! still answer for panic hygiene; *tools* (harness, markov, bench, the
//! lint itself, examples) are unconstrained.

use crate::rules::RoleSpec;
use std::path::{Path, PathBuf};

/// The engine boundary files inside coterie-core that are allowed to name
/// host-facing I/O (D2-exempt). `host.rs` is additionally exempt from the
/// determinism rules: it *is* the host adapter, gated behind `simnet-host`.
const IO_BOUNDARY: &[&str] = &["crates/core/src/engine/io.rs"];
const HOST_BOUNDARY: &[&str] = &["crates/core/src/host.rs"];

/// The codec boundary: parses adversarial bytes, so the P3 arithmetic
/// rules apply on top of the full engine contract.
const CODEC_BOUNDARY: &[&str] = &[
    "crates/core/src/engine/codec.rs",
    "crates/core/src/engine/storage.rs",
];

/// Assigns the rule set for a workspace-relative, `/`-separated path.
/// Returns [`RoleSpec::NONE`] for files the lint does not police.
pub fn role_for(rel: &str) -> RoleSpec {
    // Test trees and lint fixtures are never policed by the workspace
    // scan (fixtures are analyzed explicitly by the self-test harness).
    if rel.contains("/tests/") || rel.contains("/fixtures/") || rel.contains("/benches/") {
        return RoleSpec::NONE;
    }
    if HOST_BOUNDARY.contains(&rel) {
        // The host adapter performs effects for the engine: exempt from
        // determinism and effect rules, still accountable for panics, and
        // a designated Effect consumer for the surface matrix.
        return RoleSpec {
            panic: true,
            surface: true,
            ..RoleSpec::NONE
        };
    }
    if IO_BOUNDARY.contains(&rel) {
        // Declares the Input/Effect vocabulary: may *name* I/O types,
        // must still be deterministic, and anchors the surface registry.
        return RoleSpec {
            determinism: true,
            panic: true,
            surface: true,
            ..RoleSpec::NONE
        };
    }
    if CODEC_BOUNDARY.contains(&rel) {
        // Full engine contract plus checked arithmetic: these two files
        // parse adversarial bytes and must never panic on them.
        return RoleSpec {
            determinism: true,
            effects: true,
            panic: true,
            surface: true,
            lock: true,
            arith: true,
        };
    }
    if rel.starts_with("crates/core/src/") {
        return RoleSpec {
            determinism: true,
            effects: true,
            panic: true,
            surface: true,
            lock: true,
            arith: false,
        };
    }
    if rel.starts_with("crates/quorum/src/") || rel.starts_with("crates/base/src/") {
        // Pure protocol libraries: no real I/O, panic-accountable.
        // `std::thread::scope` for offline availability sweeps is
        // deliberate, so the D1 set does not apply here. They sit below
        // the protocol surface, so the P-rules do not apply either.
        return RoleSpec {
            effects: true,
            panic: true,
            ..RoleSpec::NONE
        };
    }
    if rel.starts_with("crates/simnet/src/") {
        // Host crate: owns clocks, threads, and sockets-if-it-wants-them;
        // panics in the substrate still take down experiments. Its effect
        // consumption is delegated to coterie-core's host.rs / interp.rs,
        // which the surface matrix polices directly.
        return RoleSpec {
            panic: true,
            ..RoleSpec::NONE
        };
    }
    // harness, markov, bench, lint, examples, src (CLI shell): tools.
    RoleSpec::NONE
}

/// Recursively collects every `*.rs` file under `root`, skipping
/// `target/`, `vendor/`, `.git/`, and hidden directories. The result is
/// sorted by relative path so runs are deterministic.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || name == "vendor" {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_gets_all_rules() {
        let r = role_for("crates/core/src/node.rs");
        assert!(r.determinism && r.effects && r.panic);
        assert!(r.surface && r.lock && !r.arith);
    }

    #[test]
    fn codec_boundary_adds_arithmetic_rules() {
        for rel in [
            "crates/core/src/engine/codec.rs",
            "crates/core/src/engine/storage.rs",
        ] {
            let r = role_for(rel);
            assert!(r.arith, "{rel} must carry arith");
            assert!(r.determinism && r.effects && r.panic && r.surface && r.lock);
        }
    }

    #[test]
    fn io_boundary_may_name_io_but_stays_deterministic() {
        let r = role_for("crates/core/src/engine/io.rs");
        assert!(r.determinism && !r.effects && r.panic && r.surface);
    }

    #[test]
    fn host_adapter_answers_for_panics_and_surface() {
        let r = role_for("crates/core/src/host.rs");
        assert_eq!(
            r,
            RoleSpec {
                panic: true,
                surface: true,
                ..RoleSpec::NONE
            }
        );
    }

    #[test]
    fn quorum_is_effects_and_panic_scoped() {
        let r = role_for("crates/quorum/src/availability.rs");
        assert!(!r.determinism && r.effects && r.panic);
    }

    #[test]
    fn tests_and_tools_are_unpoliced() {
        assert_eq!(role_for("crates/core/tests/threaded.rs"), RoleSpec::NONE);
        assert_eq!(
            role_for("crates/lint/tests/fixtures/d1_hash.rs"),
            RoleSpec::NONE
        );
        assert_eq!(role_for("crates/harness/src/explore.rs"), RoleSpec::NONE);
        assert_eq!(role_for("examples/repl.rs"), RoleSpec::NONE);
    }

    #[test]
    fn simnet_is_panic_only() {
        let r = role_for("crates/simnet/src/threaded.rs");
        assert_eq!(
            r,
            RoleSpec {
                panic: true,
                ..RoleSpec::NONE
            }
        );
    }
}
