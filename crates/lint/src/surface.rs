//! P1 — protocol-surface exhaustiveness.
//!
//! The sans-I/O contract is only as strong as the *surface* it is stated
//! over: every `Input`, `Effect`, `Msg`, `MsgClass`, and `Timer` variant
//! must be constructed by live protocol code, matched where the protocol
//! dispatches on it, and consumed by every host that replays effects. A
//! variant nobody constructs is dead protocol; a variant a host silently
//! drops (via a wildcard `_` arm or a missing arm) is the bug class PR 6
//! had to hand-audit. This pass builds the handling matrix and makes that
//! audit mechanical.
//!
//! Per-file, the pass extracts:
//!   * tracked-enum *definitions* (from the registry's defining files),
//!   * `match` expressions classified as "over a tracked enum" (any arm
//!     pattern names `E::Variant`), with the variant set they cover,
//!   * every other `E::Variant` occurrence, split by pattern position into
//!     *pattern references* and *constructions*.
//!
//! The workspace pass then checks, for each registry entry found in the
//! tree: no dead variants, no never-matched variants, and full coverage in
//! each designated consumer file. Wildcard `_` arms inside tracked matches
//! are reported at extraction time (they are per-file findings and honor
//! `// lint:allow(surface): reason` like any other rule).

use crate::lexer::{TokKind, Token};
use crate::parse::Parsed;

/// One `E::Variant` occurrence.
#[derive(Clone, Debug)]
pub struct VariantRef {
    /// Enum name.
    pub enum_name: String,
    /// Variant name.
    pub variant: String,
}

/// A `match` classified as dispatching over a tracked enum.
#[derive(Clone, Debug)]
pub struct TrackedMatch {
    /// The tracked enum the arms dispatch over.
    pub enum_name: String,
    /// Line of the `match` keyword.
    pub line: u32,
    /// Column of the `match` keyword.
    pub col: u32,
    /// Variant names covered by the arm patterns.
    pub covered: Vec<String>,
}

/// Everything the surface pass extracts from one file.
#[derive(Clone, Debug, Default)]
pub struct FileSurface {
    /// Tracked-enum definitions (name, variant list with positions).
    pub enums: Vec<crate::parse::EnumDef>,
    /// Matches over tracked enums.
    pub matches: Vec<TrackedMatch>,
    /// Tracked `E::V` occurrences in expression position (constructions).
    pub constructions: Vec<VariantRef>,
    /// Tracked `E::V` occurrences in pattern position.
    pub pattern_refs: Vec<VariantRef>,
}

/// One tracked enum: where it is defined and who must handle it.
struct Tracked {
    name: &'static str,
    def_file: &'static str,
    /// Every variant must appear in some match/let pattern somewhere.
    require_match: bool,
    /// Files that must each contain a match covering *all* variants.
    consumers: &'static [&'static str],
}

/// The protocol surface. `Input`/`Effect` are the engine's host contract
/// (engine/io.rs), `Msg`/`MsgClass` the wire vocabulary (msg.rs), `Timer`
/// the scheduled-work vocabulary (node.rs), `TraceEvent` the observability
/// vocabulary (engine/trace.rs). Consumers: the engine step dispatcher
/// must handle every input, message, and timer; the effect interpreter
/// (engine/interp.rs — the only matcher of `Effect::Persist` that
/// journals) and the journal-less simnet adapter in host.rs must consume
/// every effect. The interpreter hands the four substrate effects to its
/// hosts through the `Substrate` trait, so `StepDriver` and
/// `JournaledNode` are held to them by the compiler rather than by this
/// matrix; `msg.rs` must classify every message; `TraceEvent::kind`
/// in trace.rs must tag every trace event (so adding a variant without a
/// rendering is a finding, and a variant no live protocol code emits is
/// dead). The simnet hosts drive these same consumer files, so they are
/// covered transitively.
const REGISTRY: &[Tracked] = &[
    Tracked {
        name: "Input",
        def_file: "crates/core/src/engine/io.rs",
        require_match: true,
        consumers: &["crates/core/src/engine/step.rs"],
    },
    Tracked {
        name: "Effect",
        def_file: "crates/core/src/engine/io.rs",
        require_match: true,
        consumers: &[
            "crates/core/src/engine/interp.rs",
            "crates/core/src/host.rs",
        ],
    },
    Tracked {
        name: "Msg",
        def_file: "crates/core/src/msg.rs",
        require_match: true,
        consumers: &["crates/core/src/engine/step.rs", "crates/core/src/msg.rs"],
    },
    Tracked {
        name: "MsgClass",
        def_file: "crates/core/src/msg.rs",
        require_match: false,
        consumers: &[],
    },
    Tracked {
        name: "Timer",
        def_file: "crates/core/src/node.rs",
        require_match: true,
        consumers: &["crates/core/src/engine/step.rs"],
    },
    Tracked {
        name: "TraceEvent",
        def_file: "crates/core/src/engine/trace.rs",
        require_match: true,
        consumers: &["crates/core/src/engine/trace.rs"],
    },
];

fn tracked_names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|t| t.name)
}

/// Raw finding tuple: (rule, message, line, col).
pub(crate) type Raw = (String, String, u32, u32);

/// Extracts the file's surface data and reports wildcard arms in tracked
/// matches. `live` masks out test-gated tokens (but — unlike the rules
/// mask — keeps `simnet-host`-gated code live: the threaded host adapter
/// is exactly the consumer this pass polices).
pub(crate) fn extract(
    rel: &str,
    toks: &[Token],
    skipped: &[bool],
    parsed: &Parsed,
) -> (FileSurface, Vec<Raw>) {
    let mut fs = FileSurface::default();
    let mut raw = Vec::new();

    // Definitions, from the registry's defining files only.
    for e in &parsed.enums {
        if skipped.get(e.tok).copied().unwrap_or(false) {
            continue;
        }
        let defines_here = REGISTRY
            .iter()
            .any(|t| t.name == e.name && t.def_file == rel);
        if defines_here {
            fs.enums.push(e.clone());
        }
    }

    // Variant references: `E :: V` with `E` tracked and `V` CamelCase.
    for (i, t) in toks.iter().enumerate() {
        if skipped[i] || t.kind != TokKind::Ident {
            continue;
        }
        if !tracked_names().any(|n| t.text == n) {
            continue;
        }
        // Skip path-qualified `foo::Effect::V`? No: the *variant* pair is
        // what matters, and `t` is the enum segment either way.
        let Some(v) = variant_after(toks, i) else {
            continue;
        };
        let r = VariantRef {
            enum_name: t.text.clone(),
            variant: v,
        };
        if parsed.pattern_mask.get(i).copied().unwrap_or(false) {
            fs.pattern_refs.push(r);
        } else {
            fs.constructions.push(r);
        }
    }

    // Matches over tracked enums + wildcard-arm findings.
    for m in &parsed.matches {
        if skipped.get(m.tok).copied().unwrap_or(false) {
            continue;
        }
        // Which tracked enum do the arm patterns name?
        let mut enum_name: Option<String> = None;
        let mut covered = Vec::new();
        let mut wildcards = Vec::new();
        for arm in &m.arms {
            if arm.wildcard {
                wildcards.push((arm.line, arm.col));
                continue;
            }
            for j in arm.pat.0..arm.pat.1 {
                let t = &toks[j];
                if t.kind != TokKind::Ident || !tracked_names().any(|n| t.text == n) {
                    continue;
                }
                let Some(v) = variant_after(toks, j) else {
                    continue;
                };
                match &enum_name {
                    None => enum_name = Some(t.text.clone()),
                    Some(e) if *e != t.text => continue, // mixed: keep first
                    _ => {}
                }
                if enum_name.as_deref() == Some(t.text.as_str()) && !covered.contains(&v) {
                    covered.push(v);
                }
            }
        }
        let Some(enum_name) = enum_name else {
            continue; // not a tracked match
        };
        for (line, col) in wildcards {
            raw.push((
                "surface".into(),
                format!(
                    "wildcard `_` arm in a `match` over protocol enum \
                     `{enum_name}`; a variant added later would be silently \
                     swallowed here — enumerate the remaining variants \
                     explicitly"
                ),
                line,
                col,
            ));
        }
        fs.matches.push(TrackedMatch {
            enum_name,
            line: m.line,
            col: m.col,
            covered,
        });
    }

    (fs, raw)
}

/// If `toks[i]` is followed by `::V` with `V` starting uppercase, returns
/// `V` (a variant or associated-item name; lowercase rules out method
/// paths like `Msg::class`).
fn variant_after(toks: &[Token], i: usize) -> Option<String> {
    if !toks.get(i + 1)?.is_punct(':') || !toks.get(i + 2)?.is_punct(':') {
        return None;
    }
    let v = toks.get(i + 3)?;
    if v.kind == TokKind::Ident
        && v.text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
    {
        return Some(v.text.clone());
    }
    None
}

/// The workspace pass: given every policed file's surface data (keyed by
/// workspace-relative path), returns findings as (file index, raw finding).
/// Registry entries whose defining file or enum is absent from the tree
/// are skipped, so the pass degrades gracefully on partial workspaces
/// (e.g. fixture mini-trees).
pub(crate) fn check_workspace(files: &[(String, &FileSurface)]) -> Vec<(usize, Raw)> {
    let mut out = Vec::new();
    for tracked in REGISTRY {
        let Some(def_idx) = files.iter().position(|(rel, _)| rel == tracked.def_file) else {
            continue;
        };
        let Some(def) = files[def_idx]
            .1
            .enums
            .iter()
            .find(|e| e.name == tracked.name)
        else {
            continue;
        };

        for v in &def.variants {
            let constructed = files.iter().any(|(_, fs)| {
                fs.constructions
                    .iter()
                    .any(|r| r.enum_name == tracked.name && r.variant == v.name)
            });
            if !constructed {
                out.push((
                    def_idx,
                    (
                        "surface".into(),
                        format!(
                            "dead protocol variant: `{}::{}` is never \
                             constructed by live protocol code",
                            tracked.name, v.name
                        ),
                        v.line,
                        v.col,
                    ),
                ));
            }
            if tracked.require_match {
                let matched = files.iter().any(|(_, fs)| {
                    fs.pattern_refs
                        .iter()
                        .any(|r| r.enum_name == tracked.name && r.variant == v.name)
                });
                if !matched {
                    out.push((
                        def_idx,
                        (
                            "surface".into(),
                            format!(
                                "`{}::{}` never appears in a match or let \
                                 pattern: no protocol path dispatches on it",
                                tracked.name, v.name
                            ),
                            v.line,
                            v.col,
                        ),
                    ));
                }
            }
        }

        for consumer in tracked.consumers {
            let Some(cons_idx) = files.iter().position(|(rel, _)| rel == *consumer) else {
                continue; // partial workspace
            };
            let fs = files[cons_idx].1;
            let matches: Vec<&TrackedMatch> = fs
                .matches
                .iter()
                .filter(|m| m.enum_name == tracked.name)
                .collect();
            let Some(first) = matches.first() else {
                out.push((
                    cons_idx,
                    (
                        "surface".into(),
                        format!(
                            "this file is a designated consumer of `{}` but \
                             contains no match over it",
                            tracked.name
                        ),
                        1,
                        1,
                    ),
                ));
                continue;
            };
            let anchor = (first.line, first.col);
            for v in &def.variants {
                let covered = matches.iter().any(|m| m.covered.contains(&v.name));
                if !covered {
                    out.push((
                        cons_idx,
                        (
                            "surface".into(),
                            format!(
                                "`{}::{}` is not handled by any match arm in \
                                 this consumer of `{}`",
                                tracked.name, v.name, tracked.name
                            ),
                            anchor.0,
                            anchor.1,
                        ),
                    ));
                }
            }
        }
    }
    out
}
