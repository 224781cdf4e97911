//! Nemesis soak: long randomized crash / partition / storage-fault
//! schedules over grid and majority clusters, asserting zero epoch-safety,
//! coherence, or one-copy-serializability violations after every recovery
//! and at the end of every schedule.
//!
//! Usage: `nemesis [runs_per_rule] [base_seed] [steps] [rule]`
//!
//! `rule` restricts the sweep to one coterie family (`grid` or
//! `majority`); omitted, both are soaked.
//!
//! Exits non-zero if any run found a violation. Dirty runs dump their
//! flight recorder (the causally merged last-N trace records per node) to
//! `target/nemesis-seed{seed}-{cell}-trace.jsonl` plus a human-readable
//! `.txt` timeline.

use std::path::Path;
use std::sync::Arc;

use coterie_harness::nemesis::{soak, NemesisConfig, NemesisReport};
use coterie_harness::recorder::write_dump;
use coterie_quorum::{CoterieRule, GridCoterie, MajorityCoterie};

fn main() {
    let mut args = std::env::args().skip(1);
    let runs: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(25);
    let base_seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0x5EED);
    let steps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(3_000);
    let only_rule = args.next();

    let setups: [(&str, Arc<dyn CoterieRule>, usize); 2] = [
        ("grid", Arc::new(GridCoterie::new()), 4),
        ("majority", Arc::new(MajorityCoterie::new()), 5),
    ];

    // The plain write path, then batching with pipelined 2PC (the
    // default), so a dirty seed names its path.
    let variants: [(&str, usize); 2] = [("", 1), ("+batch", 4)];

    let mut failed = false;
    let mut schedules = 0u64;
    for (name, rule, n_nodes) in setups {
        if only_rule.as_deref().is_some_and(|r| r != name) {
            continue;
        }
        for (suffix, write_batch) in variants {
            let cfg = NemesisConfig {
                n_nodes,
                steps,
                write_batch,
                ..Default::default()
            };
            let cell = format!("{name}{suffix}");
            let report = soak(rule.clone(), base_seed, runs, &cfg);
            print_report(&cell, n_nodes, runs, &report);
            schedules += runs;
            if !report.clean() {
                failed = true;
                for run in &report.dirty {
                    eprintln!("== {cell} seed {} ==", run.seed);
                    for v in &run.violations {
                        eprintln!("  {v}");
                    }
                    if let Some(dump) = &run.trace {
                        let prefix = format!("target/nemesis-seed{}-{cell}-trace", run.seed);
                        match write_dump(dump, Path::new(&prefix)) {
                            Ok((jsonl, txt)) => eprintln!(
                                "  flight recorder ({} records, {} evicted): {} / {}",
                                dump.records,
                                dump.dropped,
                                jsonl.display(),
                                txt.display()
                            ),
                            Err(e) => eprintln!("  flight recorder dump failed: {e}"),
                        }
                    }
                }
            }
        }
    }
    if failed {
        eprintln!("nemesis: VIOLATIONS FOUND");
        std::process::exit(1);
    }
    println!("nemesis: all {schedules} schedules clean");
}

fn print_report(name: &str, n_nodes: usize, runs: u64, r: &NemesisReport) {
    println!(
        "{name} ({n_nodes} nodes, {runs} seeds): \
         {} crashes, {} recoveries ({} torn tails, {} quarantined), \
         {} storage faults fired, {} rejoins, \
         {} writes + {} reads checked, {} dirty runs",
        r.crashes,
        r.recoveries,
        r.torn_tails,
        r.quarantines,
        r.faults_fired,
        r.rejoined,
        r.writes_committed,
        r.reads_checked,
        r.dirty.len()
    );
}
