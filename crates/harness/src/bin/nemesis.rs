//! Nemesis soak: long randomized crash / partition / storage-fault
//! schedules over the sweep columns below, asserting zero epoch-safety,
//! coherence, or one-copy-serializability violations after every recovery
//! and at the end of every schedule.
//!
//! Usage: `nemesis [runs] [first_seed] [steps] [column]`
//!
//! With no arguments, every column of [`COLUMNS`] runs its own seeds
//! (`0..seeds`) at 3 000 steps: the full sweep, which
//! `scripts/nemesis_ratchet.sh` gates. `runs` replaces every column's seed
//! count, `first_seed` (default 0) and `steps` set the rest, and `column`
//! restricts the sweep to one column, so `nemesis 1 266 3000 majority`
//! re-runs one schedule.
//!
//! Exits 1 if any run found a violation and 2 on an unknown column. A
//! dirty run writes its complete trace up to its first violation, every
//! node's records causally merged, one JSON object a line, to
//! `target/nemesis-seed{seed}-{column}-trace.jsonl`.

use std::sync::Arc;

use coterie_harness::nemesis::{soak, NemesisConfig, NemesisRun};
use coterie_quorum::{CoterieRule, GridCoterie, MajorityCoterie};

/// The sweep, one column a row: name, coterie rule, nodes, client
/// operations per schedule, and seeds (`0..seeds`). The 4-node grid stays
/// so its seeds remain comparable; the paper's grid has 9 nodes; a
/// `-heavy` column injects enough client operations for the 1SR oracle to
/// see writes in flight together (1 000 seeds on 4 and 5 nodes: ROADMAP 1(b)).
type Rule = fn() -> Arc<dyn CoterieRule>;
type Column = (&'static str, Rule, usize, usize, u64);
const GRID: Rule = || Arc::new(GridCoterie::new());
const MAJORITY: Rule = || Arc::new(MajorityCoterie::new());
const COLUMNS: [Column; 6] = [
    ("grid", GRID, 4, 30, 400),
    ("majority", MAJORITY, 5, 30, 1_200),
    ("grid9", GRID, 9, 30, 400),
    ("grid-heavy", GRID, 4, 300, 1_000),
    ("grid9-heavy", GRID, 9, 300, 400),
    ("majority-heavy", MAJORITY, 5, 300, 1_000),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let runs: Option<u64> = args.next().and_then(|s| s.parse().ok());
    let first_seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    let steps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(3_000);
    let only = args.next();
    if only
        .as_deref()
        .is_some_and(|n| COLUMNS.iter().all(|c| c.0 != n))
    {
        eprintln!("nemesis: no column {only:?}");
        std::process::exit(2);
    }

    let mut failed = false;
    let mut schedules = 0u64;
    for (name, rule, n_nodes, client_ops, seeds) in COLUMNS {
        if only.as_deref().is_some_and(|n| n != name) {
            continue;
        }
        let runs = runs.unwrap_or(seeds);
        let cfg = NemesisConfig {
            n_nodes,
            steps,
            client_ops,
        };
        let report = soak(rule(), first_seed, runs, &cfg);
        print_report(name, n_nodes, &report);
        schedules += runs;
        for run in report.iter().filter(|r| !r.clean()) {
            failed = true;
            let kinds: std::collections::BTreeSet<_> = run.violations.iter().map(|v| v.0).collect();
            let signature = Vec::from_iter(kinds).join("+");
            eprintln!("== {name} seed {}: {signature} ==", run.seed);
            for (_, v) in &run.violations {
                eprintln!("  {v}");
            }
            if let Some(trace) = &run.trace {
                let path = format!("target/nemesis-seed{}-{name}-trace.jsonl", run.seed);
                let written =
                    std::fs::create_dir_all("target").and_then(|()| std::fs::write(&path, trace));
                match written {
                    Ok(()) => eprintln!("  trace ({} records): {path}", trace.lines().count()),
                    Err(e) => eprintln!("  trace dump failed: {e}"),
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

fn print_report(name: &str, n_nodes: usize, runs: &[NemesisRun]) {
    let sum = |count: fn(&NemesisRun) -> usize| runs.iter().map(count).sum::<usize>();
    println!(
        "{name} ({n_nodes} nodes, {} seeds): \
         {} crashes, {} recoveries ({} torn tails, {} quarantined), \
         {} storage faults fired, {} rejoins, \
         {} writes + {} reads checked, {} slots in doubt, {} dirty runs",
        runs.len(),
        sum(|r| r.crashes),
        sum(|r| r.recoveries),
        sum(|r| r.torn_tails),
        sum(|r| r.quarantines),
        sum(|r| r.faults_fired),
        sum(|r| r.rejoined),
        sum(|r| r.check.writes_committed),
        sum(|r| r.check.reads_checked),
        sum(|r| r.in_doubt),
        runs.iter().filter(|r| !r.clean()).count()
    );
}
