//! Every experiment of EXPERIMENTS.md (E1-E13) behind one entry point.
//!
//! Usage: `experiments <name> [args...]` runs one experiment with its
//! positional arguments (each defaults when absent; the table below lists
//! them). `experiments all [--quick]` runs every experiment in order;
//! `--quick` shortens the Monte-Carlo and protocol runs.

use std::process::ExitCode;

use coterie_harness::experiments::*;

/// One experiment: its name, its positional arguments, the arguments
/// `all` passes it (full, then `--quick`), and how it renders.
struct Experiment {
    name: &'static str,
    usage: &'static str,
    all: [&'static [&'static str]; 2],
    run: fn(&Args) -> String,
}

/// The positional arguments after the experiment's name.
struct Args<'a>(&'a [String]);

impl Args<'_> {
    /// Argument `i`, or `default` when absent or unparsable.
    fn get<T: std::str::FromStr>(&self, i: usize, default: T) -> T {
        self.0
            .get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }
}

static EXPERIMENTS: [Experiment; 11] = [
    Experiment {
        name: "table1",
        usage: "[p]",
        all: [&[], &[]],
        run: |a| table1::render(a.get(0, 0.95)),
    },
    Experiment {
        name: "figures",
        usage: "[1|2|3] [n]",
        all: [&[], &[]],
        run: |a| match a.0.first().map(String::as_str) {
            Some("1") => figures::figure1(),
            Some("2") => figures::figure2(),
            Some("3") => figures::figure3(a.get(1, 9)),
            _ => format!(
                "{}\n{}\n{}\n",
                figures::figure1(),
                figures::figure2(),
                figures::figure3(a.get(1, 9))
            ),
        },
    },
    Experiment {
        name: "site_sim",
        usage: "[horizon] [replications] [seed]",
        all: [&["20000", "8"], &["4000", "4"]],
        run: |a| site_sim::render(a.get(0, 30_000.0), a.get(1, 8), a.get(2, 7)),
    },
    Experiment {
        name: "quorum_sizes",
        usage: "",
        all: [&[], &[]],
        run: |_| quorum_sizes::render(&quorum_sizes::DEFAULT_NS),
    },
    Experiment {
        name: "load_sharing",
        usage: "[n] [duration_secs] [seed]",
        all: [&[], &["9", "10"]],
        run: |a| load_sharing::render(a.get(0, 9), a.get(1, 30), a.get(2, 21)),
    },
    Experiment {
        name: "partial_writes",
        usage: "[n] [duration_secs] [seed]",
        all: [&[], &["9", "15"]],
        run: |a| {
            let run = |c| partial_writes::render(a.get(0, 9), a.get(1, 30), a.get(2, 31), c);
            format!("{}\n{}\n", run(false), run(true))
        },
    },
    Experiment {
        name: "epoch_rate",
        usage: "[n] [p] [horizon] [replications]",
        all: [&["9", "0.9", "20000", "8"], &["9", "0.9", "4000", "4"]],
        run: |a| epoch_rate::render(a.get(0, 9), a.get(1, 0.9), a.get(2, 2e4), a.get(3, 6), 17),
    },
    Experiment {
        name: "exact_availability",
        usage: "[p] [horizon] [replications]",
        all: [&["0.9", "20000", "8"], &["0.9", "4000", "4"]],
        run: |a| exact_availability::render(a.get(0, 0.9), a.get(1, 20_000.0), a.get(2, 6), 23),
    },
    Experiment {
        name: "dyn_compare",
        usage: "",
        all: [&[], &[]],
        run: |_| dyn_compare::render(&dyn_compare::DEFAULT_NS, &dyn_compare::DEFAULT_PS),
    },
    Experiment {
        name: "read_availability",
        usage: "[p]",
        all: [&[], &[]],
        run: |a| read_availability::render(&[3, 4, 5, 6, 9, 12, 16, 20], a.get(0, 0.95)),
    },
    Experiment {
        name: "safety_ablation",
        usage: "[n] [duration_secs] [seed]",
        all: [&[], &["9", "20"]],
        run: |a| safety_ablation::render(a.get(0, 9), a.get(1, 40), a.get(2, 41)),
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    if name == "all" {
        let quick = usize::from(args.iter().any(|a| a == "--quick"));
        for e in &EXPERIMENTS {
            let all: Vec<String> = e.all[quick].iter().map(|s| s.to_string()).collect();
            println!("{}", (e.run)(&Args(&all)));
        }
        return ExitCode::SUCCESS;
    }
    if let Some(e) = EXPERIMENTS.iter().find(|e| e.name == name) {
        print!("{}", (e.run)(&Args(&args[1..])));
        return ExitCode::SUCCESS;
    }
    eprintln!("usage: experiments <name> [args...] | all [--quick]");
    for e in &EXPERIMENTS {
        eprintln!("  {} {}", e.name, e.usage);
    }
    ExitCode::from(2)
}
