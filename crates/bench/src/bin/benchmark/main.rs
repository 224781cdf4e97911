//! The repository's benchmark: five workloads, ten end-to-end metrics and
//! a per-layer traced pass, all on `ProtocolConfig::new(rule, n)
//! .rng_seed(seed)` — the defaults users get. See `README.md` next to
//! this file for the tables, the delay model and the contract with the
//! program (the full list of public functions called).
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! benchmark [--seed N] [--seconds S] [--runs K] [--trace] [--quick] [--out FILE]
//! benchmark --compare A.json B.json
//! ```
//!
//! The first form runs one workload and prints its result as the last
//! line of standard output; the second runs every workload in a child
//! process each (`--runs` times, with consecutive seeds) and prints every
//! metric with its unit and spread; the third compares two result files.

// The benchmark is a host: wall clocks are what it measures with, and its
// keyed bookkeeping (the checker's `HashMap<u64, IssuedOp>` input) never
// feeds engine effects — the same reasoning as `load.rs`.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

mod layers;
mod live;
mod report;
mod spans;
mod stats;
mod vhost;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use coterie_core::{FramedJournal, TraceRing};
use coterie_quorum::NodeId;

use report::{END_TO_END, PER_LAYER};
use stats::{median_f64, obj, sub_seed, Json, Values};
use workloads::{HostKind, SeedRun, Spec, N_NODES, REFERENCE_SECONDS, WORKLOADS};

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let mut argv = argv.by_ref().peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => args.out = Some(value("a file")?),
            "--quick" => args.seconds = 0.25,
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(args)
}

/// Where the benchmark writes: `<target dir>/benchmark/`, found from the
/// executable's own location (`<target dir>/<profile>/benchmark`, or
/// `<target dir>/<profile>/deps/benchmark-<hash>` under `cargo test`), so
/// it stays inside the checkout whatever the working directory is.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("target/release/benchmark"));
    let mut profile_dir = exe
        .parent()
        .unwrap_or(std::path::Path::new("target/release"));
    if profile_dir.file_name().is_some_and(|n| n == "deps") {
        profile_dir = profile_dir.parent().unwrap_or(profile_dir);
    }
    profile_dir
        .parent()
        .unwrap_or(profile_dir)
        .join("benchmark")
}

/// What one workload run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// End-to-end values (`--trace 0`) or per-layer values (`--trace 1`).
    values: Values,
    /// Cross-seed minimum and maximum of the end-to-end values.
    seed_min: Values,
    /// See `seed_min`.
    seed_max: Values,
    /// Reported but not bounded: what the inverted shares hide.
    extra: Values,
    /// Gate failures (empty = correct).
    violations: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// `rss_mb` is the process's peak resident set at the point the host
    /// reads it (see `run_virtual`, `run_live`).
    fn from_runs(runs: &[SeedRun], rss_mb: f64, median_rep: bool) -> Self {
        let (values, seed_min, seed_max) = report::end_to_end(runs, rss_mb, median_rep);
        let sum = |f: fn(&SeedRun) -> u64| runs.iter().map(f).sum::<u64>();
        let (attempted, committed) = (sum(|r| r.attempted), sum(|r| r.committed));
        let mut extra = Values::new();
        let issued = sum(|r| r.issued) as f64;
        extra.insert(
            "failed_share".into(),
            (sum(|r| r.failed) + sum(|r| r.open)) as f64 / issued.max(1.0),
        );
        extra.insert("unavail_ms".into(), sum(|r| r.unavail_us) as f64 / 1e3);
        extra.insert(
            "samples".into(),
            runs.iter()
                .map(|r| r.read_lat.len() + r.write_lat.len())
                .sum::<usize>() as f64,
        );
        Outcome {
            attempted,
            failed: attempted.saturating_sub(committed),
            values,
            seed_min,
            seed_max,
            extra,
            violations: runs.iter().flat_map(|r| r.violations.clone()).collect(),
        }
    }
}

/// `--trace 0` on a virtual workload: every seed, untraced. Memory is
/// read when the first cluster (whose sub-seed is fixed) has finished:
/// later ones reuse what the allocator kept, and how much it keeps varied
/// the peak of a whole run by ±40 %.
fn run_virtual(spec: &Spec, seed: u64, scale: f64) -> Outcome {
    let mut first_rss = None;
    let runs: Vec<SeedRun> = workloads::seeds_for(spec, seed)
        .into_iter()
        .enumerate()
        .map(|(j, s)| {
            let run = workloads::run_virtual_seed(spec, j as u64, s, scale, false).0;
            first_rss.get_or_insert_with(stats::peak_rss_mb);
            run
        })
        .collect();
    Outcome::from_runs(&runs, first_rss.unwrap_or(0.0), false)
}

/// Warm-up and measured operations of one live repetition at `scale`.
fn live_ops(spec: &Spec, scale: f64) -> (u64, u64) {
    let ops = ((spec.size as f64 * scale) as u64).max(200);
    (ops / 10, ops)
}

/// `--trace 0` on the live workload: `spec.seeds` repetitions of fixed
/// work on the memory journal. Each repetition's times are rescaled by the
/// thread hand-off time measured just before it (see `live::handoff_us`),
/// and each metric is the median repetition (see `report::end_to_end`).
fn run_live(spec: &Spec, seed: u64, scale: f64) -> Outcome {
    let (warm_ops, ops) = live_ops(spec, scale);
    let mut handoffs = Vec::new();
    let runs: Vec<SeedRun> = workloads::seeds_for(spec, seed)
        .into_iter()
        .map(|s| {
            let handoff_us = live::handoff_us();
            handoffs.push(handoff_us);
            let mut run = live::run_live_rep(spec, s, warm_ops, ops, false, None).run;
            run.rescale_time(live::REFERENCE_HANDOFF_US / handoff_us);
            run
        })
        .collect();
    // Thread stacks and allocator arenas make one short repetition's
    // footprint bimodal (9 or 11 MB); the whole run's peak is steadier.
    let mut outcome = Outcome::from_runs(&runs, stats::peak_rss_mb(), true);
    outcome
        .extra
        .insert("handoff_us".into(), median_f64(&handoffs));
    outcome
}

/// `trace.overhead_pct`: how much more CPU per committed operation the
/// traced run of a seed took than the untraced run of the same seed.
fn trace_overhead_pct(plain: &SeedRun, traced: &SeedRun) -> f64 {
    let cpu_us_per_op = |run: &SeedRun| {
        run.cpu_secs * 1e6 / (run.read_lat.len() + run.write_lat.len()).max(1) as f64
    };
    let base = cpu_us_per_op(plain);
    (cpu_us_per_op(traced) - base) / base.max(1e-9) * 100.0
}

fn write_spans(spec: &Spec, tracer: &spans::Tracer, clock: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.spans.jsonl", spec.name));
    std::fs::write(&path, tracer.render_jsonl(clock))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `--trace 1` on a virtual workload: the first seed twice — untraced,
/// then traced — so the two passes also check that tracing perturbs
/// nothing, and their CPU difference is the tracing overhead.
fn trace_virtual(spec: &Spec, seed: u64, scale: f64) -> Outcome {
    let s = workloads::seeds_for(spec, seed)[1];
    let (plain, _) = workloads::run_virtual_seed(spec, 1, s, scale, false);
    let (traced, host) = workloads::run_virtual_seed(spec, 1, s, scale, true);
    let mut outcome = Outcome::from_runs(std::slice::from_ref(&traced), 0.0, false);
    if plain.fingerprint != traced.fingerprint {
        outcome.violations.push(format!(
            "tracing changed the run: fingerprint {:x} untraced, {:x} traced",
            plain.fingerprint, traced.fingerprint
        ));
    }
    let mut values = Values::new();
    report::counter_layers(std::slice::from_ref(&traced), &mut values);
    let tracer = host.tracer.as_ref().expect("traced host has a tracer");
    report::span_layers(tracer, &mut values);
    layers::quorum_probe(&mut values);
    let driver = host.driver();
    let journals: Vec<&FramedJournal> = (0..N_NODES as u32)
        .map(|i| driver.journal(NodeId(i)))
        .collect();
    if let Err(e) = layers::journal_probe(&journals, &workloads::default_config(s), &mut values) {
        outcome.violations.push(e);
    }
    let rings: Vec<&TraceRing> = (0..N_NODES as u32)
        .filter_map(|i| driver.trace_ring(NodeId(i)))
        .collect();
    layers::trace_probe(&rings, traced.committed, &mut values);
    values.insert(
        "trace.overhead_pct".into(),
        trace_overhead_pct(&plain, &traced),
    );
    if let Err(e) = write_spans(spec, tracer, "virtual") {
        outcome.violations.push(e);
    }
    outcome.values = values;
    outcome
}

/// `--trace 1` on the live workload: one untraced and one traced
/// repetition on the memory journal, then three short repetitions with a
/// real journal file per node and one `fdatasync` per flush.
fn trace_live(spec: &Spec, seed: u64, scale: f64) -> Outcome {
    let s = workloads::seeds_for(spec, seed)[1];
    let (warm_ops, ops) = live_ops(spec, scale);
    let plain = live::run_live_rep(spec, s, warm_ops, ops, false, None).run;
    let traced = live::run_live_rep(spec, s, warm_ops, ops, true, None);
    let mut outcome = Outcome::from_runs(std::slice::from_ref(&traced.run), 0.0, false);
    outcome.violations.extend(plain.violations.iter().cloned());

    let mut values = Values::new();
    report::counter_layers(std::slice::from_ref(&traced.run), &mut values);
    let tracer = traced
        .tracer
        .as_ref()
        .expect("traced repetition has a tracer");
    // The generator only sees its own `inject` calls; the nodes step on
    // their own threads, so `inject` is the one step kind with a time here.
    report::span_layers(tracer, &mut values);
    layers::trace_probe(
        &traced.rings.iter().collect::<Vec<_>>(),
        traced.run.committed,
        &mut values,
    );
    let journals: Vec<&FramedJournal> = traced.journals.iter().collect();
    if let Err(e) = layers::journal_probe(&journals, &workloads::default_config(s), &mut values) {
        outcome.violations.push(e);
    }
    values.insert(
        "trace.overhead_pct".into(),
        trace_overhead_pct(&plain, &traced.run),
    );
    layers::quorum_probe(&mut values);
    if let Err(e) = write_spans(spec, tracer, "wall") {
        outcome.violations.push(e);
    }

    // fdatasync is a layer metric: its spread on shared disks (±13 % when
    // this was sized) is too wide for an end-to-end bound.
    let sync_dir = out_dir().join(format!("sync-{}", std::process::id()));
    match std::fs::create_dir_all(&sync_dir) {
        Err(e) => outcome
            .violations
            .push(format!("{}: {e}", sync_dir.display())),
        Ok(()) => {
            let mut rates = Vec::new();
            let mut flush_us = coterie_core::Histogram::default();
            for j in 0..3 {
                let s = sub_seed(seed, "live_serial.fsync", j);
                let rep = live::run_live_rep(spec, s, warm_ops, ops / 2, false, Some(&sync_dir));
                rates.push(rep.run.window_ops as f64 / (rep.run.window_us as f64 / 1e6));
                if let Some(h) = &rep.flush_us {
                    flush_us.merge(h);
                }
                outcome.violations.extend(rep.run.violations);
            }
            let _ = std::fs::remove_dir_all(&sync_dir);
            values.insert("host.flush_us_p50".into(), flush_us.quantile(0.5) as f64);
            values.insert("host.flush_us_p99".into(), flush_us.quantile(0.99) as f64);
            values.insert("host.fsync_ops_per_s".into(), median_f64(&rates));
            let (min, max) = stats::min_max(&rates);
            values.insert("host.fsync_ops_per_s_min".into(), min);
            values.insert("host.fsync_ops_per_s_max".into(), max);
        }
    }
    outcome.values = values;
    outcome
}

/// Runs one workload and prints its result: a descriptive line (workload,
/// seed, cross-seed min/max, the unbounded extras) and then, as the last
/// line, the driver's object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    let scale = args.seconds / REFERENCE_SECONDS;
    let outcome = match (spec.host, args.trace) {
        (HostKind::Virtual, false) => run_virtual(spec, args.seed, scale),
        (HostKind::Virtual, true) => trace_virtual(spec, args.seed, scale),
        (HostKind::Live, false) => run_live(spec, args.seed, scale),
        (HostKind::Live, true) => trace_live(spec, args.seed, scale),
    };
    for v in &outcome.violations {
        eprintln!("benchmark: {}: {v}", spec.name);
    }
    let metrics = if args.trace {
        report::metrics_json(PER_LAYER.iter().copied(), &outcome.values)
    } else {
        report::metrics_json(END_TO_END.iter().map(|m| (m.name, m.unit)), &outcome.values)
    };
    let described = obj([
        ("workload", Json::Str(spec.name.into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics.clone()),
        ("seed_min", report::values_json(&outcome.seed_min)),
        ("seed_max", report::values_json(&outcome.seed_max)),
        ("extra", report::values_json(&outcome.extra)),
    ])
    .render();
    if let Some(path) = &args.out {
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{described}"));
        if let Err(e) = appended {
            eprintln!("benchmark: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{described}");
    println!(
        "{}",
        obj([
            ("correct", Json::Bool(outcome.correct())),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `--workload spec.name` in a child process (its own address space,
/// so `peak_rss_mb` is that workload's alone) and returns its descriptive
/// result line.
fn run_child(spec: &Spec, seed: u64, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let described = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or(format!("{}: child printed no result", spec.name))?;
    let row = Json::parse(described)?;
    if !output.status.success() {
        return Err(format!("{}: correctness gate failed", spec.name));
    }
    Ok(row)
}

/// Every workload, each in its own child process: `--runs` untraced runs
/// with consecutive seeds (and one traced run with `--trace`). Prints
/// every metric with its unit; for the end-to-end ones also the spread
/// the acceptance rule looks at (interquartile range over the median).
fn run_all(args: &Args) -> ExitCode {
    let mut rows = Vec::new();
    let mut ok = true;
    for spec in &WORKLOADS {
        let mut samples: Vec<Json> = Vec::new();
        for r in 0..args.runs {
            match run_child(spec, args.seed + r, args, false) {
                Ok(row) => samples.push(row),
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ok = false;
                }
            }
        }
        println!(
            "== {} ({} run(s), --seconds {})",
            spec.name,
            samples.len(),
            args.seconds
        );
        for m in &END_TO_END {
            let values: Vec<f64> = samples
                .iter()
                .filter_map(|row| row.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                .collect();
            if values.is_empty() {
                continue;
            }
            let (min, max) = stats::min_max(&values);
            let spread = if values.len() >= 4 {
                let mut v = values.clone();
                v.sort_by(f64::total_cmp);
                let (q1, q3) = stats::quartiles(&v);
                format!(
                    "{:.2}%",
                    (q3 - q1) / median_f64(&v).abs().max(1e-12) * 100.0
                )
            } else {
                "-".into()
            };
            println!(
                "  {:<18} {:>14.4} {:<6} min {:<12.4} max {:<12.4} iqr/median {:<7} bound {:.0}%",
                m.name,
                median_f64(&values),
                m.unit,
                min,
                max,
                spread,
                m.bound * 100.0
            );
        }
        rows.extend(samples);
        if args.trace {
            match run_child(spec, args.seed, args, true) {
                Ok(row) => {
                    for (name, unit) in PER_LAYER {
                        let v = row
                            .get("metrics")
                            .and_then(|m| m.get(name)?.get("value")?.as_f64());
                        println!("  {:<42} {:>16.4} {unit}", name, v.unwrap_or(0.0));
                    }
                    rows.push(row);
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ok = false;
                }
            }
        }
    }
    if let Some(path) = &args.out {
        let text: String = rows.iter().map(|r| r.render() + "\n").collect();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("benchmark: {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok((report, regressed)) => {
                print!("{report}");
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    match &args.workload {
        None => run_all(&args),
        Some(name) => match workloads::find(name) {
            Some(spec) => run_one(spec, &args),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "benchmark: unknown workload {name}; one of {}",
                    names.join(", ")
                );
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workload cut down to what an unoptimised test build runs in
    /// about a second: two clusters, the smallest loops, and a slower
    /// arrival rate for the open loop (its fault cycle has a fixed length).
    fn tiny(name: &str) -> Spec {
        let spec = workloads::find(name).expect("workload exists");
        Spec {
            seeds: 2,
            open_period_us: spec.open_period_us.map(|_| 100_000),
            ..*spec
        }
    }

    const TINY_SCALE: f64 = 0.001;

    /// Everything that is not a wall-clock or CPU measurement.
    fn virtual_part(o: &Outcome) -> String {
        let mut v = o.values.clone();
        for noisy in ["cpu_us_per_op", "setup_s", "peak_rss_mb"] {
            v.remove(noisy);
        }
        report::values_json(&v).render()
    }

    #[test]
    fn same_seed_same_result_different_seed_different_result() {
        let spec = tiny("write_contended");
        let a = virtual_part(&run_virtual(&spec, 3, TINY_SCALE));
        assert_eq!(
            a,
            virtual_part(&run_virtual(&spec, 3, TINY_SCALE)),
            "same seed must repeat byte for byte"
        );
        assert_ne!(a, virtual_part(&run_virtual(&spec, 4, TINY_SCALE)));
    }

    #[test]
    fn quick_pass_of_every_workload_passes_its_gate() {
        for w in &WORKLOADS {
            let spec = tiny(w.name);
            let outcome = match spec.host {
                HostKind::Virtual => run_virtual(&spec, 9, TINY_SCALE),
                HostKind::Live => run_live(&spec, 9, TINY_SCALE),
            };
            assert!(outcome.correct(), "{}: {:?}", spec.name, outcome.violations);
            assert!(outcome.attempted > 0);
            for m in &END_TO_END {
                let v = outcome.values[m.name];
                assert!(v.is_finite() && v > 0.0, "{} {} = {v}", spec.name, m.name);
            }
        }
    }

    #[test]
    fn traced_pass_reports_every_layer_metric_and_matches_the_untraced_run() {
        let outcome = trace_virtual(&tiny("write_contended"), 5, TINY_SCALE);
        assert!(outcome.correct(), "{:?}", outcome.violations);
        let metrics = report::metrics_json(PER_LAYER.iter().copied(), &outcome.values);
        assert_eq!(metrics.as_obj().map(<[_]>::len), Some(PER_LAYER.len()));
        assert!(outcome.values["storage.records_per_write"] > 0.0);
        assert!(outcome.values["core.step_ns.permission"] > 0.0);
        for name in outcome.values.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == name),
                "{name} is not in the table"
            );
        }
    }

    #[test]
    fn benchmark_json_matches_the_binary() {
        // BENCHMARK.json sits at the root of the checkout, five levels up.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|p| p.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("readable");
        let doc = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name.to_string()));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name.to_string()));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.0.to_string()));
        for (m, row) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_arr).expect("array"))
        {
            assert_eq!(row.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(row.get("better").and_then(Json::as_str), Some(better));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(REFERENCE_SECONDS)
        );
    }
}
