//! Metric tables (the binary's copy of `BENCHMARK.json`), aggregation of
//! per-seed runs into metric values, and `--compare`.

use coterie_core::{keys, MsgClass};

use crate::spans::{Tracer, CALL_KINDS};
use crate::stats::{median_f64, min_max, obj, quantile, Json, Values};
use crate::workloads::{SeedRun, PAYLOAD_BYTES, SLO_US};

/// One end-to-end metric: name, unit, whether higher is better, and the
/// share of the baseline's median by which it may get worse.
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the baseline median.
    pub bound: f64,
}

/// The ten end-to-end metrics. Every workload reports every one; the
/// clock behind a time is its workload's host's (virtual µs on the
/// virtual host, wall µs on the live one).
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p99_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_slo_share",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "committed_share",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "avail_share",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// The per-layer metrics of the traced pass: name and unit. A metric a
/// workload cannot observe reads 0 there.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("core.msgs_per_op.permission", "count"),
    ("core.msgs_per_op.commit", "count"),
    ("core.msgs_per_op.fetch", "count"),
    ("core.msgs_per_op.propagation", "count"),
    ("core.msgs_per_op.epoch_check", "count"),
    ("core.bounced_per_op", "count"),
    ("core.retries_per_op", "count"),
    ("core.useful_ratio", "ratio"),
    ("core.slow_share", "ratio"),
    ("core.client_skew", "ratio"),
    ("core.heavy_per_op", "count"),
    ("core.read_p50_us", "us"),
    ("core.read_p99_us", "us"),
    ("core.write_p99_us", "us"),
    ("core.write_p999_us", "us"),
    ("core.write.stale_marked_per_write", "count"),
    ("core.write.touched_per_write", "count"),
    ("core.write.batch_mean", "count"),
    ("core.propagate.done_per_write", "count"),
    ("core.propagate.current_replicas_mean", "count"),
    ("core.propagate.current_replicas_min", "count"),
    ("core.propagate.catchup_ms", "ms"),
    ("core.propagate.unrepaired_replicas", "count"),
    ("core.epoch.changes", "count"),
    ("core.epoch.shrink_ms", "ms"),
    ("core.epoch.regrow_ms", "ms"),
    ("core.step_ns.permission", "ns"),
    ("core.step_ns.commit", "ns"),
    ("core.step_ns.fetch", "ns"),
    ("core.step_ns.propagation", "ns"),
    ("core.step_ns.epoch_check", "ns"),
    ("core.step_ns.timer", "ns"),
    ("core.step_ns.inject", "ns"),
    ("core.step_share.permission", "ratio"),
    ("core.step_share.commit", "ratio"),
    ("core.step_share.fetch", "ratio"),
    ("core.step_share.propagation", "ratio"),
    ("core.step_share.epoch_check", "ratio"),
    ("core.step_share.timer", "ratio"),
    ("core.step_share.inject", "ratio"),
    ("core.step_growth", "ratio"),
    ("core.request_self_share", "ratio"),
    ("quorum.eval_ns", "ns"),
    ("quorum.compile_ns", "ns"),
    ("codec.encode_ns_per_byte", "ns"),
    ("codec.decode_ns_per_byte", "ns"),
    ("codec.bytes_per_record", "count"),
    ("storage.records_per_write", "count"),
    ("storage.bytes_per_write", "count"),
    ("storage.write_amp", "ratio"),
    ("storage.flushes_per_write", "count"),
    ("storage.append_ns_per_record", "ns"),
    ("storage.append_batch16_ns_per_record", "ns"),
    ("storage.replay_ns_per_record", "ns"),
    ("driver.events_per_cpu_s", "1/s"),
    ("driver.pending_msgs_max", "count"),
    ("driver.pending_timers_max", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.records_per_op", "count"),
    ("trace.merge_ns_per_record", "ns"),
    ("trace.render_ns_per_record", "ns"),
    ("host.flush_us_p50", "us"),
    ("host.flush_us_p99", "us"),
    ("host.fsync_ops_per_s", "1/s"),
    ("host.fsync_ops_per_s_min", "1/s"),
    ("host.fsync_ops_per_s_max", "1/s"),
    ("harness.check_ms_per_kop", "ms"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean_ms(samples_us: &[u64]) -> f64 {
    ratio(
        samples_us.iter().sum::<u64>() as f64 / 1000.0,
        samples_us.len() as f64,
    )
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn quantile_or_zero(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        quantile(sorted, q)
    }
}

/// The latency-and-rate metrics of a set of runs pooled together (one
/// run = that seed alone, for the cross-seed min/max).
fn pooled(runs: &[&SeedRun]) -> Values {
    let writes = sorted(
        runs.iter()
            .flat_map(|r| r.write_lat.iter().copied())
            .collect(),
    );
    let all = sorted(
        runs.iter()
            .flat_map(|r| r.read_lat.iter().chain(&r.write_lat).copied())
            .collect(),
    );
    let sum = |f: fn(&SeedRun) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_secs).collect();
    let cpu: f64 = runs.iter().map(|r| r.cpu_secs).sum();
    let mut v = Values::new();
    // Committed operations in the throughput windows over their length.
    v.insert(
        "ops_per_s".into(),
        ratio(sum(|r| r.window_ops), sum(|r| r.window_us) / 1e6),
    );
    v.insert("op_p50_us".into(), quantile_or_zero(&all, 0.50));
    v.insert("op_p99_us".into(), quantile_or_zero(&all, 0.99));
    v.insert("write_p50_us".into(), quantile_or_zero(&writes, 0.50));
    // Writes committed within the latency limit over writes attempted; a
    // write that failed or never finished misses any limit.
    let within = writes.partition_point(|l| *l <= SLO_US) as f64;
    v.insert(
        "write_slo_share".into(),
        ratio(within, writes.len() as f64 + sum(|r| r.write_lost)),
    );
    v.insert(
        "committed_share".into(),
        ratio(sum(|r| r.committed), sum(|r| r.issued)),
    );
    v.insert(
        "avail_share".into(),
        1.0 - ratio(sum(|r| r.unavail_us), sum(|r| r.measured_us)),
    );
    v.insert("cpu_us_per_op".into(), ratio(cpu * 1e6, all.len() as f64));
    v.insert("setup_s".into(), median_f64(&setups));
    v
}

/// End-to-end values of a run, plus the per-seed minimum and maximum of
/// each so a reader sees seed sensitivity next to the bound.
///
/// On the virtual host every seed is pooled. On the live host
/// (`median_rep`) each metric is the median over the repetitions of that
/// repetition's value: thread placement makes single repetitions bimodal
/// (now and then one runs with half the CPU per operation), which neither
/// pooling nor picking the best repetition survives.
pub fn end_to_end(runs: &[SeedRun], rss_mb: f64, median_rep: bool) -> (Values, Values, Values) {
    let all: Vec<&SeedRun> = runs.iter().collect();
    let mut values = pooled(&all);
    values.insert("peak_rss_mb".into(), rss_mb);
    let per_seed: Vec<Values> = runs.iter().map(|r| pooled(&[r])).collect();
    let (mut lo, mut hi) = (values.clone(), values.clone());
    for m in END_TO_END.iter().filter(|m| m.name != "peak_rss_mb") {
        let v: Vec<f64> = per_seed.iter().map(|s| s[m.name]).collect();
        let (min, max) = min_max(&v);
        lo.insert(m.name.into(), min);
        hi.insert(m.name.into(), max);
        if median_rep {
            values.insert(m.name.into(), median_f64(&v));
        }
    }
    (values, lo, hi)
}

/// Layer metrics that are plain arithmetic on the program's counters, the
/// journals and the run's own bookkeeping. On the virtual host they are
/// functions of the seed alone.
pub fn counter_layers(runs: &[SeedRun], values: &mut Values) {
    let counter = |key: &str| runs.iter().map(|r| r.registry.counter(key)).sum::<u64>() as f64;
    let sum = |f: fn(&SeedRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let committed = sum(|r| r.committed);
    let writes_ok = counter(keys::WRITES_OK);
    for class in MsgClass::ALL {
        let name = format!(
            "core.msgs_per_op.{}",
            CALL_KINDS[crate::spans::class_kind(class)]
        );
        values.insert(name, ratio(counter(keys::msgs_in(class)), committed));
    }
    let bounced: f64 = MsgClass::ALL
        .iter()
        .map(|c| counter(keys::msgs_bounced(*c)))
        .sum();
    let retries = counter(keys::RETRIES);
    let failed = sum(|r| r.failed);
    let measured = sum(|r| (r.read_lat.len() + r.write_lat.len()) as u64);
    let skews: Vec<f64> = runs
        .iter()
        .filter(|r| r.per_client.len() > 1)
        .map(|r| {
            let max = r.per_client.iter().copied().max().unwrap_or(0);
            let min = r.per_client.iter().copied().min().unwrap_or(0);
            max as f64 / min.max(1) as f64
        })
        .collect();
    let reads = sorted(
        runs.iter()
            .flat_map(|r| r.read_lat.iter().copied())
            .collect(),
    );
    let mut put = |name: &str, v: f64| values.insert(name.to_string(), v);
    put("core.bounced_per_op", ratio(bounced, committed));
    put("core.retries_per_op", ratio(retries, committed));
    put(
        "core.useful_ratio",
        ratio(committed, committed + retries + failed),
    );
    put("core.slow_share", ratio(sum(|r| r.slow), measured));
    put(
        "core.client_skew",
        if skews.is_empty() {
            0.0
        } else {
            median_f64(&skews)
        },
    );
    put(
        "core.heavy_per_op",
        ratio(counter(keys::HEAVY_RUNS), committed),
    );
    put("core.read_p50_us", quantile_or_zero(&reads, 0.50));
    put("core.read_p99_us", quantile_or_zero(&reads, 0.99));
    let writes = sorted(
        runs.iter()
            .flat_map(|r| r.write_lat.iter().copied())
            .collect(),
    );
    put("core.write_p99_us", quantile_or_zero(&writes, 0.99));
    put("core.write_p999_us", quantile_or_zero(&writes, 0.999));
    put(
        "core.write.stale_marked_per_write",
        ratio(counter(keys::MARKED_STALE_SUM), writes_ok),
    );
    put(
        "core.write.touched_per_write",
        ratio(counter(keys::REPLICAS_TOUCHED_SUM), writes_ok),
    );
    put(
        "core.write.batch_mean",
        ratio(writes_ok, sum(|r| r.write_rounds)),
    );
    put(
        "core.propagate.done_per_write",
        ratio(counter(keys::PROPAGATIONS_DONE), writes_ok),
    );
    put(
        "core.propagate.current_replicas_mean",
        ratio(sum(|r| r.current_sum), sum(|r| r.current_samples)),
    );
    put(
        "core.propagate.current_replicas_min",
        runs.iter()
            .filter(|r| r.current_samples > 0)
            .map(|r| r.current_min)
            .min()
            .unwrap_or(0) as f64,
    );
    let all_of = |f: fn(&SeedRun) -> &Vec<u64>| -> Vec<u64> {
        runs.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    put(
        "core.propagate.catchup_ms",
        mean_ms(&all_of(|r| &r.catchup_us)),
    );
    put("core.propagate.unrepaired_replicas", sum(|r| r.unrepaired));
    put("core.epoch.changes", counter(keys::EPOCH_CHANGES));
    put("core.epoch.shrink_ms", mean_ms(&all_of(|r| &r.shrink_us)));
    put("core.epoch.regrow_ms", mean_ms(&all_of(|r| &r.regrow_us)));
    // Storage work is counted from the journals: `StepDriver::flushes()`
    // is 0 in the default write-through mode.
    let journal_bytes = sum(|r| r.journal_bytes);
    put(
        "storage.records_per_write",
        ratio(sum(|r| r.journal_records), writes_ok),
    );
    put("storage.bytes_per_write", ratio(journal_bytes, writes_ok));
    put(
        "storage.write_amp",
        ratio(journal_bytes, writes_ok * PAYLOAD_BYTES as f64),
    );
    put(
        "storage.flushes_per_write",
        ratio(counter(keys::JOURNAL_FLUSHES), writes_ok),
    );
    let cpu: f64 = runs.iter().map(|r| r.cpu_secs).sum();
    put("driver.events_per_cpu_s", ratio(sum(|r| r.events), cpu));
    put(
        "driver.pending_msgs_max",
        runs.iter().map(|r| r.pending_msgs_max).max().unwrap_or(0) as f64,
    );
    put(
        "driver.pending_timers_max",
        runs.iter().map(|r| r.pending_timers_max).max().unwrap_or(0) as f64,
    );
    let check_ms: f64 = runs.iter().map(|r| r.check_secs * 1e3).sum();
    put(
        "harness.check_ms_per_kop",
        ratio(check_ms, sum(|r| r.issued) / 1e3),
    );
}

/// Layer metrics from the benchmark's own spans: mean wall time of a call
/// into the program per kind, each kind's share of all call time, how the
/// mean call time grows over the run, and the share of the requests'
/// wall time that no child call accounts for.
pub fn span_layers(tracer: &Tracer, values: &mut Values) {
    let mut total = [0u64; CALL_KINDS.len()];
    let mut count = [0u64; CALL_KINDS.len()];
    for c in &tracer.calls {
        total[c.kind] += c.wall_end_ns - c.wall_start_ns;
        count[c.kind] += 1;
    }
    let all: u64 = total.iter().sum();
    for (kind, name) in CALL_KINDS.iter().enumerate().take(7) {
        values.insert(
            format!("core.step_ns.{name}"),
            ratio(total[kind] as f64, count[kind] as f64),
        );
        values.insert(
            format!("core.step_share.{name}"),
            ratio(total[kind] as f64, all as f64),
        );
    }
    let decile = tracer.calls.len() / 10;
    if decile > 0 {
        let mean = |calls: &[crate::spans::CallSpan]| {
            calls
                .iter()
                .map(|c| c.wall_end_ns - c.wall_start_ns)
                .sum::<u64>() as f64
                / calls.len() as f64
        };
        let first = mean(&tracer.calls[..decile]);
        let last = mean(&tracer.calls[tracer.calls.len() - decile..]);
        values.insert("core.step_growth".into(), ratio(last, first));
    }
    let self_ns: u64 = tracer.request_self_ns().iter().sum();
    let wall_ns: u64 = tracer
        .requests
        .iter()
        .map(|r| r.wall_end_ns - r.wall_start_ns)
        .sum();
    values.insert(
        "core.request_self_share".into(),
        ratio(self_ns as f64, wall_ns as f64),
    );
}

/// Renders a metric map as the contract's `metrics` object, in table
/// order, every name present (0 where a workload has no value).
pub fn metrics_json<'a>(table: impl Iterator<Item = (&'a str, &'a str)>, values: &Values) -> Json {
    Json::Obj(
        table
            .map(|(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// A plain `{name: number}` object.
pub fn values_json(values: &Values) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

/// Median of each `(workload, metric)` over the end-to-end result lines
/// of a results file (one JSON object per line, as `--out` writes them).
fn medians_of(path: &str) -> Result<std::collections::BTreeMap<(String, String), f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples: std::collections::BTreeMap<(String, String), Vec<f64>> = Default::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let row = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if row.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = row
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}:{}: no workload", n + 1))?;
        let metrics = row
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{path}:{}: no metrics", n + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(samples
        .into_iter()
        .map(|(k, v)| (k, median_f64(&v)))
        .collect())
}

/// `--compare A B`: every end-to-end median of `B` against `A`. Returns
/// the report and whether any metric × workload got worse by more than
/// its bound.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let (base, new) = (medians_of(a)?, medians_of(b)?);
    let mut report = String::new();
    let mut regressed = false;
    for ((workload, metric), old) in &base {
        let Some(spec) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        let Some(now) = new.get(&(workload.clone(), metric.clone())) else {
            let _ = writeln!(report, "MISSING    {workload} {metric}: not in {b}");
            regressed = true;
            continue;
        };
        let worse_by = if spec.higher_is_better {
            ratio(old - now, old.abs())
        } else {
            ratio(now - old, old.abs())
        };
        let verdict = if worse_by > spec.bound {
            regressed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        let _ = writeln!(
            report,
            "{verdict:<10} {workload} {metric}: {old} -> {now} {} ({:+.2}% worse, bound {:.0}%)",
            spec.unit,
            worse_by * 100.0,
            spec.bound * 100.0
        );
    }
    if base.is_empty() {
        return Err(format!("{a}: no end-to-end results"));
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn compare_names_the_metric_and_workload_that_regressed() {
        let dir = crate::out_dir().join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let line = |ops: f64| {
            format!(
                "{{\"workload\": \"w\", \"trace\": 0, \"metrics\": {{\"ops_per_s\": \
                 {{\"value\": {ops}, \"unit\": \"1/s\"}}}}}}\n"
            )
        };
        let (a, b, c) = (dir.join("a.json"), dir.join("b.json"), dir.join("c.json"));
        std::fs::write(&a, line(1000.0) + &line(1010.0) + &line(990.0)).expect("write");
        std::fs::write(&b, line(980.0)).expect("write");
        std::fs::write(&c, line(700.0)).expect("write");
        let path = |p: &std::path::Path| p.to_str().expect("utf-8 path").to_string();
        let (_, regressed) = compare(&path(&a), &path(&b)).expect("readable");
        assert!(!regressed, "2% is inside the 10% bound");
        let (report, regressed) = compare(&path(&a), &path(&c)).expect("readable");
        assert!(regressed);
        assert!(report.contains("REGRESSION w ops_per_s"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
