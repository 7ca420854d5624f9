//! Turns rounds and spans into named metrics, and prints them.

use crate::trace::{self, Phase, Span};
use crate::Round;
use std::fmt::Write as _;
use std::time::Duration;

/// A metric's name, unit and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// The gated end-to-end metrics, reported on every workload by the
/// untraced run. Times are process CPU time (see [`crate::host`]).
pub const END_TO_END: [MetricSpec; 4] = [
    spec("ops_per_s", "ops/s", "higher"),
    spec("read_p50_us", "us", "lower"),
    spec("setup_s", "s", "lower"),
    spec("peak_rss_mb", "MB", "lower"),
];

/// The per-layer metrics, reported on every workload by the traced
/// run (0 where a layer does no work on that workload).
pub const PER_LAYER: [MetricSpec; 40] = [
    spec("node.read_self_us", "us", "lower"),
    spec("node.retries", "count", "lower"),
    spec("node.degraded_reads", "count", "lower"),
    spec("node.reconfig_ms", "ms", "lower"),
    spec("node.reconfig_self_ms", "ms", "lower"),
    spec("monitor.tracked_objects", "count", "lower"),
    spec("options.generate_ms", "ms", "lower"),
    spec("options.count", "count", "lower"),
    spec("knapsack.populate_ms", "ms", "lower"),
    spec("knapsack.capacity_chunks", "count", "higher"),
    spec("knapsack.value_vs_greedy", "ratio", "higher"),
    spec("knapsack.replay_mismatches", "count", "lower"),
    spec("config.churn_chunks", "count", "lower"),
    spec("config.fill_fetches_per_reconfig", "count", "lower"),
    spec("config.fill_fetches_per_read", "ratio", "lower"),
    spec("cache.chunk_hit_ratio", "fraction", "higher"),
    spec("cache.evictions", "count", "lower"),
    spec("cache.object_total_hits", "count", "higher"),
    spec("cache.object_partial_hits", "count", "higher"),
    spec("fetch.calls", "count", "lower"),
    spec("fetch.chunks", "count", "lower"),
    spec("fetch.busy_share", "fraction", "lower"),
    spec("fetch.failed", "count", "lower"),
    spec("fetch.chunks_per_read", "ratio", "lower"),
    spec("ec.systematic_reads", "count", "higher"),
    spec("ec.plan_cache_hits", "count", "higher"),
    spec("ec.encode_share", "fraction", "lower"),
    spec("coordinator.primary_fetches", "count", "lower"),
    spec("coordinator.coalesced_fetches", "count", "higher"),
    spec("coordinator.batched_requests", "count", "higher"),
    spec("lease.contentions", "count", "lower"),
    spec("cluster.invalidations_per_write", "ratio", "lower"),
    spec("cluster.remote_hits", "count", "higher"),
    spec("sim.read_mean_ms", "sim-ms", "lower"),
    spec("sim.read_p99_ms", "sim-ms", "lower"),
    spec("sim.hit_ratio", "fraction", "higher"),
    spec("driver.self_ms", "ms", "lower"),
    spec("driver.rounds", "count", "higher"),
    spec("driver.ops_per_round", "count", "higher"),
    spec("trace.overhead_pct", "%", "lower"),
];

/// A measured value of a metric.
#[derive(Clone, Debug)]
pub struct Value {
    /// The metric.
    pub spec: MetricSpec,
    /// Its value.
    pub value: f64,
}

/// Nearest-rank percentile of unsorted durations (`Duration::ZERO`
/// for none).
pub fn percentile(values: &[Duration], q: f64) -> Duration {
    if values.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted numbers (0 for none).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median over rounds of each round's ops/s.
pub fn ops_per_s(rounds: &[Round]) -> f64 {
    median(rounds.iter().map(Round::ops_per_s))
}

fn median_of(rounds: &[Round], field: impl Fn(&Round) -> Option<Duration>) -> Duration {
    Duration::from_secs_f64(median(
        rounds.iter().filter_map(&field).map(|d| d.as_secs_f64()),
    ))
}

/// The end-to-end metrics of an untraced run. Timings are medians over
/// rounds of each round's own figure, so a round that ran while the
/// host was busier moves the result less than a pooled figure.
pub fn end_to_end(rounds: &[Round], peak_rss_mb: f64) -> Vec<Value> {
    let values = [
        ops_per_s(rounds),
        us(median_of(rounds, |r| Some(r.read.p50))),
        median(rounds.iter().map(|r| r.setup.as_secs_f64())),
        peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&spec, value)| Value { spec, value })
        .collect()
}

/// Numbers printed beside the end-to-end metrics but not gated: each
/// exists on only some workloads, or spreads too widely from run to
/// run on this class of host to gate (see the README).
pub fn details(rounds: &[Round]) -> Vec<(String, String)> {
    let sum = |f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>();
    let reads = sum(|r| r.read.count as u64);
    let writes = sum(|r| r.write.count as u64);
    let reconfigs = sum(|r| r.reconfig.count as u64);
    let phase: Duration = rounds.iter().map(|r| r.phase).sum();
    let in_call: Duration = rounds.iter().map(|r| r.in_call).sum();
    let in_call_wall: Duration = rounds.iter().map(|r| r.in_call_wall).sum();
    let completed = sum(Round::completed);
    let mut out = vec![
        (
            "wall_ops_per_s (wall time in calls)".into(),
            format!("{}", ratio(completed as f64, in_call_wall.as_secs_f64())),
        ),
        (
            "wall_in_call / cpu_in_call".into(),
            format!(
                "{}",
                ratio(in_call_wall.as_secs_f64(), in_call.as_secs_f64())
            ),
        ),
        ("rounds".into(), rounds.len().to_string()),
        ("reads".into(), reads.to_string()),
        (
            "read_p99_us".into(),
            format!("{:.3}", us(median_of(rounds, |r| Some(r.read.p99)))),
        ),
        (
            "read_p99 samples beyond, per round".into(),
            (reads / rounds.len().max(1) as u64 / 100).to_string(),
        ),
        (
            "failed_frac".into(),
            format!(
                "{}",
                ratio(sum(|r| r.failed) as f64, sum(|r| r.attempted) as f64)
            ),
        ),
        (
            "driver.self_ms per round".into(),
            format!(
                "{:.3}",
                ms(phase.saturating_sub(in_call)) / rounds.len().max(1) as f64
            ),
        ),
    ];
    if writes > 0 {
        let p50 = median_of(rounds, |r| (r.write.count > 0).then_some(r.write.p50));
        out.push(("writes".into(), writes.to_string()));
        out.push(("write_p50_us".into(), format!("{:.3}", us(p50))));
    }
    if reconfigs > 0 {
        let p50 = median_of(rounds, |r| (r.reconfig.count > 0).then_some(r.reconfig.p50));
        out.push(("reconfigs".into(), reconfigs.to_string()));
        out.push(("reconfig_p50_ms".into(), format!("{:.3}", ms(p50))));
    }
    if let Some(sim) = rounds.first().and_then(|r| r.sim) {
        out.push(("sim_read_mean_ms".into(), format!("{}", sim.read_mean_ms)));
        out.push(("sim_read_p99_ms".into(), format!("{}", sim.read_p99_ms)));
        out.push(("hit_ratio".into(), format!("{}", sim.hit_ratio)));
    }
    out
}

/// The per-layer metrics of a traced run: `traced` are the traced
/// rounds, `spans` everything they recorded, and `untraced_ops_per_s`
/// the same process's untraced figure (for the tracing overhead).
pub fn per_layer(traced: &[Round], spans: &[Span], untraced_ops_per_s: f64) -> Vec<Value> {
    let rounds = traced.len().max(1) as f64;
    let probes: Vec<_> = traced.iter().flat_map(|r| r.probes.iter()).collect();
    let count = |name: &str| traced.first().and_then(|r| r.counts.get(name)).copied();
    let reads: usize = traced.iter().map(|r| r.read.count).sum();
    let in_call: Duration = traced.iter().map(|r| r.in_call).sum();
    let phase: Duration = traced.iter().map(|r| r.phase).sum();
    let fetches: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "fetch" && s.phase == Phase::Timed)
        .collect();
    let fetch_chunks: u64 = fetches.iter().map(|s| s.items).sum();
    let fetch_busy: Duration = fetches.iter().map(|s| s.duration()).sum();
    let reconfig_spans: Vec<Duration> = spans
        .iter()
        .filter(|s| s.name == "reconfigure")
        .map(Span::duration)
        .collect();
    let write_time: Duration = traced.iter().map(|r| r.write.total).sum();
    let encode_time: Duration = traced.iter().flat_map(|r| r.encodes.iter()).sum();
    let sim = traced.first().and_then(|r| r.sim);
    let ops: u64 = traced.iter().map(|r| r.attempted).sum();

    PER_LAYER
        .iter()
        .map(|&spec| {
            let value = match spec.name {
                "node.read_self_us" => us(percentile(
                    &trace::self_times(spans, "read", Some(Phase::Timed)),
                    0.5,
                )),
                "node.reconfig_ms" => ms(percentile(&reconfig_spans, 0.5)),
                "node.reconfig_self_ms" => ms(percentile(
                    &trace::self_times(spans, "reconfigure", None),
                    0.5,
                )),
                "monitor.tracked_objects" => {
                    median(probes.iter().map(|p| p.tracked_objects as f64))
                }
                "options.generate_ms" => ms(percentile(
                    &probes.iter().map(|p| p.generate).collect::<Vec<_>>(),
                    0.5,
                )),
                "options.count" => median(probes.iter().map(|p| p.options as f64)),
                "knapsack.populate_ms" => ms(percentile(
                    &probes.iter().map(|p| p.populate).collect::<Vec<_>>(),
                    0.5,
                )),
                "knapsack.capacity_chunks" => {
                    median(probes.iter().map(|p| f64::from(p.capacity_chunks)))
                }
                "knapsack.value_vs_greedy" => median(probes.iter().map(|p| p.value_vs_greedy)),
                "knapsack.replay_mismatches" => {
                    probes.iter().filter(|p| !p.matches_node).count() as f64 / rounds
                }
                "config.churn_chunks" => ratio(
                    probes.iter().map(|p| p.churn_chunks as f64).sum(),
                    probes.len() as f64,
                ),
                "config.fill_fetches_per_reconfig" => ratio(
                    traced.iter().map(|r| r.reconfig_fills as f64).sum(),
                    traced.iter().map(|r| r.reconfig_calls as f64).sum(),
                ),
                "config.fill_fetches_per_read" => ratio(
                    traced.iter().map(|r| r.read_fills as f64).sum(),
                    reads as f64,
                ),
                "fetch.calls" => fetches.len() as f64 / rounds,
                "fetch.chunks" => fetch_chunks as f64 / rounds,
                "fetch.busy_share" => ratio(fetch_busy.as_secs_f64(), in_call.as_secs_f64()),
                "fetch.failed" => fetches.iter().map(|s| s.failed as f64).sum::<f64>() / rounds,
                "fetch.chunks_per_read" => ratio(fetch_chunks as f64, reads as f64),
                "ec.encode_share" => ratio(encode_time.as_secs_f64(), write_time.as_secs_f64()),
                "sim.read_mean_ms" => sim.map_or(0.0, |s| s.read_mean_ms),
                "sim.read_p99_ms" => sim.map_or(0.0, |s| s.read_p99_ms),
                "sim.hit_ratio" => sim.map_or(0.0, |s| s.hit_ratio),
                "driver.self_ms" => ms(phase.saturating_sub(in_call)) / rounds,
                "driver.rounds" => traced.len() as f64,
                "driver.ops_per_round" => ops as f64 / rounds,
                "trace.overhead_pct" => {
                    (ratio(untraced_ops_per_s, ops_per_s(traced)) - 1.0) * 100.0
                }
                name => count(name).unwrap_or(0.0),
            };
            Value { spec, value }
        })
        .collect()
}

/// Why the rounds are not correct, if they are not: wrong bytes,
/// broken workload premises, or rounds that replayed the same inputs
/// but disagree on the sim clock or in their layer counts.
pub fn problems(rounds: &[&Round]) -> Vec<String> {
    let mut out = Vec::new();
    let wrong: u64 = rounds.iter().map(|r| r.wrong_bytes).sum();
    if wrong > 0 {
        out.push(format!("{wrong} reads returned wrong bytes"));
    }
    let violations: u64 = rounds.iter().map(|r| r.violations).sum();
    if violations > 0 {
        out.push(format!(
            "{violations} reads broke the workload's premise (fetched or not a full hit)"
        ));
    }
    if let Some(first) = rounds.first() {
        let key = |r: &Round| {
            (
                r.sim,
                r.counts.clone(),
                r.attempted,
                r.failed,
                r.reconfig_calls,
                r.reconfig_fills,
                r.read_fills,
            )
        };
        if rounds.iter().any(|r| key(r) != key(first)) {
            out.push(
                "rounds replaying the same inputs disagree on sim-clock results or counts".into(),
            );
        }
    }
    out
}

/// The result line: one JSON object.
pub fn json(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, v) in values.iter().enumerate() {
        let value = if v.value.is_finite() { v.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            v.spec.name, v.spec.unit
        );
    }
    out.push_str("}}");
    out
}
