//! The `tail` experiment: hedged vs unhedged read latency under the
//! straggler/fault scenario family.
//!
//! Mean latency barely distinguishes the two engines — stragglers are
//! rare by construction. The tail does: every cell of this experiment
//! replays the same seeded closed-loop run twice, once with hedging
//! off (Δ = 0, byte-identical to the original engine) and once with
//! Δ = 2 hedge chunks, against a fresh deployment overlaid with one
//! [`StragglerScenario`]. Per-region slowdown spikes live in the
//! latency model ([`Deployment::build_with_scenario`]); flaky regions
//! fail and heal on the simulated clock right here, from their
//! [`FlakyRegion`] schedule; dead regions stay down throughout.
//!
//! Each run is fully deterministic per seed — deployments (and so the
//! spike phase counters) are rebuilt per cell — so hedged-vs-unhedged
//! deltas are attributable to the engine alone, and the CI gate can
//! compare P99s across commits.

use crate::harness::{Deployment, Scale};
use crate::table::{LatencyHistogram, LatencySummary, Table};
use agar::{AgarNode, AgarSettings, CachingClient};
use agar_ec::ObjectId;
use agar_net::sim::Simulation;
use agar_net::{RegionId, SimTime};
use agar_obs::{Labels, MetricsRegistry, StageSummaries};
use agar_store::Backend;
use agar_workload::{FlakyRegion, Op, StragglerScenario, WorkloadSpec};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Parameters of one tail run (shared by every cell of the table).
#[derive(Clone, Copy, Debug)]
pub struct TailParams {
    /// Deployment scale.
    pub scale: Scale,
    /// Operations per run.
    pub operations: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Cache size in paper MB units.
    pub cache_mb: f64,
    /// Hedge chunks Δ for the hedged cells.
    pub max_hedges: usize,
    /// Seed shared by the hedged and unhedged runs of each scenario.
    pub seed: u64,
}

impl TailParams {
    /// Full-scale defaults: the paper workload with Δ = 2 hedges.
    pub fn paper() -> Self {
        TailParams {
            scale: Scale::paper(),
            operations: 1_000,
            clients: 2,
            cache_mb: 10.0,
            max_hedges: 2,
            seed: 0x7A11,
        }
    }

    /// Test-scale defaults (same shapes, small objects, fewer ops).
    pub fn tiny() -> Self {
        TailParams {
            scale: Scale::tiny(),
            operations: 300,
            ..TailParams::paper()
        }
    }
}

/// One (scenario, engine) cell of the tail experiment.
#[derive(Clone, Debug)]
pub struct TailResult {
    /// Scenario name.
    pub scenario: String,
    /// Engine label (`unhedged` or `hedged d=Δ`).
    pub policy: String,
    /// The Δ this cell ran with.
    pub max_hedges: usize,
    /// Operations completed.
    pub operations: usize,
    /// Reads that failed outright (counted as 2 s penalty ops).
    pub errors: usize,
    /// Percentile summary of per-read simulated latency.
    pub latency: LatencySummary,
    /// Total successful backend chunk round trips, stragglers included
    /// — the hedging budget: hedged ≤ (1 + Δ/k) × unhedged.
    pub backend_fetches: u64,
    /// Hedge chunks issued.
    pub hedged_requests: u64,
    /// Hedge chunks that arrived early enough to displace a primary.
    pub hedge_wins: u64,
    /// Straggler responses discarded after the decode was satisfied.
    pub hedges_cancelled: u64,
    /// Per-stage latency breakdown (plan/lookup/fetch/bind/decode)
    /// from the node's read traces — every read is sampled, so the
    /// stage histograms cover the whole run.
    pub stages: StageSummaries,
}

struct TailState {
    node: Arc<AgarNode>,
    backend: Arc<Backend>,
    flaky: Vec<FlakyRegion>,
    pending: VecDeque<Op>,
    latencies: Vec<Duration>,
    backend_fetches: u64,
    in_flight: usize,
    errors: usize,
}

fn tail_client_loop(state: &mut TailState, sched: &mut agar_net::Scheduler<TailState>) {
    let Some(op) = state.pending.pop_front() else {
        state.in_flight -= 1;
        return;
    };
    // Stamp the trace layer's clock so spans carry simulated time.
    state.node.set_sim_now(sched.now());
    let latency = match state.node.read(ObjectId::new(op.key())) {
        Ok(metrics) => {
            state.backend_fetches += metrics.backend_fetches as u64;
            metrics.latency
        }
        Err(_) => {
            state.errors += 1;
            // Same closed-loop pacing as the main harness: a failed op
            // costs a backend-style slow round trip.
            Duration::from_secs(2)
        }
    };
    state.latencies.push(latency);
    sched.schedule_in(latency, tail_client_loop);
}

/// Once per simulated second: apply the flaky fail/heal schedule, then
/// give the node its reconfiguration chance (same cadence as the main
/// harness).
fn fault_tick(state: &mut TailState, sched: &mut agar_net::Scheduler<TailState>) {
    let now_s = sched
        .now()
        .saturating_duration_since(SimTime::ZERO)
        .as_secs();
    for flaky in &state.flaky {
        if flaky.is_down_at(now_s) {
            state.backend.fail_region(RegionId::new(flaky.region));
        } else {
            state.backend.heal_region(RegionId::new(flaky.region));
        }
    }
    state.node.set_sim_now(sched.now());
    state.node.maybe_reconfigure(sched.now());
    if state.in_flight > 0 {
        sched.schedule_in(Duration::from_secs(1), fault_tick);
    }
}

/// Runs one (scenario, Δ) cell: fresh deployment, fresh node, seeded
/// closed-loop clients on the simulated clock.
///
/// # Panics
///
/// Panics on invalid parameters (caller bugs).
pub fn tail_run(
    params: &TailParams,
    scenario: &StragglerScenario,
    max_hedges: usize,
) -> TailResult {
    tail_run_with(params, scenario, max_hedges, None)
}

/// [`tail_run`] with an optional metrics registry: when given, the
/// cell's node binds its counters and stage histograms into it under
/// `{scenario, policy}` labels so a `--metrics` dump carries every
/// cell of the experiment.
pub fn tail_run_with(
    params: &TailParams,
    scenario: &StragglerScenario,
    max_hedges: usize,
    registry: Option<&MetricsRegistry>,
) -> TailResult {
    // A fresh deployment per cell: the spike counters inside the
    // latency model are run-local state, and sharing them across cells
    // would shift the straggler phase between the engines under test.
    let deployment = Deployment::build_with_scenario(params.scale, scenario);
    let preset = &deployment.preset;
    let mut settings = AgarSettings::paper_default(deployment.scale.cache_bytes(params.cache_mb));
    settings.cache_read = preset.cache_read;
    settings.client_overhead = preset.client_overhead;
    settings.max_hedges = max_hedges;
    // Trace every read: the per-stage breakdown columns and the
    // chrome://tracing dump both come from this. Sampling is a
    // deterministic counter, so it never perturbs the engine.
    settings.trace_sample_every = 1;
    let node = Arc::new(
        AgarNode::new(
            preset.region("Frankfurt"),
            Arc::clone(&deployment.backend),
            settings,
            params.seed ^ 0x5EED,
        )
        .expect("paper settings are valid"),
    );

    let mut workload = WorkloadSpec::paper_default();
    workload.operations = params.operations;
    workload.object_count = workload.object_count.min(deployment.scale.object_count);
    workload.object_size = deployment.scale.object_size;
    let ops: VecDeque<Op> = workload
        .stream(params.seed)
        .expect("workload spec validated")
        .collect();

    let mut sim = Simulation::new(TailState {
        node: Arc::clone(&node),
        backend: Arc::clone(&deployment.backend),
        flaky: scenario.flaky.clone(),
        pending: ops,
        latencies: Vec::with_capacity(params.operations),
        backend_fetches: 0,
        in_flight: params.clients.max(1),
        errors: 0,
    });
    sim.schedule_at(SimTime::ZERO, fault_tick);
    for _ in 0..params.clients.max(1) {
        sim.schedule_at(SimTime::ZERO, tail_client_loop);
    }
    sim.run();
    let state = sim.into_world();

    let policy = if max_hedges == 0 {
        "unhedged".to_string()
    } else {
        format!("hedged d={max_hedges}")
    };
    if let Some(registry) = registry {
        let labels = Labels::new()
            .with("scenario", scenario.name)
            .with("policy", policy.clone());
        node.register_metrics(registry, &labels);
    }
    let mut histogram = LatencyHistogram::new();
    state.latencies.iter().for_each(|&l| histogram.record(l));
    let stats = node.cache_stats();
    let stages = StageSummaries::from_traces(&node.trace_snapshot());
    TailResult {
        scenario: scenario.name.to_string(),
        policy,
        max_hedges,
        operations: state.latencies.len(),
        errors: state.errors,
        latency: histogram.summary(),
        backend_fetches: state.backend_fetches,
        hedged_requests: stats.hedged_requests(),
        hedge_wins: stats.hedge_wins(),
        hedges_cancelled: stats.hedges_cancelled(),
        stages,
    }
}

/// Runs the full scenario family, unhedged and hedged per scenario.
pub fn tail_results(params: &TailParams) -> Vec<TailResult> {
    tail_results_with(params, None)
}

/// [`tail_results`] with an optional metrics registry (see
/// [`tail_run_with`]).
pub fn tail_results_with(
    params: &TailParams,
    registry: Option<&MetricsRegistry>,
) -> Vec<TailResult> {
    let mut results = Vec::new();
    for scenario in StragglerScenario::all() {
        for delta in [0, params.max_hedges] {
            let result = tail_run_with(params, &scenario, delta, registry);
            eprintln!(
                "  [tail] {:<13} {:<10} P99 {:6.0} ms (P50 {:4.0}, mean {:5.0}), \
                 {} fetches, {} hedges ({} wins, {} cancelled)",
                result.scenario,
                result.policy,
                result.latency.p99_ms,
                result.latency.p50_ms,
                result.latency.mean_ms,
                result.backend_fetches,
                result.hedged_requests,
                result.hedge_wins,
                result.hedges_cancelled,
            );
            results.push(result);
        }
    }
    results
}

/// Renders tail results as the `tail` experiment table.
pub fn tail_table(results: &[TailResult]) -> Table {
    let mut headers: Vec<String> = vec!["scenario".into(), "engine".into(), "mean (ms)".into()];
    headers.extend(LatencySummary::percentile_headers());
    headers.extend(StageSummaries::p99_headers());
    headers.extend([
        "max (ms)".into(),
        "fetches".into(),
        "hedges".into(),
        "wins".into(),
        "cancelled".into(),
        "errors".into(),
    ]);
    let mut table = Table::new(
        "Tail — hedged vs unhedged read latency under straggler scenarios (Frankfurt, Zipf 1.1)",
        headers,
    );
    for r in results {
        let mut row = vec![
            r.scenario.clone(),
            r.policy.clone(),
            format!("{:.0}", r.latency.mean_ms),
        ];
        row.extend(r.latency.percentile_cells());
        row.extend(r.stages.p99_cells());
        row.extend([
            format!("{:.0}", r.latency.max_ms),
            r.backend_fetches.to_string(),
            r.hedged_requests.to_string(),
            r.hedge_wins.to_string(),
            r.hedges_cancelled.to_string(),
            r.errors.to_string(),
        ]);
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> TailParams {
        let mut params = TailParams::tiny();
        params.operations = 150;
        params
    }

    #[test]
    fn hedging_beats_the_unhedged_tail_under_spikes() {
        let mut params = quick_params();
        // No cache: with one, the engines' different latency
        // observations drift the knapsack configurations apart, and
        // the round-trip comparison would measure caching, not
        // hedging. Cacheless, both runs issue exactly k primaries per
        // read and the budget inequality is exact.
        params.cache_mb = 0.0;
        let scenario = StragglerScenario::slow_spikes();
        let unhedged = tail_run(&params, &scenario, 0);
        let hedged = tail_run(&params, &scenario, 2);
        assert_eq!(unhedged.operations, 150);
        assert_eq!(hedged.operations, 150);
        assert!(
            hedged.latency.p99_ms < unhedged.latency.p99_ms,
            "hedged P99 {} must beat unhedged {}",
            hedged.latency.p99_ms,
            unhedged.latency.p99_ms
        );
        assert!(hedged.hedged_requests > 0, "spiky run must admit hedges");
        // Round-trip budget: Δ = 2 over k = 9 primaries.
        let budget = unhedged.backend_fetches as f64 * (1.0 + 2.0 / 9.0);
        assert!(
            (hedged.backend_fetches as f64) <= budget,
            "hedged fetches {} exceed budget {budget:.0}",
            hedged.backend_fetches
        );
    }

    #[test]
    fn flaky_region_fails_and_heals_on_schedule() {
        let mut params = quick_params();
        params.operations = 200;
        let scenario = StragglerScenario::flaky_backend();
        let unhedged = tail_run(&params, &scenario, 0);
        let hedged = tail_run(&params, &scenario, 2);
        // Both engines must survive the churn without giving up reads.
        assert_eq!(unhedged.errors, 0);
        assert_eq!(hedged.errors, 0);
        assert_eq!(unhedged.operations, 200);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let params = quick_params();
        let scenario = StragglerScenario::slow_spikes();
        let a = tail_run(&params, &scenario, 2);
        let b = tail_run(&params, &scenario, 2);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.backend_fetches, b.backend_fetches);
        assert_eq!(a.hedged_requests, b.hedged_requests);
    }

    #[test]
    fn stage_breakdown_covers_every_read_and_lands_in_the_registry() {
        let mut params = quick_params();
        params.operations = 60;
        let registry = MetricsRegistry::new();
        let scenario = StragglerScenario::slow_spikes();
        let result = tail_run_with(&params, &scenario, 2, Some(&registry));
        // Every read is traced (sample_every = 1), so the per-stage
        // summaries cover the full run.
        assert_eq!(result.stages.samples(), result.operations);
        // Fetch dominates a cold straggler run; the P99 must be real.
        assert!(result.stages.fetch.p99_ms > 0.0);
        assert!(result.stages.fetch.p99_ms <= result.latency.max_ms);
        let text = registry.render_prometheus();
        assert!(text.contains("agar_read_stage_seconds_bucket"));
        assert!(text.contains("scenario=\"slow-spikes\""));
        assert!(text.contains("policy=\"hedged d=2\""));
    }

    #[test]
    fn table_covers_every_cell() {
        let mut params = quick_params();
        params.operations = 40;
        let results = tail_results(&params);
        assert_eq!(results.len(), StragglerScenario::all().len() * 2);
        let table = tail_table(&results);
        assert_eq!(table.len(), results.len());
        assert!(table.title().contains("Tail"));
    }
}
