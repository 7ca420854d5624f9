//! `paper-zipf`: the paper's §V-A run on the sim clock.
//!
//! One `AgarNode` in Frankfurt at tiny scale with a 90-chunk cache
//! against a 2,700-chunk catalogue that does not fit. Two simulated
//! closed-loop clients share the one OS thread through
//! `agar_net::sim::Simulation`; keys are Zipf 1.1 over 300 objects.
//! Reconfiguration ticks fire every simulated second against the 30 s
//! period — the event structure of `agar_bench::harness::run_batch`,
//! rebuilt here so that only calls into the node are timed. The whole
//! control loop (monitor → options → knapsack → purge and a-priori
//! fill) runs about 50 times per 5,000 reads and dominates host time.

use crate::host::CpuInstant;
use crate::probe;
use crate::trace::{self, Call, TracedFetcher};
use crate::{Expected, Round, SimOutcome};
use agar::{AgarNode, CachingClient, DirectFetcher};
use agar_bench::{Deployment, Scale};
use agar_ec::ObjectId;
use agar_net::presets::FRANKFURT;
use agar_net::{Scheduler, SimTime, Simulation};
use agar_store::Backend;
use agar_workload::{Op, WorkloadSpec};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Reads per round.
pub const READS: usize = 5_000;
/// Simulated closed-loop clients (the paper runs two per YCSB
/// instance).
pub const CLIENTS: usize = 2;
/// Cache size in paper MB (90 chunks at tiny scale).
pub const CACHE_MB: f64 = 10.0;
/// Node seed derivation of `agar_bench::run_once`.
const NODE_SEED_MASK: u64 = 0x5EED;

/// The paper workload spec with `reads` operations, as `run_batch`
/// sizes it.
pub fn spec(reads: usize) -> WorkloadSpec {
    let scale = Scale::tiny();
    let mut spec = WorkloadSpec::paper_default();
    spec.operations = reads;
    spec.object_count = spec.object_count.min(scale.object_count);
    spec.object_size = scale.object_size;
    spec
}

struct World {
    node: Arc<AgarNode>,
    backend: Arc<Backend>,
    pending: VecDeque<Op>,
    in_flight: usize,
    expected: Expected,
    latencies: Vec<Duration>,
    installed: BTreeSet<(ObjectId, u8)>,
    traced: bool,
    op: u64,
    round: Round,
}

impl World {
    fn tick(&mut self, now: SimTime) {
        let fills = self.node.fill_fetches();
        let call = Call::start("tick");
        let fired = self.node.maybe_reconfigure(now);
        let cost = call.stop();
        self.round.charge(cost);
        if fired {
            trace::rename(cost.span, "reconfigure");
            self.round.reconfigs.push(cost.cpu);
            self.round.reconfig_calls += 1;
            self.round.reconfig_fills += self.node.fill_fetches() - fills;
            if self.traced {
                let probe = probe::replay(&self.node, &self.backend, &mut self.installed);
                self.round.probes.push(probe);
            }
        }
    }
}

fn client_loop(world: &mut World, sched: &mut Scheduler<World>) {
    let Some(op) = world.pending.pop_front() else {
        world.in_flight -= 1;
        return;
    };
    world.op += 1;
    trace::set_op(world.op);
    let key = op.key();
    let latency = match crate::timed_read(&world.node, key, &mut world.round) {
        Some(metrics) => {
            world.round.wrong_bytes +=
                u64::from(!world.expected.matches(key, metrics.data.as_ref()));
            metrics.latency
        }
        // `run_batch` prices a failed op as a slow one so the closed
        // loop keeps its pace.
        None => Duration::from_secs(2),
    };
    trace::set_op(0);
    world.latencies.push(latency);
    sched.schedule_in(latency, client_loop);
}

fn reconfiguration_tick(world: &mut World, sched: &mut Scheduler<World>) {
    world.tick(sched.now());
    if world.in_flight > 0 {
        sched.schedule_in(Duration::from_secs(1), reconfiguration_tick);
    }
}

/// Runs one `paper-zipf` round of `reads` reads.
pub fn round_of(seed: u64, reads: usize, traced: bool) -> Round {
    let spec = spec(reads);
    let ops: VecDeque<Op> = spec
        .stream(seed)
        .expect("the paper spec is valid")
        .collect();

    let setup = CpuInstant::now();
    let deployment = Deployment::build(Scale::tiny());
    let backend = Arc::clone(&deployment.backend);
    let node = Arc::new(
        AgarNode::new(
            FRANKFURT,
            Arc::clone(&backend),
            crate::node_settings(&deployment, CACHE_MB),
            seed ^ NODE_SEED_MASK,
        )
        .expect("paper settings are valid"),
    );
    if traced {
        node.set_chunk_fetcher(Arc::new(TracedFetcher::new(Arc::new(DirectFetcher::new(
            Arc::clone(&backend),
        )))));
    }
    let setup = setup.elapsed();

    let mut sim = Simulation::new(World {
        node: Arc::clone(&node),
        backend,
        pending: ops,
        in_flight: CLIENTS,
        expected: Expected::new(spec.object_size),
        latencies: Vec::with_capacity(reads),
        installed: BTreeSet::new(),
        traced,
        op: 0,
        round: Round {
            setup,
            ..Round::default()
        },
    });
    // Anchor the reconfiguration clock, then tick every second; the
    // clients start at the same instant (the order `run_batch` uses).
    sim.schedule_at(SimTime::ZERO, |world: &mut World, sched| {
        world.tick(sched.now());
        sched.schedule_in(Duration::from_secs(1), reconfiguration_tick);
    });
    for _ in 0..CLIENTS {
        sim.schedule_at(SimTime::ZERO, client_loop);
    }
    let counters = crate::node_counters([node.as_ref()]);
    trace::set_phase(trace::Phase::Timed);
    let started = CpuInstant::now();
    sim.run();
    let phase = started.elapsed();
    trace::set_phase(trace::Phase::Setup);
    let mut world = sim.into_world();
    world.round.phase = phase;
    let stats = node.cache_stats();
    world.round.sim = Some(SimOutcome::from_latencies(
        &world.latencies,
        stats.object_hit_ratio(),
    ));
    crate::record_cache_counts(&mut world.round, &stats);
    crate::record_node_counts(
        &mut world.round,
        counters,
        crate::node_counters([node.as_ref()]),
    );
    world.round
}

/// Runs one `paper-zipf` round.
pub fn round(seed: u64, traced: bool) -> Round {
    round_of(seed, READS, traced)
}
