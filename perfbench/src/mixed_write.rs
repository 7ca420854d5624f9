//! `mixed-write`: reads and 10% writes through a two-member cluster.
//!
//! A 2-member `ClusterRouter` in one region at paper scale (300 × 1 MB
//! objects, 111 KB chunks, 10 MB caches). The members share the
//! router's `FetchCoordinator` and use the lease write path and holder
//! registry. The cluster is warmed the way
//! `agar_bench::build_warm_cluster` warms it — rebuilt here so that
//! each member's set-up reconfiguration gets its own span — and the
//! configuration then stays frozen. One client thread plays a seeded
//! `MixedStream`: Zipf 1.1 keys over all 300 objects with 10%
//! fixed-size 1 MB writes. Every write runs a 1 MB RS encode; every
//! miss runs 1 MB of fetch, assembly and fill, plus invalidation and
//! coalescing. The knapsack does no work in the timed phase.

use crate::host::CpuInstant;
use crate::trace::{self, Call, TracedFetcher};
use crate::{Expected, Round, SimOutcome};
use agar::{AgarNode, ChunkFetcher};
use agar_bench::{Deployment, Scale};
use agar_cluster::{ClusterRouter, ClusterSettings};
use agar_ec::ObjectId;
use agar_net::presets::FRANKFURT;
use agar_workload::{Distribution, MixedOp, ReadWriteMix, WorkloadSpec};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Cluster members.
pub const MEMBERS: usize = 2;
/// Objects warmed into the members' caches at set-up (each owner's
/// share fits its 90-chunk cache).
pub const HOT_OBJECTS: u64 = 8;
/// Timed operations per round.
pub const OPS: usize = 2_000;
/// Fraction of operations that are writes.
pub const WRITE_RATIO: f64 = 0.1;
/// Cache size per member in MB.
pub const CACHE_MB: f64 = 10.0;

/// Runs one `mixed-write` round of `ops` operations.
pub fn round_of(seed: u64, ops: usize, traced: bool) -> Round {
    let scale = Scale::paper();
    let spec = WorkloadSpec {
        object_count: scale.object_count,
        object_size: scale.object_size,
        operations: ops,
        read_fraction: 1.0,
        distribution: Distribution::Zipfian { skew: 1.1 },
    };
    let ops: Vec<MixedOp> = spec
        .mixed_stream(ReadWriteMix::with_ratio(WRITE_RATIO), seed)
        .expect("the mixed-write spec is valid")
        .collect();

    let mut round = Round::default();
    let setup = CpuInstant::now();
    let deployment = Deployment::build(scale);
    let backend = &deployment.backend;
    let settings = crate::node_settings(&deployment, CACHE_MB);
    let router = ClusterRouter::new(Arc::clone(backend), ClusterSettings::default(), seed)
        .expect("default cluster settings are valid");
    let mut members = Vec::with_capacity(MEMBERS);
    for i in 0..MEMBERS {
        let node = Arc::new(
            AgarNode::new(
                FRANKFURT,
                Arc::clone(backend),
                settings.clone(),
                seed ^ (i as u64 + 1),
            )
            .expect("paper settings are valid"),
        );
        router.add_node(Arc::clone(&node));
        if traced {
            let coordinator: Arc<dyn ChunkFetcher> = Arc::clone(router.coordinator()) as _;
            node.set_chunk_fetcher(Arc::new(TracedFetcher::new(coordinator)));
        }
        members.push(node);
    }
    for object in 0..HOT_OBJECTS {
        for _ in 0..3 {
            router.read(ObjectId::new(object)).expect("warm-up read");
        }
    }
    for node in &members {
        crate::setup_reconfigure(node, backend, &mut BTreeSet::new(), traced, &mut round);
    }
    let k = backend.params().data_chunks();
    for object in 0..HOT_OBJECTS {
        let metrics = router
            .read(ObjectId::new(object))
            .expect("verification read");
        round.violations += u64::from(metrics.metrics().cache_hits != k);
    }
    round.setup = setup.elapsed();

    let mut expected = Expected::new(scale.object_size);
    let mut latencies: Vec<Duration> = Vec::with_capacity(ops.len());
    let coordinator = router.coordinator();
    let stats = router.cache_stats();
    let counters = crate::node_counters(members.iter().map(AsRef::as_ref));
    let (primary, remote) = (coordinator.primary_fetches(), router.remote_hits());
    let (mut writes, mut invalidations, mut contentions) = (0u64, 0u64, 0u64);
    crate::timed_phase(&mut round, |round| {
        for (op, &mixed) in ops.iter().enumerate() {
            trace::set_op(op as u64 + 1);
            round.attempted += 1;
            match mixed {
                MixedOp::Read { key } => {
                    let call = Call::start("read");
                    let result = router.read(ObjectId::new(key));
                    let cost = call.stop();
                    round.charge(cost);
                    match result {
                        Ok(read) => {
                            round.reads.push(cost.cpu);
                            let metrics = read.metrics();
                            round.read_fills += metrics.fill_fetches as u64;
                            latencies.push(metrics.latency);
                            round.wrong_bytes +=
                                u64::from(!expected.matches(key, metrics.data.as_ref()));
                        }
                        Err(_) => round.failed += 1,
                    }
                }
                MixedOp::Write { key, size } => {
                    // A byte unique to this write among recent ones;
                    // with one client thread the last write wins.
                    let fill = (writes % 250 + 1) as u8;
                    writes += 1;
                    let payload = vec![fill; size];
                    let call = Call::start("write");
                    let result = router.write(ObjectId::new(key), &payload);
                    let cost = call.stop();
                    round.charge(cost);
                    match result {
                        Ok(metrics) => {
                            round.writes.push(cost.cpu);
                            invalidations += metrics.invalidations;
                            contentions += u64::from(metrics.lease_contended);
                            expected.record_write(key, fill);
                        }
                        Err(_) => round.failed += 1,
                    }
                    if traced {
                        let span = trace::begin("ec.encode");
                        let started = CpuInstant::now();
                        let shards = backend
                            .codec()
                            .encode_object(std::hint::black_box(&payload));
                        round.encodes.push(started.elapsed());
                        trace::end(span, shards.map_or(0, |s| s.len() as u64), 0);
                    }
                }
            }
        }
    });
    let delta = router.cache_stats().delta_since(&stats);
    round.sim = Some(SimOutcome::from_latencies(
        &latencies,
        delta.object_hit_ratio(),
    ));
    crate::record_cache_counts(&mut round, &delta);
    crate::record_node_counts(
        &mut round,
        counters,
        crate::node_counters(members.iter().map(AsRef::as_ref)),
    );
    let counts = &mut round.counts;
    counts.insert(
        "coordinator.primary_fetches",
        (coordinator.primary_fetches() - primary) as f64,
    );
    counts.insert(
        "coordinator.coalesced_fetches",
        delta.coalesced_fetches() as f64,
    );
    counts.insert(
        "coordinator.batched_requests",
        delta.batched_requests() as f64,
    );
    counts.insert("lease.contentions", contentions as f64);
    counts.insert(
        "cluster.invalidations_per_write",
        invalidations as f64 / writes.max(1) as f64,
    );
    counts.insert(
        "cluster.remote_hits",
        (router.remote_hits() - remote) as f64,
    );
    // Members and the router's lease manager hold each other (through
    // the holder registry and the members' cache-event sinks); removing
    // the members breaks that cycle so the round's deployment is freed.
    for id in router.member_ids() {
        router.remove_node(id);
    }
    round
}

/// Runs one `mixed-write` round.
pub fn round(seed: u64, traced: bool) -> Round {
    round_of(seed, OPS, traced)
}
