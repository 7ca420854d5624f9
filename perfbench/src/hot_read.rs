//! `hot-read`: all-hit reads over a cached hot set on one node.
//!
//! One `AgarNode` at tiny scale (300 × 9 KB objects, 1 KB chunks) with
//! a 10-"MB" cache of 90 chunks. Set-up makes an 8-object hot set
//! (72 chunks, which fits) popular, reconfigures and checks that every
//! hot object reads as a full hit. The timed phase is Zipf 1.1 reads
//! over the hot set with no reconfiguration, so it isolates the node's
//! own read machinery — monitor record, planner, shard-locked lookup,
//! decode and the fill check — with zero backend fetches and zero
//! knapsack work.

use crate::host::CpuInstant;
use crate::trace::{self, TracedFetcher};
use crate::{Expected, Round};
use agar::{AgarNode, CachingClient, DirectFetcher};
use agar_bench::{Deployment, Scale};
use agar_ec::ObjectId;
use agar_net::presets::FRANKFURT;
use agar_workload::{Distribution, WorkloadSpec};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Objects in the hot set.
pub const HOT_OBJECTS: u64 = 8;
/// Timed reads per round.
pub const READS: usize = 20_000;
/// Cache size in paper MB (90 chunks at tiny scale).
pub const CACHE_MB: f64 = 10.0;

/// Runs one `hot-read` round.
pub fn round(seed: u64, traced: bool) -> Round {
    round_of(seed, READS, traced)
}

/// Runs one `hot-read` round of `reads` timed reads.
pub fn round_of(seed: u64, reads: usize, traced: bool) -> Round {
    let spec = WorkloadSpec {
        object_count: HOT_OBJECTS,
        object_size: Scale::tiny().object_size,
        operations: reads,
        read_fraction: 1.0,
        distribution: Distribution::Zipfian { skew: 1.1 },
    };
    let keys: Vec<u64> = spec
        .stream(seed)
        .expect("the hot-read spec is valid")
        .map(|op| op.key())
        .collect();

    let mut round = Round::default();
    let setup = CpuInstant::now();
    let deployment = Deployment::build(Scale::tiny());
    let backend = &deployment.backend;
    let node = AgarNode::new(
        FRANKFURT,
        Arc::clone(backend),
        crate::node_settings(&deployment, CACHE_MB),
        seed,
    )
    .expect("paper settings are valid");
    if traced {
        node.set_chunk_fetcher(Arc::new(TracedFetcher::new(Arc::new(DirectFetcher::new(
            Arc::clone(backend),
        )))));
    }
    let k = backend.params().data_chunks();
    for object in 0..HOT_OBJECTS {
        for _ in 0..3 {
            node.read(ObjectId::new(object)).expect("warm-up read");
        }
    }
    crate::setup_reconfigure(&node, backend, &mut BTreeSet::new(), traced, &mut round);
    for object in 0..HOT_OBJECTS {
        let metrics = node.read(ObjectId::new(object)).expect("verification read");
        round.violations += u64::from(metrics.cache_hits != k);
    }
    round.setup = setup.elapsed();

    let mut expected = Expected::new(spec.object_size);
    let stats = node.cache_stats();
    let counters = crate::node_counters([&node]);
    crate::timed_phase(&mut round, |round| {
        for (op, &key) in keys.iter().enumerate() {
            trace::set_op(op as u64 + 1);
            if let Some(metrics) = crate::timed_read(&node, key, round) {
                round.wrong_bytes += u64::from(!expected.matches(key, metrics.data.as_ref()));
                round.violations +=
                    u64::from(metrics.backend_fetches > 0 || metrics.cache_hits != k);
            }
        }
    });
    crate::record_cache_counts(&mut round, &node.cache_stats().delta_since(&stats));
    crate::record_node_counts(&mut round, counters, crate::node_counters([&node]));
    round
}
