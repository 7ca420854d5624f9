//! Passive replay probes run right after a reconfiguration.
//!
//! The node's reconfiguration closes the monitoring epoch, generates
//! the caching options, solves the knapsack and installs the result.
//! None of those steps is separately callable on a live node, so the
//! traced run replays the options and knapsack steps on the same
//! inputs, read back through the node's public diagnostics: the
//! popularity snapshot (unchanged by reads until the next epoch closes)
//! and the region manager's latency estimates (unchanged by the
//! a-priori fill, which does not feed the estimator). The replay runs
//! outside every client call span and draws nothing from the node's
//! RNG.

use crate::host::CpuInstant;
use crate::trace;
use agar::{generate_options, greedy, AgarNode, CacheConfiguration, ObjectOptions};
use agar_ec::ObjectId;
use agar_store::Backend;
use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

/// What one replayed reconfiguration measured.
#[derive(Clone, Debug)]
pub struct ReconfigProbe {
    /// Objects the monitor tracks: the knapsack's input size.
    pub tracked_objects: usize,
    /// Caching options generated over those objects.
    pub options: usize,
    /// CPU time of the replayed option generation.
    pub generate: Duration,
    /// CPU time of the replayed dynamic program.
    pub populate: Duration,
    /// The node's capacity in chunks.
    pub capacity_chunks: u32,
    /// Dynamic-program value ÷ greedy value over the same options.
    pub value_vs_greedy: f64,
    /// Whether the replayed solution equals the configuration the node
    /// installed (the replay is faithful).
    pub matches_node: bool,
    /// Chunks added plus removed relative to the previous
    /// configuration.
    pub churn_chunks: usize,
}

/// The set of chunks a configuration caches.
fn chunk_set(config: &CacheConfiguration) -> BTreeSet<(ObjectId, u8)> {
    config
        .objects()
        .flat_map(|object| {
            config
                .chunks_for(object)
                .iter()
                .map(move |&index| (object, index))
        })
        .collect()
}

/// Replays the options and knapsack steps of the reconfiguration
/// `node` just performed. `installed` holds the chunk set installed
/// before it and is updated to the one installed now.
pub fn replay(
    node: &AgarNode,
    backend: &Backend,
    installed: &mut BTreeSet<(ObjectId, u8)>,
) -> ReconfigProbe {
    let popularity = node.popularity_snapshot();
    let estimates = node.latency_estimates();
    let settings = node.settings();

    let span = trace::begin("options.generate");
    let started = CpuInstant::now();
    let mut all_options: HashMap<ObjectId, ObjectOptions> = HashMap::new();
    for &(object, popularity) in &popularity {
        if let Ok(manifest) = backend.manifest(object) {
            all_options.insert(
                object,
                generate_options(&manifest, &estimates, settings.cache_read, popularity),
            );
        }
    }
    let generate = started.elapsed();
    let options: usize = all_options.values().map(|o| o.iter().count()).sum();
    trace::end(span, options as u64, 0);

    let chunk_size = popularity
        .first()
        .and_then(|&(object, _)| backend.manifest(object).ok())
        .map_or(0, |m| m.chunk_size());
    let capacity_chunks = settings
        .cache_capacity_bytes
        .checked_div(chunk_size)
        .unwrap_or(0) as u32;

    let span = trace::begin("knapsack.populate");
    let started = CpuInstant::now();
    let solved = settings.solver.populate(&all_options, capacity_chunks);
    let populate = started.elapsed();
    trace::end(span, all_options.len() as u64, 0);

    let greedy_value = greedy(&all_options, capacity_chunks).value();
    let value_vs_greedy = if greedy_value > 0.0 {
        solved.value() / greedy_value
    } else {
        1.0
    };

    let now = chunk_set(&node.current_config());
    let replayed = chunk_set(&CacheConfiguration::from_knapsack(&solved, 0));
    let churn_chunks = now.symmetric_difference(installed).count();
    let matches_node = now == replayed;
    *installed = now;
    ReconfigProbe {
        tracked_objects: popularity.len(),
        options,
        generate,
        populate,
        capacity_chunks,
        value_vs_greedy,
        matches_node,
        churn_chunks,
    }
}
