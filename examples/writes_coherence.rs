//! Writes and cache coherence (the paper's §VI extension): a write
//! through the cluster router invalidates exactly the caches that hold
//! the object, and version checks guarantee no stale data is ever
//! returned — even for a write that bypasses the router.
//!
//! ```sh
//! cargo run --release --example writes_coherence
//! ```

use agar::{AgarNode, AgarSettings, CachingClient};
use agar_cluster::{ClusterRouter, ClusterSettings};
use agar_ec::{CodingParams, ObjectId};
use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY};
use agar_store::{populate, Backend, RoundRobin};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let preset = aws_six_regions();
    let backend = Arc::new(Backend::new(
        preset.topology.clone(),
        Arc::new(preset.latency.clone()),
        CodingParams::paper_default(),
        Box::new(RoundRobin),
    )?);
    let mut rng = StdRng::seed_from_u64(13);
    const SIZE: usize = 45_000;
    populate(&backend, 10, SIZE, &mut rng)?;

    // One Agar node per region, all members of one cluster: the router
    // tracks which members hold which objects.
    let nodes: Vec<Arc<AgarNode>> = preset
        .topology
        .ids()
        .map(|region| {
            AgarNode::new(
                region,
                Arc::clone(&backend),
                AgarSettings::paper_default(3 * SIZE),
                region.index() as u64,
            )
            .map(Arc::new)
        })
        .collect::<Result<_, _>>()?;
    let router = ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 23)?;
    for node in &nodes {
        router.add_node(Arc::clone(node));
    }
    let region_name = |node: &AgarNode| {
        backend
            .topology()
            .region(node.region())
            .map(|r| r.name().to_string())
            .unwrap_or_default()
    };

    // Warm the Frankfurt and Sydney caches on object 0.
    let object = ObjectId::new(0);
    for node in [&nodes[FRANKFURT.index()], &nodes[SYDNEY.index()]] {
        for _ in 0..50 {
            node.read(object)?;
        }
        node.force_reconfigure();
        node.read(object)?; // prefill
        println!(
            "{:<12} cached {:?} chunks of {object}",
            region_name(node),
            node.cache_contents()
                .get(&object)
                .map(Vec::len)
                .unwrap_or(0),
        );
    }
    let holders = router.lease_manager().holders_of(object);

    // A write through the router: the object's ring owner writes under
    // the object's lease, then invalidates only the registered holders.
    let new_payload = vec![0xEEu8; SIZE];
    let write = router.write(object, &new_payload)?;
    let home = router
        .member(write.home)
        .ok_or("write home left the cluster")?;
    println!(
        "\nwrite via {}: version {}, {:.0} ms, invalidated {} of {} holders (the writer drops its own copy)",
        region_name(&home),
        write.version,
        write.latency.as_secs_f64() * 1e3,
        write.invalidations,
        holders.len(),
    );

    // Every region now reads the new bytes (first read refills caches).
    for node in [&nodes[FRANKFURT.index()], &nodes[SYDNEY.index()]] {
        let metrics = node.read(object)?;
        assert_eq!(metrics.data.as_ref(), new_payload.as_slice());
        println!(
            "{:<12} read v{}: {:>5.0} ms, cache hits {}",
            region_name(node),
            write.version,
            metrics.latency.as_secs_f64() * 1e3,
            metrics.cache_hits
        );
    }

    // Even a write that bypasses the router cannot serve stale data:
    // version checks reject outdated chunks on read.
    let sneaky = vec![0x11u8; SIZE];
    let mut rng = StdRng::seed_from_u64(29);
    backend.put_object(FRANKFURT, object, &sneaky, &mut rng)?;
    let metrics = nodes[SYDNEY.index()].read(object)?;
    assert_eq!(metrics.data.as_ref(), sneaky.as_slice());
    assert_eq!(metrics.cache_hits, 0, "stale chunks must not count as hits");
    println!("\nuncoordinated write still read fresh via version validation");
    Ok(())
}
