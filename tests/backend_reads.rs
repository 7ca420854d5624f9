//! The cache-less "Backend" read path (`BackendOnlyClient`) under
//! region failures: every combination of failed regions either degrades
//! gracefully or fails loudly, never silently corrupts.

use agar::{AgarError, BackendOnlyClient, CachingClient};
use agar_ec::{CodingParams, ObjectId};
use agar_net::presets::{aws_six_regions, FRANKFURT};
use agar_net::{MatrixLatency, RegionId, Topology};
use agar_store::{expected_payload, populate, Backend, RoundRobin, StoreError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const SIZE: usize = 900;

fn backend() -> Arc<Backend> {
    let preset = aws_six_regions();
    let backend = Backend::new(
        preset.topology,
        Arc::new(preset.latency),
        CodingParams::paper_default(),
        Box::new(RoundRobin),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    populate(&backend, 3, SIZE, &mut rng).unwrap();
    Arc::new(backend)
}

/// A backend-only client with no client-side overhead, so a read's
/// latency is exactly its slowest chunk fetch.
fn client(backend: &Arc<Backend>, region: RegionId, seed: u64) -> BackendOnlyClient {
    BackendOnlyClient::new(region, Arc::clone(backend), Duration::ZERO, seed)
}

#[test]
fn every_single_region_failure_is_survivable() {
    // RS(9,3), 2 chunks per region: any one region (2 chunks) may fail,
    // the client's own region included.
    for r in 0..6u16 {
        let backend = backend();
        backend.fail_region(RegionId::new(r));
        let client = client(&backend, FRANKFURT, 1);
        for i in 0..3 {
            let metrics = client.read(ObjectId::new(i)).unwrap();
            assert_eq!(
                metrics.data.as_ref(),
                expected_payload(i, SIZE).as_slice(),
                "region {r} down, object {i}"
            );
            assert_eq!(metrics.backend_fetches, 9);
        }
    }
}

#[test]
fn every_two_region_failure_fails_loudly() {
    // Two regions = 4 chunks lost > m = 3: reads must error, not return
    // garbage.
    for a in 0..6u16 {
        for b in (a + 1)..6 {
            let backend = backend();
            backend.fail_region(RegionId::new(a));
            backend.fail_region(RegionId::new(b));
            let result = client(&backend, FRANKFURT, 1).read(ObjectId::new(0));
            assert!(
                matches!(
                    result,
                    Err(AgarError::Store(StoreError::NotEnoughChunks { .. }))
                ),
                "regions {a}+{b} down: expected NotEnoughChunks, got {result:?}"
            );
        }
    }
}

#[test]
fn failure_and_heal_cycles_are_idempotent() {
    let backend = backend();
    let client = client(&backend, RegionId::new(2), 9);
    for cycle in 0..4 {
        let region = RegionId::new(cycle % 6);
        backend.fail_region(region);
        backend.fail_region(region); // double-fail is a no-op
        let metrics = client.read(ObjectId::new(1)).unwrap();
        assert_eq!(metrics.data.as_ref(), expected_payload(1, SIZE).as_slice());
        backend.heal_region(region);
        backend.heal_region(region); // double-heal is a no-op
        let metrics = client.read(ObjectId::new(1)).unwrap();
        assert_eq!(metrics.data.as_ref(), expected_payload(1, SIZE).as_slice());
    }
}

#[test]
fn writes_resume_after_heal() {
    let backend = backend();
    let client = client(&backend, FRANKFURT, 5);
    let mut rng = StdRng::seed_from_u64(5);
    let object = ObjectId::new(9);
    backend.fail_region(RegionId::new(4));
    assert!(backend
        .put_object(FRANKFURT, object, &[1; SIZE], &mut rng)
        .is_err());
    backend.heal_region(RegionId::new(4));
    let (version, latency) = backend
        .put_object(FRANKFURT, object, &[1; SIZE], &mut rng)
        .unwrap();
    assert_eq!(version, 1);
    assert!(latency > Duration::ZERO);
    assert_eq!(
        client.read(object).unwrap().data.as_ref(),
        [1; SIZE].as_slice()
    );
    // A second write bumps the version and is what reads return.
    let (version, _) = backend
        .put_object(FRANKFURT, object, &[2; SIZE], &mut rng)
        .unwrap();
    assert_eq!(version, 2);
    assert_eq!(
        client.read(object).unwrap().data.as_ref(),
        [2; SIZE].as_slice()
    );
}

#[test]
fn reads_from_every_client_region_survive_remote_failure() {
    let backend = backend();
    // Sydney fails; clients in all other regions still read everything.
    backend.fail_region(RegionId::new(5));
    for home in 0..5u16 {
        let client = client(&backend, RegionId::new(home), home as u64);
        for i in 0..3 {
            let metrics = client.read(ObjectId::new(i)).unwrap();
            assert_eq!(metrics.data.as_ref(), expected_payload(i, SIZE).as_slice());
        }
    }
}

#[test]
fn decode_flag_follows_parity_use() {
    // 3-region deployment, RS(2,1): chunk i lives in region i; the
    // parity chunk 2 sits in the most distant region.
    let matrix = MatrixLatency::from_millis(vec![
        vec![1.0, 10.0, 100.0],
        vec![10.0, 1.0, 100.0],
        vec![100.0, 100.0, 1.0],
    ])
    .unwrap();
    let backend = Arc::new(
        Backend::new(
            Topology::from_names(["a", "b", "c"]),
            Arc::new(matrix),
            CodingParams::new(2, 1).unwrap(),
            Box::new(RoundRobin),
        )
        .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(1);
    populate(&backend, 1, 100, &mut rng).unwrap();
    let client = client(&backend, RegionId::new(0), 3);
    // Healthy: fetches data chunks 0 (local) and 1 (near); no decode.
    assert!(!client.read(ObjectId::new(0)).unwrap().decoded);
    // Region 1 down: must use the far parity chunk 2; decode required.
    backend.fail_region(RegionId::new(1));
    let metrics = client.read(ObjectId::new(0)).unwrap();
    assert!(metrics.decoded);
    assert_eq!(metrics.data.as_ref(), expected_payload(0, 100).as_slice());
}

#[test]
fn latency_is_the_slowest_contacted_region() {
    let backend = backend();
    let metrics = client(&backend, FRANKFURT, 7)
        .read(ObjectId::new(0))
        .unwrap();
    // From Frankfurt the plan skips Sydney and reaches out to Tokyo for
    // one chunk. Tokyo's calibrated mean is 1000 ms at nominal chunk
    // size; test chunks are tiny so only the fixed 60% applies
    // (~600 ms), plus 5% log-normal jitter.
    let ms = metrics.latency.as_secs_f64() * 1e3;
    assert!(ms > 450.0 && ms < 850.0, "latency {ms}ms");
}
