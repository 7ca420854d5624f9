//! A rewrite publishes its manifest only once every chunk of the new
//! version is in its bucket.
//!
//! One thread rewrites an object over and over; another repeatedly
//! reads the manifest and then fetches all of the object's chunks. A
//! fetched chunk may be *newer* than the manifest the reader saw (a
//! later write landed in between), but never older: a chunk older than
//! its manifest means the manifest was visible before the write's
//! chunks were, and every read in that window version-races.

use agar_ec::{ChunkId, CodingParams, ObjectId};
use agar_net::{ConstantLatency, RegionId, Topology};
use agar_store::{Backend, RoundRobin};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const REWRITES: u64 = 2_000;

#[test]
fn readers_never_see_a_manifest_ahead_of_its_chunks() {
    let backend = Backend::new(
        Topology::from_names(["r0", "r1", "r2", "r3"]),
        Arc::new(ConstantLatency::new(Duration::from_millis(1))),
        CodingParams::new(9, 3).unwrap(),
        Box::new(RoundRobin),
    )
    .unwrap();
    let object = ObjectId::new(0);
    let writer_region = RegionId::new(0);
    let total = backend.params().total_chunks();
    let payload = |round: u64| vec![(round % 251) as u8; 9 * 64];
    backend
        .put_object(
            writer_region,
            object,
            &payload(0),
            &mut StdRng::seed_from_u64(0),
        )
        .unwrap();

    let started = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let (stale, reads) = std::thread::scope(|scope| {
        scope.spawn(|| {
            // Start writing only once the reader runs, so the two
            // overlap.
            while !started.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let mut rng = StdRng::seed_from_u64(1);
            for round in 1..=REWRITES {
                backend
                    .put_object(writer_region, object, &payload(round), &mut rng)
                    .unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let reader = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(2);
            let (mut stale, mut reads) = (0u64, 0u64);
            started.store(true, Ordering::Release);
            while !done.load(Ordering::Acquire) {
                let manifest = backend.manifest(object).unwrap();
                for index in 0..total {
                    let chunk = ChunkId::new(object, index as u8);
                    let fetch = backend.fetch_chunk(writer_region, chunk, &mut rng).unwrap();
                    if fetch.version < manifest.version() {
                        stale += 1;
                    }
                }
                reads += 1;
            }
            (stale, reads)
        });
        reader.join().unwrap()
    });
    assert!(reads > 0, "the reader never ran");
    assert_eq!(
        stale, 0,
        "{stale} chunks older than their manifest over {reads} reads"
    );
    assert_eq!(backend.manifest(object).unwrap().version(), REWRITES + 1);
}
