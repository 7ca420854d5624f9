//! Cache-manager algorithm runtime. The paper's §VI budget is ~5 ms per
//! reconfiguration; the exact solver runs in O(C · Σ options), linear in
//! both the cache size C and the number of tracked objects.

use agar::{generate_options, greedy, KnapsackSolver, ObjectOptions};
use agar_ec::{CodingParams, ObjectId};
use agar_net::RegionId;
use agar_store::ObjectManifest;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

/// Builds the paper's 300-object option universe with Zipf-like values.
fn options(objects: u64) -> HashMap<ObjectId, ObjectOptions> {
    let latencies: Vec<Duration> = [80u64, 200, 600, 1400, 3400, 4600]
        .into_iter()
        .map(Duration::from_millis)
        .collect();
    let params = CodingParams::paper_default();
    (0..objects)
        .map(|i| {
            let object = ObjectId::new(i);
            let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
            let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
            let popularity = 1000.0 / (i + 1) as f64; // Zipf-ish
            (
                object,
                generate_options(&manifest, &latencies, Duration::from_millis(40), popularity),
            )
        })
        .collect()
}

fn bench_populate_vs_cache_size(c: &mut Criterion) {
    let all = options(300);
    let mut group = c.benchmark_group("knapsack/populate_by_cache_size");
    group.sample_size(10);
    for capacity in [45u32, 90, 180, 450] {
        group.bench_with_input(
            BenchmarkId::from_parameter(capacity),
            &capacity,
            |b, &capacity| {
                let solver = KnapsackSolver::new();
                b.iter(|| solver.populate(black_box(&all), capacity))
            },
        );
    }
    group.finish();
}

fn bench_populate_vs_catalogue(c: &mut Criterion) {
    let mut group = c.benchmark_group("knapsack/populate_by_catalogue");
    group.sample_size(10);
    for objects in [100u64, 300, 1000] {
        let all = options(objects);
        group.bench_with_input(BenchmarkId::from_parameter(objects), &objects, |b, _| {
            let solver = KnapsackSolver::new();
            b.iter(|| solver.populate(black_box(&all), 90))
        });
    }
    group.finish();
}

fn bench_greedy_and_generation(c: &mut Criterion) {
    let all = options(300);
    let mut group = c.benchmark_group("knapsack/alternatives");
    group.bench_function("greedy_300_objects", |b| {
        b.iter(|| greedy(black_box(&all), 90))
    });
    group.bench_function("option_generation_300_objects", |b| {
        let latencies: Vec<Duration> = [80u64, 200, 600, 1400, 3400, 4600]
            .into_iter()
            .map(Duration::from_millis)
            .collect();
        let params = CodingParams::paper_default();
        b.iter(|| {
            (0..300u64)
                .map(|i| {
                    let object = ObjectId::new(i);
                    let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
                    let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
                    generate_options(
                        &manifest,
                        black_box(&latencies),
                        Duration::from_millis(40),
                        1.0,
                    )
                })
                .count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_populate_vs_cache_size,
    bench_populate_vs_catalogue,
    bench_greedy_and_generation
);
criterion_main!(benches);
