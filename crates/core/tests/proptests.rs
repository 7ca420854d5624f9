//! Property-based tests for the Agar core: Knapsack solver invariants
//! against random instances, and option-generation invariants against
//! random latency landscapes.

use agar::knapsack::{exhaustive_optimum, greedy, KnapsackSolver};
use agar::options::{generate_options, ObjectOptions};
use agar::RequestMonitor;
use agar_ec::{CodingParams, ObjectId};
use agar_net::RegionId;
use agar_store::ObjectManifest;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

/// Builds option sets from random per-region latencies and popularities.
fn build_instance(
    latencies_ms: &[u64; 6],
    popularities: &[f64],
) -> HashMap<ObjectId, ObjectOptions> {
    let latencies: Vec<Duration> = latencies_ms
        .iter()
        .map(|&ms| Duration::from_millis(ms))
        .collect();
    let params = CodingParams::paper_default();
    popularities
        .iter()
        .enumerate()
        .map(|(i, &pop)| {
            let object = ObjectId::new(i as u64);
            let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
            let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
            (
                object,
                generate_options(&manifest, &latencies, Duration::from_millis(40), pop),
            )
        })
        .collect()
}

fn latency_strategy() -> impl Strategy<Value = [u64; 6]> {
    [
        50u64..200,
        50u64..500,
        100u64..1000,
        200u64..2000,
        500u64..4000,
        500u64..5000,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The solver never exceeds the true optimum, never busts capacity,
    /// and never holds two options for one object.
    #[test]
    fn dp_bounded_by_optimum(
        latencies in latency_strategy(),
        pops in vec(0.1f64..100.0, 1..4),
        capacity in 0u32..20,
    ) {
        let instance = build_instance(&latencies, &pops);
        let dp = KnapsackSolver::new().populate(&instance, capacity);
        let optimum = exhaustive_optimum(&instance, capacity);

        prop_assert!(dp.weight() <= capacity);
        prop_assert!(dp.value() <= optimum.value() + 1e-6,
            "dp {} beat 'optimum' {}", dp.value(), optimum.value());

        let mut seen = std::collections::HashSet::new();
        for option in dp.options() {
            prop_assert!(seen.insert(option.object()));
        }
    }

    /// The solver is at least as good as the greedy heuristic (§II-D:
    /// greedy can err badly; the exact solver must not do worse).
    #[test]
    fn dp_dominates_greedy(
        latencies in latency_strategy(),
        pops in vec(0.1f64..100.0, 1..6),
        capacity in 0u32..40,
    ) {
        let instance = build_instance(&latencies, &pops);
        let dp = KnapsackSolver::new().populate(&instance, capacity);
        let g = greedy(&instance, capacity);
        prop_assert!(g.weight() <= capacity);
        prop_assert!(dp.value() >= g.value() - 1e-6,
            "dp {} < greedy {}", dp.value(), g.value());
    }

    /// The solver is exact: it reaches the exhaustive optimum on small
    /// instances (up to summation-order rounding).
    #[test]
    fn dp_reaches_optimum_small(
        latencies in latency_strategy(),
        pops in vec(0.5f64..50.0, 1..4),
        capacity in 0u32..=27,
    ) {
        let instance = build_instance(&latencies, &pops);
        let dp = KnapsackSolver::new().populate(&instance, capacity);
        let optimum = exhaustive_optimum(&instance, capacity);
        prop_assert!(dp.value() >= optimum.value() - 1e-9 * optimum.value().max(1.0),
            "dp {} vs optimum {}", dp.value(), optimum.value());
    }

    /// Option invariants: weights are 1..=k, values are non-negative and
    /// monotone in weight, chunk lists have the stated length and never
    /// repeat a chunk.
    #[test]
    fn option_generation_invariants(
        latencies in latency_strategy(),
        pop in 0.0f64..1000.0,
    ) {
        let instance = build_instance(&latencies, &[pop]);
        let options = &instance[&ObjectId::new(0)];
        let mut last_value = -1.0;
        let mut last_weight = 0;
        for option in options.iter() {
            prop_assert_eq!(option.weight() as usize, option.chunks().len());
            prop_assert_eq!(option.weight(), last_weight + 1);
            prop_assert!(option.value() >= last_value);
            prop_assert!(option.value() >= 0.0);
            let set: std::collections::HashSet<u8> =
                option.chunks().iter().copied().collect();
            prop_assert_eq!(set.len(), option.chunks().len());
            last_value = option.value();
            last_weight = option.weight();
        }
        prop_assert_eq!(last_weight, 9);
    }

    /// EWMA popularity stays within the convex hull of observed
    /// frequencies: never negative, never above the max epoch frequency.
    #[test]
    fn monitor_popularity_bounded(epoch_freqs in vec(0u32..500, 1..12)) {
        let mut monitor = RequestMonitor::new();
        let key = ObjectId::new(7);
        let max_freq = *epoch_freqs.iter().max().unwrap() as f64;
        for &freq in &epoch_freqs {
            for _ in 0..freq {
                monitor.record_read(key);
            }
            monitor.end_epoch();
            let pop = monitor.popularity(key);
            prop_assert!(pop >= 0.0);
            prop_assert!(pop <= max_freq + 1e-9, "pop {} > max freq {}", pop, max_freq);
        }
    }
}
