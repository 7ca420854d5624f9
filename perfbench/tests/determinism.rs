//! Determinism and fidelity of the benchmark's workloads.
//!
//! The sim-clock outcome and the layer counts of a round depend only on
//! its seed: running it twice, or traced instead of untraced, must not
//! move them, and `paper-zipf` must agree with the paper harness it
//! rebuilds. Rounds here are shortened; the full-size rounds run the
//! same code.

use agar_bench::{run_once, Deployment, PolicySpec, RunConfig, Scale};
use agar_net::presets::FRANKFURT;
use agar_store::expected_payload;
use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::{hot_read, mixed_write, paper_zipf, trace, Expected, Round};
use std::sync::Mutex;

/// `mixed-write` populates 400 MB; run one workload at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Asserts that `a` and `b` pass the run's own checks: right bytes,
/// intact workload premises, and equal sim outcomes and counts.
fn assert_agree(a: &Round, b: &Round) {
    assert!(a.attempted > 0);
    assert_eq!(a.failed + b.failed, 0);
    let problems = report::problems(&[a, b]);
    assert!(problems.is_empty(), "{problems:?}");
}

fn rounds(seed: u64, traced: bool) -> Vec<Round> {
    vec![
        hot_read::round_of(seed, 2_000, traced),
        paper_zipf::round_of(seed, 600, traced),
        mixed_write::round_of(seed, 200, traced),
    ]
}

#[test]
fn the_same_seed_gives_the_same_sim_outcome_and_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let first = rounds(7, false);
    let second = rounds(7, false);
    for (a, b) in first.iter().zip(&second) {
        assert_agree(a, b);
    }
    assert!(first[1].sim.is_some() && first[2].sim.is_some());
    let other = paper_zipf::round_of(8, 600, false);
    assert_ne!(first[1].sim, other.sim, "the seed must change the inputs");
}

#[test]
fn a_traced_round_matches_an_untraced_one() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let untraced = rounds(11, false);
    trace::start();
    let traced = rounds(11, true);
    let spans = trace::finish();
    assert!(!spans.is_empty());
    for (a, b) in untraced.iter().zip(&traced) {
        assert_agree(a, b);
        for name in b.counts.keys() {
            assert!(
                PER_LAYER.iter().any(|spec| spec.name == *name),
                "count {name} is not a per-layer metric"
            );
        }
    }
    assert!(traced.iter().all(|r| !r.probes.is_empty()));
    assert!(traced
        .iter()
        .flat_map(|r| r.probes.iter())
        .all(|p| p.matches_node));
}

#[test]
fn paper_zipf_agrees_with_the_paper_harness() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let reads = 1_500;
    for seed in [1, 5] {
        let round = paper_zipf::round_of(seed, reads, false);
        let deployment = Deployment::build(Scale::tiny());
        let mut config = RunConfig::paper_default(FRANKFURT, PolicySpec::Agar);
        config.cache_mb = paper_zipf::CACHE_MB;
        config.workload = paper_zipf::spec(reads);
        config.seed = seed;
        let harness = run_once(&deployment, &config);
        let sim = round.sim.expect("paper-zipf reports a sim outcome");
        assert_eq!(sim.read_mean_ms, harness.mean_latency_ms);
        assert_eq!(sim.read_p99_ms, harness.latency.p99_ms);
        assert_eq!(sim.hit_ratio, harness.hit_ratio);
        assert!(round.reconfig_calls > 0);
    }
}

#[test]
fn hot_read_never_fetches_and_paper_zipf_replays_its_knapsack_faithfully() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let metric = |values: &[report::Value], name: &str| {
        values
            .iter()
            .find(|v| v.spec.name == name)
            .map(|v| v.value)
            .expect("metric is reported")
    };
    for (round_fn, fetches) in [
        (hot_read::round_of as fn(u64, usize, bool) -> Round, false),
        (paper_zipf::round_of, true),
    ] {
        let untraced = vec![round_fn(3, 1_000, false)];
        trace::start();
        let mut traced = vec![round_fn(3, 1_000, true)];
        let spans = trace::finish();
        traced.iter_mut().for_each(Round::compact);
        let values = report::per_layer(&traced, &spans, report::ops_per_s(&untraced));
        assert_eq!(values.len(), PER_LAYER.len());
        assert!(values.iter().all(|v| v.value.is_finite()));
        assert!(metric(&values, "node.read_self_us") > 0.0);
        assert!(metric(&values, "knapsack.populate_ms") > 0.0);
        assert_eq!(metric(&values, "knapsack.replay_mismatches"), 0.0);
        assert_eq!(metric(&values, "fetch.calls") > 0.0, fetches);
    }
}

#[test]
fn payload_checks_accept_exact_bytes_only() {
    for size in [9_000, 1_000_000] {
        let mut expected = Expected::new(size);
        for key in [0, 1, 17, 299] {
            let mut data = expected_payload(key, size);
            assert!(expected.matches(key, &data));
            data[size - 1] ^= 1;
            assert!(!expected.matches(key, &data));
            assert!(!expected.matches(key, &data[..size - 1]));
        }
        expected.record_write(5, 9);
        assert!(expected.matches(5, &vec![9; size]));
        assert!(!expected.matches(5, &expected_payload(5, size)));
        let mut torn = vec![9; size];
        torn[size / 2] = 8;
        assert!(!expected.matches(5, &torn));
    }
}

#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let entries = |section: &str| {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = json[start..].find(']').expect("section closes") + start;
        json[start..end].matches("\"name\"").count()
    };
    assert_eq!(entries("end_to_end"), END_TO_END.len());
    assert_eq!(entries("per_layer"), PER_LAYER.len());
    for spec in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let line = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            spec.name, spec.unit, spec.better
        );
        assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
    }
}
