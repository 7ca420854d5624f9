//! The repository benchmark: host cost of Agar's read, reconfigure and
//! write paths, beside the simulated (sim-clock) latency the paper
//! reports.
//!
//! A run executes one named workload for a time budget as a series of
//! identical *rounds*. Each round sets the system up from scratch
//! (populate, node or cluster build, warm-up), then plays an op list
//! generated from the seed before timing starts, with one OS client
//! thread in a closed loop. Only calls into the system are timed; byte
//! checks, op generation and the discrete-event scheduler run outside
//! the timers. Every round of a run replays the same inputs, so the
//! sim-clock outcome and the layer counts of every round must agree —
//! the run checks that, along with every byte every read returns.
//!
//! The traced run (`--trace 1`) records spans from this crate around
//! calls into each layer (see [`trace`]) and replays the options and
//! knapsack steps after each reconfiguration (see [`probe`]); the
//! program itself is unchanged.

pub mod host;
pub mod hot_read;
pub mod mixed_write;
pub mod paper_zipf;
pub mod probe;
pub mod report;
pub mod trace;

use agar::{AgarNode, AgarSettings, CachingClient};
use agar_bench::{Deployment, LatencyHistogram};
use agar_ec::ObjectId;
use agar_store::{expected_payload, Backend};
use host::CpuInstant;
use probe::ReconfigProbe;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};
use trace::{Call, Cost};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All-hit reads over a cached hot set on one node.
    HotRead,
    /// The paper's §V-A run on the sim clock, reconfiguring.
    PaperZipf,
    /// Reads and 10% writes through a two-member cluster.
    MixedWrite,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::HotRead, Workload::PaperZipf, Workload::MixedWrite];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::PaperZipf => "paper-zipf",
            Workload::MixedWrite => "mixed-write",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one round: set-up, then the timed op list.
    pub fn round(self, seed: u64, traced: bool) -> Round {
        match self {
            Workload::HotRead => hot_read::round(seed, traced),
            Workload::PaperZipf => paper_zipf::round(seed, traced),
            Workload::MixedWrite => mixed_write::round(seed, traced),
        }
    }
}

/// The sim-clock outcome of a round: the paper's Fig. 6/7 numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimOutcome {
    /// Modelled mean read latency.
    pub read_mean_ms: f64,
    /// Modelled P99 read latency.
    pub read_p99_ms: f64,
    /// Object hits, total plus partial, ÷ reads.
    pub hit_ratio: f64,
}

impl SimOutcome {
    /// Summarises modelled read latencies the way the paper harness
    /// does (`agar_bench::run_once`).
    pub fn from_latencies(latencies: &[Duration], hit_ratio: f64) -> Self {
        let mut histogram = LatencyHistogram::new();
        latencies.iter().for_each(|&l| histogram.record(l));
        let read_mean_ms = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().map(|d| d.as_secs_f64() * 1e3).sum::<f64>() / latencies.len() as f64
        };
        SimOutcome {
            read_mean_ms,
            read_p99_ms: histogram.summary().p99_ms,
            hit_ratio,
        }
    }
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Process CPU time from the start of set-up to the first timed op.
    pub setup: Duration,
    /// Process CPU time of the timed phase.
    pub phase: Duration,
    /// Process CPU time spent inside calls into the system during the
    /// timed phase: reads, writes and reconfiguration ticks.
    pub in_call: Duration,
    /// Wall time spent inside those calls.
    pub in_call_wall: Duration,
    /// CPU time of each successful read call (until [`Round::compact`]).
    pub reads: Vec<Duration>,
    /// CPU time of each successful write call (until
    /// [`Round::compact`]).
    pub writes: Vec<Duration>,
    /// CPU time of each timed reconfiguration that fired (until
    /// [`Round::compact`]).
    pub reconfigs: Vec<Duration>,
    /// Summary of `reads`.
    pub read: Sampled,
    /// Summary of `writes`.
    pub write: Sampled,
    /// Summary of `reconfigs`.
    pub reconfig: Sampled,
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that returned an error (a `ReadContention` included).
    pub failed: u64,
    /// Reads whose bytes differ from what the key should hold.
    pub wrong_bytes: u64,
    /// Reads that break the workload's own premise (a `hot-read` read
    /// that fetched from the backend or was not a full hit, or a
    /// warm-up that left a hot object uncached).
    pub violations: u64,
    /// The sim-clock outcome (`None` where it is constant by design).
    pub sim: Option<SimOutcome>,
    /// Per-round layer counts by metric name, identical across the
    /// rounds of a run.
    pub counts: BTreeMap<&'static str, f64>,
    /// Reconfigurations performed (set-up and timed).
    pub reconfig_calls: u64,
    /// Fill fetches those reconfigurations issued.
    pub reconfig_fills: u64,
    /// Fill fetches timed reads issued.
    pub read_fills: u64,
    /// Replay probes, one per reconfiguration (traced rounds only).
    pub probes: Vec<ReconfigProbe>,
    /// Replayed encode CPU time of each write's payload (traced rounds
    /// only).
    pub encodes: Vec<Duration>,
}

impl Round {
    /// Timed ops that completed.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Completed ops ÷ CPU seconds spent inside calls into the system.
    pub fn ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.in_call.as_secs_f64().max(1e-9)
    }

    /// Adds one call's cost to the in-call totals.
    pub fn charge(&mut self, cost: Cost) {
        self.in_call += cost.cpu;
        self.in_call_wall += cost.wall;
    }

    /// Replaces the per-call CPU times with their summaries, so a run's
    /// memory does not grow with the number of rounds it fits.
    pub fn compact(&mut self) {
        self.read = Sampled::of(&std::mem::take(&mut self.reads));
        self.write = Sampled::of(&std::mem::take(&mut self.writes));
        self.reconfig = Sampled::of(&std::mem::take(&mut self.reconfigs));
    }
}

/// Count, median, P99 and total of one kind of call's CPU times.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sampled {
    /// Calls.
    pub count: usize,
    /// Median CPU time.
    pub p50: Duration,
    /// P99 CPU time.
    pub p99: Duration,
    /// Total CPU time.
    pub total: Duration,
}

impl Sampled {
    /// Summarises `samples`.
    pub fn of(samples: &[Duration]) -> Self {
        Sampled {
            count: samples.len(),
            p50: report::percentile(samples, 0.50),
            p99: report::percentile(samples, 0.99),
            total: samples.iter().sum(),
        }
    }
}

/// Checks read payloads against what each key should hold: the
/// pristine `populate` pattern, or the last payload this run wrote.
pub struct Expected {
    size: usize,
    tiles: HashMap<u64, Vec<u8>>,
    written: HashMap<u64, u8>,
}

/// `populate` writes byte `j` of object `i` as `(31 i + 7 j) mod 251`,
/// so a pristine payload repeats every 251 bytes. Comparing against
/// one tile keeps the check cheap at 1 MB; a mismatch falls back to
/// the full [`expected_payload`], so correctness never rests on the
/// formula.
const TILE: usize = 251;

impl Expected {
    /// Expectations for a catalogue of `size`-byte objects.
    pub fn new(size: usize) -> Self {
        Expected {
            size,
            tiles: HashMap::new(),
            written: HashMap::new(),
        }
    }

    /// Records that `key` now holds `size` bytes of `fill`.
    pub fn record_write(&mut self, key: u64, fill: u8) {
        self.written.insert(key, fill);
    }

    /// Whether `data` is exactly what `key` should hold.
    pub fn matches(&mut self, key: u64, data: &[u8]) -> bool {
        if data.len() != self.size {
            return false;
        }
        if let Some(&fill) = self.written.get(&key) {
            // Slice comparisons compile to `memcmp`; a byte-wise
            // `all` does not vectorise and costs 20× more at 1 MB.
            let tile = [fill; TILE];
            return data.chunks(TILE).all(|c| c == &tile[..c.len()]);
        }
        let size = self.size;
        let tile = self
            .tiles
            .entry(key)
            .or_insert_with(|| expected_payload(key, size.min(TILE)));
        data.chunks(TILE).all(|c| c == &tile[..c.len()])
            || data == expected_payload(key, size).as_slice()
    }
}

/// Paper-default node settings with the deployment's cache-read and
/// client-overhead latencies, as the harness's warm builders use.
pub fn node_settings(deployment: &Deployment, cache_mb: f64) -> AgarSettings {
    let mut settings = AgarSettings::paper_default(deployment.scale.cache_bytes(cache_mb));
    settings.cache_read = deployment.preset.cache_read;
    settings.client_overhead = deployment.preset.client_overhead;
    settings
}

/// Runs one reconfiguration of `node` as a set-up step, recording its
/// span, its fill fetches and — in a traced round — its replay probe.
pub fn setup_reconfigure(
    node: &AgarNode,
    backend: &Backend,
    installed: &mut BTreeSet<(ObjectId, u8)>,
    traced: bool,
    round: &mut Round,
) {
    let fills = node.fill_fetches();
    let call = Call::start("reconfigure");
    node.force_reconfigure();
    call.stop();
    round.reconfig_calls += 1;
    round.reconfig_fills += node.fill_fetches() - fills;
    if traced {
        round.probes.push(probe::replay(node, backend, installed));
    }
}

/// Records the cache-statistics deltas of the timed window.
pub fn record_cache_counts(round: &mut Round, delta: &agar_cache::CacheStats) {
    let counts = &mut round.counts;
    counts.insert("cache.chunk_hit_ratio", delta.chunk_hit_ratio());
    counts.insert("cache.evictions", delta.evictions() as f64);
    counts.insert("cache.object_total_hits", delta.object_total_hits() as f64);
    counts.insert(
        "cache.object_partial_hits",
        delta.object_partial_hits() as f64,
    );
    counts.insert("ec.systematic_reads", delta.systematic_fast_reads() as f64);
    counts.insert("ec.plan_cache_hits", delta.decode_plan_hits() as f64);
}

/// Records the node counters of the timed window (`before` and `after`
/// are `(retries, degraded reads)` sums over the members).
pub fn record_node_counts(round: &mut Round, before: (u64, u64), after: (u64, u64)) {
    round
        .counts
        .insert("node.retries", (after.0 - before.0) as f64);
    round
        .counts
        .insert("node.degraded_reads", (after.1 - before.1) as f64);
}

/// `(retries, degraded reads)` summed over `nodes`.
pub fn node_counters<'a>(nodes: impl IntoIterator<Item = &'a AgarNode>) -> (u64, u64) {
    nodes.into_iter().fold((0, 0), |(r, d), node| {
        (r + node.retries(), d + node.degraded_reads())
    })
}

/// Times one read of `object` on `node` as a timed op.
pub fn timed_read(node: &AgarNode, object: u64, round: &mut Round) -> Option<agar::ReadMetrics> {
    let call = Call::start("read");
    let result = node.read(ObjectId::new(object));
    let cost = call.stop();
    round.charge(cost);
    round.attempted += 1;
    match result {
        Ok(metrics) => {
            round.reads.push(cost.cpu);
            round.read_fills += metrics.fill_fetches as u64;
            Some(metrics)
        }
        Err(_) => {
            round.failed += 1;
            None
        }
    }
}

/// Drives `f` as the timed phase of a round: tags spans as timed and
/// records its CPU time.
pub fn timed_phase(round: &mut Round, f: impl FnOnce(&mut Round)) {
    trace::set_phase(trace::Phase::Timed);
    let started = CpuInstant::now();
    f(round);
    round.phase = started.elapsed();
    trace::set_phase(trace::Phase::Setup);
    trace::set_op(0);
}

/// Runs rounds of `workload` until the next round would overrun
/// `budget` (measured from the first round's start), running at least
/// `min_rounds`.
pub fn run_rounds(
    workload: Workload,
    seed: u64,
    budget: Duration,
    traced: bool,
    min_rounds: usize,
) -> Vec<Round> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let mut round = workload.round(seed, traced);
        round.compact();
        rounds.push(round);
        let elapsed = started.elapsed();
        let per_round = elapsed / rounds.len() as u32;
        if rounds.len() >= min_rounds && elapsed + per_round > budget {
            return rounds;
        }
    }
}
