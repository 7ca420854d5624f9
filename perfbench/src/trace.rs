//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program changes.
//! Each span has a name, start, end, the span that was open when it
//! began (its parent) and the id of the client operation it belongs
//! to. Start and end are readings of the process CPU clock (see
//! [`crate::host`]), so a span's length is the CPU time spent in it.
//! Spans stay in memory and are written out when the run ends.
//!
//! The recorder is thread-local: every call into the system is made
//! from the one client thread, and the only span recorded from inside
//! the program — [`TracedFetcher`] — runs on the thread that called
//! into the node, so parent links follow the call stack exactly.

use crate::host::CpuInstant;
use agar::{ChunkFetcher, FetchRequest};
use agar_net::RegionId;
use agar_store::{ChunkFetch, StoreError};
use rand::RngCore;
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether a span belongs to set-up or to the timed phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Populate, node or cluster build, warm-up.
    Setup,
    /// The measured operations.
    Timed,
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran: `read`, `write`, `tick`, `reconfigure`, `fetch`,
    /// `options.generate`, `knapsack.populate`, `ec.encode`.
    pub name: &'static str,
    /// Index of the enclosing span, if one was open.
    pub parent: Option<usize>,
    /// Client operation id (0 outside client operations).
    pub op: u64,
    /// Set-up or timed phase.
    pub phase: Phase,
    /// Start, process CPU nanoseconds since the recorder started.
    pub start_ns: u64,
    /// End, process CPU nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Work items the call handled (chunks for a fetch).
    pub items: u64,
    /// Items that failed (fetch results that were errors).
    pub failed: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

struct Recorder {
    epoch: CpuInstant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    phase: Phase,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (discarding anything recorded
/// before).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: CpuInstant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            phase: Phase::Setup,
        });
    });
}

/// Stops recording and returns every span, in start order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Tags subsequent spans with `phase`.
pub fn set_phase(phase: Phase) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.phase = phase;
        }
    });
}

/// Tags subsequent spans with client operation `op`.
pub fn set_op(op: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

/// Opens a span; returns its handle (`None` when not recording).
pub fn begin(name: &'static str) -> Option<usize> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let id = rec.spans.len();
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            parent: rec.open.last().copied(),
            op: rec.op,
            phase: rec.phase,
            start_ns,
            end_ns: start_ns,
            items: 0,
            failed: 0,
        });
        rec.open.push(id);
        Some(id)
    })
}

/// Closes the span `id` opened, recording its item and failure counts.
pub fn end(id: Option<usize>, items: u64, failed: u64) {
    let Some(id) = id else { return };
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let end_ns = rec.epoch.elapsed().as_nanos() as u64;
            let span = &mut rec.spans[id];
            span.end_ns = end_ns;
            span.items = items;
            span.failed = failed;
            if rec.open.last() == Some(&id) {
                rec.open.pop();
            }
        }
    });
}

/// Renames a recorded span (a reconfiguration tick that fired becomes
/// a `reconfigure` span once the call has returned `true`).
pub fn rename(id: Option<usize>, name: &'static str) {
    let Some(id) = id else { return };
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.spans[id].name = name;
        }
    });
}

/// Times one call into the system: CPU and wall time always, and a
/// span when this thread is recording.
pub struct Call {
    cpu: CpuInstant,
    wall: Instant,
    span: Option<usize>,
}

/// What one call cost.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    /// Process CPU time spent in the call.
    pub cpu: Duration,
    /// Wall time spent in the call.
    pub wall: Duration,
    /// The call's span, when recording.
    pub span: Option<usize>,
}

impl Call {
    /// Starts timing a call named `name`.
    pub fn start(name: &'static str) -> Self {
        let span = begin(name);
        Call {
            wall: Instant::now(),
            cpu: CpuInstant::now(),
            span,
        }
    }

    /// Stops timing.
    pub fn stop(self) -> Cost {
        let cpu = self.cpu.elapsed();
        let wall = self.wall.elapsed();
        end(self.span, 0, 0);
        Cost {
            cpu,
            wall,
            span: self.span,
        }
    }
}

/// Self time of every span named `name` in `phase` (or any phase when
/// `phase` is `None`): its duration minus the time its direct children
/// cover. Children of one span never overlap (single client thread).
pub fn self_times(spans: &[Span], name: &str, phase: Option<Phase>) -> Vec<Duration> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name && phase.is_none_or(|p| s.phase == p))
        .map(|(i, s)| {
            Duration::from_nanos(
                s.end_ns
                    .saturating_sub(s.start_ns)
                    .saturating_sub(child_ns[i]),
            )
        })
        .collect()
}

/// Writes the spans as tab-separated lines
/// (`index parent op phase name start_ns end_ns items failed`).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "index\tparent\top\tphase\tname\tstart_ns\tend_ns\titems\tfailed"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let phase = match s.phase {
            Phase::Setup => "setup",
            Phase::Timed => "timed",
        };
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{phase}\t{}\t{}\t{}\t{}\t{}",
            s.op, s.name, s.start_ns, s.end_ns, s.items, s.failed
        )?;
    }
    out.flush()
}

/// A pass-through [`ChunkFetcher`] that records a `fetch` span around
/// every call to the fetcher it wraps. It forwards the caller's RNG
/// untouched and draws nothing itself, so the node behaves exactly as
/// with the inner fetcher installed directly.
pub struct TracedFetcher {
    inner: Arc<dyn ChunkFetcher>,
}

impl TracedFetcher {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ChunkFetcher>) -> Self {
        TracedFetcher { inner }
    }
}

impl ChunkFetcher for TracedFetcher {
    fn fetch(
        &self,
        client_region: RegionId,
        requests: &[FetchRequest],
        rng: &mut dyn RngCore,
    ) -> Vec<(FetchRequest, Result<ChunkFetch, StoreError>)> {
        // A read served wholly from the cache still calls the fetcher,
        // with no requests; only calls that fetch count as fetch work.
        if requests.is_empty() {
            return self.inner.fetch(client_region, requests, rng);
        }
        let span = begin("fetch");
        let results = self.inner.fetch(client_region, requests, rng);
        let failed = results.iter().filter(|(_, r)| r.is_err()).count();
        end(span, results.len() as u64, failed as u64);
        results
    }
}
