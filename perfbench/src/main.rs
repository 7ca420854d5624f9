//! `agar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and the
//! metrics: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Earlier lines report every number by name
//! and unit for people. Exits 1 when any check fails and 2 on bad
//! arguments.

use perfbench::report::{self, Value};
use perfbench::{trace, Workload};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: agar-perfbench --workload <hot-read|paper-zipf|mixed-write> --seed <n> --seconds <1..=600> --trace <0|1>";

/// Set-up runs per untraced run at least, so `setup_s` is a median.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print_values(values: &[Value]) {
    for v in values {
        println!("  {:<36} {} {}", v.spec.name, v.value, v.spec.unit);
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    println!(
        "workload {} seed {} budget {} s trace {} (available_parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // A traced run spends half its budget untraced, for the tracing
    // overhead, and half traced, for the per-layer metrics.
    let (untraced, traced, spans) = if args.trace {
        let untraced = perfbench::run_rounds(args.workload, args.seed, budget / 2, false, 1);
        trace::start();
        let traced = perfbench::run_rounds(args.workload, args.seed, budget / 2, true, 1);
        (untraced, traced, trace::finish())
    } else {
        let rounds = perfbench::run_rounds(args.workload, args.seed, budget, false, MIN_ROUNDS);
        (rounds, Vec::new(), Vec::new())
    };
    let peak_rss_mb = perfbench::host::peak_rss_mb();

    let all: Vec<&perfbench::Round> = untraced.iter().chain(traced.iter()).collect();
    let problems = report::problems(&all);
    let correct = problems.is_empty();
    for problem in &problems {
        println!("FAILED CHECK: {problem}");
    }

    println!("end-to-end (untraced rounds):");
    let end_to_end = report::end_to_end(&untraced, peak_rss_mb);
    print_values(&end_to_end);
    for (name, value) in report::details(&untraced) {
        println!("  {name:<36} {value}");
    }
    let (counted, metrics) = if args.trace {
        let per_layer = report::per_layer(&traced, &spans, report::ops_per_s(&untraced));
        println!("per-layer (traced rounds):");
        print_values(&per_layer);
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans.tsv", args.workload.name()));
        match trace::write_spans(&spans, &out) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), out.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", out.display()),
        }
        (&traced, per_layer)
    } else {
        (&untraced, end_to_end)
    };
    let attempted = counted.iter().map(|r| r.attempted).sum();
    let failed = counted.iter().map(|r| r.failed).sum();
    println!("{}", report::json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
