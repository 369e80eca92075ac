//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Workloads:
//! * `bulk-ingest-90-tcf`, `bulk-ingest-90-gqf`: one caller fills a 2^22-slot
//!   `BulkTcf` / `BulkGqf` to 90% load in 2^16-key calls, then queries.
//! * `wire-open-loop`: a client drives two loopback connections to a
//!   `filter-net` server with Poisson arrivals at 1000 requests/s.
//!
//! Keys are generated from the seed before the timed regions. Every
//! verdict is checked against the ground truth; a wrong one fails the
//! run. With `--trace 0` the last line of standard output is a JSON
//! object with the end-to-end metrics. With `--trace 1` the run makes an
//! untraced pass and a traced pass of half the time each, prints the
//! per-layer metrics of the traced pass next to the end-to-end numbers,
//! writes the spans to `<out-dir>/trace-<workload>-<seed>.jsonl` and ends
//! with a JSON object of the per-layer metrics. The exit code is 0 when
//! every verdict was right, 1 when one was wrong and 2 on bad arguments.

mod backend;
mod bulk;
mod report;
mod service;
mod stats;
mod trace;
mod wire;

#[cfg(test)]
mod selftest;

use report::{Outcome, LAYER_METRICS};
use std::path::PathBuf;
use std::sync::Arc;
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BulkTcf,
    BulkGqf,
    Wire,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("bulk-ingest-90-tcf", Workload::BulkTcf),
        ("bulk-ingest-90-gqf", Workload::BulkGqf),
        ("wire-open-loop", Workload::Wire),
    ];

    fn name(self) -> &'static str {
        Workload::ALL.iter().find(|(_, w)| *w == self).expect("every workload is listed").0
    }

    fn run(self, seed: u64, seconds: f64, tracer: Option<Arc<Tracer>>) -> Outcome {
        match self {
            Workload::BulkTcf => {
                bulk::run(&bulk::Params::paper(bulk::Kind::Tcf, seed, seconds), tracer)
            }
            Workload::BulkGqf => {
                bulk::run(&bulk::Params::paper(bulk::Kind::Gqf, seed, seconds), tracer)
            }
            Workload::Wire => wire::run(&wire::Params::standard(seed, seconds), tracer),
        }
    }

    /// Traced over untraced cost of the workload's headline number.
    fn overhead(self, untraced: &Outcome, traced: &Outcome) -> f64 {
        match self {
            Workload::Wire => traced.e2e.latency_p50_ms / untraced.e2e.latency_p50_ms - 1.0,
            _ => untraced.e2e.keys_per_s / traced.e2e.keys_per_s - 1.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.iter().find(|(n, _)| *n == value);
                workload = Some(w.ok_or(format!("unknown workload {value}"))?.1);
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let pass_seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };

    let untraced = w.run(args.seed, pass_seconds, None);
    let traced = args.trace.then(|| {
        let mut t = w.run(args.seed, pass_seconds, Some(Arc::new(Tracer::new())));
        t.layers.set("trace.overhead_frac", w.overhead(&untraced, &t));
        t
    });
    print!("{}", report::summary(w.name(), &untraced, traced.as_ref()));

    let passes: Vec<&Outcome> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let attempted: u64 = passes.iter().map(|o| o.attempted).sum();
    let failed: u64 = passes.iter().map(|o| o.failed).sum();
    let mut correct = attempted > 0;
    for o in &passes {
        for v in &o.violations {
            println!("WRONG: {v}");
        }
        correct &= o.correct();
    }

    let metrics: Vec<(&str, f64, &str)> = match &traced {
        None => untraced.e2e.metrics().to_vec(),
        Some(t) => {
            if let (Some(dir), Some(spans)) = (&args.out_dir, &t.trace) {
                let path = dir.join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
                match spans.write_jsonl(&path) {
                    Ok(()) => {
                        println!("trace: {} spans written to {}", spans.spans.len(), path.display())
                    }
                    Err(e) => println!("trace: could not write {}: {e}", path.display()),
                }
            }
            LAYER_METRICS.iter().map(|&(name, unit)| (name, t.layers.get(name), unit)).collect()
        }
    };
    println!("{}", report::result_line(correct, attempted, failed, &metrics));
    std::process::exit(if correct { 0 } else { 1 });
}
