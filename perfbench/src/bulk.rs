//! Bulk ingest at 90% load: the paper's operating regime (Figs. 3-4).
//!
//! One caller builds a filter of 2^22 slots from `FilterSpec`, fills it
//! to 90% load in 2^16-key `bulk_insert` calls, then issues 2^16-key
//! `bulk_query` calls whose keys alternate between inserted and
//! never-inserted. Each cycle rebuilds the filter and repeats the same
//! fill, so cycles measure identical work. The fill time is the sum over
//! the fill's 2^16-key calls of each call's median time across cycles;
//! query rate and latency are medians over the query calls of every
//! cycle. A host stall touching a few calls thus moves no reported
//! figure. The query window walks through the
//! inserted keys from cycle to cycle, so a long run checks every inserted
//! key.

use crate::backend::{Backend, Fault, Target};
use crate::report::{fold, Layers, Outcome, EPS};
use crate::stats::{median, quantile, ratio, TimingSummary};
use crate::trace::Tracer;
use filter_core::{hashed_keys, BulkFilter, FilterSpec};
use gpu_sim::metrics::{self, Counters};
use gpu_sim::{cost, Counter, Device, KernelStats};
use gqf::{BulkGqf, REGION_SLOTS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcf::BulkTcf;

/// Salt that separates the never-inserted key stream from the inserted one.
const ABSENT_SALT: u64 = 0xab5e_47ab_5e47;

/// Filters built per cycle to time set-up; the last one is filled. A
/// single build takes well under a millisecond and depends on where the
/// allocator finds the table, so one sample per cycle is too few.
const SETUP_REPEATS: usize = 8;

/// Cycles run even when `seconds` has passed.
const MIN_CYCLES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tcf,
    Gqf,
}

#[derive(Debug, Clone)]
pub struct Params {
    pub kind: Kind,
    pub seed: u64,
    /// log2 of the table's slot count.
    pub slots_log2: u32,
    /// Keys per bulk call.
    pub batch: usize,
    /// Query calls per cycle.
    pub query_calls: usize,
    /// Time after which no new cycle starts.
    pub seconds: f64,
    /// Wrong answer the filter gives; anything but `None` runs over the
    /// delegating backend.
    pub fault: Fault,
}

impl Params {
    /// The paper's configuration. A cycle's 32 query calls take about as
    /// long as the GQF's fill, and a TCF cycle stays short enough that a
    /// run's share of a few seconds holds two cycles.
    pub fn paper(kind: Kind, seed: u64, seconds: f64) -> Params {
        Params {
            kind,
            seed,
            slots_log2: 22,
            batch: 1 << 16,
            query_calls: 32,
            seconds,
            fault: Fault::None,
        }
    }
}

/// Host threads the device model credits the bulk kernels with (one per
/// TCF block; one per GQF region pair).
fn active_threads(kind: Kind, slots: u64) -> u64 {
    match kind {
        Kind::Tcf => (slots / 128).max(1),
        Kind::Gqf => (slots / REGION_SLOTS as u64).max(1) / 2,
    }
}

/// gpu-sim counts of one phase, per key, priced by the cost model, as
/// the per-layer metrics under `prefix`.
fn kernel_metrics(
    layers: &mut Layers,
    prefix: &str,
    kind: Kind,
    f: &dyn BulkFilter,
    counters: Counters,
    wall: Duration,
    keys: usize,
) {
    let lines = counters.get(Counter::LinesLoaded) + counters.get(Counter::LinesStored);
    layers.set(&format!("{prefix}.lines_per_key"), ratio(lines as f64, keys as f64));
    let steps = counters.get(Counter::CgSteps);
    layers.set(&format!("{prefix}.cg_steps_per_key"), ratio(steps as f64, keys as f64));
    let stats = KernelStats {
        counters,
        wall,
        items: keys as u64,
        cg_size: 1,
        active_threads: active_threads(kind, f.capacity_slots()),
    };
    let device = Device::cori();
    let footprint = f.table_bytes() as u64;
    let modeled = cost::estimate(&stats, device.profile(), footprint).throughput;
    layers.set(&format!("{prefix}.modeled_keys_per_s"), modeled);
}

pub fn run(p: &Params, tracer: Option<Arc<Tracer>>) -> Outcome {
    match (p.kind, p.fault) {
        (Kind::Tcf, Fault::None) => run_on::<BulkTcf>(p, tracer),
        (Kind::Tcf, _) => run_on::<Backend<BulkTcf>>(p, tracer),
        (Kind::Gqf, Fault::None) => run_on::<BulkGqf>(p, tracer),
        (Kind::Gqf, _) => run_on::<Backend<BulkGqf>>(p, tracer),
    }
}

fn run_on<F: Target>(p: &Params, tracer: Option<Arc<Tracer>>) -> Outcome {
    let n = ((1u64 << p.slots_log2) as f64 * 0.9) as usize;
    let spec = FilterSpec::items(n as u64).fp_rate(EPS);
    let half = p.batch / 2;
    let inserted = hashed_keys(p.seed, n);
    let absent = hashed_keys(p.seed ^ ABSENT_SALT, p.query_calls * half);
    let (k, insert_span, query_span) = match p.kind {
        Kind::Tcf => ("tcf", "tcf.bulk_insert", "tcf.bulk_query"),
        Kind::Gqf => ("gqf", "gqf.bulk_insert", "gqf.bulk_query"),
    };

    let mut out = Outcome::default();
    let mut setups = Vec::new();
    // Per cycle, the time of each insert call; per query call, its rate
    // and latency.
    let (mut fill_secs, mut query_rates, mut query_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut insert_time, mut query_time, mut insert_keys, mut query_keys) = (0.0, 0.0, 0, 0);
    let (mut false_pos, mut absent_queried) = (0u64, 0u64);
    let mut tail_time = 0.0; // last decile of each fill
    let mut tail_keys = 0usize;
    let calls = n.div_ceil(p.batch);
    let tail_from = calls - calls.div_ceil(10);
    let mut query = vec![0u64; p.batch];
    let mut verdicts = vec![false; p.batch];

    let start = Instant::now();
    let mut cycle = 0;
    while cycle < MIN_CYCLES || start.elapsed().as_secs_f64() < p.seconds {
        let mut built = None;
        for _ in 0..SETUP_REPEATS {
            drop(built.take());
            let t = Instant::now();
            built = Some(F::make(&spec, None).expect("the filter spec is valid"));
            setups.push(t.elapsed().as_secs_f64());
        }
        let f = built.expect("SETUP_REPEATS is positive");
        f.arm(p.fault);

        let mut fill_time = 0.0;
        let mut call_secs = Vec::with_capacity(calls);
        let mut insert_failures = 0;
        let before = metrics::snapshot();
        for (i, chunk) in inserted.chunks(p.batch).enumerate() {
            let t0 = Instant::now();
            let result = f.bulk_insert(chunk);
            let t1 = Instant::now();
            if let Some(tr) = &tracer {
                tr.record_count(insert_span, t0, t1, cycle as u64, chunk.len());
            }
            let secs = (t1 - t0).as_secs_f64();
            fill_time += secs;
            call_secs.push(secs);
            if i >= tail_from {
                tail_time += secs;
                tail_keys += chunk.len();
            }
            out.attempted += chunk.len() as u64;
            match result {
                Ok(failed) => insert_failures += failed,
                Err(e) => {
                    insert_failures += chunk.len();
                    out.violation(format!("bulk_insert returned {e}"));
                }
            }
        }
        out.failed += insert_failures as u64;
        let fill_counters = metrics::snapshot().since(&before);
        insert_time += fill_time;
        fill_secs.push(call_secs);
        insert_keys += n;

        // A key whose insert failed may read absent; any other absent
        // inserted key is a false negative.
        let mut misses_allowed = insert_failures;
        let mut phase_time = 0.0;
        let before = metrics::snapshot();
        for j in 0..p.query_calls {
            let base = (cycle * p.query_calls + j) * half;
            for i in 0..half {
                query[2 * i] = inserted[(base + i) % n];
                query[2 * i + 1] = absent[j * half + i];
            }
            let t0 = Instant::now();
            f.bulk_query(&query, &mut verdicts);
            let t1 = Instant::now();
            if let Some(tr) = &tracer {
                tr.record_count(query_span, t0, t1, cycle as u64, query.len());
            }
            let secs = (t1 - t0).as_secs_f64();
            phase_time += secs;
            query_rates.push(ratio(query.len() as f64, secs));
            query_ms.push(secs * 1e3);
            out.attempted += query.len() as u64;
            for i in 0..half {
                if !verdicts[2 * i] {
                    if misses_allowed > 0 {
                        misses_allowed -= 1;
                    } else {
                        out.wrong_verdict(format!(
                            "false negative: inserted key {:#x}",
                            query[2 * i]
                        ));
                    }
                }
                false_pos += verdicts[2 * i + 1] as u64;
            }
            absent_queried += half as u64;
            out.digest = verdicts.iter().fold(out.digest, |d, &v| fold(d, v));
        }
        let query_counters = metrics::snapshot().since(&before);
        query_time += phase_time;
        query_keys += p.query_calls * p.batch;

        if cycle == 0 {
            // The first cycle's counts repeat exactly for a fixed seed.
            let l = &mut out.layers;
            let fill_wall = Duration::from_secs_f64(fill_time);
            let ins = format!("gpu-sim.{k}.insert");
            kernel_metrics(l, &ins, p.kind, &f, fill_counters, fill_wall, n);
            let query_wall = Duration::from_secs_f64(phase_time);
            let qry = format!("gpu-sim.{k}.query");
            let queried = query.len() * p.query_calls;
            kernel_metrics(l, &qry, p.kind, &f, query_counters, query_wall, queried);
            f.record_load(l, n);
            out.e2e.bits_per_key = f.table_bytes() as f64 * 8.0 / (n - insert_failures) as f64;
        }
        cycle += 1;
    }

    out.layers.set(&format!("{k}.insert.ns_per_key"), insert_time * 1e9 / insert_keys as f64);
    out.layers.set(&format!("{k}.query.ns_per_key"), query_time * 1e9 / query_keys as f64);
    out.layers.set(&format!("{k}.insert.ns_per_key_at_90"), tail_time * 1e9 / tail_keys as f64);

    let fill_s: f64 = (0..calls)
        .map(|i| median(&fill_secs.iter().map(|c: &Vec<f64>| c[i]).collect::<Vec<_>>()))
        .sum();
    let insert_rate = ratio(n as f64, fill_s);
    let query_rate = median(&query_rates);
    // One cycle's keys over the time it takes at the median fill and the
    // median query call rate.
    let cycle_keys = n + p.query_calls * p.batch;
    let cycle_secs = fill_s + (p.query_calls * p.batch) as f64 / query_rate;
    let e = &mut out.e2e;
    e.setup_s = median(&setups);
    e.set_timing(TimingSummary {
        insert_keys_per_s: insert_rate,
        query_keys_per_s: query_rate,
        keys_per_s: ratio(cycle_keys as f64, cycle_secs),
        p50_ms: median(&query_ms),
        p90_ms: quantile(&query_ms, 0.9),
        p99_ms: quantile(&query_ms, 0.99),
        query_calls: query_ms.len(),
    });
    e.fp_rate = ratio(false_pos as f64, absent_queried as f64);
    out.check_fp();
    out.trace = tracer
        .map(|t| Arc::try_unwrap(t).ok().expect("the caller holds no other reference").finish());
    out
}
