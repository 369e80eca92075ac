//! Open-loop wire serving: `filter-net` in front of the 2-shard service.
//!
//! The server runs the default adaptive `ServerConfig` over `BulkTcf`
//! shards of 2^21 slots preloaded with every even rank of a 2^22-rank
//! universe. A client drives two loopback connections with Poisson
//! arrivals at a fixed rate, 16 keys per request: 10% of requests
//! insert fresh odd ranks, 90% query Zipf-1.1 ranks, so about half the
//! queried keys are absent and hot keys repeat inside a flush. Each
//! request is timed from its scheduled send, so a stall shows up as
//! latency of the requests behind it.
//!
//! The client checks every per-key verdict: an even rank, or an odd rank
//! whose insert was acknowledged before the query was sent, must read
//! present. The rate is well below what the server sustains, so a shed
//! or error response, a failed insert or an unanswered request also
//! fails the run. `run_fleet` cannot serve here because it discards the
//! per-key results and defaults to 64 connections.

use crate::backend::{Backend, Fault, Target, FLUSH};
use crate::report::{fold, Outcome};
use crate::service::{self, ServiceTotals, Window};
use crate::stats::{mean, median, quantile, ratio, Op, Sample, Timing};
use crate::trace::Tracer;
use filter_core::wire::{OpKind, RespStatus};
use filter_core::{hash64_seeded, Xorwow};
use filter_net::codec::Request;
use filter_net::poll::{Interest, Poller};
use filter_net::{serve, FramedConn, Response, ServerConfig};
use filter_service::{ServiceControl, ShardedFilter};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tcf::BulkTcf;
use workloads::{open_loop_arrivals, ZipfSampler};

/// Span name of one wire request, from scheduled send to decoded response.
pub const REQUEST: &str = "filter-net.request";

/// How long the client waits for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(5);

/// Keys per request of the verification passes after each segment.
const CHECK_BATCH: usize = 1 << 12;

/// Each segment's measured time is split into this many windows; the
/// run reports the median of the per-window figures.
const WINDOWS_PER_SEGMENT: usize = 3;

const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
const KEYS_PER_REQUEST: usize = 16;
const INSERT_FRACTION: f64 = 0.1;
const ZIPF: f64 = 1.1;

#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub shard_slots_log2: u32,
    pub universe_log2: u32,
    /// Offered requests per second.
    pub rate: f64,
    pub segments: usize,
    pub seconds: f64,
    /// Unmeasured open-loop traffic at the start of each segment, while
    /// lazy set-up finishes (verdicts are still checked).
    pub warmup: f64,
    /// Never-inserted keys queried after each segment to measure the
    /// false-positive rate on distinct keys.
    pub probe_keys: usize,
    /// Wrong answer the first shard gives; anything but `None` runs over
    /// the delegating backend.
    pub fault: Fault,
}

impl Params {
    pub fn standard(seed: u64, seconds: f64) -> Params {
        Params {
            seed,
            shard_slots_log2: 21,
            universe_log2: 22,
            rate: 1000.0,
            segments: 3,
            seconds,
            warmup: 1.0,
            probe_keys: 1 << 17,
            fault: Fault::None,
        }
    }
}

pub fn run(p: &Params, tracer: Option<Arc<Tracer>>) -> Outcome {
    if tracer.is_none() && p.fault == Fault::None {
        run_on::<BulkTcf>(p, None)
    } else {
        run_on::<Backend<BulkTcf>>(p, tracer)
    }
}

fn stream(seed: u64, segment: usize, role: u64) -> u64 {
    filter_core::splitmix64(seed ^ ((segment as u64) << 40) ^ role)
}

/// One scheduled request.
struct Planned {
    offset: Duration,
    op: OpKind,
    ranks: Vec<u64>,
}

/// Draw the segment's schedule: arrival offsets, operation and ranks.
/// Inserts walk the odd ranks in a fixed scrambled order, so no key is
/// inserted twice.
fn plan(p: &Params, seg: usize, seconds: f64) -> Vec<Planned> {
    let offsets =
        open_loop_arrivals(p.rate, Duration::from_secs_f64(seconds), None, stream(p.seed, seg, 1));
    let mut rng = Xorwow::new(stream(p.seed, seg, 2));
    let zipf = ZipfSampler::new(1 << p.universe_log2, ZIPF);
    let odd_mask = (1u64 << (p.universe_log2 - 1)) - 1;
    let mut cursor = 0u64;
    offsets
        .into_iter()
        .map(|offset| {
            let insert = (rng.next_u32() as f64) < INSERT_FRACTION * (u32::MAX as f64 + 1.0);
            let ranks = (0..KEYS_PER_REQUEST)
                .map(|_| {
                    if insert {
                        cursor += 1;
                        2 * (cursor.wrapping_mul(0x9e37_79b9) & odd_mask) + 1
                    } else {
                        zipf.rank(&mut rng) as u64
                    }
                })
                .collect();
            Planned { offset, op: if insert { OpKind::Insert } else { OpKind::Query }, ranks }
        })
        .collect()
}

/// Per-segment client results that feed the end-to-end metrics.
#[derive(Default)]
struct Tally {
    /// Answered requests of the current segment's measured window.
    samples: Vec<Sample>,
    timing: Timing,
    late_ms: Vec<f64>,
    linger_us: Vec<f64>,
    /// Distinct never-inserted keys queried, and those answered present.
    absent: usize,
    false_pos: usize,
    sent_keys: usize,
}

fn run_on<B: Target>(p: &Params, tracer: Option<Arc<Tracer>>) -> Outcome {
    let seg_secs = p.seconds / p.segments as f64;
    let key = |rank: u64| hash64_seeded(rank, p.seed);
    let preload: Vec<u64> = (0..1u64 << (p.universe_log2 - 1)).map(|r| key(2 * r)).collect();

    let mut out = Outcome::default();
    let mut totals = ServiceTotals::default();
    let mut tally = Tally::default();
    let (mut setups, mut bits_per_key) = (Vec::new(), Vec::new());
    let (mut shed, mut responses, mut pool_hits, mut pool_gets, mut bytes) = (0, 0, 0, 0, 0);

    for seg in 0..p.segments {
        let schedule = plan(p, seg, p.warmup + seg_secs);
        let probe: Vec<u64> = (0..p.probe_keys as u64)
            .map(|i| key((1 << p.universe_log2) + (seg * p.probe_keys) as u64 + i))
            .collect();

        let t = Instant::now();
        let svc: ShardedFilter<B> = service::build(SHARDS, 1 << p.shard_slots_log2, &tracer);
        let rejected = service::prefill(&svc, &preload);
        out.attempted += preload.len() as u64;
        if rejected > 0 {
            out.failed += rejected as u64;
            out.violation(format!("preload rejected {rejected} keys"));
        }
        let server = serve("127.0.0.1:0", svc.handle(), svc.control(), ServerConfig::default())
            .expect("bind a loopback port");
        let client =
            Client::connect(server.local_addr(), CONNECTIONS).expect("connect to the server");
        setups.push(t.elapsed().as_secs_f64());
        service::arm(&svc, p.fault);

        let keys: Vec<Vec<u64>> =
            schedule.iter().map(|r| r.ranks.iter().map(|&x| key(x)).collect()).collect();
        out.attempted += keys.iter().map(|k| k.len() as u64).sum::<u64>();
        let window = Window::open(&svc);
        let warmup = Duration::from_secs_f64(p.warmup);
        let rx = client.drive(
            &schedule,
            &keys,
            warmup,
            &svc.control(),
            tracer.as_deref(),
            seg,
            &mut tally,
        );
        totals.close(&svc, window);
        let acked = rx.acked;
        out.attempted += rx.out.attempted;
        out.failed += rx.out.failed;
        out.violations.extend(rx.out.violations);
        out.digest ^= rx.out.digest;
        tally.samples = rx.samples;
        tally.absent += rx.absent.len();
        tally.false_pos += rx.false_pos.len();
        let width = seg_secs / WINDOWS_PER_SEGMENT as f64;
        tally.timing.segment(&tally.samples, width, WINDOWS_PER_SEGMENT);
        tally.samples.clear();
        let net = server.stats();
        shed += net.resp_shed;
        responses += net.responses();
        pool_hits += net.pool_hits;
        pool_gets += net.pool_hits + net.pool_misses;
        bytes += net.bytes_in + net.bytes_out;

        // Verification after the measured window: every acknowledged
        // insert must read present, and distinct never-inserted keys
        // measure the false-positive rate.
        match client.query_all(&acked) {
            Ok(v) => {
                for (k, _) in acked.iter().zip(v).filter(|(_, hit)| !hit) {
                    out.wrong_verdict(format!("false negative: acknowledged insert {k:#x}"));
                }
            }
            Err(e) => out.violation(format!("verification requests failed: {e}")),
        }
        out.attempted += acked.len() as u64;
        match client.query_all(&probe) {
            Ok(v) => {
                tally.absent += probe.len();
                tally.false_pos += v.iter().filter(|&&hit| hit).count();
            }
            Err(e) => out.violation(format!("probe requests failed: {e}")),
        }
        bits_per_key.push(svc.table_bytes() as f64 * 8.0 / (preload.len() + acked.len()) as f64);

        drop(client);
        if let Err(e) = server.shutdown() {
            out.violation(format!("server shutdown failed: {e}"));
        }
        svc.shutdown();
    }

    let e = &mut out.e2e;
    e.setup_s = median(&setups);
    e.set_timing(tally.timing.summary());
    e.fp_rate = ratio(tally.false_pos as f64, tally.absent as f64);
    e.bits_per_key = median(&bits_per_key);
    out.check_fp();

    if let Some(tracer) = tracer {
        let l = &mut out.layers;
        l.set("filter-net.linger_us_mean", mean(&tally.linger_us));
        l.set("filter-net.shed_frac", ratio(shed as f64, responses as f64));
        l.set("filter-net.pool_hit_frac", ratio(pool_hits as f64, pool_gets as f64));
        l.set("filter-net.bytes_per_key", ratio(bytes as f64, tally.sent_keys as f64));
        l.set("loadgen.late_ms_p99", quantile(&tally.late_ms, 0.99));
        let tracer = Arc::try_unwrap(tracer).ok().expect("service workers have stopped");
        let mut trace = tracer.finish();
        totals.layers(&mut out.layers, &trace);
        trace.link(REQUEST, FLUSH);
        let self_ms: Vec<f64> =
            trace.self_times(REQUEST).iter().map(|&ns| ns as f64 / 1e6).collect();
        out.layers.set("filter-net.self_ms_p50", median(&self_ms));
        out.trace = Some(trace);
    }
    out
}

/// The benchmark's wire client: `FramedConn`s on one poller. While a
/// segment runs, the calling thread paces the schedule with precise
/// sleeps and a second thread blocks on the poller, so neither a send nor
/// a response's timestamp waits on the other.
struct Client {
    conns: Vec<Mutex<FramedConn>>,
    poller: Poller,
}

/// What the receiving thread found in one segment.
#[derive(Default)]
struct Received {
    out: Outcome,
    samples: Vec<Sample>,
    /// Keys whose inserts were acknowledged.
    acked: Vec<u64>,
    /// Distinct never-inserted keys queried, and those answered present.
    absent: HashSet<u64>,
    false_pos: HashSet<u64>,
}

/// Nanoseconds from `start` to `t`, plus one, so 0 can mean "not yet".
fn stamp(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64 + 1
}

impl Client {
    fn connect(addr: std::net::SocketAddr, n: usize) -> io::Result<Client> {
        let poller = Poller::new()?;
        let mut conns = Vec::with_capacity(n);
        for i in 0..n {
            let conn = FramedConn::new(TcpStream::connect(addr)?)?;
            poller.add(conn.fd(), i as u64, Interest::READ)?;
            conns.push(Mutex::new(conn));
        }
        Ok(Client { conns, poller })
    }

    fn conn(&self, i: usize) -> MutexGuard<'_, FramedConn> {
        self.conns[i % self.conns.len()].lock().expect("a client thread panicked")
    }

    /// Flush queued writes, then read every complete response off every
    /// connection.
    fn recv(&self, sink: &mut Vec<(Response, Instant)>) -> io::Result<()> {
        for i in 0..self.conns.len() {
            let mut conn = self.conn(i);
            if conn.wants_write() {
                conn.flush()?;
            }
            if !conn.fill()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed a connection",
                ));
            }
            while let Some(resp) = conn
                .next_response()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                sink.push((resp, Instant::now()));
            }
        }
        Ok(())
    }

    /// Query `keys` one request at a time and return the verdicts. A
    /// request the server sheds is sent again after a pause.
    fn query_all(&self, keys: &[u64]) -> io::Result<Vec<bool>> {
        let mut verdicts = Vec::with_capacity(keys.len());
        let (mut events, mut responses) = (Vec::new(), Vec::new());
        for (i, chunk) in keys.chunks(CHECK_BATCH).enumerate() {
            let deadline = Instant::now() + DRAIN;
            let mut answer = None;
            while answer.is_none() {
                self.conn(0).queue_request(&Request {
                    id: i as u64,
                    op: OpKind::Query,
                    keys: chunk.to_vec(),
                });
                loop {
                    if Instant::now() > deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "verification response missing",
                        ));
                    }
                    self.recv(&mut responses)?;
                    if let Some((resp, _)) = responses.pop() {
                        match resp.status {
                            RespStatus::Ok if resp.results.len() == chunk.len() => {
                                answer = Some(resp.results)
                            }
                            RespStatus::Shed => std::thread::sleep(Duration::from_millis(10)),
                            status => {
                                return Err(io::Error::other(format!(
                                    "verification request got {status:?}"
                                )))
                            }
                        }
                        break;
                    }
                    self.poller.wait(&mut events, Some(Duration::from_millis(1)))?;
                }
            }
            verdicts.extend(answer.expect("loop exits with an answer"));
        }
        Ok(verdicts)
    }

    /// Send `schedule` open-loop and check every answer.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        schedule: &[Planned],
        keys: &[Vec<u64>],
        warmup: Duration,
        control: &ServiceControl,
        tracer: Option<&Tracer>,
        seg: usize,
        tally: &mut Tally,
    ) -> Received {
        // Which request inserts each inserted key.
        let insert_of: HashMap<u64, usize> = schedule
            .iter()
            .enumerate()
            .filter(|(_, r)| r.op == OpKind::Insert)
            .flat_map(|(i, _)| keys[i].iter().map(move |&k| (k, i)))
            .collect();
        let sent: Vec<AtomicU64> = schedule.iter().map(|_| AtomicU64::new(0)).collect();
        let sending = AtomicBool::new(true);
        let start = Instant::now() + Duration::from_millis(1);
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                self.receive(
                    schedule, keys, &insert_of, warmup, start, &sent, &sending, tracer, seg,
                )
            });
            let mut last_sample = Instant::now();
            let mut failure = None;
            for (i, r) in schedule.iter().enumerate() {
                let due = start + r.offset;
                loop {
                    let now = Instant::now();
                    if now >= last_sample + Duration::from_millis(10) {
                        tally.linger_us.push(control.linger().as_secs_f64() * 1e6);
                        last_sample = now;
                    }
                    if now >= due {
                        break;
                    }
                    std::thread::sleep((due - now).min(Duration::from_millis(10)));
                }
                let mut conn = self.conn(i);
                conn.queue_request(&Request { id: i as u64, op: r.op, keys: keys[i].clone() });
                let at = Instant::now();
                sent[i].store(stamp(start, at), Ordering::SeqCst);
                if let Err(e) = conn.flush() {
                    failure = Some(format!("send failed: {e}"));
                    break;
                }
                if r.offset >= warmup {
                    tally.late_ms.push((at - due).as_secs_f64() * 1e3);
                }
                tally.sent_keys += keys[i].len();
            }
            sending.store(false, Ordering::SeqCst);
            let mut rx = receiver.join().expect("the receiving thread panicked");
            if let Some(f) = failure {
                rx.out.violation(f);
            }
            rx
        })
    }

    /// The receiving side of [`Self::drive`]: timestamp each response,
    /// check its verdicts and keep the measured ones.
    #[allow(clippy::too_many_arguments)]
    fn receive(
        &self,
        schedule: &[Planned],
        keys: &[Vec<u64>],
        insert_of: &HashMap<u64, usize>,
        warmup: Duration,
        start: Instant,
        sent: &[AtomicU64],
        sending: &AtomicBool,
        tracer: Option<&Tracer>,
        seg: usize,
    ) -> Received {
        let mut rx = Received::default();
        let mut acked_at: HashMap<u64, u64> = HashMap::new();
        let mut answered = vec![false; schedule.len()];
        let mut remaining = schedule.len();
        let (mut events, mut responses) = (Vec::new(), Vec::new());
        let mut drain_deadline = None;
        while remaining > 0 {
            if !sending.load(Ordering::SeqCst)
                && Instant::now() >= *drain_deadline.get_or_insert(Instant::now() + DRAIN)
            {
                break;
            }
            let polled = self.poller.wait(&mut events, Some(Duration::from_millis(1)));
            if let Err(e) = polled.and_then(|()| self.recv(&mut responses)) {
                rx.out.violation(format!("client receive failed: {e}"));
                break;
            }
            for (resp, at) in responses.drain(..) {
                let id = resp.id as usize;
                if id >= schedule.len() || answered[id] || sent[id].load(Ordering::SeqCst) == 0 {
                    rx.out.violation(format!("response with unexpected id {id}"));
                    continue;
                }
                answered[id] = true;
                remaining -= 1;
                let (r, ks) = (&schedule[id], &keys[id]);
                let due = start + r.offset;
                if let Some(t) = tracer {
                    t.record(REQUEST, due, at, ((seg as u64) << 40) | id as u64, ks);
                }
                if resp.status != RespStatus::Ok {
                    rx.out.failed += ks.len() as u64;
                    rx.out.violation(format!("request {id} answered {:?}", resp.status));
                    continue;
                }
                if resp.results.len() != ks.len() {
                    rx.out.failed += ks.len() as u64;
                    rx.out.violation(format!(
                        "request {id}: {} verdicts for {} keys",
                        resp.results.len(),
                        ks.len()
                    ));
                    continue;
                }
                if let Some(since) = at.checked_duration_since(start + warmup) {
                    let op = if r.op == OpKind::Insert { Op::Insert } else { Op::Query };
                    let secs = (at - due).as_secs_f64();
                    rx.samples.push(Sample { at: since.as_secs_f64(), op, keys: ks.len(), secs });
                }
                let at = stamp(start, at);
                if r.op == OpKind::Insert {
                    for (&k, &ok) in ks.iter().zip(&resp.results) {
                        if ok {
                            acked_at.insert(k, at);
                            rx.acked.push(k);
                        } else {
                            rx.out.failed += 1;
                            rx.out.violation(format!("insert of {k:#x} in request {id} failed"));
                        }
                    }
                    continue;
                }
                let sent_q = sent[id].load(Ordering::SeqCst);
                for ((&k, &rank), &hit) in ks.iter().zip(&r.ranks).zip(&resp.results) {
                    rx.out.digest = fold(rx.out.digest, hit);
                    let must_hit = rank % 2 == 0 || acked_at.get(&k).is_some_and(|&a| a < sent_q);
                    let never_inserted = insert_of.get(&k).is_none_or(|&i| {
                        let s = sent[i].load(Ordering::SeqCst);
                        s == 0 || s > at
                    });
                    if must_hit && !hit {
                        rx.out
                            .wrong_verdict(format!("false negative: rank {rank} in request {id}"));
                    } else if !must_hit && never_inserted {
                        rx.absent.insert(k);
                        if hit {
                            rx.false_pos.insert(k);
                        }
                    }
                }
            }
        }
        let unanswered: Vec<usize> = (0..schedule.len()).filter(|&i| !answered[i]).collect();
        if !unanswered.is_empty() {
            rx.out.failed += unanswered.iter().map(|&i| keys[i].len() as u64).sum::<u64>();
            rx.out.violation(format!("{} requests unanswered", unanswered.len()));
        }
        rx
    }
}
