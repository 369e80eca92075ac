//! The simulated client fleet: an open-loop loopback load generator.
//!
//! One thread drives every connection (pacing *and* receiving) off the
//! same [`Poller`] the server uses. The request schedule is drawn up
//! front by [`workloads::open_loop_arrivals`] — Poisson with optional
//! burst episodes — and each request's latency is measured from its
//! **scheduled** send time, not the actual write: if the server (or this
//! generator) falls behind, the backlog shows up as latency instead of
//! silently thinning the offered load (the coordinated-omission trap).
//!
//! Request ids index the schedule, so a response is matched to its
//! scheduled instant by id alone — connections are free to complete out
//! of order.

use crate::codec::{Request, MAX_KEYS};
use crate::conn::FramedConn;
use crate::poll::{Interest, Poller};
use filter_core::stats;
use filter_core::wire::{OpKind, RespStatus};
use filter_core::{hash64_seeded, Xorwow};
use workloads::{open_loop_arrivals, BurstProfile, ZipfSampler};

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Fleet shape and workload mix.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Loopback connections to open.
    pub connections: usize,
    /// Offered load, requests per second (open loop — independent of the
    /// server keeping up).
    pub rate: f64,
    /// Schedule length.
    pub duration: Duration,
    /// Keys per request frame.
    pub keys_per_request: usize,
    /// Fraction of requests that are inserts (the rest are queries).
    pub insert_fraction: f64,
    /// Zipf coefficient for query key popularity (> 1).
    pub zipf: f64,
    /// Key universe size for queries.
    pub universe: usize,
    /// Optional burst episodes layered on the base rate.
    pub burst: Option<BurstProfile>,
    /// Determinism seed (schedule, keys, op mix).
    pub seed: u64,
    /// How long to keep draining responses after the last send.
    pub drain: Duration,
    /// Send an [`OpKind::Shutdown`] frame after the drain completes.
    pub shutdown_after: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            connections: 64,
            rate: 20_000.0,
            duration: Duration::from_secs(2),
            keys_per_request: 16,
            insert_fraction: 0.25,
            zipf: 1.5,
            universe: 1 << 20,
            burst: None,
            seed: 0x5eed,
            drain: Duration::from_secs(2),
            shutdown_after: false,
        }
    }
}

/// What one fleet run measured.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Requests the schedule offered.
    pub offered: usize,
    /// Requests actually written to a socket.
    pub sent: usize,
    /// `Ok` responses.
    pub ok: usize,
    /// `Shed` responses (admission control turned the request away).
    pub shed: usize,
    /// `Error` responses.
    pub errors: usize,
    /// Requests sent but never answered within the drain window.
    pub unanswered: usize,
    /// Wall-clock from first scheduled send to last response.
    pub wall: Duration,
    /// Per-request end-to-end latency in seconds, measured from the
    /// scheduled send instant, for every answered request.
    pub latencies: Vec<f64>,
}

impl FleetReport {
    fn quantile(&self, q: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        Duration::from_secs_f64(stats::percentile_sorted(&sorted, q))
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency.
    pub fn p999(&self) -> Duration {
        self.quantile(0.999)
    }

    /// Successfully-served request rate (Ok responses over wall time).
    pub fn served_rate(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.ok as f64 / self.wall.as_secs_f64()
    }

    /// Every sent request got some response.
    pub fn complete(&self) -> bool {
        self.unanswered == 0
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "offered {} sent {} | ok {} shed {} err {} unanswered {} | p50 {:?} p99 {:?} p999 {:?} | {:.0} served/s",
            self.offered,
            self.sent,
            self.ok,
            self.shed,
            self.errors,
            self.unanswered,
            self.p50(),
            self.p99(),
            self.p999(),
            self.served_rate(),
        )
    }
}

/// Run one open-loop fleet against a serving tier. Blocks until the
/// schedule is exhausted and the drain window closes.
pub fn run_fleet(cfg: &FleetConfig) -> io::Result<FleetReport> {
    assert!(cfg.connections > 0, "fleet needs at least one connection");
    assert!(
        cfg.keys_per_request > 0 && cfg.keys_per_request <= MAX_KEYS,
        "keys_per_request out of range"
    );

    let offsets = open_loop_arrivals(cfg.rate, cfg.duration, cfg.burst, cfg.seed);
    let offered = offsets.len();

    let poller = Poller::new()?;
    let mut conns = Vec::with_capacity(cfg.connections);
    for i in 0..cfg.connections {
        let sock = TcpStream::connect(cfg.addr)?;
        let conn = FramedConn::new(sock)?;
        poller.add(conn.fd(), i as u64, Interest::READ)?;
        conns.push(conn);
    }

    let mut rng = Xorwow::new(cfg.seed ^ 0x9e3779b97f4a7c15);
    let zipf = ZipfSampler::new(cfg.universe, cfg.zipf);
    let mut insert_cursor: u64 = 0;

    // answered[id] = latency from the scheduled instant, once a response
    // with that id arrives.
    let mut outcome: Vec<Option<RespStatus>> = vec![None; offered];
    let mut latencies: Vec<f64> = Vec::with_capacity(offered);
    let mut sent = 0usize;
    let (mut ok, mut shed, mut errors) = (0usize, 0usize, 0usize);

    let start = Instant::now();
    let mut next = 0usize; // next schedule index to send
    let mut events = Vec::new();
    let mut last_response = start;

    let recv = |conns: &mut Vec<FramedConn>,
                outcome: &mut Vec<Option<RespStatus>>,
                latencies: &mut Vec<f64>,
                ok: &mut usize,
                shed: &mut usize,
                errors: &mut usize,
                last_response: &mut Instant|
     -> io::Result<()> {
        for conn in conns.iter_mut() {
            // EOF/errors here mean the server died mid-run; surface them.
            if !conn.fill()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed a fleet connection",
                ));
            }
            while let Some(resp) = conn
                .next_response()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                let id = resp.id as usize;
                if id >= offsets.len() || outcome[id].is_some() {
                    continue; // duplicate or alien id: ignore
                }
                outcome[id] = Some(resp.status);
                let lat = start.elapsed().saturating_sub(offsets[id]);
                latencies.push(lat.as_secs_f64());
                *last_response = Instant::now();
                match resp.status {
                    RespStatus::Ok => *ok += 1,
                    RespStatus::Shed => *shed += 1,
                    RespStatus::Error => *errors += 1,
                }
            }
        }
        Ok(())
    };

    // Send phase: pace the schedule, receiving opportunistically.
    while next < offered {
        let due = start + offsets[next];
        let now = Instant::now();
        if now < due {
            let gap = due - now;
            if gap > Duration::from_micros(200) {
                poller.wait(&mut events, Some(gap))?;
                recv(
                    &mut conns,
                    &mut outcome,
                    &mut latencies,
                    &mut ok,
                    &mut shed,
                    &mut errors,
                    &mut last_response,
                )?;
            }
            // Sub-200µs gaps spin: sleeping would blur the schedule.
            continue;
        }
        // Compose the request: inserts walk fresh keys, queries draw
        // Zipf-popular ones from the same keyspace.
        let is_insert = (rng.next_u32() as f64 / u32::MAX as f64) < cfg.insert_fraction;
        let op = if is_insert { OpKind::Insert } else { OpKind::Query };
        let mut keys = Vec::with_capacity(cfg.keys_per_request);
        for _ in 0..cfg.keys_per_request {
            let rank = if is_insert {
                insert_cursor += 1;
                insert_cursor
            } else {
                zipf.rank(&mut rng) as u64
            };
            keys.push(hash64_seeded(rank, cfg.seed));
        }
        let conn = &mut conns[next % cfg.connections];
        conn.queue_request(&Request { id: next as u64, op, keys });
        // Push hard; WouldBlock leaves bytes queued for the next pass.
        conn.flush()?;
        sent += 1;
        next += 1;
    }

    // Drain phase: flush stragglers and collect responses until idle.
    let drain_deadline = Instant::now() + cfg.drain;
    loop {
        for conn in conns.iter_mut() {
            if conn.wants_write() {
                conn.flush()?;
            }
        }
        recv(
            &mut conns,
            &mut outcome,
            &mut latencies,
            &mut ok,
            &mut shed,
            &mut errors,
            &mut last_response,
        )?;
        let answered = ok + shed + errors;
        if answered == sent && conns.iter().all(|c| !c.wants_write()) {
            break;
        }
        if Instant::now() >= drain_deadline {
            break;
        }
        poller.wait(&mut events, Some(Duration::from_millis(1)))?;
    }

    let wall = last_response.duration_since(start).max(cfg.duration);

    if cfg.shutdown_after {
        let conn = &mut conns[0];
        conn.queue_request(&Request { id: u64::MAX, op: OpKind::Shutdown, keys: Vec::new() });
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn.wants_write() && Instant::now() < deadline {
            conn.flush()?;
            if conn.wants_write() {
                poller.wait(&mut events, Some(Duration::from_millis(1)))?;
            }
        }
    }

    Ok(FleetReport {
        offered,
        sent,
        ok,
        shed,
        errors,
        unanswered: sent - (ok + shed + errors),
        wall,
        latencies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(latencies: Vec<f64>) -> FleetReport {
        FleetReport {
            offered: latencies.len(),
            sent: latencies.len(),
            ok: latencies.len(),
            shed: 0,
            errors: 0,
            unanswered: 0,
            wall: Duration::from_secs(1),
            latencies,
        }
    }

    #[test]
    fn empty_report_has_zero_quantiles() {
        let r = report(Vec::new());
        assert_eq!((r.p50(), r.p99(), r.p999()), (Duration::ZERO, Duration::ZERO, Duration::ZERO));
    }

    #[test]
    fn one_sample_answers_every_quantile() {
        let r = report(vec![0.25]);
        let want = Duration::from_secs_f64(0.25);
        assert_eq!((r.p50(), r.p99(), r.p999()), (want, want, want));
    }

    #[test]
    fn quantiles_match_the_shared_percentile() {
        // 100 distinct latencies (1..=100 ms) in a scrambled order.
        let lat: Vec<f64> = (0..100u64).map(|i| ((i * 37) % 100 + 1) as f64 * 1e-3).collect();
        let r = report(lat.clone());
        for (got, q) in [(r.p50(), 0.50), (r.p99(), 0.99), (r.p999(), 0.999)] {
            assert_eq!(got, Duration::from_secs_f64(stats::percentile(&lat, q)), "q = {q}");
        }
    }
}
