//! In-memory span recording for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer:
//! a bulk filter call, a wire request (from its scheduled send to its
//! decoded response) and a backend flush (inside the delegating backend
//! wrapper the traced service runs over). Spans stay in memory while the
//! workload runs and are written out as JSON lines when it ends.
//!
//! A flush serves keys of several requests, so its parents are found
//! after the run: a request is a parent of a flush when the flush lies
//! inside the request's interval and carries one of the request's keys.
//! A layer's self time is its span minus the part of that interval its
//! child spans cover.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Request id shared by the spans of one request (0 for flushes,
    /// which serve many requests; see `parents`).
    pub req: u64,
    /// Keys the call handled.
    pub n_keys: usize,
    /// Indices of the spans that caused this one.
    pub parents: Vec<usize>,
    /// Range of this span's keys in the trace's key log.
    keys: (usize, usize),
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    keys: Vec<u64>,
}

/// Thread-safe span recorder.
pub struct Tracer {
    origin: Instant,
    log: Mutex<Log>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), log: Mutex::new(Log::default()) }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span over `[start, end)` carrying `keys`, which later
    /// link it to its parents; returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        req: u64,
        keys: &[u64],
    ) -> usize {
        self.push(name, start, end, req, keys.len(), keys)
    }

    /// Record a span over `[start, end)` that handled `n_keys` keys
    /// without logging them (for calls too large to copy).
    pub fn record_count(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        req: u64,
        n_keys: usize,
    ) -> usize {
        self.push(name, start, end, req, n_keys, &[])
    }

    fn push(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        req: u64,
        n_keys: usize,
        keys: &[u64],
    ) -> usize {
        let (start, end) = (self.at(start), self.at(end));
        let mut log = self.log.lock().expect("a thread panicked while recording a span");
        let from = log.keys.len();
        log.keys.extend_from_slice(keys);
        let to = log.keys.len();
        log.spans.push(Span {
            name,
            start,
            end,
            req,
            n_keys,
            parents: Vec::new(),
            keys: (from, to),
        });
        log.spans.len() - 1
    }

    /// Stop recording and hand the spans over for analysis.
    pub fn finish(self) -> Trace {
        let log = self.log.into_inner().expect("a thread panicked while recording a span");
        Trace { origin: self.origin, spans: log.spans, keys: log.keys }
    }
}

/// The spans of one finished traced pass.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    keys: Vec<u64>,
}

impl Trace {
    /// Nanoseconds from the tracer's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn keys_of(&self, span: &Span) -> &[u64] {
        &self.keys[span.keys.0..span.keys.1]
    }

    /// Indices of the spans named `name`, in start order.
    pub fn named(&self, name: &str) -> Vec<usize> {
        let mut ids: Vec<usize> =
            (0..self.spans.len()).filter(|&i| self.spans[i].name == name).collect();
        ids.sort_by_key(|&i| self.spans[i].start);
        ids
    }

    /// Link every `child`-named span to the `parent`-named spans whose
    /// interval contains it and that share one of its keys.
    pub fn link(&mut self, parent: &str, child: &str) {
        let parents = self.named(parent);
        let longest = parents.iter().map(|&p| self.spans[p].duration()).max().unwrap_or(0);
        let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
        for &p in &parents {
            for &k in self.keys_of(&self.spans[p]) {
                let list = by_key.entry(k).or_default();
                if list.last() != Some(&p) {
                    list.push(p);
                }
            }
        }
        for c in self.named(child) {
            let (start, end) = (self.spans[c].start, self.spans[c].end);
            let mut found = Vec::new();
            for k in self.keys_of(&self.spans[c]) {
                let Some(list) = by_key.get(k) else { continue };
                let upto = list.partition_point(|&p| self.spans[p].start <= start);
                for &p in list[..upto].iter().rev() {
                    if self.spans[p].start + longest < start {
                        break;
                    }
                    if self.spans[p].end >= end {
                        found.push(p);
                    }
                }
            }
            found.sort_unstable();
            found.dedup();
            self.spans[c].parents = found;
        }
    }

    /// Self time of every span named `parent`: its duration minus the
    /// union of its children's intervals, in the order of [`Self::named`].
    pub fn self_times(&self, parent: &str) -> Vec<u64> {
        let parents = self.named(parent);
        let slot: HashMap<usize, usize> =
            parents.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); parents.len()];
        for s in &self.spans {
            for p in &s.parents {
                if let Some(&i) = slot.get(p) {
                    children[i].push((s.start, s.end));
                }
            }
        }
        parents
            .iter()
            .zip(children)
            .map(|(&p, kids)| {
                let span = &self.spans[p];
                span.duration() - covered(span.start, span.end, kids)
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parents: Vec<String> = s.parents.iter().map(|p| p.to_string()).collect();
            let parent = s.parents.first().map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"parents\":[{}],\"req\":{},\"keys\":{}}}",
                s.name,
                s.start,
                s.end,
                parents.join(","),
                s.req,
                s.n_keys
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
pub fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(
            covered(10, 100, vec![(0, 20), (15, 30), (50, 60), (90, 200)]),
            10 + 10 + 10 + 10
        );
        assert_eq!(covered(0, 10, vec![]), 0);
    }

    #[test]
    fn flushes_link_to_the_requests_that_share_a_key() {
        let t = Tracer::new();
        let o = Instant::now();
        let at = |us| o + Duration::from_micros(us);
        let a = t.record("call", at(0), at(100), 1, &[1, 2]);
        let b = t.record("call", at(10), at(50), 2, &[3]);
        t.record("flush", at(20), at(40), 0, &[1, 3]);
        t.record("flush", at(60), at(70), 0, &[3]); // outside call 2's interval
        let mut trace = t.finish();
        trace.link("call", "flush");
        assert_eq!(trace.spans[2].parents, vec![a, b]);
        assert!(trace.spans[3].parents.is_empty());
        assert_eq!(trace.self_times("call"), vec![80_000, 20_000]);
    }
}
