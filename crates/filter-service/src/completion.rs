//! The one completion path every request takes back to its caller.
//!
//! A [`Completion`] holds one result slot per key of a request plus the
//! `remaining` and `aborted` counts, and a waiter: either a parked caller
//! (the blocking calls and `barrier`) or a [`BatchCallback`]
//! (`submit_batch`, the network reactor's path). A request is split into
//! one [`Claim`] per shard it touches; the shard worker answers a claim's
//! keys under a single lock acquisition. A claim dropped unanswered (its
//! task died on a stopped queue, or its worker went away) aborts its
//! slots, so no parked caller hangs and a callback fires exactly once.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Aggregate result of an asynchronously submitted batch
/// ([`ServiceHandle::submit_batch`](crate::ServiceHandle::submit_batch)),
/// delivered to the completion callback once every key of the batch has
/// flushed.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-key answers in submission order — insert: accepted, query:
    /// possibly present, delete: removed.
    pub results: Vec<bool>,
    /// Keys whose worker disappeared before answering (service stopped
    /// mid-flight); their result slots read `false`.
    pub aborted: usize,
}

/// Completion callback of an asynchronously submitted batch.
pub(crate) type BatchCallback = Box<dyn FnOnce(BatchReport) + Send + 'static>;

/// Result slots of one request plus its waiter; see the module docs.
pub(crate) struct Completion {
    state: Mutex<State>,
    cv: Condvar,
}

struct State {
    results: Vec<bool>,
    remaining: usize,
    aborted: usize,
    /// `Some` for a callback waiter until it fires; `None` for a parked
    /// one, which is woken through the condvar instead.
    on_done: Option<BatchCallback>,
}

impl Completion {
    fn with_waiter(n: usize, on_done: Option<BatchCallback>) -> Arc<Self> {
        Arc::new(Completion {
            state: Mutex::new(State { results: vec![false; n], remaining: n, aborted: 0, on_done }),
            cv: Condvar::new(),
        })
    }

    /// `n` slots answered to a caller parked in [`Self::wait`].
    pub(crate) fn parked(n: usize) -> Arc<Self> {
        Self::with_waiter(n, None)
    }

    /// `n` slots answered by firing `on_done` on whichever thread settles
    /// the last slot (outside the lock).
    pub(crate) fn callback(n: usize, on_done: BatchCallback) -> Arc<Self> {
        Self::with_waiter(n, Some(on_done))
    }

    /// A claim on `slots` (positions in the result vector).
    pub(crate) fn claim(self: &Arc<Self>, slots: Vec<u32>) -> Claim {
        Claim { completion: Arc::clone(self), slots }
    }

    // Poison-tolerant: every update leaves the state valid (the callback
    // runs unlocked), so a panic elsewhere must not strand the request's
    // other claims.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Settle `slots` under one lock acquisition: write `values` (or count
    /// the slots aborted when `None`) and, if they were the last ones,
    /// wake the parked caller or fire the callback.
    fn settle(&self, slots: &[u32], values: Option<&mut dyn Iterator<Item = bool>>) {
        let mut s = self.lock();
        match values {
            Some(values) => {
                for (&slot, v) in slots.iter().zip(values) {
                    s.results[slot as usize] = v;
                }
            }
            None => s.aborted += slots.len(),
        }
        s.remaining -= slots.len();
        if s.remaining > 0 {
            return;
        }
        let Some(cb) = s.on_done.take() else {
            self.cv.notify_all();
            return;
        };
        let report = BatchReport { results: std::mem::take(&mut s.results), aborted: s.aborted };
        drop(s);
        cb(report);
    }

    /// Park until every slot is settled.
    pub(crate) fn wait(&self) -> BatchReport {
        let mut s = self.lock();
        while s.remaining > 0 {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        BatchReport { results: std::mem::take(&mut s.results), aborted: s.aborted }
    }
}

/// One shard's share of a request: the result slots its keys answer.
/// Dropping an unfulfilled claim aborts its slots.
pub(crate) struct Claim {
    completion: Arc<Completion>,
    slots: Vec<u32>,
}

impl Claim {
    /// Answer the claim's slots in order from `values`.
    pub(crate) fn fulfil(mut self, values: impl IntoIterator<Item = bool>) {
        let slots = std::mem::take(&mut self.slots);
        self.completion.settle(&slots, Some(&mut values.into_iter()));
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if !self.slots.is_empty() {
            self.completion.settle(&self.slots, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parked_waiter_wakes_with_unfulfilled_slots_aborted() {
        let c = Completion::parked(5);
        let answered = c.claim(vec![0, 3]);
        let dropped = [c.claim(vec![1, 4]), c.claim(vec![2])];
        answered.fulfil([true, true]);
        let waiter = std::thread::spawn({
            let c = Arc::clone(&c);
            move || c.wait()
        });
        drop(dropped);
        let report = waiter.join().unwrap();
        assert_eq!(report.aborted, 3);
        assert_eq!(report.results, vec![true, false, false, true, false]);
    }

    #[test]
    fn callback_fires_once_when_the_last_claim_drops_on_another_thread() {
        let fired = Arc::new(AtomicUsize::new(0));
        let aborted = Arc::new(AtomicUsize::new(usize::MAX));
        let c = Completion::callback(4, {
            let (fired, aborted) = (Arc::clone(&fired), Arc::clone(&aborted));
            Box::new(move |r: BatchReport| {
                fired.fetch_add(1, Ordering::SeqCst);
                aborted.store(r.aborted, Ordering::SeqCst);
            })
        });
        let (first, last) = (c.claim(vec![0, 1]), c.claim(vec![2, 3]));
        drop(c);
        first.fulfil([true, false]);
        assert_eq!(fired.load(Ordering::SeqCst), 0, "fired before every slot settled");
        std::thread::spawn(move || drop(last)).join().unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(aborted.load(Ordering::SeqCst), 2);
    }
}
