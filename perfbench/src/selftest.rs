//! Small-size runs of every workload showing that each verdict check
//! trips on a wrong answer and that tracing leaves verdicts unchanged.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::backend::Fault;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{bulk, wire};
use std::sync::{Arc, Mutex, MutexGuard};

/// gpu-sim counters are process-wide, so the tests run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_bulk(kind: bulk::Kind, fault: Fault) -> bulk::Params {
    bulk::Params {
        kind,
        seed: 3,
        slots_log2: 14,
        batch: 1 << 10,
        query_calls: 4,
        seconds: 0.0,
        fault,
    }
}

fn small_wire(fault: Fault) -> wire::Params {
    wire::Params {
        seed: 7,
        shard_slots_log2: 13,
        universe_log2: 14,
        rate: 2000.0,
        segments: 1,
        seconds: 0.5,
        warmup: 0.1,
        probe_keys: 1 << 12,
        fault,
    }
}

const KINDS: [bulk::Kind; 2] = [bulk::Kind::Tcf, bulk::Kind::Gqf];

fn traced<F: FnOnce(Option<Arc<Tracer>>) -> Outcome>(run: F) -> Outcome {
    run(Some(Arc::new(Tracer::new())))
}

fn assert_clean(o: &Outcome) {
    assert!(o.correct(), "unexpected violations: {:?}", o.violations);
    assert_eq!(o.failed, 0);
    assert!(o.attempted > 0);
}

fn assert_measured(o: &Outcome) {
    for (name, value, _) in o.e2e.metrics() {
        assert!(value > 0.0, "end-to-end metric {name} reads {value}");
    }
}

/// The run failed, and a violation message contains `what`.
fn assert_tripped(o: &Outcome, what: &str) {
    assert!(!o.correct(), "the check for {what} did not trip");
    assert!(
        o.violations.iter().any(|v| v.contains(what)),
        "no violation mentions {what}: {:?}",
        o.violations
    );
}

#[test]
fn bulk_runs_are_correct_and_tracing_keeps_verdicts() {
    let _serial = serial();
    for kind in KINDS {
        let p = small_bulk(kind, Fault::None);
        let plain = bulk::run(&p, None);
        assert_clean(&plain);
        assert_measured(&plain);
        let t = traced(|tr| bulk::run(&p, tr));
        assert_clean(&t);
        assert_eq!(plain.digest, t.digest, "{kind:?}: traced verdicts differ");
        let spans = t.trace.as_ref().expect("traced pass keeps its spans");
        assert!(spans.spans.len() >= 2 * 16, "one span per bulk call");
    }
}

#[test]
fn bulk_counts_repeat_for_a_seed() {
    let _serial = serial();
    for (kind, k) in [(bulk::Kind::Tcf, "tcf"), (bulk::Kind::Gqf, "gqf")] {
        let p = small_bulk(kind, Fault::None);
        let (a, b) = (bulk::run(&p, None), bulk::run(&p, None));
        for phase in ["insert", "query"] {
            let name = format!("gpu-sim.{k}.{phase}.lines_per_key");
            assert!(a.layers.get(&name) > 0.0, "{name}");
            assert_eq!(a.layers.get(&name), b.layers.get(&name), "{name}");
            let name = format!("gpu-sim.{k}.{phase}.cg_steps_per_key");
            assert_eq!(a.layers.get(&name), b.layers.get(&name), "{name}");
        }
        let name = format!("{k}.load_factor");
        assert_eq!(a.layers.get(&name), b.layers.get(&name), "{name}");
        assert_eq!(a.layers.get("tcf.spill_frac"), b.layers.get("tcf.spill_frac"));
        assert_eq!(a.e2e.fp_rate, b.e2e.fp_rate, "{kind:?} fp_rate");
        assert_eq!(a.e2e.bits_per_key, b.e2e.bits_per_key, "{kind:?} bits_per_key");
        assert_eq!(a.digest, b.digest, "{kind:?} verdicts");
    }
}

#[test]
fn bulk_checks_trip_on_a_dropped_insert() {
    let _serial = serial();
    for kind in KINDS {
        let o = bulk::run(&small_bulk(kind, Fault::DropInsert), None);
        assert_tripped(&o, "false negative");
        assert!(o.failed > 0, "{kind:?}: the wrong verdict is not counted as failed");
    }
}

#[test]
fn bulk_checks_trip_on_a_flipped_query() {
    let _serial = serial();
    for kind in KINDS {
        let o = bulk::run(&small_bulk(kind, Fault::FlipQuery), None);
        assert_tripped(&o, "false negative");
        assert!(o.failed > 0, "{kind:?}: the wrong verdict is not counted as failed");
    }
}

#[test]
fn bulk_counts_a_reported_insert_failure_without_failing_the_run() {
    let _serial = serial();
    for kind in KINDS {
        // The key whose insert was reported failed reads absent; that miss
        // is allowed, and the failure is counted.
        let o = bulk::run(&small_bulk(kind, Fault::FailInsert), None);
        assert!(o.correct(), "{kind:?}: unexpected violations: {:?}", o.violations);
        assert_eq!(o.failed, 2, "{kind:?}: one failed insert per cycle is not counted");
    }
}

#[test]
fn bulk_checks_trip_on_a_high_false_positive_rate() {
    let _serial = serial();
    for kind in KINDS {
        let o = bulk::run(&small_bulk(kind, Fault::AllPresent), None);
        assert_tripped(&o, "false-positive rate");
        assert_eq!(o.e2e.fp_rate, 1.0);
    }
}

#[test]
fn wire_run_is_correct_and_traced() {
    let _serial = serial();
    let plain = wire::run(&small_wire(Fault::None), None);
    assert_clean(&plain);
    assert_measured(&plain);
    let t = traced(|tr| wire::run(&small_wire(Fault::None), tr));
    assert_clean(&t);
    assert!(t.layers.get("filter-net.self_ms_p50") > 0.0);
    assert!(t.layers.get("filter-net.bytes_per_key") > 0.0);
    assert!(t.layers.get("tcf.flush.keys_per_call") > 0.0);
}

#[test]
fn wire_checks_trip_on_a_dropped_insert() {
    let _serial = serial();
    let o = wire::run(&small_wire(Fault::DropInsert), None);
    assert_tripped(&o, "false negative");
}

#[test]
fn wire_checks_trip_on_a_flipped_query() {
    let _serial = serial();
    let o = wire::run(&small_wire(Fault::FlipQuery), None);
    assert_tripped(&o, "false negative");
}

#[test]
fn wire_checks_trip_on_a_failed_insert() {
    let _serial = serial();
    let o = wire::run(&small_wire(Fault::FailInsert), None);
    assert_tripped(&o, "failed");
    assert!(o.failed > 0);
}

#[test]
fn wire_checks_trip_on_a_high_false_positive_rate() {
    let _serial = serial();
    let o = wire::run(&small_wire(Fault::AllPresent), None);
    assert_tripped(&o, "false-positive rate");
}
