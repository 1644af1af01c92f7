//! Exact-repeat check: two runs of one seed reproduce every deterministic
//! count — miss totals, scan points, vectors, store hits and writes,
//! sweep evaluations — and every output passes the correctness gate.
//!
//! The second run is traced, so the counts of a traced pass are held to
//! the same standard. Memo-hit counts are recorded but not compared: a
//! pooled session at width > 1 can race two workers onto one memo key,
//! which moves the hit count by a handful without changing any result.

use cme_perfbench::harness::RunConfig;
use cme_perfbench::run;

fn check_repeat(workload: &str) {
    let cfg = |trace| RunConfig {
        seed: 7,
        seconds: 0.0,
        trace,
    };
    let first = run(workload, &cfg(false)).expect("first run");
    let second = run(workload, &cfg(true)).expect("second run");
    for r in [&first, &second] {
        assert_eq!(r.ledger.failed, 0, "{workload}: {:?}", r.ledger.messages);
        assert!(r.ledger.attempted > 0);
    }
    let exact = |r: &cme_perfbench::harness::Report| {
        r.counts
            .iter()
            .filter(|(k, _)| !k.ends_with("memo_hits"))
            .map(|(k, v)| (k.clone(), *v))
            .collect::<Vec<_>>()
    };
    assert!(!exact(&first).is_empty(), "{workload}: no counts recorded");
    assert_eq!(exact(&first), exact(&second), "{workload}: counts differ");
    let racy: Vec<_> = second
        .unstable_counts
        .iter()
        .filter(|k| !k.ends_with("memo_hits"))
        .collect();
    assert!(racy.is_empty(), "{workload}: traced pass moved {racy:?}");
    assert!(second.layers.contains_key("trace.overhead_s"));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "each workload runs several passes; run with --release"
)]
fn cold_uniform_repeats() {
    check_repeat("cold-uniform");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "each workload runs several passes; run with --release"
)]
fn cold_nonuniform_repeats() {
    check_repeat("cold-nonuniform");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "each workload runs several passes; run with --release"
)]
fn layout_search_repeats() {
    check_repeat("layout-search");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "each workload runs several passes; run with --release"
)]
fn serve_replay_repeats() {
    check_repeat("serve-replay");
}

#[test]
fn unknown_workload_is_an_error() {
    let cfg = RunConfig {
        seed: 1,
        seconds: 0.0,
        trace: false,
    };
    assert!(run("no-such-workload", &cfg).is_err());
}
