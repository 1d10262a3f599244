//! Random litmus validation (the paper's §5 methodology): every litmus
//! test, under random interleavings and random crash injection, must
//! never observe a strict-serializability violation on the fixed
//! protocols.

use pandora::ProtocolKind;
use pandora_litmus::harness::{run_random, LitmusConfig};
use pandora_litmus::suite;

fn validate(protocol: ProtocolKind, iterations: u32, crashes: bool) {
    for test in suite::all_tests() {
        let mut cfg = LitmusConfig::new(protocol);
        cfg.iterations = iterations;
        cfg.inject_crashes = crashes;
        cfg.seed = 0xD15EA5E ^ test.name.len() as u64;
        let outcome = run_random(&test, &cfg);
        assert!(
            outcome.ok(),
            "{:?} {}: {} violations, first: {}",
            protocol,
            test.name,
            outcome.violations.len(),
            outcome.violations.first().map(String::as_str).unwrap_or("")
        );
    }
}

#[test]
fn pandora_passes_all_litmus_without_crashes() {
    validate(ProtocolKind::Pandora, 12, false);
}

#[test]
fn pandora_passes_all_litmus_with_crashes() {
    validate(ProtocolKind::Pandora, 24, true);
}

#[test]
fn baseline_passes_all_litmus_with_crashes() {
    validate(ProtocolKind::Ford, 24, true);
}

#[test]
fn traditional_passes_all_litmus_with_crashes() {
    validate(ProtocolKind::Traditional, 24, true);
}

#[test]
fn random_harness_reports_activity() {
    let cfg = LitmusConfig::new(ProtocolKind::Pandora);
    let outcome = run_random(&suite::litmus1(), &cfg);
    assert_eq!(outcome.iterations, cfg.iterations);
    assert!(outcome.committed > 0, "some transactions must commit");
    assert!(outcome.crashes_injected > 0);
    assert!(outcome.recoveries_run > 0);
}

#[test]
fn random_harness_catches_covert_locks_bug() {
    // The framework itself (not just the directed scenarios) finds the
    // easiest-to-hit bug within a modest budget.
    let mut cfg = LitmusConfig::new(ProtocolKind::Ford);
    cfg.bugs = pandora::BugFlags { covert_locks: true, ..pandora::BugFlags::none() };
    cfg.inject_crashes = false;
    cfg.iterations = 60;
    // Sleep-scale latency interleaves the two commits even on one core.
    cfg.latency =
        rdma_sim::LatencyModel { rtt: std::time::Duration::from_micros(300), ns_per_kib: 0 };
    let outcome = run_random(&suite::litmus2(), &cfg);
    assert!(
        !outcome.ok(),
        "60 random latency-injected iterations should expose the covert-locks bug"
    );
    // A violation report carries the interleaved protocol trace for
    // debugging (the on-demand history of paper §5).
    let report = &outcome.violations[0];
    assert!(report.contains("protocol trace"), "violation must embed the trace: {report}");
    assert!(report.contains("Committed"), "trace must show the conflicting commits");
}

#[test]
fn violation_report_holds_one_dump_that_names_the_lock_conflict() {
    use pandora_litmus::model::{Expr, LitmusTest, Op, TxnProgram, X};

    // Two blind writers of X and a check that always objects: every
    // iteration yields a report, and under sleep-scale latency the two
    // lock CASes race, so the loser's history holds a `LockConflict`.
    let write_x =
        |name, v| TxnProgram { name, ops: vec![Op::Write { var: X, expr: Expr::Const(v) }] };
    let contended = LitmusTest {
        name: "forced-violation",
        init: vec![(X, 0)],
        observed: vec![X],
        txns: vec![write_x("T1", 1), write_x("T2", 2)],
        check: |_| Err("forced".into()),
    };
    let mut cfg = LitmusConfig::new(ProtocolKind::Pandora);
    cfg.inject_crashes = false;
    cfg.iterations = 16;
    cfg.latency =
        rdma_sim::LatencyModel { rtt: std::time::Duration::from_micros(300), ns_per_kib: 0 };
    let outcome = run_random(&contended, &cfg);
    assert_eq!(outcome.violations.len(), 16);
    for report in &outcome.violations {
        assert_eq!(report.matches("--- ").count(), 1, "one dump per report: {report}");
    }
    // `… coordinator <loser> … LockConflict { table: …, key: 1, owner: <winner> }`
    let (report, conflict) = outcome
        .violations
        .iter()
        .find_map(|r| r.lines().find(|l| l.contains("LockConflict")).map(|l| (r, l)))
        .expect("16 racing iterations without one lock conflict");
    let field = |name: &str| -> u64 {
        let rest = conflict[conflict.find(name).expect(name) + name.len()..].trim_start();
        rest.split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
    };
    let (loser, owner) = (field("coordinator"), field("owner:"));
    assert_eq!(field("key:"), X.0, "{conflict}");
    assert_ne!(owner, loser, "a transaction does not conflict with itself: {conflict}");
    assert!(
        report.contains(&format!("coordinator {owner} ")),
        "the owner is the other participant: {report}"
    );
}
