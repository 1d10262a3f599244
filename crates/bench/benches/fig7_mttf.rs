//! **Figure 7** — Steady-state throughput of Pandora while varying the
//! Mean Time To Failure.
//!
//! The paper repeatedly crashes (then respawns) half the coordinators
//! with MTTF ∈ {∞, 10 s, 2 s, 1 s} and shows the throughput is
//! essentially unchanged (0.911 / 0.912 / 0.901 / 0.911 MTps): PILL's
//! under-failure overhead — stealing stray locks — is amortized away.
//! Run lengths and MTTFs are scaled to this host (DESIGN.md §1).

use std::sync::Arc;
use std::time::{Duration, Instant};

use pandora::ProtocolKind;
use pandora_bench::{
    cfg, failover_latency, micro_default, print_table, window_mean, FailoverSpec, FaultKind,
    DEFAULT_COORDINATORS,
};
use pandora_workloads::{build_cluster, inject_fault, RunnerConfig, WorkloadRunner};

fn run_with_mttf(mttf: Option<Duration>, duration: Duration) -> (f64, usize, u64) {
    let bench = Arc::new(micro_default());
    // RTT-dominated regime for stable comparisons (see fig6).
    let cluster =
        build_cluster(bench.as_ref(), cfg(ProtocolKind::Pandora), failover_latency(), None, None);
    let mut runner = WorkloadRunner::spawn(
        cluster,
        bench,
        RunnerConfig { coordinators: DEFAULT_COORDINATORS, seed: 17, ..RunnerConfig::default() },
    );
    let sampler = runner.timeline_sampler(Duration::from_millis(100));
    // One failure "generation" (paper: "stopped (then recovered) half of
    // the coordinators"): crash half, recover, respawn.
    let generation = FailoverSpec {
        fault: FaultKind::ComputeCrash { fraction: 0.5 },
        respawn: true,
        ..Default::default()
    };
    let t0 = Instant::now();
    let mut failures = 0usize;
    if let Some(mttf) = mttf {
        while t0.elapsed() + mttf < duration {
            std::thread::sleep(mttf);
            failures += inject_fault(&mut runner, &generation).crashed.len();
        }
    }
    let remaining = duration.saturating_sub(t0.elapsed());
    std::thread::sleep(remaining);
    let samples = sampler.finish();
    let stats = runner.stop_and_join();
    let stolen: u64 = stats.iter().map(|s| s.locks_stolen).sum();
    (window_mean(&samples, Duration::from_secs(1), duration), failures, stolen)
}

fn main() {
    println!("# Figure 7 — Pandora steady-state throughput vs MTTF");
    println!("# paper: 0.911 (no failures) / 0.912 (10s) / 0.901 (2s) / 0.911 (1s) MTps");
    println!("# → PILL under failures costs ~nothing; scaled MTTFs on this host\n");
    let duration = Duration::from_secs(6);
    let cases: [(&str, Option<Duration>); 4] = [
        ("no failures", None),
        ("MTTF=4s", Some(Duration::from_secs(4))),
        ("MTTF=2s", Some(Duration::from_secs(2))),
        ("MTTF=1s", Some(Duration::from_secs(1))),
    ];
    let mut rows = Vec::new();
    let mut baseline = None;
    for (label, mttf) in cases {
        let (tps, failures, stolen) = run_with_mttf(mttf, duration);
        let base = *baseline.get_or_insert(tps);
        rows.push(vec![
            label.to_string(),
            format!("{tps:.0}"),
            format!("{:.3}", tps / base.max(1.0)),
            failures.to_string(),
            stolen.to_string(),
        ]);
    }
    print_table(
        "Fig 7: throughput vs MTTF",
        &["case", "mean tps", "vs no-failure", "coordinator crashes", "locks stolen"],
        &rows,
    );
}
