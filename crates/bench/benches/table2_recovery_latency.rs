//! **Table 2 + §6.1** — Recovery latency.
//!
//! * Pandora's recovery latency (µs) per benchmark while increasing the
//!   number of outstanding coordinators per compute node
//!   (paper: 1 → 512, from ~8 µs to ~5 ms).
//! * The Baseline's scan-based recovery: linear in KVS size, seconds per
//!   million keys on the paper's fabric.
//! * The traditional lock-intent scheme: scan-free but ~2× slower than
//!   Pandora.
//! * End-to-end detection+recovery with the standalone FD (5 ms
//!   timeout) and the 3-replica quorum FD (paper: < 20 ms).

use std::sync::Arc;
use std::time::{Duration, Instant};

use pandora::{ProtocolKind, QuorumFd};
use pandora_bench::{
    cfg, micro_all_writes, print_table, smallbank_default, tatp_default, tpcc_default,
};
use pandora_workloads::{build_cluster, freeze, recover, MicroBench, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdma_sim::LatencyModel;

/// A loaded zero-latency cluster for `workload`.
fn cluster_for(workload: &dyn Workload, protocol: ProtocolKind) -> Arc<pandora::SimCluster> {
    build_cluster(workload, cfg(protocol), LatencyModel::zero(), None, None)
}

fn recovery_latency_rows(protocol: ProtocolKind, counts: &[usize]) -> Vec<Vec<String>> {
    let workloads: Vec<(&str, Box<dyn Workload>)> = vec![
        ("TPC-C", Box::new(tpcc_default())),
        ("SmallBank", Box::new(smallbank_default())),
        ("TATP", Box::new(tatp_default())),
        ("MicroBench", Box::new(micro_all_writes())),
    ];
    let mut rows = Vec::new();
    for (name, workload) in workloads {
        let cluster = cluster_for(workload.as_ref(), protocol);
        let mut rng = StdRng::seed_from_u64(0xF00D);
        let mut row = vec![name.to_string()];
        for &n in counts {
            let frozen = freeze(&cluster, workload.as_ref(), n, &mut rng);
            let (_, took) = recover(&cluster, &frozen);
            row.push(format!("{}", took.as_micros()));
        }
        rows.push(row);
    }
    rows
}

fn main() {
    let counts = [1usize, 8, 64, 128, 256, 512];
    let headers: Vec<String> = std::iter::once("Bench \\ Coord. per node".to_string())
        .chain(counts.iter().map(|c| c.to_string()))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();

    println!("# Table 2 — Pandora recovery latency (microseconds)");
    println!("# paper: 8 us at 1 coordinator up to ~5000 us at 512 (grows with outstanding txns)");
    let rows = recovery_latency_rows(ProtocolKind::Pandora, &counts);
    print_table("Pandora recovery latency (us)", &headers_ref, &rows);

    println!("\n# §6.1 — Traditional lock-intent scheme (stop-the-world, no scan)");
    println!("# paper: ~2x slower than Pandora at 512 outstanding");
    let rows = recovery_latency_rows(ProtocolKind::Traditional, &counts[..4]);
    let headers2: Vec<String> = std::iter::once("Bench \\ Coord. per node".to_string())
        .chain(counts[..4].iter().map(|c| c.to_string()))
        .collect();
    let headers2_ref: Vec<&str> = headers2.iter().map(String::as_str).collect();
    print_table("Traditional recovery latency (us)", &headers2_ref, &rows);

    // ---- Baseline: scan-based recovery, linear in KVS size ----
    println!("\n# §6.1 — Baseline (FORD) recovery: full-KVS scan, blocking");
    println!("# paper: ~5 s per million keys over a 100 Gbps link (we inject the");
    println!("# 100G latency model; the shape — linear in keys — is the claim)");
    let mut rows = Vec::new();
    for keys in [16_384u64, 65_536, 262_144] {
        let bench = MicroBench::new(keys, 1.0);
        let cluster = build_cluster(
            &bench,
            cfg(ProtocolKind::Ford),
            LatencyModel::cloudlab_100g(),
            None,
            None,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let frozen = freeze(&cluster, &bench, 8, &mut rng);
        let us = recover(&cluster, &frozen).1.as_secs_f64() * 1e6;
        rows.push(vec![
            keys.to_string(),
            format!("{:.0}", us),
            format!("{:.2}", us / 1e6 * (1_000_000.0 / keys as f64)),
        ]);
    }
    print_table(
        "Baseline scan recovery vs KVS size",
        &["keys", "recovery (us)", "extrapolated s per 1M keys"],
        &rows,
    );

    // ---- End-to-end detection + recovery ----
    println!("\n# §6.4 — End-to-end: standalone FD (5 ms timeout) vs distributed FD");
    println!("# paper: standalone ~5 ms + recovery; 3-replica quorum < 20 ms");
    let bench = micro_all_writes();
    let mut rows = Vec::new();
    for (label, quorum) in [("standalone FD", 1usize), ("distributed FD (3 replicas)", 3)] {
        let cluster = cluster_for(&bench, ProtocolKind::Pandora);
        let mut rng = StdRng::seed_from_u64(4);
        let frozen = freeze(&cluster, &bench, 1, &mut rng);
        let (coord, _ep) = frozen[0];
        let t0 = Instant::now();
        let report = if quorum == 1 {
            // Heartbeats stopped at the crash; the sweep applies the 5 ms
            // timeout just like the monitor thread.
            let mut r = None;
            while r.is_none() && t0.elapsed() < Duration::from_secs(2) {
                std::thread::sleep(Duration::from_millis(1));
                r = cluster.fd.sweep(Duration::from_millis(5)).into_iter().next();
            }
            r
        } else {
            QuorumFd::new(Arc::clone(&cluster.fd), quorum)
                .detect_and_recover(coord, Duration::from_millis(5))
                .report()
                .cloned()
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let detail = report
            .map(|r| {
                format!(
                    "detect {} us | fence {} us | log {} us | notify {} us",
                    r.detection.as_micros(),
                    r.link_termination.as_micros(),
                    r.log_recovery.as_micros(),
                    r.stray_notification.as_micros()
                )
            })
            .unwrap_or_else(|| "NOT DETECTED".into());
        rows.push(vec![label.to_string(), format!("{ms:.1}"), detail]);
    }
    print_table("End-to-end failure handling", &["detector", "total (ms)", "detail"], &rows);
}
