//! The traced run: per-layer metrics, measured from outside.
//!
//! One coordinator at a time, a fixed number of attempts, everything on
//! one thread — so on the classic engine every count below repeats
//! exactly for a fixed seed. Three coordinators (plain, with
//! `PhaseStats`, with `PhaseStats` + `SchedStats` + the benchmark's
//! spans) take turns over the same seeded transactions, chunk by chunk,
//! which gives the telemetry and tracing overheads free of warm-up
//! order; a short pass with a `LogMeter` gives the log bytes; a few
//! recovery rounds with the live coordinator working between them give
//! the recovery, fail-over and lock-steal numbers; probes that call one
//! public function in a loop give each layer's unit costs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dkvs::{LogEntry, Placement, TableDef, TableId, UndoRecord, VersionWord};
use pandora::{MetricsRegistry, PhaseStats, SchedStats, SimCluster, TxnPhase};
use pandora_workloads::{MicroBench, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdma_sim::{Fabric, FabricConfig, FaultInjector, LatencyModel, NodeId, OpCountersSnapshot};

use crate::audit;
use crate::drive::{self, Driver, LogMeter, Recoveries, Tally, ROUND_COORDS};
use crate::median;
use crate::report::{Metric, RunResult};
use crate::spans::{NoSpans, Recorder};
use crate::spec::{rtt, Spec, IL8_BATCH, MICRO_KEYS};
use crate::Scale;

/// Events written to the Chrome trace file; the statistics use all.
const TRACE_FILE_EVENTS: usize = 50_000;
/// The cluster of the `core.txn` probe: small enough that a short warm
/// pass fills the address cache.
const PROBE_KEYS: u64 = 4_096;
/// Turns each of the three coordinators takes in the traced run.
const CHUNKS: u64 = 10;

/// Nanoseconds per call of `f`: `iters` calls timed in 20 equal chunks,
/// the median chunk reported, so that a burst of host noise moves one
/// chunk and not the result.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    const CHUNKS: u64 = 20;
    let per_chunk = (iters / CHUNKS).max(1);
    let mut chunk_ns: Vec<f64> = (0..CHUNKS)
        .map(|c| {
            let t0 = Instant::now();
            for i in c * per_chunk..(c + 1) * per_chunk {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / per_chunk as f64
        })
        .collect();
    chunk_ns.sort_by(f64::total_cmp);
    chunk_ns[chunk_ns.len() / 2]
}

fn total_ops(co: &pandora::Coordinator) -> OpCountersSnapshot {
    co.op_counters()
        .iter()
        .fold(OpCountersSnapshot::default(), |acc, (_, s)| acc.plus(s))
}

fn per_sec(t: &Tally, elapsed: std::time::Duration) -> f64 {
    t.commits as f64 / elapsed.as_secs_f64()
}

fn pct_slower(base: f64, other: f64) -> f64 {
    (base - other) / base * 100.0
}

/// Distance between the first and the third quartile.
fn quartile_distance(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[(3 * n / 4).min(n - 1)] - v[n / 4],
    }
}

/// Unit costs of the simulated fabric at `rtt0`, and how far a blocking
/// verb at `rtt2` overshoots its modeled two microseconds on this host
/// (returned, in nanoseconds).
fn probe_fabric(div: u64, out: &mut Vec<Metric>) -> f64 {
    let open = |latency: LatencyModel| {
        let fabric =
            Fabric::new(FabricConfig { memory_nodes: 1, capacity_per_node: 1 << 20, latency });
        let base = fabric.control(NodeId(0)).and_then(|c| c.alloc(4096)).expect("probe region");
        let qp = fabric
            .qp(fabric.register_endpoint(), NodeId(0), FaultInjector::new())
            .expect("probe qp");
        (fabric, qp, base)
    };
    let (_fabric, qp, base) = open(LatencyModel::zero());
    let n = 1_000_000 / div;
    let mut buf = [0u8; 64];
    let read = ns_per_call(n, |_| qp.read(base, black_box(&mut buf)).expect("read"));
    let write = ns_per_call(n, |_| qp.write(base, black_box(&buf)).expect("write"));
    let cas = ns_per_call(n, |i| {
        black_box(qp.cas(base + 64, i, i + 1).expect("cas"));
    });
    let barrier = ns_per_call(n / 4, |_| {
        for lane in 0..8u64 {
            qp.post_write(base + 128 + lane * 64, &buf).expect("post");
        }
        black_box(qp.wait_all());
    });
    let (_fabric2, qp2, base2) = open(rtt(2));
    let paced = ns_per_call(n / 10, |_| qp2.read(base2, black_box(&mut buf)).expect("read"));
    out.push(Metric::new("rdma-sim.read64_ns", read).samples(n));
    out.push(Metric::new("rdma-sim.write64_ns", write).samples(n));
    out.push(Metric::new("rdma-sim.cas_ns", cas).samples(n));
    out.push(Metric::new("rdma-sim.post_wait8_ns", barrier).samples(n / 4));
    out.push(Metric::new("rdma-sim.pace_overshoot_ns", paced - 2_000.0).samples(n / 10));
    paced - 2_000.0
}

/// Unit costs of the `dkvs` layout functions the commit path calls.
fn probe_dkvs(div: u64, out: &mut Vec<Metric>) {
    let n = 1_000_000 / div;
    let entry = LogEntry {
        txn_id: 7,
        coord: 3,
        writes: (0..4u64)
            .map(|k| UndoRecord {
                table: TableId(0),
                key: k,
                bucket: k,
                slot: 1,
                old_version: VersionWord::new(1, false),
                new_version: VersionWord::new(2, false),
                old_value: vec![0u8; 40],
            })
            .collect(),
    };
    let encode = ns_per_call(n, |_| {
        black_box(black_box(&entry).encode());
    });
    let image = entry.encode();
    let decode = ns_per_call(n, |_| {
        black_box(LogEntry::decode(black_box(&image)));
    });
    let table = TableDef::sized_for(0, "probe", 40, MICRO_KEYS);
    let bucket_for = ns_per_call(n, |k| {
        black_box(table.bucket_for(black_box(k)));
    });
    let placement = Placement::new(vec![NodeId(0), NodeId(1), NodeId(2)], 2);
    let replicas = ns_per_call(n, |b| {
        black_box(placement.replicas(1, black_box(b)));
    });
    out.push(Metric::new("dkvs.log_encode_ns", encode).samples(n));
    out.push(Metric::new("dkvs.log_decode_ns", decode).samples(n));
    out.push(Metric::new("dkvs.bucket_for_ns", bucket_for).samples(n));
    out.push(Metric::new("dkvs.replicas_ns", replicas).samples(n));
}

/// What the `core.txn` probe saw at one latency model (span medians).
struct TxnProbe {
    read_us: f64,
    write_us: f64,
    commit_us: f64,
}

/// The benchmark's copy of the all-write micro transaction on the
/// classic engine, one coordinator, warm address cache, the same seeded
/// transactions at every latency model.
fn probe_txn(rtt_us: u64, seed: u64, attempts: u64) -> TxnProbe {
    let bench = MicroBench::new(PROBE_KEYS, 1.0);
    let cluster = pandora_workloads::with_tables(
        SimCluster::builder(pandora::ProtocolKind::Pandora)
            .memory_nodes(3)
            .replication(2)
            .max_coord_slots(64)
            .latency(rtt(rtt_us)),
        &bench,
    )
    .build()
    .expect("probe cluster");
    bench.load(&cluster);
    let (co, _lease) = cluster.coordinator().expect("probe coordinator");
    let mut d = Driver::own_micro(co, bench, seed);
    d.run_attempts(attempts / 4, &mut NoSpans);
    let mut rec = Recorder::with_capacity(attempts as usize * 11);
    d.run_attempts(attempts, &mut rec);
    TxnProbe {
        read_us: rec.median_us("core.txn.read"),
        write_us: rec.median_us("core.txn.write"),
        commit_us: rec.median_us("core.txn.commit"),
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The layer probes: the same on every workload, so `run` takes them
/// once for all.
pub struct Probes {
    metrics: Vec<Metric>,
    at_rtt2: TxnProbe,
    at_rtt0: TxnProbe,
}

pub fn probes(seed: u64, scale: Scale) -> Probes {
    let mut m = Vec::new();
    let overshoot_ns = probe_fabric(scale.probe_div, &mut m);
    probe_dkvs(scale.probe_div, &mut m);
    let at_rtt2 = probe_txn(2, seed, scale.traced_attempts);
    let at_rtt0 = probe_txn(0, seed, scale.traced_attempts);
    // Round trips of the four locked writes and the commit call — the
    // barriers DESIGN.md §10 counts; each transactional read before them
    // adds one more. The divisor is the round trip as this host paces it.
    let locked_commit = |p: &TxnProbe| 4.0 * p.write_us + p.commit_us;
    m.push(Metric::new(
        "core.txn.rtts_per_commit_est",
        (locked_commit(&at_rtt2) - locked_commit(&at_rtt0)) / (2.0 + overshoot_ns / 1e3),
    ));
    let draw_bench = MicroBench::new(MICRO_KEYS, 1.0);
    let mut draw_rng = StdRng::seed_from_u64(seed);
    let draws = 200_000 / scale.probe_div;
    let draw = ns_per_call(draws, |_| {
        black_box(draw_bench.request(&mut draw_rng));
    });
    m.push(Metric::new("workloads.request_draw_ns", draw).samples(draws));
    m.push(Metric::new("host.nproc", crate::pin::cpus() as f64));
    Probes { metrics: m, at_rtt2, at_rtt0 }
}

/// One traced run of one workload: every per-layer metric.
pub fn run_per_layer(spec: Spec, seed: u64, scale: Scale, probes: &Probes) -> RunResult {
    // Ten times the attempts at `rtt0`, where a chunk would otherwise
    // last four milliseconds and resolve nothing.
    let n = scale.traced_attempts * if spec.rtt_us == 0 { 10 } else { 1 };
    // Warmed one after the other: beside each other they would abort one
    // another now and then, and the address caches — and with them the
    // verb counts below — would differ from run to run.
    let drive::Setup { bench, mut drivers, .. } = drive::set_up(spec, seed, 3, 0);
    for d in &mut drivers {
        d.run_attempts(scale.warmup, &mut NoSpans);
    }
    let phases = PhaseStats::new();
    let sched = SchedStats::new();
    let traced_d = drivers
        .pop()
        .expect("third driver")
        .map_co(|co| co.with_phase_stats(Arc::clone(&phases)).with_sched_stats(Arc::clone(&sched)))
        .with_own_micro_body(&spec);
    let phased_d = drivers
        .pop()
        .expect("second driver")
        .map_co(|co| co.with_phase_stats(PhaseStats::new()));
    let plain_d = drivers.pop().expect("first driver");
    // Variant 0 has nothing attached, 1 the repository's PhaseStats, 2
    // PhaseStats, SchedStats and the benchmark's spans.
    let mut variants = [plain_d, phased_d, traced_d];

    let live_per_round = (n / 40).max(1);
    let round_spans = scale.traced_rounds as usize * ROUND_COORDS * 6;
    // Eleven spans per attempt in the benchmark's own micro body, one
    // around `execute`, two per batch of 32.
    let spans_per_attempt = if spec.micro().is_some() && !spec.il8 { 11 } else { 1 };
    let mut rec = Recorder::with_capacity(
        (n + live_per_round * scale.traced_rounds) as usize * spans_per_attempt + round_spans,
    );
    // The three take turns, chunk by chunk, over the same seeded
    // transactions, the order rotating, so that a cluster that warms up
    // (or a host that slows down) during the run moves all three alike.
    let pass_seed = seed ^ 0x7ACE;
    let per_chunk = (n / CHUNKS).max(1);
    let mut tallies = [Tally::default(), Tally::default(), Tally::default()];
    let mut rates: [Vec<f64>; 3] = Default::default();
    let ops_before = total_ops(&variants[2].co);
    for chunk in 0..CHUNKS {
        for turn in 0..3 {
            let v = (chunk as usize + turn) % 3;
            let d = &mut variants[v];
            d.reseed(pass_seed.wrapping_add(chunk));
            let (t, elapsed) = if v == 2 {
                d.run_attempts(per_chunk, &mut rec)
            } else {
                d.run_attempts(per_chunk, &mut NoSpans)
            };
            rates[v].push(per_sec(&t, elapsed));
            tallies[v].merge(&t);
        }
    }
    let [plain_d, _phased_d, traced_d] = variants;
    let traced = &tallies[2];
    let ops_after = total_ops(&traced_d.co);
    let per_commit = |f: fn(&OpCountersSnapshot) -> u64| {
        (f(&ops_after) - f(&ops_before)) as f64 / traced.commits.max(1) as f64
    };
    let pass_aborts = phases.abort_counts();
    let lanes: Vec<u64> = {
        let per_node = traced_d.co.stripe_counters();
        let width = per_node.first().map_or(1, |(_, l)| l.len());
        (0..width)
            .map(|i| per_node.iter().map(|(_, l)| l[i].total_ops()).sum())
            .collect()
    };
    // Per chunk, how much slower than the plain coordinator's turn.
    let overhead = |v: usize| -> Vec<f64> {
        rates[0].iter().zip(&rates[v]).map(|(&base, &r)| pct_slower(base, r)).collect()
    };
    let (phased_pct, traced_pct) = (overhead(1), overhead(2));

    // The same transactions once more on the plain coordinator, with the
    // undo-log entry of every commit measured.
    let meter = LogMeter::attach(&bench.cluster, &plain_d.co);
    let mut plain_d = plain_d.with_log_meter(meter);
    plain_d.reseed(pass_seed);
    let (logged, _) = plain_d.run_attempts((n / 4).max(1), &mut NoSpans);
    drop(plain_d);

    // Recovery rounds; between them the live coordinator works on and
    // steals the locks the dead left on unlogged transactions.
    let mut d = traced_d;
    let mut rng = drive::recovery_rng(seed);
    let mut recoveries = Recoveries::default();
    let stolen_before = d.co.stats.locks_stolen;
    let mut beside = Tally::default();
    for _ in 0..scale.traced_rounds {
        drive::recovery_round(&bench, &mut rng, &mut recoveries, &mut rec);
        beside.merge(&d.run_attempts(live_per_round, &mut rec).0);
    }
    let stolen = d.co.stats.locks_stolen - stolen_before;

    let mut m: Vec<Metric> = Vec::new();
    let by = rec.by_name();
    let attempts = traced.attempts.max(1) as f64;

    m.push(Metric::new("rdma-sim.verbs_per_txn", per_commit(OpCountersSnapshot::total_ops)));
    m.push(Metric::new("rdma-sim.reads_per_txn", per_commit(|s| s.reads)));
    m.push(Metric::new("rdma-sim.writes_per_txn", per_commit(|s| s.writes)));
    m.push(Metric::new("rdma-sim.cas_per_txn", per_commit(|s| s.cas)));
    m.push(Metric::new("rdma-sim.bytes_per_txn", per_commit(OpCountersSnapshot::total_bytes)));
    m.push(Metric::new(
        "rdma-sim.inflight_high_water",
        bench.cluster.ctx.fabric.verb_stats().in_flight_high_water as f64,
    ));
    let lane_mean = lanes.iter().sum::<u64>() as f64 / lanes.len() as f64;
    m.push(Metric::new(
        "rdma-sim.lane_skew",
        lanes.iter().copied().max().unwrap_or(0) as f64 / lane_mean.max(1.0),
    ));
    m.push(
        Metric::new(
            "dkvs.log_bytes_per_txn",
            logged.log_bytes as f64 / logged.commits.max(1) as f64,
        )
        .samples(logged.commits),
    );

    let phase_ns: Vec<f64> = TxnPhase::ALL
        .iter()
        .map(|&p| {
            let h = phases.histogram(p);
            h.mean().as_nanos() as f64 * h.count() as f64
        })
        .collect();
    let phase_total: f64 = phase_ns.iter().sum();
    for (p, ns) in TxnPhase::ALL.iter().zip(&phase_ns) {
        let share = if phase_total > 0.0 { ns / phase_total } else { 0.0 };
        m.push(Metric::new(format!("core.txn.phase_share.{}", p.name()), share));
    }
    for (reason, count) in pass_aborts {
        m.push(Metric::new(format!("core.txn.abort.{reason}"), count as f64 / attempts));
    }
    m.push(Metric::new(
        "core.txn.locks_stolen_per_round",
        stolen as f64 / scale.traced_rounds.max(1) as f64,
    ));

    let batch = by.get("core.sched.batch").copied().unwrap_or_default();
    m.push(Metric::new("core.sched.batch_us", batch.mean_us()).samples(batch.count));
    m.push(Metric::new("core.sched.txn_us_amortized", batch.mean_us() / IL8_BATCH as f64));
    let s = sched.snapshot();
    m.push(Metric::new("core.sched.high_water", s.high_water as f64));
    m.push(Metric::new(
        "core.sched.requeues_per_commit",
        s.admitted.saturating_sub(s.committed) as f64 / s.committed.max(1) as f64,
    ));

    let coords = recoveries.coords.max(1) as f64;
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6 / coords;
    m.push(Metric::new("core.recovery.link_termination_us", us(recoveries.link_termination)));
    m.push(Metric::new("core.recovery.log_recovery_us", us(recoveries.log_recovery)));
    m.push(Metric::new("core.recovery.stray_notification_us", us(recoveries.stray_notification)));
    m.push(Metric::new("core.recovery.total_us", us(recoveries.total)).samples(recoveries.coords));
    m.push(Metric::new(
        "core.recovery.logged_txns_per_coord",
        recoveries.logged_txns as f64 / coords,
    ));
    m.push(Metric::new(
        "core.recovery.rolled_forward_share",
        recoveries.rolled_forward as f64 / recoveries.logged_txns.max(1) as f64,
    ));
    m.push(Metric::new(
        "core.recovery.locks_released_per_coord",
        recoveries.locks_released as f64 / coords,
    ));
    m.push(Metric::new("core.recovery.attempts_mean", recoveries.attempts as f64 / coords));
    m.push(Metric::new(
        "core.recovery.us_per_logged_txn",
        recoveries.log_recovery.as_secs_f64() * 1e6 / recoveries.logged_txns.max(1) as f64,
    ));
    m.push(Metric::new(
        "core.fd.declare_overhead_us",
        recoveries.declare.mean_ns() / 1e3 - us(recoveries.total),
    ));
    m.push(Metric::new("core.fd.declare_p50_us", recoveries.declare.quantile_us(0.5)));
    m.push(Metric::new("core.fd.connect_us", us(recoveries.connect)).samples(recoveries.coords));

    // Median over the paired chunks; the quartile distance of the same
    // pairs says how small an overhead this run can resolve.
    m.push(Metric::new("core.obs.phase_stats_overhead_pct", median(&phased_pct)).samples(CHUNKS));
    m.push(Metric::new("perf.trace_overhead_pct", median(&traced_pct)).samples(CHUNKS));
    let spread = quartile_distance(&phased_pct).max(quartile_distance(&traced_pct));
    m.push(Metric::new("perf.overhead_spread_pct", spread).samples(CHUNKS));
    for (name, pcts) in [("PhaseStats", &phased_pct), ("tracing", &traced_pct)] {
        let (value, spread) = (median(pcts), quartile_distance(pcts));
        println!(
            "overhead of {name}: {value:.2} % of the rate, quartile distance {spread:.2} over \
             {CHUNKS} paired chunks{}",
            if value.abs() < spread { " — unresolved, inside the spread" } else { "" }
        );
    }
    let registry = MetricsRegistry::new()
        .with_phases(Arc::clone(&phases))
        .with_fabric(Arc::clone(&bench.cluster.ctx.fabric))
        .with_sched(Arc::clone(&sched));
    registry.add_reports(&bench.cluster.fd.reports());
    let snapshots = (2_000 / scale.probe_div).max(5);
    let json_ns = ns_per_call(snapshots, |_| {
        black_box(registry.snapshot().to_json());
    });
    m.push(Metric::new("core.obs.snapshot_json_us", json_ns / 1e3).samples(snapshots));

    // The run is over; what is left must be clean.
    let ran = [&tallies[0], &tallies[1], &tallies[2], &logged, &beside];
    let failed_attempts: u64 = ran.iter().map(|t| t.errors).sum();
    let attempted = ran.iter().map(|t| t.attempts).sum::<u64>() + recoveries.coords;
    drop(d);
    bench.cluster.fd.recovery().recycle_failed_ids();
    let a = audit::scan(&bench.cluster);
    if a.failures() > 0 {
        eprintln!("audit after the traced run: {a:?}");
    }
    let failures = a.failures() + recoveries.bad_reports;
    let trace_json = rec.chrome_json(TRACE_FILE_EVENTS);
    println!(
        "spans: {} recorded, {} written; self time per layer (us):",
        rec.len(),
        rec.len().min(TRACE_FILE_EVENTS)
    );
    for (name, s) in &by {
        println!(
            "  {:<36} n={:<8} total={:<12.1} self={:.1}",
            name,
            s.count,
            s.total_ns as f64 / 1e3,
            s.self_ns as f64 / 1e3
        );
    }

    let here = if spec.rtt_us == 0 { &probes.at_rtt0 } else { &probes.at_rtt2 };
    m.push(Metric::new("core.txn.read_us", here.read_us));
    m.push(Metric::new("core.txn.write_us", here.write_us));
    m.push(Metric::new("core.txn.commit_us", here.commit_us));
    m.extend(probes.metrics.iter().cloned());
    m.push(Metric::new("host.peak_rss_mb", peak_rss_mb()));

    RunResult {
        workload: spec.name,
        correct: failures == 0,
        attempted,
        failed: failed_attempts + failures,
        metrics: m,
        ungated: Vec::new(),
        trace_json: Some(trace_json),
    }
}
