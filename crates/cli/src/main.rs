//! `pandora-cli` — drive the simulated DKVS from the command line.
//!
//! ```text
//! pandora-cli run      --workload smallbank --protocol pandora --coordinators 8 \
//!                      --duration 8 --fault compute:0.5@3 --respawn
//! pandora-cli recovery --workload tpcc --frozen 128
//! pandora-cli litmus   --protocol ford --bug covert-locks
//! pandora-cli info
//! ```

mod args;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use args::{parse_fault, Args, ParseError};
use pandora::config::PersistenceMode;
use pandora::{BugFlags, ProtocolKind, RecoveryCrashPlan, SystemConfig};
use pandora_workloads::{
    build_cluster, freeze, recover, run_failover, FailoverSpec, FaultKind, MicroBench, SmallBank,
    Tatp, Tpcc, Workload, Ycsb, YcsbMix, MEMORY_NODES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdma_sim::{ChaosConfig, LatencyModel, NodeId};

const HELP: &str = "\
pandora-cli — fast, highly available, recoverable transactions on a simulated DKVS

COMMANDS
  run        run a workload, optionally injecting a fault
  recovery   freeze N coordinators mid-transaction and time their recovery
  litmus     run the litmus validation suite (optionally with a FORD bug re-enabled)
  trace-check  validate a Chrome trace-event file (CI smoke check)
  info       list protocols, workloads, bugs
  help       this text

RUN FLAGS
  --workload micro|smallbank|tatp|tpcc|ycsb-a..ycsb-f   (default micro)
  --protocol pandora|ford|traditional                   (default pandora)
  --coordinators N      worker coordinators            (default 4)
  --duration SECS       run length                     (default 5)
  --warmup SECS         excluded from the mean         (default 1)
  --fault SPEC          compute:<frac>@<secs> | memory:<node>@<secs>
  --respawn             respawn crashed coordinators after recovery
  --kill-recoverer-at STEP[:VERB]
                        with --fault compute: kill the recovering FD replica
                        once recovery step STEP (detection|link-termination|
                        log-recovery|stray-notification) has issued VERB
                        verbs (default 0 = at step entry); a surviving
                        replica takes over and re-runs recovery from scratch
  --mem-fail-during-recovery N
                        with --kill-recoverer-at: kill memory node N inside
                        the takeover window (compound failure; the re-run
                        recovers against the post-promotion placement)
  --latency-us N        per-verb RTT to inject         (default 0)
  --chaos-seed N        enable seeded transient-fault injection (verb
                        timeouts, link flaps, delay spikes); a given
                        seed replays the exact same fault schedule
  --chaos-profile P     light|heavy                    (default light)
  --stalls              stall (not abort) on lock conflicts
  --persistence volatile|battery|nvm                   (default volatile)
  --pipeline-depth N    posted verbs kept in flight per QP by the fan-out
                        commit path; 1 issues every verb blocking (the
                        sequential baseline)           (default 16)
  --qp-stripes N        queue pairs per (coordinator, node); verbs to
                        unrelated addresses complete out of order across
                        the stripe lanes                (default 1)
  --inflight-txns N     independent transactions the coordinator keeps
                        in flight through the interleaved scheduler;
                        capped at the 8 log lanes       (default 1)
  --write-ratio R       micro only                     (default 0.5)
  --hot-keys N          micro only: contention hot set
  --metrics-json PATH   write a machine-readable metrics snapshot (JSON);
                        includes a `timeline` array of throughput/abort/
                        recovery samples
  --no-phase-metrics    skip per-phase commit-path timers
  --trace-out PATH      attach the flight recorder and write a Chrome
                        trace-event JSON file (open in ui.perfetto.dev)
  --flight-capacity N   retained spans per track              (default 8192)

RECOVERY FLAGS
  --workload ... --protocol ...   as above
  --frozen N            outstanding coordinators to crash (default 8)
  --metrics-json PATH   write recovery-step timings as JSON

LITMUS FLAGS
  --protocol ...        (default pandora)
  --bug NAME            complicit-abort|missing-actions|covert-locks|
                        relaxed-locks|lost-decision|logging-without-locking
  --iterations N        random iterations per test (default 20)

TRACE-CHECK FLAGS
  --path PATH           Chrome trace-event file to validate (bare array or
                        an object with `traceEvents`, e.g. a flight dump)
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try `pandora-cli help`");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), ParseError> {
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "run" => cmd_run(&args),
        "recovery" => cmd_recovery(&args),
        "litmus" => cmd_litmus(&args),
        "trace-check" => cmd_trace_check(&args),
        "info" => {
            cmd_info();
            Ok(())
        }
        "help" | "-h" | "--help" => {
            println!("{HELP}");
            Ok(())
        }
        other => Err(ParseError(format!("unknown command {other:?}"))),
    }
}

fn parse_protocol(args: &Args) -> Result<ProtocolKind, ParseError> {
    match args.get("protocol").unwrap_or("pandora") {
        "pandora" => Ok(ProtocolKind::Pandora),
        "ford" | "baseline" => Ok(ProtocolKind::Ford),
        "traditional" => Ok(ProtocolKind::Traditional),
        other => Err(ParseError(format!("unknown protocol {other:?}"))),
    }
}

fn parse_workload(args: &Args) -> Result<Arc<dyn Workload>, ParseError> {
    let micro_keys = args.get_u64("keys", 65_536)?;
    let w: Arc<dyn Workload> = match args.get("workload").unwrap_or("micro") {
        "micro" => {
            let mut m = MicroBench::new(micro_keys, args.get_f64("write-ratio", 0.5)?);
            if let Some(hot) = args.get("hot-keys") {
                let hot: u64 =
                    hot.parse().map_err(|_| ParseError("--hot-keys expects an integer".into()))?;
                m = m.with_hot_keys(hot);
            }
            Arc::new(m)
        }
        "smallbank" => Arc::new(SmallBank::new(args.get_u64("accounts", 16_384)?)),
        "tatp" => Arc::new(Tatp::new(args.get_u64("subscribers", 8_192)?)),
        "tpcc" => Arc::new(Tpcc::new(args.get_u64("warehouses", 4)?)),
        "ycsb-a" => Arc::new(Ycsb::new(YcsbMix::A, micro_keys)),
        "ycsb-b" => Arc::new(Ycsb::new(YcsbMix::B, micro_keys)),
        "ycsb-c" => Arc::new(Ycsb::new(YcsbMix::C, micro_keys)),
        "ycsb-d" => Arc::new(Ycsb::new(YcsbMix::D, micro_keys)),
        "ycsb-e" => Arc::new(Ycsb::new(YcsbMix::E, micro_keys)),
        "ycsb-f" => Arc::new(Ycsb::new(YcsbMix::F, micro_keys)),
        other => return Err(ParseError(format!("unknown workload {other:?}"))),
    };
    Ok(w)
}

fn parse_config(args: &Args) -> Result<SystemConfig, ParseError> {
    let mut config = SystemConfig::new(parse_protocol(args)?);
    if args.has("stalls") {
        config = config.with_stalls(Duration::from_millis(50));
    }
    config.persistence = match args.get("persistence").unwrap_or("volatile") {
        "volatile" => PersistenceMode::VolatileReplicated,
        "battery" => PersistenceMode::BatteryBackedDram,
        "nvm" => PersistenceMode::NvmFlush,
        other => return Err(ParseError(format!("unknown persistence mode {other:?}"))),
    };
    if args.has("pipeline-depth") {
        let depth = args.get_u64("pipeline-depth", 16)?;
        config = config.with_pipeline_depth(depth.min(u32::MAX as u64) as u32);
    }
    if args.has("qp-stripes") {
        let n = args.get_u64("qp-stripes", 4)?;
        config = config.with_qp_stripes(n.min(u32::MAX as u64) as u32);
    }
    if args.has("inflight-txns") {
        let n = args.get_u64("inflight-txns", 8)?;
        config = config.with_inflight_txns(n.min(u32::MAX as u64) as u32);
    }
    Ok(config)
}

/// `--chaos-seed` / `--chaos-profile` → a chaos config (None when the
/// flags are absent; the model then never exists, so the run pays zero
/// overhead).
fn parse_chaos(args: &Args) -> Result<Option<ChaosConfig>, ParseError> {
    if !args.has("chaos-seed") && !args.has("chaos-profile") {
        return Ok(None);
    }
    let seed = args.get_u64("chaos-seed", 42)?;
    let name = args.get("chaos-profile").unwrap_or("light");
    ChaosConfig::profile(name, seed)
        .map(Some)
        .ok_or_else(|| ParseError(format!("unknown chaos profile {name:?}")))
}

/// A memory-node argument must name a node of the harness cluster:
/// reject bad targets up front instead of panicking mid-run.
fn check_node(what: &str, node: u16) -> Result<(), ParseError> {
    if node >= MEMORY_NODES {
        return Err(ParseError(format!(
            "{what} targets node {node}, but the cluster has nodes 0..{}",
            MEMORY_NODES - 1
        )));
    }
    Ok(())
}

fn write_file(path: &str, what: &str, contents: String) -> Result<(), ParseError> {
    std::fs::write(path, contents).map_err(|e| ParseError(format!("cannot write {path}: {e}")))?;
    println!("{what} written to {path}");
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), ParseError> {
    let config = parse_config(args)?;
    let workload = parse_workload(args)?;
    let coordinators = args.get_u64("coordinators", 4)? as usize;
    let duration = args.get_secs("duration", Duration::from_secs(5))?;
    let warmup = args.get_secs("warmup", Duration::from_secs(1))?;
    let latency =
        LatencyModel { rtt: Duration::from_micros(args.get_u64("latency-us", 0)?), ns_per_kib: 0 };
    let (fault, fault_at) = match args.get("fault") {
        Some(spec) => parse_fault(spec)?,
        None => (FaultKind::None, duration),
    };
    if let FaultKind::MemoryKill { node } = fault {
        check_node("memory fault", node)?;
    }

    // Nested-failure flags: kill the recoverer mid-recovery, optionally
    // compounded with a memory-node death inside the takeover window.
    let kill_recoverer = args
        .get("kill-recoverer-at")
        .map(RecoveryCrashPlan::parse)
        .transpose()
        .map_err(ParseError)?;
    let mem_fail_during = args
        .get("mem-fail-during-recovery")
        .map(|s| {
            s.parse::<u16>()
                .map_err(|_| ParseError(format!("bad --mem-fail-during-recovery node {s:?}")))
        })
        .transpose()?;
    if kill_recoverer.is_some() && !matches!(fault, FaultKind::ComputeCrash { .. }) {
        return Err(ParseError(
            "--kill-recoverer-at requires --fault compute:<frac>@<secs> (nothing recovers otherwise)"
                .into(),
        ));
    }
    if mem_fail_during.is_some() && kill_recoverer.is_none() {
        return Err(ParseError(
            "--mem-fail-during-recovery requires --kill-recoverer-at (the node dies inside the takeover window)"
                .into(),
        ));
    }
    if let Some(node) = mem_fail_during {
        check_node("--mem-fail-during-recovery", node)?;
    }

    let chaos_cfg = parse_chaos(args)?;
    let trace_out = args.get("trace-out");
    // The flight recorder rides along whenever a trace is requested (or
    // a capacity is given explicitly); otherwise the run pays only the
    // `None` check per hook.
    let flight_capacity = if trace_out.is_some() || args.has("flight-capacity") {
        Some(args.get_u64("flight-capacity", 8192)? as usize)
    } else {
        None
    };
    let fault_text = match fault {
        FaultKind::None => "None".to_string(),
        fault => format!("{fault:?}@{fault_at:?}"),
    };
    println!(
        "workload={} protocol={:?} coordinators={coordinators} duration={duration:?} fault={fault_text}",
        workload.name(),
        config.protocol
    );
    let cluster = build_cluster(workload.as_ref(), config, latency, chaos_cfg, flight_capacity);
    if let (Some(chaos), Some(cfg)) = (&cluster.chaos, chaos_cfg) {
        // Dataset is loaded; everything from here on runs under fire.
        chaos.set_enabled(true);
        println!("chaos enabled: seed={} (replay with the same --chaos-seed)", cfg.seed);
        if let Some(rec) = &cluster.flight {
            // Dumps and traces name the schedule they ran under.
            rec.set_chaos_seed(cfg.seed);
        }
    }
    let run = run_failover(
        Arc::clone(&cluster),
        workload,
        &FailoverSpec {
            coordinators,
            duration,
            fault_at,
            fault,
            respawn: args.has("respawn"),
            recovery_delay: Duration::ZERO,
            // Dense enough to resolve a fail-over dip.
            sample_interval: Duration::from_millis(25),
            seed: args.get_u64("seed", 7)?,
            phase_metrics: !args.has("no-phase-metrics"),
            recovery_crash: kill_recoverer,
            nested_mem_fail: mem_fail_during.map(NodeId),
        },
    );

    let m = &run.metrics;
    if !run.fault.crashed.is_empty() {
        println!("t={:?}: crashed {} coordinators", run.fault_fired, run.fault.crashed.len());
        if let Some(plan) = kill_recoverer {
            println!("  armed recoverer kill at {}:{}", plan.step.name(), plan.at_verb);
        }
        if let Some(node) = mem_fail_during {
            println!("  armed memory node {node} to die during recovery");
        }
        for report in &m.recoveries {
            println!(
                "  recovered coord {}: attempts={} logged={} fwd={} back={} log-recovery={:?}",
                report.coord,
                report.attempts,
                report.logged_txns,
                report.rolled_forward,
                report.rolled_back,
                report.log_recovery
            );
        }
        if args.has("respawn") {
            println!("  respawned {} coordinators", run.fault.respawned);
        }
    }
    if let Some(report) = &run.fault.reconfiguration {
        println!(
            "t={:?}: memory node {} failed; {} buckets promoted, {} lost, reconfig {:?}",
            run.fault_fired,
            report.node.0,
            report.promoted_buckets,
            report.lost_buckets,
            report.total
        );
    }

    let mean =
        pandora::mean_tps(&m.timeline, warmup.as_millis() as u64, duration.as_millis() as u64);
    let stolen: u64 = run.stats.iter().map(|s| s.locks_stolen).sum();
    println!(
        "\ncommitted={} aborted={} abort_rate={:.2}%",
        m.committed,
        m.aborted,
        m.abort_rate * 100.0
    );
    println!("mean_tps={mean:.0} (after warmup)");
    if let Some(l) = &m.txn_latency {
        let ns = Duration::from_nanos;
        println!(
            "latency p50={:?} p95={:?} p99={:?} mean={:?}",
            ns(l.p50_ns),
            ns(l.p95_ns),
            ns(l.p99_ns),
            ns(l.mean_ns)
        );
    }
    println!("locks_stolen={stolen}");
    if let (Some(c), Some(r)) = (&m.chaos, &m.resilience) {
        println!(
            "chaos: timeouts={} (ambiguous={}) dropped_in_flap={} flaps={} partitions={} spikes={}",
            c.timeouts_ambiguous + c.timeouts_not_applied,
            c.timeouts_ambiguous,
            c.verbs_dropped_in_flap,
            c.flaps_started,
            c.partitions_started,
            c.delay_spikes
        );
        println!(
            "resilience: retries={} exhausted={} ambiguous_resolved={} survivals={} self_fenced={}",
            r.retries,
            r.retries_exhausted,
            r.ambiguous_resolved,
            r.false_suspicion_survivals,
            r.self_fenced
        );
    }
    if let Some(path) = args.get("metrics-json") {
        write_file(path, "metrics", m.to_json())?;
    }
    if let Some(path) = trace_out {
        let rec = cluster.flight.as_ref().expect("recorder attached when --trace-out is set");
        rec.write_chrome_trace(path)
            .map_err(|e| ParseError(format!("cannot write {path}: {e}")))?;
        println!(
            "trace written to {path} ({} spans recorded; open in ui.perfetto.dev)",
            rec.recorded()
        );
    }
    Ok(())
}

fn cmd_recovery(args: &Args) -> Result<(), ParseError> {
    let config = parse_config(args)?;
    let workload = parse_workload(args)?;
    let frozen_n = args.get_u64("frozen", 8)? as usize;
    println!("workload={} protocol={:?} frozen={frozen_n}", workload.name(), config.protocol);
    let cluster = build_cluster(workload.as_ref(), config, LatencyModel::zero(), None, None);

    let mut rng = StdRng::seed_from_u64(args.get_u64("seed", 7)?);
    let frozen = freeze(&cluster, workload.as_ref(), frozen_n, &mut rng);
    let (reports, elapsed) = recover(&cluster, &frozen);
    let logged: usize = reports.iter().map(|r| r.logged_txns).sum();
    println!(
        "recovered {} coordinators ({} logged stray txns) in {:?} ({:.0} us/coordinator)",
        frozen.len(),
        logged,
        elapsed,
        elapsed.as_secs_f64() * 1e6 / frozen.len().max(1) as f64
    );
    for r in &reports {
        println!(
            "  coord {}: fence={:?} log-recovery={:?} notify={:?} total={:?} verbs={} barriers={} \
             fanouts={}",
            r.coord,
            r.link_termination,
            r.log_recovery,
            r.stray_notification,
            r.total,
            r.verbs,
            r.barriers,
            r.link_fanouts
        );
    }
    if let Some(path) = args.get("metrics-json") {
        let registry = pandora::MetricsRegistry::new().with_fabric(Arc::clone(&cluster.ctx.fabric));
        registry.add_reports(&reports);
        write_file(path, "metrics", registry.snapshot().to_json())?;
    }
    Ok(())
}

fn cmd_litmus(args: &Args) -> Result<(), ParseError> {
    use pandora_litmus::harness::{run_random, LitmusConfig};
    use pandora_litmus::{run_scenario, suite, Scenario};

    let protocol = parse_protocol(args)?;
    if let Some(bug) = args.get("bug") {
        let scenario = match bug {
            "complicit-abort" => Scenario::ComplicitAbort,
            "missing-actions" => Scenario::MissingActions,
            "covert-locks" => Scenario::CovertLocks,
            "relaxed-locks" => Scenario::RelaxedLocks,
            "lost-decision" => Scenario::LostDecision,
            "logging-without-locking" => Scenario::LoggingWithoutLocking,
            other => return Err(ParseError(format!("unknown bug {other:?}"))),
        };
        println!("scenario {scenario:?} with the bug ENABLED:");
        let buggy = run_scenario(scenario, protocol, scenario.bug_flags());
        match buggy.violation {
            Some(v) => println!("  VIOLATION: {v}"),
            None => {
                println!("  no violation observed (timing-dependent scenarios may need reruns)")
            }
        }
        println!("scenario {scenario:?} with the fix:");
        let fixed = run_scenario(scenario, protocol, BugFlags::none());
        match fixed.violation {
            // The buggy run reproducing its violation is the expected
            // demonstration; the FIXED protocol violating is a failure.
            Some(v) => {
                println!("  VIOLATION (unexpected!): {v}");
                return Err(ParseError(format!("fixed protocol violated litmus {scenario:?}")));
            }
            None => println!("  passes"),
        }
        return Ok(());
    }
    let iterations = args.get_u64("iterations", 20)? as u32;
    let mut failed = 0usize;
    for test in suite::all_tests() {
        let mut cfg = LitmusConfig::new(protocol);
        cfg.iterations = iterations;
        let outcome = run_random(&test, &cfg);
        if !outcome.ok() {
            failed += 1;
        }
        println!(
            "{:26} iters={} crashes={} recoveries={} → {}",
            test.name,
            outcome.iterations,
            outcome.crashes_injected,
            outcome.recoveries_run,
            if outcome.ok() {
                "PASS".to_string()
            } else {
                format!("{} VIOLATIONS: {}", outcome.violations.len(), outcome.violations[0])
            }
        );
    }
    if failed > 0 {
        return Err(ParseError(format!("{failed} litmus test(s) violated")));
    }
    Ok(())
}

/// Validate a Chrome trace-event file (`--trace-out` output or a flight
/// dump): CI's smoke check that a run leaves a loadable trace behind.
fn cmd_trace_check(args: &Args) -> Result<(), ParseError> {
    use pandora::obs::json;

    let path = args
        .get("path")
        .ok_or_else(|| ParseError("trace-check requires --path <trace.json>".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ParseError(format!("cannot read {path}: {e}")))?;
    let doc = json::parse(&text).map_err(|e| ParseError(format!("{path}: invalid JSON: {e}")))?;
    // Accept both export shapes: the bare array (`--trace-out`) and the
    // dump object wrapping it in `traceEvents` (auto-dumps).
    let events = doc
        .as_array()
        .or_else(|| doc.get("traceEvents").and_then(|t| t.as_array()))
        .ok_or_else(|| {
            ParseError(format!("{path}: expected a JSON array or an object with `traceEvents`"))
        })?;
    if events.is_empty() {
        return Err(ParseError(format!("{path}: trace contains no events")));
    }
    let mut tracks = std::collections::BTreeSet::new();
    let mut protocol_events = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let bad = |field: &str| {
            ParseError(format!("{path}: event {i} is missing or mistypes required key {field:?}"))
        };
        let ph = ev.get("ph").and_then(|v| v.as_str()).ok_or_else(|| bad("ph"))?;
        ev.get("ts").and_then(|v| v.as_f64()).ok_or_else(|| bad("ts"))?;
        ev.get("pid").and_then(|v| v.as_u64()).ok_or_else(|| bad("pid"))?;
        let tid = ev.get("tid").and_then(|v| v.as_u64()).ok_or_else(|| bad("tid"))?;
        ev.get("name").and_then(|v| v.as_str()).ok_or_else(|| bad("name"))?;
        tracks.insert(tid);
        // A protocol event (`TxnEvent`) is an instant whose args name it.
        if let Some(event) = ev.get("args").and_then(|a| a.get("event")) {
            if ph != "i" || event.as_str().is_none() {
                return Err(bad("args.event"));
            }
            protocol_events += 1;
        }
    }
    if let Some(seed) = doc.get("chaos_seed").and_then(|s| s.as_str()) {
        println!("chaos seed {seed}");
    }
    println!(
        "{path}: OK — {} events across {} tracks, {protocol_events} protocol events",
        events.len(),
        tracks.len()
    );
    Ok(())
}

fn cmd_info() {
    println!("pandora-cli {}", env!("CARGO_PKG_VERSION"));
    println!("protocols : pandora (PILL + non-blocking recovery), ford (baseline, scan recovery), traditional (lock-intent logging)");
    println!("workloads : micro, smallbank, tatp, tpcc, ycsb-a..ycsb-f");
    println!("bugs      : complicit-abort, missing-actions, covert-locks, relaxed-locks, lost-decision, logging-without-locking");
    println!("persistence: volatile (replication), battery (DRAM), nvm (selective flush)");
}
