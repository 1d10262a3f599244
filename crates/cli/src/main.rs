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
use std::time::{Duration, Instant};

use args::{Args, FaultSpec, ParseError};
use pandora::config::PersistenceMode;
use pandora::{
    BugFlags, MemoryFailureHandler, ProtocolKind, RecoveryCrashPlan, SimCluster, SystemConfig,
};
use pandora_workloads::{
    with_tables, MicroBench, RunnerConfig, SmallBank, Tatp, Tpcc, Workload, WorkloadRunner, Ycsb,
    YcsbMix,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdma_sim::{ChaosConfig, CrashMode, CrashPlan, LatencyModel, NodeId};

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
  --doorbell            coalesce commit writes per node (doorbell batching)
  --pipeline-depth N    posted verbs kept in flight per QP by the fan-out
                        commit path                    (default 16)
  --no-pipeline         issue every verb blocking (sequential baseline;
                        same as --pipeline-depth 1)
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

fn parse_workload(args: &Args) -> Result<Box<dyn Workload>, ParseError> {
    let micro_keys = args.get_u64("keys", 65_536)?;
    let w: Box<dyn Workload> = match args.get("workload").unwrap_or("micro") {
        "micro" => {
            let mut m = MicroBench::new(micro_keys, args.get_f64("write-ratio", 0.5)?);
            if let Some(hot) = args.get("hot-keys") {
                let hot: u64 =
                    hot.parse().map_err(|_| ParseError("--hot-keys expects an integer".into()))?;
                m = m.with_hot_keys(hot);
            }
            Box::new(m)
        }
        "smallbank" => Box::new(SmallBank::new(args.get_u64("accounts", 16_384)?)),
        "tatp" => Box::new(Tatp::new(args.get_u64("subscribers", 8_192)?)),
        "tpcc" => Box::new(Tpcc::new(args.get_u64("warehouses", 4)?)),
        "ycsb-a" => Box::new(Ycsb::new(YcsbMix::A, micro_keys)),
        "ycsb-b" => Box::new(Ycsb::new(YcsbMix::B, micro_keys)),
        "ycsb-c" => Box::new(Ycsb::new(YcsbMix::C, micro_keys)),
        "ycsb-d" => Box::new(Ycsb::new(YcsbMix::D, micro_keys)),
        "ycsb-e" => Box::new(Ycsb::new(YcsbMix::E, micro_keys)),
        "ycsb-f" => Box::new(Ycsb::new(YcsbMix::F, micro_keys)),
        other => return Err(ParseError(format!("unknown workload {other:?}"))),
    };
    Ok(w)
}

fn parse_config(args: &Args) -> Result<SystemConfig, ParseError> {
    let mut config = SystemConfig::new(parse_protocol(args)?);
    if args.has("stalls") {
        config = config.with_stalls(Duration::from_millis(50));
    }
    if args.has("doorbell") {
        config = config.with_doorbell_batching();
    }
    config.persistence = match args.get("persistence").unwrap_or("volatile") {
        "volatile" => PersistenceMode::VolatileReplicated,
        "battery" => PersistenceMode::BatteryBackedDram,
        "nvm" => PersistenceMode::NvmFlush,
        other => return Err(ParseError(format!("unknown persistence mode {other:?}"))),
    };
    if args.has("no-pipeline") {
        config = config.without_pipeline();
    } else if args.has("pipeline-depth") {
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

/// Wrap a boxed workload so the generic runner can use it.
struct Shim(Box<dyn Workload>);

impl Workload for Shim {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn tables(&self) -> Vec<dkvs::TableDef> {
        self.0.tables()
    }
    fn load(&self, cluster: &SimCluster) {
        self.0.load(cluster)
    }
    fn request(&self, rng: &mut StdRng) -> Option<pandora::TxnRequest> {
        self.0.request(rng)
    }
    fn execute(
        &self,
        co: &mut pandora::Coordinator,
        rng: &mut StdRng,
    ) -> Result<(), pandora::TxnError> {
        self.0.execute(co, rng)
    }
}

fn build_cluster(
    workload: &dyn Workload,
    config: SystemConfig,
    latency: LatencyModel,
    chaos: Option<ChaosConfig>,
    flight_capacity: Option<usize>,
) -> Arc<SimCluster> {
    let segments: u64 = workload.tables().iter().map(|t| t.segment_bytes()).sum();
    let capacity = (segments + (96 << 20)).next_power_of_two();
    let mut builder = with_tables(
        SimCluster::builder(config.protocol)
            .memory_nodes(3)
            .replication(2)
            .capacity_per_node(capacity)
            .max_coord_slots(2048)
            .config(config)
            .latency(latency),
        workload,
    );
    if let Some(cfg) = chaos {
        builder = builder.chaos(cfg);
    }
    if let Some(cap) = flight_capacity {
        builder = builder.flight(cap);
    }
    let cluster = builder.build().expect("build cluster");
    workload.load(&cluster);
    Arc::new(cluster)
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

fn cmd_run(args: &Args) -> Result<(), ParseError> {
    let config = parse_config(args)?;
    let workload = Arc::new(Shim(parse_workload(args)?));
    let coordinators = args.get_u64("coordinators", 4)? as usize;
    let duration = args.get_secs("duration", Duration::from_secs(5))?;
    let warmup = args.get_secs("warmup", Duration::from_secs(1))?;
    let latency_us = args.get_u64("latency-us", 0)?;
    let latency = if latency_us == 0 {
        LatencyModel::zero()
    } else {
        LatencyModel { rtt: Duration::from_micros(latency_us), ns_per_kib: 0 }
    };
    let fault = args.get("fault").map(FaultSpec::parse).transpose()?;
    if let Some(FaultSpec::Memory { node, .. }) = fault {
        // The harness builds a 3-node cluster; reject bad targets up
        // front instead of panicking mid-run.
        if node >= 3 {
            return Err(ParseError(format!(
                "memory fault targets node {node}, but the cluster has nodes 0..2"
            )));
        }
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
    if kill_recoverer.is_some() && !matches!(fault, Some(FaultSpec::Compute { .. })) {
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
        if node >= 3 {
            return Err(ParseError(format!(
                "--mem-fail-during-recovery targets node {node}, but the cluster has nodes 0..2"
            )));
        }
    }

    let chaos_cfg = parse_chaos(args)?;
    let trace_out = args.get("trace-out").map(str::to_string);
    // The flight recorder rides along whenever a trace is requested (or
    // a capacity is given explicitly); otherwise the run pays only the
    // `None` check per hook.
    let flight_capacity = if trace_out.is_some() || args.has("flight-capacity") {
        Some(args.get_u64("flight-capacity", 8192)? as usize)
    } else {
        None
    };
    println!(
        "workload={} protocol={:?} coordinators={coordinators} duration={duration:?} fault={fault:?}",
        workload.name(),
        config.protocol
    );
    let cluster = build_cluster(workload.as_ref(), config, latency, chaos_cfg, flight_capacity);
    if let Some(chaos) = &cluster.chaos {
        // Dataset is loaded; everything from here on runs under fire.
        chaos.set_enabled(true);
        println!(
            "chaos enabled: seed={} (replay with the same --chaos-seed)",
            chaos_cfg.unwrap().seed
        );
        if let Some(rec) = &cluster.flight {
            // Dumps and traces name the schedule they ran under.
            rec.set_chaos_seed(chaos_cfg.unwrap().seed);
        }
    }
    let mut runner = WorkloadRunner::spawn(
        Arc::clone(&cluster),
        Arc::clone(&workload),
        RunnerConfig {
            coordinators,
            seed: args.get_u64("seed", 7)?,
            phase_metrics: !args.has("no-phase-metrics"),
        },
    );
    // One time series for the printed mean and the metrics JSON:
    // committed/aborted deltas plus in-flight recoveries, dense enough
    // (25ms) to resolve a fail-over dip.
    let timeline = runner.timeline_sampler(Duration::from_millis(25));
    let t0 = Instant::now();

    if let Some(fault) = fault {
        let at = match fault {
            FaultSpec::Compute { at, .. } | FaultSpec::Memory { at, .. } => at,
        };
        std::thread::sleep(at.min(duration));
        match fault {
            FaultSpec::Compute { fraction, .. } => {
                let n = ((coordinators as f64) * fraction).round() as usize;
                let victims = runner.crash_first(n);
                println!("t={:?}: crashed {} coordinators", t0.elapsed(), victims.len());
                if let Some(plan) = kill_recoverer {
                    cluster.fd.arm_recovery_crash(plan);
                    println!("  armed recoverer kill at {}:{}", plan.step.name(), plan.at_verb);
                }
                if let Some(node) = mem_fail_during {
                    cluster.fd.arm_nested_mem_fail(NodeId(node));
                    println!("  armed memory node {node} to die during recovery");
                }
                std::thread::sleep(Duration::from_millis(5)); // detection
                for v in &victims {
                    cluster.fd.declare_failed(*v);
                }
                for report in cluster.fd.reports() {
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
                    let n = runner.respawn_crashed();
                    println!("  respawned {n} coordinators");
                }
            }
            FaultSpec::Memory { node, .. } => {
                cluster.ctx.fabric.kill_node(NodeId(node)).expect("kill node");
                std::thread::sleep(Duration::from_millis(5));
                let handler =
                    MemoryFailureHandler::new(Arc::clone(&cluster.ctx)).expect("memfail handler");
                let report = handler.handle_failure(NodeId(node));
                println!(
                    "t={:?}: memory node {node} failed; {} buckets promoted, {} lost, reconfig {:?}",
                    t0.elapsed(),
                    report.promoted_buckets,
                    report.lost_buckets,
                    report.total
                );
            }
        }
    }

    std::thread::sleep(duration.saturating_sub(t0.elapsed()));
    let timeline_points = timeline.finish();
    let latency_hist = runner.latency();
    let probe = runner.probe();
    let registry = runner.metrics();
    let stats = runner.stop_and_join();

    let mean =
        pandora::mean_tps(&timeline_points, warmup.as_millis() as u64, duration.as_millis() as u64);
    let (p50, p95, p99) = latency_hist.percentiles();
    let stolen: u64 = stats.iter().map(|s| s.locks_stolen).sum();
    println!(
        "\ncommitted={} aborted={} abort_rate={:.2}%",
        probe.committed_total(),
        probe.aborted_total(),
        probe.abort_rate() * 100.0
    );
    println!("mean_tps={mean:.0} (after warmup)");
    println!("latency p50={p50:?} p95={p95:?} p99={p99:?} mean={:?}", latency_hist.mean());
    println!("locks_stolen={stolen}");
    if let Some(chaos) = &cluster.chaos {
        let c = chaos.stats();
        println!(
            "chaos: timeouts={} (ambiguous={}) dropped_in_flap={} flaps={} partitions={} spikes={}",
            c.timeouts_ambiguous + c.timeouts_not_applied,
            c.timeouts_ambiguous,
            c.verbs_dropped_in_flap,
            c.flaps_started,
            c.partitions_started,
            c.delay_spikes
        );
        let r = cluster.ctx.resilience.snapshot();
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
        registry.add_reports(&cluster.fd.reports());
        registry.add_timeline(&timeline_points);
        std::fs::write(path, registry.snapshot().to_json())
            .map_err(|e| ParseError(format!("cannot write {path}: {e}")))?;
        println!("metrics written to {path}");
    }
    if let Some(path) = &trace_out {
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
    let protocol = config.protocol;
    let cluster = build_cluster(workload.as_ref(), config, LatencyModel::zero(), None, None);

    let mut rng = StdRng::seed_from_u64(args.get_u64("seed", 7)?);
    let mut frozen = Vec::new();
    for _ in 0..frozen_n {
        let (mut co, lease) = cluster.coordinator().expect("coordinator");
        for _ in 0..4 {
            let base = co.injector().ops_issued();
            use rand::RngExt;
            co.injector().arm(CrashPlan {
                at_op: base + rng.random_range(1..=25u64),
                mode: if rng.random_bool(0.5) { CrashMode::AfterOp } else { CrashMode::BeforeOp },
            });
            let _ = workload.execute(&mut co, &mut rng);
            if co.injector().is_crashed() {
                break;
            }
        }
        if !co.injector().is_crashed() {
            co.injector().crash_now();
            co.gate().mark_dead();
        }
        frozen.push((lease.coord_id, lease.endpoint));
    }

    let rc = cluster.fd.recovery();
    let t0 = Instant::now();
    let mut reports = Vec::new();
    match protocol {
        ProtocolKind::Pandora => {
            for &(coord, ep) in &frozen {
                reports.push(rc.recover_pandora(coord, ep));
            }
        }
        ProtocolKind::Ford => reports.push(rc.recover_baseline(&frozen)),
        ProtocolKind::Traditional => reports.push(rc.recover_traditional(&frozen)),
    }
    let elapsed = t0.elapsed();
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
        std::fs::write(path, registry.snapshot().to_json())
            .map_err(|e| ParseError(format!("cannot write {path}: {e}")))?;
        println!("metrics written to {path}");
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
