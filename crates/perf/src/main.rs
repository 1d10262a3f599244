//! `pandora-perf` — the repository's benchmark (README.md beside this
//! crate's manifest has the tables of workloads and metrics).
//!
//! ```text
//! pandora-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pandora-perf run [--seed <n>] [--workload <name>] [--out <file>] [--quick]
//! pandora-perf compare <a.json> <b.json>
//! ```
//!
//! The first form is one measured run of one workload — end-to-end
//! metrics with `--trace 0`, per-layer metrics from the traced pass and
//! the layer probes with `--trace 1` — ending in one JSON line. `run`
//! does both for every workload and writes one ledger document;
//! `compare` judges two such documents by the bounds of `BENCHMARK.json`.

mod audit;
mod drive;
mod hist;
mod layers;
mod pin;
mod report;
mod spans;
mod spec;

use std::process::ExitCode;
use std::time::Duration;

use drive::{Recoveries, Tally};
use report::{Metric, RunResult};
use spec::{Contract, Data, Spec};

/// Untimed warm-up attempts per coordinator in every set-up.
const WARMUP: u64 = 50_000;
const QUICK_WARMUP: u64 = 500;
/// Set-ups per untraced run; the last one is measured on, the median
/// time of all is `setup_s` (the pipeline's contract: several set-ups
/// per run, so that work moved into set-up shows through the noise).
const SETUPS: usize = 3;
/// Share of the window the steady workloads spend in the recovery
/// rounds that follow the two-coordinator phase (the contract wants
/// every end-to-end metric measured, and non-zero, on every workload).
const RECOVERY_SHARE: f64 = 0.25;

/// How long and how warm: the contract's run, or `--quick`.
#[derive(Clone, Copy)]
pub struct Scale {
    pub seconds: f64,
    pub warmup: u64,
    /// Attempts per traced pass.
    pub traced_attempts: u64,
    /// Recovery rounds in the traced pass.
    pub traced_rounds: u64,
    /// Divides the iteration counts of the layer probes.
    pub probe_div: u64,
    pub setups: usize,
}

impl Scale {
    fn full(seconds: f64) -> Scale {
        Scale {
            seconds,
            warmup: WARMUP,
            traced_attempts: 20_000,
            traced_rounds: 10,
            probe_div: 1,
            setups: SETUPS,
        }
    }

    fn quick() -> Scale {
        Scale {
            seconds: 0.3,
            warmup: QUICK_WARMUP,
            traced_attempts: 500,
            traced_rounds: 2,
            probe_div: 200,
            setups: 1,
        }
    }
}

/// The lower median; zero for no samples.
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// One untraced run of one workload: the end-to-end metrics.
fn run_end_to_end(spec: Spec, seed: u64, scale: Scale) -> RunResult {
    let coordinators = if spec.failover { 1 } else { drive::COORDINATORS };
    let mut setup_secs = Vec::with_capacity(scale.setups);
    let mut setup = drive::set_up(spec, seed, coordinators, scale.warmup);
    setup_secs.push(setup.secs);
    while setup_secs.len() < scale.setups {
        drop(setup);
        setup = drive::set_up(spec, seed, coordinators, scale.warmup);
        setup_secs.push(setup.secs);
    }
    let drive::Setup { bench, mut drivers, warm, .. } = setup;

    let window = Duration::from_secs_f64(scale.seconds);
    let mut failures = 0u64;
    let mut recoveries = Recoveries::default();
    let mut phase2_errors = 0u64;
    let ran = if spec.failover {
        drive::run_window(&mut drivers, window, |deadline| {
            recoveries = drive::recovery_rounds_until(&bench, seed, deadline);
        })
    } else {
        let ran = drive::run_window(&mut drivers, window.mul_f64(1.0 - RECOVERY_SHARE), |_| {});
        // Nothing is in flight: every counter increment that committed
        // must be in the table, once, on every replica.
        let a = audit::scan(&bench.cluster);
        failures += a.failures();
        if let Data::Micro { .. } = spec.data {
            let updates = warm.updates + ran.iter().flatten().map(|(t, _)| t.updates).sum::<u64>();
            if a.field_sum != updates {
                eprintln!("audit: counters sum to {}, drivers committed {updates}", a.field_sum);
                failures += 1;
            }
        }
        // The recovery rounds run beside one coordinator that keeps
        // working (uncounted): recovery under load is the paper's case,
        // and a busy host wakes the memory nodes' control threads far
        // more evenly than an idle one.
        let beside =
            drive::run_window(&mut drivers[..1], window.mul_f64(RECOVERY_SHARE), |deadline| {
                recoveries = drive::recovery_rounds_until(&bench, seed, deadline);
            });
        phase2_errors = beside.iter().flatten().map(|(t, _)| t.errors).sum();
        ran
    };
    drop(drivers);
    // Pandora leaves the locks of not-yet-logged transactions to be
    // stolen on contact; the id-recycling scan releases what is left.
    bench.cluster.fd.recovery().recycle_failed_ids();
    let a = audit::scan(&bench.cluster);
    if a.failures() > 0 {
        eprintln!("audit after recovery: {a:?}");
    }
    failures += a.failures() + recoveries.bad_reports;

    // Per slice: the drivers' rates add up, their latencies pool.
    let mut all = Tally::default();
    let (mut slice_tps, mut slice_p50, mut slice_p99) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..drive::SLICES {
        let mut slice = Tally::default();
        let mut rate = 0.0;
        for (t, elapsed) in ran.iter().filter_map(|d| d.get(i)) {
            rate += t.commits as f64 / elapsed.as_secs_f64();
            slice.merge(t);
        }
        if slice.latency.count() > 0 {
            slice_tps.push(rate);
            slice_p50.push(slice.latency.quantile_us(0.5));
            slice_p99.push(slice.latency.quantile_us(0.99));
        }
        all.merge(&slice);
    }
    let lat = &all.latency;
    let metrics = vec![
        Metric::new("tps", median(&slice_tps)).samples(all.commits),
        Metric::new("commit_p50_us", median(&slice_p50)).samples(lat.count()),
        Metric::new("commit_share", all.commit_share()).samples(all.attempts),
        Metric::new("recovery_p90_us", median(&recoveries.round_p90_us)).samples(recoveries.coords),
        Metric::new("recovery_round_ms", median(&recoveries.round_ms)).samples(recoveries.rounds()),
        Metric::new("setup_s", median(&setup_secs)).samples(scale.setups as u64),
    ];
    let attempted = all.attempts + recoveries.coords;
    let failed = all.errors + phase2_errors + failures;
    // ISSUE 11's names for what the contract cannot gate: two shares
    // that are zero when all is well, and the tail percentiles, whose
    // run-to-run spread on a shared host is beyond any bound — whatever
    // else the host runs lands on the slowest calls first.
    let declare = &recoveries.declare;
    let ungated = vec![
        Metric::new("abort_share", 1.0 - all.commit_share())
            .unit("fraction")
            .samples(all.attempts),
        Metric::new("error_share", failed as f64 / attempted.max(1) as f64)
            .unit("fraction")
            .samples(attempted),
        Metric::new("commit_p99_us", median(&slice_p99))
            .unit("us")
            .samples(lat.samples_beyond(0.99) / drive::SLICES as u64),
        Metric::new("recovery_p50_us", declare.quantile_us(0.5))
            .unit("us")
            .samples(declare.count()),
        Metric::new("recovery_p99_us", declare.quantile_us(0.99))
            .unit("us")
            .samples(declare.samples_beyond(0.99)),
    ];
    RunResult {
        workload: spec.name,
        correct: failures == 0,
        attempted,
        failed,
        metrics,
        ungated,
        trace_json: None,
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    quick: bool,
}

fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Args, String> {
    let mut out =
        Args { workload: None, seed: 1, seconds: None, trace: false, out: None, quick: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        if flag == "--quick" {
            out.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => {
                Spec::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = spec::SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?;
                out.workload = Some(value.clone());
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out.out = Some(value.clone()),
            _ => unreachable!("flag list and match agree"),
        }
    }
    Ok(out)
}

/// Where the traced run's Chrome trace goes when no `--out` names a
/// place: beside the executable, which is inside the build directory.
fn trace_path_beside_exe(workload: &str) -> std::path::PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .unwrap_or_else(|| ".".into());
    dir.join(format!("pandora-perf-trace-{workload}.json"))
}

/// The contract's form: one workload, one mode, one JSON line last.
fn cmd_single(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let contract = Contract::load();
    let name = a.workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&name).expect("checked while parsing");
    let scale = Scale::full(a.seconds.unwrap_or(contract.run_seconds));
    let result = if a.trace {
        layers::run_per_layer(spec, a.seed, scale, &layers::probes(a.seed, scale))
    } else {
        run_end_to_end(spec, a.seed, scale)
    };
    let declared = if a.trace { &contract.per_layer } else { &contract.end_to_end };
    let result = result.with_units(declared)?;
    if let Some(trace) = &result.trace_json {
        let path = trace_path_beside_exe(spec.name);
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {}", path.display());
    }
    result.print_table();
    println!("{}", result.contract_line());
    Ok(if result.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The ledger form: every workload, untraced then traced, one document.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_flags(args, &["--workload", "--seed", "--out", "--quick"])?;
    let contract = Contract::load();
    let scale = if a.quick { Scale::quick() } else { Scale::full(contract.run_seconds) };
    let specs: Vec<Spec> = match &a.workload {
        Some(name) => vec![Spec::by_name(name).expect("checked while parsing")],
        None => spec::SPECS.to_vec(),
    };
    let mut rows = Vec::new();
    let mut all_correct = true;
    eprintln!("layer probes");
    let probes = layers::probes(a.seed, scale);
    for spec in specs {
        eprintln!("{}: untraced run", spec.name);
        let e2e = run_end_to_end(spec, a.seed, scale).with_units(&contract.end_to_end)?;
        e2e.print_table();
        eprintln!("{}: traced run", spec.name);
        let layer =
            layers::run_per_layer(spec, a.seed, scale, &probes).with_units(&contract.per_layer)?;
        layer.print_table();
        // The trace goes beside the results file, which names it
        // relative to itself.
        let trace_file = match (&a.out, &layer.trace_json) {
            (Some(out), Some(trace)) => {
                let path = format!("{out}.trace-{}.json", spec.name);
                std::fs::write(&path, trace).map_err(|e| format!("{path}: {e}"))?;
                std::path::Path::new(&path)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
            }
            _ => None,
        };
        all_correct &= e2e.correct && layer.correct;
        rows.push(report::LedgerRow { e2e, layer, trace_file });
    }
    let doc = report::ledger_json(&rows, a.seed, scale, !a.quick);
    match &a.out {
        Some(path) => std::fs::write(path, &doc).map_err(|e| format!("{path}: {e}"))?,
        None => println!("{doc}"),
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    pin::home();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => report::cmd_compare(&args[1..]),
        _ => cmd_single(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pandora-perf: {e}");
            eprintln!(
                "usage: pandora-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                 pandora-perf run [--seed <n>] [--workload <name>] [--out <file>] [--quick]\n       \
                 pandora-perf compare <a.json> <b.json>"
            );
            ExitCode::from(2)
        }
    }
}
