//! Results: the table and the one-line JSON of a single run, the ledger
//! document of `run`, and `compare`. JSON is written by hand and read
//! back with `pandora::obs::json`.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use pandora::obs::json::{self, JsonValue};

use crate::spec::{Contract, MetricDecl};
use crate::Scale;

#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Filled from `BENCHMARK.json` by [`RunResult::with_units`].
    pub unit: String,
    /// Samples behind the value; for a p99, the samples beyond it.
    pub samples: Option<u64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64) -> Metric {
        Metric { name: name.into(), value, unit: String::new(), samples: None }
    }

    pub fn unit(mut self, unit: &str) -> Metric {
        self.unit = unit.into();
        self
    }

    pub fn samples(mut self, n: u64) -> Metric {
        self.samples = Some(n);
        self
    }
}

pub struct RunResult {
    pub workload: &'static str,
    /// Every audit passed.
    pub correct: bool,
    /// Transaction attempts plus recoveries.
    pub attempted: u64,
    /// Attempts that ended in a non-abort error, bad recovery reports
    /// and failed audit checks.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Rows that `BENCHMARK.json` does not declare and nothing judges;
    /// they carry their own units. Printed and written to the ledger.
    pub ungated: Vec<Metric>,
    /// Chrome trace-event JSON of the traced pass.
    pub trace_json: Option<String>,
}

impl RunResult {
    /// Check that the run produced exactly the declared metrics, each a
    /// finite number, and put them in declared order with their units.
    pub fn with_units(mut self, declared: &[MetricDecl]) -> Result<RunResult, String> {
        let mut ordered = Vec::with_capacity(declared.len());
        for d in declared {
            let i =
                self.metrics.iter().position(|m| m.name == d.name).ok_or_else(|| {
                    format!("{}: metric {} was not measured", self.workload, d.name)
                })?;
            let mut m = self.metrics.swap_remove(i);
            if !m.value.is_finite() {
                return Err(format!("{}: metric {} is {}", self.workload, m.name, m.value));
            }
            m.unit = d.unit.clone();
            ordered.push(m);
        }
        if let Some(extra) = self.metrics.first() {
            return Err(format!("{}: metric {} is not declared", self.workload, extra.name));
        }
        self.metrics = ordered;
        Ok(self)
    }

    pub fn print_table(&self) {
        println!(
            "{}  correct={} attempted={} failed={}",
            self.workload, self.correct, self.attempted, self.failed
        );
        for (m, note) in self
            .metrics
            .iter()
            .map(|m| (m, ""))
            .chain(self.ungated.iter().map(|m| (m, "  ungated")))
        {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            println!("  {:<44} {:>16.4} {}{}{}", m.name, m.value, m.unit, n, note);
        }
    }

    /// The one JSON object the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics, false)
        )
    }
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"", m.name, m.value, m.unit)
            .expect("write to String");
        if let (true, Some(n)) = (with_samples, m.samples) {
            write!(out, ", \"samples\": {n}").expect("write to String");
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// `tps(micro-w4-rtt2-il8) / tps(micro-w4-rtt2)`, both untraced: a row
/// of the ledger document, since no single run can measure it.
const SPEEDUP: &str = "core.sched.speedup_vs_classic";

pub struct LedgerRow {
    pub e2e: RunResult,
    pub layer: RunResult,
    pub trace_file: Option<String>,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The document `run` writes: a header naming the machine and the
/// commit, then per workload the untraced and the traced results.
pub fn ledger_json(rows: &[LedgerRow], seed: u64, scale: Scale, comparable: bool) -> String {
    let overshoot = rows
        .first()
        .and_then(|r| r.layer.metrics.iter().find(|m| m.name == "rdma-sim.pace_overshoot_ns"))
        .map_or(0.0, |m| m.value);
    let mut out = String::new();
    writeln!(out, "{{").expect("write to String");
    writeln!(out, "  \"schema\": \"pandora-perf-v1\",").expect("write to String");
    writeln!(out, "  \"comparable\": {comparable},").expect("write to String");
    writeln!(
        out,
        "  \"header\": {{\"commit\": \"{}\", \"rustc\": \"{}\", \"package\": \"{}\", \"nproc\": {}, \
         \"seed\": {seed}, \"seconds\": {}, \"rdma-sim.pace_overshoot_ns\": {overshoot}}},",
        json::escape(&tool_line("git", &["rev-parse", "--short", "HEAD"])),
        json::escape(&tool_line("rustc", &["-V"])),
        // `pandora-perf-offline` when built over the stand-in crates.
        env!("CARGO_PKG_NAME"),
        crate::pin::cpus(),
        scale.seconds,
    )
    .expect("write to String");
    // The one number that takes two workloads: the ROADMAP's "2.5x".
    let tps = |workload: &str| {
        let row = rows.iter().find(|r| r.e2e.workload == workload)?;
        row.e2e.metrics.iter().find(|m| m.name == "tps").map(|m| m.value)
    };
    if let (Some(il8), Some(classic)) = (tps("micro-w4-rtt2-il8"), tps("micro-w4-rtt2")) {
        let speedup = Metric::new(SPEEDUP, il8 / classic).unit("ratio");
        println!(
            "{SPEEDUP}: {:.4} (tps of micro-w4-rtt2-il8 / tps of micro-w4-rtt2)",
            speedup.value
        );
        writeln!(out, "  \"derived\": {},", metrics_json(&[speedup], false))
            .expect("write to String");
    }
    writeln!(out, "  \"workloads\": [").expect("write to String");
    for (i, r) in rows.iter().enumerate() {
        let trace = match &r.trace_file {
            Some(p) => format!("\"{}\"", json::escape(p)),
            None => "null".into(),
        };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {},\n     \
             \"end_to_end\": {},\n     \"ungated\": {},\n     \"per_layer\": {},\n     \
             \"trace_file\": {trace}}}{}",
            r.e2e.workload,
            r.e2e.correct && r.layer.correct,
            r.e2e.attempted + r.layer.attempted,
            r.e2e.failed + r.layer.failed,
            metrics_json(&r.e2e.metrics, true),
            metrics_json(&r.e2e.ungated, true),
            metrics_json(&r.layer.metrics, true),
            if i + 1 < rows.len() { "," } else { "" },
        )
        .expect("write to String");
    }
    writeln!(out, "  ]\n}}").expect("write to String");
    out
}

/// Layer metrics that are counts of a deterministic single-coordinator
/// pass on the classic engine: equal seeds must give equal values.
fn is_exact_count(workload: &str, metric: &str) -> bool {
    if workload.ends_with("-il8") {
        return false;
    }
    (metric.starts_with("rdma-sim.") && metric.ends_with("_per_txn"))
        || metric == "dkvs.log_bytes_per_txn"
        || matches!(
            metric,
            "core.recovery.logged_txns_per_coord"
                | "core.recovery.rolled_forward_share"
                | "core.recovery.locks_released_per_coord"
                | "core.recovery.attempts_mean"
        )
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some("pandora-perf-v1") => Ok(doc),
        _ => Err(format!("{path}: not a pandora-perf-v1 document")),
    }
}

fn workload<'a>(doc: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(name))
}

fn value(w: Option<&JsonValue>, section: &str, metric: &str) -> Option<f64> {
    w?.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// `compare <a.json> <b.json>`: one row per (workload, end-to-end
/// metric) with base, new, ratio (base: `a`) and a verdict by the
/// metric's bound — `unresolved` when either document is a quick run,
/// failed its audits or lacks the row, or when the two come from
/// different builds; exact-count layer metrics are checked for equality
/// when the seeds agree. Non-zero exit on any `differs`, and on any
/// `worse` of a gated workload: a timing of the ledger-only workload is
/// host CPU, and on a shared host two runs of one commit can differ by
/// more than the bound (README.md, "Workloads").
pub fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two result files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let contract = Contract::load();
    let usable = |doc: &JsonValue, w: Option<&JsonValue>| {
        doc.get("comparable").and_then(|c| c.as_bool()) == Some(true)
            && w.and_then(|w| w.get("correct")).and_then(|c| c.as_bool()) == Some(true)
    };
    let seed =
        |doc: &JsonValue| doc.get("header").and_then(|h| h.get("seed")).and_then(|s| s.as_u64());
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    // A build over the stand-in crates and one over the real ones are
    // not comparable (README.md, "Offline build").
    let package = |doc: &JsonValue| {
        doc.get("header")
            .and_then(|h| h.get("package"))
            .and_then(|p| p.as_str())
            .map(String::from)
    };
    let same_build = package(&a) == package(&b);
    let mut bad = 0u32;
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    for name in crate::spec::SPECS.iter().map(|s| s.name) {
        let (wa, wb) = (workload(&a, name), workload(&b, name));
        if wa.is_none() && wb.is_none() {
            continue;
        }
        let judged = same_build && usable(&a, wa) && usable(&b, wb);
        for m in &contract.end_to_end {
            let (va, vb) = (value(wa, "end_to_end", &m.name), value(wb, "end_to_end", &m.name));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = match (va, vb) {
                (Some(x), Some(y)) if judged && x.is_finite() && y.is_finite() && x > 0.0 => {
                    // Positive = worse, as a share of the base.
                    let worse_by = if m.higher_is_better { (x - y) / x } else { (y - x) / x };
                    if worse_by > bound {
                        bad += u32::from(name != crate::spec::LEDGER_ONLY);
                        "worse"
                    } else if worse_by < -bound {
                        "better"
                    } else {
                        "same"
                    }
                }
                _ => "unresolved",
            };
            println!(
                "{:<22} {:<20} {:>14.4} {:>14.4} {:>8.4}  {verdict}",
                name,
                m.name,
                va.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN) / va.unwrap_or(f64::NAN),
            );
        }
        for m in contract.per_layer.iter().filter(|m| is_exact_count(name, &m.name)) {
            let (va, vb) = (value(wa, "per_layer", &m.name), value(wb, "per_layer", &m.name));
            let verdict = match (va, vb) {
                (Some(x), Some(y)) if same_seed && x == y => "equal",
                (Some(_), Some(_)) if same_seed => {
                    bad += 1;
                    "differs"
                }
                (Some(_), Some(_)) => "seeds differ",
                _ => "unresolved",
            };
            println!(
                "{:<22} {:<42} {:>14.4} {:>14.4}  {verdict}",
                name,
                m.name,
                va.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN)
            );
        }
    }
    let derived = |doc: &JsonValue| doc.get("derived")?.get(SPEEDUP)?.get("value")?.as_f64();
    if let (Some(x), Some(y)) = (derived(&a), derived(&b)) {
        println!("{:<22} {:<42} {:>14.4} {:>14.4}  not judged", "(derived)", SPEEDUP, x, y);
    }
    Ok(if bad == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
