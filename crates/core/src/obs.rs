//! Numbers: everything the system counts, times or samples — commit and
//! abort counters, latency histograms (whole transactions and per
//! commit-path phase), the abort taxonomy, the background throughput
//! sampler, and the registry that composes them with the fabric's verb
//! telemetry, recovery reports and chaos / resilience / scheduler
//! counters into one JSON-serializable snapshot. Events — who did what to
//! which key, when — are [`crate::flight`]'s.
//!
//! The paper's evaluation is a story about *where time goes* — execution
//! vs. locking vs. validation vs. logging on the commit path (Figures
//! 6–14), and detection vs. link termination vs. log recovery vs.
//! stray-lock notification during fail-over (Table 2). A
//! [`MetricsRegistry`] makes that breakdown first-class: it holds the
//! run's sources ([`ThroughputProbe`], [`LatencyHistogram`],
//! [`PhaseStats`], the fabric, [`RecoveryReport`]s) and turns them into a
//! [`MetricsSnapshot`] that serializes to JSON without external
//! dependencies (the workspace has no `serde_json`; see [`json`] for the
//! matching reader used by tests and tools).
//!
//! Two write disciplines, kept apart on purpose: the histograms and
//! counters here are shared by every coordinator thread of a run and
//! updated with relaxed `fetch_add`s; the fabric's per-queue-pair blocks
//! below (`rdma_sim`) have one writer each and use plain load/store.
//! Both report through the one [`LatencySummary`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
pub use rdma_sim::LatencySummary;
use rdma_sim::{
    log2_bucket, ChaosModel, ChaosStatsSnapshot, Fabric, OpCountersSnapshot, VerbKind,
    VerbLatencySnapshot,
};

use crate::recovery::RecoveryReport;
use crate::retry::{ResilienceSnapshot, ResilienceStats};
use crate::txn::AbortReason;

/// The six commit-path stages of the protocol, in execution order.
///
/// * `Execute` — application reads/writes up to the `commit()` call,
///   excluding time spent acquiring write locks.
/// * `Lock` — write-lock acquisition (CAS loops, PILL stray-lock steals),
///   whether eager (during execution) or deferred.
/// * `Validate` — read-set version/lock re-checks.
/// * `Log` — undo-log WRITEs to the f+1 log replicas.
/// * `Apply` — in-place value/version WRITEs on every replica.
/// * `Unlock` — lock-word release WRITEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPhase {
    Execute,
    Lock,
    Validate,
    Log,
    Apply,
    Unlock,
}

impl TxnPhase {
    pub const COUNT: usize = 6;
    pub const ALL: [TxnPhase; TxnPhase::COUNT] = [
        TxnPhase::Execute,
        TxnPhase::Lock,
        TxnPhase::Validate,
        TxnPhase::Log,
        TxnPhase::Apply,
        TxnPhase::Unlock,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            TxnPhase::Execute => "execute",
            TxnPhase::Lock => "lock",
            TxnPhase::Validate => "validate",
            TxnPhase::Log => "log",
            TxnPhase::Apply => "apply",
            TxnPhase::Unlock => "unlock",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// Shared commit/abort counters, bumped by every coordinator.
#[derive(Debug, Default)]
pub struct ThroughputProbe {
    pub committed: AtomicU64,
    pub aborted: AtomicU64,
}

impl ThroughputProbe {
    pub fn new() -> Arc<ThroughputProbe> {
        Arc::new(ThroughputProbe::default())
    }

    #[inline]
    pub fn commit(&self) {
        self.committed.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn abort(&self) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn committed_total(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    pub fn aborted_total(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Abort rate in [0, 1] over everything recorded so far.
    pub fn abort_rate(&self) -> f64 {
        let c = self.committed_total() as f64;
        let a = self.aborted_total() as f64;
        if c + a == 0.0 {
            0.0
        } else {
            a / (c + a)
        }
    }
}

/// Lock-free log₂-bucket latency histogram (nanosecond resolution,
/// buckets 2⁰ ns … 2⁶³ ns; see [`rdma_sim::log2_bucket`]). Coarse but
/// allocation-free and shareable across coordinator threads. The count is
/// the sum of the buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 64],
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram { buckets: [const { AtomicU64::new(0) }; 64], sum_ns: AtomicU64::new(0) }
    }

    /// Record one latency observation.
    #[inline]
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[log2_bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn load(&self) -> [u64; 64] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Count, mean, p50, p95 and p99 as they stand now.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::of(&self.load(), self.sum_ns.load(Ordering::Relaxed))
    }

    pub fn count(&self) -> u64 {
        self.load().iter().sum()
    }

    /// Mean latency.
    pub fn mean(&self) -> Duration {
        Duration::from_nanos(self.summary().mean_ns)
    }

    /// Approximate quantile (`q` in [0, 1]): the upper edge of the bucket
    /// containing the q-th observation.
    pub fn quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(LatencySummary::quantile_ns(&self.load(), q))
    }

    /// (p50, p95, p99) summary.
    pub fn percentiles(&self) -> (Duration, Duration, Duration) {
        let s = self.summary();
        (
            Duration::from_nanos(s.p50_ns),
            Duration::from_nanos(s.p95_ns),
            Duration::from_nanos(s.p99_ns),
        )
    }

    /// Fold `other`'s observations into this histogram (bucket-wise sum),
    /// so per-thread histograms can be combined into one snapshot.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.load()) {
            if theirs != 0 {
                mine.fetch_add(theirs, Ordering::Relaxed);
            }
        }
        self.sum_ns.fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Lock-free per-phase latency histograms plus abort-reason counters,
/// shared by every coordinator of a run. All updates are relaxed atomic
/// bumps on [`LatencyHistogram`] buckets — cheap enough to leave on.
#[derive(Debug, Default)]
pub struct PhaseStats {
    phases: [LatencyHistogram; TxnPhase::COUNT],
    aborts: [AtomicU64; AbortReason::COUNT],
}

impl PhaseStats {
    pub fn new() -> Arc<PhaseStats> {
        Arc::new(PhaseStats::default())
    }

    /// Record one observation of `phase` taking `latency`.
    #[inline]
    pub fn record(&self, phase: TxnPhase, latency: Duration) {
        self.phases[phase.index()].record(latency);
    }

    /// Count one abort for `reason`.
    #[inline]
    pub fn note_abort(&self, reason: AbortReason) {
        self.aborts[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub fn histogram(&self, phase: TxnPhase) -> &LatencyHistogram {
        &self.phases[phase.index()]
    }

    pub fn abort_count(&self, reason: AbortReason) -> u64 {
        self.aborts[reason.index()].load(Ordering::Relaxed)
    }

    /// `(name, summary)` for every phase, in execution order.
    pub fn summaries(&self) -> [(&'static str, LatencySummary); TxnPhase::COUNT] {
        TxnPhase::ALL.map(|p| (p.name(), self.phases[p.index()].summary()))
    }

    /// `(name, count)` for every abort reason, including zero counts so
    /// the JSON schema is stable across runs.
    pub fn abort_counts(&self) -> [(&'static str, u64); AbortReason::COUNT] {
        AbortReason::ALL.map(|r| (r.name(), self.aborts[r.index()].load(Ordering::Relaxed)))
    }

    /// Fold another stats block into this one (per-thread aggregation).
    pub fn merge(&self, other: &PhaseStats) {
        for p in TxnPhase::ALL {
            self.phases[p.index()].merge(&other.phases[p.index()]);
        }
        for r in AbortReason::ALL {
            self.aborts[r.index()]
                .fetch_add(other.aborts[r.index()].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// One point of the throughput timeline: commits, abort pressure and the
/// recovery gauge sampled together, so a fail-over window shows up as
/// correlated dips/spikes in a single series (the fail-over figures of
/// the paper, Figures 6–14, and the `timeline` array of the
/// `pandora-metrics-v1` JSON schema). A point covers the interval since
/// the previous point (the first: since sampling started).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Milliseconds since sampling started, at the end of the interval.
    pub at_ms: u64,
    /// Committed transactions during this interval.
    pub committed_delta: u64,
    /// Aborted transactions during this interval.
    pub aborted_delta: u64,
    /// Committed transactions per second over this interval.
    pub tps: f64,
    /// Recoveries in flight at sample time (`SharedContext::recoveries_in_flight`).
    pub recoveries_in_flight: u64,
}

/// The background sampler: snapshots a [`ThroughputProbe`] plus an
/// arbitrary gauge (in practice the shared context's
/// in-flight-recoveries counter) every `interval`.
pub struct TimelineSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<TimelinePoint>>>,
}

impl TimelineSampler {
    /// Start the sampling thread; `gauge` is read once per tick.
    pub fn spawn(
        probe: Arc<ThroughputProbe>,
        gauge: impl Fn() -> u64 + Send + 'static,
        interval: Duration,
    ) -> TimelineSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("timeline-sampler".into())
            .spawn(move || {
                let t0 = Instant::now();
                let mut last_c = probe.committed_total();
                let mut last_a = probe.aborted_total();
                let mut last_t = t0;
                let mut out = Vec::new();
                let mut take = |last_c: &mut u64, last_a: &mut u64, last_t: &mut Instant| {
                    let now = Instant::now();
                    let c = probe.committed_total();
                    let a = probe.aborted_total();
                    let dt = now.duration_since(*last_t).as_secs_f64().max(1e-9);
                    out.push(TimelinePoint {
                        at_ms: now.duration_since(t0).as_millis() as u64,
                        committed_delta: c - *last_c,
                        aborted_delta: a - *last_a,
                        tps: (c - *last_c) as f64 / dt,
                        recoveries_in_flight: gauge(),
                    });
                    *last_c = c;
                    *last_a = a;
                    *last_t = now;
                };
                loop {
                    if stop2.load(Ordering::Acquire) {
                        // Final partial interval: commits landing after
                        // the last tick must still be counted, or short
                        // runs under-report totals.
                        if probe.committed_total() != last_c || probe.aborted_total() != last_a {
                            take(&mut last_c, &mut last_a, &mut last_t);
                        }
                        break;
                    }
                    std::thread::sleep(interval);
                    take(&mut last_c, &mut last_a, &mut last_t);
                }
                out
            })
            .expect("spawn timeline sampler");
        TimelineSampler { stop, handle: Some(handle) }
    }

    /// Stop sampling and collect the series.
    pub fn finish(mut self) -> Vec<TimelinePoint> {
        self.stop.store(true, Ordering::Release);
        self.handle
            .take()
            .expect("finish called once")
            .join()
            .expect("timeline sampler panicked")
    }
}

impl Drop for TimelineSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Mean committed tps over the points whose timestamps fall in
/// `[from_ms, to_ms)`: their commits over the time they cover. Sampler
/// ticks are sleeps on a busy host, so intervals differ in length and the
/// mean of their *rates* is not commits ÷ time.
pub fn mean_tps(points: &[TimelinePoint], from_ms: u64, to_ms: u64) -> f64 {
    let (mut commits, mut covered_ms, mut prev_ms) = (0u64, 0u64, 0u64);
    for p in points {
        if p.at_ms >= from_ms && p.at_ms < to_ms {
            commits += p.committed_delta;
            covered_ms += p.at_ms - prev_ms;
        }
        prev_ms = p.at_ms;
    }
    if covered_ms == 0 {
        0.0
    } else {
        commits as f64 * 1000.0 / covered_ms as f64
    }
}

/// Composes the run's metric sources; build with the `with_*` methods,
/// then call [`MetricsRegistry::snapshot`] at any point (sources are
/// shared `Arc`s, so a registry stays valid after the runner that created
/// it is torn down).
#[derive(Default)]
pub struct MetricsRegistry {
    phases: Option<Arc<PhaseStats>>,
    probe: Option<Arc<ThroughputProbe>>,
    txn_latency: Option<Arc<LatencyHistogram>>,
    fabric: Option<Arc<Fabric>>,
    resilience: Option<Arc<ResilienceStats>>,
    chaos: Option<Arc<ChaosModel>>,
    sched: Option<Arc<crate::sched::SchedStats>>,
    reports: Mutex<Vec<RecoveryReport>>,
    timeline: Mutex<Vec<TimelinePoint>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn with_phases(mut self, phases: Arc<PhaseStats>) -> MetricsRegistry {
        self.phases = Some(phases);
        self
    }

    pub fn with_probe(mut self, probe: Arc<ThroughputProbe>) -> MetricsRegistry {
        self.probe = Some(probe);
        self
    }

    pub fn with_txn_latency(mut self, latency: Arc<LatencyHistogram>) -> MetricsRegistry {
        self.txn_latency = Some(latency);
        self
    }

    /// Wire the fabric: verb counters (total, per node, per stripe lane)
    /// and post→completion latencies, all read from its per-queue-pair
    /// blocks at snapshot time — live queue pairs included.
    pub fn with_fabric(mut self, fabric: Arc<Fabric>) -> MetricsRegistry {
        self.fabric = Some(fabric);
        self
    }

    pub fn with_resilience(mut self, resilience: Arc<ResilienceStats>) -> MetricsRegistry {
        self.resilience = Some(resilience);
        self
    }

    pub fn with_chaos(mut self, chaos: Arc<ChaosModel>) -> MetricsRegistry {
        self.chaos = Some(chaos);
        self
    }

    /// Wire the interleaved scheduler's gauges (see
    /// [`crate::sched::SchedStats`]): the `txns_in_flight` gauge and the
    /// admission/commit/abort counters land under `"sched"`.
    pub fn with_sched(mut self, sched: Arc<crate::sched::SchedStats>) -> MetricsRegistry {
        self.sched = Some(sched);
        self
    }

    /// Append recovery reports (e.g. from `FailureDetector::reports`).
    pub fn add_reports(&self, reports: &[RecoveryReport]) {
        self.reports.lock().extend_from_slice(reports);
    }

    /// Append timeline points (from [`TimelineSampler::finish`]).
    pub fn add_timeline(&self, points: &[TimelinePoint]) {
        self.timeline.lock().extend_from_slice(points);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let (committed, aborted, abort_rate) = match &self.probe {
            Some(p) => (p.committed_total(), p.aborted_total(), p.abort_rate()),
            None => (0, 0, 0.0),
        };
        let phases = match &self.phases {
            Some(p) => p.summaries().to_vec(),
            None => TxnPhase::ALL.map(|p| (p.name(), LatencySummary::default())).to_vec(),
        };
        let abort_reasons = match &self.phases {
            Some(p) => p.abort_counts().to_vec(),
            None => AbortReason::ALL.map(|r| (r.name(), 0)).to_vec(),
        };
        // Each fabric read walks every live queue pair's block: the total
        // is the per-node counters' sum, not a walk of its own.
        let fabric = self.fabric.as_deref();
        let fabric_nodes = fabric.map(|f| by_node(f.per_node_counters())).unwrap_or_default();
        let total = fabric_nodes.iter().fold(OpCountersSnapshot::default(), |t, (_, n)| t.plus(n));
        MetricsSnapshot {
            committed,
            aborted,
            abort_rate,
            txn_latency: self.txn_latency.as_deref().map(LatencyHistogram::summary),
            phases,
            abort_reasons,
            fabric_total: fabric.map(|_| total),
            fabric_nodes,
            verbs: fabric.map(Fabric::verb_stats),
            resilience: self.resilience.as_ref().map(|r| r.snapshot()),
            chaos: self.chaos.as_ref().map(|c| c.stats()),
            sched: self.sched.as_ref().map(|s| s.snapshot()),
            stripes: fabric.map(|f| by_node(f.stripe_counters())).unwrap_or_default(),
            recoveries: self.reports.lock().clone(),
            timeline: self.timeline.lock().clone(),
        }
    }
}

/// Everything the registry knows at one instant. `to_json` emits the
/// schema documented in EXPERIMENTS.md §Observability; [`json::parse`]
/// reads it back.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub committed: u64,
    pub aborted: u64,
    pub abort_rate: f64,
    /// End-to-end transaction latency (as recorded by the runner).
    pub txn_latency: Option<LatencySummary>,
    /// Per-phase commit-path histograms, in execution order.
    pub phases: Vec<(&'static str, LatencySummary)>,
    /// Abort counts per reason (zero counts included).
    pub abort_reasons: Vec<(&'static str, u64)>,
    /// Fabric-wide verb counts and bytes on the wire.
    pub fabric_total: Option<OpCountersSnapshot>,
    /// Per-memory-node verb counts, in node-id order.
    pub fabric_nodes: Vec<(u16, OpCountersSnapshot)>,
    /// Per-verb-kind posted→completed latency distributions plus the
    /// in-flight gauge — the posted-verb engine's view of the fabric.
    pub verbs: Option<VerbLatencySnapshot>,
    /// Retry / false-suspicion-survival / self-fence counters, when the
    /// registry was wired to a [`ResilienceStats`].
    pub resilience: Option<ResilienceSnapshot>,
    /// Injected-fault counters, when a chaos model was installed.
    pub chaos: Option<ChaosStatsSnapshot>,
    /// Interleaved-scheduler gauges (`txns_in_flight` et al.), when a
    /// [`crate::sched::SchedStats`] was wired in.
    pub sched: Option<crate::sched::SchedSnapshot>,
    /// Per-node per-stripe-lane verb counters of every coordinator's
    /// striped links, live or gone ([`Fabric::stripe_counters`]).
    pub stripes: Vec<(u16, Vec<OpCountersSnapshot>)>,
    /// One entry per recovery performed during the run.
    pub recoveries: Vec<RecoveryReport>,
    /// Sampled throughput/abort/recovery-gauge series (empty when no
    /// [`TimelineSampler`] ran).
    pub timeline: Vec<TimelinePoint>,
}

/// Node ids as plain integers, for serialization.
fn by_node<T>(v: Vec<(rdma_sim::NodeId, T)>) -> Vec<(u16, T)> {
    v.into_iter().map(|(n, x)| (n.0, x)).collect()
}

fn ops_json(o: &OpCountersSnapshot) -> String {
    format!(
        "{{\"reads\":{},\"writes\":{},\"cas\":{},\"faa\":{},\"flushes\":{},\
         \"bytes_read\":{},\"bytes_written\":{}}}",
        o.reads, o.writes, o.cas, o.faa, o.flushes, o.bytes_read, o.bytes_written
    )
}

fn summary_json(h: &LatencySummary) -> String {
    format!(
        "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
        h.count, h.mean_ns, h.p50_ns, h.p95_ns, h.p99_ns
    )
}

/// One recovery: step and total durations in nanoseconds, what the log
/// held, and the run's host-independent costs (verbs, barriers, fan-outs).
fn recovery_json(r: &RecoveryReport) -> String {
    let ns = |d: Duration| d.as_nanos() as u64;
    format!(
        "{{\"coord\":{},\"detection_ns\":{},\"link_termination_ns\":{},\
         \"log_recovery_ns\":{},\"stray_notification_ns\":{},\"total_ns\":{},\
         \"end_to_end_ns\":{},\"logged_txns\":{},\"rolled_forward\":{},\
         \"rolled_back\":{},\"locks_released\":{},\"completed\":{},\"attempts\":{},\
         \"verbs\":{},\"barriers\":{},\"link_fanouts\":{}}}",
        r.coord,
        ns(r.detection),
        ns(r.link_termination),
        ns(r.log_recovery),
        ns(r.stray_notification),
        ns(r.total),
        ns(r.end_to_end()),
        r.logged_txns,
        r.rolled_forward,
        r.rolled_back,
        r.locks_released,
        r.completed,
        r.attempts,
        r.verbs,
        r.barriers,
        r.link_fanouts
    )
}

impl MetricsSnapshot {
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"schema\":\"pandora-metrics-v1\",");
        s.push_str(&format!(
            "\"commit\":{{\"committed\":{},\"aborted\":{},\"abort_rate\":{:.6}}},",
            self.committed, self.aborted, self.abort_rate
        ));
        s.push_str("\"txn_latency\":");
        match &self.txn_latency {
            Some(h) => s.push_str(&summary_json(h)),
            None => s.push_str("null"),
        }
        s.push_str(",\"phases\":{");
        for (i, (name, h)) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{name}\":{}", summary_json(h)));
        }
        s.push_str("},\"abort_reasons\":{");
        for (i, (name, n)) in self.abort_reasons.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{name}\":{n}"));
        }
        s.push_str("},\"fabric\":");
        match &self.fabric_total {
            Some(total) => {
                s.push_str(&format!("{{\"total\":{},\"nodes\":[", ops_json(total)));
                for (i, (node, ops)) in self.fabric_nodes.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("{{\"node\":{node},\"ops\":{}}}", ops_json(ops)));
                }
                s.push_str("]}");
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"verbs\":");
        match &self.verbs {
            Some(v) => {
                s.push_str(&format!(
                    "{{\"in_flight\":{},\"in_flight_high_water\":{},\"kinds\":{{",
                    v.verbs_in_flight, v.in_flight_high_water
                ));
                for (i, (kind, k)) in VerbKind::ALL.iter().zip(&v.kinds).enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("\"{}\":{}", kind.name(), summary_json(k)));
                }
                s.push_str("}}");
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"resilience\":");
        match &self.resilience {
            Some(r) => s.push_str(&format!(
                "{{\"retries\":{},\"retries_exhausted\":{},\"ambiguous_resolved\":{},\
                 \"false_suspicion_survivals\":{},\"self_fenced\":{},\
                 \"recovery_attempts\":{},\"recovery_takeovers\":{}}}",
                r.retries,
                r.retries_exhausted,
                r.ambiguous_resolved,
                r.false_suspicion_survivals,
                r.self_fenced,
                r.recovery_attempts,
                r.recovery_takeovers
            )),
            None => s.push_str("null"),
        }
        s.push_str(",\"chaos\":");
        match &self.chaos {
            Some(c) => s.push_str(&format!(
                "{{\"timeouts_ambiguous\":{},\"timeouts_not_applied\":{},\
                 \"verbs_dropped_in_flap\":{},\"flaps_started\":{},\
                 \"partitions_started\":{},\"delay_spikes\":{}}}",
                c.timeouts_ambiguous,
                c.timeouts_not_applied,
                c.verbs_dropped_in_flap,
                c.flaps_started,
                c.partitions_started,
                c.delay_spikes
            )),
            None => s.push_str("null"),
        }
        s.push_str(",\"sched\":");
        match &self.sched {
            Some(g) => s.push_str(&format!(
                "{{\"txns_in_flight\":{},\"txns_in_flight_high_water\":{},\
                 \"admitted\":{},\"committed\":{},\"aborted\":{}}}",
                g.in_flight, g.high_water, g.admitted, g.committed, g.aborted
            )),
            None => s.push_str("null"),
        }
        s.push_str(",\"stripes\":[");
        for (i, (node, lanes)) in self.stripes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"node\":{node},\"lanes\":["));
            for (j, ops) in lanes.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&ops_json(ops));
            }
            s.push_str("]}");
        }
        s.push_str("],\"recoveries\":[");
        for (i, r) in self.recoveries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&recovery_json(r));
        }
        s.push_str("],\"timeline\":[");
        for (i, p) in self.timeline.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"at_ms\":{},\"committed_delta\":{},\"aborted_delta\":{},\
                 \"tps\":{:.3},\"recoveries_in_flight\":{}}}",
                p.at_ms, p.committed_delta, p.aborted_delta, p.tps, p.recoveries_in_flight
            ));
        }
        s.push_str("]}");
        s
    }
}

pub mod json {
    //! A minimal JSON reader (and string escaper) so tests and tools can
    //! consume [`super::MetricsSnapshot::to_json`] output without external
    //! crates. Accepts standard JSON; numbers are parsed as `f64`, which
    //! is exact for every counter below 2⁵³.

    /// A parsed JSON value. Object fields keep document order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<JsonValue>),
        Obj(Vec<(String, JsonValue)>),
    }

    impl JsonValue {
        /// Field lookup on an object; `None` for other variants.
        pub fn get(&self, key: &str) -> Option<&JsonValue> {
            match self {
                JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// Numeric field as an exact non-negative integer.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_bool(&self) -> Option<bool> {
            match self {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[JsonValue]> {
            match self {
                JsonValue::Arr(items) => Some(items),
                _ => None,
            }
        }

        pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
            match self {
                JsonValue::Obj(fields) => Some(fields),
                _ => None,
            }
        }

        pub fn is_null(&self) -> bool {
            matches!(self, JsonValue::Null)
        }
    }

    /// Parse one complete JSON document.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser { b: input.as_bytes(), i: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Escape a string for embedding in a JSON document.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }

        fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
            if self.b[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.i))
            }
        }

        fn value(&mut self) -> Result<JsonValue, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(JsonValue::Str(self.string()?)),
                Some(b't') => self.literal("true", JsonValue::Bool(true)),
                Some(b'f') => self.literal("false", JsonValue::Bool(false)),
                Some(b'n') => self.literal("null", JsonValue::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(format!("unexpected input at byte {}", self.i)),
            }
        }

        fn object(&mut self) -> Result<JsonValue, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let val = self.value()?;
                fields.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                }
            }
        }

        fn array(&mut self) -> Result<JsonValue, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        let esc = self.peek().ok_or("unterminated escape")?;
                        self.i += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{0008}'),
                            b'f' => out.push('\u{000C}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                if self.i + 4 > self.b.len() {
                                    return Err("truncated \\u escape".into());
                                }
                                let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                self.i += 4;
                                // Our writer never emits surrogate pairs;
                                // map lone surrogates to U+FFFD.
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            }
                            _ => return Err(format!("bad escape \\{}", esc as char)),
                        }
                    }
                    Some(_) => {
                        // Copy one UTF-8 scalar (input is a valid &str, so
                        // continuation bytes are well-formed).
                        let start = self.i;
                        self.i += 1;
                        while self.i < self.b.len() && (self.b[self.i] & 0xC0) == 0x80 {
                            self.i += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.b[start..self.i])
                                .map_err(|_| "invalid UTF-8".to_string())?,
                        );
                    }
                }
            }
        }

        fn number(&mut self) -> Result<JsonValue, String> {
            let start = self.i;
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            while matches!(
                self.peek(),
                Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.i += 1;
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(JsonValue::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_counts() {
        let p = ThroughputProbe::new();
        p.commit();
        p.commit();
        p.abort();
        assert_eq!(p.committed_total(), 2);
        assert_eq!(p.aborted_total(), 1);
        assert!((p.abort_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(ThroughputProbe::new().abort_rate(), 0.0, "empty probe");
    }

    #[test]
    fn sampler_produces_series() {
        let p = ThroughputProbe::new();
        let sampler = TimelineSampler::spawn(Arc::clone(&p), || 2, Duration::from_millis(10));
        for _ in 0..50 {
            p.commit();
            std::thread::sleep(Duration::from_millis(1));
        }
        p.abort();
        let points = sampler.finish();
        assert!(points.len() >= 3);
        let total: u64 = points.iter().map(|s| s.committed_delta).sum();
        // The thread takes its baseline when it starts, not at `spawn`.
        assert!((40..=50).contains(&total), "most commits should be captured, got {total}");
        assert_eq!(points.iter().map(|s| s.aborted_delta).sum::<u64>(), 1);
        assert!(points.iter().any(|s| s.tps > 0.0));
        assert!(points.iter().all(|s| s.recoveries_in_flight == 2));
    }

    #[test]
    fn sampler_counts_commits_after_the_last_tick() {
        let p = ThroughputProbe::new();
        let sampler = TimelineSampler::spawn(Arc::clone(&p), || 0, Duration::from_millis(50));
        // Land well inside the first interval, then stop before the next
        // tick: without the final partial sample these commits vanish.
        std::thread::sleep(Duration::from_millis(5));
        for _ in 0..25 {
            p.commit();
        }
        let points = sampler.finish();
        let total: u64 = points.iter().map(|s| s.committed_delta).sum();
        assert_eq!(total, 25, "final partial interval must be sampled");
    }

    fn point(at_ms: u64, committed_delta: u64, interval_ms: u64) -> TimelinePoint {
        TimelinePoint {
            at_ms,
            committed_delta,
            aborted_delta: 0,
            tps: committed_delta as f64 * 1000.0 / interval_ms as f64,
            recoveries_in_flight: 0,
        }
    }

    #[test]
    fn mean_tps_windows() {
        let points = [point(10, 1, 10), point(20, 2, 10), point(30, 3, 10)];
        assert!((mean_tps(&points, 0, 25) - 150.0).abs() < 1e-9);
        assert!((mean_tps(&points, 25, 100) - 300.0).abs() < 1e-9);
        assert_eq!(mean_tps(&points, 100, 200), 0.0);
    }

    #[test]
    fn mean_tps_weights_uneven_intervals_by_their_length() {
        // Regression: a 10 ms interval at 1000 tps and a 100 ms interval
        // at 100 tps are 20 commits in 110 ms — 181.8 tps, not the 550 the
        // unweighted mean of the two rates gave.
        let points = [point(10, 10, 10), point(110, 10, 100)];
        assert!((mean_tps(&points, 0, 200) - 20.0 / 0.110).abs() < 1e-9);
        // The window selects whole intervals by their end time.
        assert!((mean_tps(&points, 50, 200) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn latency_histogram_merge_matches_single_histogram() {
        let one = LatencyHistogram::new();
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for (i, us) in [10u64, 20, 30, 40, 50, 100, 200, 400, 800, 5000].iter().enumerate() {
            let d = Duration::from_micros(*us);
            one.record(d);
            if i % 2 == 0 {
                a.record(d)
            } else {
                b.record(d)
            }
        }
        a.merge(&b);
        assert_eq!(a.summary(), one.summary());
        assert_eq!(a.count(), 10);
    }

    #[test]
    fn latency_histogram_percentiles_are_ordered() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 30, 40, 50, 100, 200, 400, 800, 5000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 10);
        let (p50, p95, p99) = h.percentiles();
        assert!(p50 <= p95 && p95 <= p99, "{p50:?} {p95:?} {p99:?}");
        assert!(p50 >= Duration::from_micros(10));
        assert!(p99 >= Duration::from_micros(800));
        assert!(h.mean() >= Duration::from_micros(100));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn histogram_bucket_resolution_is_within_2x() {
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(Duration::from_micros(100));
        }
        let p50 = h.quantile(0.5);
        // 100 µs falls in bucket [2^16, 2^17) ns → reported edge 2^17 ns
        // ≈ 131 µs: within 2× of the true value.
        assert!(p50 >= Duration::from_micros(100) && p50 <= Duration::from_micros(200));
    }

    #[test]
    fn the_fabric_and_the_histogram_summarise_alike() {
        // One walk, two write disciplines: the same latencies recorded
        // through a queue pair's single-writer block and through the
        // shared histogram must summarise to the same five numbers.
        let fabric = rdma_sim::Fabric::new(rdma_sim::FabricConfig {
            memory_nodes: 1,
            capacity_per_node: 4 << 10,
            latency: rdma_sim::LatencyModel { rtt: Duration::from_micros(3), ns_per_kib: 0 },
        });
        let qp = fabric
            .qp(fabric.register_endpoint(), rdma_sim::NodeId(0), rdma_sim::FaultInjector::new())
            .unwrap();
        let h = LatencyHistogram::new();
        for _ in 0..20 {
            let id = qp.post_read(0, 8).unwrap();
            let c = qp.wait(id);
            h.record(Duration::from_nanos(c.completed_at - c.posted_at));
        }
        assert_eq!(fabric.verb_stats().kinds[VerbKind::Read as usize], h.summary());
    }

    #[test]
    fn phase_stats_record_and_snapshot() {
        let stats = PhaseStats::new();
        for _ in 0..100 {
            stats.record(TxnPhase::Execute, Duration::from_micros(10));
        }
        stats.record(TxnPhase::Apply, Duration::from_micros(50));
        stats.note_abort(AbortReason::LockConflict);
        stats.note_abort(AbortReason::LockConflict);
        stats.note_abort(AbortReason::ValidationVersion);

        let snaps = stats.summaries();
        assert_eq!(snaps[0].0, "execute");
        assert_eq!(snaps[0].1.count, 100);
        assert!(snaps[0].1.p50_ns >= 10_000);
        assert_eq!(snaps[4].0, "apply");
        assert_eq!(snaps[4].1.count, 1);
        assert_eq!(stats.abort_count(AbortReason::LockConflict), 2);
        let aborts = stats.abort_counts();
        assert_eq!(aborts.len(), AbortReason::COUNT);
        assert_eq!(
            aborts.iter().find(|(n, _)| *n == "ValidationVersion").map(|(_, c)| *c),
            Some(1)
        );
    }

    #[test]
    fn phase_stats_merge_combines_counts() {
        let a = PhaseStats::new();
        let b = PhaseStats::new();
        a.record(TxnPhase::Lock, Duration::from_micros(5));
        b.record(TxnPhase::Lock, Duration::from_micros(5));
        b.note_abort(AbortReason::Paused);
        a.merge(&b);
        assert_eq!(a.histogram(TxnPhase::Lock).count(), 2);
        assert_eq!(a.abort_count(AbortReason::Paused), 1);
    }

    #[test]
    fn snapshot_json_round_trips_through_the_mini_parser() {
        let registry = MetricsRegistry::new();
        registry.add_reports(&[RecoveryReport {
            coord: 3,
            detection: Duration::from_micros(5),
            link_termination: Duration::from_micros(7),
            log_recovery: Duration::from_micros(11),
            stray_notification: Duration::from_micros(2),
            total: Duration::from_micros(25),
            completed: true,
            logged_txns: 1,
            verbs: 36,
            barriers: 5,
            link_fanouts: 1,
            ..Default::default()
        }]);
        let text = registry.snapshot().to_json();
        let v = json::parse(&text).expect("writer output must parse");

        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("pandora-metrics-v1"));
        let phases = v.get("phases").expect("phases object");
        for name in TxnPhase::ALL.map(TxnPhase::name) {
            let p = phases.get(name).unwrap_or_else(|| panic!("missing phase {name}"));
            assert_eq!(p.get("count").and_then(|c| c.as_u64()), Some(0));
        }
        assert!(v.get("txn_latency").expect("key present").is_null());
        assert!(v.get("fabric").expect("key present").is_null());
        assert!(v.get("verbs").expect("key present").is_null());
        assert!(v.get("resilience").expect("key present").is_null());
        assert!(v.get("chaos").expect("key present").is_null());
        let recs = v.get("recoveries").and_then(|r| r.as_array()).expect("array");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get("coord").and_then(|c| c.as_u64()), Some(3));
        assert_eq!(recs[0].get("detection_ns").and_then(|c| c.as_u64()), Some(5_000));
        assert_eq!(recs[0].get("end_to_end_ns").and_then(|c| c.as_u64()), Some(30_000));
        assert_eq!(recs[0].get("completed").and_then(|c| c.as_bool()), Some(true));
        // The host-independent recovery gates reach the JSON.
        for (key, want) in [("verbs", 36), ("barriers", 5), ("link_fanouts", 1)] {
            assert_eq!(recs[0].get(key).and_then(|c| c.as_u64()), Some(want), "{key}");
        }
    }

    #[test]
    fn registry_with_probe_and_phases_reports_counts() {
        let probe = ThroughputProbe::new();
        probe.commit();
        probe.commit();
        probe.abort();
        let phases = PhaseStats::new();
        phases.record(TxnPhase::Validate, Duration::from_micros(3));
        let registry = MetricsRegistry::new()
            .with_probe(Arc::clone(&probe))
            .with_phases(Arc::clone(&phases));
        let snap = registry.snapshot();
        assert_eq!((snap.committed, snap.aborted), (2, 1));
        assert!((snap.abort_rate - 1.0 / 3.0).abs() < 1e-9);
        let validate = snap.phases.iter().find(|(n, _)| *n == "validate").unwrap();
        assert_eq!(validate.1.count, 1);
    }

    #[test]
    fn resilience_and_chaos_counters_appear_in_json() {
        let resilience = ResilienceStats::new();
        resilience.retries.fetch_add(7, Ordering::Relaxed);
        resilience.ambiguous_resolved.fetch_add(2, Ordering::Relaxed);
        let chaos = rdma_sim::ChaosModel::new(rdma_sim::ChaosConfig::light(42));
        let registry = MetricsRegistry::new()
            .with_resilience(Arc::clone(&resilience))
            .with_chaos(Arc::clone(&chaos));
        let text = registry.snapshot().to_json();
        let v = json::parse(&text).expect("writer output must parse");
        let r = v.get("resilience").expect("key present");
        assert_eq!(r.get("retries").and_then(|n| n.as_u64()), Some(7));
        assert_eq!(r.get("ambiguous_resolved").and_then(|n| n.as_u64()), Some(2));
        assert_eq!(r.get("self_fenced").and_then(|n| n.as_u64()), Some(0));
        let c = v.get("chaos").expect("key present");
        assert_eq!(c.get("timeouts_ambiguous").and_then(|n| n.as_u64()), Some(0));
        assert_eq!(c.get("delay_spikes").and_then(|n| n.as_u64()), Some(0));
    }

    #[test]
    fn verb_latency_stats_appear_in_json() {
        let fabric = rdma_sim::Fabric::new(rdma_sim::FabricConfig {
            memory_nodes: 1,
            capacity_per_node: 4 << 10,
            latency: rdma_sim::LatencyModel::zero(),
        });
        let qp = fabric
            .qp(fabric.register_endpoint(), rdma_sim::NodeId(0), rdma_sim::FaultInjector::new())
            .unwrap();
        qp.write_u64(0, 7).unwrap();
        qp.read_u64(0).unwrap();
        qp.cas(0, 7, 9).unwrap();
        let registry = MetricsRegistry::new().with_fabric(Arc::clone(&fabric));
        let text = registry.snapshot().to_json();
        let v = json::parse(&text).expect("writer output must parse");
        let verbs = v.get("verbs").expect("key present");
        assert_eq!(verbs.get("in_flight").and_then(|n| n.as_u64()), Some(0));
        assert!(verbs.get("in_flight_high_water").and_then(|n| n.as_u64()).unwrap() >= 1);
        let kinds = verbs.get("kinds").expect("kinds object");
        for (kind, count) in [("WRITE", 1), ("READ", 1), ("CAS", 1), ("FAA", 0)] {
            let k = kinds.get(kind).unwrap_or_else(|| panic!("missing kind {kind}"));
            assert_eq!(k.get("count").and_then(|n| n.as_u64()), Some(count), "{kind}");
        }
    }

    #[test]
    fn json_parser_handles_nesting_escapes_and_numbers() {
        let v = json::parse(
            r#" {"a":[1, 2.5, -3, true, false, null], "s":"he\"ll\\o\nA", "nested":{"x":1e3}} "#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 6);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-3.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("he\"ll\\o\nA"));
        assert_eq!(v.get("nested").unwrap().get("x").unwrap().as_f64(), Some(1000.0));

        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("{} extra").is_err());
        assert!(json::parse("\"unterminated").is_err());
    }

    #[test]
    fn json_escape_round_trips() {
        let original = "tab\there \"quoted\" back\\slash\nnewline \u{1}ctl";
        let doc = format!("{{\"k\":\"{}\"}}", json::escape(original));
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(original));
    }

    #[test]
    fn timeline_points_appear_in_json() {
        let registry = MetricsRegistry::new();
        registry.add_timeline(&[
            TimelinePoint {
                at_ms: 10,
                committed_delta: 100,
                aborted_delta: 3,
                tps: 10_000.0,
                recoveries_in_flight: 0,
            },
            TimelinePoint {
                at_ms: 20,
                committed_delta: 40,
                aborted_delta: 9,
                tps: 4_000.0,
                recoveries_in_flight: 1,
            },
        ]);
        let text = registry.snapshot().to_json();
        let v = json::parse(&text).expect("writer output must parse");
        let tl = v.get("timeline").and_then(|t| t.as_array()).expect("timeline array");
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].get("at_ms").and_then(|n| n.as_u64()), Some(10));
        assert_eq!(tl[0].get("recoveries_in_flight").and_then(|n| n.as_u64()), Some(0));
        assert_eq!(tl[1].get("committed_delta").and_then(|n| n.as_u64()), Some(40));
        assert_eq!(tl[1].get("recoveries_in_flight").and_then(|n| n.as_u64()), Some(1));
        assert!(tl[1].get("tps").and_then(|n| n.as_f64()).unwrap() > 3_999.0);
    }

    mod escape_props {
        use super::super::json;
        use proptest::prelude::*;

        /// Strings biased toward the hazards of JSON embedding: quotes,
        /// backslashes, every control character, plus non-ASCII scalars
        /// from the BMP and the astral planes.
        fn arb_hazard_string() -> impl Strategy<Value = String> {
            let hazard_char = prop_oneof![
                Just('"'),
                Just('\\'),
                Just('/'),
                (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control range")),
                (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii range")),
                (0xa0u32..0xd800).prop_map(|c| char::from_u32(c).expect("below surrogates")),
                (0x1_f300u32..0x1_f600).prop_map(|c| char::from_u32(c).expect("astral range")),
            ];
            proptest::collection::vec(hazard_char, 0..48)
                .prop_map(|chars| chars.into_iter().collect())
        }

        proptest! {
            #[test]
            fn escape_round_trips_any_string(s in arb_hazard_string()) {
                let doc = format!("{{\"k\":\"{}\"}}", json::escape(&s));
                let parsed = json::parse(&doc);
                prop_assert!(
                    parsed.is_ok(),
                    "escaped output must parse: {:?} (doc: {:?})",
                    parsed.as_ref().err(),
                    doc
                );
                let v = parsed.unwrap();
                prop_assert_eq!(v.get("k").and_then(|k| k.as_str()), Some(s.as_str()));
            }

            #[test]
            fn escape_output_contains_no_raw_hazards(s in arb_hazard_string()) {
                let escaped = json::escape(&s);
                prop_assert!(!escaped.contains('\u{0}'));
                prop_assert!(escaped.chars().all(|c| c as u32 >= 0x20 || c == '\t'));
                // An unescaped quote would terminate the enclosing JSON
                // string: every " must sit behind a backslash.
                let b: Vec<char> = escaped.chars().collect();
                for (i, &c) in b.iter().enumerate() {
                    if c == '"' {
                        prop_assert!(i > 0 && b[i - 1] == '\\');
                    }
                }
            }
        }
    }
}
