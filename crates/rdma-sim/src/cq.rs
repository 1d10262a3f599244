//! Posted-verb completion engine: work ids, completions, and the
//! fabric's verb telemetry — one single-writer block per queue pair.
//!
//! The simulator executes a posted verb's *effect* eagerly at post time —
//! crash injection, liveness/revocation checks, the chaos draw, the memory
//! operation and counter bumps all happen in post order, exactly as the
//! blocking path did — and defers only the *latency*. Each post computes a
//! completion deadline
//!
//! ```text
//! deadline(i) = max(deadline(i-1), post_time(i) + delay_for(bytes))
//! ```
//!
//! which is monotone per queue pair, so completions delivered in FIFO
//! order observe reliable-connection program order while round trips to
//! the same node overlap instead of summing. Blocking verbs are
//! post-then-wait wrappers and therefore pay exactly the serial latency
//! they always did; the chaos schedule is keyed to per-link post order, so
//! a pipelined issue sequence draws the same verdicts as a blocking one.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::error::{RdmaError, RdmaResult};
use crate::flight::VerbKind;
use crate::qp::{OpCounters, OpCountersSnapshot};

/// Identifier of one posted verb, unique and monotonically increasing per
/// queue pair. Completions on one QP are always delivered in `WorkId`
/// order (RC ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkId(pub u64);

/// A delivered completion for one posted verb.
///
/// `result` carries the verb's scalar outcome: the *previous value* for
/// CAS/FAA, 0 for READ/WRITE/FLUSH. READ payloads arrive in `data`.
/// Timestamps are nanosecond offsets on the fabric clock; `completed_at -
/// posted_at` is the modeled post→completion latency (deterministic, not
/// a function of when the caller polled).
#[derive(Debug)]
pub struct Completion {
    pub work_id: WorkId,
    pub verb: VerbKind,
    pub result: RdmaResult<u64>,
    /// READ payload (present iff `verb == Read` and the verb succeeded).
    pub data: Option<Vec<u8>>,
    pub posted_at: u64,
    pub completed_at: u64,
}

impl Completion {
    /// The READ payload, or the verb's error. Panics on non-READ verbs.
    pub fn into_data(self) -> RdmaResult<Vec<u8>> {
        self.result?;
        Ok(self.data.expect("READ completion carries data"))
    }

    /// True when the verb failed with an error `f` accepts.
    pub fn failed_with(&self, f: impl FnOnce(&RdmaError) -> bool) -> bool {
        matches!(&self.result, Err(e) if f(e))
    }
}

/// One not-yet-delivered posted verb, queued on its QP.
pub(crate) struct PendingEntry {
    pub(crate) work_id: WorkId,
    pub(crate) kind: VerbKind,
    pub(crate) bytes: u64,
    pub(crate) result: RdmaResult<(u64, Option<Vec<u8>>)>,
    /// Fabric-clock timestamp of the post.
    pub(crate) posted_ns: u64,
    /// Modeled post→completion latency (deadline − post instant).
    pub(crate) lat_ns: u64,
    /// Wall-clock instant the completion becomes visible to `poll`.
    pub(crate) deadline: Instant,
    /// Flight-recorder span start, when the sink was enabled at post.
    pub(crate) flight_start: Option<u64>,
}

/// Per-QP posting state: the FIFO of pending completions plus the
/// monotone deadline that encodes RC ordering.
#[derive(Default)]
pub(crate) struct PendingState {
    pub(crate) entries: std::collections::VecDeque<PendingEntry>,
    pub(crate) next_work_id: u64,
    pub(crate) last_deadline: Option<Instant>,
    /// Completions a blocking waiter drained past on behalf of a
    /// *concurrent* blocking waiter on the same QP (recovery
    /// coordinators are shared across the FD monitor and callers of
    /// `declare_failed`). Parked here until their owner claims them.
    pub(crate) claimed: Vec<Completion>,
}

impl PendingState {
    /// How many entries at the front of the queue have ripened by `now`.
    #[inline]
    pub(crate) fn ripe(&self, now: Instant) -> usize {
        self.entries.iter().take_while(|e| e.deadline <= now).count()
    }
}

/// Add `n` to a statistic that has exactly one writer at a time: a plain
/// load and a plain store, no lock-prefixed read-modify-write. Every
/// per-verb statistic of a queue pair is written this way, under the
/// `pending` mutex its post already holds — the mutex orders successive
/// writers (threads sharing a recovery coordinator's QP), and readers only
/// ever take snapshots.
#[inline]
pub(crate) fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// The bucket of a log₂ latency histogram `ns` falls in: bucket `i`
/// counts observations in `[2^i, 2^(i+1))` ns (0 ns counts as 1 ns).
#[inline]
pub fn log2_bucket(ns: u64) -> usize {
    63 - ns.max(1).leading_zeros() as usize
}

/// Count, mean and three quantiles of a log₂ latency histogram — the one
/// summary every histogram of the workspace reports (this crate's
/// per-verb-kind blocks and `pandora::obs::LatencyHistogram`; the
/// protocol crates depend on `rdma-sim`, never the reverse, so it lives
/// here). A quantile is the upper edge of the bucket holding the q-th
/// observation: good to 2×, which is plenty for p50/p99 shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

impl LatencySummary {
    /// Summarise `buckets` (see [`log2_bucket`]) whose observations add
    /// up to `sum_ns`. The count is the sum of the buckets.
    pub fn of(buckets: &[u64; 64], sum_ns: u64) -> LatencySummary {
        let count: u64 = buckets.iter().sum();
        LatencySummary {
            count,
            mean_ns: sum_ns.checked_div(count).unwrap_or(0),
            p50_ns: LatencySummary::quantile_ns(buckets, 0.50),
            p95_ns: LatencySummary::quantile_ns(buckets, 0.95),
            p99_ns: LatencySummary::quantile_ns(buckets, 0.99),
        }
    }

    /// The quantile walk (`q` in [0, 1]); 0 for an empty histogram.
    pub fn quantile_ns(buckets: &[u64; 64], q: f64) -> u64 {
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0;
        }
        let target = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// Log₂-bucket histogram of modeled post→completion latency for one verb
/// kind, written with [`bump`].
struct KindHist {
    buckets: [AtomicU64; 64],
    sum_ns: AtomicU64,
}

impl KindHist {
    fn new() -> KindHist {
        KindHist { buckets: [const { AtomicU64::new(0) }; 64], sum_ns: AtomicU64::new(0) }
    }

    #[inline]
    fn record(&self, ns: u64) {
        bump(&self.buckets[log2_bucket(ns)], 1);
        bump(&self.sum_ns, ns);
    }
}

/// One queue pair's telemetry block: its verb counters — which *are* its
/// contribution to its memory node's aggregate — and its post→completion
/// latency histograms. Single-writer: only the QP's own post path writes
/// it, with [`bump`], while holding the QP's `pending` mutex; the fabric
/// sums the live blocks (plus the retired totals) when somebody asks.
/// Latencies are recorded at post time (the modeled latency is known
/// then), so verbs abandoned before polling still count.
#[repr(align(128))]
pub(crate) struct QpStats {
    /// `NodeId.0` of the memory node the QP targets.
    node: u16,
    /// Lane index when the QP is one lane of a [`crate::QpStripe`].
    lane: Option<u32>,
    pub(crate) counters: Arc<OpCounters>,
    kinds: [KindHist; 5],
}

impl QpStats {
    #[inline]
    pub(crate) fn record_latency(&self, kind: VerbKind, lat_ns: u64) {
        self.kinds[kind as usize].record(lat_ns);
    }
}

/// One compute endpoint's in-flight verb gauge — the only telemetry two
/// queue pairs write in common, because its high-water mark is defined
/// per endpoint (the deepest one coordinator's posted window got, across
/// its lanes and nodes): one `fetch_add` per post, one `fetch_sub` per
/// delivered batch.
#[repr(align(128))]
pub(crate) struct EndpointGauge {
    in_flight: AtomicU64,
    high_water: AtomicU64,
}

impl EndpointGauge {
    /// A verb was posted.
    #[inline]
    pub(crate) fn on_post(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        if now > self.high_water.load(Ordering::Relaxed) {
            self.high_water.fetch_max(now, Ordering::AcqRel);
        }
    }

    /// `n` completions were delivered (or their QP dropped with them
    /// pending).
    #[inline]
    pub(crate) fn on_complete(&self, n: u64) {
        self.in_flight.fetch_sub(n, Ordering::AcqRel);
    }
}

/// Plain sums over queue pairs and endpoints: what the fabric's snapshot
/// functions report.
#[derive(Clone)]
pub(crate) struct TelemetryTotals {
    buckets: [[u64; 64]; 5],
    sum_ns: [u64; 5],
    in_flight: u64,
    /// The deepest any one endpoint reached — a maximum, not a sum.
    in_flight_high_water: u64,
    pub(crate) nodes: Vec<OpCountersSnapshot>,
    /// Per node, per lane: the counters of striped links only.
    pub(crate) stripes: Vec<Vec<OpCountersSnapshot>>,
}

impl TelemetryTotals {
    fn new(memory_nodes: usize) -> TelemetryTotals {
        TelemetryTotals {
            buckets: [[0; 64]; 5],
            sum_ns: [0; 5],
            in_flight: 0,
            in_flight_high_water: 0,
            nodes: vec![OpCountersSnapshot::default(); memory_nodes],
            stripes: vec![Vec::new(); memory_nodes],
        }
    }

    fn add_qp(&mut self, qp: &QpStats) {
        for (k, hist) in qp.kinds.iter().enumerate() {
            for (mine, theirs) in self.buckets[k].iter_mut().zip(&hist.buckets) {
                *mine += theirs.load(Ordering::Relaxed);
            }
            self.sum_ns[k] += hist.sum_ns.load(Ordering::Relaxed);
        }
        let ops = qp.counters.snapshot();
        let node = &mut self.nodes[qp.node as usize];
        *node = node.plus(&ops);
        if let Some(lane) = qp.lane {
            let lanes = &mut self.stripes[qp.node as usize];
            if lanes.len() <= lane as usize {
                lanes.resize(lane as usize + 1, OpCountersSnapshot::default());
            }
            lanes[lane as usize] = lanes[lane as usize].plus(&ops);
        }
    }

    fn add_endpoint(&mut self, gauge: &EndpointGauge) {
        self.in_flight += gauge.in_flight.load(Ordering::Acquire);
        self.in_flight_high_water =
            self.in_flight_high_water.max(gauge.high_water.load(Ordering::Acquire));
    }

    pub(crate) fn verb_snapshot(&self) -> VerbLatencySnapshot {
        VerbLatencySnapshot {
            kinds: std::array::from_fn(|k| LatencySummary::of(&self.buckets[k], self.sum_ns[k])),
            verbs_in_flight: self.in_flight,
            in_flight_high_water: self.in_flight_high_water,
        }
    }
}

/// The fabric's telemetry registry: the block of every live queue pair,
/// the gauge of every endpoint that currently has one, and the folded
/// totals of everything that is gone — so the registry holds as many
/// blocks as there are live queue pairs, however many have come and gone
/// (a recovery round connects and drops hundreds). Touched at queue-pair
/// creation, queue-pair drop and snapshot time only; never on the verb
/// path.
pub(crate) struct Telemetry {
    inner: Mutex<TelemetryInner>,
}

struct TelemetryInner {
    next_qp: u64,
    qps: HashMap<u64, Arc<QpStats>>,
    /// Endpoint id → its gauge and the number of live queue pairs on it.
    endpoints: HashMap<u32, (Arc<EndpointGauge>, usize)>,
    retired: TelemetryTotals,
}

impl Telemetry {
    pub(crate) fn new(memory_nodes: usize) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            inner: Mutex::new(TelemetryInner {
                next_qp: 0,
                qps: HashMap::new(),
                endpoints: HashMap::new(),
                retired: TelemetryTotals::new(memory_nodes),
            }),
        })
    }

    /// Register one new queue pair from `endpoint` to `node` — lane
    /// `lane` of a stripe, or a link of its own: a fresh block, and the
    /// endpoint's gauge (created on the endpoint's first queue pair).
    pub(crate) fn lease(self: &Arc<Self>, endpoint: u32, node: u16, lane: Option<u32>) -> QpLease {
        let stats = Arc::new(QpStats {
            node,
            lane,
            counters: Arc::new(OpCounters::default()),
            kinds: std::array::from_fn(|_| KindHist::new()),
        });
        let mut inner = self.inner.lock();
        assert!((node as usize) < inner.retired.nodes.len(), "unknown memory node {node}");
        let key = inner.next_qp;
        inner.next_qp += 1;
        inner.qps.insert(key, Arc::clone(&stats));
        let (gauge, qps) = inner.endpoints.entry(endpoint).or_insert_with(|| {
            let gauge =
                EndpointGauge { in_flight: AtomicU64::new(0), high_water: AtomicU64::new(0) };
            (Arc::new(gauge), 0)
        });
        *qps += 1;
        QpLease { stats, gauge: Arc::clone(gauge), registry: Arc::clone(self), key, endpoint }
    }

    /// Live `(queue pair blocks, endpoint gauges)` in the registry.
    #[cfg(test)]
    pub(crate) fn live(&self) -> (usize, usize) {
        let inner = self.inner.lock();
        (inner.qps.len(), inner.endpoints.len())
    }

    /// Retired totals plus every live block and gauge, read now.
    pub(crate) fn totals(&self) -> TelemetryTotals {
        let inner = self.inner.lock();
        let mut totals = inner.retired.clone();
        for qp in inner.qps.values() {
            totals.add_qp(qp);
        }
        for (gauge, _) in inner.endpoints.values() {
            totals.add_endpoint(gauge);
        }
        totals
    }
}

/// A queue pair's registration: its own block and its endpoint's gauge.
/// Dropping it folds the block into the registry's retired totals, and
/// the gauge too when it was the endpoint's last.
pub(crate) struct QpLease {
    pub(crate) stats: Arc<QpStats>,
    pub(crate) gauge: Arc<EndpointGauge>,
    registry: Arc<Telemetry>,
    key: u64,
    endpoint: u32,
}

impl Drop for QpLease {
    fn drop(&mut self) {
        let mut inner = self.registry.inner.lock();
        let TelemetryInner { qps, endpoints, retired, .. } = &mut *inner;
        if let Some(stats) = qps.remove(&self.key) {
            retired.add_qp(&stats);
        }
        let Entry::Occupied(mut entry) = endpoints.entry(self.endpoint) else { return };
        entry.get_mut().1 -= 1;
        if entry.get().1 == 0 {
            retired.add_endpoint(&entry.remove().0);
        }
    }
}

/// Plain-data snapshot of the fabric's verb-latency telemetry (the sum
/// over endpoints, see [`crate::Fabric::verb_stats`]), one entry per verb
/// kind in [`VerbKind::ALL`] order.
#[derive(Debug, Clone, Copy)]
pub struct VerbLatencySnapshot {
    pub kinds: [LatencySummary; 5],
    /// Posted-but-undelivered verbs at snapshot time.
    pub verbs_in_flight: u64,
    /// The deepest the in-flight gauge of any one endpoint has been since
    /// fabric creation.
    pub in_flight_high_water: u64,
}

impl VerbLatencySnapshot {
    /// Total posted verbs across all kinds.
    pub fn total_posted(&self) -> u64 {
        self.kinds.iter().map(|k| k.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(lease: &QpLease, kind: VerbKind, lat_ns: u64) {
        lease.stats.record_latency(kind, lat_ns);
        lease.gauge.on_post();
    }

    #[test]
    fn lease_tracks_posts_and_high_water() {
        let reg = Telemetry::new(1);
        let lease = reg.lease(0, 0, None);
        post(&lease, VerbKind::Read, 2_000);
        post(&lease, VerbKind::Read, 2_000);
        post(&lease, VerbKind::Cas, 1_000);
        let snap = reg.totals().verb_snapshot();
        assert_eq!(snap.verbs_in_flight, 3);
        assert_eq!(snap.in_flight_high_water, 3);
        assert_eq!(snap.total_posted(), 3);
        assert_eq!(snap.kinds[0].count, 2);
        assert_eq!(snap.kinds[2].count, 1);
        assert_eq!(snap.kinds[0].mean_ns, 2_000);
        lease.gauge.on_complete(3);
        let snap = reg.totals().verb_snapshot();
        assert_eq!(snap.verbs_in_flight, 0);
        assert_eq!(snap.in_flight_high_water, 3, "high water survives drain");
    }

    #[test]
    fn kind_quantiles_are_log2_upper_edges() {
        let reg = Telemetry::new(1);
        let lease = reg.lease(0, 0, None);
        for _ in 0..100 {
            post(&lease, VerbKind::Write, 100_000); // bucket [2^16, 2^17)
        }
        let p50 = reg.totals().verb_snapshot().kinds[1].p50_ns;
        assert!((100_000..=200_000).contains(&p50));
    }

    #[test]
    fn retired_endpoints_keep_their_counts_and_leave_the_registry() {
        let reg = Telemetry::new(2);
        for endpoint in 0..100u32 {
            // Three queue pairs per endpoint — lanes 0..3 of a stripe —
            // the middle one to node 1.
            let mut leases: Vec<QpLease> =
                (0..3u16).map(|l| reg.lease(endpoint, l % 2, Some(l as u32))).collect();
            post(&leases[0], VerbKind::Faa, 500);
            bump(&leases[1].stats.counters.faa, 1);
            post(&leases[2], VerbKind::Read, 700);
            assert_eq!(reg.live(), (3, 1));
            // Drop one with its verb still pending (the QP's drop
            // releases the gauge first): its block retires, the
            // endpoint's gauge lives while a sibling does.
            leases[2].gauge.on_complete(1);
            leases.pop();
            assert_eq!(reg.live(), (2, 1), "one block per live queue pair");
            leases[0].gauge.on_complete(1);
            drop(leases);
            assert_eq!(reg.live(), (0, 0), "registry grew with endpoint {endpoint}");
        }
        let totals = reg.totals();
        assert_eq!(totals.verb_snapshot().kinds[3].count, 100);
        assert_eq!(totals.verb_snapshot().kinds[0].count, 100);
        assert_eq!(totals.verb_snapshot().verbs_in_flight, 0);
        assert_eq!(totals.verb_snapshot().in_flight_high_water, 2, "a maximum, not a sum");
        assert_eq!(totals.nodes[1].faa, 100);
        assert_eq!(totals.stripes[1][1].faa, 100, "lane totals survive retirement");
        assert_eq!(totals.stripes[0].len(), 3, "lanes 0 and 2 went to node 0");
        assert_eq!(totals.nodes[0], OpCountersSnapshot::default());
    }
}
