//! Posted-verb completion engine: work ids, completions, and the
//! fabric's verb telemetry, sharded by endpoint.
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

const KINDS: [VerbKind; 5] =
    [VerbKind::Read, VerbKind::Write, VerbKind::Cas, VerbKind::Faa, VerbKind::Flush];

#[inline]
fn kind_index(kind: VerbKind) -> usize {
    match kind {
        VerbKind::Read => 0,
        VerbKind::Write => 1,
        VerbKind::Cas => 2,
        VerbKind::Faa => 3,
        VerbKind::Flush => 4,
    }
}

/// Lock-free log₂-bucket histogram of modeled post→completion latency for
/// one verb kind (self-contained: the protocol crates depend on
/// `rdma-sim`, never the reverse). The count is the sum of the buckets.
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
        let bucket = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// One compute endpoint's share of the fabric's telemetry: the
/// post→completion latency histograms, the in-flight verb gauge with its
/// high-water mark, and the endpoint's verb counters per memory node.
///
/// Every queue pair of an endpoint writes its endpoint's shard and no
/// other, so coordinators on different endpoints never write a common
/// cache line on the verb path; [`Telemetry::totals`] sums the shards
/// when somebody asks. Latencies are recorded at post time (the modeled
/// latency is known then), so verbs abandoned before polling still count.
#[repr(align(128))]
pub(crate) struct EndpointShard {
    kinds: [KindHist; 5],
    in_flight: AtomicU64,
    in_flight_high_water: AtomicU64,
    /// Indexed by `NodeId.0`.
    nodes: Box<[OpCounters]>,
}

impl EndpointShard {
    fn new(memory_nodes: usize) -> EndpointShard {
        EndpointShard {
            kinds: std::array::from_fn(|_| KindHist::new()),
            in_flight: AtomicU64::new(0),
            in_flight_high_water: AtomicU64::new(0),
            nodes: (0..memory_nodes).map(|_| OpCounters::default()).collect(),
        }
    }

    /// A verb was posted: record its modeled latency and bump the gauge.
    #[inline]
    pub(crate) fn on_post(&self, kind: VerbKind, lat_ns: u64) {
        self.kinds[kind_index(kind)].record(lat_ns);
        let now = self.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        if now > self.in_flight_high_water.load(Ordering::Relaxed) {
            self.in_flight_high_water.fetch_max(now, Ordering::AcqRel);
        }
    }

    /// `n` completions were delivered (or their QP dropped with them
    /// pending).
    #[inline]
    pub(crate) fn on_complete(&self, n: u64) {
        self.in_flight.fetch_sub(n, Ordering::AcqRel);
    }

    /// This endpoint's verb counters towards `node`.
    #[inline]
    pub(crate) fn node(&self, node: u16) -> &OpCounters {
        &self.nodes[node as usize]
    }
}

/// Plain sums over shards: what the fabric's snapshot functions report.
#[derive(Clone)]
pub(crate) struct TelemetryTotals {
    buckets: [[u64; 64]; 5],
    sum_ns: [u64; 5],
    in_flight: u64,
    /// The deepest any one endpoint reached — a maximum, not a sum.
    in_flight_high_water: u64,
    pub(crate) nodes: Vec<OpCountersSnapshot>,
}

impl TelemetryTotals {
    fn new(memory_nodes: usize) -> TelemetryTotals {
        TelemetryTotals {
            buckets: [[0; 64]; 5],
            sum_ns: [0; 5],
            in_flight: 0,
            in_flight_high_water: 0,
            nodes: vec![OpCountersSnapshot::default(); memory_nodes],
        }
    }

    fn add(&mut self, shard: &EndpointShard) {
        for (k, hist) in shard.kinds.iter().enumerate() {
            for (mine, theirs) in self.buckets[k].iter_mut().zip(&hist.buckets) {
                *mine += theirs.load(Ordering::Relaxed);
            }
            self.sum_ns[k] += hist.sum_ns.load(Ordering::Relaxed);
        }
        self.in_flight += shard.in_flight.load(Ordering::Acquire);
        self.in_flight_high_water = self
            .in_flight_high_water
            .max(shard.in_flight_high_water.load(Ordering::Acquire));
        for (mine, theirs) in self.nodes.iter_mut().zip(shard.nodes.iter()) {
            *mine = mine.plus(&theirs.snapshot());
        }
    }

    fn quantile_ns(&self, k: usize, count: u64, q: f64) -> u64 {
        if count == 0 {
            return 0;
        }
        let target = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets[k].iter().enumerate() {
            seen += b;
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }

    pub(crate) fn verb_snapshot(&self) -> VerbLatencySnapshot {
        let kinds = std::array::from_fn(|k| {
            let count: u64 = self.buckets[k].iter().sum();
            VerbKindLatency {
                kind: KINDS[k],
                count,
                mean_ns: self.sum_ns[k].checked_div(count).unwrap_or(0),
                p50_ns: self.quantile_ns(k, count, 0.50),
                p95_ns: self.quantile_ns(k, count, 0.95),
                p99_ns: self.quantile_ns(k, count, 0.99),
            }
        });
        VerbLatencySnapshot {
            kinds,
            verbs_in_flight: self.in_flight,
            in_flight_high_water: self.in_flight_high_water,
        }
    }
}

/// The fabric's registry of telemetry shards: one live shard per
/// endpoint that currently has a queue pair, plus the folded totals of
/// every endpoint whose last queue pair is gone — so the registry holds
/// as many shards as there are connected endpoints, however many have
/// come and gone. Touched at queue-pair creation, queue-pair drop and
/// snapshot time only; never on the verb path.
pub(crate) struct Telemetry {
    inner: Mutex<TelemetryInner>,
}

struct TelemetryInner {
    /// Endpoint id → its shard and the number of live queue pairs on it.
    live: HashMap<u32, (Arc<EndpointShard>, usize)>,
    retired: TelemetryTotals,
}

impl Telemetry {
    pub(crate) fn new(memory_nodes: usize) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            inner: Mutex::new(TelemetryInner {
                live: HashMap::new(),
                retired: TelemetryTotals::new(memory_nodes),
            }),
        })
    }

    /// Lease `endpoint`'s shard for one new queue pair, creating the
    /// shard on the endpoint's first.
    pub(crate) fn lease(self: &Arc<Self>, endpoint: u32) -> ShardLease {
        let mut inner = self.inner.lock();
        let memory_nodes = inner.retired.nodes.len();
        let (shard, qps) = inner
            .live
            .entry(endpoint)
            .or_insert_with(|| (Arc::new(EndpointShard::new(memory_nodes)), 0));
        *qps += 1;
        ShardLease { shard: Arc::clone(shard), registry: Arc::clone(self), endpoint }
    }

    /// Retired totals plus every live shard, read now.
    pub(crate) fn totals(&self) -> TelemetryTotals {
        let inner = self.inner.lock();
        let mut totals = inner.retired.clone();
        for (shard, _) in inner.live.values() {
            totals.add(shard);
        }
        totals
    }
}

/// A queue pair's hold on its endpoint's shard. Dropping the endpoint's
/// last lease folds the shard into the registry's retired totals.
pub(crate) struct ShardLease {
    shard: Arc<EndpointShard>,
    registry: Arc<Telemetry>,
    endpoint: u32,
}

impl std::ops::Deref for ShardLease {
    type Target = EndpointShard;

    #[inline]
    fn deref(&self) -> &EndpointShard {
        &self.shard
    }
}

impl Drop for ShardLease {
    fn drop(&mut self) {
        let mut inner = self.registry.inner.lock();
        let TelemetryInner { live, retired } = &mut *inner;
        let Entry::Occupied(mut entry) = live.entry(self.endpoint) else { return };
        entry.get_mut().1 -= 1;
        if entry.get().1 == 0 {
            retired.add(&entry.remove().0);
        }
    }
}

/// Plain-data snapshot of the fabric's verb-latency telemetry (the sum
/// over endpoints, see [`crate::Fabric::verb_stats`]), one entry per verb
/// kind in READ/WRITE/CAS/FAA/FLUSH order.
#[derive(Debug, Clone, Copy)]
pub struct VerbLatencySnapshot {
    pub kinds: [VerbKindLatency; 5],
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

/// Post→completion latency summary for one verb kind.
#[derive(Debug, Clone, Copy)]
pub struct VerbKindLatency {
    pub kind: VerbKind,
    pub count: u64,
    pub mean_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_tracks_posts_and_high_water() {
        let reg = Telemetry::new(1);
        let lease = reg.lease(0);
        lease.on_post(VerbKind::Read, 2_000);
        lease.on_post(VerbKind::Read, 2_000);
        lease.on_post(VerbKind::Cas, 1_000);
        let snap = reg.totals().verb_snapshot();
        assert_eq!(snap.verbs_in_flight, 3);
        assert_eq!(snap.in_flight_high_water, 3);
        assert_eq!(snap.total_posted(), 3);
        assert_eq!(snap.kinds[0].count, 2);
        assert_eq!(snap.kinds[2].count, 1);
        assert_eq!(snap.kinds[0].mean_ns, 2_000);
        lease.on_complete(3);
        let snap = reg.totals().verb_snapshot();
        assert_eq!(snap.verbs_in_flight, 0);
        assert_eq!(snap.in_flight_high_water, 3, "high water survives drain");
    }

    #[test]
    fn kind_quantiles_are_log2_upper_edges() {
        let reg = Telemetry::new(1);
        let lease = reg.lease(0);
        for _ in 0..100 {
            lease.on_post(VerbKind::Write, 100_000); // bucket [2^16, 2^17)
        }
        let p50 = reg.totals().verb_snapshot().kinds[1].p50_ns;
        assert!((100_000..=200_000).contains(&p50));
    }

    #[test]
    fn retired_endpoints_keep_their_counts_and_leave_the_registry() {
        let reg = Telemetry::new(2);
        for endpoint in 0..100u32 {
            let mut leases: Vec<ShardLease> = (0..3).map(|_| reg.lease(endpoint)).collect();
            leases[0].on_post(VerbKind::Faa, 500);
            leases[1].node(1).faa.fetch_add(1, Ordering::Relaxed);
            leases[0].on_complete(1);
            leases.pop();
            assert_eq!(reg.inner.lock().live.len(), 1, "shard lives while a lease does");
            drop(leases);
            assert!(reg.inner.lock().live.is_empty(), "registry grew with endpoint {endpoint}");
        }
        let totals = reg.totals();
        assert_eq!(totals.verb_snapshot().kinds[3].count, 100);
        assert_eq!(totals.verb_snapshot().in_flight_high_water, 1, "a maximum, not a sum");
        assert_eq!(totals.nodes[1].faa, 100);
        assert_eq!(totals.nodes[0], OpCountersSnapshot::default());
    }
}
