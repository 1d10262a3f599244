use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::chaos::{ChaosLink, ChaosVerdict};
use crate::cq::{bump, Completion, PendingEntry, PendingState, QpLease, WorkId};
use crate::error::{RdmaError, RdmaResult, TimeoutApplied};
use crate::fabric::EndpointId;
use crate::fault::{CrashAction, FaultInjector};
use crate::flight::{FabricClock, FaultKind, FlightTap, VerbKind};
use crate::latency::{pace, LatencyModel};
use crate::mem::MemoryNode;

/// Per-QP verb counters. The protocol crates assert round-trip counts with
/// these (e.g. Pandora's "f+1 log writes per transaction" claim, §3.1.4).
/// A queue pair's block is also its contribution to its node's aggregate
/// (see `Fabric::node_counters`); only the QP's own post path writes it,
/// under the QP's `pending` mutex, with plain loads and stores. Aligned
/// so that the counters of two queue pairs never share a cache line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct OpCounters {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub cas: AtomicU64,
    pub faa: AtomicU64,
    pub flushes: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
}

/// A plain-data snapshot of [`OpCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCountersSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub cas: u64,
    pub faa: u64,
    pub flushes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl OpCountersSnapshot {
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes + self.cas + self.faa + self.flushes
    }

    /// Bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Field-wise sum (fabric-wide aggregation over nodes).
    pub fn plus(&self, other: &OpCountersSnapshot) -> OpCountersSnapshot {
        OpCountersSnapshot {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            cas: self.cas + other.cas,
            faa: self.faa + other.faa,
            flushes: self.flushes + other.flushes,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
        }
    }
}

impl OpCounters {
    pub fn snapshot(&self) -> OpCountersSnapshot {
        OpCountersSnapshot {
            reads: self.reads.load(Ordering::Acquire),
            writes: self.writes.load(Ordering::Acquire),
            cas: self.cas.load(Ordering::Acquire),
            faa: self.faa.load(Ordering::Acquire),
            flushes: self.flushes.load(Ordering::Acquire),
            bytes_read: self.bytes_read.load(Ordering::Acquire),
            bytes_written: self.bytes_written.load(Ordering::Acquire),
        }
    }
}

/// A reliable-connection queue pair from one compute endpoint to one
/// memory node, carrying the one-sided verbs.
///
/// Verbs are *posted*: `post_read`/`post_write`/`post_cas`/`post_faa`/
/// `post_flush` return a [`WorkId`] immediately and
/// the matching [`Completion`] is delivered later via [`QueuePair::poll`],
/// [`QueuePair::wait_all`] or, by work id, [`QueuePair::wait`] and
/// [`QueuePair::try_take`]. Every post:
/// 1. consults the [`FaultInjector`] (compute-side crash) in post order,
/// 2. checks the target node is alive and this endpoint unrevoked,
/// 3. draws the chaos verdict and executes against the node's registered
///    memory (the *effect* happens eagerly, in post order),
/// 4. schedules the completion at `max(previous deadline, now +
///    latency)`, so same-QP completions observe program order (RC
///    ordering) while round trips overlap instead of summing.
///
/// The classic blocking verbs (`read`/`write`/`cas`/…) are post+wait
/// wrappers: with one verb in flight the deadline rule degenerates to
/// `now + latency`, i.e. exactly the serial round trip they always paid.
pub struct QueuePair {
    node: Arc<MemoryNode>,
    endpoint: EndpointId,
    injector: Arc<FaultInjector>,
    latency: LatencyModel,
    /// This QP's registration with the fabric's telemetry: its own block
    /// (verb counters and latency histograms, written only by
    /// `post_with` and the effect it runs, i.e. under `pending`) and its
    /// endpoint's in-flight gauge, the one statistic shared with the
    /// endpoint's other QPs. The fabric sums the blocks at snapshot time
    /// (see `Fabric::verb_stats`, `Fabric::node_counters`).
    telemetry: QpLease,
    /// Per-link chaos handle; `None` (the default) costs nothing.
    chaos: Option<ChaosLink>,
    /// Per-link flight-recorder tap; `None` (the default) costs nothing,
    /// a disabled sink costs one atomic load per verb.
    flight: Option<FlightTap>,
    /// Fabric clock for `posted_at`/`completed_at` stamps.
    clock: FabricClock,
    /// Pending completions, FIFO in post order.
    pending: Mutex<PendingState>,
    /// `pending.entries.len()`, republished by whoever changes it while
    /// still holding `pending`, so [`QueuePair::in_flight`] — asked
    /// before every posted verb — is one relaxed load.
    depth: AtomicUsize,
}

impl QueuePair {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: Arc<MemoryNode>,
        endpoint: EndpointId,
        injector: Arc<FaultInjector>,
        latency: LatencyModel,
        telemetry: QpLease,
        chaos: Option<ChaosLink>,
        flight: Option<FlightTap>,
        clock: FabricClock,
    ) -> Self {
        QueuePair {
            node,
            endpoint,
            injector,
            latency,
            telemetry,
            chaos,
            flight,
            clock,
            pending: Mutex::new(PendingState::default()),
            depth: AtomicUsize::new(0),
        }
    }

    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    pub fn node_id(&self) -> crate::fabric::NodeId {
        self.node.id()
    }

    pub fn counters(&self) -> Arc<OpCounters> {
        Arc::clone(&self.telemetry.stats.counters)
    }

    /// The injector wired into this QP (shared by all QPs of a coordinator).
    pub fn injector(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.injector)
    }

    /// This QP's counter block. Written only from inside a verb's
    /// effect, which `post_with` runs under `pending`.
    #[inline]
    fn counted(&self) -> &OpCounters {
        &self.telemetry.stats.counters
    }

    #[inline]
    fn count_read(&self, bytes: u64) {
        let c = self.counted();
        bump(&c.reads, 1);
        bump(&c.bytes_read, bytes);
    }

    #[inline]
    fn count_write(&self, bytes: u64) {
        let c = self.counted();
        bump(&c.writes, 1);
        bump(&c.bytes_written, bytes);
    }

    /// Post-time gate: crash injector, node liveness, revocation, then
    /// the chaos model. Crash faults take precedence over chaos (a
    /// power-cut coordinator dies whatever the network does), so the
    /// verdict is only consulted on a plain `Proceed`. An error here is a
    /// *synchronous post failure* — no completion is generated and no
    /// latency is charged, matching the blocking path where these checks
    /// preceded the latency charge. The latency itself is deferred to the
    /// completion deadline (chaos delay spikes still pace inline, pushing
    /// this and every later same-QP deadline out).
    #[inline]
    fn gate_posted(&self) -> RdmaResult<(CrashAction, ChaosVerdict)> {
        let action = self.injector.on_op()?;
        if !self.node.is_alive() {
            return Err(RdmaError::NodeDead);
        }
        if self.node.is_revoked(self.endpoint.0) {
            return Err(RdmaError::AccessRevoked);
        }
        let verdict = match &self.chaos {
            Some(link) if action == CrashAction::Proceed => link.on_verb(),
            _ => ChaosVerdict::Deliver,
        };
        Ok((action, verdict))
    }

    /// Convert a drop verdict into its timeout error before the verb
    /// touches memory, reporting the injected fault to the flight tap.
    #[inline]
    fn chaos_pre(&self, verdict: ChaosVerdict) -> RdmaResult<()> {
        match verdict {
            ChaosVerdict::DropNotApplied => {
                self.note_fault(FaultKind::TimeoutNotApplied);
                Err(RdmaError::Timeout { applied: TimeoutApplied::NotApplied })
            }
            ChaosVerdict::DropAmbiguous => {
                self.note_fault(FaultKind::TimeoutAmbiguous);
                Err(RdmaError::Timeout { applied: TimeoutApplied::Ambiguous })
            }
            _ => Ok(()),
        }
    }

    /// After the verb executed: a lost completion surfaces as an
    /// ambiguous timeout even though the effect is in memory.
    #[inline]
    fn chaos_post(&self, verdict: ChaosVerdict) -> RdmaResult<()> {
        if verdict == ChaosVerdict::LandAmbiguous {
            self.note_fault(FaultKind::LandedAmbiguous);
            Err(RdmaError::Timeout { applied: TimeoutApplied::Ambiguous })
        } else {
            Ok(())
        }
    }

    /// Report an injected chaos fault (already on the cold path).
    #[inline]
    fn note_fault(&self, kind: FaultKind) {
        if let Some(tap) = &self.flight {
            tap.fault(kind);
        }
    }

    /// Post one verb: run the gates and the memory effect now, schedule
    /// the completion at the RC-ordered deadline. `effect` returns the
    /// scalar result (CAS/FAA previous value) plus the READ payload.
    ///
    /// Synchronous post failures (`Crashed`, `NodeDead`, `AccessRevoked`)
    /// return `Err` directly with no completion, mirroring the blocking
    /// path where those checks fired before any latency was charged;
    /// every other outcome — chaos timeouts, torn writes, crash-after,
    /// memory errors, success — is delivered as a completion carrying
    /// the full modeled round trip.
    fn post_with(
        &self,
        kind: VerbKind,
        bytes: usize,
        effect: impl FnOnce(CrashAction, ChaosVerdict) -> RdmaResult<(u64, Option<Vec<u8>>)>,
    ) -> RdmaResult<WorkId> {
        let mut st = self.pending.lock();
        // One clock read serves the deadline, the fabric-clock stamp and
        // the flight span's start.
        let now = Instant::now();
        let posted_ns = self.clock.ns_at(now);
        let flight_start = self.flight.as_ref().and_then(|tap| tap.begin(posted_ns));
        let (action, verdict) = match self.gate_posted() {
            Ok(g) => g,
            Err(e) => {
                if let (Some(start), Some(tap)) = (flight_start, self.flight.as_ref()) {
                    tap.finish(kind, bytes as u64, start, false);
                }
                return Err(e);
            }
        };
        let result = effect(action, verdict);
        let mut deadline = now + self.latency.delay_for(bytes);
        if let Some(prev) = st.last_deadline {
            if prev > deadline {
                deadline = prev;
            }
        }
        st.last_deadline = Some(deadline);
        let lat_ns = deadline.saturating_duration_since(now).as_nanos() as u64;
        let work_id = WorkId(st.next_work_id);
        st.next_work_id += 1;
        self.telemetry.stats.record_latency(kind, lat_ns);
        self.telemetry.gauge.on_post();
        st.entries.push_back(PendingEntry {
            work_id,
            kind,
            bytes: bytes as u64,
            result,
            posted_ns,
            lat_ns,
            deadline,
            flight_start,
        });
        self.depth.store(st.entries.len(), Ordering::Relaxed);
        Ok(work_id)
    }

    /// `n` entries just left the front of the queue: release them from
    /// the endpoint's in-flight gauge (once per batch) and republish the
    /// depth. Called with `pending` held.
    #[inline]
    fn released(&self, st: &PendingState, n: usize) {
        if n > 0 {
            self.telemetry.gauge.on_complete(n as u64);
            self.depth.store(st.entries.len(), Ordering::Relaxed);
        }
    }

    /// Turn a ripe pending entry into the caller-visible completion,
    /// emitting its flight span (post→completion).
    fn deliver(&self, e: PendingEntry) -> Completion {
        let (result, data) = match e.result {
            Ok((v, d)) => (Ok(v), d),
            Err(err) => (Err(err), None),
        };
        if let (Some(start), Some(tap)) = (e.flight_start, self.flight.as_ref()) {
            tap.finish(e.kind, e.bytes, start, result.is_ok());
        }
        Completion {
            work_id: e.work_id,
            verb: e.kind,
            result,
            data,
            posted_at: e.posted_ns,
            completed_at: e.posted_ns + e.lat_ns,
        }
    }

    /// Deliver every completion whose deadline has passed, in post order.
    /// Non-blocking.
    pub fn poll(&self) -> Vec<Completion> {
        let mut st = self.pending.lock();
        let n = st.ripe(Instant::now());
        if n == 0 {
            return Vec::new();
        }
        let out: Vec<Completion> = st.entries.drain(..n).map(|e| self.deliver(e)).collect();
        self.released(&st, n);
        out
    }

    /// Deliver the first `n` pending entries: `id`'s completion is
    /// returned, the others are parked in `claimed` for their own takers.
    fn deliver_front(&self, st: &mut PendingState, n: usize, id: WorkId) -> Option<Completion> {
        let mut wanted = None;
        for e in st.entries.drain(..n) {
            let c = self.deliver(e);
            if c.work_id == id {
                wanted = Some(c);
            } else {
                st.claimed.push(c);
            }
        }
        self.released(st, n);
        wanted
    }

    /// Block (pace) until every posted verb has completed, then deliver
    /// all completions in post order. The completion barrier of the
    /// fan-out commit path.
    pub fn wait_all(&self) -> Vec<Completion> {
        let mut out = Vec::new();
        loop {
            let target = self.pending.lock().entries.back().map(|e| e.deadline);
            match target {
                None => return out,
                Some(t) => {
                    pace_until(t);
                    out.extend(self.poll());
                }
            }
        }
    }

    /// Block until `id` completes; deliver anything posted before it
    /// (their flight spans and gauge updates still fire) and return
    /// `id`'s completion. Backbone of the blocking wrappers, and the
    /// per-verb half of a completion barrier on a QP the caller does not
    /// own alone: post a phase's verbs, then `wait` each id.
    ///
    /// Safe under concurrent waiters on the same QP (a shared recovery
    /// coordinator is driven from both the FD monitor thread and
    /// `declare_failed` callers): a waiter that drains past another
    /// waiter's entry parks that completion in `claimed` — atomically
    /// with the drain — and the owner picks it up on its next check.
    /// [`QueuePair::wait_all`] and [`QueuePair::poll`] make no such
    /// promise: they hand whatever has ripened to whoever calls.
    ///
    /// Panics if `id` was never posted on this QP (or already taken).
    pub fn wait(&self, id: WorkId) -> Completion {
        loop {
            let target = {
                let mut st = self.pending.lock();
                if let Some(p) = st.claimed.iter().position(|c| c.work_id == id) {
                    return st.claimed.swap_remove(p);
                }
                st.entries
                    .iter()
                    .find(|e| e.work_id == id)
                    .map(|e| e.deadline)
                    .expect("work id not pending on this QP")
            };
            pace_until(target);
            let mut st = self.pending.lock();
            let n = st.entries.iter().position(|e| e.work_id == id).map(|p| p + 1).unwrap_or(0);
            if let Some(c) = self.deliver_front(&mut st, n, id) {
                return c;
            }
            // A concurrent waiter drained `id` between our deadline
            // lookup and the drain above; it sits in `claimed` now.
        }
    }

    /// Non-blocking fetch of one completion by work id. Drains every
    /// entry *ripe* at `now` (deadline passed) in post order — parking
    /// the others in `claimed` for their own takers, exactly as
    /// `wait` does — and returns `id`'s completion if it has
    /// ripened, `None` otherwise.
    ///
    /// `now` is the caller's clock reading, so a poller checking many
    /// work ids reads the clock once for all of them: a reading that has
    /// gone stale can only leave a completion for the next call, never
    /// deliver one before its deadline.
    ///
    /// This is the polling primitive of the interleaved transaction
    /// scheduler: the scheduler tracks each slot's posted work ids and
    /// pulls them individually, so a slot's *blocking* fallback verb on
    /// the same lane (`wait` via the blocking wrappers) and the
    /// scheduler's posted verbs can coexist without losing completions
    /// to the claimed buffer.
    pub fn try_take(&self, id: WorkId, now: Instant) -> Option<Completion> {
        let mut st = self.pending.lock();
        if let Some(p) = st.claimed.iter().position(|c| c.work_id == id) {
            return Some(st.claimed.swap_remove(p));
        }
        let n = st.ripe(now);
        if n == 0 {
            return None;
        }
        self.deliver_front(&mut st, n, id)
    }

    /// Number of posted-but-undelivered verbs on this QP. Lock-free;
    /// exact for the thread that posts and takes on this QP.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Post a one-sided READ of `len` bytes at `addr`; the payload
    /// arrives in the completion's `data`.
    pub fn post_read(&self, addr: u64, len: usize) -> RdmaResult<WorkId> {
        self.post_with(VerbKind::Read, len, |action, verdict| {
            if action == CrashAction::TearWrite {
                // MidWrite on a READ: nothing reaches memory; plain crash.
                return Err(RdmaError::Crashed);
            }
            self.chaos_pre(verdict)?;
            let mut buf = vec![0u8; len];
            self.node.copy_out(addr, &mut buf)?;
            self.count_read(len as u64);
            self.chaos_post(verdict)?;
            if action == CrashAction::CrashAfter {
                return Err(RdmaError::Crashed);
            }
            Ok((0, Some(buf)))
        })
    }

    /// One-sided READ of `buf.len()` bytes at `addr` (blocking: post+wait).
    #[inline]
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> RdmaResult<()> {
        let id = self.post_read(addr, buf.len())?;
        let c = self.wait(id);
        c.result?;
        buf.copy_from_slice(c.data.as_deref().expect("READ completion carries data"));
        Ok(())
    }

    /// One-sided READ of a single aligned u64 word.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> RdmaResult<u64> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// The (word-aligned) number of payload bytes that land when a write
    /// of `len` bytes tears, per the injector's tear point (default: the
    /// midpoint, the historical behaviour).
    #[inline]
    fn tear_len(&self, len: usize) -> usize {
        (len * self.injector.tear_point() as usize / 1024) / 8 * 8
    }

    /// Post a one-sided WRITE of `data` at `addr`.
    pub fn post_write(&self, addr: u64, data: &[u8]) -> RdmaResult<WorkId> {
        self.post_with(VerbKind::Write, data.len(), |action, verdict| {
            if action == CrashAction::TearWrite {
                // Torn write: only a word-aligned prefix of the payload
                // reaches memory before the sender dies.
                let cut = self.tear_len(data.len());
                if cut > 0 {
                    self.node.copy_in_revocable(addr, &data[..cut], self.endpoint.0)?;
                }
                return Err(RdmaError::Crashed);
            }
            self.chaos_pre(verdict)?;
            self.node.copy_in_revocable(addr, data, self.endpoint.0)?;
            self.count_write(data.len() as u64);
            self.chaos_post(verdict)?;
            if action == CrashAction::CrashAfter {
                return Err(RdmaError::Crashed);
            }
            Ok((0, None))
        })
    }

    /// One-sided WRITE of `data` at `addr` (blocking: post+wait).
    #[inline]
    pub fn write(&self, addr: u64, data: &[u8]) -> RdmaResult<()> {
        let id = self.post_write(addr, data)?;
        self.wait(id).result.map(|_| ())
    }

    /// One-sided WRITE of a single aligned u64 word.
    #[inline]
    pub fn write_u64(&self, addr: u64, value: u64) -> RdmaResult<()> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Post a one-sided compare-and-swap on an aligned u64 word. The
    /// completion's scalar result is the *previous* value, as RDMA
    /// atomics deliver it.
    pub fn post_cas(&self, addr: u64, expected: u64, new: u64) -> RdmaResult<WorkId> {
        self.post_with(VerbKind::Cas, 8, |action, verdict| {
            if action == CrashAction::TearWrite {
                return Err(RdmaError::Crashed); // atomics cannot tear
            }
            self.chaos_pre(verdict)?;
            let prev = self.node.cas(addr, expected, new)?;
            bump(&self.counted().cas, 1);
            // An ambiguous CAS is the nastiest RDMA failure: the swap may
            // have happened, but the previous value never arrives. Callers
            // must re-read the word to find out (see core's `cas_resolved`).
            self.chaos_post(verdict)?;
            if action == CrashAction::CrashAfter {
                return Err(RdmaError::Crashed);
            }
            Ok((prev, None))
        })
    }

    /// One-sided compare-and-swap, blocking (post+wait). Returns the
    /// *previous* value; the caller compares it with `expected` to learn
    /// whether the swap happened.
    #[inline]
    pub fn cas(&self, addr: u64, expected: u64, new: u64) -> RdmaResult<u64> {
        let id = self.post_cas(addr, expected, new)?;
        self.wait(id).result
    }

    /// RNIC-cache flush for NVM persistence (paper §7: "FORD's selective
    /// one-sided RDMA flush scheme"). On hardware this is a 0-byte/small
    /// READ after writes that forces the RNIC's PCIe buffers to drain to
    /// persistent memory; the simulator charges one round trip and
    /// counts it separately so the persistence-mode ablation can measure
    /// the flush tax.
    #[inline]
    pub fn flush(&self, addr: u64) -> RdmaResult<()> {
        let id = self.post_flush(addr)?;
        self.wait(id).result.map(|_| ())
    }

    /// Post an RNIC-cache flush (see [`QueuePair::flush`]).
    pub fn post_flush(&self, addr: u64) -> RdmaResult<WorkId> {
        self.post_with(VerbKind::Flush, 8, |action, verdict| {
            if action == CrashAction::TearWrite {
                return Err(RdmaError::Crashed);
            }
            self.chaos_pre(verdict)?;
            // The read-back that implements the flush.
            self.node.copy_out(addr & !7, &mut [0u8; 8])?;
            bump(&self.counted().flushes, 1);
            self.chaos_post(verdict)?;
            if action == CrashAction::CrashAfter {
                return Err(RdmaError::Crashed);
            }
            Ok((0, None))
        })
    }

    /// Post a one-sided fetch-and-add on an aligned u64 word. The
    /// completion's scalar result is the previous value.
    pub fn post_faa(&self, addr: u64, add: u64) -> RdmaResult<WorkId> {
        self.post_with(VerbKind::Faa, 8, |action, verdict| {
            if action == CrashAction::TearWrite {
                return Err(RdmaError::Crashed); // atomics cannot tear
            }
            self.chaos_pre(verdict)?;
            let prev = self.node.faa(addr, add)?;
            bump(&self.counted().faa, 1);
            self.chaos_post(verdict)?;
            if action == CrashAction::CrashAfter {
                return Err(RdmaError::Crashed);
            }
            Ok((prev, None))
        })
    }

    /// One-sided fetch-and-add, blocking (post+wait). Returns the
    /// previous value.
    #[inline]
    pub fn faa(&self, addr: u64, add: u64) -> RdmaResult<u64> {
        let id = self.post_faa(addr, add)?;
        self.wait(id).result
    }
}

impl Drop for QueuePair {
    fn drop(&mut self) {
        // Undelivered completions still occupy the endpoint's in-flight
        // gauge; release them (a crashed coordinator abandons its CQ).
        self.telemetry.gauge.on_complete(self.pending.lock().entries.len() as u64);
    }
}

/// Busy-wait/sleep until `t` (same spin/sleep discipline as the latency
/// model's `pace`).
#[inline]
fn pace_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        pace(t - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricConfig, NodeId};
    use crate::fault::{CrashMode, CrashPlan};

    fn setup() -> (Arc<Fabric>, QueuePair) {
        let f = Fabric::new(FabricConfig {
            memory_nodes: 1,
            capacity_per_node: 1 << 16,
            latency: LatencyModel::zero(),
        });
        let ep = f.register_endpoint();
        let qp = f.qp(ep, NodeId(0), FaultInjector::new()).unwrap();
        (f, qp)
    }

    #[test]
    fn read_write_roundtrip() {
        let (_f, qp) = setup();
        qp.write_u64(64, 0xDEAD_BEEF).unwrap();
        assert_eq!(qp.read_u64(64).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn concurrent_blocking_verbs_on_a_shared_qp() {
        // A recovery coordinator's QPs are driven from both the FD
        // monitor thread and `declare_failed` callers. Interleaved
        // post+wait pairs must each get their own completion back —
        // a waiter draining past a concurrent waiter's entry parks it
        // instead of discarding it.
        let (_f, qp) = setup();
        let qp = Arc::new(qp);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let qp = Arc::clone(&qp);
                std::thread::spawn(move || {
                    let addr = 64 * t;
                    for i in 0..500u64 {
                        qp.write_u64(addr, i).unwrap();
                        assert_eq!(qp.read_u64(addr).unwrap(), i, "thread {t} iteration {i}");
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(qp.in_flight(), 0);
    }

    #[test]
    fn wait_finds_its_completion_after_a_concurrent_waiter_drained_past_it() {
        use std::time::Duration;
        let f = Fabric::new(FabricConfig {
            memory_nodes: 1,
            capacity_per_node: 1 << 16,
            latency: LatencyModel { rtt: Duration::from_millis(2), ns_per_kib: 0 },
        });
        let qp = f.qp(f.register_endpoint(), NodeId(0), FaultInjector::new()).unwrap();
        let ids: Vec<WorkId> = (0..4u64)
            .map(|i| qp.post_write(i * 8, &(i + 1).to_le_bytes()).unwrap())
            .collect();
        // Another caller of the shared QP waits on the third verb and so
        // drains the first two as well.
        std::thread::scope(|scope| {
            scope.spawn(|| assert_eq!(qp.wait(ids[2]).work_id, ids[2])).join().unwrap();
        });
        assert_eq!(qp.in_flight(), 1, "a later id stays pending");
        let parked: Vec<WorkId> = qp.pending.lock().claimed.iter().map(|c| c.work_id).collect();
        assert_eq!(parked, ids[..2]);
        // The owners of the drained verbs still get their own completions,
        // in whatever order they ask.
        assert_eq!(qp.wait(ids[1]).work_id, ids[1]);
        assert_eq!(qp.wait(ids[0]).work_id, ids[0]);
        assert_eq!(qp.in_flight(), 1);
        assert_eq!(qp.wait(ids[3]).result, Ok(0));
        assert_eq!(qp.in_flight(), 0);
        assert!(qp.pending.lock().claimed.is_empty());
    }

    #[test]
    #[should_panic(expected = "work id not pending on this QP")]
    fn wait_on_an_unknown_id_panics() {
        let (_f, qp) = setup();
        let id = qp.post_read(0, 8).unwrap();
        qp.wait(id);
        qp.wait(id); // already taken
    }

    #[test]
    fn counters_track_ops_and_bytes() {
        let (_f, qp) = setup();
        qp.write(0, &[0u8; 32]).unwrap();
        qp.read_u64(0).unwrap();
        qp.cas(0, 0, 1).unwrap();
        qp.faa(8, 2).unwrap();
        let s = qp.counters().snapshot();
        assert_eq!((s.reads, s.writes, s.cas, s.faa), (1, 1, 1, 1));
        assert_eq!(s.bytes_written, 32);
        assert_eq!(s.bytes_read, 8);
        assert_eq!(s.total_ops(), 4);
    }

    #[test]
    fn dead_node_fails_verbs() {
        let (f, qp) = setup();
        f.kill_node(NodeId(0)).unwrap();
        assert_eq!(qp.read_u64(0), Err(RdmaError::NodeDead));
    }

    #[test]
    fn revoked_endpoint_fails_verbs_but_others_pass() {
        let f = Fabric::new(FabricConfig::default());
        let ep1 = f.register_endpoint();
        let ep2 = f.register_endpoint();
        let qp1 = f.qp(ep1, NodeId(0), FaultInjector::new()).unwrap();
        let qp2 = f.qp(ep2, NodeId(0), FaultInjector::new()).unwrap();
        f.revoke_everywhere(ep1);
        assert_eq!(qp1.write_u64(0, 1), Err(RdmaError::AccessRevoked));
        assert!(qp2.write_u64(8, 1).is_ok());
    }

    #[test]
    fn crash_before_op_leaves_memory_untouched() {
        let (f, qp) = setup();
        qp.injector().arm(CrashPlan { at_op: 1, mode: CrashMode::BeforeOp });
        assert_eq!(qp.write_u64(0, 7), Err(RdmaError::Crashed));
        assert_eq!(qp.counters().snapshot().writes, 0, "a verb that never ran is not counted");
        // Inspect through a second, uncrashed endpoint of the same fabric.
        let obs = f.qp_admin(f.register_endpoint(), NodeId(0), FaultInjector::new()).unwrap();
        assert_eq!(obs.read_u64(0).unwrap(), 0, "the write must not have reached memory");
    }

    #[test]
    fn crash_after_op_lands_the_op() {
        let f = Fabric::new(FabricConfig::default());
        let ep = f.register_endpoint();
        let inj = FaultInjector::new();
        let qp = f.qp(ep, NodeId(0), Arc::clone(&inj)).unwrap();
        inj.arm(CrashPlan { at_op: 1, mode: CrashMode::AfterOp });
        assert_eq!(qp.write_u64(0, 7), Err(RdmaError::Crashed));
        // A different endpoint sees the write: the op landed before death.
        let ep2 = f.register_endpoint();
        let qp2 = f.qp(ep2, NodeId(0), FaultInjector::new()).unwrap();
        assert_eq!(qp2.read_u64(0).unwrap(), 7);
    }

    #[test]
    fn chaos_disabled_is_invisible_to_counters() {
        use crate::chaos::{ChaosConfig, ChaosModel};
        let f = Fabric::new(FabricConfig::default());
        f.install_chaos(ChaosModel::new(ChaosConfig::heavy(99)));
        let ep = f.register_endpoint();
        let qp = f.qp(ep, NodeId(0), FaultInjector::new()).unwrap();
        for i in 0..200u64 {
            qp.write_u64(i * 8, i).unwrap();
            assert_eq!(qp.read_u64(i * 8).unwrap(), i);
        }
        let s = qp.counters().snapshot();
        assert_eq!((s.reads, s.writes), (200, 200));
        assert_eq!(f.chaos().unwrap().stats().total_faults(), 0);
    }

    #[test]
    fn chaos_injects_timeouts_and_ambiguous_verbs_may_land() {
        use crate::chaos::{ChaosConfig, ChaosModel};
        use crate::error::TimeoutApplied;
        let f = Fabric::new(FabricConfig::default());
        let model = ChaosModel::new(ChaosConfig::heavy(3));
        f.install_chaos(Arc::clone(&model));
        model.set_enabled(true);
        let ep = f.register_endpoint();
        let qp = f.qp(ep, NodeId(0), FaultInjector::new()).unwrap();
        // Clean observer QP on a different endpoint (its own link).
        let obs = f.qp_admin(f.register_endpoint(), NodeId(0), FaultInjector::new()).unwrap();

        let mut timeouts = 0;
        let mut ambiguous_landed = 0;
        for i in 1..=5_000u64 {
            let addr = (i % 64) * 8;
            match qp.write_u64(addr, i) {
                Ok(()) => assert_eq!(obs.read_u64(addr).unwrap(), i),
                Err(RdmaError::Timeout { applied }) => {
                    timeouts += 1;
                    let seen = obs.read_u64(addr).unwrap();
                    match applied {
                        // Provably dropped: the old value must survive.
                        TimeoutApplied::NotApplied => assert_ne!(seen, i),
                        TimeoutApplied::Ambiguous => {
                            if seen == i {
                                ambiguous_landed += 1;
                            }
                        }
                    }
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(timeouts > 0, "heavy chaos injected nothing in 5k verbs");
        assert!(ambiguous_landed > 0, "no ambiguous verb ever landed");
        assert_eq!(model.stats().total_faults(), timeouts);
    }

    #[test]
    fn admin_qp_bypasses_chaos() {
        use crate::chaos::{ChaosConfig, ChaosModel};
        let f = Fabric::new(FabricConfig::default());
        let model = ChaosModel::new(ChaosConfig::heavy(5));
        f.install_chaos(Arc::clone(&model));
        model.set_enabled(true);
        let qp = f.qp_admin(f.register_endpoint(), NodeId(0), FaultInjector::new()).unwrap();
        for i in 0..2_000u64 {
            qp.write_u64((i % 32) * 8, i).unwrap();
        }
    }

    #[test]
    fn cas_returns_previous_value_like_hardware() {
        let (_f, qp) = setup();
        qp.write_u64(0, 10).unwrap();
        assert_eq!(qp.cas(0, 10, 20).unwrap(), 10);
        assert_eq!(qp.cas(0, 10, 30).unwrap(), 20); // failed swap: current value
        assert_eq!(qp.read_u64(0).unwrap(), 20);
    }

    #[test]
    fn posted_verbs_complete_in_program_order() {
        let (_f, qp) = setup();
        let w = qp.post_write(0, &7u64.to_le_bytes()).unwrap();
        let r = qp.post_read(0, 8).unwrap();
        let c = qp.post_cas(8, 0, 5).unwrap();
        let a = qp.post_faa(16, 3).unwrap();
        assert_eq!(qp.in_flight(), 4);
        let comps = qp.wait_all();
        assert_eq!(qp.in_flight(), 0);
        let ids: Vec<WorkId> = comps.iter().map(|c| c.work_id).collect();
        assert_eq!(ids, vec![w, r, c, a], "same-QP completions observe post order");
        // The read was posted after the write and must observe it (RC
        // ordering: effects execute in post order).
        assert_eq!(comps[1].data.as_deref(), Some(7u64.to_le_bytes().as_slice()));
        assert_eq!(comps[2].result, Ok(0)); // CAS previous value
        assert_eq!(comps[3].result, Ok(0)); // FAA previous value
                                            // Timestamps are monotone across the pipeline.
        assert!(comps.windows(2).all(|w| w[0].completed_at <= w[1].completed_at));
    }

    #[test]
    fn pipelined_posts_overlap_round_trips() {
        use std::time::Duration;
        let f = Fabric::new(FabricConfig {
            memory_nodes: 1,
            capacity_per_node: 1 << 16,
            latency: LatencyModel { rtt: Duration::from_millis(4), ns_per_kib: 0 },
        });
        let qp = f.qp(f.register_endpoint(), NodeId(0), FaultInjector::new()).unwrap();

        let t0 = Instant::now();
        for i in 0..6u64 {
            qp.post_write(i * 8, &i.to_le_bytes()).unwrap();
        }
        let comps = qp.wait_all();
        let pipelined = t0.elapsed();
        assert_eq!(comps.len(), 6);
        assert!(comps.iter().all(|c| c.result.is_ok()));
        // Six overlapped 4 ms round trips must come in way under the
        // 24 ms a serial issue pays.
        assert!(pipelined < Duration::from_millis(12), "no overlap: {pipelined:?}");

        let t1 = Instant::now();
        for i in 0..6u64 {
            qp.write_u64(i * 8, i).unwrap();
        }
        let serial = t1.elapsed();
        assert!(serial >= Duration::from_millis(24), "blocking path lost its RTTs: {serial:?}");
    }

    #[test]
    fn poll_is_nonblocking_and_in_order() {
        use std::time::Duration;
        let f = Fabric::new(FabricConfig {
            memory_nodes: 1,
            capacity_per_node: 1 << 16,
            latency: LatencyModel { rtt: Duration::from_millis(50), ns_per_kib: 0 },
        });
        let qp = f.qp(f.register_endpoint(), NodeId(0), FaultInjector::new()).unwrap();
        qp.post_write(0, &1u64.to_le_bytes()).unwrap();
        assert!(qp.poll().is_empty(), "completion delivered before its round trip elapsed");
        assert_eq!(qp.in_flight(), 1);
        let comps = qp.wait_all();
        assert_eq!(comps.len(), 1);
        assert!(comps[0].completed_at >= comps[0].posted_at);
    }

    #[test]
    fn posted_crash_point_matches_blocking_crash_point() {
        // The injector fires at post time in post order, so a crash plan
        // armed at op 3 kills the third *posted* verb even when all five
        // are posted before any completion is drained.
        let f = Fabric::new(FabricConfig::default());
        let inj = FaultInjector::new();
        let qp = f.qp(f.register_endpoint(), NodeId(0), Arc::clone(&inj)).unwrap();
        inj.arm(CrashPlan { at_op: 3, mode: CrashMode::BeforeOp });
        let mut results = Vec::new();
        for i in 0..5u64 {
            results.push(qp.post_write(i * 8, &(i + 1).to_le_bytes()));
        }
        // Posts 3..5 fail synchronously (the injector is dead).
        assert!(results[0].is_ok() && results[1].is_ok());
        assert!(results[2..].iter().all(|r| r == &Err(RdmaError::Crashed)));
        let comps = qp.wait_all();
        assert_eq!(comps.len(), 2);
        // Exactly the first two writes landed.
        let obs = f.qp_admin(f.register_endpoint(), NodeId(0), FaultInjector::new()).unwrap();
        assert_eq!(obs.read_u64(0).unwrap(), 1);
        assert_eq!(obs.read_u64(8).unwrap(), 2);
        assert_eq!(obs.read_u64(16).unwrap(), 0);
    }

    #[test]
    fn tear_point_zero_and_full_cover_first_and_last_entry() {
        // pp=0: nothing of the torn write lands. pp=1024: all of it lands.
        for (pp, expect) in [(0u32, 0u64), (1024, 0xFEED)] {
            let f = Fabric::new(FabricConfig::default());
            let inj = FaultInjector::new();
            inj.set_tear_point(pp);
            let qp = f.qp(f.register_endpoint(), NodeId(0), Arc::clone(&inj)).unwrap();
            inj.arm(CrashPlan { at_op: 1, mode: CrashMode::MidWrite });
            let data = [0xFEEDu64.to_le_bytes(), 0xFEEDu64.to_le_bytes()].concat();
            assert_eq!(qp.write(0, &data), Err(RdmaError::Crashed));
            let obs = f.qp_admin(f.register_endpoint(), NodeId(0), FaultInjector::new()).unwrap();
            assert_eq!(obs.read_u64(0).unwrap(), expect, "tear point {pp}");
            assert_eq!(obs.read_u64(8).unwrap(), expect, "tear point {pp}");
        }
    }

    #[test]
    fn fabric_verb_stats_gauge_and_histograms() {
        let (f, qp) = setup();
        qp.post_write(0, &[0u8; 16]).unwrap();
        qp.post_read(0, 8).unwrap();
        assert_eq!(f.verb_stats().verbs_in_flight, 2);
        qp.wait_all();
        let s = f.verb_stats();
        assert_eq!(s.verbs_in_flight, 0);
        assert!(s.in_flight_high_water >= 2);
        assert_eq!(s.kinds[0].count, 1, "one READ posted");
        assert_eq!(s.kinds[1].count, 1, "one WRITE posted");
        assert_eq!(s.total_posted(), 2);
    }

    #[test]
    fn dropping_a_qp_releases_its_in_flight_verbs() {
        let (f, qp) = setup();
        qp.post_write(0, &[0u8; 8]).unwrap();
        qp.post_write(8, &[0u8; 8]).unwrap();
        assert_eq!(f.verb_stats().verbs_in_flight, 2);
        drop(qp);
        assert_eq!(f.verb_stats().verbs_in_flight, 0);
    }

    #[test]
    fn sharded_telemetry_sums_exactly_and_survives_drops() {
        use crate::stripe::QpStripe;
        const THREADS: u64 = 4;
        let f = Fabric::new(FabricConfig {
            memory_nodes: 2,
            capacity_per_node: 1 << 16,
            latency: LatencyModel::zero(),
        });
        // Each thread: its own endpoint, a 3-lane stripe to node
        // `t % 2`, and a fixed mix on every lane — with `t + 1` extra
        // posts left pending on lane 0, so every endpoint reaches a
        // different depth.
        let stripes: Vec<QpStripe> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let f = &f;
                    scope.spawn(move || {
                        let node = NodeId((t % 2) as u16);
                        let s = f
                            .qp_stripe(f.register_endpoint(), node, FaultInjector::new(), 3)
                            .unwrap();
                        for (l, lane) in s.lanes().iter().enumerate() {
                            let base = (t * 3 + l as u64) * 64;
                            for i in 0..50 + t {
                                lane.write(base, &[i as u8; 24]).unwrap();
                                lane.read_u64(base).unwrap();
                                lane.cas(base + 32, i, i + 1).unwrap();
                                lane.faa(base + 40, 2).unwrap();
                                lane.flush(base).unwrap();
                            }
                        }
                        for _ in 0..=t {
                            s.lane(0).post_read(0, 8).unwrap();
                        }
                        s
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });

        let lane_sum = |stripes: &[QpStripe], node: u16| {
            stripes
                .iter()
                .filter(|s| s.node_id().0 == node)
                .fold(OpCountersSnapshot::default(), |a, s| a.plus(&s.counters_snapshot()))
        };
        let per_node = [lane_sum(&stripes, 0), lane_sum(&stripes, 1)];
        let total = per_node[0].plus(&per_node[1]);
        let pending: u64 = (1..=THREADS).sum();
        let check = |f: &Fabric, in_flight: u64, live_qps: usize| {
            assert_eq!(f.telemetry.live().0, live_qps, "one block per live queue pair");
            let v = f.verb_stats();
            assert_eq!(v.total_posted(), total.total_ops());
            let by_kind = [total.reads, total.writes, total.cas, total.faa, total.flushes];
            assert_eq!(v.kinds.map(|k| k.count), by_kind);
            assert_eq!(
                f.per_node_counters(),
                vec![(NodeId(0), per_node[0]), (NodeId(1), per_node[1])]
            );
            assert_eq!(f.node_counters(NodeId(1)).unwrap(), per_node[1]);
            assert_eq!(f.total_counters(), total);
            assert_eq!(v.verbs_in_flight, in_flight);
            assert_eq!(v.in_flight_high_water, THREADS, "the deepest single endpoint's depth");
        };
        assert_eq!(total.total_ops(), (0..THREADS).map(|t| 3 * 5 * (50 + t) + t + 1).sum::<u64>());
        check(&f, pending, 12);

        // Drop half the lanes — the deepest endpoint's among them — with
        // their posted reads still pending: their blocks retire, the
        // totals stay, the gauge keeps what the surviving lanes hold.
        let mut survivors = stripes;
        drop(survivors.split_off(2));
        let surviving: u64 = survivors.iter().map(|s| s.in_flight() as u64).sum();
        assert!(surviving > 0 && surviving < pending);
        check(&f, surviving, 6);
        drop(survivors);
        check(&f, 0, 0);
    }

    #[test]
    fn shared_qp_statistics_are_exact_under_four_threads() {
        // The FD's recovery coordinator shape: several threads issuing
        // blocking verbs on one QP. Every statistic is a plain
        // load+store, so each must be written under the QP mutex — a
        // write outside it loses updates here (most runs, not every run).
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 10_000;
        let (f, qp) = setup();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let qp = &qp;
                scope.spawn(move || {
                    let base = t * 64;
                    for i in 0..ROUNDS {
                        qp.write(base, &[i as u8; 24]).unwrap();
                        qp.read_u64(base).unwrap();
                        qp.cas(base + 32, i, i + 1).unwrap();
                        qp.faa(base + 40, 2).unwrap();
                        qp.flush(base).unwrap();
                    }
                });
            }
        });
        let n = THREADS * ROUNDS;
        let expect = OpCountersSnapshot {
            reads: n,
            writes: n,
            cas: n,
            faa: n,
            flushes: n,
            bytes_read: 8 * n,
            bytes_written: 24 * n,
        };
        assert_eq!(qp.counters().snapshot(), expect);
        assert_eq!(f.total_counters(), expect);
        let v = f.verb_stats();
        assert_eq!(v.kinds.map(|k| k.count), [n; 5]);
        assert_eq!((qp.in_flight(), v.verbs_in_flight), (0, 0));
    }

    #[test]
    fn in_flight_is_the_queue_length_at_every_step() {
        let (f, qp) = setup();
        let check = |qp: &QueuePair, want: usize| {
            assert_eq!(qp.in_flight(), want);
            assert_eq!(qp.pending.lock().entries.len(), want);
            assert_eq!(f.verb_stats().verbs_in_flight, want as u64);
        };
        check(&qp, 0);
        let ids: Vec<WorkId> = (0..5u64)
            .map(|i| {
                let id = qp.post_write(i * 8, &i.to_le_bytes()).unwrap();
                check(&qp, i as usize + 1);
                id
            })
            .collect();
        // Zero latency: everything is ripe, so taking one entry drains
        // the queue (the others are parked for their own takers).
        assert!(qp.try_take(ids[1], Instant::now()).is_some());
        check(&qp, 0);
        assert_eq!(qp.pending.lock().claimed.len(), 4, "parked, no longer queued");
        assert!(qp.try_take(ids[0], Instant::now()).is_some());
        check(&qp, 0);
        // A blocking wrapper posts one and drains up to it.
        qp.post_read(0, 8).unwrap();
        check(&qp, 1);
        qp.write_u64(64, 1).unwrap();
        check(&qp, 0);
        qp.post_read(0, 8).unwrap();
        qp.post_read(8, 8).unwrap();
        check(&qp, 2);
        assert_eq!(qp.poll().len(), 2);
        check(&qp, 0);
        qp.post_cas(0, 0, 1).unwrap();
        qp.post_faa(8, 1).unwrap();
        check(&qp, 2);
        assert_eq!(qp.wait_all().len(), 2);
        check(&qp, 0);
        // A synchronous post failure queues nothing.
        qp.injector().crash_now();
        assert_eq!(qp.post_read(0, 8), Err(RdmaError::Crashed));
        check(&qp, 0);
        qp.injector().reset();
        qp.post_flush(0).unwrap();
        check(&qp, 1);
        drop(qp);
        assert_eq!(f.verb_stats().verbs_in_flight, 0);
    }

    #[test]
    fn try_take_delivers_at_the_deadline_never_before() {
        use std::time::Duration;
        let f = Fabric::new(FabricConfig {
            memory_nodes: 1,
            capacity_per_node: 1 << 16,
            latency: LatencyModel { rtt: Duration::from_secs(3600), ns_per_kib: 0 },
        });
        let qp = f.qp(f.register_endpoint(), NodeId(0), FaultInjector::new()).unwrap();
        let ids: Vec<WorkId> =
            (0..3u64).map(|i| qp.post_write(i * 8, &i.to_le_bytes()).unwrap()).collect();
        let deadlines: Vec<Instant> =
            qp.pending.lock().entries.iter().map(|e| e.deadline).collect();
        assert!(deadlines.windows(2).all(|w| w[0] <= w[1]));

        // Before the first deadline nothing moves, whichever id is asked.
        let early = deadlines[0] - Duration::from_nanos(1);
        for &id in &ids {
            assert!(qp.try_take(id, early).is_none());
        }
        assert_eq!(qp.in_flight(), 3, "an unripe entry stays queued");
        assert!(qp.pending.lock().claimed.is_empty());

        // At the last deadline the whole queue is ripe: the asked-for
        // completion comes back, the earlier ones are parked in post order.
        let last = qp.try_take(ids[2], deadlines[2]).expect("ripe at its deadline");
        assert_eq!(last.work_id, ids[2]);
        assert_eq!(qp.in_flight(), 0);
        let parked: Vec<WorkId> = qp.pending.lock().claimed.iter().map(|c| c.work_id).collect();
        assert_eq!(parked, ids[..2]);
        // A parked completion was delivered already; any clock finds it.
        assert_eq!(qp.try_take(ids[0], early).map(|c| c.work_id), Some(ids[0]));
        assert_eq!(qp.try_take(ids[1], early).map(|c| c.work_id), Some(ids[1]));
    }

    #[test]
    fn revocation_stops_a_streaming_writer() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        const WORDS: usize = 128; // 1 KiB
        let mut torn_rounds = 0;
        for round in 0..40 {
            let (f, qp) = setup();
            let streaming = AtomicBool::new(false);
            // The writer streams 1 KiB WRITEs whose every word is the
            // WRITE's sequence number, until one fails.
            let failed_seq = std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    for seq in 1u64.. {
                        let payload: Vec<u8> =
                            std::iter::repeat_n(seq.to_le_bytes(), WORDS).flatten().collect();
                        match qp.write(0, &payload) {
                            Ok(()) => streaming.store(true, Ordering::Release),
                            Err(e) => {
                                assert_eq!(e, RdmaError::AccessRevoked);
                                // The fence holds for every later verb.
                                assert_eq!(
                                    qp.write_u64(0, u64::MAX),
                                    Err(RdmaError::AccessRevoked)
                                );
                                return seq;
                            }
                        }
                    }
                    unreachable!()
                });
                while !streaming.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                assert_eq!(f.revoke_everywhere(qp.endpoint()), 1);
                writer.join().unwrap()
            });
            // The writer has observed its revocation (and the join handed
            // that to us): memory is final.
            let obs = f.qp_admin(f.register_endpoint(), NodeId(0), FaultInjector::new()).unwrap();
            let snapshot = || -> Vec<u64> {
                let mut buf = vec![0u8; WORDS * 8];
                obs.read(0, &mut buf).unwrap();
                buf.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
            };
            let first = snapshot();
            std::thread::sleep(Duration::from_millis(1));
            assert_eq!(first, snapshot(), "round {round}: memory moved after the fence");
            // The failed WRITE landed a word-aligned prefix (possibly
            // empty) over the previous WRITE's image, nothing else.
            let cut = first.iter().take_while(|&&w| w == failed_seq).count();
            assert!(cut < WORDS, "round {round}: the failed WRITE landed whole");
            assert!(
                first[cut..].iter().all(|&w| w == failed_seq - 1),
                "round {round}: torn at {cut}, then {:?}",
                &first[cut..]
            );
            torn_rounds += (cut > 0) as u32;
        }
        // Not asserted: whether a round tears mid-copy is up to the race.
        println!("revocation tore {torn_rounds}/40 writes mid-copy");
    }

    #[test]
    fn per_thread_telemetry_is_cache_line_aligned() {
        assert!(std::mem::align_of::<crate::cq::QpStats>() >= 128);
        assert!(std::mem::align_of::<crate::cq::EndpointGauge>() >= 128);
        assert!(std::mem::align_of::<OpCounters>() >= 128);
        assert!(std::mem::align_of::<FaultInjector>() >= 128);
    }
}
