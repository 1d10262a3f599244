//! The transaction coordinator: the compute-side engine that executes the
//! transactional protocol over one-sided verbs (paper §2.1: "compute
//! servers perform those over the memory servers through one-sided RDMA").

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use dkvs::hash::FxHashMap;
use dkvs::{ClusterMap, LockWord, SlotImage, SlotLayout, SlotRef, TableId};
use rdma_sim::{EndpointId, FaultInjector, NodeId, QpStripe, QueuePair, RdmaError, RdmaResult};

use crate::commit::Parked;
use crate::context::SharedContext;
use crate::fd::{CoordinatorLease, FailureDetector};
use crate::flight::{FlightHandle, FlightRecorder, Payload};
use crate::obs::{PhaseStats, ThroughputProbe};
use crate::pause::CoordGate;
use crate::retry;
use crate::txn::{AbortReason, Txn, TxnError};

/// Statistics one coordinator accumulates over its lifetime.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoordStats {
    pub committed: u64,
    pub aborted: u64,
    pub locks_stolen: u64,
}

/// A transaction coordinator (paper §2.1 "Architecture"). One coordinator
/// runs one transaction at a time (or up to `inflight_txns` at a time
/// through [`Coordinator::run_interleaved`]); a compute server hosts many
/// coordinators. Each coordinator owns a [`QpStripe`] — one or more QPs —
/// to every memory node, all sharing one [`FaultInjector`] so a crash
/// stops the whole context.
pub struct Coordinator {
    pub(crate) ctx: Arc<SharedContext>,
    pub(crate) coord_id: u16,
    pub(crate) endpoint: EndpointId,
    pub(crate) qps: Vec<QpStripe>,
    pub(crate) injector: Arc<FaultInjector>,
    pub(crate) gate: Arc<CoordGate>,
    pub(crate) addr_cache: FxHashMap<(TableId, u64), SlotRef>,
    pub(crate) txn_seq: u64,
    pub(crate) probe: Option<Arc<ThroughputProbe>>,
    pub(crate) phase_stats: Option<Arc<PhaseStats>>,
    /// Flight-recorder emission handle: auto-attached at connect time
    /// when the cluster has a recorder installed, or attached by hand
    /// through [`Coordinator::with_flight`] (see [`crate::flight`]).
    pub(crate) flight: Option<FlightHandle>,
    /// Interleaved-scheduler gauges (in-flight transactions, admissions),
    /// attached via [`Coordinator::with_sched_stats`].
    pub(crate) sched: Option<std::sync::Arc<crate::sched::SchedStats>>,
    /// The last committed transaction's Unlock phase, posted and not yet
    /// collected (see [`crate::commit::Commit::park`]). One at a time:
    /// whatever touches the lanes next calls [`Coordinator::reap`] first.
    pub(crate) parked: Option<Parked>,
    pub stats: CoordStats,
}

/// A parsed full-slot read: `[key][lock][version][value]`.
#[derive(Debug, Clone)]
pub(crate) struct FullSlot {
    pub key: u64,
    pub image: SlotImage,
}

impl Coordinator {
    /// Connect a coordinator with the given id (ids are handed out by the
    /// failure detector; see [`crate::fd::FailureDetector`]). Registers a
    /// fresh endpoint.
    pub fn connect(ctx: Arc<SharedContext>, coord_id: u16) -> RdmaResult<Coordinator> {
        let endpoint = ctx.fabric.register_endpoint();
        Coordinator::connect_at(ctx, coord_id, endpoint)
    }

    /// Connect with a pre-registered endpoint (the FD registration flow:
    /// endpoint first, then the id lease, then the queue pairs).
    pub fn connect_at(
        ctx: Arc<SharedContext>,
        coord_id: u16,
        endpoint: EndpointId,
    ) -> RdmaResult<Coordinator> {
        Coordinator::connect_grouped(ctx, coord_id, endpoint, FaultInjector::new())
    }

    /// Connect a coordinator that shares its compute server's endpoint
    /// and fault injector (see [`crate::compute::ComputeNode`]): the
    /// server's crash stops every coordinator on it, and one link
    /// termination fences them all.
    pub fn connect_grouped(
        ctx: Arc<SharedContext>,
        coord_id: u16,
        endpoint: EndpointId,
        injector: Arc<FaultInjector>,
    ) -> RdmaResult<Coordinator> {
        let width = ctx.config.qp_stripes.max(1);
        let mut qps = Vec::with_capacity(ctx.fabric.num_nodes() as usize);
        for n in ctx.fabric.node_ids() {
            qps.push(ctx.fabric.qp_stripe(endpoint, n, Arc::clone(&injector), width)?);
        }
        let gate = ctx.pause.register();
        let flight = ctx.flight().map(|rec| rec.handle(coord_id));
        Ok(Coordinator {
            ctx,
            coord_id,
            endpoint,
            qps,
            injector,
            gate,
            addr_cache: FxHashMap::default(),
            txn_seq: 0,
            probe: None,
            phase_stats: None,
            flight,
            sched: None,
            parked: None,
            stats: CoordStats::default(),
        })
    }

    pub fn coord_id(&self) -> u16 {
        self.coord_id
    }

    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    pub fn injector(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.injector)
    }

    pub fn gate(&self) -> Arc<CoordGate> {
        Arc::clone(&self.gate)
    }

    pub fn context(&self) -> &Arc<SharedContext> {
        &self.ctx
    }

    /// Attach a throughput probe (commit/abort counters).
    pub fn with_probe(mut self, probe: Arc<ThroughputProbe>) -> Coordinator {
        self.probe = Some(probe);
        self
    }

    /// Attach a standalone flight recorder (see [`crate::flight`]): this
    /// coordinator's protocol events, phase spans and fences land on its
    /// track of `rec`; a recorder shared by several coordinators
    /// interleaves them in one record order. The fabric is not told, so
    /// no verb is tapped.
    pub fn with_flight(mut self, rec: &Arc<FlightRecorder>) -> Coordinator {
        self.flight = Some(rec.handle(self.coord_id));
        self
    }

    /// Attach per-phase commit-path statistics (see [`crate::obs`]).
    pub fn with_phase_stats(mut self, stats: Arc<PhaseStats>) -> Coordinator {
        self.phase_stats = Some(stats);
        self
    }

    /// Attach interleaved-scheduler gauges (see [`crate::sched`]).
    pub fn with_sched_stats(mut self, stats: Arc<crate::sched::SchedStats>) -> Coordinator {
        self.sched = Some(stats);
        self
    }

    /// True when a flight recorder is attached *and* currently enabled
    /// (one atomic load; `false` costs an `Option` check).
    #[inline]
    pub(crate) fn flight_on(&self) -> bool {
        self.flight.as_ref().is_some_and(FlightHandle::enabled)
    }

    /// The id of the transaction currently being executed (valid
    /// between `begin()` and commit/abort — the only window phase
    /// timers run in).
    #[inline]
    pub(crate) fn current_txn_id(&self) -> u64 {
        ((self.coord_id as u64) << 48) | self.txn_seq
    }

    /// Start a phase timer — `Some` when phase stats are attached *or*
    /// the flight recorder is live, so untimed runs pay a branch and an
    /// atomic load but no clock read.
    #[inline]
    pub(crate) fn phase_start(&self) -> Option<Instant> {
        if self.phase_stats.is_some() || self.flight_on() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Count an abort by reason.
    #[inline]
    pub(crate) fn note_abort(&self, reason: AbortReason) {
        if let Some(stats) = &self.phase_stats {
            stats.note_abort(reason);
        }
    }

    /// Per-node verb counters of this coordinator's queue pairs, summed
    /// across stripe lanes (used to assert round-trip counts, e.g.
    /// Pandora's f+1 log writes).
    pub fn op_counters(&self) -> Vec<(NodeId, rdma_sim::OpCountersSnapshot)> {
        self.qps.iter().map(|s| (s.node_id(), s.counters_snapshot())).collect()
    }

    /// Per-node, per-lane verb counters of this coordinator's stripes
    /// (lane order), for the metrics export.
    pub fn stripe_counters(&self) -> Vec<(NodeId, Vec<rdma_sim::OpCountersSnapshot>)> {
        self.qps.iter().map(|s| (s.node_id(), s.lane_counters())).collect()
    }

    /// Snapshot of the address cache (key → slot). A replacement
    /// coordinator restarted on the same compute server can be
    /// pre-warmed with this ([`Coordinator::warm_addr_cache`]) — slot
    /// locations are verified on every use, so stale entries are safe.
    pub fn export_addr_cache(&self) -> Vec<((TableId, u64), SlotRef)> {
        self.addr_cache.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Pre-warm the address cache (see [`Coordinator::export_addr_cache`]).
    pub fn warm_addr_cache(&mut self, entries: Vec<((TableId, u64), SlotRef)>) {
        self.addr_cache.extend(entries);
    }

    /// Begin a transaction. Blocks while the world is paused (Baseline /
    /// Traditional recovery, memory-failure handling).
    pub fn begin(&mut self) -> Txn<'_> {
        self.ctx.pause.enter_txn(&self.gate);
        self.txn_seq += 1;
        let txn_id = self.current_txn_id();
        Txn::new(self, txn_id)
    }

    /// Run `body` as a transaction, retrying transient aborts (see
    /// [`AbortReason::is_transient`]) until it commits; an abort that
    /// would repeat on every attempt, or a non-abort error, surfaces at
    /// once. Returns the number of aborts endured.
    pub fn run<T>(
        &mut self,
        mut body: impl FnMut(&mut Txn<'_>) -> Result<T, TxnError>,
    ) -> Result<(T, u64), TxnError> {
        let mut aborts = 0u64;
        loop {
            let mut txn = self.begin();
            match body(&mut txn).and_then(|v| txn.commit().map(|()| v)) {
                Ok(v) => return Ok((v, aborts)),
                Err(TxnError::Aborted(reason)) if reason.is_transient() => aborts += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Lane 0 of the stripe to `node` — the QP every blocking wrapper
    /// and unrouted verb uses. With `qp_stripes = 1` this *is* the
    /// node's only QP, reproducing the unstriped fabric exactly.
    #[inline]
    pub(crate) fn qp(&self, node: NodeId) -> &QueuePair {
        self.qps[node.0 as usize].lane(0)
    }

    /// The whole stripe to `node`.
    #[inline]
    pub(crate) fn stripe(&self, node: NodeId) -> &QpStripe {
        &self.qps[node.0 as usize]
    }

    /// Posted verbs a phase may keep in flight per QP. Zero when
    /// posting is off (`pipeline_depth <= 1`): no lane ever has room,
    /// so every verb takes its blocking path, one round trip at a time.
    #[inline]
    pub(crate) fn post_window(&self) -> usize {
        match self.ctx.config.pipeline_depth {
            0 | 1 => 0,
            n => n as usize,
        }
    }

    /// Backoff-jitter salt: unique per coordinator incarnation and
    /// transaction, so concurrent retriers desynchronize deterministically.
    #[inline]
    pub(crate) fn retry_salt(&self) -> u64 {
        self.retry_salt_of(self.txn_seq)
    }

    /// The salt of transaction `seq` of this incarnation, for a retry
    /// that runs after the coordinator has moved on.
    #[inline]
    fn retry_salt_of(&self, seq: u64) -> u64 {
        ((self.coord_id as u64) << 32) ^ ((self.endpoint.0 as u64) << 8) ^ seq
    }

    /// Run an **idempotent** verb under the configured retry policy
    /// (READs and same-bytes re-WRITEs survive transient timeouts).
    pub(crate) fn retry_verb<T>(&self, f: impl FnMut() -> RdmaResult<T>) -> RdmaResult<T> {
        self.spanned_retry(&self.ctx.config.retry, f)
    }

    /// Escalated-budget retry for release paths (lock releases, log
    /// truncation): exhaustion here would strand remote state owned by a
    /// live coordinator, so the budget is much larger.
    pub(crate) fn retry_release<T>(&self, f: impl FnMut() -> RdmaResult<T>) -> RdmaResult<T> {
        self.spanned_retry(&self.ctx.config.retry.escalated(), f)
    }

    /// Retry under `policy` on behalf of the transaction being executed.
    fn spanned_retry<T>(
        &self,
        policy: &retry::RetryPolicy,
        f: impl FnMut() -> RdmaResult<T>,
    ) -> RdmaResult<T> {
        let stats = Some(&*self.ctx.resilience);
        self.retry_span(self.current_txn_id(), || {
            retry::retry_op_counted(policy, stats, self.retry_salt(), f)
        })
    }

    /// Run a retry loop of transaction `txn_id` — `f` returns its
    /// result and how many attempts it issued — emitting a "retry"
    /// flight span covering the whole loop when a verb actually
    /// re-issued (attempts > 1). The individual verbs are already
    /// spanned at the fabric layer; this span is the causal envelope
    /// naming the attempt count.
    fn retry_span<T>(
        &self,
        txn_id: u64,
        f: impl FnOnce() -> (RdmaResult<T>, u32),
    ) -> RdmaResult<T> {
        if !self.flight_on() {
            return f().0;
        }
        let fl = self.flight.as_ref().expect("flight_on checked");
        let start_ns = fl.now_ns();
        let (res, attempts) = f();
        if attempts > 1 {
            let end_ns = fl.now_ns();
            fl.span(
                "retry",
                txn_id,
                start_ns,
                end_ns.saturating_sub(start_ns).max(1),
                Payload::Attempts(attempts),
                res.is_ok(),
            );
        }
        res
    }

    /// Mark a self-fence on the flight timeline and auto-dump the
    /// recorder: an instant on this coordinator's track naming the fence
    /// site, then the last-N-spans post-mortem file (when a dump
    /// directory is configured). Called *before* the injector crash so
    /// the instant is the final event of this incarnation.
    fn flight_fence(&self, reason: &'static str, txn_id: u64) {
        if let Some(f) = &self.flight {
            f.instant(reason, txn_id);
            f.recorder().auto_dump(reason);
        }
    }

    /// Fail-stop a *live* coordinator that can neither finish nor undo
    /// what transaction `txn_id` started: the FD then declares it failed
    /// and recovery resolves its locks and logs. `site` names the fence
    /// on the flight timeline.
    pub(crate) fn self_fence(&self, site: &'static str, txn_id: u64) {
        self.ctx.resilience.note_self_fence();
        self.flight_fence(site, txn_id);
        self.injector.crash_now();
    }

    /// Release the lock word at `addr`, which transaction `txn_id` of
    /// this coordinator holds as `word`, escalating through the
    /// release-grade retry budget. The first issue is a WRITE of zero —
    /// nobody else can hold a word we own. Once an attempt has timed
    /// out it may have landed all the same (chaos's `LandAmbiguous`
    /// loses only the completion), and by the time the back-off
    /// re-issues it another coordinator may hold the lock: the re-issue
    /// is owner-checked ([`Coordinator::rerelease_lock_or_fence`]), or
    /// it would zero *that* lock and let a third transaction in beside
    /// its owner. Anonymous words (FORD, Traditional, PILL off) name no
    /// owner to check; there the retry stays blind, here and for an
    /// unlock posted and settled in place (`Commit::settle`).
    ///
    /// A live coordinator that exhausts even the escalated budget
    /// self-fences: transient faults never leave a live-owned stuck
    /// lock. Revocation and node death hand the lock's fate to recovery
    /// without fencing (under revocation the coordinator may still be
    /// alive and about to reincarnate).
    pub(crate) fn release_lock_or_fence(
        &self,
        node: NodeId,
        addr: u64,
        word: LockWord,
        txn_id: u64,
    ) {
        let release = || self.qp(node).write_u64(addr, 0);
        if self.ctx.config.pill_active() {
            if let Err(RdmaError::Timeout { .. }) = release() {
                self.rerelease_lock_or_fence(node, addr, word, txn_id);
            }
        } else if let Err(RdmaError::Timeout { .. }) = self.retry_release(release) {
            self.self_fence("self-fence-unlock", txn_id);
        }
        // Crashed / AccessRevoked / NodeDead: recovery (or the dead
        // node's absence) owns the lock word now.
    }

    /// Release a PILL lock word after an attempt of unknown fate — a
    /// timed-out WRITE, or a posted unlock whose completion failed.
    /// `word` is unique to one transaction of one incarnation, so a CAS
    /// from it to zero releases the lock iff it is still ours, and an
    /// ambiguous CAS is resolved by re-reading (as
    /// `RecoveryCoordinator::release_cas_resolved` does): anything but
    /// `word` means the slot is no longer ours to touch. An anonymous
    /// word cannot tell our lock from a successor's, which is why an
    /// anonymous unlock is never parked (`Commit::park`) and retries
    /// blind, in place ([`Coordinator::release_lock_or_fence`]).
    ///
    /// The coordinator may be executing a later transaction by now: the
    /// back-off salt and the "retry" flight envelope are `txn_id`'s,
    /// the transaction that took the lock.
    pub(crate) fn rerelease_lock_or_fence(
        &self,
        node: NodeId,
        addr: u64,
        word: LockWord,
        txn_id: u64,
    ) {
        debug_assert!(self.ctx.config.pill_active(), "an anonymous word names no owner to check");
        let released = self.retry_span(txn_id, || {
            let cas = retry::cas_resolved(
                &self.ctx.config.retry.escalated(),
                Some(&self.ctx.resilience),
                self.retry_salt_of(txn_id & ((1 << 48) - 1)),
                self.qp(node),
                addr,
                word.raw(),
                0,
                true,
            );
            // The issue of unknown fate, and this one at least.
            (cas, 2)
        });
        if let Err(RdmaError::Timeout { .. }) = released {
            self.self_fence("self-fence-unlock", txn_id);
        }
    }

    /// Collect the completions of the last commit's unlocks, if any are
    /// still out ([`Txn::commit`] returns at the ack, the unlocks posted
    /// and in effect), and release again — owner-checked — a lock whose
    /// unlock turns out to have failed. The coordinator does this itself
    /// behind the next transaction's execute barrier, before anything
    /// else that uses its queue pairs (a commit phase's lane-wide
    /// barrier, the abort path, the scheduler, a reincarnation) and when
    /// dropped. That leaves one case to the caller: a coordinator kept
    /// alive but *idle* after a commit holds any lock whose unlock was
    /// lost on the wire until it is next used, and the failure detector,
    /// seeing it alive, recovers nothing — call `reap` before parking a
    /// coordinator. Blocks for what is left of one round trip.
    pub fn reap(&mut self) {
        if let Some(parked) = self.parked.take() {
            parked.reap(self);
        }
    }

    /// True if `lock` belongs to a coordinator in the failed-ids set
    /// (PILL only): the lock is *stray* and may be treated as unlocked
    /// for reads or stolen for writes (paper §3.1.2).
    pub(crate) fn lock_is_stray(&self, lock: LockWord) -> bool {
        self.ctx.config.pill_active() && lock.is_locked() && self.ctx.failed.contains(lock.owner())
    }

    /// Pad a client value to the table's slot value size.
    pub(crate) fn pad_value(&self, table: TableId, value: &[u8]) -> Vec<u8> {
        let layout = self.map().layout(table);
        assert_eq!(value.len(), layout.value_len, "value length must match the table's value_len");
        let mut v = value.to_vec();
        v.resize(layout.value_padded(), 0);
        v
    }

    /// CAS with ambiguity resolution (see [`retry::cas_resolved`]):
    /// `unique_word` asserts that `new` cannot be produced by any other
    /// coordinator (PILL lock words, key claims), enabling re-read
    /// disambiguation of ambiguous timeouts.
    pub(crate) fn cas_resolved(
        &self,
        node: NodeId,
        addr: u64,
        expected: u64,
        new: u64,
        unique_word: bool,
    ) -> RdmaResult<u64> {
        retry::cas_resolved(
            &self.ctx.config.retry,
            Some(&self.ctx.resilience),
            self.retry_salt(),
            self.qp(node),
            addr,
            expected,
            new,
            unique_word,
        )
    }

    /// Survive a false suspicion (paper §3.2.2 Cor1: "a falsely-suspected
    /// *live* coordinator is fenced, never wedged"). After this
    /// coordinator's endpoint was revoked by active-link termination while
    /// it was still running, drop the fenced endpoint, lease a *fresh*
    /// coordinator id (the old id sits in the failed set while recovery
    /// steals its stray locks exactly once), and rebuild queue pairs under
    /// a new endpoint. Keeps the address cache (slot locations re-verify
    /// on use), stats, probes, and the — still live — fault injector.
    pub fn reincarnate(&mut self, fd: &FailureDetector) -> RdmaResult<CoordinatorLease> {
        // The parked completions sit on the queue pairs about to go.
        self.reap();
        let endpoint = self.ctx.fabric.register_endpoint();
        let lease = fd.register(endpoint);
        let width = self.ctx.config.qp_stripes.max(1);
        let mut qps = Vec::with_capacity(self.ctx.fabric.num_nodes() as usize);
        for n in self.ctx.fabric.node_ids() {
            qps.push(self.ctx.fabric.qp_stripe(endpoint, n, Arc::clone(&self.injector), width)?);
        }
        // The fenced incarnation's pause gate must never hold up a
        // stop-the-world recovery; register a fresh one.
        self.gate.mark_dead();
        self.gate = self.ctx.pause.register();
        self.coord_id = lease.coord_id;
        self.endpoint = endpoint;
        self.qps = qps;
        // Spans from here on belong to the new incarnation's track; the
        // boundary instant makes false-suspicion survival visible on the
        // fail-over timeline.
        self.flight = self.flight.take().map(|f| f.recorder().handle(lease.coord_id));
        if let Some(f) = &self.flight {
            f.instant("reincarnated", (lease.coord_id as u64) << 48);
        }
        self.ctx.resilience.false_suspicion_survivals.fetch_add(1, Ordering::Relaxed);
        Ok(lease)
    }

    pub(crate) fn map(&self) -> &ClusterMap {
        &self.ctx.map
    }

    /// My lock word (PILL carries the coordinator-id, paper §3.1.2).
    /// The tag mixes the endpoint id — unique per coordinator
    /// *incarnation*, never recycled — with the transaction counter, so
    /// a reincarnation of a recycled coordinator-id can never produce a
    /// lock word bit-identical to its predecessor's stray lock (steal
    /// ABA, see [`LockWord::pill_tagged`]).
    #[inline]
    pub(crate) fn my_lock(&self) -> LockWord {
        self.lock_for(self.txn_seq)
    }

    /// Lock word for an explicit transaction sequence number — the
    /// interleaved scheduler runs several transactions of one
    /// coordinator at once, each with its own seq and therefore its own
    /// distinguishable lock word (`my_lock` always reads the *latest*
    /// seq).
    #[inline]
    pub(crate) fn lock_for(&self, seq: u64) -> LockWord {
        if self.ctx.config.pill_active() {
            let tag = (self.endpoint.0.wrapping_mul(0x9E37_79B1)) ^ (seq as u32);
            LockWord::pill_tagged(self.coord_id, tag)
        } else {
            LockWord::anonymous()
        }
    }

    /// Acting primary for a bucket under the context's current
    /// dead-node set (one atomic load and a ring walk; no lock, no
    /// allocation). `MemoryFailure` when every replica is dead.
    pub fn primary_of(&self, table: TableId, bucket: u64) -> Result<NodeId, TxnError> {
        self.ctx
            .map
            .primary(table, bucket, self.ctx.dead_set())
            .ok_or(TxnError::Aborted(AbortReason::MemoryFailure))
    }

    /// READ and parse one full slot (key..value) from `node`.
    pub(crate) fn read_full_slot(&self, node: NodeId, slot: SlotRef) -> Result<FullSlot, TxnError> {
        let layout = self.map().layout(slot.table);
        let addr = self.map().slot_addr(node, slot.table, slot.bucket, slot.slot);
        let mut buf = vec![0u8; layout.slot_bytes() as usize];
        self.retry_verb(|| self.qp(node).read(addr, &mut buf))
            .map_err(TxnError::from_rdma)?;
        Ok(parse_full_slot(layout, &buf))
    }

    /// READ a whole bucket from `node` and parse every slot.
    pub(crate) fn read_bucket(
        &self,
        node: NodeId,
        table: TableId,
        bucket: u64,
    ) -> Result<Vec<FullSlot>, TxnError> {
        let def = self.map().table(table);
        let layout = def.layout();
        let addr = self.map().bucket_addr(node, table, bucket);
        let mut buf = vec![0u8; def.bucket_bytes() as usize];
        self.retry_verb(|| self.qp(node).read(addr, &mut buf))
            .map_err(TxnError::from_rdma)?;
        let sb = layout.slot_bytes() as usize;
        Ok((0..def.slots_per_bucket as usize)
            .map(|i| parse_full_slot(layout, &buf[i * sb..(i + 1) * sb]))
            .collect())
    }

    /// READ just the `[lock][version]` pair of a slot (validation phase;
    /// a single 16-byte READ because the two words are adjacent — the
    /// covert-locks fix of §5.1 relies on this costing no extra trip).
    pub(crate) fn read_lock_version(
        &self,
        node: NodeId,
        slot: SlotRef,
    ) -> Result<(LockWord, dkvs::VersionWord), TxnError> {
        let addr =
            self.map().slot_addr(node, slot.table, slot.bucket, slot.slot) + SlotLayout::LOCK_OFF;
        let mut buf = [0u8; 16];
        self.retry_verb(|| self.qp(node).read(addr, &mut buf))
            .map_err(TxnError::from_rdma)?;
        Ok((
            LockWord(u64::from_le_bytes(buf[0..8].try_into().expect("8B"))),
            dkvs::VersionWord(u64::from_le_bytes(buf[8..16].try_into().expect("8B"))),
        ))
    }

    /// Byte address of a slot on `node`.
    pub(crate) fn slot_base(&self, node: NodeId, slot: SlotRef) -> u64 {
        self.map().slot_addr(node, slot.table, slot.bucket, slot.slot)
    }

    /// Byte address of a slot's lock word on `node`.
    pub(crate) fn lock_addr(&self, node: NodeId, slot: SlotRef) -> u64 {
        self.slot_base(node, slot) + SlotLayout::LOCK_OFF
    }

    /// Mark this coordinator crashed (after a `TxnError::Crashed`): frees
    /// the world-pause gate so recoveries never wait on a corpse.
    pub(crate) fn note_crashed(&self) {
        self.gate.mark_dead();
    }
}

impl Drop for Coordinator {
    /// A parked unlock whose completion failed has not released its
    /// lock yet, and nobody else will.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.reap();
        }
    }
}

pub(crate) fn parse_full_slot(layout: SlotLayout, buf: &[u8]) -> FullSlot {
    let key = u64::from_le_bytes(buf[0..8].try_into().expect("8B"));
    let image = SlotImage::parse(layout, &buf[SlotLayout::LOCK_OFF as usize..]);
    FullSlot { key, image }
}
