//! The commit pipeline: validate → undo-log → apply (every live
//! replica, one barrier) → flush → ack → unlock, and the abort path
//! (paper §2.3 for FORD, §3.1.5 for Pandora). One resumable machine, two
//! drivers.
//!
//! A [`Commit`] holds one transaction's read-set, write-set, held locks
//! and log bookkeeping from its first operation on. After the execute
//! phase ([`crate::exec`], the same shape over the same state) a driver
//! walks it through the phases in two halves:
//!
//! * [`Commit::post`] builds the phase's item list — one item per
//!   (object, node) the phase touches — and posts each item's verbs on
//!   the stripe lane its address routes to. This is the only place that
//!   decides what verbs a phase issues and in what order.
//! * [`Commit::settle`], called once every posted completion is in,
//!   resolves each item in order — an item that could not be posted
//!   (`pipeline_depth <= 1`, synchronous post error) or whose
//!   completion failed re-runs through the blocking retry ladder of its
//!   kind — then moves to the next phase.
//!
//! Between the halves the driver collects completions: the blocking
//! [`crate::txn::Txn`] driver takes one barrier per phase with
//! [`Commit::wait`]; the interleaved scheduler ([`crate::sched`]) polls
//! every slot's machine with [`Commit::poll`] and settles whichever has
//! ripened. Posted verbs take effect at post time, so both drivers put
//! the same verbs on the wire in the same order. An item whose lane
//! window is full waits for the phase's next wave ([`Commit::repost`]),
//! posted once the lanes have drained: a phase of `v` verbs on a lane
//! of window `w` is `ceil(v / w)` barriers — one, at the default depth
//! of 16, while no node holds replicas of more than eight entries.
//!
//! The blocking driver stops at the ack. The paper's commit is "apply
//! to all replicas, ack, then unlock" (§2.3): the caller has its answer
//! before the unlock's completions exist, and an unlock's effect is in
//! memory as it posts. So the driver posts the Unlock phase where it
//! always did and [`Commit::park`] leaves the posted items with the
//! coordinator as a [`Parked`], whose completions
//! [`Coordinator::reap`] collects behind the next transaction's execute
//! barrier. A slot keeps polling its unlock: its lane truncation rides
//! the same phase and the lane's next tenant must find it done. So
//! does a transaction whose lock word is anonymous keep its barrier: a
//! late re-release needs an owner to check.
//!
//! Protocols and bug reproductions differ at named phase boundaries
//! only (see DESIGN.md §5): `covert_locks` in the validate check, the
//! log-target builder and `missing_insert_log` in the log phase,
//! `lost_decision` skipping it, `complicit_abort` and the two
//! leave-the-log-behind bugs in [`Commit::abort`]; the execute-side
//! hooks call [`Commit::log_early`] and [`Commit::log_intents`] from
//! the ladder of `crate::exec`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dkvs::{
    log_lane_offset, LockWord, LogEntry, SlotLayout, SlotRef, UndoRecord, VersionWord,
    LOG_LANE_BYTES,
};
use rdma_sim::{Completion, NodeId, RdmaError, RdmaResult, WorkId};

use crate::config::ProtocolKind;
use crate::coordinator::Coordinator;
use crate::flight::{FlightHandle, TxnEvent};
use crate::obs::TxnPhase;
use crate::txn::{AbortReason, ReadEntry, TxnError, WriteEntry, WriteKind};

/// Position of a transaction in the pipeline: the phase whose items
/// [`Commit::post`] issues next, or [`Commit::settle`] resolves next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Still executing; the driver owns the transaction.
    Execute,
    Validate,
    Log,
    /// Every live replica of every write-set entry, one barrier.
    Apply,
    Flush,
    /// Post-ack cleanup. A scheduler slot polls it; the blocking driver
    /// posts it and parks its completions ([`Commit::park`]).
    Unlock,
    Done,
}

/// What one item of a phase does at `(node, addr)`.
#[derive(Debug, Clone, Copy)]
enum ItemKind {
    /// 16 B `[lock][version]` re-read of read-set entry `.0`.
    Validate(usize),
    /// WRITE of `log_bufs[buf]` (an undo entry or a lock-intent list),
    /// followed by a flush on the same lane when `flush` is set.
    Log { buf: usize, flush: bool },
    /// Install write-set entry `.0` on this replica.
    Apply(usize),
    /// Selective NVM flush of the node's last-written slot.
    Flush,
    /// Release the lock word of the slot at `addr`.
    Unlock,
    /// Zero the undo entry's header word.
    Truncate,
}

/// One unit of a phase's fan-out. `addr` is the address the item is
/// about — slot base for validate/apply/flush/unlock, log-lane base for
/// log/truncate — and picks the stripe lane, so verbs on one object keep
/// RC order across phases.
#[derive(Debug)]
struct Item {
    node: NodeId,
    addr: u64,
    kind: ItemKind,
    /// Not attempted yet: staged, or kept back by a full lane window
    /// for the next wave ([`Commit::repost`]).
    waiting: bool,
    /// Every verb of the item posted.
    posted: bool,
    /// A posted verb's completion failed.
    failed: bool,
    /// READ payload, if the item posted one.
    data: Option<Vec<u8>>,
}

impl Item {
    fn new(node: NodeId, addr: u64, kind: ItemKind) -> Item {
        Item { node, addr, kind, waiting: true, posted: false, failed: false, data: None }
    }

    fn record(&mut self, c: Completion) {
        match c.result {
            Ok(_) => {
                if c.data.is_some() {
                    self.data = c.data;
                }
            }
            Err(_) => self.failed = true,
        }
    }
}

/// A posted verb awaiting its completion, and the item it belongs to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pend {
    pub node: NodeId,
    pub lane: u32,
    pub id: WorkId,
    pub item: usize,
}

impl Pend {
    /// Non-blocking fetch of this verb's completion, if it has ripened
    /// by `now` (the poller's one clock reading per slot visit).
    pub fn try_take(&self, co: &Coordinator, now: Instant) -> Option<Completion> {
        co.stripe(self.node).lane(self.lane).try_take(self.id, now)
    }
}

/// The Unlock phase of a committed transaction, posted and not waited
/// for (see [`Commit::park`]): its items, their verbs in flight, and
/// what names the transaction now that it is gone.
pub(crate) struct Parked {
    txn_id: u64,
    lock: LockWord,
    items: Vec<Item>,
    pending: Vec<Pend>,
    /// What posting cost, when anyone is listening; the reap adds what
    /// collecting costs.
    spent: Option<Duration>,
}

impl Parked {
    /// Collect the completions and release again, owner-checked, where
    /// one failed. Per work id: by now the lanes may carry a later
    /// transaction's verbs, which a lane-wide barrier would deliver here
    /// and drop. A power-cut coordinator collects nothing — recovery
    /// owns its locks.
    pub fn reap(mut self, co: &Coordinator) {
        if co.injector.is_crashed() {
            return;
        }
        let timed = self.spent.map(|spent| (spent, Instant::now()));
        // Newest first: the wait for a lane's last verb delivers the
        // lane, and the earlier ones are then at hand.
        for p in self.pending.iter().rev() {
            let c = co.stripe(p.node).lane(p.lane).wait(p.id);
            self.items[p.item].record(c);
        }
        for it in self.items.iter().filter(|it| it.posted && it.failed) {
            co.rerelease_lock_or_fence(
                it.node,
                it.addr + SlotLayout::LOCK_OFF,
                self.lock,
                self.txn_id,
            );
        }
        if let Some((spent, t0)) = timed {
            let unlock = spent + t0.elapsed();
            observe_phase(co, co.flight.as_ref(), self.txn_id, TxnPhase::Unlock, unlock);
        }
    }
}

/// The one emit point for phase timing: `phase` of transaction `txn_id`
/// took `d` and ends now — one observation in the `PhaseStats` histogram
/// and a span on the flight track.
fn observe_phase(
    co: &Coordinator,
    flight: Option<&FlightHandle>,
    txn_id: u64,
    phase: TxnPhase,
    d: Duration,
) {
    if let Some(stats) = &co.phase_stats {
        stats.record(phase, d);
    }
    if let Some(f) = flight {
        f.ended(phase.name(), txn_id, d, true);
    }
}

/// One transaction's commit state (see the module docs).
pub(crate) struct Commit {
    pub txn_id: u64,
    /// Log lane of the undo entry: 0 for [`crate::txn::Txn`], the slot
    /// index for scheduler slots.
    lane: u32,
    /// This transaction's lock word.
    pub lock: LockWord,
    /// The log lanes are shared with sibling transactions (scheduler
    /// slots): a committed transaction truncates its lane while it
    /// unlocks, because a stale entry would alias the next transaction
    /// scheduled onto the lane. The blocking driver owns lane 0 alone
    /// and lets its next entry overwrite the old one.
    shared_lanes: bool,
    /// This transaction's flight track (a scheduler slot's own, else the
    /// coordinator's); `None` when no recorder is attached.
    pub flight: Option<FlightHandle>,
    pub read_set: Vec<ReadEntry>,
    pub write_set: Vec<WriteEntry>,
    /// Locks this transaction owns remotely — the one list the abort
    /// path and the unlock phase release. A lock lands here the moment
    /// it is known to be ours, before its write-set entry exists.
    pub held: Vec<SlotRef>,
    phase: Phase,
    phase_t0: Option<Instant>,
    items: Vec<Item>,
    pending: Vec<Pend>,
    log_bufs: Vec<Vec<u8>>,
    /// Nodes that may hold this transaction's undo entry (truncation
    /// targets): every node a log WRITE was *attempted* on — a posted
    /// WRITE may have landed even when its completion failed, and
    /// truncating a region never written is a harmless zero-write.
    logged_nodes: Vec<NodeId>,
    /// `(write-set index, node)` of every apply item that landed.
    landed: Vec<(usize, NodeId)>,
    /// True once the first replica write may have been issued: from
    /// then on errors leave locks and logs in place — a partial apply
    /// can only be repaired from the undo log, by recovery.
    apply_started: bool,
    acked: bool,
}

const ZERO: [u8; 8] = [0u8; 8];

impl Commit {
    pub fn new(
        txn_id: u64,
        lane: u32,
        lock: LockWord,
        shared_lanes: bool,
        flight: Option<FlightHandle>,
    ) -> Commit {
        Commit {
            txn_id,
            lane,
            lock,
            shared_lanes,
            flight,
            read_set: Vec::new(),
            write_set: Vec::new(),
            held: Vec::new(),
            phase: Phase::Execute,
            phase_t0: None,
            items: Vec::new(),
            pending: Vec::new(),
            log_bufs: Vec::new(),
            logged_nodes: Vec::new(),
            landed: Vec::new(),
            apply_started: false,
            acked: false,
        }
    }

    pub fn phase(&self) -> Phase {
        self.phase
    }

    pub fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Has the client commit-ack point passed? (Paper §2.3: "the client
    /// is notified after the first step" — after apply, before unlock.)
    pub fn acked(&self) -> bool {
        self.acked
    }

    /// Are posted verbs still in flight?
    pub fn in_flight(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Start (or restart) the clock of the phase at hand, when anyone
    /// is listening.
    pub fn start_timer(&mut self, co: &Coordinator) {
        self.phase_t0 = co.phase_start();
    }

    /// `phase` took `d` and ends now, on this transaction's track.
    pub fn record_phase(&self, co: &Coordinator, phase: TxnPhase, d: Duration) {
        observe_phase(co, self.flight.as_ref(), self.txn_id, phase, d);
    }

    /// Stop the clock [`Commit::start_timer`] started, if it runs.
    pub fn end_phase(&mut self, co: &Coordinator, phase: TxnPhase) {
        if let Some(t0) = self.phase_t0.take() {
            self.record_phase(co, phase, t0.elapsed());
        }
    }

    /// Record a protocol event on this transaction's track.
    #[inline]
    pub fn trace(&self, event: TxnEvent) {
        if let Some(f) = &self.flight {
            f.event(self.txn_id, event);
        }
    }

    /// The execute phase is over: validation is next.
    pub fn begin(&mut self) {
        debug_assert_eq!(self.phase, Phase::Execute);
        self.phase = Phase::Validate;
    }

    // -----------------------------------------------------------------
    // Posting
    // -----------------------------------------------------------------

    /// Build the item list of the phase at hand and post it.
    pub fn post(&mut self, co: &mut Coordinator) -> Result<(), TxnError> {
        if self.phase_t0.is_none() {
            self.start_timer(co);
        }
        self.stage(co).map_err(|e| self.fail(co, e))?;
        self.post_items(co);
        Ok(())
    }

    fn stage(&mut self, co: &Coordinator) -> Result<(), TxnError> {
        self.items.clear();
        match self.phase {
            Phase::Validate => {
                for (i, r) in self.read_set.iter().enumerate() {
                    if self.write_set.iter().any(|w| w.table == r.table && w.key == r.key) {
                        continue; // protected by our own write lock
                    }
                    let primary = co
                        .primary_of(r.table, r.slot.bucket)
                        .map_err(|_| TxnError::Aborted(AbortReason::MemoryFailure))?;
                    self.items.push(Item::new(
                        primary,
                        co.slot_base(primary, r.slot),
                        ItemKind::Validate(i),
                    ));
                }
            }
            Phase::Log => self.stage_log(co),
            Phase::Apply => {
                // Acting primaries first, then the backups, under one
                // dead-node snapshot: the post order the two-tier apply
                // had, collected at one barrier. Recovery rolls forward
                // iff every live replica moved past its pre-image, so
                // nothing reads a primary-before-backup order.
                self.apply_started = !self.write_set.is_empty();
                let dead = co.ctx.dead_set();
                self.landed.clear();
                // Of each entry's live replicas: the first, then the rest.
                for (skip, take) in [(0, 1), (1, usize::MAX)] {
                    for (i, w) in self.write_set.iter().enumerate() {
                        let live = co
                            .map()
                            .replica_walk(w.table, w.slot.bucket)
                            .filter(|&n| !dead.contains(n));
                        self.items.extend(live.skip(skip).take(take).map(|node| {
                            Item::new(node, co.slot_base(node, w.slot), ItemKind::Apply(i))
                        }));
                    }
                }
            }
            Phase::Flush => {
                // The *selective* flush scheme: one flush per touched
                // node, at its last-written slot. Walk the landed writes
                // entry-major so each node's flush point is its last
                // write.
                for (i, w) in self.write_set.iter().enumerate() {
                    for node in co.map().replica_walk(w.table, w.slot.bucket) {
                        if !self.landed.contains(&(i, node)) {
                            continue;
                        }
                        let base = co.slot_base(node, w.slot);
                        match self.items.iter_mut().find(|it| it.node == node) {
                            Some(it) => it.addr = base,
                            None => self.items.push(Item::new(node, base, ItemKind::Flush)),
                        }
                    }
                }
            }
            Phase::Unlock => {
                // Post-ack cleanup, one barrier: lock releases, plus the
                // lane truncation where lanes are shared.
                let dead = co.ctx.dead_set();
                for &sref in &self.held {
                    if let Some(primary) = co.map().primary(sref.table, sref.bucket, dead) {
                        let base = co.slot_base(primary, sref);
                        self.items.push(Item::new(primary, base, ItemKind::Unlock));
                    }
                }
                self.held.clear();
                if self.shared_lanes {
                    let off = log_lane_offset(self.lane);
                    for node in std::mem::take(&mut self.logged_nodes) {
                        if !dead.contains(node) {
                            let addr = co.map().log_region(node, co.coord_id).base + off;
                            self.items.push(Item::new(node, addr, ItemKind::Truncate));
                        }
                    }
                }
            }
            Phase::Execute | Phase::Done => unreachable!("no items to post in {:?}", self.phase),
        }
        Ok(())
    }

    /// Stage the undo-log copies of the write-set. Pandora writes one
    /// entry, amortizing the whole write-set, to each of the f+1
    /// designated log servers (§3.1.4); FORD / Traditional log every
    /// object on its own replica nodes, grouped per node — ≥ f+1 WRITEs
    /// *per object*. Both land at this transaction's lane of the
    /// coordinator's log region (lane 0 is the region base).
    fn stage_log(&mut self, co: &Coordinator) {
        let config = &co.ctx.config;
        let coord = co.coord_id;
        let dead = co.ctx.dead_set();
        let off = log_lane_offset(self.lane);
        // Selective flush (paper §7): persist the log before the commit
        // phase may act on it.
        let flush = config.persistence.needs_flush();
        let records = self
            .write_set
            .iter()
            // Missing-actions bug: inserts are not logged (paper §5.1).
            .filter(|w| !(config.bugs.missing_insert_log && w.kind == WriteKind::Insert))
            .map(|w| UndoRecord {
                table: w.table,
                key: w.key,
                bucket: w.slot.bucket,
                slot: w.slot.slot,
                old_version: w.old_version,
                new_version: w.new_version,
                old_value: w.old_value.clone(),
            });
        self.items.clear();
        self.log_bufs.clear();
        if config.protocol == ProtocolKind::Pandora {
            let entry = LogEntry { txn_id: self.txn_id, coord, writes: records.collect() };
            self.log_bufs.push(entry.encode());
            debug_assert!(
                !self.shared_lanes || self.log_bufs[0].len() <= LOG_LANE_BYTES as usize,
                "the scheduler's oversize admission check must have run"
            );
            for node in co.map().log_servers(coord) {
                if !dead.contains(node) {
                    let addr = co.map().log_region(node, coord).base + off;
                    self.items.push(Item::new(node, addr, ItemKind::Log { buf: 0, flush }));
                }
            }
        } else {
            let mut per_node: BTreeMap<NodeId, Vec<UndoRecord>> = BTreeMap::new();
            for r in records {
                for node in co.map().replica_walk(r.table, r.bucket) {
                    if !dead.contains(node) {
                        per_node.entry(node).or_default().push(r.clone());
                    }
                }
            }
            for (node, writes) in per_node {
                let buf = self.log_bufs.len();
                self.log_bufs.push(LogEntry { txn_id: self.txn_id, coord, writes }.encode());
                let addr = co.map().log_region(node, coord).base + off;
                self.items.push(Item::new(node, addr, ItemKind::Log { buf, flush }));
            }
        }
        self.logged_nodes.clear();
        self.logged_nodes.extend(self.items.iter().map(|it| it.node));
    }

    /// Post every waiting item whose lane has room. The rest keep
    /// waiting — for the next wave ([`Commit::repost`]), or, when posting
    /// is off, for the blocking path in [`Commit::settle`]. An item's
    /// verbs post together on one lane.
    fn post_items(&mut self, co: &Coordinator) {
        let window = co.post_window();
        let Commit { items, pending, write_set, log_bufs, .. } = self;
        for (k, it) in items.iter_mut().enumerate().filter(|(_, it)| it.waiting) {
            let (node, base) = (it.node, it.addr);
            let stripe = co.stripe(node);
            let lane = stripe.lane_for(base);
            let qp = stripe.lane(lane);
            if qp.in_flight() >= window {
                continue;
            }
            it.waiting = false;
            // A post error may leave the item's earlier verbs in flight;
            // they are listed anyway so the driver accounts for them.
            let mut sent = |id: WorkId| pending.push(Pend { node, lane, id, item: k });
            let posted: RdmaResult<()> = (|| {
                match it.kind {
                    ItemKind::Validate(_) => {
                        sent(qp.post_read(base + SlotLayout::LOCK_OFF, 16)?);
                    }
                    ItemKind::Log { buf, flush } => {
                        sent(qp.post_write(base, &log_bufs[buf])?);
                        if flush {
                            // Rides the write's RC order on the same lane.
                            sent(qp.post_flush(base)?);
                        }
                    }
                    ItemKind::Apply(i) => {
                        let words = apply_words(&write_set[i]);
                        let (list, n) = apply_writes(&write_set[i], base, &words);
                        for &(addr, bytes) in &list[..n] {
                            sent(qp.post_write(addr, bytes)?);
                        }
                    }
                    ItemKind::Flush => sent(qp.post_flush(base)?),
                    ItemKind::Unlock => {
                        sent(qp.post_write(base + SlotLayout::LOCK_OFF, &ZERO)?);
                    }
                    ItemKind::Truncate => sent(qp.post_write(base, &ZERO)?),
                }
                Ok(())
            })();
            it.posted = posted.is_ok();
        }
    }

    // -----------------------------------------------------------------
    // Collecting completions: the two drivers
    // -----------------------------------------------------------------

    /// With nothing in flight: post the next wave — the items a full
    /// lane window kept back. A phase wider than its lanes' windows so
    /// costs one barrier per windowful, not a blocking round trip per
    /// item. Returns whether anything posted; what still waits then
    /// (posting off, or a lane full of a sibling slot's verbs) is left
    /// to [`Commit::settle`]'s blocking ladder.
    pub fn repost(&mut self, co: &Coordinator) -> bool {
        debug_assert!(self.pending.is_empty(), "a wave posts behind the last one's barrier");
        if co.post_window() == 0 || !self.items.iter().any(|it| it.waiting) {
            return false;
        }
        self.post_items(co);
        !self.pending.is_empty()
    }

    /// Blocking driver: one completion barrier over every lane the
    /// phase posted on, and one more per further wave.
    pub fn wait(&mut self, co: &Coordinator) {
        loop {
            self.barrier(co);
            if !self.repost(co) {
                return;
            }
        }
    }

    fn barrier(&mut self, co: &Coordinator) {
        let Commit { items, pending, .. } = self;
        while let Some(&Pend { node, lane, .. }) = pending.first() {
            for c in co.stripe(node).lane(lane).wait_all() {
                let hit = pending
                    .iter()
                    .position(|p| p.node == node && p.lane == lane && p.id == c.work_id);
                if let Some(j) = hit {
                    items[pending.swap_remove(j).item].record(c);
                }
            }
            // The barrier delivers everything posted on the lane; a
            // listed verb it did not deliver re-runs blocking.
            pending.retain(|p| {
                let lost = p.node == node && p.lane == lane;
                if lost {
                    items[p.item].failed = true;
                }
                !lost
            });
        }
    }

    /// Polling driver: harvest whatever has ripened by `now`. Returns
    /// whether any completion arrived.
    pub fn poll(&mut self, co: &Coordinator, now: Instant) -> bool {
        let mut progressed = false;
        let mut j = 0;
        while j < self.pending.len() {
            let p = self.pending[j];
            match p.try_take(co, now) {
                Some(c) => {
                    self.items[p.item].record(c);
                    self.pending.swap_remove(j);
                    progressed = true;
                }
                None => j += 1,
            }
        }
        progressed
    }

    /// Blocking driver, Unlock phase posted: the caller has its ack and
    /// an unlock takes effect as it posts, so nothing waits for the
    /// completions — they are left with the coordinator, which collects
    /// them behind the next transaction's execute barrier, ripe by then
    /// ([`Coordinator::reap`]). Only completions are deferred: an item
    /// that did not post is released here, as [`Commit::settle`] would.
    /// Returns `false`, nothing done, where the driver must wait and
    /// settle this phase like any other: the unlocks are more than the
    /// lanes' windows hold, so the waves need their barriers; or the lock
    /// word is anonymous (FORD, Traditional, PILL off) — a failed unlock
    /// found only after the coordinator has moved on could not be told
    /// from a successor's lock, and fail-stopping over it costs a
    /// coordinator per lost completion.
    pub fn park(&mut self, co: &mut Coordinator) -> bool {
        debug_assert!(self.phase == Phase::Unlock && !self.shared_lanes);
        let overflowed = co.post_window() > 0 && self.items.iter().any(|it| it.waiting);
        if overflowed || !co.ctx.config.pill_active() {
            return false;
        }
        for it in self.items.iter().filter(|it| !it.posted) {
            let addr = it.addr + SlotLayout::LOCK_OFF;
            co.release_lock_or_fence(it.node, addr, self.lock, self.txn_id);
        }
        self.phase = Phase::Done;
        if self.pending.is_empty() {
            self.end_phase(co, TxnPhase::Unlock);
            return true;
        }
        debug_assert!(co.parked.is_none(), "one transaction's unlock parks at a time");
        co.parked = Some(Parked {
            txn_id: self.txn_id,
            lock: self.lock,
            items: std::mem::take(&mut self.items),
            pending: std::mem::take(&mut self.pending),
            spent: self.phase_t0.take().map(|t0| t0.elapsed()),
        });
        true
    }

    // -----------------------------------------------------------------
    // Settling
    // -----------------------------------------------------------------

    /// Resolve the phase at hand (all its completions are in) and move
    /// to the next. An error has already run the cleanup it calls for
    /// (see [`Commit::fail`]).
    pub fn settle(&mut self, co: &mut Coordinator) -> Result<(), TxnError> {
        debug_assert!(self.pending.is_empty(), "settle with verbs in flight");
        self.settle_phase(co).map_err(|e| self.fail(co, e))
    }

    fn settle_phase(&mut self, co: &mut Coordinator) -> Result<(), TxnError> {
        self.settle_items(co)?;
        match self.phase {
            Phase::Validate => {
                self.end_phase(co, TxnPhase::Validate);
                if self.write_set.is_empty() {
                    // Read-only: validation is the whole commit.
                    self.ack(co);
                    self.phase = Phase::Done;
                } else if co.ctx.config.bugs.lost_decision {
                    // Lost-decision bug: the log was written during
                    // execution, before the decision (paper §3.1.3).
                    self.phase = Phase::Apply;
                } else {
                    // Logging only after validation (lost-decision fix).
                    self.phase = Phase::Log;
                }
            }
            Phase::Log => {
                self.end_phase(co, TxnPhase::Log);
                self.phase = Phase::Apply;
            }
            Phase::Apply => {
                // Memory-failure rule (paper §3.2.5): commit iff every
                // entry reached at least one live replica.
                for i in 0..self.write_set.len() {
                    if !self.landed.iter().any(|&(j, _)| j == i) {
                        return Err(TxnError::Aborted(AbortReason::MemoryFailure));
                    }
                }
                if co.ctx.config.persistence.needs_flush() {
                    self.phase = Phase::Flush;
                } else {
                    self.applied(co);
                }
            }
            Phase::Flush => self.applied(co),
            Phase::Unlock => {
                self.end_phase(co, TxnPhase::Unlock);
                self.phase = Phase::Done;
            }
            Phase::Execute | Phase::Done => unreachable!("nothing to settle in {:?}", self.phase),
        }
        Ok(())
    }

    /// Every live replica holds the update (and, under NVM, it is
    /// flushed): ack the client, then unlock. Failures from here on
    /// leave stray locks for recovery but the commit stands.
    ///
    /// Lock-intent regions are NOT cleared per transaction — the next
    /// transaction's first intent write overwrites them, and recovery's
    /// stop-the-world replay makes stale intents harmless (releasing an
    /// unlocked slot is a no-op, and every lock still held at replay
    /// time is stray). This keeps the traditional scheme at the paper's
    /// "one additional logging round trip for each lock" (§6.2.1).
    fn applied(&mut self, co: &mut Coordinator) {
        self.end_phase(co, TxnPhase::Apply);
        self.ack(co);
        self.phase = Phase::Unlock;
    }

    /// The client commit-ack point.
    fn ack(&mut self, co: &mut Coordinator) {
        self.acked = true;
        co.stats.committed += 1;
        self.trace(TxnEvent::Committed);
        if let Some(p) = &co.probe {
            p.commit();
        }
    }

    /// Resolve every staged item, in item order: a cleanly completed
    /// item is done; any other re-runs through the blocking ladder of
    /// its kind (every re-issued verb is idempotent — same bytes, same
    /// address). Returns raw errors.
    fn settle_items(&mut self, co: &Coordinator) -> Result<(), TxnError> {
        let bugs = co.ctx.config.bugs;
        for k in 0..self.items.len() {
            let it = &mut self.items[k];
            let (node, addr) = (it.node, it.addr);
            let clean = it.posted && !it.failed;
            match it.kind {
                ItemKind::Validate(i) => {
                    let r = &self.read_set[i];
                    let (lock, version) = match it.data.take() {
                        Some(buf) if clean && buf.len() >= 16 => (
                            LockWord(u64::from_le_bytes(buf[0..8].try_into().expect("8B"))),
                            VersionWord(u64::from_le_bytes(buf[8..16].try_into().expect("8B"))),
                        ),
                        _ => co.read_lock_version(node, r.slot).map_err(|e| match e {
                            // Name the cause: a lost replica or an
                            // exhausted retry budget is not a version
                            // conflict. (`fail` turns the timeout into
                            // a `NetworkTimeout` abort.)
                            TxnError::Rdma(RdmaError::NodeDead) => {
                                TxnError::Aborted(AbortReason::MemoryFailure)
                            }
                            TxnError::Crashed | TxnError::Rdma(RdmaError::Timeout { .. }) => e,
                            _ => TxnError::Aborted(AbortReason::ValidationVersion),
                        })?,
                    };
                    // Covert-locks fix: a locked read-set object means a
                    // concurrent writer holds it — abort (stray locks of
                    // failed coordinators are exempt under PILL; a
                    // sibling slot's lock counts like any foreign one).
                    if !bugs.covert_locks && lock.is_locked() && !co.lock_is_stray(lock) {
                        return Err(TxnError::Aborted(AbortReason::ValidationLocked));
                    }
                    if version != r.version {
                        return Err(TxnError::Aborted(AbortReason::ValidationVersion));
                    }
                }
                ItemKind::Apply(i) if clean => self.landed.push((i, node)),
                _ if clean => {}
                ItemKind::Log { buf, flush } => {
                    let bytes = &self.log_bufs[buf];
                    co.retry_verb(|| co.qp(node).write(addr, bytes))
                        .map_err(TxnError::from_rdma)?;
                    if flush {
                        co.retry_verb(|| co.qp(node).flush(addr)).map_err(TxnError::from_rdma)?;
                    }
                }
                ItemKind::Apply(i) => {
                    let w = &self.write_set[i];
                    let words = apply_words(w);
                    let (list, n) = apply_writes(w, addr, &words);
                    let qp = co.qp(node);
                    let issue = || list[..n].iter().try_for_each(|&(a, bytes)| qp.write(a, bytes));
                    match co.retry_verb(issue) {
                        Ok(()) => self.landed.push((i, node)),
                        Err(RdmaError::NodeDead) => {
                            // Raced a memory-server death: the
                            // memory-failure rule commits iff all *live*
                            // replicas are updated (paper §3.2.5), so a
                            // confirmed-dead replica is skipped.
                            if co.ctx.fabric.node(node).map(|n| n.is_alive()).unwrap_or(false) {
                                return Err(TxnError::Rdma(RdmaError::NodeDead));
                            }
                        }
                        Err(RdmaError::Timeout { .. }) => {
                            // Retry budget exhausted mid-apply: some
                            // replicas may already hold the new value,
                            // and a live coordinator can neither finish
                            // nor undo from here atomically. Fail-stop
                            // so the FD's recovery resolves the
                            // transaction from its undo log — roll
                            // forward iff every live replica advanced,
                            // roll back otherwise.
                            co.self_fence("self-fence-apply", self.txn_id);
                            return Err(TxnError::Crashed);
                        }
                        Err(e) => return Err(TxnError::from_rdma(e)),
                    }
                }
                ItemKind::Flush => match co.retry_verb(|| co.qp(node).flush(addr)) {
                    Ok(()) => {}
                    Err(RdmaError::Timeout { .. }) => {
                        // Unflushed NVM mid-apply has the same shape as
                        // an unfinished apply: fail-stop, recovery redoes.
                        co.self_fence("self-fence-flush", self.txn_id);
                        return Err(TxnError::Crashed);
                    }
                    Err(e) => return Err(TxnError::from_rdma(e)),
                },
                // Post-ack cleanup never changes the commit result. An
                // unreleasable lock self-fences; an untruncatable lane
                // is tolerated — the committed entry classifies as
                // fully applied during recovery and rolls forward as a
                // no-op.
                ItemKind::Unlock => {
                    let word = addr + SlotLayout::LOCK_OFF;
                    if it.posted && co.ctx.config.pill_active() {
                        // The posted WRITE may have landed, and the word
                        // names its owner: release it only if still ours.
                        co.rerelease_lock_or_fence(node, word, self.lock, self.txn_id);
                    } else {
                        co.release_lock_or_fence(node, word, self.lock, self.txn_id);
                    }
                    if co.injector.is_crashed() {
                        return Ok(());
                    }
                }
                ItemKind::Truncate => {
                    let _ = co.retry_release(|| co.qp(node).write_u64(addr, 0));
                }
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Execute-time logging (blocking; called from the execute ladder)
    // -----------------------------------------------------------------

    /// Write the undo log *now*, from the execute phase — the
    /// lost-decision and logging-without-locking bug reproductions
    /// (paper §3.1.3, §5.1). Returns raw errors.
    pub fn log_early(&mut self, co: &Coordinator) -> Result<(), TxnError> {
        if self.write_set.is_empty() {
            return Ok(());
        }
        self.stage_log(co);
        self.run_items(co)
    }

    /// Traditional scheme: write the lock-intent list (all staged locks,
    /// including the one about to be taken) to the f+1 log servers —
    /// "an additional logging round trip for each lock" (paper §6.2.1).
    /// Intents are never flushed (they are advisory even under NVM) and
    /// never truncated.
    pub fn log_intents(&mut self, co: &Coordinator) -> Result<(), TxnError> {
        let mut buf = Vec::with_capacity(8 + self.write_set.len() * 24);
        buf.extend_from_slice(&(self.write_set.len() as u64).to_le_bytes());
        for w in &self.write_set {
            buf.extend_from_slice(&(w.table.0 as u64).to_le_bytes());
            buf.extend_from_slice(&w.slot.bucket.to_le_bytes());
            buf.extend_from_slice(&(w.slot.slot as u64).to_le_bytes());
        }
        let dead = co.ctx.dead_set();
        self.items.clear();
        self.log_bufs.clear();
        self.log_bufs.push(buf);
        for node in co.map().log_servers(co.coord_id) {
            if !dead.contains(node) {
                let addr = co.map().intent_region(node, co.coord_id).base;
                self.items.push(Item::new(node, addr, ItemKind::Log { buf: 0, flush: false }));
            }
        }
        self.run_items(co)
    }

    fn run_items(&mut self, co: &Coordinator) -> Result<(), TxnError> {
        self.post_items(co);
        self.wait(co);
        self.settle_items(co)
    }

    // -----------------------------------------------------------------
    // Failure and abort
    // -----------------------------------------------------------------

    /// Shape a raw pipeline (or execute-phase) error and run the
    /// cleanup it calls for. Before the apply phase a live coordinator
    /// aborts cleanly: an `Aborted` reason or an exhausted retry budget
    /// (still pre-commit-point) becomes an abort-ack, any other fabric
    /// error truncates and unlocks — both or neither — so the stale
    /// entry cannot be mistaken for an in-flight transaction by a later
    /// recovery. From the first apply write on, locks AND logs stay in
    /// place: some objects may be updated and some not, and only
    /// recovery can restore atomicity from the undo images.
    pub fn fail(&mut self, co: &mut Coordinator, e: TxnError) -> TxnError {
        if self.apply_started {
            return e;
        }
        match e {
            TxnError::Aborted(reason) => self.abort(co, reason),
            TxnError::Crashed => TxnError::Crashed,
            TxnError::Rdma(RdmaError::Timeout { .. }) => {
                self.abort(co, AbortReason::NetworkTimeout)
            }
            TxnError::Rdma(e) => {
                if self.truncate_logs(co) {
                    self.release_held(co);
                }
                TxnError::Rdma(e)
            }
        }
    }

    /// The abort path: log the decision by truncating the undo entry
    /// (Pandora §3.1.5), release the locks actually held
    /// (complicit-aborts fix, §5.1), ack. If the entry cannot be erased
    /// the locks stay, and recovery resolves the logged transaction
    /// atomically.
    pub fn abort(&mut self, co: &mut Coordinator, reason: AbortReason) -> TxnError {
        let bugs = co.ctx.config.bugs;
        // The lost-decision / logging-without-locking bugs leave the log
        // behind — that is precisely what makes them bugs.
        let leave_log = bugs.lost_decision || bugs.logging_without_locking;
        if bugs.complicit_abort {
            // Complicit-aborts bug: blindly release *every* write-set
            // lock, acquired or not — beside the ones actually held.
            for w in &self.write_set {
                if !self.held.contains(&w.slot) {
                    self.held.push(w.slot);
                }
            }
        }
        if leave_log || self.truncate_logs(co) {
            self.release_held(co);
        }
        if co.injector.is_crashed() {
            self.trace(TxnEvent::Crashed);
            return TxnError::Crashed;
        }
        co.stats.aborted += 1;
        co.note_abort(reason);
        self.trace(TxnEvent::Aborted { reason: reason.name() });
        if let Some(p) = &co.probe {
            p.abort();
        }
        TxnError::Aborted(reason)
    }

    /// Truncate this transaction's undo entry on every logged node.
    /// Returns `false` if a copy on a *live* node could not be
    /// truncated: releasing the write locks with a live entry left
    /// behind would let later transactions commit into slots that a
    /// re-executed recovery might then roll back, so the caller must
    /// keep the locks (a transient failure has already fenced us).
    fn truncate_logs(&mut self, co: &Coordinator) -> bool {
        let off = log_lane_offset(self.lane);
        let mut safe = true;
        let mut fence = false;
        for node in std::mem::take(&mut self.logged_nodes) {
            let addr = co.map().log_region(node, co.coord_id).base + off;
            match co.retry_release(|| co.qp(node).write_u64(addr, 0)) {
                Ok(_) => {}
                // A dead node's log copy is invisible to recovery too.
                Err(RdmaError::NodeDead) => {}
                Err(RdmaError::Timeout { .. }) => {
                    safe = false;
                    fence = true;
                }
                // Crashed / revoked: recovery owns this txn's state.
                Err(_) => safe = false,
            }
        }
        if fence {
            co.self_fence("self-fence-truncate", self.txn_id);
        }
        safe
    }

    /// Release every held lock (live primaries only; a dead node's lock
    /// word died with it).
    fn release_held(&mut self, co: &Coordinator) {
        for sref in std::mem::take(&mut self.held) {
            if let Ok(primary) = co.primary_of(sref.table, sref.bucket) {
                let addr = co.lock_addr(primary, sref);
                co.release_lock_or_fence(primary, addr, self.lock, self.txn_id);
            }
        }
    }
}

/// The key and version words an apply writes beside the value.
fn apply_words(w: &WriteEntry) -> ([u8; 8], [u8; 8]) {
    (dkvs::layout::stored_key(w.key).to_le_bytes(), w.new_version.raw().to_le_bytes())
}

/// The WRITEs that install `w` in the slot at `base`, in issue order:
/// the key word (inserts only — a backup has never seen the key), the
/// value (not for deletes), the version. Value before version, always:
/// same-lane RC ordering keeps a concurrent reader from validating a
/// torn value (DESIGN §4). Posted and blocking issue both consume this
/// one list.
fn apply_writes<'a>(
    w: &'a WriteEntry,
    base: u64,
    (key, version): &'a ([u8; 8], [u8; 8]),
) -> ([(u64, &'a [u8]); 3], usize) {
    let mut list: [(u64, &[u8]); 3] = [(0, &[]); 3];
    let mut n = 0;
    let mut push = |addr: u64, bytes: &'a [u8]| {
        list[n] = (addr, bytes);
        n += 1;
    };
    if w.kind == WriteKind::Insert {
        push(base + SlotLayout::KEY_OFF, key);
    }
    if w.kind != WriteKind::Delete {
        push(base + SlotLayout::VALUE_OFF, &w.new_value);
    }
    push(base + SlotLayout::VERSION_OFF, version);
    (list, n)
}
