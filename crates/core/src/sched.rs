//! # Interleaved multi-transaction coordinator scheduler
//!
//! One logical coordinator, up to `inflight_txns` independent commits in
//! flight at once. A [`crate::txn::Txn`] runs one transaction to
//! completion — every phase barrier stalls the whole coordinator for a
//! fabric round trip even though the verbs of *different* transactions
//! are completely independent. This module overlaps those stalls: each
//! in-flight transaction is a [`SlotTxn`] — a declared operation list
//! whose execute phase posts up front, plus the same `Commit`
//! pipeline a `Txn` drives (validate → log → apply → flush → unlock) —
//! and a single event loop polls every slot's posted verbs and settles
//! whichever slot's phase has ripened. With K slots and
//! round-trip-dominated phases the coordinator commits up to K
//! transactions per phase-barrier latency instead of one.
//!
//! Isolation between sibling slots is the ordinary protocol: every slot
//! locks with its own per-transaction [`dkvs::LockWord`] (see
//! [`Coordinator::lock_for`]), so two slots writing one object conflict
//! exactly like two independent coordinators would — the loser aborts
//! with `LockConflict` and [`Coordinator::run_interleaved_retrying`]
//! resubmits it. Undo logging is slot-isolated by the log-lane split of
//! [`dkvs::log`]: slot *i* writes its entry at lane *i* of the
//! coordinator's log region, so recovery can enumerate and resolve every
//! in-flight transaction of a dead coordinator independently (see
//! `recovery.rs`). A transaction whose entry does not fit one lane
//! cannot run interleaved; the scheduler drains and runs it solo as a
//! `Txn` with the full region.
//!
//! ## Correctness notes
//!
//! * Posted verbs' **effects execute eagerly** at post time (see
//!   `rdma-sim`): a posted lock CAS may have acquired its lock before
//!   the slot ever processes the completion. [`resolve_posted_locks`]
//!   therefore sweeps *every* posted CAS outcome into a definite
//!   [`LockState`] before any abort decision, and the pipeline's `held`
//!   list — not the write-set — is what the abort path releases.
//! * Verbs that rely on RC ordering among themselves share a stripe
//!   route (the slot base for object verbs, the lane base for log
//!   verbs).
//! * A committed slot *truncates its own log lane* while it unlocks —
//!   lanes are a shared 8-entry budget (the pipeline's `shared_lanes`
//!   setting; a `Txn` owns lane 0 alone and never truncates on commit).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dkvs::{
    entry_encoded_size, LockWord, SlotLayout, SlotRef, TableId, LOG_LANE_BYTES, TXN_LOG_LANES,
};
use rdma_sim::{NodeId, RdmaError, RdmaResult, TimeoutApplied};

use crate::commit::{Commit, Pend, Phase};
use crate::coordinator::{parse_full_slot, Coordinator, FullSlot};
use crate::obs::TxnPhase;
use crate::trace::TxnEvent;
use crate::txn::{pad8, AbortReason, ReadEntry, TxnError, WriteEntry, WriteKind};

/// A read-modify-write closure: old value in, new value out (the new
/// value must match the table's `value_len`).
pub type UpdateFn = Box<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// One operation of a scheduled transaction. The scheduler executes a
/// *declared* operation list (unlike the interactive [`crate::txn::Txn`] API):
/// declaration is what lets it post the execution phase's verbs up
/// front and interleave with sibling transactions.
pub enum TxnOp {
    /// Transactional read; its result lands in [`TxnOutcome::reads`].
    Read { table: TableId, key: u64 },
    /// Blind write of an existing key.
    Write { table: TableId, key: u64, value: Vec<u8> },
    /// Read-modify-write of an existing key (aborts `NotFound` when the
    /// key is absent).
    Update { table: TableId, key: u64, f: UpdateFn },
}

impl std::fmt::Debug for TxnOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnOp::Read { table, key } => write!(f, "Read({table:?}, {key})"),
            TxnOp::Write { table, key, value } => {
                write!(f, "Write({table:?}, {key}, {}B)", value.len())
            }
            TxnOp::Update { table, key, .. } => write!(f, "Update({table:?}, {key}, <fn>)"),
        }
    }
}

impl TxnOp {
    /// The `(table, key)` a write-class op targets (`None` for reads).
    fn write_target(&self) -> Option<(TableId, u64)> {
        match self {
            TxnOp::Write { table, key, .. } | TxnOp::Update { table, key, .. } => {
                Some((*table, *key))
            }
            TxnOp::Read { .. } => None,
        }
    }

    fn target(&self) -> (TableId, u64) {
        match self {
            TxnOp::Read { table, key }
            | TxnOp::Write { table, key, .. }
            | TxnOp::Update { table, key, .. } => (*table, *key),
        }
    }
}

/// One transaction request for [`Coordinator::run_interleaved`].
#[derive(Debug, Default)]
pub struct TxnRequest {
    pub ops: Vec<TxnOp>,
}

impl TxnRequest {
    pub fn new() -> TxnRequest {
        TxnRequest { ops: Vec::new() }
    }

    pub fn read(mut self, table: TableId, key: u64) -> TxnRequest {
        self.ops.push(TxnOp::Read { table, key });
        self
    }

    pub fn write(mut self, table: TableId, key: u64, value: Vec<u8>) -> TxnRequest {
        self.ops.push(TxnOp::Write { table, key, value });
        self
    }

    pub fn update(
        mut self,
        table: TableId,
        key: u64,
        f: impl Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
    ) -> TxnRequest {
        self.ops.push(TxnOp::Update { table, key, f: Box::new(f) });
        self
    }
}

/// Result of one committed request: the values of its `Read` ops, in
/// op order (`None` = key absent).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnOutcome {
    pub reads: Vec<Option<Vec<u8>>>,
}

/// Interleaved-scheduler gauges, shared across coordinators (attach via
/// [`Coordinator::with_sched_stats`]; exported by `obs.rs`).
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Transactions currently admitted to a slot (gauge).
    pub in_flight: AtomicU64,
    /// High-water mark of `in_flight`.
    pub high_water: AtomicU64,
    /// Total admissions (a retried transaction admits again).
    pub admitted: AtomicU64,
    pub committed: AtomicU64,
    pub aborted: AtomicU64,
}

/// Point-in-time copy of [`SchedStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedSnapshot {
    pub in_flight: u64,
    pub high_water: u64,
    pub admitted: u64,
    pub committed: u64,
    pub aborted: u64,
}

impl SchedStats {
    pub fn new() -> Arc<SchedStats> {
        Arc::new(SchedStats::default())
    }

    fn note_admit(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    fn note_finish(&self, result: &Result<TxnOutcome, TxnError>) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        match result {
            Ok(_) => {
                self.committed.fetch_add(1, Ordering::Relaxed);
            }
            Err(TxnError::Aborted(_)) => {
                self.aborted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
    }

    pub fn snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            in_flight: self.in_flight.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Slot internals
// ---------------------------------------------------------------------

/// Outcome of a posted lock CAS after [`resolve_posted_locks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockState {
    Unresolved,
    /// We own the word; `held` tracks it for abort release.
    Held,
    /// Somebody else's word (the CAS-observed value).
    Conflict(u64),
    /// The CAS definitely did not execute; take the blocking path.
    Fresh,
}

/// Per-op posting plan built at admission.
enum OpPlan {
    /// Served locally or through the blocking verbs at process time.
    Blocking,
    /// A full-slot READ was posted for this read op.
    ReadPosted { sref: SlotRef, res: Option<RdmaResult<u64>>, data: Option<Vec<u8>> },
    /// A lock CAS (+ fused under-lock READ) was posted for this write op.
    WritePosted {
        sref: SlotRef,
        node: NodeId,
        cas: Option<RdmaResult<u64>>,
        img: Option<Vec<u8>>,
        lock: LockState,
    },
    /// Consumed by processing.
    Done,
}

/// What a posted execute-phase verb's completion belongs to.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// Lock CAS of its op.
    Cas,
    /// Fused under-lock READ of its op.
    Img,
    /// Full-slot READ of its (read) op.
    Read,
}

/// One in-flight interleaved transaction. The slot index doubles as the
/// log-lane index, so at most [`TXN_LOG_LANES`] slots exist.
struct SlotTxn {
    /// Index into the request batch.
    req: usize,
    /// Read/write sets, held locks and the commit pipeline; its lock
    /// word is this transaction's own (per-seq, see
    /// [`Coordinator::lock_for`]), its log lane the slot index.
    c: Commit,
    t0: Instant,
    plan: Vec<OpPlan>,
    /// Posted execute-phase verbs (`Pend::item` is the op index).
    exec_pending: Vec<(Pend, Role)>,
    reads_out: Vec<Option<Vec<u8>>>,
    /// Set at the commit-ack point or by the first error.
    result: Option<Result<TxnOutcome, TxnError>>,
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

impl Coordinator {
    /// Run a batch of requests through the interleaved scheduler,
    /// keeping up to `inflight_txns` of them in flight at once.
    /// Admission is FIFO. Each request resolves independently:
    /// `Err(Aborted)` entries are clean per-transaction aborts (locks
    /// released, log lane truncated) and safe to resubmit.
    ///
    /// When the configuration does not support interleaving (see
    /// [`Coordinator::sched_supported`]) every request runs through the
    /// blocking [`crate::txn::Txn`] driver, one at a time — same results, no
    /// overlap.
    pub fn run_interleaved(&mut self, reqs: &[TxnRequest]) -> Vec<Result<TxnOutcome, TxnError>> {
        let mut results: Vec<Option<Result<TxnOutcome, TxnError>>> =
            (0..reqs.len()).map(|_| None).collect();
        if self.sched_supported() {
            let idxs: Vec<usize> = (0..reqs.len()).collect();
            self.run_indexed(reqs, &idxs, &mut results);
        } else {
            for (i, req) in reqs.iter().enumerate() {
                results[i] = Some(self.run_classic(req));
            }
        }
        results.into_iter().map(|r| r.expect("every request resolved")).collect()
    }

    /// [`Coordinator::run_interleaved`] with abort-retry: aborted
    /// requests are resubmitted (in their original order) until every
    /// request commits or a non-abort error surfaces. Returns the
    /// outcomes plus the number of aborts endured — the interleaved
    /// analogue of [`Coordinator::run`].
    pub fn run_interleaved_retrying(
        &mut self,
        reqs: &[TxnRequest],
    ) -> Result<(Vec<TxnOutcome>, u64), TxnError> {
        let mut results: Vec<Option<Result<TxnOutcome, TxnError>>> =
            (0..reqs.len()).map(|_| None).collect();
        let mut aborts = 0u64;
        let mut todo: Vec<usize> = (0..reqs.len()).collect();
        let supported = self.sched_supported();
        while !todo.is_empty() {
            if supported {
                self.run_indexed(reqs, &todo, &mut results);
            } else {
                for &i in &todo {
                    results[i] = Some(self.run_classic(&reqs[i]));
                }
            }
            let mut next = Vec::new();
            for &i in &todo {
                match results[i].as_ref().expect("request resolved") {
                    Err(TxnError::Aborted(_)) => {
                        aborts += 1;
                        results[i] = None;
                        next.push(i);
                    }
                    Err(e) => return Err(e.clone()),
                    Ok(_) => {}
                }
            }
            todo = next;
        }
        let outcomes = results
            .into_iter()
            .map(|r| match r {
                Some(Ok(v)) => v,
                _ => unreachable!("loop exits only when every request committed"),
            })
            .collect();
        Ok((outcomes, aborts))
    }

    /// Can the interleaved scheduler run under the current
    /// configuration? Requires the Pandora protocol (per-coordinator
    /// log regions give the lanes), PILL lock words (slots need
    /// per-transaction lock identity), the posted-verb path, and none
    /// of the bug reproductions or the stall-on-conflict study mode
    /// (their machinery hooks the classic engine's sequential
    /// interleavings).
    pub fn sched_supported(&self) -> bool {
        let c = &self.ctx.config;
        c.interleaving_on()
            && c.protocol == crate::config::ProtocolKind::Pandora
            && c.pill_active()
            && c.pipelining_on()
            && !c.bugs.any()
            && !c.stall_on_conflict
    }

    /// Run one request as a [`crate::txn::Txn`] (the fallback for
    /// unsupported configurations and oversized transactions).
    fn run_classic(&mut self, req: &TxnRequest) -> Result<TxnOutcome, TxnError> {
        let mut reads = Vec::new();
        let mut txn = self.begin();
        for op in &req.ops {
            match op {
                TxnOp::Read { table, key } => reads.push(txn.read(*table, *key)?),
                TxnOp::Write { table, key, value } => txn.write(*table, *key, value)?,
                TxnOp::Update { table, key, f } => {
                    let Some(cur) = txn.read(*table, *key)? else {
                        return Err(txn.abort_now(AbortReason::NotFound));
                    };
                    let new = f(&cur);
                    txn.write(*table, *key, &new)?;
                }
            }
        }
        txn.commit()?;
        Ok(TxnOutcome { reads })
    }

    /// The scheduler event loop over the requests named by `idxs`.
    fn run_indexed(
        &mut self,
        reqs: &[TxnRequest],
        idxs: &[usize],
        results: &mut [Option<Result<TxnOutcome, TxnError>>],
    ) {
        let max_slots = (self.ctx.config.inflight_txns.max(1) as usize)
            .min(TXN_LOG_LANES as usize)
            .max(1);
        let mut slots: Vec<Option<SlotTxn>> = Vec::new();
        slots.resize_with(max_slots, || None);
        let mut queue: VecDeque<usize> = idxs.iter().copied().collect();
        let mut crashed = false;
        self.ctx.pause.enter_txn(&self.gate);
        'event: loop {
            if self.injector.is_crashed() {
                crashed = true;
            }
            if crashed {
                break 'event;
            }
            // --- Admission (FIFO: only ever the queue head) ---
            if !self.ctx.pause.pause_requested() {
                while let Some(&idx) = queue.front() {
                    let Some(si) = slots.iter().position(Option::is_none) else { break };
                    if oversized(self, &reqs[idx].ops) {
                        // A transaction whose undo entry exceeds one log
                        // lane cannot run interleaved: drain the active
                        // slots, then run it solo as a `Txn` (full log
                        // region, single-lane recovery).
                        if slots.iter().any(Option::is_some) {
                            break;
                        }
                        queue.pop_front();
                        self.ctx.pause.exit_txn(&self.gate);
                        let r = self.run_classic(&reqs[idx]);
                        let solo_crashed = matches!(r, Err(TxnError::Crashed));
                        results[idx] = Some(r);
                        if solo_crashed {
                            crashed = true;
                            continue 'event;
                        }
                        self.ctx.pause.enter_txn(&self.gate);
                        continue;
                    }
                    queue.pop_front();
                    let slot = admit(self, idx, si, &reqs[idx].ops);
                    slots[si] = Some(slot);
                }
            } else if slots.iter().all(Option::is_none) && !queue.is_empty() {
                // A stop-the-world pause is pending and the pipeline is
                // drained: step out of the gate so the pause can run,
                // then re-enter (blocks through the pause) and resume.
                self.ctx.pause.exit_txn(&self.gate);
                self.ctx.pause.enter_txn(&self.gate);
                continue;
            }
            if slots.iter().all(Option::is_none) && queue.is_empty() {
                break;
            }
            // --- Poll completions and advance ripe slots ---
            let mut progressed = false;
            for slot in slots.iter_mut() {
                let Some(mut s) = slot.take() else { continue };
                // One clock read per slot visit serves every pending
                // verb of the slot: a reading gone stale while the slot
                // is processed leaves a completion for the next pass,
                // it never delivers one early.
                let now = Instant::now();
                let mut j = 0;
                while j < s.exec_pending.len() {
                    let (p, role) = s.exec_pending[j];
                    match p.try_take(self, now) {
                        Some(c) => {
                            record_execute(&mut s.plan[p.item], role, c);
                            s.exec_pending.swap_remove(j);
                            progressed = true;
                        }
                        None => j += 1,
                    }
                }
                progressed |= s.c.poll(self, now);
                if s.exec_pending.is_empty() && !s.c.in_flight() {
                    let ops = &reqs[s.req].ops;
                    advance(self, &mut s, ops);
                    progressed = true;
                }
                if matches!(s.result, Some(Err(TxnError::Crashed))) || self.injector.is_crashed() {
                    crashed = true;
                }
                if s.c.done() || matches!(s.result, Some(Err(_))) {
                    let result = s.result.take().expect("a finished slot has a result");
                    finish_slot(self, &s, &result);
                    results[s.req] = Some(result);
                } else {
                    *slot = Some(s);
                }
                if crashed {
                    break;
                }
            }
            if crashed {
                break;
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
        if crashed {
            // Power-cut semantics: no acks were delivered for anything
            // still in flight; locks, logs and partial applies stay in
            // place for recovery. A slot that already passed its
            // commit-ack point keeps its Ok result (as a `Txn` does for
            // post-ack crashes).
            for slot in slots.iter_mut() {
                if let Some(mut s) = slot.take() {
                    self.trace(TxnEvent::Crashed { txn_id: s.c.txn_id });
                    let result = s.result.take().unwrap_or(Err(TxnError::Crashed));
                    finish_slot(self, &s, &result);
                    results[s.req] = Some(result);
                }
            }
            while let Some(idx) = queue.pop_front() {
                results[idx] = Some(Err(TxnError::Crashed));
            }
            self.note_crashed();
        }
        self.ctx.pause.exit_txn(&self.gate);
    }
}

/// Per-slot finish bookkeeping: gauges and the whole-transaction flight
/// span on the slot's own track.
fn finish_slot(co: &Coordinator, s: &SlotTxn, result: &Result<TxnOutcome, TxnError>) {
    if let Some(st) = &co.sched {
        st.note_finish(result);
    }
    if let Some(f) = &s.c.flight {
        if f.enabled() {
            f.end_from_instant("txn", s.c.txn_id, s.t0, result.is_ok());
        }
    }
}

// ---------------------------------------------------------------------
// Admission & the execute phase's posted plan
// ---------------------------------------------------------------------

/// Does the request's undo entry exceed one log lane? (Checked before
/// admission; see `dkvs::log::entry_encoded_size`.)
fn oversized(co: &Coordinator, ops: &[TxnOp]) -> bool {
    // One undo record per distinct written key: count an op only if no
    // earlier op writes its key.
    let lens = ops.iter().enumerate().filter_map(|(i, op)| {
        let (table, key) = op.write_target()?;
        let repeat = ops[..i].iter().any(|o| o.write_target() == Some((table, key)));
        (!repeat).then(|| co.map().layout(table).value_padded())
    });
    entry_encoded_size(lens) > LOG_LANE_BYTES as usize
}

/// Admit a request into slot `si`: allocate its transaction identity
/// (seq, lock word, log lane, flight track) and post the execution
/// phase's verbs.
fn admit(co: &mut Coordinator, req: usize, si: usize, ops: &[TxnOp]) -> SlotTxn {
    co.txn_seq += 1;
    let seq = co.txn_seq;
    let txn_id = ((co.coord_id as u64) << 48) | seq;
    co.trace(TxnEvent::Begin { txn_id });
    if let Some(st) = &co.sched {
        st.note_admit();
    }
    // The recorder cached at connect: no context lock per admission.
    let flight = co.flight.as_ref().map(|f| f.recorder().slot_handle(co.coord_id, si as u16));
    let mut c = Commit::new(txn_id, si as u32, co.lock_for(seq), true, flight);
    c.start_timer(co);
    let mut s = SlotTxn {
        req,
        c,
        t0: Instant::now(),
        plan: Vec::with_capacity(ops.len()),
        exec_pending: Vec::new(),
        reads_out: Vec::new(),
        result: None,
    };
    post_execute(co, &mut s, ops);
    s
}

/// Post the execution phase: for every address-cached op, the verbs
/// that a `Txn` would block on — a full-slot READ per read
/// op, a lock CAS fused with an under-lock READ per (first) write op —
/// post up front on the stripe lane the slot base routes to. Ops that
/// miss the cache, repeat a key, or exceed the per-lane pipeline depth
/// stay `Blocking` and run through the blocking ladders at
/// process time.
fn post_execute(co: &mut Coordinator, s: &mut SlotTxn, ops: &[TxnOp]) {
    let depth = co.post_window();
    for (i, op) in ops.iter().enumerate() {
        let (table, key) = op.target();
        let touched_earlier = ops[..i].iter().any(|o| o.target() == (table, key));
        let plan = if key == u64::MAX || touched_earlier {
            OpPlan::Blocking
        } else {
            match (op, co.addr_cache.get(&(table, key)).copied()) {
                (TxnOp::Read { .. }, Some(sref)) => post_read_op(co, s, i, sref, depth),
                (TxnOp::Write { .. } | TxnOp::Update { .. }, Some(sref)) => {
                    post_write_op(co, s, i, sref, depth)
                }
                _ => OpPlan::Blocking,
            }
        };
        s.plan.push(plan);
    }
}

fn post_read_op(
    co: &Coordinator,
    s: &mut SlotTxn,
    i: usize,
    sref: SlotRef,
    depth: usize,
) -> OpPlan {
    let Ok(node) = co.primary_of(sref.table, sref.bucket) else { return OpPlan::Blocking };
    let base = co.map().slot_addr(node, sref.table, sref.bucket, sref.slot);
    let stripe = co.stripe(node);
    let lane = stripe.lane_for(base);
    let qp = stripe.lane(lane);
    if qp.in_flight() >= depth {
        return OpPlan::Blocking;
    }
    let len = co.map().layout(sref.table).slot_bytes() as usize;
    match qp.post_read(base, len) {
        Ok(id) => {
            s.exec_pending.push((Pend { node, lane, id, item: i }, Role::Read));
            OpPlan::ReadPosted { sref, res: None, data: None }
        }
        Err(_) => OpPlan::Blocking,
    }
}

fn post_write_op(
    co: &Coordinator,
    s: &mut SlotTxn,
    i: usize,
    sref: SlotRef,
    depth: usize,
) -> OpPlan {
    let Ok(node) = co.primary_of(sref.table, sref.bucket) else { return OpPlan::Blocking };
    let base = co.map().slot_addr(node, sref.table, sref.bucket, sref.slot);
    let stripe = co.stripe(node);
    let lane = stripe.lane_for(base);
    let qp = stripe.lane(lane);
    if qp.in_flight() >= depth {
        return OpPlan::Blocking;
    }
    match qp.post_cas(base + SlotLayout::LOCK_OFF, 0, s.c.lock.raw()) {
        Ok(cas_id) => {
            s.exec_pending.push((Pend { node, lane, id: cas_id, item: i }, Role::Cas));
            // Fused under-lock READ riding the CAS's RC order (the
            // `Txn::try_lock_read` image); losing it is harmless —
            // staging falls back to a blocking re-read.
            let len = co.map().layout(sref.table).slot_bytes() as usize;
            if let Ok(rid) = qp.post_read(base, len) {
                s.exec_pending.push((Pend { node, lane, id: rid, item: i }, Role::Img));
            }
            OpPlan::WritePosted { sref, node, cas: None, img: None, lock: LockState::Unresolved }
        }
        Err(_) => OpPlan::Blocking,
    }
}

/// Route a harvested execute-phase completion into its op's plan.
fn record_execute(plan: &mut OpPlan, role: Role, c: rdma_sim::Completion) {
    match (role, plan) {
        (Role::Cas, OpPlan::WritePosted { cas, .. }) => *cas = Some(c.result),
        (Role::Img, OpPlan::WritePosted { img, .. }) if c.result.is_ok() => *img = c.data,
        (Role::Read, OpPlan::ReadPosted { res, data, .. }) => {
            *res = Some(c.result);
            *data = c.data;
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Driving a slot
// ---------------------------------------------------------------------

/// Called with nothing in flight: resolve the phase whose completions
/// are in — the declared execute phase, or a pipeline phase — and post
/// the next one. The first error — already shaped, its cleanup run —
/// becomes the slot's result.
fn advance(co: &mut Coordinator, s: &mut SlotTxn, ops: &[TxnOp]) {
    let step: Result<(), TxnError> = (|| {
        if s.c.phase() == Phase::Execute {
            process_execute(co, s, ops).map_err(|e| s.c.fail(co, e))?;
            s.c.end_phase(co, TxnPhase::Execute);
            s.c.begin();
        } else {
            s.c.settle(co)?;
            if s.c.acked() && s.result.is_none() {
                s.result = Some(Ok(TxnOutcome { reads: std::mem::take(&mut s.reads_out) }));
            }
        }
        if s.c.done() {
            return Ok(());
        }
        s.c.post(co)
    })();
    if let Err(e) = step {
        s.result = Some(Err(e));
    }
}

/// Release one held lock mid-execution (stale-cache path) and drop it
/// from `held`.
fn release_held(co: &mut Coordinator, s: &mut SlotTxn, sref: SlotRef) {
    if let Some(p) = s.c.held.iter().position(|&h| h == sref) {
        s.c.held.swap_remove(p);
    }
    if let Ok(primary) = co.primary_of(sref.table, sref.bucket) {
        co.release_lock_or_fence(primary, co.lock_addr(primary, sref));
    }
}

// ---------------------------------------------------------------------
// Execute phase processing
// ---------------------------------------------------------------------

/// Resolve every posted lock CAS into a definite [`LockState`] *before*
/// any abort decision can be made: posted effects execute eagerly, so a
/// CAS may have locked remote state even though this slot is about to
/// abort — every such lock must land in `held` or it leaks a
/// live-owned lock no recovery will ever steal.
fn resolve_posted_locks(co: &mut Coordinator, s: &mut SlotTxn) -> Result<(), TxnError> {
    let mut first_err: Option<TxnError> = None;
    for i in 0..s.plan.len() {
        let (sref, node, cas) = match &mut s.plan[i] {
            OpPlan::WritePosted { sref, node, cas, .. } => (*sref, *node, cas.take()),
            _ => continue,
        };
        let mut keep_img = false;
        let state = match cas {
            Some(Ok(0)) => {
                keep_img = true;
                LockState::Held
            }
            Some(Ok(prev)) => LockState::Conflict(prev),
            Some(Err(RdmaError::Timeout { applied: TimeoutApplied::Ambiguous }))
                if first_err.is_none() =>
            {
                // PILL lock words are unique per incarnation and
                // transaction: re-read the word to disambiguate.
                let addr = co.lock_addr(node, sref);
                match co.retry_verb(|| co.qp(node).read_u64(addr)) {
                    Ok(cur) if cur == s.c.lock.raw() => {
                        co.ctx.resilience.ambiguous_resolved.fetch_add(1, Ordering::Relaxed);
                        LockState::Held
                    }
                    Ok(0) => LockState::Fresh,
                    Ok(cur) => {
                        co.ctx.resilience.ambiguous_resolved.fetch_add(1, Ordering::Relaxed);
                        LockState::Conflict(cur)
                    }
                    Err(e) => {
                        first_err = Some(TxnError::from_rdma(e));
                        LockState::Fresh
                    }
                }
            }
            Some(Err(RdmaError::Crashed)) => {
                first_err = Some(TxnError::Crashed);
                LockState::Fresh
            }
            // NotApplied (or an unresolved ambiguity behind an earlier
            // error): the CAS did not take the lock; blocking path.
            Some(Err(RdmaError::Timeout { .. })) | None => LockState::Fresh,
            Some(Err(e)) => {
                first_err = Some(TxnError::Rdma(e));
                LockState::Fresh
            }
        };
        if let OpPlan::WritePosted { img, lock, .. } = &mut s.plan[i] {
            if !keep_img {
                *img = None;
            }
            *lock = state;
        }
        if state == LockState::Held {
            s.c.held.push(sref);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn process_execute(co: &mut Coordinator, s: &mut SlotTxn, ops: &[TxnOp]) -> Result<(), TxnError> {
    resolve_posted_locks(co, s)?;
    if co.ctx.pause.pause_requested() {
        return Err(TxnError::Aborted(AbortReason::Paused));
    }
    for i in 0..ops.len() {
        let plan = std::mem::replace(&mut s.plan[i], OpPlan::Done);
        match &ops[i] {
            TxnOp::Read { table, key } => {
                let posted = match plan {
                    OpPlan::ReadPosted { sref, res, data } => Some((sref, res, data)),
                    _ => None,
                };
                let v = slot_read(co, s, *table, *key, posted)?;
                s.reads_out.push(v);
            }
            TxnOp::Write { .. } | TxnOp::Update { .. } => {
                slot_write_op(co, s, i, plan, ops)?;
            }
        }
    }
    Ok(())
}

/// A harvested posted-read: the slot it covered, the verb result, and
/// the returned bytes (if the verb delivered any).
type PostedRead = (SlotRef, Option<RdmaResult<u64>>, Option<Vec<u8>>);

/// Transactional read (scheduler twin of `Txn::read_impl` +
/// `finish_read`). Returns raw errors; the caller shapes them.
fn slot_read(
    co: &mut Coordinator,
    s: &mut SlotTxn,
    table: TableId,
    key: u64,
    posted: Option<PostedRead>,
) -> Result<Option<Vec<u8>>, TxnError> {
    if key == u64::MAX {
        return Ok(None);
    }
    if let Some(w) = s.c.write_set.iter().find(|w| w.table == table && w.key == key) {
        let layout = co.map().layout(table);
        return Ok(match w.kind {
            WriteKind::Delete => None,
            _ => Some(w.new_value[..layout.value_len].to_vec()),
        });
    }
    if let Some(r) = s.c.read_set.iter().find(|r| r.table == table && r.key == key) {
        return Ok(Some(r.value.clone()));
    }
    if let Some((sref, res, data)) = posted {
        if matches!(res, Some(Ok(_))) {
            if let Some(buf) = data {
                let layout = co.map().layout(table);
                let full = parse_full_slot(layout, &buf);
                if full.key == dkvs::layout::stored_key(key) {
                    return slot_finish_read(co, s, table, key, sref, full);
                }
                // The cached slot no longer holds the key: stale
                // mapping, take the resolve path.
                co.addr_cache.remove(&(table, key));
            }
        }
    }
    let Some((sref, full)) = slot_resolve(co, table, key)? else {
        return Ok(None);
    };
    slot_finish_read(co, s, table, key, sref, full)
}

/// Wait out live locks on a read target, then record the read-set
/// entry. A lock word equal to this slot's own (a later write op's
/// eagerly-executed posted CAS on the same object) reads as unlocked —
/// the value bytes are still the pre-image until apply.
fn slot_finish_read(
    co: &mut Coordinator,
    s: &mut SlotTxn,
    table: TableId,
    key: u64,
    sref: SlotRef,
    mut full: FullSlot,
) -> Result<Option<Vec<u8>>, TxnError> {
    let mut tries = 0u32;
    loop {
        let lock = full.image.lock;
        if !lock.is_locked() || co.lock_is_stray(lock) || lock == s.c.lock {
            break;
        }
        tries += 1;
        // A live lock of this very coordinator is a sibling slot's, and
        // the sibling cannot advance while this thread re-reads: waiting
        // it out always ends in `LockConflict`, with every slot stalled
        // for the whole retry budget. Abort at once.
        if lock.owner() == co.coord_id || tries > co.ctx.config.read_lock_retries {
            return Err(TxnError::Aborted(AbortReason::LockConflict));
        }
        if co.ctx.pause.pause_requested() {
            return Err(TxnError::Aborted(AbortReason::Paused));
        }
        std::thread::yield_now();
        let primary = co.primary_of(table, sref.bucket)?;
        full = co.read_full_slot(primary, sref)?;
        if full.key != dkvs::layout::stored_key(key) {
            co.addr_cache.remove(&(table, key));
            return Ok(None);
        }
    }
    if !full.image.version.is_present() {
        return Ok(None);
    }
    let layout = co.map().layout(table);
    let value = full.image.value[..layout.value_len].to_vec();
    s.c.read_set.push(ReadEntry {
        table,
        key,
        slot: sref,
        version: full.image.version,
        value: value.clone(),
    });
    Ok(Some(value))
}

/// Scheduler twin of `Txn::resolve`: address-cache fast path or bucket
/// READs along the bounded probe sequence.
fn slot_resolve(
    co: &mut Coordinator,
    table: TableId,
    key: u64,
) -> Result<Option<(SlotRef, FullSlot)>, TxnError> {
    if let Some(&sref) = co.addr_cache.get(&(table, key)) {
        let primary = co.primary_of(table, sref.bucket)?;
        let full = co.read_full_slot(primary, sref)?;
        if full.key == dkvs::layout::stored_key(key) {
            return Ok(Some((sref, full)));
        }
        co.addr_cache.remove(&(table, key));
    }
    let (buckets, home) = {
        let def = co.map().table(table);
        (def.buckets, def.bucket_for(key))
    };
    let mut first_match: Option<(SlotRef, FullSlot)> = None;
    'probe: for p in 0..dkvs::table::PROBE_LIMIT.min(buckets) {
        let bucket = (home + p) % buckets;
        let primary = co.primary_of(table, bucket)?;
        let slots = co.read_bucket(primary, table, bucket)?;
        let mut saw_empty = false;
        for (i, full) in slots.into_iter().enumerate() {
            if full.key == dkvs::layout::EMPTY_KEY {
                saw_empty = true;
                continue;
            }
            if full.key == dkvs::layout::stored_key(key) {
                let sref = SlotRef { table, bucket, slot: i as u32 };
                if full.image.version.raw() != 0 {
                    co.addr_cache.insert((table, key), sref);
                    return Ok(Some((sref, full)));
                }
                if first_match.is_none() {
                    first_match = Some((sref, full));
                }
            }
        }
        if saw_empty {
            break 'probe;
        }
    }
    if let Some((sref, full)) = first_match {
        co.addr_cache.insert((table, key), sref);
        return Ok(Some((sref, full)));
    }
    Ok(None)
}

/// Stage a write-class op (scheduler twin of `Txn::write_impl` for the
/// `Update` write kind — the scheduler supports writes and updates of
/// existing keys; inserts and deletes need a `Txn`).
fn slot_write_op(
    co: &mut Coordinator,
    s: &mut SlotTxn,
    i: usize,
    plan: OpPlan,
    ops: &[TxnOp],
) -> Result<(), TxnError> {
    let (table, key) = ops[i].target();
    // Repeat write of a staged key mutates the staged post-image.
    if s.c.write_set.iter().any(|w| w.table == table && w.key == key) {
        let layout = co.map().layout(table);
        let new_value = match &ops[i] {
            TxnOp::Write { value, .. } => co.pad_value(table, value),
            TxnOp::Update { f, .. } => {
                let w =
                    s.c.write_set
                        .iter()
                        .find(|w| w.table == table && w.key == key)
                        .expect("checked above");
                co.pad_value(table, &f(&w.new_value[..layout.value_len]))
            }
            TxnOp::Read { .. } => unreachable!("write staging of a read op"),
        };
        let w =
            s.c.write_set
                .iter_mut()
                .find(|w| w.table == table && w.key == key)
                .expect("checked above");
        w.new_value = new_value;
        return Ok(());
    }
    if key == u64::MAX {
        return Err(TxnError::Aborted(AbortReason::InvalidKey));
    }
    match plan {
        OpPlan::WritePosted { sref, node: _, cas: _, img, lock } => match lock {
            LockState::Held => {
                co.trace(TxnEvent::Lock { table, key, stolen: false });
                slot_stage_under_lock(co, s, i, table, key, sref, img, ops)
            }
            LockState::Conflict(prev) => {
                if slot_lock_after_conflict(co, s, sref, key, prev)? {
                    s.c.held.push(sref);
                    slot_stage_under_lock(co, s, i, table, key, sref, None, ops)
                } else {
                    Err(TxnError::Aborted(AbortReason::LockConflict))
                }
            }
            LockState::Fresh => slot_stage_blocking(co, s, i, table, key, ops),
            LockState::Unresolved => unreachable!("resolve_posted_locks ran first"),
        },
        _ => slot_stage_blocking(co, s, i, table, key, ops),
    }
}

/// Stage a write whose lock is already held: authenticate the slot from
/// the under-lock image (the fused READ, or a blocking re-read), then
/// finish the entry. Mirrors `Txn::stage_locked_write_cached` past its
/// lock step.
#[allow(clippy::too_many_arguments)]
fn slot_stage_under_lock(
    co: &mut Coordinator,
    s: &mut SlotTxn,
    i: usize,
    table: TableId,
    key: u64,
    sref: SlotRef,
    img: Option<Vec<u8>>,
    ops: &[TxnOp],
) -> Result<(), TxnError> {
    let layout = co.map().layout(table);
    let full = match img {
        Some(buf) => parse_full_slot(layout, &buf),
        None => {
            let primary = co.primary_of(table, sref.bucket)?;
            // On failure the lock stays in `held`; the abort path
            // releases it (or recovery does, after a crash).
            co.read_full_slot(primary, sref)?
        }
    };
    if full.key != dkvs::layout::stored_key(key) {
        // Stale cache entry: the slot belongs to someone else now.
        release_held(co, s, sref);
        if co.injector().is_crashed() {
            return Err(TxnError::Crashed);
        }
        co.addr_cache.remove(&(table, key));
        return slot_stage_blocking(co, s, i, table, key, ops);
    }
    slot_finish_entry(co, s, i, table, key, sref, full, ops)
}

/// Blocking write staging: resolve, lock, re-read under the lock,
/// finish (the `Txn::write_impl` slow path).
fn slot_stage_blocking(
    co: &mut Coordinator,
    s: &mut SlotTxn,
    i: usize,
    table: TableId,
    key: u64,
    ops: &[TxnOp],
) -> Result<(), TxnError> {
    let Some((sref, full)) = slot_resolve(co, table, key)? else {
        return Err(TxnError::Aborted(AbortReason::NotFound));
    };
    if !full.image.version.is_present() && !co.lock_is_stray(full.image.lock) {
        return Err(TxnError::Aborted(AbortReason::NotFound));
    }
    if !slot_try_lock(co, s, sref, key)? {
        return Err(TxnError::Aborted(AbortReason::LockConflict));
    }
    s.c.held.push(sref);
    let primary = co.primary_of(table, sref.bucket)?;
    let full = co.read_full_slot(primary, sref)?;
    if full.key != dkvs::layout::stored_key(key) {
        // Slot repurposed between resolve and lock; retryable.
        release_held(co, s, sref);
        if co.injector().is_crashed() {
            return Err(TxnError::Crashed);
        }
        return Err(TxnError::Aborted(AbortReason::LockConflict));
    }
    slot_finish_entry(co, s, i, table, key, sref, full, ops)
}

/// CAS-lock the primary of `sref` with this slot's lock word; steal
/// stray locks under PILL (twin of `Txn::try_lock`).
fn slot_try_lock(
    co: &mut Coordinator,
    s: &SlotTxn,
    sref: SlotRef,
    key: u64,
) -> Result<bool, TxnError> {
    let primary = co.primary_of(sref.table, sref.bucket)?;
    let addr = co.lock_addr(primary, sref);
    let prev = co
        .cas_resolved(primary, addr, 0, s.c.lock.raw(), true)
        .map_err(TxnError::from_rdma)?;
    if prev == 0 {
        co.trace(TxnEvent::Lock { table: sref.table, key, stolen: false });
        return Ok(true);
    }
    slot_lock_after_conflict(co, s, sref, key, prev)
}

/// Tail of both lock paths once a CAS observed `prev != 0`: steal a
/// stray lock or report the conflict (twin of `Txn::lock_after_conflict`;
/// a sibling slot's lock is a live conflict like any other
/// coordinator's).
fn slot_lock_after_conflict(
    co: &mut Coordinator,
    s: &SlotTxn,
    sref: SlotRef,
    key: u64,
    prev: u64,
) -> Result<bool, TxnError> {
    let primary = co.primary_of(sref.table, sref.bucket)?;
    let addr = co.lock_addr(primary, sref);
    let prev_lock = LockWord(prev);
    if co.lock_is_stray(prev_lock) && prev_lock != s.c.lock {
        let got = co
            .cas_resolved(primary, addr, prev, s.c.lock.raw(), true)
            .map_err(TxnError::from_rdma)?;
        if got == prev {
            co.stats.locks_stolen += 1;
            co.trace(TxnEvent::Lock { table: sref.table, key, stolen: true });
            return Ok(true);
        }
    }
    co.trace(TxnEvent::LockConflict { table: sref.table, key, owner: prev_lock.owner() });
    Ok(false)
}

/// Post-lock staging: entry liveness, read-set continuity, write-set
/// entry (twin of `Txn::finish_locked_entry` for `WriteKind::Update`;
/// on failure the lock stays in `held` for the abort path).
#[allow(clippy::too_many_arguments)]
fn slot_finish_entry(
    co: &mut Coordinator,
    s: &mut SlotTxn,
    i: usize,
    table: TableId,
    key: u64,
    sref: SlotRef,
    full: FullSlot,
    ops: &[TxnOp],
) -> Result<(), TxnError> {
    let entry_ok = full.image.version.is_present();
    let read_version_ok =
        s.c.read_set
            .iter()
            .find(|r| r.table == table && r.key == key)
            .is_none_or(|r| r.version == full.image.version);
    if !entry_ok || !read_version_ok {
        let reason =
            if !read_version_ok { AbortReason::ValidationVersion } else { AbortReason::NotFound };
        return Err(TxnError::Aborted(reason));
    }
    let layout = co.map().layout(table);
    let new_value = match &ops[i] {
        TxnOp::Write { value, .. } => co.pad_value(table, value),
        TxnOp::Update { f, .. } => co.pad_value(table, &f(&full.image.value[..layout.value_len])),
        TxnOp::Read { .. } => unreachable!("write staging of a read op"),
    };
    let old_version = full.image.version;
    s.c.write_set.push(WriteEntry {
        table,
        key,
        slot: sref,
        old_version,
        new_version: old_version.next_write(),
        old_value: pad8(full.image.value),
        new_value,
        kind: WriteKind::Update,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_stats_counts() {
        let st = SchedStats::new();
        st.note_admit();
        st.note_admit();
        assert_eq!(st.snapshot().in_flight, 2);
        assert_eq!(st.snapshot().high_water, 2);
        st.note_finish(&Ok(TxnOutcome::default()));
        st.note_finish(&Err(TxnError::Aborted(AbortReason::LockConflict)));
        let snap = st.snapshot();
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.high_water, 2);
        assert_eq!(snap.admitted, 2);
        assert_eq!(snap.committed, 1);
        assert_eq!(snap.aborted, 1);
    }

    #[test]
    fn request_builder_orders_ops() {
        let req = TxnRequest::new().read(TableId(0), 1).write(TableId(0), 2, vec![0u8; 8]).update(
            TableId(0),
            3,
            |old| old.to_vec(),
        );
        assert_eq!(req.ops.len(), 3);
        assert_eq!(req.ops[0].target(), (TableId(0), 1));
        assert!(req.ops[0].write_target().is_none());
        assert_eq!(req.ops[2].write_target(), Some((TableId(0), 3)));
    }
}
