//! # Interleaved multi-transaction coordinator scheduler
//!
//! One logical coordinator, up to `inflight_txns` independent commits in
//! flight at once. A [`crate::txn::Txn`] runs one transaction to
//! completion — every phase barrier stalls the whole coordinator for a
//! fabric round trip even though the verbs of *different* transactions
//! are completely independent. This module overlaps those stalls: each
//! in-flight transaction is a [`SlotTxn`] — a declared operation list
//! run through the same machine a `Txn` drives, the execute phase of
//! [`crate::exec`] (posted whole at admission) and the `Commit`
//! pipeline (validate → log → apply → flush → unlock) — and a single
//! event loop polls every slot's posted verbs and settles whichever
//! slot's phase has ripened. With K slots and
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
//!   the slot ever processes the completion. The execute phase
//!   therefore sweeps *every* posted CAS outcome into held / conflict /
//!   never-landed before any abort decision, and the pipeline's `held`
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

use dkvs::{entry_encoded_size, TableId, LOG_LANE_BYTES, TXN_LOG_LANES};

use crate::commit::{Commit, Phase};
use crate::coordinator::Coordinator;
use crate::exec::{Exec, Op, OpKind};
use crate::flight::TxnEvent;
use crate::obs::TxnPhase;
use crate::txn::{AbortReason, TxnError};

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
    /// Insert of a new key (aborts `AlreadyExists` when it is live).
    Insert { table: TableId, key: u64, value: Vec<u8> },
    /// Delete of an existing key (aborts `NotFound` when it is absent).
    Delete { table: TableId, key: u64 },
}

impl std::fmt::Debug for TxnOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnOp::Read { table, key } => write!(f, "Read({table:?}, {key})"),
            TxnOp::Write { table, key, value } => {
                write!(f, "Write({table:?}, {key}, {}B)", value.len())
            }
            TxnOp::Update { table, key, .. } => write!(f, "Update({table:?}, {key}, <fn>)"),
            TxnOp::Insert { table, key, value } => {
                write!(f, "Insert({table:?}, {key}, {}B)", value.len())
            }
            TxnOp::Delete { table, key } => write!(f, "Delete({table:?}, {key})"),
        }
    }
}

impl TxnOp {
    /// The execute phase's borrowed view of this op.
    fn as_op(&self) -> Op<'_> {
        let (table, key, kind) = match self {
            TxnOp::Read { table, key } => (table, key, OpKind::Read),
            TxnOp::Write { table, key, value } => (table, key, OpKind::Write(value)),
            TxnOp::Update { table, key, f } => (table, key, OpKind::Update(f.as_ref())),
            TxnOp::Insert { table, key, value } => (table, key, OpKind::Insert(value)),
            TxnOp::Delete { table, key } => (table, key, OpKind::Delete),
        };
        Op { table: *table, key: *key, kind }
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

    pub fn insert(mut self, table: TableId, key: u64, value: Vec<u8>) -> TxnRequest {
        self.ops.push(TxnOp::Insert { table, key, value });
        self
    }

    pub fn delete(mut self, table: TableId, key: u64) -> TxnRequest {
        self.ops.push(TxnOp::Delete { table, key });
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

/// One in-flight interleaved transaction. The slot index doubles as the
/// log-lane index, so at most [`TXN_LOG_LANES`] slots exist.
struct SlotTxn {
    /// Index into the request batch.
    req: usize,
    /// Read/write sets, held locks and the commit pipeline; its lock
    /// word is this transaction's own (per-seq, see
    /// [`Coordinator::lock_for`]), its log lane the slot index.
    c: Commit,
    /// The execute phase: one plan row per declared op, posted at
    /// admission.
    x: Exec,
    t0: Instant,
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
            self.run_indexed(reqs, &idxs, self.ctx.config.inflight_txns, &mut results);
        } else {
            for (i, req) in reqs.iter().enumerate() {
                results[i] = Some(self.run_request(req));
            }
        }
        results.into_iter().map(|r| r.expect("every request resolved")).collect()
    }

    /// [`Coordinator::run_interleaved`] with abort-retry: aborted
    /// requests are resubmitted (in their original order) until every
    /// request commits or a non-abort error surfaces. Returns the
    /// outcomes plus the number of aborts endured — the interleaved
    /// analogue of [`Coordinator::run`].
    ///
    /// Posted effects are eager and resubmission keeps the order, so a
    /// set of requests that abort each other (A reads what B locks and
    /// locks what B reads) would do so again on every pass. Progress is
    /// therefore a property of the loop: a pass that commits nothing is
    /// followed by a pass that admits one request at a time, which no
    /// sibling can abort. When such a pass commits nothing either and
    /// every abort in it would repeat (see
    /// [`AbortReason::is_transient`] — an insert of a live key, an
    /// update of an absent one), the loop cannot progress and returns
    /// the first of them as `Err(Aborted(reason))`; requests that
    /// committed on earlier passes stay committed.
    pub fn run_interleaved_retrying(
        &mut self,
        reqs: &[TxnRequest],
    ) -> Result<(Vec<TxnOutcome>, u64), TxnError> {
        let mut results: Vec<Option<Result<TxnOutcome, TxnError>>> =
            (0..reqs.len()).map(|_| None).collect();
        let mut aborts = 0u64;
        let mut todo: Vec<usize> = (0..reqs.len()).collect();
        let supported = self.sched_supported();
        let mut width = self.ctx.config.inflight_txns;
        while !todo.is_empty() {
            if supported {
                self.run_indexed(reqs, &todo, width, &mut results);
            } else {
                for &i in &todo {
                    results[i] = Some(self.run_request(&reqs[i]));
                }
            }
            let mut next = Vec::new();
            // The first abort of this pass that would repeat on every
            // attempt, and whether any abort of it would not.
            let mut stuck = None;
            let mut transient = false;
            for &i in &todo {
                match results[i].as_ref().expect("request resolved") {
                    Err(TxnError::Aborted(reason)) => {
                        if reason.is_transient() {
                            transient = true;
                        } else {
                            stuck.get_or_insert(*reason);
                        }
                        aborts += 1;
                        results[i] = None;
                        next.push(i);
                    }
                    Err(e) => return Err(e.clone()),
                    Ok(_) => {}
                }
            }
            let progressed = next.len() < todo.len();
            if !progressed && !transient && (width == 1 || !supported) {
                if let Some(reason) = stuck {
                    return Err(TxnError::Aborted(reason));
                }
            }
            width = if progressed { self.ctx.config.inflight_txns } else { 1 };
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
    /// (steps of the execute ladder that run between resolve and lock,
    /// so nothing of theirs posts at admission).
    pub fn sched_supported(&self) -> bool {
        let c = &self.ctx.config;
        c.interleaving_on()
            && c.protocol == crate::config::ProtocolKind::Pandora
            && c.pill_active()
            && c.pipelining_on()
            && !c.bugs.any()
            && !c.stall_on_conflict
    }

    /// Run one request once as a [`crate::txn::Txn`] — the same declared
    /// list through the same execute phase, blocking; no retry, an abort
    /// surfaces. What [`Coordinator::run_interleaved`] falls back to for
    /// unsupported configurations and oversized transactions, and what a
    /// workload's `execute` is when its mix declares.
    pub fn run_request(&mut self, req: &TxnRequest) -> Result<TxnOutcome, TxnError> {
        let ops: Vec<Op<'_>> = req.ops.iter().map(TxnOp::as_op).collect();
        let mut txn = self.begin();
        let mut reads = Vec::with_capacity(ops.len());
        txn.execute(&ops, |i, v| {
            if ops[i].is_read() {
                reads.push(v);
            }
        })?;
        txn.commit()?;
        Ok(TxnOutcome { reads })
    }

    /// The scheduler event loop over the requests named by `idxs`, with
    /// up to `width` of them in flight.
    fn run_indexed(
        &mut self,
        reqs: &[TxnRequest],
        idxs: &[usize],
        width: u32,
        results: &mut [Option<Result<TxnOutcome, TxnError>>],
    ) {
        let max_slots = (width as usize).clamp(1, TXN_LOG_LANES as usize);
        let mut slots: Vec<Option<SlotTxn>> = Vec::new();
        slots.resize_with(max_slots, || None);
        let mut queue: VecDeque<usize> = idxs.iter().copied().collect();
        let mut crashed = false;
        self.reap();
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
                        let r = self.run_request(&reqs[idx]);
                        self.reap();
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
                progressed |= s.x.poll(self, now);
                progressed |= s.c.poll(self, now);
                if !s.x.in_flight() && !s.c.in_flight() {
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
                    s.c.trace(TxnEvent::Crashed);
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
    // A disabled recorder costs no clock read.
    if let Some(f) = s.c.flight.as_ref().filter(|f| f.enabled()) {
        f.ended("txn", s.c.txn_id, s.t0.elapsed(), result.is_ok());
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
    let target = |op: &TxnOp| Some(op.as_op()).filter(|o| !o.is_read()).map(|o| (o.table, o.key));
    let lens = ops.iter().enumerate().filter_map(|(i, op)| {
        let (table, key) = target(op)?;
        let repeat = ops[..i].iter().any(|o| target(o) == Some((table, key)));
        (!repeat).then(|| co.map().layout(table).value_padded())
    });
    entry_encoded_size(lens) > LOG_LANE_BYTES as usize
}

/// Admit a request into slot `si`: allocate its transaction identity
/// (seq, lock word, log lane, flight track) and post the execute
/// phase — for every address-cached op the verbs a `Txn` would block
/// on, up front on the stripe lane the slot base routes to.
fn admit(co: &mut Coordinator, req: usize, si: usize, ops: &[TxnOp]) -> SlotTxn {
    co.txn_seq += 1;
    let seq = co.txn_seq;
    let txn_id = ((co.coord_id as u64) << 48) | seq;
    if let Some(st) = &co.sched {
        st.note_admit();
    }
    // The recorder cached at connect: no context lock per admission.
    let flight = co.flight.as_ref().map(|f| f.recorder().slot_handle(co.coord_id, si as u16));
    let mut c = Commit::new(txn_id, si as u32, co.lock_for(seq), true, flight);
    c.trace(TxnEvent::Begin);
    c.start_timer(co);
    let mut x = Exec::default();
    x.begin(ops.len());
    for op in ops {
        x.post(co, &c, op.as_op());
    }
    SlotTxn { req, c, x, t0: Instant::now(), reads_out: Vec::new(), result: None }
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
            if s.c.repost(co) {
                // The phase's next wave is out; nothing to settle yet.
                return Ok(());
            }
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

/// Settle the execute phase, all its completions in: sweep every
/// posted lock CAS into `held` before anything can abort, then run the
/// ops down the ladder in op order.
fn process_execute(co: &mut Coordinator, s: &mut SlotTxn, ops: &[TxnOp]) -> Result<(), TxnError> {
    s.x.sweep(co, &mut s.c)?;
    if co.ctx.pause.pause_requested() {
        return Err(TxnError::Aborted(AbortReason::Paused));
    }
    for (i, op) in ops.iter().enumerate() {
        let v = s.x.settle(co, &mut s.c, i, op.as_op())?;
        if matches!(op, TxnOp::Read { .. }) {
            s.reads_out.push(v);
        }
    }
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
        assert!(req.ops[0].as_op().is_read());
        assert_eq!(req.ops[2].as_op().key, 3);
        assert!(!req.ops[2].as_op().is_read());
    }
}
