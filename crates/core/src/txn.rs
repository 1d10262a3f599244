//! The interactive transaction: the blocking driver of the one
//! transaction machine (paper §2.3 for FORD, §3.1.5 for Pandora's phase
//! summary).
//!
//! * **Execution** — every call is a list of rows of the execute phase
//!   of [`crate::exec`], driven the way a scheduler slot drives its
//!   declared list: post every row's verbs (a full-slot READ; a lock CAS
//!   with the under-lock READ behind it on the same lane), take **one**
//!   completion barrier, sweep every landed lock into `held`, settle the
//!   rows in order down the resolve / lock / steal / stage ladder.
//!   [`Txn::read`], [`Txn::write`] and friends are lists of one;
//!   [`Txn::fetch`] takes the read set and the read-write set together
//!   (FORD's execution phase, paper §2.3), so a transaction whose keys
//!   are known up front executes in one round trip.
//! * **Validate → log → apply → ack → unlock, and abort** — the
//!   pipeline of [`crate::commit`]. [`Txn::commit`] drives it with one
//!   completion barrier per phase up to the ack, posts the unlocks and
//!   returns — their completions are parked on the coordinator and
//!   collected behind the next transaction's execute barrier;
//!   [`Txn::abort`], a failed operation and `Drop` run its abort path.
//!
//! The interleaved scheduler ([`crate::sched`]) drives both halves of
//! the same machine by polling; a `Txn` is that machine at width 1,
//! with log lane 0 and the coordinator's current lock word. The
//! read/write sets, the list of held locks and the log bookkeeping live
//! in the transaction's `Commit` state from the first operation on, so
//! nothing is handed over at commit time.

use std::time::Instant;

use dkvs::{SlotRef, TableId, VersionWord};
use rdma_sim::RdmaError;

use crate::commit::{Commit, Phase};
use crate::coordinator::Coordinator;
use crate::exec::{self, Exec, Op, OpKind};
use crate::flight::TxnEvent;
use crate::obs::TxnPhase;

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A write-set object was locked by a live coordinator.
    LockConflict,
    /// A read-set object's version changed before validation.
    ValidationVersion,
    /// A read-set object was locked at validation time.
    ValidationLocked,
    /// Write/delete of a key that does not exist (or was deleted).
    NotFound,
    /// Insert of a key that already exists.
    AlreadyExists,
    /// No free slot in the target hash bucket.
    BucketFull,
    /// The world was paused for a stop-the-world recovery.
    Paused,
    /// Data became unavailable (> f replica failures).
    MemoryFailure,
    /// The client explicitly rolled the transaction back.
    UserAbort,
    /// The key is outside the supported space (`u64::MAX` is reserved
    /// as the empty-slot sentinel's complement — see `dkvs::layout`).
    InvalidKey,
    /// Transient fabric faults (verb timeouts, link flaps) exhausted the
    /// retry budget before the commit point. The transaction aborted
    /// cleanly — locks released, logs truncated — and is safe to retry.
    NetworkTimeout,
}

impl AbortReason {
    pub const COUNT: usize = 11;
    pub const ALL: [AbortReason; AbortReason::COUNT] = [
        AbortReason::LockConflict,
        AbortReason::ValidationVersion,
        AbortReason::ValidationLocked,
        AbortReason::NotFound,
        AbortReason::AlreadyExists,
        AbortReason::BucketFull,
        AbortReason::Paused,
        AbortReason::MemoryFailure,
        AbortReason::UserAbort,
        AbortReason::InvalidKey,
        AbortReason::NetworkTimeout,
    ];

    /// Dense index for per-reason counters (see `obs::PhaseStats`).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Can the *same* transaction commit on a later attempt with no one
    /// else changing the data it names? Conflicts, validation failures,
    /// pauses and exhausted verb budgets pass on their own; an absent or
    /// already-live key, a full bucket, a reserved key and the client's
    /// own roll-back repeat on every attempt, so retry loops
    /// ([`Coordinator::run`], [`Coordinator::run_interleaved_retrying`])
    /// hand them back at once.
    ///
    /// `MemoryFailure` is transient: `memfail.rs` answers a dead node
    /// under a world pause by publishing the new dead-node set, so the
    /// attempt that raced the death (a validation READ or an apply that
    /// reached no live replica) re-resolves its primaries from the
    /// promoted backups next time; and the one lasting case — more than
    /// f replicas of a bucket gone, `primary_of` finding none — lasts
    /// only until `MemoryFailureHandler::rereplicate` marks a rebuilt
    /// node live, which is a retry's to wait for, not the caller's to
    /// treat as an answer about its keys.
    pub const fn is_transient(self) -> bool {
        !matches!(
            self,
            AbortReason::NotFound
                | AbortReason::AlreadyExists
                | AbortReason::BucketFull
                | AbortReason::UserAbort
                | AbortReason::InvalidKey
        )
    }

    pub const fn name(self) -> &'static str {
        match self {
            AbortReason::LockConflict => "LockConflict",
            AbortReason::ValidationVersion => "ValidationVersion",
            AbortReason::ValidationLocked => "ValidationLocked",
            AbortReason::NotFound => "NotFound",
            AbortReason::AlreadyExists => "AlreadyExists",
            AbortReason::BucketFull => "BucketFull",
            AbortReason::Paused => "Paused",
            AbortReason::MemoryFailure => "MemoryFailure",
            AbortReason::UserAbort => "UserAbort",
            AbortReason::InvalidKey => "InvalidKey",
            AbortReason::NetworkTimeout => "NetworkTimeout",
        }
    }
}

/// Transaction-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction aborted cleanly; the client received an abort-ack.
    Aborted(AbortReason),
    /// The coordinator crashed (fault injection): no ack was delivered,
    /// and remote state (locks, logs, partial updates) is left as-is.
    Crashed,
    /// Unhandled fabric error.
    Rdma(RdmaError),
}

impl TxnError {
    pub(crate) fn from_rdma(e: RdmaError) -> TxnError {
        match e {
            RdmaError::Crashed => TxnError::Crashed,
            other => TxnError::Rdma(other),
        }
    }
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Aborted(r) => write!(f, "transaction aborted: {r:?}"),
            TxnError::Crashed => write!(f, "coordinator crashed"),
            TxnError::Rdma(e) => write!(f, "fabric error: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// How one row of a [`Txn::fetch`] takes its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Optimistic read: joins the read set, validated at commit.
    Read,
    /// Lock the key and read it under the lock: joins the write set
    /// (post-image = pre-image until a later [`Txn::write`] or
    /// [`Txn::delete`] edits it). An absent key aborts `NotFound`.
    ForUpdate,
}

/// The update a [`Access::ForUpdate`] row stages: none yet.
fn keep(old: &[u8]) -> Vec<u8> {
    old.to_vec()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteKind {
    Update,
    Insert,
    Delete,
}

pub(crate) struct WriteEntry {
    pub table: TableId,
    pub key: u64,
    pub slot: SlotRef,
    pub old_version: VersionWord,
    pub new_version: VersionWord,
    /// Pre-image, padded (undo).
    pub old_value: Vec<u8>,
    /// Post-image, padded.
    pub new_value: Vec<u8>,
    pub kind: WriteKind,
}

pub(crate) struct ReadEntry {
    pub table: TableId,
    pub key: u64,
    pub slot: SlotRef,
    pub version: VersionWord,
    /// Unpadded value, served on repeated reads.
    pub value: Vec<u8>,
}

/// An in-flight transaction. Obtain via [`Coordinator::begin`]; finish
/// with [`Txn::commit`]. Dropping an unfinished transaction aborts it
/// (best-effort lock release).
pub struct Txn<'c> {
    pub(crate) co: &'c mut Coordinator,
    /// Read/write sets, held locks, and the commit pipeline's state
    /// (log lane 0, the coordinator's current lock word).
    c: Commit,
    /// The execute phase: one plan row per operation, reused.
    x: Exec,
    done: bool,
    /// Execution-phase start; `Some` only when phase stats are attached,
    /// so the untimed path pays nothing but an `Option` check.
    started: Option<Instant>,
}

impl<'c> Txn<'c> {
    pub(crate) fn new(co: &'c mut Coordinator, txn_id: u64) -> Txn<'c> {
        let started = co.phase_start();
        let c = Commit::new(txn_id, 0, co.my_lock(), false, co.flight.clone());
        c.trace(TxnEvent::Begin);
        Txn { co, c, x: Exec::default(), done: false, started }
    }

    pub fn id(&self) -> u64 {
        self.c.txn_id
    }

    // ---------------------------------------------------------------
    // Execution phase
    // ---------------------------------------------------------------

    /// Transactional read. `None` = key absent (or deleted).
    pub fn read(&mut self, table: TableId, key: u64) -> Result<Option<Vec<u8>>, TxnError> {
        self.run(Op { table, key, kind: OpKind::Read })
    }

    /// Lock `key` and read it under the lock — a [`Txn::fetch`] of one
    /// [`Access::ForUpdate`] row. One round trip on a cached key where
    /// `read` then `write` take two; a live lock aborts `LockConflict`
    /// at once where `read` would wait out `read_lock_retries`.
    pub fn read_for_update(&mut self, table: TableId, key: u64) -> Result<Vec<u8>, TxnError> {
        let row = self.fetch(&[(table, key, Access::ForUpdate)])?.pop().flatten();
        Ok(row.expect("a ForUpdate row settles to a value or aborts"))
    }

    /// Transactional update of an existing key.
    pub fn write(&mut self, table: TableId, key: u64, value: &[u8]) -> Result<(), TxnError> {
        self.run(Op { table, key, kind: OpKind::Write(value) }).map(drop)
    }

    /// Transactional insert of a new key.
    pub fn insert(&mut self, table: TableId, key: u64, value: &[u8]) -> Result<(), TxnError> {
        self.run(Op { table, key, kind: OpKind::Insert(value) }).map(drop)
    }

    /// Transactional delete of an existing key.
    pub fn delete(&mut self, table: TableId, key: u64) -> Result<(), TxnError> {
        self.run(Op { table, key, kind: OpKind::Delete }).map(drop)
    }

    /// Read the `Read` rows and lock-read the `ForUpdate` rows in one
    /// round trip (FORD's execution phase, paper §2.3): every
    /// address-cached row's verbs post up front, as far as the lanes'
    /// windows reach, and are collected at one barrier; the other rows —
    /// cold keys, and every `ForUpdate` row where a step runs between
    /// resolve and lock (Traditional's lock intents, the bug
    /// reproductions, `stall_on_conflict`) — go down the ladder one at a
    /// time as the list settles in order. Returns one value per row
    /// (`None` = a `Read` of an absent key). Locking is no-wait: one live
    /// conflict aborts the transaction, the other rows' locks released.
    pub fn fetch(
        &mut self,
        rows: &[(TableId, u64, Access)],
    ) -> Result<Vec<Option<Vec<u8>>>, TxnError> {
        let ops: Vec<Op<'_>> = rows
            .iter()
            .map(|&(table, key, access)| {
                let kind = match access {
                    Access::Read => OpKind::Read,
                    Access::ForUpdate => OpKind::Update(&keep),
                };
                Op { table, key, kind }
            })
            .collect();
        let mut values = Vec::with_capacity(ops.len());
        self.execute(&ops, |_, v| values.push(v))?;
        for (v, &(table, key, access)) in values.iter_mut().zip(rows) {
            if access == Access::ForUpdate {
                // The entry the row staged (or a repeat restaged).
                let len = self.co.map().layout(table).value_len;
                let w = self.c.write_set.iter().find(|w| w.table == table && w.key == key);
                *v = w.map(|w| w.new_value[..len].to_vec());
            }
        }
        Ok(values)
    }

    /// Client-side range read over a dense key range (the DKVS hash index
    /// has no order; ReadRange is provided as an API convenience for
    /// workloads with dense key spaces — see DESIGN.md): a
    /// [`Txn::fetch`] of one `Read` row per key.
    pub fn read_range(
        &mut self,
        table: TableId,
        keys: std::ops::Range<u64>,
    ) -> Result<Vec<(u64, Vec<u8>)>, TxnError> {
        let rows: Vec<_> = keys.clone().map(|key| (table, key, Access::Read)).collect();
        let values = self.fetch(&rows)?;
        Ok(keys.zip(values).filter_map(|(key, v)| Some((key, v?))).collect())
    }

    /// One operation: a list of one.
    fn run(&mut self, op: Op<'_>) -> Result<Option<Vec<u8>>, TxnError> {
        let mut value = None;
        self.execute(&[op], |_, v| value = v)?;
        Ok(value)
    }

    /// A list of operations through the execute phase — the blocking
    /// twin of a scheduler slot's admission and `process_execute`: post
    /// every row, wait for all their verbs at one barrier, sweep the lock
    /// outcomes into `held` before anything may abort, settle in list
    /// order, handing `row` each index and `settle` value.
    pub(crate) fn execute(
        &mut self,
        ops: &[Op<'_>],
        mut row: impl FnMut(usize, Option<Vec<u8>>),
    ) -> Result<(), TxnError> {
        let r = paused(self.co).and_then(|()| {
            self.x.begin(ops.len());
            for &op in ops {
                self.x.post(self.co, &self.c, op);
            }
            self.x.wait(self.co);
            // The last commit's parked unlock completions, ripe by now
            // (a row that found them filling its lane's window has
            // collected them already, see `Exec::route`).
            self.co.reap();
            self.x.sweep(self.co, &mut self.c)?;
            for (i, &op) in ops.iter().enumerate() {
                if i > 0 {
                    // A cold row's ladder is round trips long. Not before
                    // row 0: a list of one checks once, before its post.
                    paused(self.co)?;
                }
                row(i, self.x.settle(self.co, &mut self.c, i, op)?);
            }
            Ok(())
        });
        r.map_err(|e| self.fail(e))
    }

    /// Where an operation's raw error is shaped: an abort reason runs
    /// the abort path — truncate logs, release the held locks,
    /// abort-ack — and so does a retry budget exhausted on a transient
    /// fabric fault (`RdmaError::Timeout`), as a [`NetworkTimeout`]
    /// abort: callers see an ordinary retryable abort, never a panic or
    /// a stuck lock. Every other error passes through with the
    /// transaction left open (a crash leaves everything to recovery).
    ///
    /// [`NetworkTimeout`]: AbortReason::NetworkTimeout
    fn fail(&mut self, e: TxnError) -> TxnError {
        match e {
            TxnError::Aborted(reason) => self.abort_now(reason),
            TxnError::Rdma(RdmaError::Timeout { .. }) => {
                self.abort_now(AbortReason::NetworkTimeout)
            }
            other => other,
        }
    }

    // ---------------------------------------------------------------
    // Commit / abort
    // ---------------------------------------------------------------

    /// Deferred locking for the relaxed-locks bug: grab the locks *after*
    /// validation (the buggy interleaving of paper §5.1, litmus 2).
    fn lock_deferred(&mut self) -> Result<(), TxnError> {
        for i in 0..self.c.write_set.len() {
            let (slot, key) = (self.c.write_set[i].slot, self.c.write_set[i].key);
            if self.c.held.contains(&slot) {
                continue;
            }
            if !exec::try_lock(self.co, &mut self.c, slot, key)? {
                return Err(self.fail(TxnError::Aborted(AbortReason::LockConflict)));
            }
        }
        Ok(())
    }

    /// Validate, log, apply, ack, unlock. `Ok(())` means the client
    /// received a commit-ack (updates are applied on all live replicas;
    /// the unlocks are posted, and so in effect, their completions still
    /// to be collected); `Err(Aborted)` means an abort-ack.
    ///
    /// An unlock the wire lost is found, and the lock released again,
    /// when the coordinator collects those completions: behind its next
    /// transaction's execute barrier, or when dropped. A coordinator
    /// that goes idle in between calls [`Coordinator::reap`].
    pub fn commit(mut self) -> Result<(), TxnError> {
        if self.done {
            // The txn already aborted through an earlier op error.
            return Err(TxnError::Aborted(AbortReason::UserAbort));
        }
        // Execution ends at the commit() call; lock-acquisition time spent
        // during eager locking belongs to the lock phase, not execute.
        if let Some(t0) = self.started {
            let execute = t0.elapsed().saturating_sub(self.x.lock_elapsed);
            self.c.record_phase(self.co, TxnPhase::Execute, execute);
        }
        let result = self.drive_commit();
        match &result {
            Ok(()) => {
                if self.started.is_some() && !self.c.write_set.is_empty() {
                    self.c.record_phase(self.co, TxnPhase::Lock, self.x.lock_elapsed);
                }
            }
            Err(TxnError::Crashed) => {
                self.c.trace(TxnEvent::Crashed);
                self.co.note_crashed()
            }
            // The pipeline already ran the cleanup its error calls for:
            // abort, pre-apply truncate-and-unlock, or — mid-apply —
            // nothing, leaving locks and logs to recovery.
            Err(_) => {}
        }
        self.exit(result.is_ok());
        result
    }

    /// The blocking driver: post a phase, take one completion barrier,
    /// settle it, up to the ack; the Unlock phase is posted and parked.
    fn drive_commit(&mut self) -> Result<(), TxnError> {
        if self.co.injector().is_crashed() {
            return Err(TxnError::Crashed);
        }
        self.co.reap();
        self.c.begin();
        while !self.c.done() {
            let phase = self.c.phase();
            self.c.post(self.co)?;
            if phase == Phase::Unlock && self.c.park(self.co) {
                // The caller has its ack; the completions ride the
                // next transaction's execute.
                break;
            }
            self.c.wait(self.co);
            self.c.settle(self.co)?;
            if phase == Phase::Validate && self.co.ctx.config.bugs.relaxed_locks {
                // Relaxed-locks bug: validation ran before the locks
                // were held.
                let t = self.co.phase_start();
                let deferred = self.lock_deferred();
                if let Some(t0) = t {
                    self.x.lock_elapsed += t0.elapsed();
                }
                deferred?;
            }
        }
        Ok(())
    }

    /// Abort: run the pipeline's abort path (truncate logs, release the
    /// held locks, ack) and close the transaction.
    fn abort_now(&mut self, reason: AbortReason) -> TxnError {
        self.co.reap();
        let e = self.c.abort(self.co, reason);
        if e == TxnError::Crashed {
            self.co.note_crashed();
        }
        self.exit(false);
        e
    }

    /// Explicitly abort (client-requested rollback).
    pub fn abort(mut self) -> TxnError {
        self.abort_now(AbortReason::UserAbort)
    }

    /// The one way out — commit, abort and drop all end here: the
    /// whole-transaction flight span (begin → ack; `started` is consumed,
    /// so it fires once), the `done` mark, and the pause gate.
    fn exit(&mut self, ok: bool) {
        let flight = self.c.flight.as_ref().filter(|f| f.enabled());
        if let (Some(f), Some(t0)) = (flight, self.started.take()) {
            f.ended("txn", self.c.txn_id, t0.elapsed(), ok);
        }
        self.done = true;
        self.co.ctx.pause.exit_txn(&self.co.gate);
    }
}

/// A stop-the-world pause (Baseline / Traditional recovery, memory
/// failures) is pending: the transaction gives way.
#[inline]
fn paused(co: &Coordinator) -> Result<(), TxnError> {
    if co.ctx.pause.pause_requested() {
        return Err(TxnError::Aborted(AbortReason::Paused));
    }
    Ok(())
}

/// Pad a raw (unpadded) slot value to the 8-byte boundary the log codec
/// and WRITE verbs require (same rule as `SlotLayout::value_padded`).
pub(crate) fn pad8(mut v: Vec<u8>) -> Vec<u8> {
    v.resize(dkvs::SlotLayout::new(v.len()).value_padded(), 0);
    v
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        if self.co.injector().is_crashed() {
            // Power-cut: leave everything in place for recovery.
            self.co.note_crashed();
            self.exit(false);
        } else {
            let _ = self.abort_now(AbortReason::UserAbort);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use dkvs::{LockWord, TableDef};
    use rdma_sim::ChaosConfig;

    use super::*;
    use crate::config::ProtocolKind;
    use crate::sim::SimCluster;

    const KV: TableId = TableId(0);
    const KEY: u64 = 3;

    /// Every verb times out ambiguously — landed or dropped, the seed
    /// decides — while the model is enabled.
    fn every_completion_lost(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            p_timeout: 1.0,
            p_ambiguous: 1.0,
            p_flap: 0.0,
            flap_ops: (1, 1),
            p_delay_spike: 0.0,
            delay_spike: Duration::ZERO,
        }
    }

    fn cluster(protocol: ProtocolKind, seed: u64) -> SimCluster {
        let cluster = SimCluster::builder(protocol)
            .capacity_per_node(16 << 20)
            .table(TableDef::sized_for(0, "kv", 8, 128))
            .max_coord_slots(16)
            .chaos(every_completion_lost(seed))
            .build()
            .expect("build cluster");
        cluster
            .bulk_load(KV, (0..16u64).map(|k| (k, k.to_le_bytes().to_vec())))
            .expect("load");
        cluster
    }

    fn lock_of(cluster: &SimCluster) -> LockWord {
        cluster.raw_slot(KV, KEY, cluster.primary_node(KV, KEY)).expect("loaded key").0
    }

    /// Commit a write of `KEY` on `co`, the unlock — and nothing else —
    /// posted with every completion lost. Returns the transaction's
    /// lock word.
    fn commit_with_a_lost_unlock(cluster: &SimCluster, co: &mut Coordinator) -> LockWord {
        let chaos = cluster.chaos.as_ref().expect("chaos installed");
        let mut txn = co.begin();
        txn.write(KV, KEY, &7u64.to_le_bytes()).unwrap();
        txn.c.begin();
        while txn.c.phase() != Phase::Unlock {
            txn.c.post(txn.co).unwrap();
            txn.c.wait(txn.co);
            txn.c.settle(txn.co).unwrap();
        }
        chaos.set_enabled(true);
        txn.c.post(txn.co).unwrap();
        chaos.set_enabled(false);
        assert!(txn.c.park(txn.co));
        txn.exit(true);
        assert!(txn.co.parked.is_some(), "a posted unlock parks, whatever became of it");
        txn.c.lock
    }

    #[test]
    fn a_rereleased_unlock_leaves_a_successors_lock_alone() {
        let cluster = cluster(ProtocolKind::Pandora, 0);
        let (mut a, _lease_a) = cluster.coordinator().unwrap();
        let (mut b, _lease_b) = cluster.coordinator().unwrap();
        let node = cluster.primary_node(KV, KEY);
        let mut ours = a.begin();
        ours.read_for_update(KV, KEY).unwrap();
        let (word, id) = (ours.c.lock, ours.c.txn_id);
        assert_eq!(lock_of(&cluster), word);
        // The unlock lands and its completion is lost; before the
        // back-off re-issues it, the next transaction has the lock.
        let addr = ours.co.lock_addr(node, ours.c.held.pop().expect("the lock is held"));
        ours.co.qp(node).write_u64(addr, 0).unwrap();
        let mut theirs = b.begin();
        theirs.read_for_update(KV, KEY).unwrap();
        let successor = lock_of(&cluster);
        assert!(successor.is_locked() && successor != word);
        ours.co.rerelease_lock_or_fence(node, addr, word, id);
        assert_eq!(lock_of(&cluster), successor, "the re-issue zeroed a lock it does not own");
        assert!(!ours.co.injector.is_crashed());
        theirs.abort();
        ours.abort();
        // A word that is still ours is released.
        let mut again = a.begin();
        again.read_for_update(KV, KEY).unwrap();
        let (word, id) = (again.c.lock, again.c.txn_id);
        again.c.held.clear();
        again.co.rerelease_lock_or_fence(node, addr, word, id);
        assert!(!lock_of(&cluster).is_locked());
    }

    #[test]
    fn a_parked_unlock_whose_completion_failed_is_released_owner_checked() {
        let (mut landed, mut dropped) = (0, 0);
        for seed in 0..16 {
            let cluster = cluster(ProtocolKind::Pandora, seed);
            let (mut a, _lease_a) = cluster.coordinator().unwrap();
            let (mut b, _lease_b) = cluster.coordinator().unwrap();
            let word = commit_with_a_lost_unlock(&cluster, &mut a);
            if lock_of(&cluster) == word {
                // Dropped on the way: the reap releases it.
                dropped += 1;
                a.reap();
                assert!(!lock_of(&cluster).is_locked(), "seed {seed}: the lock leaked");
            } else {
                // Landed: the word is free, and taken again before the
                // reap looks at the failed completion.
                landed += 1;
                let mut theirs = b.begin();
                theirs.read_for_update(KV, KEY).unwrap();
                let successor = lock_of(&cluster);
                a.reap();
                assert_eq!(lock_of(&cluster), successor, "seed {seed}: a successor's lock zeroed");
            }
            assert!(a.parked.is_none() && !a.injector.is_crashed());
            assert_eq!(cluster.ctx.fabric.verb_stats().verbs_in_flight, 0);
        }
        assert!(landed > 0 && dropped > 0, "{landed} landed, {dropped} dropped");
    }

    #[test]
    fn an_anonymous_unlock_is_settled_in_place_and_retries_blind() {
        // A word that names no owner is not parked: the driver waits,
        // and a lost completion is retried blind while nobody else can
        // have run — the parent's rule, and nothing fences.
        for seed in 0..4 {
            let cluster = cluster(ProtocolKind::Ford, seed);
            let (mut a, _lease) = cluster.coordinator().unwrap();
            let chaos = cluster.chaos.as_ref().expect("chaos installed");
            let mut txn = a.begin();
            txn.write(KV, KEY, &7u64.to_le_bytes()).unwrap();
            txn.c.begin();
            while !txn.c.done() {
                let unlock = txn.c.phase() == Phase::Unlock;
                chaos.set_enabled(unlock);
                txn.c.post(txn.co).unwrap();
                chaos.set_enabled(false);
                assert!(!(unlock && txn.c.park(txn.co)), "parked an anonymous unlock");
                txn.c.wait(txn.co);
                txn.c.settle(txn.co).unwrap();
            }
            txn.exit(true);
            drop(txn);
            assert!(a.parked.is_none());
            assert!(!lock_of(&cluster).is_locked(), "seed {seed}: the lock leaked");
            assert!(!a.injector.is_crashed(), "seed {seed}: fenced over a retryable unlock");
        }
    }
}
