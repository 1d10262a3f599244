//! The execute phase: read, eager-lock with the coordinator-id word,
//! steal strays, stage the write (paper §2.3, §3.1.2). One resumable
//! machine in two halves, like the commit pipeline it feeds
//! ([`crate::commit`]), and with the same two drivers.
//!
//! * [`Exec::post`] puts an address-cached operation's verbs on the
//!   stripe lane its slot base routes to: a full-slot READ for a read,
//!   a lock CAS fused with the under-lock READ for a write, update or
//!   delete (RC order on one lane makes the READ see the CAS). Nothing
//!   posts on a cache miss, for a key this transaction already touched,
//!   for an insert (the claim comes first), or when the lane's window is
//!   full.
//! * [`Exec::sweep`] turns every posted lock CAS into held / conflict /
//!   never-landed — posted effects are eager, so this runs before any
//!   abort decision — and [`Exec::settle`] runs one operation down the
//!   ladder: write-set or read-set hit → resolve (or claim) → lock →
//!   steal a stray → under-lock image → key check → liveness and read
//!   continuity → a write-set entry.
//!
//! Between the halves the driver collects completions: a
//! [`crate::txn::Txn`] operation blocks on its own verbs
//! ([`Exec::wait`]), a scheduler slot posts a whole declared list at
//! admission and polls ([`Exec::poll`]). The ladder returns raw errors;
//! the driver shapes them (`Txn::fail`, `Commit::fail`). A lock joins
//! the pipeline's `held` list the moment it is known to be ours, and on
//! a failure the abort path is its only releaser.
//!
//! Protocols and bug reproductions are branches at the step they affect
//! (DESIGN.md §5): Traditional's lock intents and the
//! `logging_without_locking` / `relaxed_locks` bugs between resolve and
//! lock, `complicit_abort` on a lost lock, `lost_decision` after
//! staging.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dkvs::{LockWord, SlotLayout, SlotRef, TableId};
use rdma_sim::{Completion, NodeId, QueuePair, RdmaError, RdmaResult, TimeoutApplied, VerbKind};

use crate::commit::{Commit, Pend};
use crate::coordinator::{parse_full_slot, Coordinator, FullSlot};
use crate::flight::TxnEvent;
use crate::txn::{pad8, AbortReason, ReadEntry, TxnError, WriteEntry, WriteKind};

/// What one operation asks for. Values and closures are borrowed: a
/// `Txn` call and a declared [`crate::sched::TxnOp`] both view as this.
#[derive(Clone, Copy)]
pub(crate) enum OpKind<'a> {
    Read,
    /// Blind write of an existing key.
    Write(&'a [u8]),
    /// Read-modify-write of an existing key, on the under-lock image.
    Update(&'a (dyn Fn(&[u8]) -> Vec<u8> + Send + Sync)),
    Insert(&'a [u8]),
    Delete,
}

#[derive(Clone, Copy)]
pub(crate) struct Op<'a> {
    pub table: TableId,
    pub key: u64,
    pub kind: OpKind<'a>,
}

impl Op<'_> {
    pub fn is_read(&self) -> bool {
        matches!(self.kind, OpKind::Read)
    }

    fn write_kind(&self) -> WriteKind {
        match self.kind {
            OpKind::Insert(_) => WriteKind::Insert,
            OpKind::Delete => WriteKind::Delete,
            _ => WriteKind::Update,
        }
    }
}

/// Outcome of a posted lock CAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lock {
    Unresolved,
    /// We own the word; `held` tracks it.
    Held,
    /// Somebody else's word (the value the CAS observed).
    Conflict(u64),
    /// The CAS never landed: take the ladder from the top.
    Fresh,
}

/// The verbs one operation has on the wire, and what came back.
struct Posted {
    sref: SlotRef,
    node: NodeId,
    cas: Option<RdmaResult<u64>>,
    /// READ payload: the slot of a read, the under-lock image of a lock.
    data: Option<Vec<u8>>,
    lock: Lock,
}

/// One operation's row of the plan: its target (later operations on the
/// same key post nothing) and its posted verbs, if any.
struct Plan {
    table: TableId,
    key: u64,
    writes: bool,
    posted: Option<Posted>,
}

/// Execute-phase state of one transaction: a plan row per operation
/// posted since [`Exec::begin`], and the verbs still in flight.
#[derive(Default)]
pub(crate) struct Exec {
    plan: Vec<Plan>,
    /// `Pend::item` is the plan row.
    pending: Vec<Pend>,
    lock_t0: Option<Instant>,
    /// Time spent acquiring write locks (CAS round trips, steals, the
    /// stall loop); the `Txn` driver accounts it to the lock phase.
    pub lock_elapsed: Duration,
}

fn aborted<T>(reason: AbortReason) -> Result<T, TxnError> {
    Err(TxnError::Aborted(reason))
}

impl Exec {
    /// Forget the previous operations' rows (nothing may be in flight)
    /// and make room for `rows` new ones.
    pub fn begin(&mut self, rows: usize) {
        debug_assert!(self.pending.is_empty(), "execute verbs still in flight");
        self.plan.clear();
        self.plan.reserve(rows);
    }

    pub fn in_flight(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Account the time since `t0` (a `Coordinator::phase_start`
    /// reading, `None` when nobody listens) to lock acquisition.
    fn lock_time(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.lock_elapsed += t0.elapsed();
        }
    }

    // -----------------------------------------------------------------
    // Posting
    // -----------------------------------------------------------------

    /// Add `op` as the next plan row and post what it can have on the
    /// wire ahead of its ladder (see the module docs).
    pub fn post(&mut self, co: &mut Coordinator, c: &Commit, op: Op<'_>) {
        let (table, key) = (op.table, op.key);
        let writes = !op.is_read();
        let item = self.plan.len();
        let staged = c.write_set.iter().any(|w| w.table == table && w.key == key);
        let earlier = |p: &Plan| p.table == table && p.key == key && (p.writes || !writes);
        let repeat = staged
            || self.plan.iter().any(earlier)
            || (!writes && c.read_set.iter().any(|r| r.table == table && r.key == key));
        let target = if repeat {
            None
        } else if writes {
            Exec::lock_ahead(co, op)
        } else {
            co.addr_cache.get(&(table, key)).copied()
        };
        let posted = target.and_then(|sref| {
            let t0 = if writes { co.phase_start() } else { None };
            let mut posted = self.post_row(co, c, item, sref, writes);
            if posted.is_none() && co.parked.is_some() && Exec::route(co, sref).is_none() {
                // The last commit's unlock completions hold the lane's
                // room: with them collected the row posts exactly where
                // it would with nothing parked.
                co.reap();
                posted = self.post_row(co, c, item, sref, writes);
            }
            if writes && posted.is_some() {
                self.lock_t0 = self.lock_t0.or(t0);
            }
            posted
        });
        self.plan.push(Plan { table, key, writes, posted });
    }

    fn post_row(
        &mut self,
        co: &Coordinator,
        c: &Commit,
        item: usize,
        sref: SlotRef,
        writes: bool,
    ) -> Option<Posted> {
        if writes {
            self.post_lock(co, c, item, sref)
        } else {
            self.post_read(co, item, sref)
        }
    }

    /// The slot whose lock `op` may take ahead of resolving: the one the
    /// address cache names — the under-lock image then stands in for the
    /// resolve READ. Not for an insert (the claim comes first), and not
    /// where a step runs between resolve and lock: Traditional's intent
    /// log and the bug reproductions stage from the unlocked image, and
    /// the stall study resolves before it waits.
    fn lock_ahead(co: &Coordinator, op: Op<'_>) -> Option<SlotRef> {
        let cfg = &co.ctx.config;
        let sequential =
            cfg.bugs.any() || cfg.protocol.uses_lock_intents() || cfg.stall_on_conflict;
        if sequential || op.key == u64::MAX || matches!(op.kind, OpKind::Insert(_)) {
            return None;
        }
        co.addr_cache.get(&(op.table, op.key)).copied()
    }

    /// The lane `sref`'s verbs route to on its primary, if its window
    /// has room.
    fn route(co: &Coordinator, sref: SlotRef) -> Option<(NodeId, u64, u32, &QueuePair)> {
        let node = co.primary_of(sref.table, sref.bucket).ok()?;
        let base = co.slot_base(node, sref);
        let stripe = co.stripe(node);
        let lane = stripe.lane_for(base);
        let qp = stripe.lane(lane);
        (qp.in_flight() < co.post_window()).then_some((node, base, lane, qp))
    }

    fn post_read(&mut self, co: &Coordinator, item: usize, sref: SlotRef) -> Option<Posted> {
        let (node, base, lane, qp) = Exec::route(co, sref)?;
        let len = co.map().layout(sref.table).slot_bytes() as usize;
        let id = qp.post_read(base, len).ok()?;
        self.pending.push(Pend { node, lane, id, item });
        Some(Posted { sref, node, cas: None, data: None, lock: Lock::Unresolved })
    }

    /// Post the lock CAS of plan row `item` and, behind it on the same
    /// lane, the full-slot READ: when the CAS wins, the payload *is* the
    /// under-lock pre-image and the second round trip disappears. Losing
    /// the READ is harmless — staging re-reads.
    fn post_lock(
        &mut self,
        co: &Coordinator,
        c: &Commit,
        item: usize,
        sref: SlotRef,
    ) -> Option<Posted> {
        let (node, base, lane, qp) = Exec::route(co, sref)?;
        let cas = qp.post_cas(base + SlotLayout::LOCK_OFF, 0, c.lock.raw()).ok()?;
        self.pending.push(Pend { node, lane, id: cas, item });
        let len = co.map().layout(sref.table).slot_bytes() as usize;
        if let Ok(id) = qp.post_read(base, len) {
            self.pending.push(Pend { node, lane, id, item });
        }
        Some(Posted { sref, node, cas: None, data: None, lock: Lock::Unresolved })
    }

    // -----------------------------------------------------------------
    // Collecting completions: the two drivers
    // -----------------------------------------------------------------

    fn record(plan: &mut [Plan], item: usize, c: Completion) {
        let Some(p) = plan.get_mut(item).and_then(|row| row.posted.as_mut()) else { return };
        match c.verb {
            VerbKind::Cas => p.cas = Some(c.result),
            _ if c.result.is_ok() => p.data = c.data,
            _ => {}
        }
    }

    /// Blocking driver: wait for every posted verb, newest first — the
    /// wait for a lane's last verb delivers the lane, and the earlier
    /// ones are then at hand.
    pub fn wait(&mut self, co: &Coordinator) {
        while let Some(p) = self.pending.pop() {
            let c = co.stripe(p.node).lane(p.lane).wait(p.id);
            Exec::record(&mut self.plan, p.item, c);
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
                    Exec::record(&mut self.plan, p.item, c);
                    self.pending.swap_remove(j);
                    progressed = true;
                }
                None => j += 1,
            }
        }
        progressed
    }

    // -----------------------------------------------------------------
    // Settling
    // -----------------------------------------------------------------

    /// Resolve every posted lock CAS into a definite state *before* any
    /// abort decision: posted effects execute eagerly, so a CAS may have
    /// locked remote state even though this transaction is about to
    /// abort — every such lock must land in `held`, or it leaks a
    /// live-owned lock no recovery will ever steal. The first error is
    /// returned once the whole plan is swept.
    pub fn sweep(&mut self, co: &Coordinator, c: &mut Commit) -> Result<(), TxnError> {
        let mut first_err = None;
        for row in &mut self.plan {
            let unresolved = |p: &&mut Posted| row.writes && p.lock == Lock::Unresolved;
            let Some(p) = row.posted.as_mut().filter(unresolved) else { continue };
            if let Err(e) = classify(co, c, p) {
                first_err.get_or_insert(e);
            }
        }
        let t0 = self.lock_t0.take();
        self.lock_time(t0);
        first_err.map_or(Ok(()), Err)
    }

    /// Run plan row `i` down the ladder. `Ok(Some(value))` is a read's
    /// result (`None` = key absent); write-class operations return
    /// `Ok(None)` once their entry is staged. Errors are raw.
    pub fn settle(
        &mut self,
        co: &mut Coordinator,
        c: &mut Commit,
        i: usize,
        op: Op<'_>,
    ) -> Result<Option<Vec<u8>>, TxnError> {
        let posted = self.plan[i].posted.take();
        if op.is_read() {
            read(co, c, op, posted)
        } else {
            self.stage(co, c, i, op, posted).map(|()| None)
        }
    }

    /// The write ladder: lock the key's slot, authenticate it from the
    /// image read under the lock, stage the write-set entry.
    fn stage(
        &mut self,
        co: &mut Coordinator,
        c: &mut Commit,
        i: usize,
        op: Op<'_>,
        posted: Option<Posted>,
    ) -> Result<(), TxnError> {
        let (table, key, kind) = (op.table, op.key, op.write_kind());
        if key == u64::MAX {
            return aborted(AbortReason::InvalidKey);
        }
        if let Some(w) = c.write_set.iter_mut().find(|w| w.table == table && w.key == key) {
            return restage(co, w, op);
        }
        let bugs = co.ctx.config.bugs;
        // A lock taken on the cached slot (ours or not) stands in for
        // resolve and lock alike: the one posted ahead, or — the cache
        // may have learnt the key since, the lane may have room now —
        // one taken here. A posted CAS that never landed starts from
        // the top.
        let mut cached = if posted.is_some() {
            posted.filter(|p| p.lock != Lock::Fresh)
        } else if let Some(sref) = Exec::lock_ahead(co, op) {
            let t0 = co.phase_start();
            let taken = self.lock_now(co, c, i, sref);
            self.lock_time(t0);
            taken?
        } else {
            None
        };
        loop {
            let from_cache = cached.is_some();
            let (sref, locked, img, seen) = match cached.take() {
                Some(p) => {
                    let sref = p.sref;
                    let (locked, img) = take_lock(co, c, key, p)?;
                    (sref, locked, img, None)
                }
                None => {
                    let (sref, seen) = if kind == WriteKind::Insert {
                        claim(co, table, key)?
                    } else {
                        match resolve(co, table, key)? {
                            Some(found) => found,
                            None => return aborted(AbortReason::NotFound),
                        }
                    };
                    // A stray lock may hide a half-made object: a write
                    // goes on to steal it and decides under the lock.
                    let stray = matches!(op.kind, OpKind::Write(_) | OpKind::Update(_))
                        && co.lock_is_stray(seen.image.lock);
                    if !stray {
                        live_for(kind, &seen)?;
                    }
                    // Bug: "Logging without locking" — undo-log before
                    // the lock CAS.
                    if bugs.logging_without_locking {
                        c.write_set.push(entry(co, op, sref, seen.clone()));
                        c.log_early(co)?;
                        c.write_set.pop();
                    }
                    if bugs.relaxed_locks {
                        // Bug: locking is deferred to the commit path,
                        // *after* validation has started (paper §5.1,
                        // litmus 2); the entry is the unlocked view.
                        c.write_set.push(entry(co, op, sref, seen));
                        return Ok(());
                    }
                    // Traditional scheme: one extra lock-intent logging
                    // round trip per lock, *before* the lock is taken
                    // (paper §6.1).
                    if co.ctx.config.protocol.uses_lock_intents() {
                        c.write_set.push(entry(co, op, sref, seen.clone()));
                        c.log_intents(co)?;
                        c.write_set.pop();
                    }
                    let t0 = co.phase_start();
                    let got = self.lock(co, c, i, sref, key);
                    self.lock_time(t0);
                    let (locked, img) = got?;
                    (sref, locked, img, Some(seen))
                }
            };
            if !locked {
                // FORD's complicit-aborts bug: the failed-to-lock object
                // is already part of the write-set, and the abort path
                // releases its lock even though this transaction never
                // acquired it (§5.1).
                if let Some(seen) = seen.filter(|_| bugs.complicit_abort) {
                    c.write_set.push(entry(co, op, sref, seen));
                }
                return aborted(AbortReason::LockConflict);
            }
            // The authoritative pre-image is the one read under the
            // lock: the READ that rode the lock CAS's lane, or a fresh
            // blocking re-read when there is none to offer.
            let full = match img {
                Some(buf) => parse_full_slot(co.map().layout(table), &buf),
                None => co.read_full_slot(co.primary_of(table, sref.bucket)?, sref)?,
            };
            if full.key == dkvs::layout::stored_key(key) {
                return finish(co, c, op, sref, full);
            }
            if !from_cache {
                // A racing inserter's duplicate-claim cleanup cleared
                // the key word between resolve and lock; retryable.
                return aborted(AbortReason::LockConflict);
            }
            // Stale cache entry: the slot belongs to someone else now.
            // Hand the briefly held lock back and resolve afresh.
            release(co, c, sref);
            if co.injector.is_crashed() {
                return Err(TxnError::Crashed);
            }
            co.addr_cache.remove(&(table, key));
        }
    }

    /// Take the lock of `sref` for plan row `i` from inside the ladder:
    /// CAS and under-lock READ on one lane when its window has room, the
    /// blocking CAS otherwise; then, in the stall study (§6.4), wait for
    /// a conflicting lock instead of aborting. Returns whether the lock
    /// is held, and the under-lock image if the READ delivered one.
    fn lock(
        &mut self,
        co: &mut Coordinator,
        c: &mut Commit,
        i: usize,
        sref: SlotRef,
        key: u64,
    ) -> Result<(bool, Option<Vec<u8>>), TxnError> {
        let (mut locked, img) = match self.lock_now(co, c, i, sref)? {
            Some(p) => take_lock(co, c, key, p)?,
            None => (try_lock(co, c, sref, key)?, None),
        };
        if !locked && co.ctx.config.stall_on_conflict {
            // A stray lock resolves only when recovery completes, which
            // is what the fig. 13/14 sensitivity study measures.
            let deadline = Instant::now() + co.ctx.config.stall_limit;
            while !locked && Instant::now() < deadline {
                if co.ctx.pause.pause_requested() {
                    return aborted(AbortReason::Paused);
                }
                std::thread::yield_now();
                locked = try_lock(co, c, sref, key)?;
            }
        }
        Ok((locked, img))
    }

    /// Post the lock of plan row `i` at `sref`, wait for it and classify
    /// it. `None` when the lane had no room or the CAS never landed.
    fn lock_now(
        &mut self,
        co: &Coordinator,
        c: &mut Commit,
        i: usize,
        sref: SlotRef,
    ) -> Result<Option<Posted>, TxnError> {
        let Some(p) = self.post_lock(co, c, i, sref) else { return Ok(None) };
        self.plan[i].posted = Some(p);
        self.wait(co);
        let mut p = self.plan[i].posted.take().expect("posted above");
        classify(co, c, &mut p)?;
        Ok(Some(p).filter(|p| p.lock != Lock::Fresh))
    }
}

/// Classify a posted lock CAS (`p.cas`) into `p.lock`, keeping the
/// fused image only behind a clean win; a lock that is ours joins
/// `held`. An ambiguously timed-out CAS is resolved by re-reading the
/// word when it is unique to this (incarnation, transaction) — own word
/// ⇒ it landed, foreign ⇒ a conflict, zero ⇒ it never did; re-CASing
/// blindly would misread our own landed word as a foreign lock and leak
/// it. Anonymous words (FORD, Traditional, PILL off) carry no identity:
/// there the ambiguity surfaces as the timeout it is.
fn classify(co: &Coordinator, c: &mut Commit, p: &mut Posted) -> Result<(), TxnError> {
    p.lock = Lock::Fresh;
    let cas = p.cas.take();
    if !matches!(cas, Some(Ok(0))) {
        p.data = None;
    }
    p.lock = match cas {
        Some(Ok(0)) => Lock::Held,
        Some(Ok(prev)) => Lock::Conflict(prev),
        Some(Err(RdmaError::Timeout { applied: TimeoutApplied::Ambiguous }))
            if co.ctx.config.pill_active() =>
        {
            let addr = co.lock_addr(p.node, p.sref);
            let cur =
                co.retry_verb(|| co.qp(p.node).read_u64(addr)).map_err(TxnError::from_rdma)?;
            if cur != 0 {
                co.ctx.resilience.ambiguous_resolved.fetch_add(1, Ordering::Relaxed);
            }
            match cur {
                0 => Lock::Fresh,
                cur if cur == c.lock.raw() => Lock::Held,
                cur => Lock::Conflict(cur),
            }
        }
        // The verb never executed (or was never posted).
        Some(Err(RdmaError::Timeout { applied: TimeoutApplied::NotApplied })) | None => Lock::Fresh,
        Some(Err(e)) => return Err(TxnError::from_rdma(e)),
    };
    if p.lock == Lock::Held {
        c.held.push(p.sref);
    }
    Ok(())
}

/// What a classified posted lock gives the ladder: held (with the image
/// of a clean win) or, on a conflict, whatever stealing makes of it.
fn take_lock(
    co: &mut Coordinator,
    c: &mut Commit,
    key: u64,
    p: Posted,
) -> Result<(bool, Option<Vec<u8>>), TxnError> {
    match p.lock {
        Lock::Held => {
            c.trace(TxnEvent::Lock { table: p.sref.table, key, stolen: false });
            Ok((true, p.data))
        }
        Lock::Conflict(prev) => Ok((lock_after_conflict(co, c, p.sref, key, prev)?, None)),
        Lock::Unresolved | Lock::Fresh => unreachable!("no lock outcome to take"),
    }
}

/// CAS-lock the primary of `sref` (blocking); steal stray locks under
/// PILL. `Ok(false)` = lock conflict with a live owner. `pub(crate)` for
/// the relaxed-locks bug, which locks from the commit path.
///
/// Both CASes run through [`Coordinator::cas_resolved`]: a PILL lock
/// word is unique per incarnation *and* transaction (see
/// [`Coordinator::lock_for`]), so an ambiguous timeout is resolved by
/// re-reading the word; an anonymous word's ambiguity surfaces as a
/// clean `NetworkTimeout` abort instead — exactly the availability gap
/// PILL's named locks close.
pub(crate) fn try_lock(
    co: &mut Coordinator,
    c: &mut Commit,
    sref: SlotRef,
    key: u64,
) -> Result<bool, TxnError> {
    let primary = co.primary_of(sref.table, sref.bucket)?;
    let unique = co.ctx.config.pill_active();
    let prev = co
        .cas_resolved(primary, co.lock_addr(primary, sref), 0, c.lock.raw(), unique)
        .map_err(TxnError::from_rdma)?;
    if prev == 0 {
        c.trace(TxnEvent::Lock { table: sref.table, key, stolen: false });
        c.held.push(sref);
        return Ok(true);
    }
    lock_after_conflict(co, c, sref, key, prev)
}

/// Tail of every lock path once a CAS observed `prev != 0`: steal a
/// stray lock or report the conflict (a sibling slot's lock is a live
/// conflict like any other coordinator's).
fn lock_after_conflict(
    co: &mut Coordinator,
    c: &mut Commit,
    sref: SlotRef,
    key: u64,
    prev: u64,
) -> Result<bool, TxnError> {
    let prev_lock = LockWord(prev);
    if co.lock_is_stray(prev_lock) && prev_lock != c.lock {
        // Steal: one extra CAS, owner-checked so a concurrent thief
        // cannot double-steal (paper §3.1.2 "How does stealing work?").
        let primary = co.primary_of(sref.table, sref.bucket)?;
        let unique = co.ctx.config.pill_active();
        let got = co
            .cas_resolved(primary, co.lock_addr(primary, sref), prev, c.lock.raw(), unique)
            .map_err(TxnError::from_rdma)?;
        if got == prev {
            co.stats.locks_stolen += 1;
            c.trace(TxnEvent::Lock { table: sref.table, key, stolen: true });
            c.held.push(sref);
            return Ok(true);
        }
    }
    c.trace(TxnEvent::LockConflict { table: sref.table, key, owner: prev_lock.owner() });
    Ok(false)
}

/// Hand back one held lock mid-execution (stale-cache path).
fn release(co: &Coordinator, c: &mut Commit, sref: SlotRef) {
    if let Some(p) = c.held.iter().position(|&h| h == sref) {
        c.held.swap_remove(p);
    }
    if let Ok(primary) = co.primary_of(sref.table, sref.bucket) {
        co.release_lock_or_fence(primary, co.lock_addr(primary, sref), c.lock, c.txn_id);
    }
}

/// Is the object in the state the operation needs — live for an update
/// or delete, absent (tombstoned or claimed-but-unwritten) for an
/// insert?
fn live_for(kind: WriteKind, full: &FullSlot) -> Result<(), TxnError> {
    match (kind, full.image.version.is_present()) {
        (WriteKind::Insert, true) => aborted(AbortReason::AlreadyExists),
        (WriteKind::Update | WriteKind::Delete, false) => aborted(AbortReason::NotFound),
        _ => Ok(()),
    }
}

/// Post-lock staging. The key word has been verified under the lock;
/// check continuity with this transaction's own earlier read of the key
/// and the entry's liveness, then stage the write-set entry. On failure
/// the lock stays in `held` for the abort path.
fn finish(
    co: &Coordinator,
    c: &mut Commit,
    op: Op<'_>,
    sref: SlotRef,
    full: FullSlot,
) -> Result<(), TxnError> {
    let read = c.read_set.iter().find(|r| r.table == op.table && r.key == op.key);
    if read.is_some_and(|r| r.version != full.image.version) {
        return aborted(AbortReason::ValidationVersion);
    }
    live_for(op.write_kind(), &full)?;
    c.write_set.push(entry(co, op, sref, full));
    // Bug: "Lost decision" — FORD logs during execution, before the
    // decision, and aborts leave the log behind (paper §3.1.3).
    if co.ctx.config.bugs.lost_decision {
        c.log_early(co)?;
    }
    Ok(())
}

/// The write-set entry `op` makes of the slot image `full` — the
/// under-lock image, or the unlocked view of the bug reproductions and
/// the intent log.
fn entry(co: &Coordinator, op: Op<'_>, sref: SlotRef, full: FullSlot) -> WriteEntry {
    let kind = op.write_kind();
    let old_version = full.image.version;
    let old = full.image.value;
    let new_value = match op.kind {
        OpKind::Write(v) | OpKind::Insert(v) => co.pad_value(op.table, v),
        OpKind::Update(f) => {
            co.pad_value(op.table, &f(&old[..co.map().layout(op.table).value_len]))
        }
        // A delete stages its own pre-image; apply skips the value.
        OpKind::Delete => pad8(old.clone()),
        OpKind::Read => unreachable!("a read stages no entry"),
    };
    WriteEntry {
        table: op.table,
        key: op.key,
        slot: sref,
        old_version,
        new_version: match kind {
            WriteKind::Delete => old_version.next_delete(),
            _ => old_version.next_write(),
        },
        old_value: pad8(old),
        new_value,
        kind,
    }
}

/// A second write-class operation on a key this transaction already
/// staged (and locked) edits the entry in place.
fn restage(co: &Coordinator, w: &mut WriteEntry, op: Op<'_>) -> Result<(), TxnError> {
    let deleted = w.kind == WriteKind::Delete;
    match op.kind {
        // This transaction deleted the key: it reads as absent, and
        // re-creating it takes an insert.
        OpKind::Write(_) | OpKind::Update(_) | OpKind::Delete if deleted => {
            return aborted(AbortReason::NotFound)
        }
        OpKind::Insert(_) if !deleted => return aborted(AbortReason::AlreadyExists),
        OpKind::Write(v) => w.new_value = co.pad_value(w.table, v),
        OpKind::Update(f) => {
            let len = co.map().layout(w.table).value_len;
            w.new_value = co.pad_value(w.table, &f(&w.new_value[..len]));
        }
        OpKind::Insert(v) => {
            // Insert over this transaction's own delete: if the
            // pre-image was live this nets out to an update; a fresh or
            // tombstoned slot stays an insert (backups must get the key).
            w.kind = if w.old_version.is_present() { WriteKind::Update } else { WriteKind::Insert };
            w.new_version = w.old_version.next_write();
            w.new_value = co.pad_value(w.table, v);
        }
        OpKind::Delete => {
            // An update or insert nets out to a delete; an insert's
            // claimed slot is kept and tombstoned at commit.
            w.kind = WriteKind::Delete;
            w.new_version = w.old_version.next_delete();
        }
        OpKind::Read => unreachable!("a read stages no entry"),
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Reads and the index
// ---------------------------------------------------------------------

/// The read ladder. `None` = key absent: no read-set entry is recorded —
/// like FORD, the protocol offers no phantom protection for absent
/// reads.
fn read(
    co: &mut Coordinator,
    c: &mut Commit,
    op: Op<'_>,
    posted: Option<Posted>,
) -> Result<Option<Vec<u8>>, TxnError> {
    let (table, key) = (op.table, op.key);
    if key == u64::MAX {
        return Ok(None); // reserved key can never exist
    }
    let layout = co.map().layout(table);
    if let Some(w) = c.write_set.iter().find(|w| w.table == table && w.key == key) {
        return Ok(match w.kind {
            WriteKind::Delete => None,
            _ => Some(w.new_value[..layout.value_len].to_vec()),
        });
    }
    if let Some(r) = c.read_set.iter().find(|r| r.table == table && r.key == key) {
        return Ok(Some(r.value.clone()));
    }
    let mut found = None;
    if let Some(Posted { sref, data: Some(buf), .. }) = posted {
        let full = parse_full_slot(layout, &buf);
        if full.key == dkvs::layout::stored_key(key) {
            found = Some((sref, full));
        } else {
            // The cached slot no longer holds the key.
            co.addr_cache.remove(&(table, key));
        }
    }
    let (sref, mut full) = match found {
        Some(found) => found,
        None => match resolve(co, table, key)? {
            Some(found) => found,
            None => return Ok(None),
        },
    };
    // Retry while locked by a live owner: a locked object is being
    // committed and its value may be mid-update. Under PILL two words
    // are told apart — this transaction's own (a later write's eagerly
    // executed CAS; the value is still the pre-image until apply) reads
    // as unlocked, and another live lock of this coordinator-id is a
    // sibling slot's, which cannot advance while this thread re-reads:
    // waiting it out would burn the whole retry budget with every slot
    // stalled, so give way at once.
    let pill = co.ctx.config.pill_active();
    let mut tries = 0u32;
    loop {
        let lock = full.image.lock;
        if !lock.is_locked() || co.lock_is_stray(lock) || (pill && lock == c.lock) {
            break;
        }
        tries += 1;
        if (pill && lock.owner() == co.coord_id) || tries > co.ctx.config.read_lock_retries {
            return aborted(AbortReason::LockConflict);
        }
        if co.ctx.pause.pause_requested() {
            return aborted(AbortReason::Paused);
        }
        std::thread::yield_now();
        full = co.read_full_slot(co.primary_of(table, sref.bucket)?, sref)?;
        if full.key != dkvs::layout::stored_key(key) {
            // The slot was reclaimed under us; treat as absent.
            co.addr_cache.remove(&(table, key));
            return Ok(None);
        }
    }
    if !full.image.version.is_present() {
        return Ok(None);
    }
    let value = full.image.value[..layout.value_len].to_vec();
    c.read_set.push(ReadEntry {
        table,
        key,
        slot: sref,
        version: full.image.version,
        value: value.clone(),
    });
    Ok(Some(value))
}

/// Buckets of `key`'s bounded probe sequence
/// ([`dkvs::table::PROBE_LIMIT`]), home bucket first.
fn probe(co: &Coordinator, table: TableId, key: u64) -> impl Iterator<Item = u64> {
    let def = co.map().table(table);
    let (buckets, home) = (def.buckets, def.bucket_for(key));
    (0..dkvs::table::PROBE_LIMIT.min(buckets)).map(move |p| (home + p) % buckets)
}

/// Locate a key: address-cache fast path (one slot READ + key check)
/// or bucket READs along the probe sequence.
fn resolve(
    co: &mut Coordinator,
    table: TableId,
    key: u64,
) -> Result<Option<(SlotRef, FullSlot)>, TxnError> {
    if let Some(&sref) = co.addr_cache.get(&(table, key)) {
        let full = co.read_full_slot(co.primary_of(table, sref.bucket)?, sref)?;
        if full.key == dkvs::layout::stored_key(key) {
            return Ok(Some((sref, full)));
        }
        co.addr_cache.remove(&(table, key));
    }
    // Collect every matching slot in the probe range: racing inserts
    // can transiently leave DUPLICATE claims for one key (the claim CAS
    // protects a slot, not the key), and a crash can strand a losing
    // claim forever. Prefer a slot with a live or tombstoned value —
    // the authoritative one; fall back to the first (lowest-position)
    // claim — the same deterministic choice every coordinator makes.
    let mut first_claim = None;
    for bucket in probe(co, table, key) {
        let slots = co.read_bucket(co.primary_of(table, bucket)?, table, bucket)?;
        let saw_empty = slots.iter().any(|s| s.key == dkvs::layout::EMPTY_KEY);
        for (i, full) in slots.into_iter().enumerate() {
            if full.key != dkvs::layout::stored_key(key) {
                continue;
            }
            let sref = SlotRef { table, bucket, slot: i as u32 };
            if full.image.version.raw() != 0 {
                first_claim = Some((sref, full));
                break;
            }
            first_claim.get_or_insert((sref, full));
        }
        let settled = first_claim.as_ref().is_some_and(|(_, f)| f.image.version.raw() != 0);
        if settled || saw_empty {
            break; // the key cannot live past an empty slot
        }
    }
    if let Some((sref, _)) = &first_claim {
        co.addr_cache.insert((table, key), *sref);
    }
    Ok(first_claim)
}

/// Find `key`'s slot for an insert, or claim the earliest free one
/// along the probe sequence (CAS on the key word).
fn claim(co: &mut Coordinator, table: TableId, key: u64) -> Result<(SlotRef, FullSlot), TxnError> {
    for _ in 0..=dkvs::table::PROBE_LIMIT {
        if let Some(found) = resolve(co, table, key)? {
            return Ok(found); // live, tombstoned or claimed-but-unwritten
        }
        for bucket in probe(co, table, key) {
            let primary = co.primary_of(table, bucket)?;
            let slots = co.read_bucket(primary, table, bucket)?;
            let Some(free) = slots.iter().position(|s| s.key == dkvs::layout::EMPTY_KEY) else {
                continue; // bucket full; spill to the next
            };
            let sref = SlotRef { table, bucket, slot: free as u32 };
            // A stored key is unique to the claimer's (key, slot)
            // choice, so an ambiguous claim CAS is resolvable by
            // re-reading the key word. (Two inserters of the *same* key
            // racing on the same slot produce the same word; the wrong
            // "I won" conclusion is caught by the lock CAS.)
            let prev = co
                .cas_resolved(
                    primary,
                    co.slot_base(primary, sref) + SlotLayout::KEY_OFF,
                    dkvs::layout::EMPTY_KEY,
                    dkvs::layout::stored_key(key),
                    true,
                )
                .map_err(TxnError::from_rdma)?;
            if prev != 0 {
                // Lost the race for this slot; restart the whole probe
                // (the key itself may have been claimed by a peer).
                break;
            }
            // Claimed — but a racing inserter may have claimed a
            // DIFFERENT slot for the same key concurrently. Re-scan the
            // probe range; on a duplicate the lowest-position claim
            // wins (the rule resolve() uses), a live value always.
            match dedup_claim(co, table, key, sref)? {
                ClaimOutcome::Winner => {
                    let full = co.read_full_slot(primary, sref)?;
                    co.addr_cache.insert((table, key), sref);
                    return Ok((sref, full));
                }
                // Our claim was released; retry against the winner's
                // slot via resolve().
                ClaimOutcome::LostToClaim => break,
                ClaimOutcome::LostToValue => return aborted(AbortReason::AlreadyExists),
            }
        }
    }
    aborted(AbortReason::BucketFull)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClaimOutcome {
    Winner,
    LostToClaim,
    LostToValue,
}

/// Resolve duplicate claims for `key` after winning the claim CAS on
/// `mine`. Scans the probe range; if another slot holds the same key: a
/// slot with a non-zero version wins outright (committed value),
/// otherwise the lowest (probe, slot) position wins. A losing claim is
/// released by clearing its key word — any racer that already locked
/// the losing slot fails the ladder's key check and aborts cleanly.
fn dedup_claim(
    co: &Coordinator,
    table: TableId,
    key: u64,
    mine: SlotRef,
) -> Result<ClaimOutcome, TxnError> {
    let my_pos = probe(co, table, key).position(|b| b == mine.bucket).map(|p| (p, mine.slot));
    for (p, bucket) in probe(co, table, key).enumerate() {
        let slots = co.read_bucket(co.primary_of(table, bucket)?, table, bucket)?;
        let saw_empty = slots.iter().any(|s| s.key == dkvs::layout::EMPTY_KEY);
        for (i, full) in slots.into_iter().enumerate() {
            let here = SlotRef { table, bucket, slot: i as u32 };
            if here == mine || full.key != dkvs::layout::stored_key(key) {
                continue;
            }
            let valued = full.image.version.raw() != 0;
            if valued || my_pos.is_none_or(|mp| (p, i as u32) < mp) {
                let pm = co.primary_of(table, mine.bucket)?;
                let addr = co.slot_base(pm, mine) + SlotLayout::KEY_OFF;
                co.retry_verb(|| co.qp(pm).write_u64(addr, dkvs::layout::EMPTY_KEY))
                    .map_err(TxnError::from_rdma)?;
                return Ok(if valued {
                    ClaimOutcome::LostToValue
                } else {
                    ClaimOutcome::LostToClaim
                });
            }
            // We are the lowest so far; the other claimer's own dedup
            // pass will release theirs.
        }
        if saw_empty {
            break;
        }
    }
    Ok(ClaimOutcome::Winner)
}
