//! The transaction: the interactive execute phase, and the blocking
//! driver of the commit pipeline (paper §2.3 for FORD, §3.1.5 for
//! Pandora's phase summary).
//!
//! * **Execution** (here) — reads fetch `[key][lock][version][value]` in
//!   one READ; writes eagerly lock (CAS) the primary and re-read the
//!   object under the lock (the lock-then-read order forced by RC
//!   ordering, §3.1.1 "What's the problem?"). Under PILL, a failed CAS
//!   whose owner is in the failed-ids is *stolen* with a second CAS
//!   (§3.1.2). With `pipeline_depth > 1` the lock CAS pipelines the
//!   under-lock re-read behind itself on the same QP.
//! * **Validate → log → apply → ack → unlock, and abort** — the shared
//!   pipeline of `crate::commit`. [`Txn::commit`] drives it to
//!   completion with one completion barrier per phase;
//!   [`Txn::abort`] and `Drop` run its abort path. The interleaved
//!   scheduler ([`crate::sched`]) drives the same machine by polling.
//!
//! The read/write sets, the list of held locks and the log bookkeeping
//! live in the transaction's `Commit` state from the first operation
//! on, so nothing is handed over at commit time.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dkvs::hash::FxHashMap;
use dkvs::{LockWord, SlotLayout, SlotRef, TableId, VersionWord};
use rdma_sim::{NodeId, RdmaError, TimeoutApplied};

use crate::commit::{Commit, Phase};
use crate::coordinator::{parse_full_slot, Coordinator, FullSlot};
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClaimOutcome {
    Winner,
    LostToClaim,
    LostToValue,
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
    done: bool,
    /// Execution-phase start; `Some` only when phase stats are attached,
    /// so the untimed path pays nothing but an `Option` check.
    started: Option<Instant>,
    /// Cumulative write-lock acquisition time (CAS loops, PILL steals),
    /// accounted to the lock phase rather than execute.
    lock_elapsed: Duration,
}

impl<'c> Txn<'c> {
    pub(crate) fn new(co: &'c mut Coordinator, txn_id: u64) -> Txn<'c> {
        let started = co.phase_start();
        let c = Commit::new(txn_id, 0, co.my_lock(), false, None);
        Txn { co, c, done: false, started, lock_elapsed: Duration::ZERO }
    }

    pub fn id(&self) -> u64 {
        self.c.txn_id
    }

    #[inline]
    fn check_pause(&mut self) -> Result<(), TxnError> {
        if self.co.ctx.pause.pause_requested() {
            return Err(self.abort_now(AbortReason::Paused));
        }
        Ok(())
    }

    /// Emit the whole-transaction flight span (begin → commit/abort
    /// ack). Consumes `started`, so the span fires exactly once no
    /// matter which exit path (commit, abort, drop) runs last.
    fn emit_txn_span(&mut self, ok: bool) {
        if let Some(f) = &self.co.flight {
            if f.enabled() {
                if let Some(t0) = self.started.take() {
                    f.end_from_instant("txn", self.c.txn_id, t0, ok);
                }
            }
        }
    }

    /// Map an exhausted-transient fabric error (`RdmaError::Timeout`
    /// after the retry budget ran out) into a clean [`NetworkTimeout`]
    /// abort — locks released, logs truncated, abort-ack delivered —
    /// so callers see an ordinary retryable abort, never a panic or a
    /// stuck lock. Every other outcome passes through unchanged.
    ///
    /// [`NetworkTimeout`]: AbortReason::NetworkTimeout
    fn surface_transient<T>(&mut self, r: Result<T, TxnError>) -> Result<T, TxnError> {
        match r {
            Err(TxnError::Rdma(RdmaError::Timeout { .. })) => {
                Err(self.abort_now(AbortReason::NetworkTimeout))
            }
            other => other,
        }
    }

    // ---------------------------------------------------------------
    // Execution phase: reads
    // ---------------------------------------------------------------

    /// Transactional read. `None` = key absent (or deleted).
    pub fn read(&mut self, table: TableId, key: u64) -> Result<Option<Vec<u8>>, TxnError> {
        let r = self.read_impl(table, key);
        self.surface_transient(r)
    }

    fn read_impl(&mut self, table: TableId, key: u64) -> Result<Option<Vec<u8>>, TxnError> {
        self.check_pause()?;
        if key == u64::MAX {
            return Ok(None); // reserved key can never exist
        }
        if let Some(w) = self.c.write_set.iter().find(|w| w.table == table && w.key == key) {
            let layout = self.co.map().layout(table);
            return Ok(match w.kind {
                WriteKind::Delete => None,
                _ => Some(w.new_value[..layout.value_len].to_vec()),
            });
        }
        if let Some(r) = self.c.read_set.iter().find(|r| r.table == table && r.key == key) {
            return Ok(Some(r.value.clone()));
        }
        let Some((slot, full)) = self.resolve(table, key)? else {
            // Absent key: no read-set entry is recorded — like FORD, the
            // protocol offers no phantom protection for absent reads.
            return Ok(None);
        };
        self.finish_read(table, key, slot, full)
    }

    /// Tail of a read once the slot image is in hand (from [`Txn::resolve`]
    /// or a fanned-out range prefetch): wait out live locks, then record
    /// the read-set entry.
    fn finish_read(
        &mut self,
        table: TableId,
        key: u64,
        slot: SlotRef,
        mut full: FullSlot,
    ) -> Result<Option<Vec<u8>>, TxnError> {
        // Retry while locked by a live owner (a locked object is being
        // committed; its value may be mid-update).
        let mut tries = 0u32;
        loop {
            let lock = full.image.lock;
            if !lock.is_locked() || self.co.lock_is_stray(lock) {
                break;
            }
            tries += 1;
            if tries > self.co.ctx.config.read_lock_retries {
                return Err(self.abort_now(AbortReason::LockConflict));
            }
            if self.co.ctx.pause.pause_requested() {
                return Err(self.abort_now(AbortReason::Paused));
            }
            std::thread::yield_now();
            let primary = self.co.primary_of(table, slot.bucket)?;
            full = self.co.read_full_slot(primary, slot)?;
            if full.key != dkvs::layout::stored_key(key) {
                // The slot was reclaimed under us; treat as absent.
                self.co.addr_cache.remove(&(table, key));
                return Ok(None);
            }
        }
        if !full.image.version.is_present() {
            return Ok(None);
        }
        let layout = self.co.map().layout(table);
        let value = full.image.value[..layout.value_len].to_vec();
        self.c.read_set.push(ReadEntry {
            table,
            key,
            slot,
            version: full.image.version,
            value: value.clone(),
        });
        Ok(Some(value))
    }

    /// Client-side range read over a dense key range (the DKVS hash index
    /// has no order; ReadRange is provided as an API convenience for
    /// workloads with dense key spaces — see DESIGN.md).
    ///
    /// With pipelining on, every address-cached key's full-slot READ is
    /// posted up front across the primaries and collected at one
    /// completion barrier; keys that miss the cache — or whose
    /// prefetched slot no longer holds them — take the ordinary blocking
    /// [`Txn::read`] path one at a time.
    pub fn read_range(
        &mut self,
        table: TableId,
        keys: std::ops::Range<u64>,
    ) -> Result<Vec<(u64, Vec<u8>)>, TxnError> {
        let mut prefetched: FxHashMap<u64, (SlotRef, FullSlot)> = FxHashMap::default();
        if self.co.pipelining_on() {
            let mut items: Vec<(u64, SlotRef, NodeId)> = Vec::new();
            for key in keys.clone() {
                if key == u64::MAX
                    || self.c.write_set.iter().any(|w| w.table == table && w.key == key)
                    || self.c.read_set.iter().any(|r| r.table == table && r.key == key)
                {
                    continue; // served locally by read()
                }
                let Some(&slot) = self.co.addr_cache.get(&(table, key)) else { continue };
                let Ok(primary) = self.co.primary_of(table, slot.bucket) else { continue };
                items.push((key, slot, primary));
            }
            if items.len() > 1 {
                let layout = self.co.map().layout(table);
                let outcomes = self.co.fanout(
                    &items,
                    |&(_, slot, node)| {
                        (node, self.co.map().slot_addr(node, table, slot.bucket, slot.slot))
                    },
                    |qp, &(_, slot, node), ids| {
                        let addr = self.co.map().slot_addr(node, table, slot.bucket, slot.slot);
                        ids.push(qp.post_read(addr, layout.slot_bytes() as usize)?);
                        Ok(())
                    },
                );
                for (o, &(key, slot, _)) in outcomes.into_iter().zip(&items) {
                    if o.result.is_ok() {
                        if let Some(buf) = o.data {
                            prefetched.insert(key, (slot, parse_full_slot(layout, &buf)));
                        }
                    }
                }
            }
        }
        let mut out = Vec::new();
        for key in keys {
            let v = match prefetched.remove(&key) {
                Some((slot, full)) if full.key == dkvs::layout::stored_key(key) => {
                    self.check_pause()?;
                    let r = self.finish_read(table, key, slot, full);
                    self.surface_transient(r)?
                }
                Some(_) => {
                    // The slot was reclaimed between caching and the
                    // prefetch barrier; drop the stale mapping and take
                    // the slow path (as the resolve() fast path would).
                    self.co.addr_cache.remove(&(table, key));
                    self.read(table, key)?
                }
                None => self.read(table, key)?,
            };
            if let Some(v) = v {
                out.push((key, v));
            }
        }
        Ok(out)
    }

    /// Locate a key: address-cache fast path (one slot READ + key check)
    /// or bucket READs along the bounded probe sequence
    /// ([`dkvs::table::PROBE_LIMIT`]).
    fn resolve(
        &mut self,
        table: TableId,
        key: u64,
    ) -> Result<Option<(SlotRef, crate::coordinator::FullSlot)>, TxnError> {
        if let Some(&slot) = self.co.addr_cache.get(&(table, key)) {
            let primary = self.co.primary_of(table, slot.bucket)?;
            let full = self.co.read_full_slot(primary, slot)?;
            if full.key == dkvs::layout::stored_key(key) {
                return Ok(Some((slot, full)));
            }
            self.co.addr_cache.remove(&(table, key));
        }
        let (buckets, home) = {
            let def = self.co.map().table(table);
            (def.buckets, def.bucket_for(key))
        };
        // Collect every matching slot in the probe range: racing inserts
        // can transiently leave DUPLICATE claims for one key (the claim
        // CAS protects a slot, not the key), and a crash can strand a
        // losing claim forever. Prefer a slot with a live value; fall
        // back to the first (lowest-position) claim — the same
        // deterministic choice every coordinator makes.
        let mut first_match: Option<(SlotRef, crate::coordinator::FullSlot)> = None;
        'probe: for p in 0..dkvs::table::PROBE_LIMIT.min(buckets) {
            let bucket = (home + p) % buckets;
            let primary = self.co.primary_of(table, bucket)?;
            let slots = self.co.read_bucket(primary, table, bucket)?;
            let mut saw_empty = false;
            for (i, full) in slots.into_iter().enumerate() {
                if full.key == dkvs::layout::EMPTY_KEY {
                    saw_empty = true;
                    continue;
                }
                if full.key == dkvs::layout::stored_key(key) {
                    let slot = SlotRef { table, bucket, slot: i as u32 };
                    if full.image.version.raw() != 0 {
                        // Live or tombstoned value: authoritative slot.
                        self.co.addr_cache.insert((table, key), slot);
                        return Ok(Some((slot, full)));
                    }
                    if first_match.is_none() {
                        first_match = Some((slot, full));
                    }
                }
            }
            if saw_empty {
                break 'probe; // the key cannot live past an empty slot
            }
        }
        if let Some((slot, full)) = first_match {
            self.co.addr_cache.insert((table, key), slot);
            return Ok(Some((slot, full)));
        }
        Ok(None)
    }

    // ---------------------------------------------------------------
    // Execution phase: writes / inserts / deletes
    // ---------------------------------------------------------------

    /// Transactional update of an existing key.
    pub fn write(&mut self, table: TableId, key: u64, value: &[u8]) -> Result<(), TxnError> {
        let r = self.write_impl(table, key, value);
        self.surface_transient(r)
    }

    fn write_impl(&mut self, table: TableId, key: u64, value: &[u8]) -> Result<(), TxnError> {
        self.check_pause()?;
        if key == u64::MAX {
            return Err(self.abort_now(AbortReason::InvalidKey));
        }
        let new_value = self.co.pad_value(table, value);
        if self
            .c
            .write_set
            .iter()
            .any(|w| w.table == table && w.key == key && w.kind == WriteKind::Delete)
        {
            // This txn already deleted the key: it reads as absent, so a
            // write is NotFound (re-creating it requires an insert).
            return Err(self.abort_now(AbortReason::NotFound));
        }
        if let Some(w) = self.c.write_set.iter_mut().find(|w| w.table == table && w.key == key) {
            w.new_value = new_value;
            return Ok(());
        }
        let mut new_value = new_value;
        if self.lock_read_fast_path() {
            if let Some(&slot) = self.co.addr_cache.get(&(table, key)) {
                match self.stage_locked_write_cached(
                    table,
                    key,
                    slot,
                    new_value,
                    WriteKind::Update,
                )? {
                    None => return Ok(()),
                    Some(v) => new_value = v, // stale cache: fall through to resolve
                }
            }
        }
        let Some((slot, full)) = self.resolve(table, key)? else {
            return Err(self.abort_now(AbortReason::NotFound));
        };
        if !full.image.version.is_present() && !self.co.lock_is_stray(full.image.lock) {
            return Err(self.abort_now(AbortReason::NotFound));
        }
        self.stage_locked_write(table, key, slot, full, new_value, WriteKind::Update)
    }

    /// Transactional insert of a new key.
    pub fn insert(&mut self, table: TableId, key: u64, value: &[u8]) -> Result<(), TxnError> {
        let r = self.insert_impl(table, key, value);
        self.surface_transient(r)
    }

    fn insert_impl(&mut self, table: TableId, key: u64, value: &[u8]) -> Result<(), TxnError> {
        self.check_pause()?;
        if key == u64::MAX {
            return Err(self.abort_now(AbortReason::InvalidKey));
        }
        let new_value = self.co.pad_value(table, value);
        if let Some(w) = self.c.write_set.iter_mut().find(|w| w.table == table && w.key == key) {
            if w.kind != WriteKind::Delete {
                return Err(self.abort_now(AbortReason::AlreadyExists));
            }
            // Insert over this txn's own delete: revive the entry. If the
            // pre-image was live this nets out to an update; a fresh or
            // tombstoned slot stays an insert (backups must get the key).
            w.kind = if w.old_version.is_present() { WriteKind::Update } else { WriteKind::Insert };
            w.new_version = w.old_version.next_write();
            w.new_value = new_value;
            return Ok(());
        }
        let (buckets, home) = {
            let def = self.co.map().table(table);
            (def.buckets, def.bucket_for(key))
        };

        // Find the key's slot or claim the earliest free one along the
        // probe sequence (CAS on the key word).
        let mut claim_attempts = 0;
        let (slot, full) = 'claimed: loop {
            if let Some((slot, full)) = self.resolve(table, key)? {
                if full.image.version.is_present() {
                    return Err(self.abort_now(AbortReason::AlreadyExists));
                }
                break (slot, full); // tombstone or claimed-but-unwritten: revive
            }
            for p in 0..dkvs::table::PROBE_LIMIT.min(buckets) {
                let bucket = (home + p) % buckets;
                let primary = self.co.primary_of(table, bucket)?;
                let slots = self.co.read_bucket(primary, table, bucket)?;
                let Some(free) = slots.iter().position(|s| s.key == dkvs::layout::EMPTY_KEY) else {
                    continue; // bucket full; spill to the next
                };
                let slot = SlotRef { table, bucket, slot: free as u32 };
                let key_addr = self.co.map().slot_addr(primary, table, bucket, free as u32);
                // A stored key is unique to the claimer's (key, slot)
                // choice, so an ambiguous claim CAS is resolvable by
                // re-reading the key word. (Two inserters of the *same*
                // key racing on the same slot produce the same word; the
                // wrong "I won" conclusion is caught by the lock CAS.)
                let prev = self
                    .co
                    .cas_resolved(
                        primary,
                        key_addr,
                        dkvs::layout::EMPTY_KEY,
                        dkvs::layout::stored_key(key),
                        true,
                    )
                    .map_err(TxnError::from_rdma)?;
                if prev == 0 {
                    // Claimed — but a racing inserter may have claimed a
                    // DIFFERENT slot for the same key concurrently (the
                    // CAS protects a slot, not the key). Re-scan the
                    // probe range; on a duplicate, the lowest-position
                    // claim wins (the same deterministic rule resolve()
                    // uses), and a live value always wins.
                    match self.dedup_claim(table, key, slot)? {
                        ClaimOutcome::Winner => {
                            let full = self.co.read_full_slot(primary, slot)?;
                            self.co.addr_cache.insert((table, key), slot);
                            break 'claimed (slot, full);
                        }
                        ClaimOutcome::LostToClaim => {
                            // Our claim was released; retry against the
                            // winner's slot via resolve().
                            continue;
                        }
                        ClaimOutcome::LostToValue => {
                            return Err(self.abort_now(AbortReason::AlreadyExists));
                        }
                    }
                }
                // Lost the race for this slot; restart the whole probe
                // (the key itself may have been claimed by a peer).
                break;
            }
            claim_attempts += 1;
            if claim_attempts > dkvs::table::PROBE_LIMIT {
                return Err(self.abort_now(AbortReason::BucketFull));
            }
        };
        if full.image.version.is_present() {
            return Err(self.abort_now(AbortReason::AlreadyExists));
        }
        self.stage_locked_write(table, key, slot, full, new_value, WriteKind::Insert)
    }

    /// Transactional delete of an existing key.
    pub fn delete(&mut self, table: TableId, key: u64) -> Result<(), TxnError> {
        let r = self.delete_impl(table, key);
        self.surface_transient(r)
    }

    fn delete_impl(&mut self, table: TableId, key: u64) -> Result<(), TxnError> {
        self.check_pause()?;
        if key == u64::MAX {
            return Err(self.abort_now(AbortReason::InvalidKey));
        }
        if let Some(pos) = self.c.write_set.iter().position(|w| w.table == table && w.key == key) {
            let w = &mut self.c.write_set[pos];
            if w.kind == WriteKind::Delete {
                // Already deleted by this txn: the key reads as absent.
                return Err(self.abort_now(AbortReason::NotFound));
            }
            // Update or Insert nets out to a delete. For an insert the
            // slot was already claimed; the delete keeps the claim and
            // tombstones it at commit.
            w.kind = WriteKind::Delete;
            w.new_version = w.old_version.next_delete();
            return Ok(());
        }
        if self.lock_read_fast_path() {
            if let Some(&slot) = self.co.addr_cache.get(&(table, key)) {
                // The staged delete value is the under-lock pre-image;
                // the placeholder is never used.
                if self
                    .stage_locked_write_cached(table, key, slot, Vec::new(), WriteKind::Delete)?
                    .is_none()
                {
                    return Ok(());
                }
            }
        }
        let Some((slot, full)) = self.resolve(table, key)? else {
            return Err(self.abort_now(AbortReason::NotFound));
        };
        if !full.image.version.is_present() {
            return Err(self.abort_now(AbortReason::NotFound));
        }
        let old = full.image.value.clone();
        self.stage_locked_write(table, key, slot, full, old, WriteKind::Delete)
    }

    /// Resolve duplicate claims for `key` after winning the claim CAS on
    /// `mine`. Scans the probe range; if another slot holds the same key:
    /// a slot with a non-zero version wins outright (committed value),
    /// otherwise the lowest (probe, slot) position wins. A losing claim
    /// is released by clearing its key word — any racer that already
    /// locked the losing slot fails the key re-check in
    /// `stage_locked_write` and aborts cleanly.
    fn dedup_claim(
        &mut self,
        table: TableId,
        key: u64,
        mine: SlotRef,
    ) -> Result<ClaimOutcome, TxnError> {
        let (buckets, home) = {
            let def = self.co.map().table(table);
            (def.buckets, def.bucket_for(key))
        };
        let my_pos: Option<(u64, u32)> = (0..dkvs::table::PROBE_LIMIT)
            .position(|p| (home + p) % buckets == mine.bucket)
            .map(|p| (p as u64, mine.slot));
        for p in 0..dkvs::table::PROBE_LIMIT.min(buckets) {
            let bucket = (home + p) % buckets;
            let primary = self.co.primary_of(table, bucket)?;
            let slots = self.co.read_bucket(primary, table, bucket)?;
            let mut saw_empty = false;
            for (i, full) in slots.into_iter().enumerate() {
                let here = SlotRef { table, bucket, slot: i as u32 };
                if here == mine {
                    continue;
                }
                let their_pos: (u64, u32) = (p, i as u32);
                if full.key == dkvs::layout::stored_key(key) {
                    let release_mine = |txn: &Txn<'_>| -> Result<(), TxnError> {
                        let pm = txn.co.primary_of(table, mine.bucket)?;
                        let addr = txn.co.map().slot_addr(pm, table, mine.bucket, mine.slot);
                        txn.co
                            .retry_verb(|| {
                                txn.co
                                    .qp(pm)
                                    .write_u64(addr + SlotLayout::KEY_OFF, dkvs::layout::EMPTY_KEY)
                            })
                            .map_err(TxnError::from_rdma)
                    };
                    if full.image.version.raw() != 0 {
                        release_mine(self)?;
                        return Ok(ClaimOutcome::LostToValue);
                    }
                    if my_pos.is_none_or(|mp| their_pos < mp) {
                        release_mine(self)?;
                        return Ok(ClaimOutcome::LostToClaim);
                    }
                    // We are the lowest so far; the other claimer's own
                    // dedup pass will release theirs.
                }
                if full.key == dkvs::layout::EMPTY_KEY {
                    saw_empty = true;
                }
            }
            if saw_empty {
                break;
            }
        }
        Ok(ClaimOutcome::Winner)
    }

    /// Common tail of write/insert/delete: lock the primary (unless the
    /// relaxed-locks bug defers locking), re-read under the lock, and
    /// stage the write-set entry.
    fn stage_locked_write(
        &mut self,
        table: TableId,
        key: u64,
        slot: SlotRef,
        resolve_image: crate::coordinator::FullSlot,
        new_value: Vec<u8>,
        kind: WriteKind,
    ) -> Result<(), TxnError> {
        let bugs = self.co.ctx.config.bugs;

        // Bug: "Logging without locking" — undo-log before the lock CAS.
        if bugs.logging_without_locking {
            self.push_provisional_entry(table, key, slot, &resolve_image, &new_value, kind);
            self.c.log_early(self.co)?;
            self.c.write_set.pop();
        }

        if bugs.relaxed_locks {
            // Bug: locking is deferred to the commit path, *after*
            // validation has started (paper §5.1, litmus 2).
            self.push_provisional_entry(table, key, slot, &resolve_image, &new_value, kind);
            return Ok(());
        }

        // Traditional scheme: one extra lock-intent logging round trip
        // per lock, *before* the lock is taken (paper §6.1).
        if self.co.ctx.config.protocol.uses_lock_intents() {
            self.push_provisional_entry(table, key, slot, &resolve_image, &new_value, kind);
            self.c.log_intents(self.co)?;
            self.c.write_set.pop();
        }

        let t_lock = self.co.phase_start();
        let (mut locked, mut under_lock) = self.try_lock_read(slot, key)?;
        if !locked && self.co.ctx.config.stall_on_conflict {
            // Stall path (§6.4): wait for the lock instead of aborting —
            // a stray lock resolves only when recovery completes, which
            // is exactly what the fig. 13/14 sensitivity study measures.
            let deadline = std::time::Instant::now() + self.co.ctx.config.stall_limit;
            while !locked && std::time::Instant::now() < deadline {
                if self.co.ctx.pause.pause_requested() {
                    return Err(self.abort_now(AbortReason::Paused));
                }
                std::thread::yield_now();
                locked = self.try_lock(slot, key)?;
            }
        }
        if let Some(t0) = t_lock {
            self.lock_elapsed += t0.elapsed();
        }
        if !locked {
            // FORD's complicit-aborts bug: the failed-to-lock object is
            // already part of the write-set, and the abort path releases
            // its lock even though this txn never acquired it (§5.1).
            if bugs.complicit_abort {
                self.push_provisional_entry(table, key, slot, &resolve_image, &new_value, kind);
            }
            return Err(self.abort_now(AbortReason::LockConflict));
        }
        // The authoritative pre-image is the re-read under the lock —
        // either the READ that rode the lock CAS's barrier, or a fresh
        // blocking re-read when the pipelined path had none to offer.
        let primary = self.co.primary_of(table, slot.bucket)?;
        let full = match under_lock
            .take()
            .map(Ok)
            .unwrap_or_else(|| self.co.read_full_slot(primary, slot))
        {
            Ok(f) => f,
            Err(e) => {
                // Leave the lock for recovery if we crashed; otherwise
                // release it before surfacing the error.
                if !matches!(e, TxnError::Crashed) {
                    self.co.release_lock_or_fence(primary, self.co.lock_addr(primary, slot));
                }
                return Err(e);
            }
        };
        // The slot must still belong to this key: a racing inserter's
        // duplicate-claim cleanup can clear a key word between our
        // resolve and our lock.
        if full.key != dkvs::layout::stored_key(key) {
            self.co.release_lock_or_fence(primary, self.co.lock_addr(primary, slot));
            // Slot repurposed under us; retryable.
            return Err(self.abort_now(AbortReason::LockConflict));
        }
        self.finish_locked_entry(table, key, slot, primary, full, new_value, kind)
    }

    /// Can a write skip the cache-validating resolve READ and let the
    /// READ fused with the lock CAS authenticate the slot instead?
    /// Requires the fan-out path, and none of the machinery that needs
    /// a pre-lock slot image: bug reproductions, the traditional
    /// scheme's lock-intent logging, and the stall loop all inspect or
    /// stage from the resolve image before the lock lands.
    fn lock_read_fast_path(&self) -> bool {
        let c = &self.co.ctx.config;
        self.co.pipelining_on()
            && !c.bugs.any()
            && !c.protocol.uses_lock_intents()
            && !c.stall_on_conflict
    }

    /// Cached-address write fast path: lock the slot the address cache
    /// names and let the under-lock image from the fused CAS+READ
    /// barrier stand in for the resolve read — one round trip per
    /// locked write instead of two. Returns the value back (`Some`)
    /// when the cached slot no longer holds the key, so the caller can
    /// re-resolve along the probe sequence; `None` means staged.
    fn stage_locked_write_cached(
        &mut self,
        table: TableId,
        key: u64,
        slot: SlotRef,
        new_value: Vec<u8>,
        kind: WriteKind,
    ) -> Result<Option<Vec<u8>>, TxnError> {
        let t_lock = self.co.phase_start();
        let (locked, mut under_lock) = self.try_lock_read(slot, key)?;
        if let Some(t0) = t_lock {
            self.lock_elapsed += t0.elapsed();
        }
        if !locked {
            // Conflict on the cached slot: even if the slot was
            // repurposed, LockConflict is the same retryable abort the
            // post-resolve lock race surfaces.
            return Err(self.abort_now(AbortReason::LockConflict));
        }
        let primary = self.co.primary_of(table, slot.bucket)?;
        let full = match under_lock
            .take()
            .map(Ok)
            .unwrap_or_else(|| self.co.read_full_slot(primary, slot))
        {
            Ok(f) => f,
            Err(e) => {
                if !matches!(e, TxnError::Crashed) {
                    self.co.release_lock_or_fence(primary, self.co.lock_addr(primary, slot));
                }
                return Err(e);
            }
        };
        if full.key != dkvs::layout::stored_key(key) {
            // Stale cache entry: the slot belongs to someone else now.
            // Release the (briefly held) lock and re-resolve.
            self.co.release_lock_or_fence(primary, self.co.lock_addr(primary, slot));
            self.co.addr_cache.remove(&(table, key));
            return Ok(Some(new_value));
        }
        self.finish_locked_entry(table, key, slot, primary, full, new_value, kind)
            .map(|()| None)
    }

    /// Post-lock staging shared by the resolve and cached-address
    /// paths. The key word has already been verified under the lock;
    /// check entry liveness and read-set continuity, then stage the
    /// write-set entry.
    #[allow(clippy::too_many_arguments)]
    fn finish_locked_entry(
        &mut self,
        table: TableId,
        key: u64,
        slot: SlotRef,
        primary: NodeId,
        full: crate::coordinator::FullSlot,
        new_value: Vec<u8>,
        kind: WriteKind,
    ) -> Result<(), TxnError> {
        let entry_ok = match kind {
            WriteKind::Update | WriteKind::Delete => full.image.version.is_present(),
            WriteKind::Insert => !full.image.version.is_present(),
        };
        // Continuity with this txn's own earlier read of the same key.
        let read_version_ok = self
            .c
            .read_set
            .iter()
            .find(|r| r.table == table && r.key == key)
            .is_none_or(|r| r.version == full.image.version);
        if !entry_ok || !read_version_ok {
            self.co.release_lock_or_fence(primary, self.co.lock_addr(primary, slot));
            let reason = if !read_version_ok {
                AbortReason::ValidationVersion
            } else if kind == WriteKind::Insert {
                AbortReason::AlreadyExists
            } else {
                AbortReason::NotFound
            };
            return Err(self.abort_now(reason));
        }
        let old_version = full.image.version;
        let new_version = match kind {
            WriteKind::Delete => old_version.next_delete(),
            _ => old_version.next_write(),
        };
        self.c.write_set.push(WriteEntry {
            table,
            key,
            slot,
            old_version,
            new_version,
            old_value: pad8(full.image.value.clone()),
            new_value: if kind == WriteKind::Delete { pad8(full.image.value) } else { new_value },
            kind,
        });
        self.c.held.push(slot);

        // Bug: "Lost decision" — FORD logs during execution, before the
        // decision, and aborts leave the log behind (paper §3.1.3).
        if self.co.ctx.config.bugs.lost_decision {
            self.c.log_early(self.co)?;
        }
        Ok(())
    }

    /// Stage an entry from an *unlocked* resolve image (bug paths and the
    /// traditional scheme's intent logging use this provisional view).
    fn push_provisional_entry(
        &mut self,
        table: TableId,
        key: u64,
        slot: SlotRef,
        image: &crate::coordinator::FullSlot,
        new_value: &[u8],
        kind: WriteKind,
    ) {
        let old_version = image.image.version;
        let new_version = match kind {
            WriteKind::Delete => old_version.next_delete(),
            _ => old_version.next_write(),
        };
        self.c.write_set.push(WriteEntry {
            table,
            key,
            slot,
            old_version,
            new_version,
            old_value: pad8(image.image.value.clone()),
            new_value: if kind == WriteKind::Delete {
                pad8(image.image.value.clone())
            } else {
                new_value.to_vec()
            },
            kind,
        });
    }

    /// CAS-lock the primary of `slot`; steal stray locks under PILL.
    /// `Ok(false)` = lock conflict with a live owner (caller aborts).
    ///
    /// Both CASes run through [`Coordinator::cas_resolved`]: a PILL lock
    /// word is unique per incarnation *and* transaction (see
    /// [`Coordinator::my_lock`]), so an ambiguously-timed-out lock CAS is
    /// resolved by re-reading the word — own word ⇒ the lock landed,
    /// foreign word ⇒ an ordinary conflict. Anonymous lock words
    /// (FORD/Traditional) carry no identity, so the ambiguity is
    /// unresolvable there and surfaces as a clean `NetworkTimeout` abort
    /// instead — exactly the availability gap PILL's named locks close.
    fn try_lock(&mut self, slot: SlotRef, key: u64) -> Result<bool, TxnError> {
        let primary = self.co.primary_of(slot.table, slot.bucket)?;
        let addr = self.co.lock_addr(primary, slot);
        let my = self.co.my_lock();
        let unique = self.co.ctx.config.pill_active();
        let prev = self
            .co
            .cas_resolved(primary, addr, 0, my.raw(), unique)
            .map_err(TxnError::from_rdma)?;
        if prev == 0 {
            self.co
                .trace(crate::trace::TxnEvent::Lock { table: slot.table, key, stolen: false });
            return Ok(true);
        }
        self.lock_after_conflict(slot, key, primary, addr, prev, my, unique)
    }

    /// Shared tail of both lock paths once the lock CAS observed
    /// `prev != 0`: steal a stray lock or report a conflict.
    #[allow(clippy::too_many_arguments)]
    fn lock_after_conflict(
        &mut self,
        slot: SlotRef,
        key: u64,
        primary: NodeId,
        addr: u64,
        prev: u64,
        my: LockWord,
        unique: bool,
    ) -> Result<bool, TxnError> {
        let prev_lock = LockWord(prev);
        if self.co.lock_is_stray(prev_lock) && prev_lock != my {
            // Steal: one extra CAS, owner-checked so a concurrent thief
            // cannot double-steal (paper §3.1.2 "How does stealing work?").
            let got = self
                .co
                .cas_resolved(primary, addr, prev, my.raw(), unique)
                .map_err(TxnError::from_rdma)?;
            if got == prev {
                self.co.stats.locks_stolen += 1;
                self.co.trace(crate::trace::TxnEvent::Lock {
                    table: slot.table,
                    key,
                    stolen: true,
                });
                return Ok(true);
            }
        }
        self.co.trace(crate::trace::TxnEvent::LockConflict {
            table: slot.table,
            key,
            owner: prev_lock.owner(),
        });
        Ok(false)
    }

    /// Pipelined lock: post the lock CAS and the under-lock full-slot
    /// READ back-to-back on the primary's QP and take one barrier. Verb
    /// effects execute eagerly in post order, so the READ observes the
    /// CAS's outcome — when the CAS cleanly wins, the READ payload *is*
    /// the authoritative under-lock pre-image and the usual second
    /// round trip disappears. Every other outcome (conflict, stray
    /// steal, ambiguous timeout) resolves exactly as [`Txn::try_lock`]
    /// would, and returns no image (the caller re-reads blocking).
    fn try_lock_read(
        &mut self,
        slot: SlotRef,
        key: u64,
    ) -> Result<(bool, Option<FullSlot>), TxnError> {
        if !self.co.pipelining_on() {
            return Ok((self.try_lock(slot, key)?, None));
        }
        let primary = self.co.primary_of(slot.table, slot.bucket)?;
        let addr = self.co.lock_addr(primary, slot);
        let my = self.co.my_lock();
        let unique = self.co.ctx.config.pill_active();
        let layout = self.co.map().layout(slot.table);
        let base = self.co.map().slot_addr(primary, slot.table, slot.bucket, slot.slot);
        // Route by slot base: the CAS and the READ must share a lane so
        // the under-lock image is read *after* the lock landed.
        let qp = self.co.qp_routed(primary, base);
        let cas_id = qp.post_cas(addr, 0, my.raw()).map_err(TxnError::from_rdma)?;
        // If the READ fails to post (e.g. a crash fired between the two
        // posts), the CAS outcome still decides the lock; the image just
        // falls back to the blocking re-read.
        let read_id = qp.post_read(base, layout.slot_bytes() as usize).ok();
        let comps = qp.wait_all();
        let image = read_id.and_then(|id| {
            comps
                .iter()
                .find(|c| c.work_id == id)
                .filter(|c| c.result.is_ok())
                .and_then(|c| c.data.clone())
                .map(|buf| parse_full_slot(layout, &buf))
        });
        let Some(cas) = comps.iter().find(|c| c.work_id == cas_id) else {
            // The barrier always delivers posted completions; defensive.
            return Ok((self.try_lock(slot, key)?, None));
        };
        match cas.result.clone() {
            Ok(0) => {
                self.co.trace(crate::trace::TxnEvent::Lock {
                    table: slot.table,
                    key,
                    stolen: false,
                });
                Ok((true, image))
            }
            Ok(prev) => {
                Ok((self.lock_after_conflict(slot, key, primary, addr, prev, my, unique)?, None))
            }
            Err(RdmaError::Timeout { applied: TimeoutApplied::Ambiguous }) if unique => {
                // Same disambiguation as `retry::cas_resolved`: the PILL
                // word is unique to this (incarnation, txn), so a re-read
                // of the lock word proves whether the CAS landed. Blindly
                // re-CASing here would misread our own landed word as a
                // foreign conflict and leak the lock.
                let cur = self
                    .co
                    .retry_verb(|| self.co.qp(primary).read_u64(addr))
                    .map_err(TxnError::from_rdma)?;
                if cur == my.raw() {
                    self.co.ctx.resilience.ambiguous_resolved.fetch_add(1, Ordering::Relaxed);
                    self.co.trace(crate::trace::TxnEvent::Lock {
                        table: slot.table,
                        key,
                        stolen: false,
                    });
                    Ok((true, None))
                } else if cur != 0 {
                    self.co.ctx.resilience.ambiguous_resolved.fetch_add(1, Ordering::Relaxed);
                    Ok((self.lock_after_conflict(slot, key, primary, addr, cur, my, unique)?, None))
                } else {
                    // Provably never landed: an ordinary fresh attempt.
                    Ok((self.try_lock(slot, key)?, None))
                }
            }
            Err(RdmaError::Timeout { applied: TimeoutApplied::NotApplied }) => {
                // The verb never executed; re-issue through the blocking
                // path, which owns the bounded CAS retry loop.
                Ok((self.try_lock(slot, key)?, None))
            }
            Err(e) => Err(TxnError::from_rdma(e)),
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
            if !self.try_lock(slot, key)? {
                return Err(self.abort_now(AbortReason::LockConflict));
            }
            self.c.held.push(slot);
        }
        Ok(())
    }

    /// Validate, log, apply, ack, unlock. `Ok(())` means the client
    /// received a commit-ack (updates are applied on all live replicas);
    /// `Err(Aborted)` means an abort-ack.
    pub fn commit(mut self) -> Result<(), TxnError> {
        if self.done {
            // The txn already aborted through an earlier op error.
            return Err(TxnError::Aborted(AbortReason::UserAbort));
        }
        // Execution ends at the commit() call; lock-acquisition time spent
        // during eager locking belongs to the lock phase, not execute.
        if let Some(t0) = self.started {
            self.co
                .record_phase(TxnPhase::Execute, t0.elapsed().saturating_sub(self.lock_elapsed));
        }
        let result = self.drive_commit();
        match &result {
            Ok(()) => {
                if self.started.is_some() && !self.c.write_set.is_empty() {
                    self.co.record_phase(TxnPhase::Lock, self.lock_elapsed);
                }
            }
            Err(TxnError::Crashed) => {
                self.co.trace(crate::trace::TxnEvent::Crashed { txn_id: self.c.txn_id });
                self.co.note_crashed()
            }
            // The pipeline already ran the cleanup its error calls for:
            // abort, pre-apply truncate-and-unlock, or — mid-apply —
            // nothing, leaving locks and logs to recovery.
            Err(_) => {}
        }
        self.emit_txn_span(result.is_ok());
        self.done = true;
        self.co.ctx.pause.exit_txn(&self.co.gate);
        result
    }

    /// The blocking driver: post a phase, take one completion barrier,
    /// settle it, until the pipeline is done.
    fn drive_commit(&mut self) -> Result<(), TxnError> {
        if self.co.injector().is_crashed() {
            return Err(TxnError::Crashed);
        }
        self.c.begin();
        while !self.c.done() {
            let phase = self.c.phase();
            self.c.post(self.co)?;
            self.c.wait(self.co);
            self.c.settle(self.co)?;
            if phase == Phase::Validate && self.co.ctx.config.bugs.relaxed_locks {
                // Relaxed-locks bug: validation ran before the locks
                // were held.
                let t = self.co.phase_start();
                let deferred = self.lock_deferred();
                if let Some(t0) = t {
                    self.lock_elapsed += t0.elapsed();
                }
                deferred?;
            }
        }
        Ok(())
    }

    /// Abort: run the pipeline's abort path (truncate logs, release the
    /// held locks, ack) and close the transaction. `pub(crate)` so the
    /// scheduler's classic fallback can abort a request whose
    /// read-modify-write found no value to modify.
    pub(crate) fn abort_now(&mut self, reason: AbortReason) -> TxnError {
        let e = self.c.abort(self.co, reason);
        if e == TxnError::Crashed {
            self.co.note_crashed();
        }
        self.emit_txn_span(false);
        self.done = true;
        self.co.ctx.pause.exit_txn(&self.co.gate);
        e
    }

    /// Explicitly abort (client-requested rollback).
    pub fn abort(mut self) -> TxnError {
        self.abort_now(AbortReason::UserAbort)
    }
}

/// Pad a raw (unpadded) slot value to the 8-byte boundary the log codec
/// and WRITE verbs require (same rule as `SlotLayout::value_padded`).
pub(crate) fn pad8(mut v: Vec<u8>) -> Vec<u8> {
    v.resize(dkvs::SlotLayout::new(v.len()).value_padded(), 0);
    v
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.done {
            if self.co.injector().is_crashed() {
                // Power-cut: leave everything in place for recovery.
                self.co.note_crashed();
            } else {
                let _ = self.abort_now(AbortReason::UserAbort);
            }
            self.done = true;
            self.co.ctx.pause.exit_txn(&self.co.gate);
        }
    }
}
