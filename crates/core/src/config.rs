//! Protocol selection, bug toggles, and system configuration.

use std::time::Duration;

use crate::retry::RetryPolicy;

/// How committed data is made durable on the memory servers (paper §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PersistenceMode {
    /// Durability from in-memory replication only (the paper's primary
    /// setting: "non-persistent compute and (replicated in-) memory
    /// servers").
    #[default]
    VolatileReplicated,
    /// Battery-backed DRAM: persistent without flushes ("with
    /// battery-backed DRAM, no flushing is required on the critical
    /// path"). Identical data path to `VolatileReplicated`.
    BatteryBackedDram,
    /// NVM with FORD's *selective* one-sided flush scheme: one RNIC
    /// flush per memory node touched by the logging and commit phases,
    /// issued after that node's last write.
    NvmFlush,
}

impl PersistenceMode {
    /// Does the commit path issue flush verbs?
    pub fn needs_flush(self) -> bool {
        matches!(self, PersistenceMode::NvmFlush)
    }
}

/// Which transactional protocol a coordinator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// FORD (paper §2.3) with the recovery algorithm bolted on — the
    /// paper's *Baseline*. Locks are anonymous, undo logs go to each
    /// object's own replicas, and recovery is stop-the-world with a full
    /// KVS scan for stray locks.
    Ford,
    /// Pandora (paper §3): PILL coordinator-id locks, post-validation
    /// logging on f+1 designated log servers, non-blocking recovery.
    Pandora,
    /// The "traditional logging scheme" of §6.1/§6.2.1: FORD plus a
    /// lock-intent log round trip before every lock CAS; recovery reads
    /// the lock-intents instead of scanning, but still pauses the world.
    Traditional,
}

impl ProtocolKind {
    /// Does this protocol stamp locks with the owner coordinator-id?
    pub fn uses_pill(self) -> bool {
        matches!(self, ProtocolKind::Pandora)
    }

    /// Does this protocol write a lock-intent record before each lock?
    pub fn uses_lock_intents(self) -> bool {
        matches!(self, ProtocolKind::Traditional)
    }
}

/// Re-introducible FORD bugs (paper Table 1). All `false` = the fixed
/// protocols evaluated in §6; the litmus framework (crate
/// `pandora-litmus`) flips them on one at a time to demonstrate each test
/// catches its bug.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BugFlags {
    /// *Complicit Aborts* (C1, litmus 1): the abort path releases every
    /// write-set lock, including locks the transaction never acquired —
    /// which can release a lock owned by a different transaction.
    pub complicit_abort: bool,
    /// *Missing Actions* (C2, litmus 1): inserts are not undo-logged.
    pub missing_insert_log: bool,
    /// *Covert Locks* (C1, litmus 2): validation compares versions but
    /// never checks whether a read-set object is locked.
    pub covert_locks: bool,
    /// *Relaxed Locks* (C1, litmus 2): validation can start before all
    /// write-set locks are acquired (locking is deferred past
    /// validation).
    pub relaxed_locks: bool,
    /// *Lost Decision* (C2, litmus 3): undo logs are written during
    /// execution — before the commit/abort decision — and aborted
    /// transactions leave their logs behind, so recovery cannot tell a
    /// committed from an aborted logged transaction.
    pub lost_decision: bool,
    /// *Logging without locking* (C2, litmus 3): a corner case where the
    /// undo log is written before the lock is actually grabbed.
    pub logging_without_locking: bool,
}

impl BugFlags {
    /// The fixed protocol (no bugs) — what §6 evaluates.
    pub const fn none() -> BugFlags {
        BugFlags {
            complicit_abort: false,
            missing_insert_log: false,
            covert_locks: false,
            relaxed_locks: false,
            lost_decision: false,
            logging_without_locking: false,
        }
    }

    /// Original FORD as published: every bug present.
    pub const fn original_ford() -> BugFlags {
        BugFlags {
            complicit_abort: true,
            missing_insert_log: true,
            covert_locks: true,
            relaxed_locks: true,
            lost_decision: true,
            logging_without_locking: true,
        }
    }

    pub fn any(&self) -> bool {
        self.complicit_abort
            || self.missing_insert_log
            || self.covert_locks
            || self.relaxed_locks
            || self.lost_decision
            || self.logging_without_locking
    }
}

/// System-wide configuration shared by all coordinators.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    pub protocol: ProtocolKind,
    pub bugs: BugFlags,
    /// Bounded retries when an execution-phase READ finds the object
    /// locked, before the transaction aborts.
    pub read_lock_retries: u32,
    /// Stall path (paper §6.4 "Sensitivity to stalls"): instead of
    /// aborting on a write-lock conflict, wait (bounded) for the lock to
    /// free — which for stray locks means waiting for recovery. Off by
    /// default (the abort path used everywhere else in the evaluation).
    pub stall_on_conflict: bool,
    /// Stall bound before giving up with an abort (also the deadlock
    /// escape hatch for the stall path).
    pub stall_limit: Duration,
    /// PILL on/off switch for Pandora (fig. 6 isolates PILL's
    /// steady-state cost by comparing Pandora with and without it; with
    /// PILL off locks are anonymous and recovery is NOT supported).
    pub pill_enabled: bool,
    /// Durability scheme on the memory side (paper §7).
    pub persistence: PersistenceMode,
    /// Heartbeat timeout after which the FD declares a coordinator
    /// failed (paper uses 5 ms).
    pub fd_timeout: Duration,
    /// FD poll interval.
    pub fd_poll: Duration,
    /// Verb-level retry/backoff policy for transient fabric faults
    /// (timeouts injected by the chaos model). Release paths and
    /// recovery escalate this budget; see [`RetryPolicy::escalated`].
    pub retry: RetryPolicy,
    /// Maximum posted verbs kept in flight per queue pair by the
    /// fan-out commit path (validation re-reads, undo-log writes,
    /// replica apply writes, unlocks all post-and-barrier instead of
    /// blocking per verb). `<= 1` disables posting entirely — every
    /// verb is issued blocking, one round trip at a time, which is the
    /// pre-pipelining behaviour and the sequential baseline the
    /// latency-hiding bench compares against.
    pub pipeline_depth: u32,
    /// Queue pairs per (coordinator, node) link. Verbs are routed onto a
    /// lane by a hash of the remote address they target, so same-object
    /// verbs keep RC post-order completion while unrelated objects'
    /// completions may reorder across lanes. `1` (the default) is a
    /// single QP per node — byte-identical to the unstriped fabric.
    pub qp_stripes: u32,
    /// Independent transactions the interleaved scheduler keeps in
    /// flight on one logical coordinator (capped by the number of log
    /// lanes a coordinator's log region is divided into). `1` (the
    /// default) disables the scheduler: `run_interleaved` degenerates to
    /// the classic one-commit-at-a-time path.
    pub inflight_txns: u32,
}

impl SystemConfig {
    pub fn new(protocol: ProtocolKind) -> SystemConfig {
        SystemConfig {
            protocol,
            bugs: BugFlags::none(),
            read_lock_retries: 64,
            stall_on_conflict: false,
            stall_limit: Duration::from_millis(100),
            pill_enabled: true,
            persistence: PersistenceMode::default(),
            fd_timeout: Duration::from_millis(5),
            fd_poll: Duration::from_millis(1),
            retry: RetryPolicy::verbs(),
            pipeline_depth: 16,
            qp_stripes: 1,
            inflight_txns: 1,
        }
    }

    /// Cap the posted-verb window per queue pair (`n <= 1` falls back
    /// to fully sequential verbs).
    pub fn with_pipeline_depth(mut self, n: u32) -> SystemConfig {
        self.pipeline_depth = n;
        self
    }

    /// Is the posted-verb fan-out path active?
    pub fn pipelining_on(&self) -> bool {
        self.pipeline_depth > 1
    }

    /// Queue pairs per (coordinator, node) link (`n <= 1` keeps the
    /// single-QP fabric).
    pub fn with_qp_stripes(mut self, n: u32) -> SystemConfig {
        self.qp_stripes = n.max(1);
        self
    }

    /// Is multi-QP striping active?
    pub fn striping_on(&self) -> bool {
        self.qp_stripes > 1
    }

    /// Transactions the interleaved scheduler keeps in flight per
    /// coordinator (`n <= 1` keeps the classic sequential commit path).
    pub fn with_inflight_txns(mut self, n: u32) -> SystemConfig {
        self.inflight_txns = n.max(1);
        self
    }

    /// Is the interleaved multi-transaction scheduler active?
    pub fn interleaving_on(&self) -> bool {
        self.inflight_txns > 1
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> SystemConfig {
        self.retry = retry;
        self
    }

    pub fn with_persistence(mut self, mode: PersistenceMode) -> SystemConfig {
        self.persistence = mode;
        self
    }

    /// Is PILL active (protocol supports it AND it is enabled)?
    pub fn pill_active(&self) -> bool {
        self.protocol.uses_pill() && self.pill_enabled
    }

    pub fn without_pill(mut self) -> SystemConfig {
        self.pill_enabled = false;
        self
    }

    pub fn with_stalls(mut self, limit: Duration) -> SystemConfig {
        self.stall_on_conflict = true;
        self.stall_limit = limit;
        self
    }

    pub fn with_bugs(mut self, bugs: BugFlags) -> SystemConfig {
        self.bugs = bugs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pill_only_for_pandora() {
        assert!(ProtocolKind::Pandora.uses_pill());
        assert!(!ProtocolKind::Ford.uses_pill());
        assert!(!ProtocolKind::Traditional.uses_pill());
    }

    #[test]
    fn lock_intents_only_for_traditional() {
        assert!(ProtocolKind::Traditional.uses_lock_intents());
        assert!(!ProtocolKind::Pandora.uses_lock_intents());
    }

    #[test]
    fn pipeline_depth_defaults_on_and_toggles() {
        let c = SystemConfig::new(ProtocolKind::Pandora);
        assert!(c.pipelining_on());
        assert_eq!(c.with_pipeline_depth(4).pipeline_depth, 4);
        assert!(!c.with_pipeline_depth(1).pipelining_on());
    }

    #[test]
    fn striping_and_interleaving_default_off() {
        let c = SystemConfig::new(ProtocolKind::Pandora);
        assert!(!c.striping_on());
        assert!(!c.interleaving_on());
        assert!(c.with_qp_stripes(4).striping_on());
        assert!(c.with_inflight_txns(8).interleaving_on());
        // Zero is clamped to the disabled setting, not an empty fabric.
        assert_eq!(c.with_qp_stripes(0).qp_stripes, 1);
        assert_eq!(c.with_inflight_txns(0).inflight_txns, 1);
    }

    #[test]
    fn bug_flag_sets() {
        assert!(!BugFlags::none().any());
        assert!(BugFlags::original_ford().any());
        let one = BugFlags { covert_locks: true, ..BugFlags::none() };
        assert!(one.any());
    }
}
