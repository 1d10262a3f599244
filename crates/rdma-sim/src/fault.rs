use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{RdmaError, RdmaResult};

/// Whether the crash fires before, during, or after the target verb
/// takes effect remotely.
///
/// * `BeforeOp` — the coordinator dies as it is about to issue verb N:
///   nothing from verb N onwards reaches memory.
/// * `AfterOp` — verb N lands in remote memory, but the coordinator dies
///   before it can observe the completion (e.g. a lock CAS succeeded but
///   the owner never learns it: the canonical *stray lock*, paper §3.1.1).
/// * `MidWrite` — verb N is a WRITE and only its first half lands: the
///   torn-write case real RDMA exhibits when a sender dies mid-transfer.
///   This is what the undo-log checksum canary exists for (DESIGN §4);
///   for non-WRITE verbs it behaves like `BeforeOp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    BeforeOp,
    AfterOp,
    MidWrite,
}

/// A deterministic crash trigger: die at the `at_op`-th verb (1-based)
/// issued through any queue pair carrying this injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    pub at_op: u64,
    pub mode: CrashMode,
}

/// The historical (and default) tear point: the midpoint of the payload.
pub const TEAR_MIDPOINT: u32 = 512;

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Compute-side crash injector with power-cut semantics.
///
/// A `FaultInjector` is shared (via `Arc`) between all queue pairs of one
/// logical coordinator. Each verb calls [`FaultInjector::on_op`]; when the
/// plan triggers (or [`FaultInjector::crash_now`] was called from another
/// thread), the verb returns [`RdmaError::Crashed`] and every later verb
/// fails the same way. The protocol layer propagates the error without
/// running any cleanup, leaving locks, logs and partial updates in remote
/// memory exactly as a dead process would.
///
/// Every verb bumps `ops_issued`, so the injector is aligned to keep one
/// coordinator's count off the cache lines of whatever the allocator
/// placed next to it.
#[derive(Debug)]
#[repr(align(128))]
pub struct FaultInjector {
    ops_issued: AtomicU64,
    crashed: AtomicBool,
    /// 0 = no plan; otherwise the op number to crash at.
    plan_at: AtomicU64,
    /// 0 = BeforeOp, 1 = AfterOp, 2 = MidWrite.
    plan_mode: std::sync::atomic::AtomicU8,
    /// Tear placement for `MidWrite` crashes, in parts-per-1024 of the
    /// torn payload.
    tear_pp1024: std::sync::atomic::AtomicU32,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector {
            ops_issued: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            plan_at: AtomicU64::new(0),
            plan_mode: std::sync::atomic::AtomicU8::new(0),
            tear_pp1024: std::sync::atomic::AtomicU32::new(TEAR_MIDPOINT),
        }
    }
}

impl FaultInjector {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Place the `MidWrite` tear at `pp1024`/1024 of the torn payload:
    /// 0 = nothing lands (first-entry tear), [`TEAR_MIDPOINT`] = the
    /// historical midpoint, 1024 = everything lands before the crash
    /// (last-entry tear). Values above 1024 are clamped.
    pub fn set_tear_point(&self, pp1024: u32) {
        self.tear_pp1024.store(pp1024.min(1024), Ordering::Release);
    }

    /// Derive the tear point deterministically from a seed, so seeded
    /// crash sweeps cover first-entry, midpoint, and last-entry tears
    /// instead of always tearing at the midpoint.
    pub fn seed_tear_point(&self, seed: u64) {
        self.set_tear_point((splitmix64(seed) % 1025) as u32);
    }

    /// Current tear placement in parts-per-1024.
    pub fn tear_point(&self) -> u32 {
        self.tear_pp1024.load(Ordering::Acquire)
    }

    /// Arm a crash plan. Replaces any previous plan.
    pub fn arm(&self, plan: CrashPlan) {
        assert!(plan.at_op > 0, "op numbering is 1-based");
        let mode = match plan.mode {
            CrashMode::BeforeOp => 0,
            CrashMode::AfterOp => 1,
            CrashMode::MidWrite => 2,
        };
        self.plan_mode.store(mode, Ordering::Release);
        self.plan_at.store(plan.at_op, Ordering::Release);
    }

    /// Immediately mark the context crashed (asynchronous kill).
    pub fn crash_now(&self) {
        self.crashed.store(true, Ordering::Release);
    }

    /// Clear crash state and plan, and reset the op counter (a *new*
    /// incarnation of the compute server; it must obtain a fresh
    /// coordinator-id from the failure detector before transacting again).
    pub fn reset(&self) {
        self.crashed.store(false, Ordering::Release);
        self.plan_at.store(0, Ordering::Release);
        self.ops_issued.store(0, Ordering::Release);
    }

    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Number of verbs issued so far (diagnostics; also used by litmus
    /// schedules to size crash-point sweeps).
    pub fn ops_issued(&self) -> u64 {
        self.ops_issued.load(Ordering::Acquire)
    }

    /// Called by the QP around each verb. Returns:
    /// * `Ok(CrashAction::Proceed)` — verb takes effect normally.
    /// * `Ok(CrashAction::CrashAfter)` — verb takes effect, then the
    ///   context crashes (`AfterOp`).
    /// * `Ok(CrashAction::TearWrite)` — a WRITE lands only its first
    ///   half, then the context crashes (`MidWrite`); non-WRITE verbs
    ///   treat this as crash-before.
    /// * `Err(Crashed)` — context is (now) dead; verb must not execute.
    #[inline]
    pub(crate) fn on_op(&self) -> RdmaResult<CrashAction> {
        if self.crashed.load(Ordering::Acquire) {
            return Err(RdmaError::Crashed);
        }
        let n = self.ops_issued.fetch_add(1, Ordering::AcqRel) + 1;
        let at = self.plan_at.load(Ordering::Acquire);
        if at != 0 && n == at {
            self.crashed.store(true, Ordering::Release);
            return match self.plan_mode_at_trigger() {
                CrashMode::AfterOp => Ok(CrashAction::CrashAfter),
                CrashMode::MidWrite => Ok(CrashAction::TearWrite),
                CrashMode::BeforeOp => Err(RdmaError::Crashed),
            };
        }
        // A plan may also have been passed while ops raced ahead (n > at):
        // treat overshoot as crashed too, so plans armed concurrently with
        // a running coordinator still stop it promptly.
        if at != 0 && n > at {
            self.crashed.store(true, Ordering::Release);
            return Err(RdmaError::Crashed);
        }
        Ok(CrashAction::Proceed)
    }

    fn plan_mode_at_trigger(&self) -> CrashMode {
        match self.plan_mode.load(Ordering::Acquire) {
            1 => CrashMode::AfterOp,
            2 => CrashMode::MidWrite,
            _ => CrashMode::BeforeOp,
        }
    }
}

/// What the QP should do with the verb that triggered the crash plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CrashAction {
    Proceed,
    CrashAfter,
    TearWrite,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plan_never_crashes() {
        let f = FaultInjector::new();
        for _ in 0..100 {
            assert_eq!(f.on_op().unwrap(), CrashAction::Proceed);
        }
        assert!(!f.is_crashed());
    }

    #[test]
    fn before_op_crashes_at_exact_op() {
        let f = FaultInjector::new();
        f.arm(CrashPlan { at_op: 3, mode: CrashMode::BeforeOp });
        assert!(f.on_op().is_ok());
        assert!(f.on_op().is_ok());
        assert_eq!(f.on_op(), Err(RdmaError::Crashed));
        assert_eq!(f.on_op(), Err(RdmaError::Crashed));
        assert!(f.is_crashed());
    }

    #[test]
    fn after_op_lets_the_op_land() {
        let f = FaultInjector::new();
        f.arm(CrashPlan { at_op: 2, mode: CrashMode::AfterOp });
        assert_eq!(f.on_op().unwrap(), CrashAction::Proceed);
        assert_eq!(f.on_op().unwrap(), CrashAction::CrashAfter);
        assert_eq!(f.on_op(), Err(RdmaError::Crashed));
    }

    #[test]
    fn mid_write_tears_the_triggering_op() {
        let f = FaultInjector::new();
        f.arm(CrashPlan { at_op: 2, mode: CrashMode::MidWrite });
        assert_eq!(f.on_op().unwrap(), CrashAction::Proceed);
        assert_eq!(f.on_op().unwrap(), CrashAction::TearWrite);
        assert_eq!(f.on_op(), Err(RdmaError::Crashed));
    }

    #[test]
    fn crash_now_is_immediate() {
        let f = FaultInjector::new();
        assert!(f.on_op().is_ok());
        f.crash_now();
        assert_eq!(f.on_op(), Err(RdmaError::Crashed));
    }

    #[test]
    fn tear_point_defaults_to_midpoint_and_is_settable() {
        let f = FaultInjector::new();
        assert_eq!(f.tear_point(), TEAR_MIDPOINT);
        f.set_tear_point(0);
        assert_eq!(f.tear_point(), 0);
        f.set_tear_point(9999);
        assert_eq!(f.tear_point(), 1024, "clamped to full payload");
    }

    #[test]
    fn seeded_tear_points_are_deterministic_and_spread() {
        let f = FaultInjector::new();
        f.seed_tear_point(7);
        let a = f.tear_point();
        f.seed_tear_point(7);
        assert_eq!(f.tear_point(), a, "same seed, same tear point");
        // Across a seed sweep the tear point must actually move around.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            f.seed_tear_point(seed);
            seen.insert(f.tear_point());
        }
        assert!(seen.len() > 16, "tear points barely vary: {seen:?}");
    }

    #[test]
    fn reset_revives() {
        let f = FaultInjector::new();
        f.arm(CrashPlan { at_op: 1, mode: CrashMode::BeforeOp });
        assert!(f.on_op().is_err());
        f.reset();
        assert!(f.on_op().is_ok());
        assert_eq!(f.ops_issued(), 1);
    }
}
