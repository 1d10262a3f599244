//! The recovery protocol (paper §3.2).
//!
//! Pandora's four steps for a compute failure (Figure 3):
//!
//! 1. **Failure detection** — the FD (see [`crate::fd`]) declares the
//!    coordinator failed.
//! 2. **Active-link termination** — revoke the failed server's RDMA
//!    rights on every memory node via control-path RPCs, so even a
//!    falsely-suspected server can no longer touch memory (Cor1). The
//!    unit is the *server* (its endpoint), not the coordinator-id: an RC
//!    remembers an endpoint every memory node acknowledged revoking and
//!    the server's other coordinator-ids skip the fan-out (see
//!    `RecoveryCoordinator::terminate_links`).
//! 3. **Log recovery** — read the f+1 log regions, reconstruct each
//!    Logged-Stray-Tx, and roll it forward iff *every* replica of *every*
//!    write-set object was updated (commit-ack possible, abort-ack
//!    impossible — Cor2/Cor3); otherwise roll it back from the undo
//!    images. Every lane header the READs found set is then zeroed,
//!    making re-execution of any step idempotent (§3.2.3).
//! 4. **Stray-lock notification** — set the failed-id bit so live
//!    coordinators start stealing the NotLogged strays (only now: Cor4).
//!
//! The Baseline (FORD + this recovery, §4.1) cannot identify lock owners,
//! so it must stop the world and scan the entire KVS; the Traditional
//! scheme reads its lock-intent logs instead of scanning but still stops
//! the world. Both are implemented here for the evaluation.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dkvs::hash::FxHashMap;
use dkvs::{
    log_lane_offset, LockWord, LogEntry, SlotLayout, TableId, UndoRecord, LOG_REGION_BYTES,
    TXN_LOG_LANES,
};
use parking_lot::Mutex;
use rdma_sim::{
    CrashMode, CrashPlan, EndpointId, FaultInjector, NodeId, QueuePair, RdmaResult, WorkId,
};

use crate::config::ProtocolKind;
use crate::context::SharedContext;
use crate::retry;

/// The four recovery steps of the paper (§3.2, Figure 3), named so tests
/// and the CLI can address a crash point inside any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryStep {
    Detection,
    LinkTermination,
    LogRecovery,
    StrayNotification,
}

impl RecoveryStep {
    /// All steps in execution order (sweep grids iterate this).
    pub const ALL: [RecoveryStep; 4] = [
        RecoveryStep::Detection,
        RecoveryStep::LinkTermination,
        RecoveryStep::LogRecovery,
        RecoveryStep::StrayNotification,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RecoveryStep::Detection => "detection",
            RecoveryStep::LinkTermination => "link-termination",
            RecoveryStep::LogRecovery => "log-recovery",
            RecoveryStep::StrayNotification => "stray-notification",
        }
    }

    /// Static span name for the crash-point instant on the chaos track.
    fn crash_point_name(self) -> &'static str {
        match self {
            RecoveryStep::Detection => "crash-point-detection",
            RecoveryStep::LinkTermination => "crash-point-link-termination",
            RecoveryStep::LogRecovery => "crash-point-log-recovery",
            RecoveryStep::StrayNotification => "crash-point-stray-notification",
        }
    }

    pub fn parse(s: &str) -> Option<RecoveryStep> {
        RecoveryStep::ALL.into_iter().find(|st| st.name() == s)
    }
}

/// Kill the recovering RC at a verb boundary inside one recovery step
/// (the `PausePoint` analogue for the recovery path): `at_verb == 0`
/// crashes at entry to the step, `at_verb == n` crashes after the step
/// has issued `n` more one-sided verbs. A plan whose verb offset
/// overshoots the step simply fires later in the run (still a valid
/// "recoverer died mid-recovery" point) or never — both are legitimate
/// sweep cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryCrashPlan {
    pub step: RecoveryStep,
    pub at_verb: u64,
}

impl RecoveryCrashPlan {
    /// Parse the CLI form `step[:verb]`, e.g. `log-recovery:3`.
    pub fn parse(s: &str) -> Result<RecoveryCrashPlan, String> {
        let (step, verb) = match s.split_once(':') {
            Some((st, v)) => {
                let at_verb =
                    v.parse().map_err(|_| format!("crash plan {s:?}: bad verb count {v:?}"))?;
                (st, at_verb)
            }
            None => (s, 0),
        };
        let step = RecoveryStep::parse(step).ok_or_else(|| {
            format!(
                "crash plan {s:?}: unknown step {step:?} (expected one of {})",
                RecoveryStep::ALL.map(RecoveryStep::name).join(", ")
            )
        })?;
        Ok(RecoveryCrashPlan { step, at_verb: verb })
    }
}

/// What one compute-failure recovery did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    pub coord: u16,
    /// Logged-Stray-Txs found in the log regions.
    pub logged_txns: usize,
    pub rolled_forward: usize,
    pub rolled_back: usize,
    /// Stray locks released during a Baseline scan / Traditional intent
    /// replay (Pandora leaves NotLogged strays to lock stealing).
    pub locks_released: usize,
    /// Step 1 — failure detection: how stale the coordinator's heartbeat
    /// was when the failure was declared. Filled by the failure detector;
    /// recoveries driven directly through an RC leave it zero.
    pub detection: Duration,
    /// Step 2 — active-link termination: revoking the failed endpoint's
    /// RDMA rights on every memory node (for the blocking schemes, every
    /// distinct endpoint of the failed batch). Near zero when the RC had
    /// already fenced the server — see [`RecoveryReport::link_fanouts`].
    pub link_termination: Duration,
    /// Step 3 — wall time of the log-recovery step only (what Table 2
    /// reports). For the blocking schemes this includes the stray-lock
    /// scan / intent replay, which is the point of comparison.
    pub log_recovery: Duration,
    /// Step 4 — stray-lock notification: publishing the failed-id bit
    /// (Pandora) or resuming the paused world (Baseline/Traditional, the
    /// stop-the-world analogue of telling live coordinators to go on).
    pub stray_notification: Duration,
    /// End-to-end recovery time (revocation through notification). The
    /// world-quiesce wait of the blocking schemes is counted here but in
    /// no individual step, so the steps sum to ≤ `total`.
    pub total: Duration,
    /// False when the RC itself crashed mid-recovery: the run must be
    /// re-executed by a fresh RC (recovery is idempotent, paper §3.2.3 —
    /// "Pandora allows for the re-execution of the log-recovery step
    /// until the final acknowledgment is received").
    pub completed: bool,
    /// How many RC executions this recovery took (1 = the first
    /// recoverer survived; each extra attempt is a takeover by a fresh
    /// RC after the previous one died mid-run). Zero only in
    /// hand-constructed reports.
    pub attempts: u32,
    /// One-sided verbs this run issued, fallback re-issues included: the
    /// RC's op-count delta over the run. Exact and host-independent for a
    /// given crash state; on the FD's resident RC it also counts whatever
    /// a concurrent recovery issued through the same RC meanwhile.
    pub verbs: u64,
    /// Completion barriers taken in log recovery — the round trips the
    /// step costs. A phase with nothing to post takes none.
    pub barriers: u32,
    /// Link-termination RPC fan-outs this run issued: one per endpoint
    /// the RC did not already know to be revoked on every memory node —
    /// 0 or 1 for a Pandora recovery, so a server's coordinators sum to 1.
    pub link_fanouts: u32,
}

impl RecoveryReport {
    /// The four recovery steps of the paper (§3.2, Figure 3) as
    /// `(name, duration)` pairs, in execution order.
    pub fn steps(&self) -> [(&'static str, Duration); 4] {
        [
            ("detection", self.detection),
            ("link_termination", self.link_termination),
            ("log_recovery", self.log_recovery),
            ("stray_notification", self.stray_notification),
        ]
    }

    /// Failure-to-resolution time: detection latency plus the recovery
    /// protocol itself.
    pub fn end_to_end(&self) -> Duration {
        self.detection + self.total
    }
}

/// One one-sided verb of a recovery phase: enough to post it, and to
/// issue it again through the blocking retry ladder if the post or the
/// completion fails.
enum PhaseOp<'a> {
    /// READ of this many bytes.
    Read(usize),
    Write(&'a [u8]),
    WriteWord(u64),
    /// Owner-checked release: CAS from this word to 0.
    Release(u64),
}

/// One phase of log recovery: its verbs are posted as they are added, in
/// issue order, and [`Phase::barrier`] then waits for all of them — one
/// round trip for the phase instead of one per verb.
///
/// The RC's queue pairs are shared (the FD's monitor thread and every
/// `declare_failed` caller drive the resident RC), so the barrier waits
/// for its own work ids one by one (`QueuePair::wait`) and never drains a
/// queue pair wholesale: `wait_all`/`poll` would hand this phase another
/// recovery's completions and lose them.
struct Phase<'a> {
    rc: &'a RecoveryCoordinator,
    /// `None` work id: the post failed synchronously.
    verbs: Vec<(NodeId, u64, PhaseOp<'a>, Option<WorkId>)>,
}

impl<'a> Phase<'a> {
    fn post(&mut self, node: NodeId, addr: u64, op: PhaseOp<'a>) {
        let qp = self.rc.qp(node);
        let id = match op {
            PhaseOp::Read(len) => qp.post_read(addr, len),
            PhaseOp::Write(bytes) => qp.post_write(addr, bytes),
            PhaseOp::WriteWord(word) => qp.post_write(addr, &word.to_le_bytes()),
            PhaseOp::Release(expected) => qp.post_cas(addr, expected, 0),
        };
        self.verbs.push((node, addr, op, id.ok()));
    }

    /// The completion barrier: one reply per verb, in post order (the
    /// READ payload; empty for the other kinds). A verb that was not
    /// posted, or whose completion carries an error, runs again through
    /// the blocking ladder of its kind — every recovery verb is
    /// idempotent — and only that ladder's verdict is an error here. A
    /// phase without verbs takes no barrier; otherwise `taken` counts it.
    fn barrier(self, taken: &mut u32) -> Vec<RdmaResult<Vec<u8>>> {
        *taken += !self.verbs.is_empty() as u32;
        let rc = self.rc;
        self.verbs
            .into_iter()
            .map(|(node, addr, op, id)| {
                let qp = rc.qp(node);
                if let Some(c) = id.map(|id| qp.wait(id)) {
                    if c.result.is_ok() {
                        return Ok(c.data.unwrap_or_default());
                    }
                }
                match op {
                    PhaseOp::Read(len) => {
                        let mut buf = vec![0u8; len];
                        rc.verb_or_fence(|| qp.read(addr, &mut buf)).map(|()| buf)
                    }
                    PhaseOp::Write(bytes) => {
                        rc.verb_or_fence(|| qp.write(addr, bytes)).map(|()| Vec::new())
                    }
                    PhaseOp::WriteWord(word) => {
                        rc.verb_or_fence(|| qp.write_u64(addr, word)).map(|()| Vec::new())
                    }
                    PhaseOp::Release(expected) => {
                        rc.release_cas_resolved(node, addr, expected).map(|_| Vec::new())
                    }
                }
            })
            .collect()
    }
}

/// The u64 an 8-byte READ returned.
fn word(reply: &[u8]) -> u64 {
    u64::from_le_bytes(reply.try_into().expect("8-byte READ"))
}

/// Offset of every lane header within a log region, ascending.
fn lane_offsets() -> impl Iterator<Item = u64> {
    (0..TXN_LOG_LANES as u32).map(log_lane_offset)
}

/// The Recovery Coordinator (RC): a thread on a standard compute server
/// (paper §3.2.2 step 3) with its own endpoint and queue pairs.
///
/// The RC is itself just compute, so it can crash mid-recovery; its
/// [`FaultInjector`] makes that failure mode testable. A crashed RC
/// reports `completed: false` and the failure detector re-runs the
/// recovery on a fresh RC (see `FailureDetector`).
pub struct RecoveryCoordinator {
    ctx: Arc<SharedContext>,
    qps: Vec<QueuePair>,
    injector: Arc<FaultInjector>,
    /// Armed by tests/CLI to kill this RC at a step's verb boundary.
    crash_plan: Mutex<Option<RecoveryCrashPlan>>,
    /// Endpoints this RC has terminated with every memory node
    /// acknowledging (see [`Self::terminate_links`]).
    terminated: Mutex<HashSet<EndpointId>>,
}

impl RecoveryCoordinator {
    pub fn new(ctx: Arc<SharedContext>) -> RdmaResult<RecoveryCoordinator> {
        Self::with_injector(ctx, FaultInjector::new())
    }

    /// RC with an externally-controlled fault injector (tests of the
    /// crash-during-recovery path).
    pub fn with_injector(
        ctx: Arc<SharedContext>,
        injector: Arc<FaultInjector>,
    ) -> RdmaResult<RecoveryCoordinator> {
        let endpoint = ctx.fabric.register_endpoint();
        let mut qps = Vec::new();
        for n in ctx.fabric.node_ids() {
            qps.push(ctx.fabric.qp(endpoint, n, Arc::clone(&injector))?);
        }
        Ok(RecoveryCoordinator {
            ctx,
            qps,
            injector,
            crash_plan: Mutex::new(None),
            terminated: Mutex::new(HashSet::new()),
        })
    }

    /// This RC's fault injector.
    pub fn injector(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.injector)
    }

    /// Arm a crash point: this RC will die at the given verb boundary of
    /// the given recovery step (the failure detector then re-executes the
    /// recovery on a fresh RC — the takeover path under test).
    pub fn arm_recovery_crash(&self, plan: RecoveryCrashPlan) {
        *self.crash_plan.lock() = Some(plan);
    }

    /// Crash-point hook at a step boundary. `at_verb == 0` kills the RC
    /// here and now; otherwise the fault injector is armed to kill it
    /// after that many further verbs (counted across this RC's QPs, so
    /// the kill lands *inside* the step's one-sided traffic).
    fn enter_step(&self, step: RecoveryStep) {
        let plan = *self.crash_plan.lock();
        let Some(plan) = plan else { return };
        if plan.step != step || self.injector.is_crashed() {
            return;
        }
        if let Some(rec) = self.ctx.flight() {
            rec.chaos_instant(step.crash_point_name(), plan.at_verb);
        }
        if plan.at_verb == 0 {
            self.injector.crash_now();
        } else {
            self.injector.arm(CrashPlan {
                at_op: self.injector.ops_issued() + plan.at_verb,
                mode: CrashMode::AfterOp,
            });
        }
    }

    fn qp(&self, node: NodeId) -> &QueuePair {
        &self.qps[node.0 as usize]
    }

    fn phase(&self) -> Phase<'_> {
        Phase { rc: self, verbs: Vec::new() }
    }

    /// Recovery verbs retry transient timeouts through the escalated
    /// budget: a transiently-failed log-region READ must never be
    /// mistaken for "nothing logged" (that would truncate a live undo
    /// image and lose the pre-images a rollback needs).
    fn retry_verb<T>(&self, f: impl FnMut() -> RdmaResult<T>) -> RdmaResult<T> {
        retry::retry_op(
            &self.ctx.config.retry.escalated(),
            Some(&self.ctx.resilience),
            0x5ec0_7e57,
            f,
        )
    }

    /// A recovery verb that exhausted even the escalated budget fences
    /// the RC: a chaos-track instant and a post-mortem dump, then the
    /// crash-stop.
    fn fence_on_timeout<T>(&self, r: &RdmaResult<T>) {
        if matches!(r, Err(rdma_sim::RdmaError::Timeout { .. })) && !self.injector.is_crashed() {
            self.ctx.resilience.note_self_fence();
            if let Some(rec) = self.ctx.flight() {
                rec.chaos_instant("self-fence-recovery", 0);
                rec.auto_dump("self-fence-recovery");
            }
            self.injector.crash_now();
        }
    }

    /// Like [`Self::retry_verb`], but if even the escalated budget is
    /// exhausted the RC *fences itself* (crash-stop): every subsequent
    /// verb of this run fails closed, the report ends `completed: false`,
    /// and the failure detector re-executes the recovery on a fresh RC —
    /// recovery is idempotent (§3.2.3), so re-execution is always safe,
    /// while continuing half-blind here would not be.
    fn verb_or_fence<T>(&self, f: impl FnMut() -> RdmaResult<T>) -> RdmaResult<T> {
        let r = self.retry_verb(f);
        self.fence_on_timeout(&r);
        r
    }

    /// Release-CAS of a PILL lock word to zero, with ambiguous-timeout
    /// resolution. Under PILL `expected` is the failed coordinator's raw
    /// lock word — unique to one transaction of one incarnation — so a
    /// re-read disambiguates: the word still reads `expected` iff our
    /// release never landed (retry); anything else means the slot is no
    /// longer ours to touch (our release landed, or a thief stole and
    /// re-locked it) and the retried steal is a no-op either way. That
    /// ownership argument is what makes a *retried* recovery CAS
    /// idempotent. Exhaustion fences the RC like any other recovery
    /// verb.
    fn release_cas_resolved(&self, node: NodeId, addr: u64, expected: u64) -> RdmaResult<u64> {
        let r = retry::cas_resolved(
            &self.ctx.config.retry.escalated(),
            Some(&self.ctx.resilience),
            0x5ec0_7e57 ^ addr,
            self.qp(node),
            addr,
            expected,
            0,
            true, // PILL word: value equality proves ownership
        );
        self.fence_on_timeout(&r);
        r
    }

    /// Steps 1–2 of every scheme: the "right after detection" crash point
    /// (the recoverer dies before doing anything at all), then active-link
    /// termination (Cor1) of each distinct endpoint in `endpoints`.
    /// Returns the RPC fan-outs issued.
    ///
    /// Revocation is a one-time change of a *server's* permission, so it
    /// runs once per endpoint, not once per coordinator-id: an endpoint
    /// whose revocation **every** memory node of the fabric acknowledged
    /// is remembered, and the server's other coordinators skip the
    /// fan-out. Fewer acknowledgements (a memory node was down, and may
    /// come back with the endpoint still admitted) record nothing, so the
    /// next coordinator-id of that server terminates again. The memory is
    /// this RC's own: a fresh RC after a takeover terminates again, and
    /// [`Self::restore_links`] forgets a falsely suspected server that
    /// rejoins. The lock is held across the fan-out, so a concurrent
    /// recovery of the same server waits for the acknowledgements instead
    /// of reading logs beside a half-terminated endpoint.
    ///
    /// The revocation is a control-path RPC (it does not flow through
    /// this RC's QPs), so a dead RC skips it outright rather than
    /// half-executing it.
    fn terminate_links(&self, endpoints: impl IntoIterator<Item = EndpointId>) -> u32 {
        self.enter_step(RecoveryStep::Detection);
        self.enter_step(RecoveryStep::LinkTermination);
        if self.injector.is_crashed() {
            return 0;
        }
        let mut terminated = self.terminated.lock();
        let mut issued = Vec::new();
        for endpoint in endpoints {
            if terminated.contains(&endpoint) || issued.contains(&endpoint) {
                continue;
            }
            issued.push(endpoint);
            if self.ctx.fabric.revoke_everywhere(endpoint) == self.ctx.fabric.num_nodes() as usize {
                terminated.insert(endpoint);
            }
        }
        issued.len() as u32
    }

    /// Re-admit a falsely suspected server: restore `endpoint` on every
    /// live memory node and forget that it was terminated, so its next
    /// suspicion is fenced again.
    pub fn restore_links(&self, endpoint: EndpointId) {
        let mut terminated = self.terminated.lock();
        self.ctx.fabric.restore_everywhere(endpoint);
        terminated.remove(&endpoint);
    }

    /// Full compute-failure recovery for one coordinator, dispatching on
    /// the configured protocol.
    pub fn recover_compute(&self, coord: u16, endpoint: EndpointId) -> RecoveryReport {
        match self.ctx.config.protocol {
            ProtocolKind::Pandora => self.recover_pandora(coord, endpoint),
            ProtocolKind::Ford => self.recover_baseline(&[(coord, endpoint)]),
            ProtocolKind::Traditional => self.recover_traditional(&[(coord, endpoint)]),
        }
    }

    // ----------------------------------------------------------------
    // Pandora: non-blocking recovery
    // ----------------------------------------------------------------

    /// Pandora recovery. Live coordinators keep running throughout; only
    /// transactions conflicting with the failed coordinator's objects
    /// wait (for at most the duration of log recovery).
    pub fn recover_pandora(&self, coord: u16, endpoint: EndpointId) -> RecoveryReport {
        let t0 = Instant::now();
        let ops0 = self.injector.ops_issued();
        // Step 2: active-link termination, unless this RC already fenced
        // the server for another of its coordinator-ids.
        let link_fanouts = self.terminate_links([endpoint]);
        let link_termination = t0.elapsed();

        // Step 3: log recovery.
        let t_log = Instant::now();
        let mut report = self.log_recovery(coord, &self.ctx.map.log_servers(coord));
        report.log_recovery = t_log.elapsed();
        report.link_termination = link_termination;
        report.link_fanouts = link_fanouts;

        // Step 4: stray-lock notification (strictly after log recovery —
        // Cor4: only NotLogged strays may be stolen). A crashed RC must
        // NOT notify: its log recovery may be partial, and notifying
        // would let thieves steal locks of unresolved Logged-Stray-Txs.
        let t_notify = Instant::now();
        self.enter_step(RecoveryStep::StrayNotification);
        report.completed = !self.injector.is_crashed();
        if report.completed {
            self.ctx.failed.set(coord);
        }
        report.stray_notification = t_notify.elapsed();

        report.coord = coord;
        report.attempts = 1;
        report.verbs = self.injector.ops_issued() - ops0;
        report.total = t0.elapsed();
        report
    }

    /// Read the failed coordinator's log regions from `log_nodes`, merge
    /// entries (f+1 copies; some may be torn/missing), and resolve *all*
    /// of the coordinator's in-flight transactions — the interleaved
    /// scheduler keeps up to [`dkvs::TXN_LOG_LANES`] of them in flight,
    /// one per log lane. Idempotent: ends with every lane header of every
    /// live log copy zero.
    ///
    /// Lane walk: a scheduler slot writes its entry at its own lane
    /// offset; the classic engine writes at the region base and its
    /// entry may *span* lanes. The walk visits lane offsets in ascending
    /// order and skips any offset covered by the extent of a previously
    /// decoded entry ([`LogEntry::encoded_len`]); the entry checksum
    /// rejects the middle bytes of a torn or partially-overwritten
    /// spanning entry, so the two layouts cannot be confused.
    ///
    /// Hardening rules beyond the paper's sketch (found by review):
    ///
    /// * **Only the newest entry per lane acts.** The classic engine's
    ///   commits do not truncate their logs (DESIGN §9.2), so a crash
    ///   between the log writes of txn N+1 can leave txn N's stale
    ///   committed entry on one log server and N+1's on another. A lane
    ///   runs one transaction at a time, so within a lane any entry
    ///   older than the newest is necessarily a *committed* transaction
    ///   whose locks were already released — acting on it (in particular
    ///   CAS-unlocking `pill(coord)`) could release locks a newer,
    ///   unresolved transaction still holds. Distinct lanes never hold
    ///   the same object's lock simultaneously (both would have to own
    ///   its lock word), so resolving the lanes independently is safe.
    /// * **Classify all → restore all → truncate all → unlock all.**
    ///   Unlocks come strictly after every lane's pre-images are
    ///   restored and every lane entry is truncated. If the RC dies
    ///   after unlocking some pre-image-restored objects but before
    ///   truncating, a live transaction can commit into the freed slot
    ///   and a re-executed recovery would clobber that acked commit;
    ///   and a stale committed lane's owner-checked unlock is only
    ///   idempotent once no unresolved lane can still hold that word.
    fn log_recovery(&self, coord: u16, log_nodes: &[NodeId]) -> RecoveryReport {
        self.enter_step(RecoveryStep::LogRecovery);
        let mut report = RecoveryReport::default();
        let dead = self.ctx.dead_set();
        let map = &self.ctx.map;

        // Phase 1: the f+1 region READs (paper: "the RC can read all logs
        // by issuing f+1 RDMA Reads") in one round trip, then a per-server
        // extent-skip lane walk and a per-lane newest-txn merge across
        // the copies.
        let copies: Vec<(NodeId, u64)> = log_nodes
            .iter()
            .filter(|&&n| !dead.contains(n))
            .map(|&n| (n, map.log_region(n, coord).base))
            .collect();
        let mut regions = self.phase();
        for &(node, base) in &copies {
            regions.post(node, base, PhaseOp::Read(LOG_REGION_BYTES as usize));
        }
        let mut lanes: Vec<FxHashMap<u64, Vec<UndoRecord>>> =
            (0..TXN_LOG_LANES as usize).map(|_| FxHashMap::default()).collect();
        // The lane headers phase 4 zeroes: those whose state word this
        // READ found set. The failed server's links were terminated
        // before this step, so a word that reads zero stays zero.
        let mut set_headers: Vec<(NodeId, u64)> = Vec::new();
        for (&(node, base), reply) in copies.iter().zip(regions.barrier(&mut report.barriers)) {
            // A copy whose READ failed is skipped: a timeout that
            // outlasted the retry ladder has fenced this RC, so nothing
            // below takes effect, and a log server that died is a copy f+1
            // logging spares. Nothing is known of its headers, so all of
            // them are truncated.
            let Ok(buf) = reply else {
                set_headers.extend(lane_offsets().map(|off| (node, base + off)));
                continue;
            };
            let mut covered = 0u64; // end of the last decoded entry's extent
            for (lane_entries, off) in lanes.iter_mut().zip(lane_offsets()) {
                if word(&buf[off as usize..off as usize + 8]) != 0 {
                    set_headers.push((node, base + off));
                }
                if off < covered {
                    continue; // inside a spanning (classic, solo) entry
                }
                let Some(entry) = LogEntry::decode(&buf[off as usize..]) else {
                    continue;
                };
                covered = off + entry.encoded_len() as u64;
                if entry.coord != coord {
                    continue; // slot reused by another id — not ours
                }
                let records = lane_entries.entry(entry.txn_id).or_default();
                for r in entry.writes {
                    if !self.record_in_range(&r) {
                        continue; // garbage coordinates (decode cannot know table shapes)
                    }
                    if !records.iter().any(|e| e.table == r.table && e.key == r.key) {
                        records.push(r);
                    }
                }
            }
        }

        // Within each lane only the newest entry can be un-resolved
        // (see docs above).
        let lane_records: Vec<Vec<UndoRecord>> = lanes
            .into_iter()
            .map(|mut txns| match txns.keys().copied().max() {
                Some(id) => {
                    report.logged_txns += 1;
                    txns.remove(&id).expect("key came from the map")
                }
                None => Vec::new(),
            })
            .collect();
        let slot_addr = |node, r: &UndoRecord| map.slot_addr(node, r.table, r.bucket, r.slot);

        // Phase 2: classify every lane before mutating anything — a
        // rollback restore must not race this RC's own unlocks. Cor2/Cor3
        // decision: roll forward iff every live replica of every
        // write-set object moved past its pre-image version. (While the
        // failed coordinator held the primary locks nobody else could
        // advance these objects, so `!= old` ⇔ "this txn's update
        // landed"; after a full commit+unlock, later writers only advance
        // versions further, keeping the predicate true — which makes
        // re-running recovery after the fact harmless.) Every version
        // READ of every lane shares the barrier, and so do the READs of
        // the primaries' lock words phase 5 releases: a lock the failed
        // coordinator holds cannot change hands before its id is
        // published as failed — by this recovery, or by one racing it,
        // and then phase 5's CAS on the exact word fails harmlessly —
        // and one it no longer holds can never become its own again.
        let pill = self.ctx.config.pill_active();
        let mut classify = self.phase();
        let mut probes = Vec::new(); // (lane, replica, pre-image version) per version READ
        for (lane, records) in lane_records.iter().enumerate() {
            for r in records {
                for node in map.replica_walk(r.table, r.bucket).filter(|&n| !dead.contains(n)) {
                    let addr = slot_addr(node, r) + SlotLayout::VERSION_OFF;
                    classify.post(node, addr, PhaseOp::Read(8));
                    probes.push((lane, node, r.old_version.raw()));
                }
            }
        }
        // The acting primaries' lock words, every record of every lane.
        let locks: Vec<(NodeId, u64)> = lane_records
            .iter()
            .flatten()
            .filter_map(|r| {
                let primary = map.primary(r.table, r.bucket, dead)?;
                Some((primary, slot_addr(primary, r) + SlotLayout::LOCK_OFF))
            })
            .collect();
        if pill {
            for &(primary, addr) in &locks {
                classify.post(primary, addr, PhaseOp::Read(8));
            }
        }
        let mut replies = classify.barrier(&mut report.barriers).into_iter();
        let mut applied = vec![true; lane_records.len()];
        for ((lane, node, old_version), reply) in probes.into_iter().zip(replies.by_ref()) {
            applied[lane] &= match reply {
                Ok(version) => word(&version) != old_version,
                // Retried (and fenced on exhaustion): answering "not
                // applied" off a transient read failure would roll back
                // a possibly-acked commit (Cor3). A fenced RC still
                // lands here, but its restore writes all fail closed and
                // the FD re-executes recovery on a fresh RC. A replica
                // that died between the dead-node snapshot and this READ
                // counts like any other dead replica (skipped) rather
                // than forcing a rollback — the commit-ack criterion is
                // "all *live* replicas updated" (§3.2.5).
                Err(_) => !self.ctx.fabric.node(node).map(|n| n.is_alive()).unwrap_or(false),
            };
        }
        // Lock words carry a per-txn tag, so phase 5 CASes on the exact
        // word read here — still owner-checked (a lock re-acquired by a
        // live coordinator has a different owner or tag and the CAS
        // fails harmlessly).
        let held: Vec<(NodeId, u64, u64)> = locks
            .iter()
            .zip(replies)
            .filter_map(|(&(primary, addr), reply)| {
                let raw = word(&reply.ok()?);
                let observed = LockWord(raw);
                (observed.is_locked() && observed.owner() == coord).then_some((primary, addr, raw))
            })
            .collect();

        // Phase 3: restore every rollback lane's pre-images while all
        // locks are still held — value first, version second, on the
        // replica's one queue pair, so the two land in that order. A
        // restore write that exhausts its retries fences the RC: a
        // silently-skipped pre-image would leave that replica holding
        // the failed txn's partial update after truncation erased the
        // undo record.
        let mut restore = self.phase();
        for (records, _) in lane_records.iter().zip(&applied).filter(|(_, &applied)| !applied) {
            for r in records {
                for node in map.replica_walk(r.table, r.bucket).filter(|&n| !dead.contains(n)) {
                    let base = slot_addr(node, r);
                    restore.post(node, base + SlotLayout::VALUE_OFF, PhaseOp::Write(&r.old_value));
                    let version = PhaseOp::WriteWord(r.old_version.raw());
                    restore.post(node, base + SlotLayout::VERSION_OFF, version);
                }
            }
        }
        restore.barrier(&mut report.barriers);

        // Phase 4: truncate — zero every lane header phase 1 found set (a
        // spanning classic entry dies with its lane-0 header; the words
        // of its body that fall on later lane offsets are zeroed too, as
        // a blind truncation of all lanes would). Nothing logged: no
        // verb, no barrier.
        let mut truncate = self.phase();
        for &(node, addr) in &set_headers {
            truncate.post(node, addr, PhaseOp::WriteWord(0));
        }
        truncate.barrier(&mut report.barriers);

        // Phase 5: owner-checked unlocks, all lanes. An unlock CAS whose
        // completion was lost is settled by re-reading the word (PILL
        // ownership — see `release_cas_resolved`). Anonymous locks get a
        // blind unlock — only safe because FORD / Traditional recovery
        // runs under a world pause.
        let mut unlock = self.phase();
        if pill {
            for &(primary, addr, raw) in &held {
                unlock.post(primary, addr, PhaseOp::Release(raw));
            }
        } else {
            for &(primary, addr) in &locks {
                unlock.post(primary, addr, PhaseOp::WriteWord(0));
            }
        }
        unlock.barrier(&mut report.barriers);
        for (records, &applied) in lane_records.iter().zip(&applied) {
            if records.is_empty() {
                continue;
            }
            if applied {
                report.rolled_forward += 1;
            } else {
                report.rolled_back += 1;
            }
        }
        report
    }

    /// Truncate `coord`'s log and lock-intent regions on every live
    /// memory node (used when an id is returned to the pool, so the next
    /// holder of the same log slot starts clean). Nothing was read, so
    /// every lane header is zeroed blind.
    pub fn truncate_all_regions(&self, coord: u16) {
        let dead = self.ctx.dead_set();
        let map = &self.ctx.map;
        let mut phase = self.phase();
        for node in self.ctx.fabric.node_ids().filter(|&n| !dead.contains(n)) {
            let base = map.log_region(node, coord).base;
            for off in lane_offsets() {
                phase.post(node, base + off, PhaseOp::WriteWord(0));
            }
            phase.post(node, map.intent_region(node, coord).base, PhaseOp::WriteWord(0));
        }
        phase.barrier(&mut 0);
    }

    /// Decoded records carry attacker-grade coordinates (the log codec
    /// cannot know table shapes); reject anything out of range before
    /// using it in address arithmetic.
    fn record_in_range(&self, r: &UndoRecord) -> bool {
        if (r.table.0 as usize) >= self.ctx.map.num_tables() {
            return false;
        }
        let def = self.ctx.map.table(r.table);
        r.bucket < def.buckets
            && r.slot < def.slots_per_bucket
            && r.old_value.len() == def.layout().value_padded()
    }

    // ----------------------------------------------------------------
    // Baseline: stop-the-world + full-KVS scan (paper §6.1)
    // ----------------------------------------------------------------

    /// Baseline recovery for a batch of failed coordinators: pause the
    /// whole KVS, resolve their logs, then scan *every bucket of every
    /// table* to find and release stray locks — the seconds-scale cost
    /// the paper measures (~5 s per million keys).
    pub fn recover_baseline(&self, failed: &[(u16, EndpointId)]) -> RecoveryReport {
        let t0 = Instant::now();
        let ops0 = self.injector.ops_issued();
        let link_fanouts = self.terminate_links(failed.iter().map(|&(_, ep)| ep));
        let link_termination = t0.elapsed();
        let quiesced = self.ctx.pause.pause_and_quiesce(Duration::from_secs(60));
        debug_assert!(quiesced, "a live coordinator failed to quiesce");

        let t_log = Instant::now();
        let all_nodes: Vec<NodeId> = self.ctx.fabric.node_ids().collect();
        let mut report =
            RecoveryReport { link_termination, link_fanouts, ..RecoveryReport::default() };
        for &(coord, _) in failed {
            let r = self.log_recovery(coord, &all_nodes);
            report.logged_txns += r.logged_txns;
            report.rolled_forward += r.rolled_forward;
            report.rolled_back += r.rolled_back;
            report.barriers += r.barriers;
        }
        // Full scan: with the world stopped and live transactions
        // aborted, every remaining lock is stray — release it.
        report.locks_released = self.scan_release_all_locks();
        report.log_recovery = t_log.elapsed();

        self.enter_step(RecoveryStep::StrayNotification);
        report.completed = !self.injector.is_crashed();
        // Resume unconditionally (the pause is a counted lease and a
        // crashed RC must not orphan it). This is safe mid-recovery:
        // every partially-rolled object still holds its lock until the
        // log is truncated, so live transactions cannot observe torn
        // state; the FD's retry re-pauses and finishes the job.
        let t_notify = Instant::now();
        self.ctx.pause.resume();
        report.stray_notification = t_notify.elapsed();
        report.coord = failed.first().map(|&(c, _)| c).unwrap_or(0);
        report.attempts = 1;
        report.verbs = self.injector.ops_issued() - ops0;
        report.total = t0.elapsed();
        report
    }

    /// Scan every bucket of every table (on the acting primary) and
    /// release every lock found. Returns the number released.
    fn scan_release_all_locks(&self) -> usize {
        let dead = self.ctx.dead_nodes();
        let mut released = 0;
        let table_ids: Vec<TableId> = self.ctx.map.tables().map(|t| t.id).collect();
        for table in table_ids {
            let def = self.ctx.map.table(table).clone();
            let layout = def.layout();
            let mut buf = vec![0u8; def.bucket_bytes() as usize];
            for bucket in 0..def.buckets {
                let Some(&primary) = self.ctx.map.live_replicas(table, bucket, &dead).first()
                else {
                    continue;
                };
                let addr = self.ctx.map.bucket_addr(primary, table, bucket);
                if self.verb_or_fence(|| self.qp(primary).read(addr, &mut buf)).is_err() {
                    continue;
                }
                let sb = layout.slot_bytes() as usize;
                for i in 0..def.slots_per_bucket as usize {
                    let lock_off = i * sb + SlotLayout::LOCK_OFF as usize;
                    let lock = LockWord(u64::from_le_bytes(
                        buf[lock_off..lock_off + 8].try_into().expect("8B"),
                    ));
                    if lock.is_locked() {
                        let la = addr + (i as u64) * layout.slot_bytes() + SlotLayout::LOCK_OFF;
                        if self.verb_or_fence(|| self.qp(primary).write_u64(la, 0)).is_ok() {
                            released += 1;
                        }
                    }
                }
            }
        }
        released
    }

    // ----------------------------------------------------------------
    // Traditional scheme: lock-intent replay (paper §6.1, §6.2.1)
    // ----------------------------------------------------------------

    /// Traditional recovery: like Baseline but the stray locks are found
    /// by replaying the failed coordinators' lock-intent logs instead of
    /// scanning the KVS. Still stop-the-world (anonymous locks), but no
    /// scan — recovery is milliseconds, at the cost of the extra
    /// steady-state logging round trip per lock.
    pub fn recover_traditional(&self, failed: &[(u16, EndpointId)]) -> RecoveryReport {
        let t0 = Instant::now();
        let ops0 = self.injector.ops_issued();
        let link_fanouts = self.terminate_links(failed.iter().map(|&(_, ep)| ep));
        let link_termination = t0.elapsed();
        let quiesced = self.ctx.pause.pause_and_quiesce(Duration::from_secs(60));
        debug_assert!(quiesced, "a live coordinator failed to quiesce");

        let t_log = Instant::now();
        let all_nodes: Vec<NodeId> = self.ctx.fabric.node_ids().collect();
        let mut report =
            RecoveryReport { link_termination, link_fanouts, ..RecoveryReport::default() };
        for &(coord, _) in failed {
            let r = self.log_recovery(coord, &all_nodes);
            report.logged_txns += r.logged_txns;
            report.rolled_forward += r.rolled_forward;
            report.rolled_back += r.rolled_back;
            report.barriers += r.barriers;
            report.locks_released += self.replay_lock_intents(coord);
        }
        report.log_recovery = t_log.elapsed();
        self.enter_step(RecoveryStep::StrayNotification);
        report.completed = !self.injector.is_crashed();
        let t_notify = Instant::now();
        self.ctx.pause.resume(); // counted lease; see recover_baseline
        report.stray_notification = t_notify.elapsed();
        report.coord = failed.first().map(|&(c, _)| c).unwrap_or(0);
        report.attempts = 1;
        report.verbs = self.injector.ops_issued() - ops0;
        report.total = t0.elapsed();
        report
    }

    /// Read `coord`'s lock-intent regions and release every still-held
    /// lock they reference.
    fn replay_lock_intents(&self, coord: u16) -> usize {
        let dead = self.ctx.dead_nodes();
        let mut released = 0;
        let mut seen: Vec<(u64, u64, u64)> = Vec::new();
        for node in self.ctx.map.log_servers(coord) {
            if dead.contains(&node) {
                continue;
            }
            let region = self.ctx.map.intent_region(node, coord);
            let mut buf = vec![0u8; dkvs::cluster::INTENT_REGION_BYTES as usize];
            if self.verb_or_fence(|| self.qp(node).read(region.base, &mut buf)).is_err() {
                continue;
            }
            let count = u64::from_le_bytes(buf[0..8].try_into().expect("8B")) as usize;
            if count > (buf.len() - 8) / 24 {
                continue; // torn/garbage
            }
            for i in 0..count {
                let off = 8 + i * 24;
                let w = |j: usize| {
                    u64::from_le_bytes(buf[off + j * 8..off + (j + 1) * 8].try_into().expect("8B"))
                };
                let rec = (w(0), w(1), w(2));
                if !seen.contains(&rec) {
                    seen.push(rec);
                }
            }
        }
        for (table, bucket, slot) in seen {
            let table = TableId(table as u16);
            let Some(&primary) = self.ctx.map.live_replicas(table, bucket, &dead).first() else {
                continue;
            };
            let addr =
                self.ctx.map.slot_addr(primary, table, bucket, slot as u32) + SlotLayout::LOCK_OFF;
            if let Ok(v) = self.verb_or_fence(|| self.qp(primary).read_u64(addr)) {
                if LockWord(v).is_locked()
                    && self.verb_or_fence(|| self.qp(primary).write_u64(addr, 0)).is_ok()
                {
                    released += 1;
                }
            }
        }
        // Clear the intent regions (idempotency).
        for node in self.ctx.map.log_servers(coord) {
            if dead.contains(&node) {
                continue;
            }
            let region = self.ctx.map.intent_region(node, coord);
            let _ = self.verb_or_fence(|| self.qp(node).write_u64(region.base, 0));
        }
        released
    }

    // ----------------------------------------------------------------
    // Coordinator-id recycling (paper §3.1.2 "Recycling coordinator-ids")
    // ----------------------------------------------------------------

    /// Background mechanism: scan the KVS, release every stray lock owned
    /// by a failed id (owner-checked CAS — "sufficient to resolve race
    /// conditions with in-flight transactions"), then clear the failed
    /// bits so the ids can be reassigned. Returns (locks released, ids
    /// recycled).
    pub fn recycle_failed_ids(&self) -> (usize, usize) {
        // CAS-guarded claim: two recoverers (e.g. overlapping takeovers
        // of the same coordinator, or the FD's 95% trigger racing a
        // test's explicit call) must not run the scan concurrently —
        // they would double-release/steal the same strays and clear the
        // same failed bit twice, bumping `epoch()` twice for one
        // recycling. The loser simply returns; the ids stay failed and a
        // later pass picks them up.
        if !self.ctx.failed.try_claim_recycle() {
            return (0, 0);
        }
        // The failed set is read under the claim: a list snapshotted
        // before it could name ids an earlier claimant has since recycled
        // — and that the FD may have reassigned to live coordinators,
        // whose locks the scan would then release.
        let failed = self.ctx.failed.iter_failed();
        let out = if failed.is_empty() { (0, 0) } else { self.recycle_failed_ids_locked(&failed) };
        self.ctx.failed.release_recycle();
        out
    }

    /// The recycling scan proper; caller holds the recycle claim.
    fn recycle_failed_ids_locked(&self, failed: &[u16]) -> (usize, usize) {
        let dead = self.ctx.dead_nodes();
        let mut released = 0;
        // An incomplete scan must NOT clear the failed bits: a stray lock
        // in a bucket we failed to read would then masquerade as a live
        // coordinator's lock forever (unstealable, unreleasable).
        let mut scan_complete = true;
        let table_ids: Vec<TableId> = self.ctx.map.tables().map(|t| t.id).collect();
        for table in table_ids {
            let def = self.ctx.map.table(table).clone();
            let layout = def.layout();
            let mut buf = vec![0u8; def.bucket_bytes() as usize];
            for bucket in 0..def.buckets {
                let Some(&primary) = self.ctx.map.live_replicas(table, bucket, &dead).first()
                else {
                    continue;
                };
                let addr = self.ctx.map.bucket_addr(primary, table, bucket);
                if self.retry_verb(|| self.qp(primary).read(addr, &mut buf)).is_err() {
                    scan_complete = false;
                    continue;
                }
                let sb = layout.slot_bytes() as usize;
                for i in 0..def.slots_per_bucket as usize {
                    let lock_off = i * sb + SlotLayout::LOCK_OFF as usize;
                    let lock = LockWord(u64::from_le_bytes(
                        buf[lock_off..lock_off + 8].try_into().expect("8B"),
                    ));
                    if lock.is_locked() && failed.contains(&lock.owner()) {
                        let la = addr + (i as u64) * layout.slot_bytes() + SlotLayout::LOCK_OFF;
                        // Ambiguity-resolved steal (PILL: the observed
                        // raw word is unique to the failed txn, so a
                        // lost completion is settled by re-reading). A
                        // release that already landed resolves Ok — the
                        // lock is free either way. Only an exhausted
                        // budget keeps the failed bit set (scan_complete)
                        // for a later pass.
                        let stolen = retry::cas_resolved(
                            &self.ctx.config.retry.escalated(),
                            Some(&self.ctx.resilience),
                            0x5ec0_7e57 ^ la,
                            self.qp(primary),
                            la,
                            lock.raw(),
                            0,
                            true,
                        );
                        if stolen.is_ok() {
                            released += 1;
                        } else {
                            scan_complete = false;
                        }
                    }
                }
            }
        }
        if !scan_complete {
            return (released, 0); // ids stay failed; retry recycling later
        }
        (released, failed.iter().filter(|&&id| self.ctx.failed.clear(id)).count())
    }
}
