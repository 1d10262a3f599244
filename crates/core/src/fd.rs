//! The failure detector (FD): heartbeat monitoring, coordinator-id
//! allocation, and recovery orchestration (paper §3.1.2, §3.2.2, §3.2.4).
//!
//! The FD is an independent service that (a) hands out unique 16-bit
//! coordinator-ids ("Each compute server's spawn is strictly serialized,
//! ensuring that no two servers are assigned the same coordinator-ids"),
//! (b) watches heartbeats with a timeout (5 ms in the paper), and (c) on
//! a detected failure drives the recovery coordinator and finally
//! notifies the live compute servers (the failed-ids set).
//!
//! Two deployments are provided, mirroring Figure 4:
//! * [`FailureDetector`] — the standalone FD.
//! * [`QuorumFd`] — the distributed FD: N replica views each monitor
//!   heartbeats independently and a coordinator is only declared failed
//!   when a majority of views agree, absorbing transient hiccups
//!   (§3.2.4). The paper replicates FD state via ZooKeeper; the quorum of
//!   in-process replica views is the simulation substitute (DESIGN §1).
//!
//! Heartbeats are shared atomic counters bumped by the compute loop —
//! the stand-in for the paper's RDMA-based heartbeat writes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dkvs::MAX_COORDINATORS;
use parking_lot::Mutex;
use rdma_sim::{EndpointId, NodeId, RdmaResult};

use crate::context::SharedContext;
use crate::flight::Payload;
use crate::memfail::MemoryFailureHandler;
use crate::recovery::{RecoveryCoordinator, RecoveryCrashPlan, RecoveryReport};

/// Handle given to a compute server at registration: its coordinator-id
/// and its heartbeat counter.
#[derive(Clone)]
pub struct CoordinatorLease {
    pub coord_id: u16,
    pub endpoint: EndpointId,
    heartbeat: Arc<AtomicU64>,
}

impl CoordinatorLease {
    /// Bump the heartbeat (call from the transaction loop).
    #[inline]
    pub fn beat(&self) {
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
    }
}

struct Member {
    coord_id: u16,
    endpoint: EndpointId,
    heartbeat: Arc<AtomicU64>,
    last_value: u64,
    last_change: Instant,
    state: MemberState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemberState {
    Alive,
    Failed,
    Deregistered,
}

struct FdState {
    members: Vec<Member>,
    /// Monotonic id counter; ids freed by recycling go to `free_ids`.
    next_id: u32,
    free_ids: Vec<u16>,
}

/// The standalone failure detector + coordinator-id authority.
pub struct FailureDetector {
    ctx: Arc<SharedContext>,
    /// The resident RC. Behind a mutex because a crashed RC (self-fenced
    /// or killed by an armed crash point) stays crashed forever — every
    /// later verb fails closed — so [`FailureDetector::healthy_rc`]
    /// replaces it wholesale instead of letting it poison all future
    /// recoveries.
    rc: Mutex<Arc<RecoveryCoordinator>>,
    state: Mutex<FdState>,
    /// Reports of completed recoveries (observability / experiments).
    reports: Mutex<Vec<RecoveryReport>>,
    /// One-shot: the next recovery's *first* RC is killed per this plan
    /// (tests/CLI arm it; the takeover machinery is what's under test).
    recovery_crash: Mutex<Option<RecoveryCrashPlan>>,
    /// One-shot: this memory node dies between the recoverer's death and
    /// the takeover, so the re-run recovers against the post-promotion
    /// placement (compound-failure scenario).
    nested_mem_fail: Mutex<Option<NodeId>>,
}

impl FailureDetector {
    pub fn new(ctx: Arc<SharedContext>) -> RdmaResult<Arc<FailureDetector>> {
        let rc = Arc::new(RecoveryCoordinator::new(Arc::clone(&ctx))?);
        Ok(Arc::new(FailureDetector {
            ctx,
            rc: Mutex::new(rc),
            state: Mutex::new(FdState { members: Vec::new(), next_id: 0, free_ids: Vec::new() }),
            reports: Mutex::new(Vec::new()),
            recovery_crash: Mutex::new(None),
            nested_mem_fail: Mutex::new(None),
        }))
    }

    pub fn context(&self) -> &Arc<SharedContext> {
        &self.ctx
    }

    /// The resident recovery coordinator, respawned if a previous run
    /// left it crashed.
    pub fn recovery(&self) -> Arc<RecoveryCoordinator> {
        self.healthy_rc()
    }

    fn healthy_rc(&self) -> Arc<RecoveryCoordinator> {
        let mut rc = self.rc.lock();
        if rc.injector().is_crashed() {
            *rc = Arc::new(
                RecoveryCoordinator::new(Arc::clone(&self.ctx))
                    .expect("respawn recovery coordinator"),
            );
        }
        Arc::clone(&rc)
    }

    /// Arm a one-shot kill of the next recovery's first recoverer at a
    /// step/verb boundary (see [`RecoveryCrashPlan`]). The doomed RC is a
    /// dedicated instance; the resident RC is never poisoned.
    pub fn arm_recovery_crash(&self, plan: RecoveryCrashPlan) {
        *self.recovery_crash.lock() = Some(plan);
    }

    /// Arm a one-shot memory-node death in the middle of the next
    /// recovery that needs a takeover: the node is killed and the
    /// reconfiguration run between the recoverer's death and the fresh
    /// RC's re-run. Pair with [`FailureDetector::arm_recovery_crash`]
    /// (without a dead recoverer there is no takeover boundary to
    /// inject at).
    pub fn arm_nested_mem_fail(&self, node: NodeId) {
        *self.nested_mem_fail.lock() = Some(node);
    }

    /// Allocate a unique coordinator-id and register its heartbeat.
    /// Triggers id recycling when >95% of the id space is consumed
    /// (paper §3.1.2).
    pub fn register(&self, endpoint: EndpointId) -> CoordinatorLease {
        let mut st = self.state.lock();
        if st.free_ids.is_empty() && st.next_id as usize >= MAX_COORDINATORS * 95 / 100 {
            // >95% of the id space consumed: run the background recycling
            // scan (releases all stray locks of failed ids with
            // owner-checked CAS, then clears their failed bits) and
            // return those ids — plus cleanly-deregistered ones — to the
            // free pool.
            drop(st);
            self.healthy_rc().recycle_failed_ids();
            st = self.state.lock();
            let mut pool = Vec::new();
            st.members.retain(|m| match m.state {
                MemberState::Alive => true,
                MemberState::Failed | MemberState::Deregistered => {
                    pool.push(m.coord_id);
                    false
                }
            });
            st.free_ids.extend(pool);
        }
        let coord_id = if let Some(id) = st.free_ids.pop() {
            id
        } else {
            assert!((st.next_id as usize) < MAX_COORDINATORS, "coordinator-id space exhausted");
            let id = st.next_id as u16;
            st.next_id += 1;
            id
        };
        // Log-slot aliasing guard: two simultaneously-tracked ids that
        // collide mod max_coord_slots would share a log region.
        assert!(
            st.members.len() < self.ctx.map.max_coord_slots() as usize,
            "more tracked coordinators than log slots ({}); raise max_coord_slots",
            self.ctx.map.max_coord_slots()
        );
        let heartbeat = Arc::new(AtomicU64::new(0));
        st.members.push(Member {
            coord_id,
            endpoint,
            heartbeat: Arc::clone(&heartbeat),
            last_value: 0,
            last_change: Instant::now(),
            state: MemberState::Alive,
        });
        CoordinatorLease { coord_id, endpoint, heartbeat }
    }

    /// Jump the id counter forward, simulating a long-lived system that
    /// has consumed most of its 64K coordinator-id space (drives the 95%
    /// recycling threshold in tests and demos; paper §3.1.2 "Recycling
    /// coordinator-ids").
    pub fn advance_id_space(&self, next_id: u32) {
        let mut st = self.state.lock();
        assert!(next_id as usize <= MAX_COORDINATORS, "cannot advance past the 16-bit id space");
        st.next_id = st.next_id.max(next_id);
    }

    /// Clean shutdown of a coordinator: its log regions are truncated
    /// (so a future holder of the same log slot cannot inherit a stale
    /// committed entry) and the id returns to the free pool immediately.
    pub fn deregister(&self, coord_id: u16) {
        let is_member = {
            let mut st = self.state.lock();
            match st.members.iter_mut().find(|m| m.coord_id == coord_id) {
                Some(m) if m.state == MemberState::Alive => {
                    m.state = MemberState::Deregistered;
                    true
                }
                _ => false,
            }
        };
        if !is_member {
            return;
        }
        self.healthy_rc().truncate_all_regions(coord_id);
        let mut st = self.state.lock();
        st.members.retain(|m| m.coord_id != coord_id);
        st.free_ids.push(coord_id);
    }

    /// A falsely suspected compute server rejoins: `endpoint` is restored
    /// on every live memory node and the resident RC forgets having
    /// terminated it, so the server's next suspicion is fenced again
    /// instead of being skipped as already revoked. Its coordinators
    /// register afresh — the suspected ids stay failed.
    pub fn rejoin(&self, endpoint: EndpointId) {
        self.healthy_rc().restore_links(endpoint);
    }

    /// Manually declare a coordinator failed and run recovery now
    /// (experiments bypass the heartbeat wait with this; the end-to-end
    /// path including detection is [`FailureDetector::start_monitor`]).
    pub fn declare_failed(&self, coord_id: u16) -> Option<RecoveryReport> {
        let (endpoint, detection) = {
            let mut st = self.state.lock();
            let m = st.members.iter_mut().find(|m| m.coord_id == coord_id)?;
            if m.state != MemberState::Alive {
                return None;
            }
            m.state = MemberState::Failed;
            // Step 1: how stale the heartbeat was at declaration time —
            // the FD's view of detection latency.
            (m.endpoint, m.last_change.elapsed())
        };
        let report = self
            .recover_with_retry(coord_id, detection, |rc| rc.recover_compute(coord_id, endpoint));
        self.reports.lock().push(report.clone());
        Some(report)
    }

    /// Run a recovery, re-executing on a fresh RC if the RC itself
    /// crashes mid-way (paper §3.2.3: every step of the end-to-end
    /// algorithm is idempotent and re-executable "until the final
    /// acknowledgment is received from the recovery coordinator").
    ///
    /// Flight-recorder hooks bracket the run: the in-flight gauge the
    /// metrics timeline samples, a pre-recovery auto-dump (the last-N
    /// spans *leading up to* the failure are the post-mortem payload),
    /// a trigger instant on the chaos track, and — once the report is
    /// in — the four measured recovery steps laid back onto the failed
    /// coordinator's track, ending at completion time.
    fn recover_with_retry(
        &self,
        coord: u16,
        detection: Duration,
        run: impl Fn(&RecoveryCoordinator) -> RecoveryReport,
    ) -> RecoveryReport {
        let flight = self.ctx.flight();
        if let Some(rec) = &flight {
            rec.chaos_instant("recovery-trigger", coord as u64);
            rec.auto_dump("recovery");
        }
        self.ctx.recoveries_in_flight.fetch_add(1, Ordering::AcqRel);
        // An armed kill plan dooms a *dedicated* RC: arming the resident
        // one would leave its injector permanently crashed and poison
        // every later recovery that reuses it.
        let armed = self.recovery_crash.lock().take();
        self.ctx.resilience.note_recovery_attempt();
        let mut report = match armed {
            Some(plan) => {
                let doomed = RecoveryCoordinator::new(Arc::clone(&self.ctx))
                    .expect("spawn recovery coordinator");
                doomed.arm_recovery_crash(plan);
                run(&doomed)
            }
            None => run(&self.healthy_rc()),
        };
        let mut attempts = 1u32;
        while !report.completed && attempts < 4 {
            // The recoverer died mid-run. In the deployed system a
            // surviving QuorumFd replica notices the silent recoverer;
            // here the takeover is this re-execution — from scratch, on
            // a fresh RC. Every recovery step is idempotent (§3.2.3), so
            // re-running converges to the same end state no matter where
            // the previous recoverer died.
            self.ctx.resilience.note_recovery_takeover();
            let t_takeover = flight.as_ref().map(|r| r.now_ns());
            if let Some(rec) = &flight {
                rec.chaos_instant("recovery-takeover", ((attempts as u64) << 16) | coord as u64);
            }
            // Compound failure: an armed memory-node death lands in the
            // window between the recoverer's death and the takeover, so
            // the re-run executes against the post-promotion placement.
            if let Some(node) = self.nested_mem_fail.lock().take() {
                if let Some(rec) = &flight {
                    rec.chaos_instant("mem-fail-during-recovery", node.0 as u64);
                }
                let _ = self.ctx.fabric.kill_node(node);
                if let Ok(handler) = MemoryFailureHandler::new(Arc::clone(&self.ctx)) {
                    let _ = handler.handle_failure(node);
                }
            }
            let fresh = RecoveryCoordinator::new(Arc::clone(&self.ctx))
                .expect("spawn replacement recovery coordinator");
            self.ctx.resilience.note_recovery_attempt();
            report = run(&fresh);
            attempts += 1;
            if let (Some(rec), Some(start)) = (&flight, t_takeover) {
                rec.chaos_span("recovery-takeover-run", coord as u64, start);
            }
        }
        report.attempts = attempts;
        report.detection = detection;
        self.ctx.recoveries_in_flight.fetch_sub(1, Ordering::AcqRel);
        if let Some(rec) = &flight {
            let h = rec.handle(coord);
            let mut end_ns = h.now_ns();
            for (name, d) in report.steps().iter().rev() {
                let dur_ns = (d.as_nanos() as u64).max(1);
                end_ns = end_ns.saturating_sub(dur_ns);
                h.span(name, (coord as u64) << 48, end_ns, dur_ns, Payload::None, report.completed);
            }
        }
        report
    }

    /// One detection sweep: declare every coordinator whose heartbeat
    /// has not advanced within `timeout` as failed, batch-recover them,
    /// and return the reports.
    pub fn sweep(&self, timeout: Duration) -> Vec<RecoveryReport> {
        let now = Instant::now();
        // A paused world quiesces every coordinator: heartbeats stop by
        // design, not by failure. Declaring the whole fleet dead during a
        // memory-failure reconfiguration or Baseline recovery would be a
        // mass false positive — refresh the staleness clocks instead.
        if self.ctx.pause.pause_requested() {
            let mut st = self.state.lock();
            for m in st.members.iter_mut() {
                m.last_change = now;
            }
            return Vec::new();
        }
        // Suspects carry their detection latency (staleness at sweep
        // time, ≥ the configured timeout by construction).
        let suspects: Vec<(u16, EndpointId, Duration)> = {
            let mut st = self.state.lock();
            let mut out = Vec::new();
            for m in st.members.iter_mut() {
                if m.state != MemberState::Alive {
                    continue;
                }
                let cur = m.heartbeat.load(Ordering::Relaxed);
                if cur != m.last_value {
                    m.last_value = cur;
                    m.last_change = now;
                } else if now.duration_since(m.last_change) >= timeout {
                    m.state = MemberState::Failed;
                    out.push((m.coord_id, m.endpoint, now.duration_since(m.last_change)));
                }
            }
            out
        };
        let mut reports = Vec::with_capacity(suspects.len());
        if suspects.is_empty() {
            return reports;
        }
        match self.ctx.config.protocol {
            crate::config::ProtocolKind::Pandora => {
                for (coord, ep, detection) in suspects {
                    reports.push(
                        self.recover_with_retry(coord, detection, |rc| {
                            rc.recover_pandora(coord, ep)
                        }),
                    );
                }
            }
            crate::config::ProtocolKind::Ford | crate::config::ProtocolKind::Traditional => {
                let batch: Vec<(u16, EndpointId)> =
                    suspects.iter().map(|&(c, e, _)| (c, e)).collect();
                // One batched recovery; its detection step is the worst
                // staleness in the batch, and the flight spans land on
                // the first suspect's track (the batch shares one run).
                let detection = suspects.iter().map(|&(_, _, d)| d).max().unwrap_or_default();
                let lead = batch[0].0;
                let r = match self.ctx.config.protocol {
                    crate::config::ProtocolKind::Ford => {
                        self.recover_with_retry(lead, detection, |rc| rc.recover_baseline(&batch))
                    }
                    _ => self
                        .recover_with_retry(lead, detection, |rc| rc.recover_traditional(&batch)),
                };
                reports.push(r);
            }
        }
        self.reports.lock().extend(reports.iter().cloned());
        reports
    }

    /// Spawn the background monitor thread (poll interval and timeout
    /// from the system config; the paper uses 5 ms timeouts).
    pub fn start_monitor(self: &Arc<Self>) -> FdMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let fd = Arc::clone(self);
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("failure-detector".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    fd.sweep(fd.ctx.config.fd_timeout);
                    std::thread::sleep(fd.ctx.config.fd_poll);
                }
            })
            .expect("spawn fd monitor");
        FdMonitor { stop, handle: Some(handle) }
    }

    /// All recovery reports so far.
    pub fn reports(&self) -> Vec<RecoveryReport> {
        self.reports.lock().clone()
    }

    /// Number of currently-alive registered coordinators.
    pub fn alive_count(&self) -> usize {
        self.state
            .lock()
            .members
            .iter()
            .filter(|m| m.state == MemberState::Alive)
            .count()
    }
}

/// Handle to the background monitor thread.
pub struct FdMonitor {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl FdMonitor {
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FdMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// --------------------------------------------------------------------
// Distributed FD (paper §3.2.4, Figure 4b)
// --------------------------------------------------------------------

/// Outcome of one quorum detection round.
#[derive(Debug, Clone)]
pub enum FdOutcome {
    /// A majority of live replica views voted stale and recovery ran —
    /// possibly through takeovers; see [`RecoveryReport::attempts`].
    Recovered(RecoveryReport),
    /// No stale-vote majority (the coordinator was beating, unknown, or
    /// already handled): nothing to recover.
    NotFailed,
    /// Too few live FD replicas to form a majority of the configured
    /// replica set: detection is unavailable until replicas are revived,
    /// and the caller learns that explicitly instead of hanging on dead
    /// voters.
    NoQuorum,
}

impl FdOutcome {
    /// The recovery report, if the round recovered anything.
    pub fn report(&self) -> Option<&RecoveryReport> {
        match self {
            FdOutcome::Recovered(r) => Some(r),
            _ => None,
        }
    }
}

/// Quorum-replicated failure detector: `n_replicas` independent views of
/// the same heartbeats; a coordinator is declared failed only when a
/// majority of views have seen no heartbeat for the timeout. The
/// underlying standalone FD then performs the recovery.
///
/// Replica views can themselves die ([`QuorumFd::kill_replica`] —
/// including implicitly, when a view acting as the recoverer crashes
/// mid-recovery and a surviving view takes over). Dead views cast no
/// vote and are never waited on; once a majority of the configured set
/// is dead, detection degrades to an explicit
/// [`FdOutcome::NoQuorum`] rather than wedging.
pub struct QuorumFd {
    fd: Arc<FailureDetector>,
    replicas: Vec<Arc<AtomicBool>>,
}

impl QuorumFd {
    pub fn new(fd: Arc<FailureDetector>, n_replicas: usize) -> QuorumFd {
        assert!(n_replicas >= 1 && n_replicas % 2 == 1, "use an odd replica count");
        QuorumFd {
            fd,
            replicas: (0..n_replicas).map(|_| Arc::new(AtomicBool::new(true))).collect(),
        }
    }

    pub fn inner(&self) -> &Arc<FailureDetector> {
        &self.fd
    }

    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Number of currently-live replica views.
    pub fn live_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| r.load(Ordering::Acquire)).count()
    }

    /// Crash-stop replica view `i`: it stops voting and is never joined
    /// on in later rounds.
    pub fn kill_replica(&self, i: usize) {
        self.replicas[i].store(false, Ordering::Release);
    }

    /// Revive replica view `i` (a replacement process taking the slot).
    pub fn revive_replica(&self, i: usize) {
        self.replicas[i].store(true, Ordering::Release);
    }

    /// Run quorum detection for `coord`: each *live* replica view samples
    /// the heartbeat over `timeout` (with per-replica jitter) and votes;
    /// on a majority of stale votes among the live views recovery runs.
    /// This is deliberately slower than the standalone FD — the paper
    /// reports <20 ms with three ZooKeeper replicas vs ~5 ms standalone.
    ///
    /// If the recovery needed takeovers, each takeover consumed one
    /// recoverer — the view that died mid-recovery is marked dead here so
    /// later rounds' quorum math sees the loss.
    pub fn detect_and_recover(&self, coord: u16, timeout: Duration) -> FdOutcome {
        let live: Vec<usize> = (0..self.replicas.len())
            .filter(|&i| self.replicas[i].load(Ordering::Acquire))
            .collect();
        // Majority of the *configured* replica set: fewer live views than
        // that could never outvote a revived rest, so the round refuses
        // to decide instead of blocking on dead voters.
        if live.len() * 2 <= self.replicas.len() {
            return FdOutcome::NoQuorum;
        }
        let heartbeat = {
            let st = self.fd.state.lock();
            let Some(m) = st.members.iter().find(|m| m.coord_id == coord) else {
                return FdOutcome::NotFailed;
            };
            if m.state != MemberState::Alive {
                return FdOutcome::NotFailed;
            }
            Arc::clone(&m.heartbeat)
        };
        let mut votes = 0usize;
        let mut handles = Vec::new();
        for &r in &live {
            let hb = Arc::clone(&heartbeat);
            // Per-replica jitter models independent network paths.
            let extra = Duration::from_micros(200 * r as u64);
            handles.push(std::thread::spawn(move || {
                let start_val = hb.load(Ordering::Relaxed);
                std::thread::sleep(timeout + extra);
                hb.load(Ordering::Relaxed) == start_val
            }));
        }
        for h in handles {
            if h.join().unwrap_or(false) {
                votes += 1;
            }
        }
        if votes * 2 <= live.len() {
            return FdOutcome::NotFailed;
        }
        match self.fd.declare_failed(coord) {
            Some(report) => {
                // Each takeover means one recoverer view died mid-run;
                // at least one view survived to finish, so at most
                // live-1 can have been consumed.
                let consumed =
                    (report.attempts.saturating_sub(1) as usize).min(live.len().saturating_sub(1));
                for &i in live.iter().take(consumed) {
                    self.kill_replica(i);
                }
                FdOutcome::Recovered(report)
            }
            None => FdOutcome::NotFailed,
        }
    }
}

// Tests live in `crates/core/tests/` (they need the full stack).
