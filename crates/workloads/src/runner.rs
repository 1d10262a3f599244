//! The workload runner: spawns coordinator worker threads over a
//! cluster, collects throughput, and supports fault injection — the
//! shared engine behind every fail-over figure of the evaluation.

use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pandora::{
    CoordStats, Coordinator, CoordinatorLease, LatencyHistogram, MetricsRegistry, PhaseStats,
    SchedStats, SimCluster, ThroughputProbe, TxnError, TxnRequest,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdma_sim::FaultInjector;

use crate::Workload;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Number of coordinator worker threads.
    pub coordinators: usize,
    pub seed: u64,
    /// Attach per-phase commit-path instrumentation to every worker
    /// coordinator. Costs a few clock reads per transaction; disable for
    /// peak-throughput measurements.
    pub phase_metrics: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig { coordinators: 4, seed: 42, phase_metrics: true }
    }
}

struct WorkerSlot {
    injector: Arc<FaultInjector>,
    /// Shared with the worker thread: updated in place when a falsely
    /// suspected worker survives by re-registering under a fresh id.
    coord_id: Arc<AtomicU16>,
    handle: Option<JoinHandle<WorkerExit>>,
}

/// What a worker thread leaves behind: stats plus its address cache
/// (used to warm a replacement coordinator on respawn — the paper's
/// "stopped then recovered" coordinators resume warm).
struct WorkerExit {
    stats: CoordStats,
    addr_cache: Vec<((dkvs::TableId, u64), dkvs::SlotRef)>,
}

/// A fleet of coordinator workers executing a workload until stopped.
/// `W` may be `dyn Workload`: a workload chosen at run time needs no
/// wrapper type.
pub struct WorkloadRunner<W: Workload + ?Sized> {
    cluster: Arc<SimCluster>,
    workload: Arc<W>,
    probe: Arc<ThroughputProbe>,
    latency: Arc<LatencyHistogram>,
    phases: Arc<PhaseStats>,
    attach_phases: bool,
    stop: Arc<AtomicBool>,
    slots: Vec<WorkerSlot>,
    next_seed: u64,
    sched: Arc<SchedStats>,
}

impl<W: Workload + ?Sized> WorkloadRunner<W> {
    /// Spawn `config.coordinators` workers running `workload`.
    pub fn spawn(
        cluster: Arc<SimCluster>,
        workload: Arc<W>,
        config: RunnerConfig,
    ) -> WorkloadRunner<W> {
        let probe = ThroughputProbe::new();
        let stop = Arc::new(AtomicBool::new(false));
        let mut runner = WorkloadRunner {
            cluster,
            workload,
            probe,
            latency: Arc::new(LatencyHistogram::new()),
            phases: PhaseStats::new(),
            attach_phases: config.phase_metrics,
            stop,
            slots: Vec::with_capacity(config.coordinators),
            next_seed: config.seed,
            sched: SchedStats::new(),
        };
        for _ in 0..config.coordinators {
            runner.spawn_worker(Vec::new());
        }
        runner
    }

    fn spawn_worker(&mut self, warm_cache: Vec<((dkvs::TableId, u64), dkvs::SlotRef)>) {
        let seed = self.next_seed;
        self.next_seed += 1;
        let (co, lease) = self.cluster.coordinator().expect("spawn coordinator");
        let mut co =
            co.with_probe(Arc::clone(&self.probe)).with_sched_stats(Arc::clone(&self.sched));
        if self.attach_phases {
            co = co.with_phase_stats(Arc::clone(&self.phases));
        }
        co.warm_addr_cache(warm_cache);
        let injector = co.injector();
        let coord_id = Arc::new(AtomicU16::new(lease.coord_id));
        let shared_id = Arc::clone(&coord_id);
        let cluster = Arc::clone(&self.cluster);
        let workload = Arc::clone(&self.workload);
        let stop = Arc::clone(&self.stop);
        let latency = Arc::clone(&self.latency);
        // Interleaved mode: submit declared-request batches through the
        // scheduler, keeping `inflight_txns` commits in flight per
        // worker. A batch of a few pipelines' worth keeps admission from
        // draining between batches without starving fairness.
        let interleave_batch = if self.cluster.ctx.config.interleaving_on() {
            (self.cluster.ctx.config.inflight_txns.max(1) as usize) * 4
        } else {
            0
        };
        let handle = std::thread::Builder::new()
            .name(format!("worker-{}", lease.coord_id))
            .spawn(move || {
                use rand::RngExt;
                let mut lease = lease;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut consecutive_aborts = 0u32;
                while !stop.load(Ordering::Acquire) {
                    lease.beat();
                    let t0 = std::time::Instant::now();
                    let result = if interleave_batch > 0 {
                        match draw_batch(&*workload, &mut rng, interleave_batch) {
                            Some(batch) => run_batch(&mut co, &batch),
                            // The mix can't be declared — classic path.
                            None => workload.execute(&mut co, &mut rng),
                        }
                    } else {
                        workload.execute(&mut co, &mut rng)
                    };
                    match result {
                        Ok(()) => {
                            latency.record(t0.elapsed());
                            consecutive_aborts = 0;
                        }
                        Err(TxnError::Aborted(_)) => {
                            // Randomized exponential backoff tames abort
                            // storms on contended rows (standard OCC
                            // practice, as in FORD's client library).
                            // NetworkTimeout aborts (exhausted verb retry
                            // budgets under chaos) land here too and get
                            // the same treatment.
                            consecutive_aborts = (consecutive_aborts + 1).min(6);
                            let ceil = 1u64 << consecutive_aborts;
                            let us = rng.random_range(0..ceil * 8);
                            if us > 0 {
                                std::thread::sleep(Duration::from_micros(us));
                            }
                        }
                        Err(TxnError::Crashed) => break,
                        Err(TxnError::Rdma(rdma_sim::RdmaError::AccessRevoked)) => {
                            // Fenced by active-link termination. Under PILL
                            // a live coordinator survives false suspicion:
                            // wait for recovery of the old id to finish,
                            // then re-register under a fresh id and resume.
                            // Otherwise die so the FD recovers our state.
                            match survive_false_suspicion(&cluster, &mut co, &stop) {
                                Some(new_lease) => {
                                    shared_id.store(new_lease.coord_id, Ordering::Release);
                                    lease = new_lease;
                                    consecutive_aborts = 0;
                                }
                                None => break,
                            }
                        }
                        Err(TxnError::Rdma(e)) if e.is_transient() => {
                            // A transient fault leaked past the verb retry
                            // budget outside the abort machinery: back off
                            // like an abort and try again.
                            consecutive_aborts = (consecutive_aborts + 1).min(6);
                            let ceil = 1u64 << consecutive_aborts;
                            let us = rng.random_range(0..ceil * 8);
                            std::thread::sleep(Duration::from_micros(us.max(1)));
                        }
                        Err(TxnError::Rdma(rdma_sim::RdmaError::NodeDead)) => {
                            // Racing a memory-node death before the
                            // reconfiguration pause: back off briefly and
                            // retry under the new placement.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(TxnError::Rdma(_)) => break,
                    }
                }
                WorkerExit { stats: co.stats, addr_cache: co.export_addr_cache() }
            })
            .expect("spawn worker thread");
        self.slots.push(WorkerSlot { injector, coord_id, handle: Some(handle) });
    }

    pub fn probe(&self) -> Arc<ThroughputProbe> {
        Arc::clone(&self.probe)
    }

    /// Committed-transaction latency histogram across all workers.
    pub fn latency(&self) -> Arc<LatencyHistogram> {
        Arc::clone(&self.latency)
    }

    /// Per-phase commit-path stats shared by all workers. Stays at zero
    /// when the runner was configured with `phase_metrics: false`.
    pub fn phase_stats(&self) -> Arc<PhaseStats> {
        Arc::clone(&self.phases)
    }

    /// A metrics registry wired to everything this runner observes:
    /// throughput probe, per-phase stats, end-to-end latency histogram,
    /// the cluster's fabric counters (per node and per stripe lane),
    /// resilience counters, and (when the cluster has one)
    /// chaos-injection counters. Snapshot it any time — while the workers
    /// run, and after `stop_and_join`, since the shared atomics and the
    /// fabric's retired totals outlive them.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new()
            .with_probe(Arc::clone(&self.probe))
            .with_phases(Arc::clone(&self.phases))
            .with_txn_latency(Arc::clone(&self.latency))
            .with_fabric(Arc::clone(&self.cluster.ctx.fabric))
            .with_resilience(Arc::clone(&self.cluster.ctx.resilience));
        if let Some(chaos) = &self.cluster.chaos {
            registry = registry.with_chaos(Arc::clone(chaos));
        }
        registry.with_sched(Arc::clone(&self.sched))
    }

    /// Interleaved-scheduler gauges shared by all workers (the
    /// `txns_in_flight` gauge stays at zero when the cluster runs with
    /// `inflight_txns = 1`).
    pub fn sched_stats(&self) -> Arc<SchedStats> {
        Arc::clone(&self.sched)
    }

    /// Start the background sampler, wired to this runner's probe and
    /// the cluster's in-flight-recoveries gauge. Its `finish()` output
    /// feeds [`pandora::mean_tps`] and
    /// [`MetricsRegistry::add_timeline`], so the metrics JSON carries
    /// the fail-over availability curve.
    pub fn timeline_sampler(&self, interval: Duration) -> pandora::TimelineSampler {
        let ctx = Arc::clone(&self.cluster.ctx);
        pandora::TimelineSampler::spawn(
            Arc::clone(&self.probe),
            move || ctx.recoveries_in_flight.load(Ordering::Acquire),
            interval,
        )
    }

    pub fn cluster(&self) -> &Arc<SimCluster> {
        &self.cluster
    }

    /// Number of worker slots (alive or crashed).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Coordinator-ids currently held by worker slots.
    pub fn coord_ids(&self) -> Vec<u16> {
        self.slots.iter().map(|s| s.coord_id.load(Ordering::Acquire)).collect()
    }

    /// Crash worker `idx` (power-cut). Returns its coordinator-id.
    pub fn crash_worker(&self, idx: usize) -> u16 {
        let slot = &self.slots[idx];
        slot.injector.crash_now();
        slot.coord_id.load(Ordering::Acquire)
    }

    /// Crash the first `n` workers; returns their coordinator-ids.
    pub fn crash_first(&self, n: usize) -> Vec<u16> {
        (0..n.min(self.slots.len())).map(|i| self.crash_worker(i)).collect()
    }

    /// Replace crashed workers with fresh coordinators (the paper's
    /// §6.4 "reusing resources from failed coordinators", restoring
    /// post-failure throughput). Returns how many were respawned.
    pub fn respawn_crashed(&mut self) -> usize {
        let mut respawned = 0;
        let mut crashed: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.injector.is_crashed())
            .map(|(i, _)| i)
            .collect();
        // Remove from the back so earlier indices stay valid.
        crashed.sort_unstable_by(|a, b| b.cmp(a));
        for idx in crashed {
            let mut slot = self.slots.swap_remove(idx);
            // The old worker thread has exited (or will at its next op);
            // reap it and inherit its address cache (warm restart).
            let warm = slot
                .handle
                .take()
                .and_then(|h| h.join().ok())
                .map(|exit| exit.addr_cache)
                .unwrap_or_default();
            self.spawn_worker(warm);
            respawned += 1;
        }
        respawned
    }

    /// Stop all workers and collect their stats.
    pub fn stop_and_join(mut self) -> Vec<CoordStats> {
        self.stop.store(true, Ordering::Release);
        let mut stats = Vec::with_capacity(self.slots.len());
        for slot in &mut self.slots {
            if let Some(h) = slot.handle.take() {
                stats.push(h.join().expect("worker panicked").stats);
            }
        }
        stats
    }
}

/// Draw a batch of declared requests for the interleaved scheduler.
/// Returns `None` when the workload's current mix cannot be declared
/// (the caller falls back to the classic one-at-a-time path).
fn draw_batch<W: Workload + ?Sized>(
    workload: &W,
    rng: &mut StdRng,
    n: usize,
) -> Option<Vec<TxnRequest>> {
    let mut batch = Vec::with_capacity(n);
    for _ in 0..n {
        batch.push(workload.request(rng)?);
    }
    Some(batch)
}

/// One scheduler pass over a drawn batch. Like [`Workload::execute`],
/// no internal retries: an aborted request is an abort the probe counts,
/// and the next batch draws afresh — a request that can never commit
/// (TATP inserting a call-forwarding row that exists) must not be
/// resubmitted forever. A pass that committed nothing reports its first
/// abort, so the caller backs off.
fn run_batch(co: &mut Coordinator, batch: &[TxnRequest]) -> Result<(), TxnError> {
    let mut committed = false;
    let mut first_abort = None;
    for result in co.run_interleaved(batch) {
        match result {
            Ok(_) => committed = true,
            Err(e @ TxnError::Aborted(_)) => {
                first_abort.get_or_insert(e);
            }
            Err(e) => return Err(e),
        }
    }
    match first_abort {
        Some(e) if !committed => Err(e),
        _ => Ok(()),
    }
}

/// Ride out a false suspicion (paper §3.3.2, Cor. 4): a live coordinator
/// whose links the FD revoked re-registers under a fresh id and resumes,
/// its strays stolen or released by the recovery of the old id. Only
/// sound under PILL — anonymous locks would let the survivor race its own
/// recovery — so under FORD/Traditional this returns `None` (the caller
/// dies, as before). Waits for the old id's recovery to complete (the
/// failed bit is published last) before re-registering, so the fresh
/// incarnation can never overtake the cleanup of its own strays.
fn survive_false_suspicion(
    cluster: &SimCluster,
    co: &mut Coordinator,
    stop: &AtomicBool,
) -> Option<CoordinatorLease> {
    if !cluster.ctx.config.pill_active() {
        return None;
    }
    let old_id = co.coord_id();
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    while !cluster.ctx.failed.contains(old_id) {
        if stop.load(Ordering::Acquire) || std::time::Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    co.reincarnate(&cluster.fd).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::MicroBench;
    use pandora::ProtocolKind;

    fn micro_cluster(bench: &MicroBench) -> Arc<SimCluster> {
        let b = crate::with_tables(
            SimCluster::builder(ProtocolKind::Pandora).memory_nodes(2).replication(2),
            bench,
        );
        let cluster = b.build().unwrap();
        bench.load(&cluster);
        Arc::new(cluster)
    }

    #[test]
    fn runner_commits_and_stops() {
        let bench = Arc::new(MicroBench::new(512, 0.5));
        let cluster = micro_cluster(&bench);
        let runner = WorkloadRunner::spawn(
            Arc::clone(&cluster),
            bench,
            RunnerConfig { coordinators: 3, seed: 1, ..RunnerConfig::default() },
        );
        std::thread::sleep(Duration::from_millis(100));
        let probe = runner.probe();
        let stats = runner.stop_and_join();
        assert_eq!(stats.len(), 3);
        assert!(probe.committed_total() > 0);
        let total: u64 = stats.iter().map(|s| s.committed).sum();
        assert_eq!(total, probe.committed_total());
    }

    #[test]
    fn runner_metrics_capture_phases_and_fabric() {
        use pandora::TxnPhase;
        let bench = Arc::new(MicroBench::new(512, 0.5));
        let cluster = micro_cluster(&bench);
        let runner = WorkloadRunner::spawn(
            Arc::clone(&cluster),
            bench,
            RunnerConfig { coordinators: 2, seed: 7, ..RunnerConfig::default() },
        );
        std::thread::sleep(Duration::from_millis(100));
        let registry = runner.metrics();
        runner.stop_and_join();

        let snap = registry.snapshot();
        assert!(snap.committed > 0);
        let execute = snap
            .phases
            .iter()
            .find(|(name, _)| *name == TxnPhase::Execute.name())
            .expect("execute phase present");
        // Execute is timed on every commit attempt, so aborted attempts
        // count too: the total can only meet or exceed the commits.
        assert!(execute.1.count >= snap.committed);
        let fabric = snap.fabric_total.expect("fabric counters wired");
        assert!(fabric.reads > 0 && fabric.bytes_read > 0);
        let json = snap.to_json();
        assert!(json.contains("\"phases\""));
        assert!(json.contains("\"fabric\""));
    }

    #[test]
    fn crash_and_recover_and_respawn() {
        let bench = Arc::new(MicroBench::new(512, 0.5));
        let cluster = micro_cluster(&bench);
        let mut runner = WorkloadRunner::spawn(
            Arc::clone(&cluster),
            bench,
            RunnerConfig { coordinators: 3, seed: 2, ..RunnerConfig::default() },
        );
        std::thread::sleep(Duration::from_millis(50));
        let victim = runner.crash_worker(0);
        std::thread::sleep(Duration::from_millis(20));
        cluster.fd.declare_failed(victim);
        let respawned = runner.respawn_crashed();
        assert_eq!(respawned, 1);
        assert_eq!(runner.len(), 3);
        std::thread::sleep(Duration::from_millis(50));
        let before = runner.probe().committed_total();
        std::thread::sleep(Duration::from_millis(50));
        let after = runner.probe().committed_total();
        assert!(after > before, "respawned fleet keeps committing");
        runner.stop_and_join();
    }
}
