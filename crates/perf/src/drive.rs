//! Set-up, the closed-loop drivers, the timed window and the recovery
//! rounds — everything that runs transactions. All of it goes through
//! public functions of the measured crates.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pandora::{Coordinator, RecoveryReport, SimCluster, TxnError, TxnOp, TxnRequest};
use pandora_workloads::micro::{MICRO_TABLE, MICRO_VALUE_LEN};
use pandora_workloads::{with_tables, MicroBench, Workload};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rdma_sim::{CrashMode, CrashPlan, FaultInjector, QueuePair};

use crate::hist::Hist;
use crate::pin;
use crate::spans::{NoSpans, Spans};
use crate::spec::{Data, Spec, IL8_BATCH};

/// Coordinator threads in the timed window (this host has two cores;
/// the main thread sleeps, or on the fail-over workload recovers).
pub const COORDINATORS: usize = 2;
/// Coordinators of the compute server that fails in each recovery round.
pub const ROUND_COORDS: usize = 64;
/// A frozen coordinator is given this many transactions (batches, on
/// `il8`) to hit its armed crash point before it is cut where it stands.
const FREEZE_TRIES: usize = 4;
/// Crash points are drawn from the first `40 x in-flight transactions`
/// verbs: a cold 4-write transaction issues about 38, so crashes land
/// before the locks, between log and apply, and after the last apply
/// (`table2_recovery_latency`'s 25 never reaches a roll-forward).
const CRASH_SPREAD_PER_TXN: u64 = 40;
/// The simulated fabric tracks 4096 endpoints; one is spent per
/// recovery round (its 64 coordinators share a compute server's
/// endpoint), a few on set-up and audits.
const MAX_ROUNDS: u64 = 3_900;

/// A loaded cluster and the workload that runs on it.
pub struct Bench {
    pub spec: Spec,
    pub workload: Arc<dyn Workload>,
    pub cluster: Arc<SimCluster>,
}

impl Bench {
    /// Build the cluster and bulk-load the dataset.
    pub fn build(spec: Spec) -> Bench {
        let workload = spec.workload();
        let segments: u64 = workload.tables().iter().map(|t| t.segment_bytes()).sum();
        let cluster = with_tables(
            SimCluster::builder(pandora::ProtocolKind::Pandora)
                .memory_nodes(3)
                .replication(2)
                // 1024 coordinator slots of 36 KiB log + intent space.
                .capacity_per_node((segments + (48 << 20)).next_power_of_two())
                .config(spec.config())
                .latency(spec.latency()),
            workload.as_ref(),
        )
        .build()
        .expect("build cluster");
        workload.load(&cluster);
        // Recovery rounds go through tens of thousands of coordinator
        // ids; starting at the failure detector's 95 % mark makes it
        // recycle the failed ids of a round when the next one registers.
        cluster.fd.advance_id_space((dkvs::MAX_COORDINATORS * 95 / 100) as u32);
        Bench { spec, workload, cluster: Arc::new(cluster) }
    }

    /// A driver on a fresh coordinator of its own endpoint.
    pub fn driver(&self, seed: u64) -> Driver {
        let (co, _lease) = self.cluster.coordinator().expect("connect coordinator");
        Driver::new(self, co, seed)
    }
}

/// What a driver counted. An *attempt* is one transaction submitted to
/// the engine, including the resubmissions `run_interleaved_retrying`
/// makes internally.
#[derive(Default)]
pub struct Tally {
    pub attempts: u64,
    pub commits: u64,
    pub aborts: u64,
    /// Attempts that ended in a `TxnError` other than `Aborted`.
    pub errors: u64,
    /// Committed counter increments (micro workloads; the audit's sum).
    pub updates: u64,
    /// Bytes of the undo-log entries the commits wrote, one copy each;
    /// counted only while a [`LogMeter`] is attached.
    pub log_bytes: u64,
    /// Caller-visible time of each committed call: one `execute`, or
    /// one `run_interleaved_retrying` batch.
    pub latency: Hist,
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        self.attempts += o.attempts;
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.errors += o.errors;
        self.updates += o.updates;
        self.log_bytes += o.log_bytes;
        self.latency.merge(&o.latency);
    }

    pub fn commit_share(&self) -> f64 {
        self.commits as f64 / self.attempts.max(1) as f64
    }
}

enum Body {
    /// `Workload::execute`, one transaction per step.
    Execute,
    /// `Workload::request` x batch → `run_interleaved_retrying`, or one
    /// `run_interleaved` pass with fresh draws replacing the aborted.
    Batch { n: usize, retrying: bool },
    /// The benchmark's copy of `MicroBench::execute`, with a span around
    /// every `Txn` call. Draws from the generator exactly as the
    /// original does, so a seed gives the same transactions either way.
    OwnMicro(MicroBench),
}

/// Measures the undo-log entry of each commit, from outside.
///
/// Classic engine: the coordinator writes every entry at the base of its
/// log region, and truncation clears only the state word, so after each
/// attempt the header there (read over a zero-latency admin queue pair)
/// names the last transaction that logged and its payload length.
/// Interleaved scheduler: eight lanes are overwritten several times per
/// batch, so the entry size is `dkvs::entry_encoded_size` over the
/// distinct keys a committed request writes, with the tables' padded
/// value lengths; a read-only request logs nothing.
pub struct LogMeter {
    qp: QueuePair,
    base: u64,
    last_txn: u64,
    /// Padded value length per table id.
    padded: Vec<usize>,
}

impl LogMeter {
    pub fn attach(cluster: &SimCluster, co: &Coordinator) -> LogMeter {
        let (fabric, map) = (&cluster.ctx.fabric, &cluster.ctx.map);
        let node = map.log_servers(co.coord_id())[0];
        let qp = fabric
            .qp_admin(fabric.register_endpoint(), node, FaultInjector::new())
            .expect("admin qp");
        let mut meter = LogMeter {
            qp,
            base: map.log_region(node, co.coord_id()).base,
            last_txn: 0,
            padded: map.tables().map(|t| t.layout().value_padded()).collect(),
        };
        meter.peek();
        meter
    }

    /// Size of the entry written since the last call, or 0.
    fn peek(&mut self) -> u64 {
        // state, txn id, coordinator, record count, payload length
        let mut header = [0u8; 40];
        self.qp.read(self.base, &mut header).expect("log header read");
        let word =
            |i: usize| u64::from_le_bytes(header[i * 8..i * 8 + 8].try_into().expect("word"));
        if word(1) == self.last_txn {
            return 0;
        }
        self.last_txn = word(1);
        dkvs::entry_encoded_size([]) as u64 + word(4)
    }

    fn request_entry(&self, req: &TxnRequest) -> u64 {
        let mut keys = Vec::new();
        for op in &req.ops {
            let (TxnOp::Write { table, key, .. } | TxnOp::Update { table, key, .. }) = op else {
                continue;
            };
            if !keys.contains(&(*table, *key)) {
                keys.push((*table, *key));
            }
        }
        if keys.is_empty() {
            return 0;
        }
        dkvs::entry_encoded_size(keys.iter().map(|&(t, _)| self.padded[t.0 as usize])) as u64
    }
}

/// One coordinator, its generator, and the loop body that feeds it.
pub struct Driver {
    pub co: Coordinator,
    rng: StdRng,
    workload: Arc<dyn Workload>,
    body: Body,
    /// Counter increments per committed `execute` (4 on the all-write
    /// micro workload; batches count their `Update` ops instead).
    updates_per_commit: u64,
    steps: u64,
    log_meter: Option<LogMeter>,
}

fn micro_value(counter: u64) -> [u8; MICRO_VALUE_LEN] {
    let mut v = [0u8; MICRO_VALUE_LEN];
    v[..8].copy_from_slice(&counter.to_le_bytes());
    v
}

impl Driver {
    pub fn new(bench: &Bench, co: Coordinator, seed: u64) -> Driver {
        let updates_per_commit = match bench.spec.data {
            Data::Micro { write_ratio: 1.0, .. } => 4,
            _ => 0,
        };
        Driver {
            co,
            rng: StdRng::seed_from_u64(seed),
            workload: Arc::clone(&bench.workload),
            body: if bench.spec.il8 {
                Body::Batch { n: IL8_BATCH, retrying: bench.spec.retry_batches }
            } else {
                Body::Execute
            },
            updates_per_commit,
            steps: 0,
            log_meter: None,
        }
    }

    /// Restart the generator, so that a pass repeats an earlier one's
    /// transactions.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Rebuild the coordinator through one of its `with_*` methods.
    pub fn map_co(self, f: impl FnOnce(Coordinator) -> Coordinator) -> Driver {
        Driver { co: f(self.co), ..self }
    }

    /// Batches of `n` requests instead of [`IL8_BATCH`]; no effect on
    /// the classic engine.
    pub fn with_batch(mut self, n: usize) -> Driver {
        if let Body::Batch { n: b, .. } = &mut self.body {
            *b = n;
        }
        self
    }

    /// Count the bytes of the undo-log entries the commits write.
    pub fn with_log_meter(mut self, meter: LogMeter) -> Driver {
        self.log_meter = Some(meter);
        self
    }

    /// Swap `Workload::execute` for the benchmark's spanned copy of the
    /// micro transaction body (classic micro workloads only).
    pub fn with_own_micro_body(mut self, spec: &Spec) -> Driver {
        if let (Some(m), false) = (spec.micro(), spec.il8) {
            self.body = Body::OwnMicro(m);
        }
        self
    }

    pub fn own_micro(co: Coordinator, bench: MicroBench, seed: u64) -> Driver {
        Driver {
            co,
            rng: StdRng::seed_from_u64(seed),
            workload: Arc::new(bench.clone()),
            body: Body::OwnMicro(bench),
            updates_per_commit: 0,
            steps: 0,
            log_meter: None,
        }
    }

    /// Run one call into the engine, starting the clock at `start`, and
    /// return when it ended. `Err` is a non-abort error: the coordinator
    /// cannot go on.
    pub fn step<S: Spans>(
        &mut self,
        tally: &mut Tally,
        spans: &mut S,
        start: Instant,
    ) -> Result<Instant, TxnError> {
        self.steps += 1;
        let txn = ((self.co.coord_id() as u64) << 48) | self.steps;
        match &self.body {
            Body::Execute | Body::OwnMicro(_) => {
                let s = spans.open("core.txn", txn);
                let r = match &self.body {
                    Body::OwnMicro(m) => own_micro_body(m, &mut self.co, &mut self.rng, spans, txn),
                    _ => self.workload.execute(&mut self.co, &mut self.rng),
                };
                spans.close(s);
                let end = Instant::now();
                if let Some(meter) = &mut self.log_meter {
                    let logged = meter.peek();
                    if r.is_ok() {
                        tally.log_bytes += logged;
                    }
                }
                self.settle_one(tally, r, end - start).map(|()| end)
            }
            Body::Batch { n, retrying } => {
                let s = spans.open("workloads.draw", txn);
                let reqs: Vec<TxnRequest> = (0..*n)
                    .map(|_| self.workload.request(&mut self.rng).expect("declarable mix"))
                    .collect();
                spans.close(s);
                let updates = |r: &TxnRequest| {
                    r.ops.iter().filter(|o| matches!(o, TxnOp::Update { .. })).count() as u64
                };
                let logged =
                    |r: &TxnRequest| self.log_meter.as_ref().map_or(0, |m| m.request_entry(r));
                let s = spans.open("core.sched.batch", txn);
                let t0 = Instant::now();
                let fatal = if *retrying {
                    match self.co.run_interleaved_retrying(&reqs) {
                        Ok((outcomes, aborts)) => {
                            tally.attempts += outcomes.len() as u64 + aborts;
                            tally.commits += outcomes.len() as u64;
                            tally.aborts += aborts;
                            tally.updates += reqs.iter().map(updates).sum::<u64>();
                            tally.log_bytes += reqs.iter().map(logged).sum::<u64>();
                            None
                        }
                        Err(e) => {
                            tally.attempts += reqs.len() as u64;
                            tally.errors += reqs.len() as u64;
                            Some(e)
                        }
                    }
                } else {
                    let mut fatal = None;
                    for (req, r) in reqs.iter().zip(self.co.run_interleaved(&reqs)) {
                        tally.attempts += 1;
                        match r {
                            Ok(_) => {
                                tally.commits += 1;
                                tally.updates += updates(req);
                                tally.log_bytes += logged(req);
                            }
                            Err(TxnError::Aborted(_)) => tally.aborts += 1,
                            Err(e) => {
                                tally.errors += 1;
                                fatal = Some(e);
                            }
                        }
                    }
                    fatal
                };
                let end = Instant::now();
                spans.close(s);
                match fatal {
                    None => {
                        tally.latency.record(end - t0);
                        Ok(end)
                    }
                    Some(e) => Err(e),
                }
            }
        }
    }

    fn settle_one(
        &self,
        tally: &mut Tally,
        r: Result<(), TxnError>,
        took: Duration,
    ) -> Result<(), TxnError> {
        tally.attempts += 1;
        match r {
            Ok(()) => {
                tally.commits += 1;
                tally.updates += self.updates_per_commit;
                tally.latency.record(took);
                Ok(())
            }
            Err(TxnError::Aborted(_)) => {
                tally.aborts += 1;
                Ok(())
            }
            Err(e) => {
                tally.errors += 1;
                Err(e)
            }
        }
    }

    /// Run until `attempts` transactions have been submitted.
    pub fn run_attempts<S: Spans>(&mut self, attempts: u64, spans: &mut S) -> (Tally, Duration) {
        let mut tally = Tally::default();
        let start = Instant::now();
        let mut now = start;
        while tally.attempts < attempts {
            match self.step(&mut tally, spans, now) {
                Ok(end) => now = end,
                Err(_) => break,
            }
        }
        (tally, start.elapsed())
    }
}

fn own_micro_body<S: Spans>(
    m: &MicroBench,
    co: &mut Coordinator,
    rng: &mut StdRng,
    spans: &mut S,
    id: u64,
) -> Result<(), TxnError> {
    let s = spans.open("workloads.draw", id);
    let mut keys = Vec::with_capacity(m.ops_per_txn);
    while keys.len() < m.ops_per_txn {
        let k = rng.random_range(0..m.hot_keys);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys.sort_unstable();
    let writes: Vec<bool> = keys.iter().map(|_| rng.random_bool(m.write_ratio)).collect();
    spans.close(s);
    let mut txn = co.begin();
    for (&k, &w) in keys.iter().zip(&writes) {
        let s = spans.open("core.txn.read", id);
        let v = txn.read(MICRO_TABLE, k);
        spans.close(s);
        let v = v?.expect("loaded key");
        if w {
            let counter = u64::from_le_bytes(v[..8].try_into().expect("8 bytes"));
            let s = spans.open("core.txn.write", id);
            let r = txn.write(MICRO_TABLE, k, &micro_value(counter + 1));
            spans.close(s);
            r?;
        }
    }
    let s = spans.open("core.txn.commit", id);
    let r = txn.commit();
    spans.close(s);
    r
}

/// A cluster that is built, loaded, connected and warm.
pub struct Setup {
    pub bench: Bench,
    pub drivers: Vec<Driver>,
    /// What the warm-up committed (it counts toward the audit's sum).
    pub warm: Tally,
    pub secs: f64,
}

/// Cluster build, bulk load, coordinator connect and `warmup` untimed
/// attempts per coordinator (on threads of their own), so that address
/// caches are warm when the window opens.
pub fn set_up(spec: Spec, seed: u64, coordinators: usize, warmup: u64) -> Setup {
    let t0 = Instant::now();
    let bench = Bench::build(spec);
    let mut drivers: Vec<Driver> = (0..coordinators as u64)
        .map(|i| bench.driver(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i)))
        .collect();
    let mut warm = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .enumerate()
            .map(|(i, d)| {
                s.spawn(move || {
                    pin::worker(i);
                    d.run_attempts(warmup, &mut NoSpans).0
                })
            })
            .collect();
        for h in handles {
            warm.merge(&h.join().expect("warm-up thread"));
        }
    });
    Setup { bench, drivers, warm, secs: t0.elapsed().as_secs_f64() }
}

/// Equal slices the window is cut into. Every end-to-end number is the
/// median over slices, so that a second in which the host ran something
/// else moves one slice and not the result.
pub const SLICES: usize = 8;

/// Run driver `i` on a thread of its own, on the `i`-th CPU, for
/// `window`, while the calling thread runs `beside` (given the window's
/// deadline) and then sleeps in `join`. Returns, per driver, the tally and the elapsed time
/// of each slice (a call that straddles a boundary belongs to the slice
/// it began in, whose elapsed time stretches to the call's end).
pub fn run_window(
    drivers: &mut [Driver],
    window: Duration,
    beside: impl FnOnce(Instant),
) -> Vec<Vec<(Tally, Duration)>> {
    let barrier = Barrier::new(drivers.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .enumerate()
            .map(|(i, d)| {
                let barrier = &barrier;
                s.spawn(move || {
                    pin::worker(i);
                    let mut slices = Vec::with_capacity(SLICES);
                    barrier.wait();
                    let start = Instant::now();
                    let mut now = start;
                    for i in 1..=SLICES as u32 {
                        let mut tally = Tally::default();
                        let (began, deadline) = (now, start + window * i / SLICES as u32);
                        while now < deadline {
                            match d.step(&mut tally, &mut NoSpans, now) {
                                Ok(end) => now = end,
                                Err(_) => {
                                    slices.push((tally, now - began));
                                    return slices;
                                }
                            }
                        }
                        slices.push((tally, now - began));
                    }
                    slices
                })
            })
            .collect();
        barrier.wait();
        beside(Instant::now() + window);
        handles.into_iter().map(|h| h.join().expect("driver thread")).collect()
    })
}

/// What the recovery rounds measured and what their reports said.
#[derive(Default)]
pub struct Recoveries {
    /// One `FailureDetector::declare_failed` call.
    pub declare: Hist,
    /// Per round: the sum of its `ROUND_COORDS` declare calls, in ms.
    pub round_ms: Vec<f64>,
    /// Per round: the 90th percentile (rank 58 of 64) of its declare
    /// calls, in microseconds.
    pub round_p90_us: Vec<f64>,
    pub coords: u64,
    /// Reports with `completed == false` or
    /// `logged_txns != rolled_forward + rolled_back`, and missing reports.
    pub bad_reports: u64,
    pub connect: Duration,
    pub link_termination: Duration,
    pub log_recovery: Duration,
    pub stray_notification: Duration,
    pub total: Duration,
    pub logged_txns: u64,
    pub rolled_forward: u64,
    pub locks_released: u64,
    pub attempts: u64,
}

impl Recoveries {
    fn note(&mut self, report: Option<&RecoveryReport>, took: Duration) {
        self.coords += 1;
        self.declare.record(took);
        let Some(r) = report else {
            self.bad_reports += 1;
            return;
        };
        if !r.completed || r.logged_txns != r.rolled_forward + r.rolled_back {
            self.bad_reports += 1;
        }
        self.link_termination += r.link_termination;
        self.log_recovery += r.log_recovery;
        self.stray_notification += r.stray_notification;
        self.total += r.total;
        self.logged_txns += r.logged_txns as u64;
        self.rolled_forward += r.rolled_forward as u64;
        self.locks_released += r.locks_released as u64;
        self.attempts += r.attempts as u64;
    }

    pub fn rounds(&self) -> u64 {
        self.round_ms.len() as u64
    }
}

/// One recovery round: a compute server with [`ROUND_COORDS`] fresh
/// coordinators dies with every one of them mid-transaction, at crash
/// points drawn from `rng` (the `table2_recovery_latency` technique),
/// and the failure detector is told so coordinator by coordinator, each
/// `declare_failed` call timed.
pub fn recovery_round<S: Spans>(
    bench: &Bench,
    rng: &mut StdRng,
    out: &mut Recoveries,
    spans: &mut S,
) {
    let round = out.rounds();
    let cluster = &bench.cluster;
    let endpoint = cluster.ctx.fabric.register_endpoint();
    let inflight = bench.spec.inflight();
    let mut ids = Vec::with_capacity(ROUND_COORDS);
    for i in 0..ROUND_COORDS as u64 {
        let id = (round << 16) | i;
        let s = spans.open("core.fd.connect", id);
        let t0 = Instant::now();
        let lease = cluster.fd.register(endpoint);
        let co = Coordinator::connect_grouped(
            Arc::clone(&cluster.ctx),
            lease.coord_id,
            endpoint,
            FaultInjector::new(),
        )
        .expect("connect coordinator");
        out.connect += t0.elapsed();
        spans.close(s);
        let s = spans.open("freeze", id);
        let mut d = Driver::new(bench, co, rng.random()).with_batch(inflight as usize);
        let injector = d.co.injector();
        let mut scratch = Tally::default();
        for _ in 0..FREEZE_TRIES {
            let at_op =
                injector.ops_issued() + rng.random_range(1..=CRASH_SPREAD_PER_TXN * inflight);
            let mode = if rng.random_bool(0.5) { CrashMode::AfterOp } else { CrashMode::BeforeOp };
            injector.arm(CrashPlan { at_op, mode });
            let _ = d.step(&mut scratch, &mut NoSpans, Instant::now());
            if injector.is_crashed() {
                break;
            }
        }
        if !injector.is_crashed() {
            injector.crash_now();
            d.co.gate().mark_dead();
        }
        spans.close(s);
        ids.push(lease.coord_id);
    }
    let mut round_time = Duration::ZERO;
    let mut calls_us = Vec::with_capacity(ROUND_COORDS);
    for (i, coord) in ids.into_iter().enumerate() {
        let s = spans.open("core.fd.declare", (round << 16) | i as u64);
        let t0 = Instant::now();
        let report = cluster.fd.declare_failed(coord);
        let took = t0.elapsed();
        if let Some(r) = &report {
            spans.child("core.recovery.link_termination", Duration::ZERO, r.link_termination);
            spans.child("core.recovery.log_recovery", r.link_termination, r.log_recovery);
            spans.child(
                "core.recovery.stray_notification",
                r.link_termination + r.log_recovery,
                r.stray_notification,
            );
        }
        spans.close(s);
        round_time += took;
        calls_us.push(took.as_secs_f64() * 1e6);
        out.note(report.as_ref(), took);
    }
    calls_us.sort_by(f64::total_cmp);
    out.round_ms.push(round_time.as_secs_f64() * 1e3);
    out.round_p90_us
        .push(calls_us[(0.9 * calls_us.len() as f64).ceil() as usize - 1]);
}

/// The generator the recovery rounds of a run draw crash points from.
pub fn recovery_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0xFA11_0FE2)
}

/// Recovery rounds back to back until `deadline`, at least one.
pub fn recovery_rounds_until(bench: &Bench, seed: u64, deadline: Instant) -> Recoveries {
    let mut rng = recovery_rng(seed);
    let mut out = Recoveries::default();
    loop {
        recovery_round(bench, &mut rng, &mut out, &mut NoSpans);
        if Instant::now() >= deadline || out.rounds() >= MAX_ROUNDS {
            return out;
        }
    }
}
