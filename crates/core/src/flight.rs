//! Events: the causal flight recorder — always-on, cross-layer tracing.
//!
//! The paper's evaluation is a story told in timelines — where commit
//! time goes (Figs. 6–14) and what happens second-by-second during
//! fail-over (Table 2) — and its litmus framework (§5) argues for one
//! cheap trace collected on demand instead of a second history
//! mechanism. This module is that one trace: commit-path phases, protocol
//! events ([`TxnEvent`]: which key was locked, stolen, or lost to which
//! owner), recovery steps, retry escalations and individual one-sided
//! verbs all become records on one shared time axis (the fabric's
//! [`FabricClock`]), attributed to a *track* — one per coordinator or
//! scheduler slot, one per memory node, plus a chaos track for injected
//! faults. Numbers (counters, histograms, the sampler) live in
//! [`crate::obs`].
//!
//! Design constraints, in order:
//!
//! 1. **Always-on must cost (almost) nothing.** Every hook first loads
//!    one atomic ([`FlightRecorder::is_enabled`]); a disabled recorder
//!    does no clock reads, takes no locks, writes no file and allocates
//!    nothing. With no recorder attached at all, the protocol pays a
//!    `None` check.
//! 2. **Bounded memory.** Each track is a fixed-capacity ring holding
//!    the newest N records (the "flight recorder" discipline: you keep
//!    the last minutes, not the whole flight). Sequence numbers are
//!    allocated under the ring lock: allocated outside it, two racing
//!    writers could land out of order and let the older record evict the
//!    newer one.
//! 3. **Post-mortem first.** On a self-fence, a recovery trigger, or a
//!    failed chaos-soak assertion, [`FlightRecorder::auto_dump`] writes
//!    the retained records to a JSON file with the chaos seed embedded,
//!    so a failure in CI replays locally and opens in `ui.perfetto.dev`.
//!
//! A recorder reaches a coordinator in one of two ways: *installed* on
//! the cluster ([`crate::SimClusterBuilder::flight`]), where the fabric
//! also feeds it every verb and injected fault, or *standalone*
//! ([`crate::Coordinator::with_flight`]), where it sees that
//! coordinator's events only and the fabric pays nothing — what the
//! litmus harness attaches per iteration.
//!
//! Two renderings of the same records: hand-rolled Chrome trace-event
//! JSON ([`FlightRecorder::chrome_trace`]: `"X"` complete events for
//! spans, `"i"` instants, `"M"` metadata naming the tracks) and a text
//! listing of all tracks interleaved in record order
//! ([`FlightRecorder::dump_text`]) for assertion messages.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dkvs::TableId;
use parking_lot::Mutex;
use rdma_sim::{FabricClock, FaultEvent, VerbEvent, VerbSink};

use crate::obs::json;

/// A quoted JSON string literal.
fn jstr(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// Which timeline a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightTrack {
    /// A transaction coordinator (compute side).
    Coordinator(u16),
    /// One in-flight transaction slot of an interleaved coordinator
    /// (`(coord, slot)`): the scheduler runs several transactions of one
    /// coordinator at once, and giving each slot its own timeline makes
    /// the overlap visible instead of folding every span onto the
    /// coordinator's track.
    TxnSlot(u16, u16),
    /// A memory node (verb spans land here, attributed to the issuing
    /// endpoint via [`Payload::Verb`]).
    MemoryNode(u16),
    /// Injected faults and cluster-level chaos (crash storms,
    /// partitions, false suspicions).
    Chaos,
}

impl FlightTrack {
    /// Stable thread-id for the Chrome trace export. Coordinators sort
    /// first, then their txn slots, then memory nodes, then chaos.
    fn tid(self) -> u64 {
        match self {
            FlightTrack::Coordinator(c) => 10 + c as u64,
            FlightTrack::TxnSlot(c, s) => 50_000 + (c as u64) * 64 + s as u64,
            FlightTrack::MemoryNode(n) => 100_000 + n as u64,
            FlightTrack::Chaos => 1,
        }
    }

    fn label(self) -> String {
        match self {
            FlightTrack::Coordinator(c) => format!("coordinator {c}"),
            FlightTrack::TxnSlot(c, s) => format!("coordinator {c} txn slot {s}"),
            FlightTrack::MemoryNode(n) => format!("memory node {n}"),
            FlightTrack::Chaos => "chaos".to_string(),
        }
    }
}

/// One protocol event of a transaction, recorded as an instant on the
/// transaction's track (the record's `trace_id` is the transaction id).
/// Phase spans already say "validated / logged / applied"; these say what
/// the spans cannot: which key, which owner, which way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnEvent {
    Begin,
    Lock { table: TableId, key: u64, stolen: bool },
    LockConflict { table: TableId, key: u64, owner: u16 },
    Committed,
    Aborted { reason: &'static str },
    Crashed,
}

impl TxnEvent {
    pub const fn name(self) -> &'static str {
        match self {
            TxnEvent::Begin => "Begin",
            TxnEvent::Lock { .. } => "Lock",
            TxnEvent::LockConflict { .. } => "LockConflict",
            TxnEvent::Committed => "Committed",
            TxnEvent::Aborted { .. } => "Aborted",
            TxnEvent::Crashed => "Crashed",
        }
    }
}

/// What a record carries beyond its name and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Phase, whole-transaction and recovery-step spans, fence instants.
    None,
    /// A one-sided verb: bytes moved and the issuing endpoint.
    Verb { bytes: u64, endpoint: u32 },
    /// An injected fault: the link it hit.
    Fault { node: u16, endpoint: u32 },
    /// A retry envelope: attempts the verb took.
    Attempts(u32),
    /// A cluster-level event: the coordinator or memory node id (or
    /// crash-plan verb index) its name says it is about.
    About(u64),
    /// A protocol event.
    Txn(TxnEvent),
}

impl Payload {
    /// The payload's fields as trailing members of a Chrome-trace `args`
    /// object (`,"key":value`…); a protocol event leads with `"event"`.
    fn json_members(self) -> String {
        match self {
            Payload::None => String::new(),
            Payload::Verb { bytes, endpoint } => {
                format!(r#","bytes":{bytes},"endpoint":{endpoint}"#)
            }
            Payload::Fault { node, endpoint } => format!(r#","node":{node},"endpoint":{endpoint}"#),
            Payload::Attempts(n) => format!(r#","attempts":{n}"#),
            Payload::About(id) => format!(r#","about":{id}"#),
            Payload::Txn(ev) => {
                let fields = match ev {
                    TxnEvent::Lock { table, key, stolen } => {
                        format!(r#","table":{},"key":{key},"stolen":{stolen}"#, table.0)
                    }
                    TxnEvent::LockConflict { table, key, owner } => {
                        format!(r#","table":{},"key":{key},"owner":{owner}"#, table.0)
                    }
                    TxnEvent::Aborted { reason } => format!(r#","reason":{}"#, jstr(reason)),
                    TxnEvent::Begin | TxnEvent::Committed | TxnEvent::Crashed => String::new(),
                };
                format!(r#","event":{}{fields}"#, jstr(ev.name()))
            }
        }
    }
}

/// One recorded span (or instant, when `dur_ns == 0`).
#[derive(Debug, Clone, Copy)]
pub struct FlightSpan {
    /// Position in the recorder-wide record order.
    pub seq: u64,
    pub track: FlightTrack,
    pub name: &'static str,
    /// Transaction id for commit-path records, failed coordinator id for
    /// recovery spans, 0 when unattributed.
    pub trace_id: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub payload: Payload,
    pub ok: bool,
}

/// Fixed-capacity record ring for one track (newest-N retention) — the
/// one ring implementation; it grows to capacity on demand.
struct Ring {
    track: FlightTrack,
    inner: Mutex<RingInner>,
}

#[derive(Default)]
struct RingInner {
    spans: Vec<FlightSpan>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
}

impl Ring {
    fn new(track: FlightTrack) -> Arc<Ring> {
        Arc::new(Ring { track, inner: Mutex::default() })
    }

    fn snapshot(&self) -> Vec<FlightSpan> {
        self.inner.lock().spans.clone()
    }
}

/// The flight recorder. [`crate::SimCluster`] installs one cluster-wide
/// (it implements [`rdma_sim::VerbSink`], so the fabric feeds it verb
/// spans and chaos faults directly); a test harness may attach a
/// standalone one to the coordinators it wants to hear from.
pub struct FlightRecorder {
    clock: FabricClock,
    enabled: AtomicBool,
    seq: AtomicU64,
    capacity: usize,
    chaos: Arc<Ring>,
    nodes: Vec<Arc<Ring>>,
    coords: Mutex<Vec<Arc<Ring>>>,
    chaos_seed: AtomicU64,
    dump_dir: Mutex<Option<PathBuf>>,
}

impl FlightRecorder {
    /// Create a recorder for a fabric with `memory_nodes` nodes (0 for a
    /// standalone recorder, which sees no verbs), with `capacity`
    /// retained records per track. Starts **enabled**: the flight
    /// recorder is meant to always be on; disable it explicitly for
    /// overhead-sensitive measurement runs.
    ///
    /// If the `PANDORA_FLIGHT_DIR` environment variable is set, it
    /// becomes the auto-dump directory (CI sets this so failed soak
    /// runs leave artifacts behind).
    pub fn new(clock: FabricClock, memory_nodes: u16, capacity: usize) -> Arc<FlightRecorder> {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        let dump_dir = std::env::var_os("PANDORA_FLIGHT_DIR").map(PathBuf::from);
        Arc::new(FlightRecorder {
            clock,
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            capacity,
            chaos: Ring::new(FlightTrack::Chaos),
            nodes: (0..memory_nodes).map(|n| Ring::new(FlightTrack::MemoryNode(n))).collect(),
            coords: Mutex::new(Vec::new()),
            chaos_seed: AtomicU64::new(0),
            dump_dir: Mutex::new(dump_dir),
        })
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Embed the chaos seed in every dump, so a post-mortem names the
    /// exact schedule to replay.
    pub fn set_chaos_seed(&self, seed: u64) {
        self.chaos_seed.store(seed, Ordering::Relaxed);
    }

    /// Direct auto-dumps to `dir` (overrides `PANDORA_FLIGHT_DIR`).
    pub fn set_dump_dir(&self, dir: impl Into<PathBuf>) {
        *self.dump_dir.lock() = Some(dir.into());
    }

    /// Total records ever made, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    fn push(&self, ring: &Ring, mut span: FlightSpan) {
        let mut inner = ring.inner.lock();
        // Under the ring lock (design constraint 2).
        span.seq = self.seq.fetch_add(1, Ordering::AcqRel);
        if inner.spans.len() == self.capacity {
            let next = inner.next;
            inner.spans[next] = span;
            inner.next = (next + 1) % self.capacity;
        } else {
            inner.spans.push(span);
        }
    }

    /// An emission handle for `track`, whose ring is created on first
    /// use (and cached in the handle, so the hot path never searches).
    /// Rings survive coordinator-id recycling: a recycled id continues
    /// its predecessor's track, which is exactly what a fail-over
    /// timeline wants to show.
    fn track_handle(self: &Arc<Self>, track: FlightTrack) -> FlightHandle {
        let mut coords = self.coords.lock();
        let ring = match coords.iter().find(|r| r.track == track) {
            Some(ring) => Arc::clone(ring),
            None => {
                coords.push(Ring::new(track));
                Arc::clone(coords.last().expect("just pushed"))
            }
        };
        FlightHandle { rec: Arc::clone(self), ring }
    }

    /// The emission handle of coordinator `coord`'s track.
    pub fn handle(self: &Arc<Self>, coord: u16) -> FlightHandle {
        self.track_handle(FlightTrack::Coordinator(coord))
    }

    /// An emission handle for one interleaved-scheduler transaction slot
    /// (its own [`FlightTrack::TxnSlot`] timeline).
    pub fn slot_handle(self: &Arc<Self>, coord: u16, slot: u16) -> FlightHandle {
        self.track_handle(FlightTrack::TxnSlot(coord, slot))
    }

    /// The recorder's current timestamp (pair with
    /// [`FlightRecorder::chaos_span`] to bracket a cluster-level event).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn chaos_record(&self, name: &'static str, about: u64, start_ns: u64, dur_ns: u64) {
        let track = FlightTrack::Chaos;
        let payload = Payload::About(about);
        let span =
            FlightSpan { seq: 0, track, name, trace_id: 0, start_ns, dur_ns, payload, ok: true };
        self.push(&self.chaos, span);
    }

    /// Record a cluster-level *span* on the chaos track (e.g. a takeover
    /// re-run of a recovery), from `start_ns` (taken earlier via
    /// [`FlightRecorder::now_ns`]) to now.
    pub fn chaos_span(&self, name: &'static str, about: u64, start_ns: u64) {
        if self.is_enabled() {
            let dur_ns = self.clock.now_ns().saturating_sub(start_ns).max(1);
            self.chaos_record(name, about, start_ns, dur_ns);
        }
    }

    /// Record a cluster-level chaos event (crash storm step, partition,
    /// false suspicion) as an instant on the chaos track.
    pub fn chaos_instant(&self, name: &'static str, about: u64) {
        if self.is_enabled() {
            self.chaos_record(name, about, self.clock.now_ns(), 0);
        }
    }

    /// Every track's ring: chaos, the memory nodes, then coordinators and
    /// slots in order of first use.
    fn rings(&self) -> Vec<Arc<Ring>> {
        let mut rings = vec![Arc::clone(&self.chaos)];
        rings.extend(self.nodes.iter().cloned());
        rings.extend(self.coords.lock().iter().cloned());
        rings
    }

    /// All retained records across every track, in time order.
    pub fn snapshot(&self) -> Vec<FlightSpan> {
        let mut spans: Vec<FlightSpan> = self.rings().iter().flat_map(|r| r.snapshot()).collect();
        spans.sort_by_key(|s| (s.start_ns, s.seq));
        spans
    }

    /// The retained records of all tracks, one line each, interleaved in
    /// the order they were made (`seq`) — the protocol trace an assertion
    /// message embeds. The time is when the record was made (a span's
    /// end), as an offset from the oldest retained start.
    pub fn dump_text(&self) -> String {
        let mut spans = self.snapshot();
        let t0 = spans.first().map_or(0, |s| s.start_ns);
        spans.sort_by_key(|s| s.seq);
        let mut out = String::with_capacity(spans.len() * 96);
        for s in &spans {
            let at = Duration::from_nanos(s.start_ns + s.dur_ns - t0);
            let what = match s.payload {
                Payload::Txn(ev) => format!("{ev:?}"),
                Payload::None => s.name.to_string(),
                payload => format!("{} {payload:?}", s.name),
            };
            let took = match s.dur_ns {
                0 => String::new(),
                ns => format!(" took {:?}", Duration::from_nanos(ns)),
            };
            let failed = if s.ok { "" } else { " FAILED" };
            out.push_str(&format!(
                "[{at:>10?}] seq={:<6} {:<28} id={:#x} {what}{took}{failed}\n",
                s.seq,
                s.track.label(),
                s.trace_id,
            ));
        }
        out
    }

    /// The retained records as a Chrome trace-event JSON **array** — the
    /// format `ui.perfetto.dev` and `chrome://tracing` load directly.
    /// Spans become `"X"` complete events, instants become `"i"`, and
    /// every track gets an `"M"` thread-name metadata event.
    pub fn chrome_trace(&self) -> String {
        let spans = self.snapshot();
        let mut out = String::with_capacity(spans.len() * 128 + 1024);
        out.push_str(
            r#"[
{"ph":"M","ts":0,"pid":1,"tid":1,"name":"process_name","args":{"name":"pandora"}}"#,
        );
        for t in self.rings().iter().map(|r| r.track) {
            out.push_str(&format!(
                ",\n{{\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                t.tid(),
                jstr(&t.label()),
            ));
        }
        for s in &spans {
            let shape = match s.dur_ns {
                0 => r#""ph":"i","s":"t""#.to_string(),
                ns => format!(r#""ph":"X","dur":{:.3}"#, ns as f64 / 1000.0),
            };
            out.push_str(&format!(
                ",\n{{{shape},\"ts\":{:.3},\"pid\":1,\"tid\":{},\"name\":{},\"args\":{{\"trace_id\":\"{:#x}\",\"ok\":{}{}}}}}",
                s.start_ns as f64 / 1000.0,
                s.track.tid(),
                jstr(s.name),
                s.trace_id,
                s.ok,
                s.payload.json_members(),
            ));
        }
        out.push_str("\n]\n");
        out
    }

    /// A post-mortem dump: a JSON object wrapping the Chrome trace
    /// array with the failure `reason` and the chaos seed. Perfetto
    /// loads the object form (`traceEvents`) just like the bare array.
    pub fn dump_json(&self, reason: &str) -> String {
        format!(
            "{{\"schema\":\"pandora-flight-v1\",\"reason\":{},\"chaos_seed\":\"{:#x}\",\"recorded\":{},\"traceEvents\":{}}}\n",
            jstr(reason),
            self.chaos_seed.load(Ordering::Relaxed),
            self.recorded(),
            self.chrome_trace(),
        )
    }

    /// Write `body` to `path`, creating its directory.
    fn write(path: &Path, body: String) -> std::io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, body)
    }

    /// Write the Chrome trace array to `path` (the `--trace-out` file).
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        FlightRecorder::write(path.as_ref(), self.chrome_trace())
    }

    /// Dump the retained records to `<dump-dir>/flight-<reason>.json`,
    /// returning the path. No-op (returns `None`) when the recorder is
    /// disabled — a disabled recorder takes no lock and writes no file —
    /// or no dump dir is configured. One file per reason, newest wins — a
    /// crash storm triggering dozens of recoveries must not flood the
    /// disk.
    pub fn auto_dump(&self, reason: &str) -> Option<PathBuf> {
        if !self.is_enabled() {
            return None;
        }
        let dir = self.dump_dir.lock().clone()?;
        let safe: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '-' })
            .collect();
        self.dump_to(dir.join(format!("flight-{safe}.json")), reason).ok()
    }

    /// Dump to an explicit path (test harness failure hooks).
    pub fn dump_to(&self, path: impl AsRef<Path>, reason: &str) -> std::io::Result<PathBuf> {
        FlightRecorder::write(path.as_ref(), self.dump_json(reason))?;
        Ok(path.as_ref().to_path_buf())
    }
}

impl VerbSink for FlightRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        self.is_enabled()
    }

    fn on_verb(&self, ev: &VerbEvent) {
        let Some(ring) = self.nodes.get(ev.node as usize) else {
            return;
        };
        self.push(
            ring,
            FlightSpan {
                seq: 0,
                track: ring.track,
                name: ev.kind.name(),
                trace_id: 0,
                start_ns: ev.start_ns,
                // Verbs are real work even when the clock can't tell
                // them apart; clamp to 1ns so they render as spans.
                dur_ns: ev.end_ns.saturating_sub(ev.start_ns).max(1),
                payload: Payload::Verb { bytes: ev.bytes, endpoint: ev.endpoint },
                ok: ev.ok,
            },
        );
    }

    fn on_fault(&self, ev: &FaultEvent) {
        self.push(
            &self.chaos,
            FlightSpan {
                seq: 0,
                track: FlightTrack::Chaos,
                name: ev.kind.name(),
                trace_id: 0,
                start_ns: ev.at_ns,
                dur_ns: 0,
                payload: Payload::Fault { node: ev.node, endpoint: ev.endpoint },
                ok: false,
            },
        );
    }
}

/// Emission handle for one coordinator or slot track: one atomic load
/// when disabled, ring cached so enabled emission is lock + copy.
#[derive(Clone)]
pub struct FlightHandle {
    rec: Arc<FlightRecorder>,
    ring: Arc<Ring>,
}

impl FlightHandle {
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.rec
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.rec.clock.now_ns()
    }

    /// Record a span with explicit timing — recovery lays its four steps
    /// back onto the timeline from the measured step durations.
    pub fn span(
        &self,
        name: &'static str,
        trace_id: u64,
        start_ns: u64,
        dur_ns: u64,
        payload: Payload,
        ok: bool,
    ) {
        if self.rec.is_enabled() {
            let track = self.ring.track;
            let span = FlightSpan { seq: 0, track, name, trace_id, start_ns, dur_ns, payload, ok };
            self.rec.push(&self.ring, span);
        }
    }

    /// Record a span that took `dur` and ends now (phase timers measure
    /// with a local `Instant` shared with the latency histograms).
    pub fn ended(&self, name: &'static str, trace_id: u64, dur: Duration, ok: bool) {
        if self.rec.is_enabled() {
            let dur_ns = (dur.as_nanos() as u64).max(1);
            let start_ns = self.now_ns().saturating_sub(dur_ns);
            self.span(name, trace_id, start_ns, dur_ns, Payload::None, ok);
        }
    }

    fn at_now(&self, name: &'static str, trace_id: u64, payload: Payload) {
        if self.rec.is_enabled() {
            self.span(name, trace_id, self.now_ns(), 0, payload, true);
        }
    }

    /// Record an instant on this track.
    pub fn instant(&self, name: &'static str, trace_id: u64) {
        self.at_now(name, trace_id, Payload::None);
    }

    /// Record a protocol event of transaction `txn_id` on this track.
    #[inline]
    pub fn event(&self, txn_id: u64, event: TxnEvent) {
        self.at_now(event.name(), txn_id, Payload::Txn(event));
    }
}

/// Run `f`; if it panics and `rec` is set, dump the flight recorder and
/// re-panic with the dump path appended to the message. This is how the
/// chaos soak and litmus harnesses tie assertion failures back to a
/// replayable trace file.
pub fn dump_on_panic<T>(
    rec: Option<&Arc<FlightRecorder>>,
    label: &str,
    f: impl FnOnce() -> T + std::panic::UnwindSafe,
) -> T {
    match std::panic::catch_unwind(f) {
        Ok(v) => v,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied())
                .unwrap_or("non-string panic payload");
            if let Some(rec) = rec {
                let path = rec.auto_dump(label).or_else(|| {
                    // No dump dir configured: fall back to the target
                    // temp dir so the failure always names a file.
                    rec.set_dump_dir(std::env::temp_dir());
                    rec.auto_dump(label)
                });
                match path {
                    Some(p) => panic!("{msg}\nflight recorder dump: {}", p.display()),
                    None => panic!(
                        "{msg}\nno flight recorder dump (recorder disabled or no writable dir)"
                    ),
                }
            }
            panic!("{msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(cap: usize) -> Arc<FlightRecorder> {
        let rec = FlightRecorder::new(FabricClock::new(), 2, cap);
        // Tests must not inherit a dump dir from the environment.
        *rec.dump_dir.lock() = None;
        rec
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn spans_interleave_across_tracks_in_time_order() {
        let rec = recorder(64);
        rec.handle(0).ended("txn", 7, MS, true);
        rec.handle(1).ended("txn", 8, MS, false);
        rec.chaos_instant("storm:crash", 3);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 3);
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(spans.iter().any(|s| s.track == FlightTrack::Chaos));
    }

    #[test]
    fn ring_retains_newest_per_track() {
        let rec = recorder(4);
        let h = rec.handle(0);
        for i in 0..10u64 {
            h.instant("tick", i);
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 4);
        let ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(rec.recorded(), 10);
    }

    #[test]
    fn wraparound_keeps_seq_contiguous_without_duplicates_or_gaps() {
        // Across any number of overwrite wraps — including counts that
        // are not a multiple of the capacity — the retained set of one
        // track is a contiguous, duplicate-free seq window ending at the
        // newest record, and no slot holds a stale body under a fresh seq.
        for capacity in [1usize, 3, 4, 7] {
            for total in [1u64, 3, 4, 5, 9, 17, 100] {
                let rec = recorder(capacity);
                let h = rec.handle(0);
                for i in 0..total {
                    h.event(i, TxnEvent::Begin);
                }
                assert_eq!(rec.recorded(), total);
                let mut snap = rec.snapshot();
                snap.sort_by_key(|s| s.seq);
                let seqs: Vec<u64> = snap.iter().map(|s| s.seq).collect();
                let lo = total.saturating_sub(capacity as u64);
                assert_eq!(seqs, (lo..total).collect::<Vec<u64>>(), "cap={capacity} total={total}");
                assert!(snap.iter().all(|s| s.trace_id == s.seq));
            }
        }
    }

    #[test]
    fn contended_ring_retains_exactly_the_newest_records() {
        // Regression (from the litmus tracer this ring replaced): a seq
        // allocated outside the ring lock lets the older of two racing
        // records land last and evict the newer one, leaving a stale seq
        // in the retained set.
        const CAPACITY: u64 = 64;
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 200;
        let rec = recorder(CAPACITY as usize);
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                // Every writer on the one track.
                let h = rec.handle(0);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.event(i, TxnEvent::Begin);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = THREADS * PER_THREAD;
        assert_eq!(rec.recorded(), total);
        let mut seqs: Vec<u64> = rec.snapshot().iter().map(|s| s.seq).collect();
        seqs.sort_unstable();
        let expect: Vec<u64> = (total - CAPACITY..total).collect();
        assert_eq!(seqs, expect, "retained set must be exactly the newest {CAPACITY} seqs");
    }

    #[test]
    fn disabled_recorder_emits_nothing() {
        let rec = recorder(16);
        rec.set_enabled(false);
        let h = rec.handle(0);
        h.ended("txn", 1, MS, true);
        h.instant("tick", 1);
        h.event(1, TxnEvent::Committed);
        rec.chaos_instant("storm", 0);
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.recorded(), 0);
    }

    #[test]
    fn chrome_trace_is_valid_and_carries_required_keys() {
        let rec = recorder(16);
        let h = rec.handle(3);
        h.ended("txn", 42, MS, true);
        h.instant("self-fence", 42);
        h.event(42, TxnEvent::LockConflict { table: TableId(1), key: 7, owner: 5 });
        rec.chaos_instant("chaos:partition", 1);
        let trace = rec.chrome_trace();
        let parsed = json::parse(&trace).expect("chrome trace parses");
        let events = parsed.as_array().expect("top level is an array");
        assert!(events.len() >= 5, "metadata + spans expected");
        for ev in events {
            for key in ["ph", "ts", "pid", "tid", "name"] {
                assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
            }
        }
        // Span event present with µs timing and our track id.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(|v| v.as_str()) == Some("X")
                && e.get("tid").and_then(|v| v.as_u64()) == Some(13)
        }));
        // The protocol event is an instant whose args name key and owner.
        let conflict = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("LockConflict"))
            .expect("event instant exported");
        assert_eq!(conflict.get("ph").and_then(|v| v.as_str()), Some("i"));
        let args = conflict.get("args").expect("args");
        assert_eq!(args.get("event").and_then(|v| v.as_str()), Some("LockConflict"));
        assert_eq!(args.get("trace_id").and_then(|v| v.as_str()), Some("0x2a"));
        assert_eq!(args.get("key").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(args.get("owner").and_then(|v| v.as_u64()), Some(5));
    }

    #[test]
    fn text_dump_interleaves_tracks_in_record_order() {
        let rec = recorder(8);
        let (h3, h4) = (rec.handle(3), rec.handle(4));
        h3.event(1, TxnEvent::Lock { table: TableId(0), key: 7, stolen: true });
        h4.event(2, TxnEvent::LockConflict { table: TableId(0), key: 7, owner: 3 });
        h3.ended("validate", 1, MS, true);
        h4.event(2, TxnEvent::Aborted { reason: "LockConflict" });
        let dump = rec.dump_text();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4, "{dump}");
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("seq={i} ")), "line {i} out of record order: {dump}");
        }
        assert!(lines[0].contains("coordinator 3") && lines[0].contains("stolen: true"));
        assert!(lines[1].contains("coordinator 4") && lines[1].contains("key: 7, owner: 3"));
        assert!(lines[2].contains("validate took 1ms"));
        assert!(lines[3].contains("Aborted { reason: \"LockConflict\" }"));
    }

    #[test]
    fn dump_embeds_reason_and_seed() {
        let rec = recorder(8);
        rec.set_chaos_seed(0xD15EA5E);
        rec.handle(0).instant("tick", 1);
        let dump = rec.dump_json("soak-conservation");
        let parsed = json::parse(&dump).expect("dump parses");
        assert_eq!(parsed.get("reason").and_then(|v| v.as_str()), Some("soak-conservation"));
        assert_eq!(parsed.get("chaos_seed").and_then(|v| v.as_str()), Some("0xd15ea5e"));
        assert!(parsed.get("traceEvents").and_then(|v| v.as_array()).is_some());
    }

    #[test]
    fn auto_dump_writes_file_with_sanitized_name() {
        let dir = std::env::temp_dir().join(format!("pandora-flight-test-{}", std::process::id()));
        let rec = recorder(8);
        rec.set_dump_dir(&dir);
        rec.handle(0).instant("tick", 1);
        let path = rec.auto_dump("self fence @qp").expect("dump dir set");
        assert!(path.ends_with("flight-self-fence--qp.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(json::parse(&body).is_ok());
        // Regression: a disabled recorder used to dump its stale ring.
        std::fs::remove_file(&path).unwrap();
        rec.set_enabled(false);
        assert_eq!(rec.auto_dump("self fence @qp"), None);
        assert!(!path.exists(), "a disabled recorder wrote {}", path.display());
        std::fs::remove_dir_all(&dir).ok();
    }
}
