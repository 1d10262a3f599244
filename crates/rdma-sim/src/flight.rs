//! Verb-level observation hooks: the fabric half of the flight recorder.
//!
//! The protocol layer (pandora's `flight` module) wants every data-path
//! verb — READ/WRITE/CAS/FAA/FLUSH, with endpoint/node attribution — as
//! a timed span, plus an instant event for every fault the chaos model
//! injects. This module provides the plumbing without the fabric knowing
//! anything about span formats: a [`VerbSink`] trait implemented by the
//! recorder, installed on the [`crate::Fabric`] exactly like a chaos
//! model, and a per-QP [`FlightTap`] picked up at QP creation.
//!
//! Cost discipline mirrors [`crate::chaos::ChaosLink`]: a QP with no tap
//! pays nothing; a tap whose sink is disabled pays exactly one atomic
//! load per verb ([`VerbSink::enabled`]). Only an enabled sink pays the
//! completion's clock read and the dynamic dispatch (the span's start is
//! the post's own timestamp).
//!
//! All timestamps are nanosecond offsets from the fabric's epoch
//! ([`FabricClock`]), never `Instant`s — so events from every
//! coordinator, memory node, and recovery thread serialize and
//! interleave on one shared time axis.

use std::sync::Arc;
use std::time::Instant;

/// A fabric-wide monotonic clock: nanoseconds since the fabric was
/// created. `Copy`, so every QP and recorder holds its own handle to the
/// same epoch.
#[derive(Debug, Clone, Copy)]
pub struct FabricClock {
    epoch: Instant,
}

impl FabricClock {
    pub fn new() -> FabricClock {
        FabricClock { epoch: Instant::now() }
    }

    /// Nanoseconds since the epoch. Monotonic; saturates only after ~584
    /// years of simulated uptime.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The reading this clock showed (or will show) at `t`; 0 for
    /// instants before the epoch. Lets a caller that already holds an
    /// `Instant` stamp it without a second clock read.
    #[inline]
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

impl Default for FabricClock {
    fn default() -> Self {
        FabricClock::new()
    }
}

/// The five one-sided verb classes, for span naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerbKind {
    Read,
    Write,
    Cas,
    Faa,
    Flush,
}

impl VerbKind {
    pub const ALL: [VerbKind; 5] =
        [VerbKind::Read, VerbKind::Write, VerbKind::Cas, VerbKind::Faa, VerbKind::Flush];

    pub const fn name(self) -> &'static str {
        match self {
            VerbKind::Read => "READ",
            VerbKind::Write => "WRITE",
            VerbKind::Cas => "CAS",
            VerbKind::Faa => "FAA",
            VerbKind::Flush => "FLUSH",
        }
    }
}

/// One completed (or failed) data-path verb.
#[derive(Debug, Clone, Copy)]
pub struct VerbEvent {
    pub endpoint: u32,
    pub node: u16,
    pub kind: VerbKind,
    pub bytes: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `false` when the verb returned an error (crash, revocation,
    /// chaos timeout, dead node).
    pub ok: bool,
}

/// A fault the chaos model injected into a verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Verb timed out, provably not applied.
    TimeoutNotApplied,
    /// Verb timed out before touching memory, outcome ambiguous to the
    /// issuer.
    TimeoutAmbiguous,
    /// Verb landed in memory but its completion was lost (ambiguous).
    LandedAmbiguous,
}

impl FaultKind {
    pub const fn name(self) -> &'static str {
        match self {
            FaultKind::TimeoutNotApplied => "chaos:timeout-dropped",
            FaultKind::TimeoutAmbiguous => "chaos:timeout-ambiguous",
            FaultKind::LandedAmbiguous => "chaos:landed-ambiguous",
        }
    }
}

/// One injected fault, as an instant on the shared time axis.
#[derive(Debug, Clone, Copy)]
pub struct FaultEvent {
    pub endpoint: u32,
    pub node: u16,
    pub kind: FaultKind,
    pub at_ns: u64,
}

/// The recorder interface the fabric dispatches into. Implementations
/// must be cheap when disabled: `enabled` is consulted before any event
/// is constructed and should be a single relaxed/acquire atomic load.
pub trait VerbSink: Send + Sync {
    fn enabled(&self) -> bool;
    fn on_verb(&self, ev: &VerbEvent);
    fn on_fault(&self, ev: &FaultEvent);
}

/// Per-QP handle to the installed sink, carrying the link attribution
/// (endpoint, node) so the hot path never looks it up.
pub(crate) struct FlightTap {
    sink: Arc<dyn VerbSink>,
    clock: FabricClock,
    endpoint: u32,
    node: u16,
}

impl FlightTap {
    pub(crate) fn new(
        sink: Arc<dyn VerbSink>,
        clock: FabricClock,
        endpoint: u32,
        node: u16,
    ) -> FlightTap {
        FlightTap { sink, clock, endpoint, node }
    }

    /// Start timing a verb posted at fabric time `now_ns`: `None` (one
    /// atomic load) when the sink is disabled, otherwise the start
    /// timestamp.
    #[inline]
    pub(crate) fn begin(&self, now_ns: u64) -> Option<u64> {
        self.sink.enabled().then_some(now_ns)
    }

    /// Complete a span started by [`FlightTap::begin`].
    pub(crate) fn finish(&self, kind: VerbKind, bytes: u64, start_ns: u64, ok: bool) {
        self.sink.on_verb(&VerbEvent {
            endpoint: self.endpoint,
            node: self.node,
            kind,
            bytes,
            start_ns,
            end_ns: self.clock.now_ns(),
            ok,
        });
    }

    /// Report an injected fault (called only on the already-cold fault
    /// path, so the enabled check here costs nothing extra).
    pub(crate) fn fault(&self, kind: FaultKind) {
        if self.sink.enabled() {
            self.sink.on_fault(&FaultEvent {
                endpoint: self.endpoint,
                node: self.node,
                kind,
                at_ns: self.clock.now_ns(),
            });
        }
    }
}
