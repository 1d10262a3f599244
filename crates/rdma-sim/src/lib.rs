//! # rdma-sim — an in-process simulated one-sided RDMA fabric
//!
//! This crate stands in for the RNIC fabric of a disaggregated-memory
//! cluster. It exposes *exactly* the primitives the Pandora paper assumes
//! compute servers have (§2.1): one-sided `READ`, `WRITE`, `CAS` and `FAA`
//! verbs over reliable-connection queue pairs, plus a thin control-path RPC
//! channel to the "wimpy cores" of memory nodes (used only for connection
//! setup, region allocation, and active-link termination — never in the
//! data path).
//!
//! ## Semantics reproduced from real RDMA
//!
//! * **One-sidedness** — compute code can only touch remote memory through
//!   verbs on a [`QueuePair`]; there is no shared-pointer backdoor.
//! * **Reliable-connection ordering** — verbs issued on one QP complete in
//!   issue order (the simulator executes them synchronously, which is a
//!   strictly stronger guarantee, matching a coordinator that waits for
//!   completions).
//! * **Word atomicity only** — `CAS`/`FAA` are atomic on aligned 8-byte
//!   words; large `READ`s/`WRITE`s are *not* atomic and may observe torn
//!   multi-word state, exactly as on hardware. The transactional protocol
//!   must tolerate this via version/lock words.
//! * **Access revocation** — a memory node can revoke the rights of a
//!   compute endpoint (*active-link termination*, paper §3.2.2 step 2);
//!   afterwards every verb from that endpoint is dropped with
//!   [`RdmaError::AccessRevoked`], even under false-positive failure
//!   suspicion.
//! * **Crash-stop faults** — memory nodes can be killed
//!   ([`Fabric::kill_node`]); compute-side crashes are modelled by the
//!   [`FaultInjector`], which stops a coordinator at an arbitrary verb with
//!   power-cut semantics (all remote effects up to that verb persist, no
//!   cleanup runs).
//!
//! ## What is intentionally simplified
//!
//! Message loss/duplication/reordering are handled by real RC transports via
//! transparent retransmission (paper §2.1, failure model); the simulator
//! therefore models the post-transport view: a verb either completes, or the
//! link is revoked/dead. An optional [`LatencyModel`] injects round-trip and
//! bandwidth delays for latency-sensitive experiments.
//!
//! That clean post-transport view is deliberately broken by the optional
//! [`ChaosModel`]: a seeded, per-link fault schedule of verb timeouts
//! (ambiguous or provably not applied), bounded link flaps, asymmetric
//! compute↔memory partitions, and latency spikes — the gray-failure regime
//! real RC transports leak when retransmission gives up.

mod chaos;
mod cq;
mod error;
mod fabric;
mod fault;
mod flight;
mod latency;
mod mem;
mod qp;
mod rpc;
mod stripe;

pub use chaos::{ChaosConfig, ChaosModel, ChaosStatsSnapshot, ChaosVerdict};
pub use cq::{log2_bucket, Completion, LatencySummary, VerbLatencySnapshot, WorkId};
pub use error::{RdmaError, RdmaResult, TimeoutApplied};
pub use fabric::{EndpointId, Fabric, FabricConfig, NodeId};
pub use fault::{CrashMode, CrashPlan, FaultInjector, TEAR_MIDPOINT};
pub use flight::{FabricClock, FaultEvent, FaultKind, VerbEvent, VerbKind, VerbSink};
pub use latency::LatencyModel;
pub use mem::MemoryNode;
pub use qp::{OpCounters, OpCountersSnapshot, QueuePair};
pub use rpc::{CtrlClient, CtrlRequest, CtrlResponse};
pub use stripe::QpStripe;
