//! # pandora — fast, highly available, and recoverable transactions on
//! disaggregated data stores
//!
//! A from-scratch Rust reproduction of the EDBT 2025 Pandora paper: a
//! fully one-sided transactional protocol for disaggregated key-value
//! stores that recovers from compute failures in milliseconds without
//! blocking live transactions.
//!
//! The crate contains three protocols sharing one engine:
//!
//! * [`ProtocolKind::Ford`] — the FORD baseline (execution / validation /
//!   commit-abort with undo logging); recovery is stop-the-world with a
//!   full-KVS scan for stray locks.
//! * [`ProtocolKind::Pandora`] — PILL (locks carry a 16-bit
//!   coordinator-id, making stray locks *stealable*), a post-validation
//!   logging phase on f+1 designated log servers, and a four-step
//!   non-blocking RDMA recovery protocol.
//! * [`ProtocolKind::Traditional`] — FORD plus a lock-intent log write
//!   before every lock: recovery avoids the scan but steady-state pays
//!   up to 35% throughput (the paper's §6.2.1 strawman).
//!
//! ## Quick start
//!
//! ```
//! use pandora::{ProtocolKind, SimCluster};
//! use dkvs::{TableDef, TableId};
//!
//! let cluster = SimCluster::builder(ProtocolKind::Pandora)
//!     .memory_nodes(2)
//!     .replication(2)
//!     .table(TableDef::sized_for(0, "accounts", 16, 1000))
//!     .build()
//!     .unwrap();
//! const ACCOUNTS: TableId = TableId(0);
//! cluster.bulk_load(ACCOUNTS, (0..100).map(|k| (k, vec![0u8; 16]))).unwrap();
//!
//! let (mut co, _lease) = cluster.coordinator().unwrap();
//! let (balance, _aborts) = co
//!     .run(|txn| {
//!         let v = txn.read(ACCOUNTS, 7)?.expect("loaded");
//!         txn.write(ACCOUNTS, 7, &[1u8; 16])?;
//!         Ok(v)
//!     })
//!     .unwrap();
//! assert_eq!(balance, vec![0u8; 16]);
//! ```

pub(crate) mod commit;
pub mod compute;
pub mod config;
pub mod context;
pub mod coordinator;
pub(crate) mod exec;
pub mod failed_ids;
pub mod fd;
pub mod flight;
pub mod memfail;
pub mod obs;
pub mod pause;
pub mod recovery;
pub mod retry;
pub mod sched;
pub mod sim;
pub mod txn;

pub use compute::ComputeNode;
pub use config::{BugFlags, ProtocolKind, SystemConfig};
pub use context::SharedContext;
pub use coordinator::{CoordStats, Coordinator};
pub use failed_ids::FailedIds;
pub use fd::{CoordinatorLease, FailureDetector, FdMonitor, FdOutcome, QuorumFd};
pub use flight::{
    dump_on_panic, FlightHandle, FlightRecorder, FlightSpan, FlightTrack, Payload, TxnEvent,
};
pub use memfail::{MemFailReport, MemoryFailureHandler};
pub use obs::{
    mean_tps, LatencyHistogram, LatencySummary, MetricsRegistry, MetricsSnapshot, PhaseStats,
    ThroughputProbe, TimelinePoint, TimelineSampler, TxnPhase,
};
pub use pause::{CoordGate, WorldPause};
pub use recovery::{RecoveryCoordinator, RecoveryCrashPlan, RecoveryReport, RecoveryStep};
pub use retry::{ResilienceSnapshot, ResilienceStats, RetryPolicy};
pub use sched::{SchedSnapshot, SchedStats, TxnOp, TxnOutcome, TxnRequest, UpdateFn};
pub use sim::{SimCluster, SimClusterBuilder};
pub use txn::{AbortReason, Access, Txn, TxnError};
