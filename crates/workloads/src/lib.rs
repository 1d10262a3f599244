//! # pandora-workloads — OLTP workloads of the Pandora evaluation
//!
//! The paper evaluates with "the same three standard OLTP benchmarks that
//! were used by FORD: TPC-C, TATP, and SmallBank. These benchmarks have
//! 8B keys. The values are 672B, 48B, and 16B, respectively. Besides
//! these benchmarks, we used a microbenchmark with 8B keys and 40B
//! values in which write ratios are adjusted" (§4.1).
//!
//! Each workload implements [`Workload`]: it declares its tables, loads
//! its dataset, and executes one randomly-drawn transaction of its mix
//! per call. Dataset sizes are scaled down from the paper's (this is a
//! single-machine simulation; see DESIGN.md §1) but the transaction
//! mixes, read/write ratios, and table counts match:
//! TATP 4 tables / 80 % read-only; SmallBank 2 tables / 85 % writes;
//! TPC-C 9 tables / 95 % writes.

pub mod micro;
pub mod runner;
pub mod smallbank;
pub mod tatp;
pub mod tpcc;
pub mod ycsb;
pub mod zipf;

use dkvs::TableDef;
use pandora::{Coordinator, SimCluster, SimClusterBuilder, TxnError, TxnRequest};
use rand::rngs::StdRng;

pub use micro::MicroBench;
pub use runner::{RunnerConfig, WorkloadRunner};
pub use smallbank::SmallBank;
pub use tatp::Tatp;
pub use tpcc::Tpcc;
pub use ycsb::{Ycsb, YcsbMix};
pub use zipf::Zipf;

/// A transactional workload: table schema, loader, and transaction mix.
pub trait Workload: Send + Sync + 'static {
    fn name(&self) -> &'static str;

    /// Table definitions (dense ids starting at 0).
    fn tables(&self) -> Vec<TableDef>;

    /// Bulk-load the initial dataset.
    fn load(&self, cluster: &SimCluster);

    /// Execute ONE transaction drawn from the mix. No internal retries:
    /// aborts surface to the caller so abort rates stay observable.
    fn execute(&self, co: &mut Coordinator, rng: &mut StdRng) -> Result<(), TxnError>;

    /// Draw ONE transaction of the mix as a *declared* request for the
    /// interleaved scheduler ([`Coordinator::run_interleaved`]): reads,
    /// blind writes, read-modify-writes, inserts and deletes of keys
    /// known before execution. `None` means this mix (or this particular
    /// draw) cannot be declared ahead of execution — range scans, or
    /// control flow that depends on a value read — and must go through
    /// [`Workload::execute`].
    fn request(&self, rng: &mut StdRng) -> Option<TxnRequest> {
        let _ = rng;
        None
    }
}

/// Register a workload's tables on a cluster builder.
pub fn with_tables(mut builder: SimClusterBuilder, workload: &dyn Workload) -> SimClusterBuilder {
    for t in workload.tables() {
        builder = builder.table(t);
    }
    builder
}

/// Encode a u64 numeric field into a fixed-size value buffer.
pub(crate) fn encode_value(len: usize, field: u64) -> Vec<u8> {
    let mut v = vec![0u8; len];
    v[0..8].copy_from_slice(&field.to_le_bytes());
    v
}

/// Decode the numeric field of a value buffer.
pub(crate) fn decode_field(value: &[u8]) -> u64 {
    u64::from_le_bytes(value[0..8].try_into().expect("value >= 8 bytes"))
}
