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
//! per call. [`experiment`] is the client layer over them — cluster
//! build, the fault experiment and freeze-and-recover — that the CLI and
//! the bench targets call (DESIGN.md "Client layer"). Dataset sizes are scaled down from the paper's (this is a
//! single-machine simulation; see DESIGN.md §1) but the transaction
//! mixes, read/write ratios, and table counts match:
//! TATP 4 tables / 80 % read-only; SmallBank 2 tables / 85 % writes;
//! TPC-C 9 tables / 95 % writes.

pub mod experiment;
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

pub use experiment::{
    build_cluster, freeze, inject_fault, recover, run_failover, FailoverRun, FailoverSpec,
    FaultKind, FaultRecord, MEMORY_NODES,
};
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
    ///
    /// By default the draw is [`Workload::request`]'s, run once through
    /// the blocking driver: a mix whose every draw declares is written
    /// once. A mix with draws that cannot be declared overrides this.
    fn execute(&self, co: &mut Coordinator, rng: &mut StdRng) -> Result<(), TxnError> {
        let req = self.request(rng).expect("a mix with undeclarable draws overrides `execute`");
        co.run_request(&req).map(drop)
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use pandora::ProtocolKind;
    use rand::SeedableRng;

    /// Keys 0..256 of every table, present or not: past every key the
    /// mixes below can touch.
    fn contents(cluster: &SimCluster, workload: &dyn Workload) -> Vec<Option<Vec<u8>>> {
        let tables = workload.tables();
        tables
            .iter()
            .flat_map(|t| (0..256).map(|key| cluster.peek(t.id, key)))
            .collect()
    }

    #[test]
    fn execute_is_one_request_run_once() {
        type MakeWorkload = fn() -> Box<dyn Workload>;
        let mixes: [(&str, MakeWorkload); 7] = [
            ("micro", || Box::new(MicroBench::new(64, 0.5))),
            ("tatp", || Box::new(Tatp::new(8))),
            ("ycsb-a", || Box::new(Ycsb::new(YcsbMix::A, 32))),
            ("ycsb-b", || Box::new(Ycsb::new(YcsbMix::B, 32))),
            ("ycsb-c", || Box::new(Ycsb::new(YcsbMix::C, 32))),
            ("ycsb-d", || Box::new(Ycsb::new(YcsbMix::D, 32))),
            ("ycsb-f", || Box::new(Ycsb::new(YcsbMix::F, 32))),
        ];
        for (name, make) in mixes {
            // A workload each: YCSB-D's insert frontier is the instance's.
            let end_state = |by_request: bool| {
                let workload = make();
                let cluster = with_tables(
                    SimCluster::builder(ProtocolKind::Pandora).memory_nodes(2).replication(2),
                    workload.as_ref(),
                )
                .build()
                .unwrap();
                workload.load(&cluster);
                let (mut co, _lease) = cluster.coordinator().unwrap();
                let mut rng = StdRng::seed_from_u64(5);
                let mut results = Vec::new();
                for _ in 0..80 {
                    results.push(if by_request {
                        let req = workload.request(&mut rng).expect("declarable mix");
                        co.run_request(&req).map(drop)
                    } else {
                        workload.execute(&mut co, &mut rng)
                    });
                }
                (results, contents(&cluster, workload.as_ref()))
            };
            let (executed, requested) = (end_state(false), end_state(true));
            assert!(executed.0.iter().any(Result::is_ok), "{name}: nothing committed");
            assert!(executed == requested, "{name}: execute and request diverge");
        }
    }
}
