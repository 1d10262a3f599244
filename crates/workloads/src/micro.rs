//! The microbenchmark: 8-byte keys, 40-byte values, adjustable write
//! ratio and hot-set size (paper §4.1, §6.2, §6.4's hot-object
//! experiments with 1 000 and 100 000 hot keys).

use dkvs::{TableDef, TableId};
use pandora::{Coordinator, SimCluster, TxnError};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::{decode_field, encode_value, Workload};

pub const MICRO_TABLE: TableId = TableId(0);
pub const MICRO_VALUE_LEN: usize = 40;

/// Microbenchmark configuration.
#[derive(Debug, Clone)]
pub struct MicroBench {
    /// Total keys loaded.
    pub keys: u64,
    /// Transactions pick keys uniformly from `[0, hot_keys)` — the
    /// paper's contention knob ("we used 1,000 hot objects/keys").
    pub hot_keys: u64,
    /// Probability that an accessed key is written (vs read).
    pub write_ratio: f64,
    /// Keys touched per transaction.
    pub ops_per_txn: usize,
    /// Client semantics: retry the *same* transaction (same key set)
    /// until it commits, instead of drawing a fresh one per attempt.
    /// The stall-path experiments (paper §6.4, figs. 13/14) need this —
    /// a client blocked on a stray lock stays blocked until recovery.
    pub retry_until_commit: bool,
}

impl MicroBench {
    pub fn new(keys: u64, write_ratio: f64) -> MicroBench {
        MicroBench { keys, hot_keys: keys, write_ratio, ops_per_txn: 4, retry_until_commit: false }
    }

    pub fn with_retry_until_commit(mut self) -> MicroBench {
        self.retry_until_commit = true;
        self
    }

    pub fn with_hot_keys(mut self, hot: u64) -> MicroBench {
        assert!(hot <= self.keys && hot > 0);
        self.hot_keys = hot;
        self
    }

    pub fn with_ops_per_txn(mut self, n: usize) -> MicroBench {
        self.ops_per_txn = n;
        self
    }
}

impl Workload for MicroBench {
    fn name(&self) -> &'static str {
        "MicroBench"
    }

    fn tables(&self) -> Vec<TableDef> {
        vec![TableDef::sized_for(0, "micro", MICRO_VALUE_LEN, self.keys)]
    }

    fn load(&self, cluster: &SimCluster) {
        cluster
            .bulk_load(MICRO_TABLE, (0..self.keys).map(|k| (k, encode_value(MICRO_VALUE_LEN, 0))))
            .expect("load microbench");
    }

    fn request(&self, rng: &mut StdRng) -> Option<pandora::TxnRequest> {
        // Draw distinct keys from the hot set.
        let mut keys = Vec::with_capacity(self.ops_per_txn);
        while keys.len() < self.ops_per_txn {
            let k = rng.random_range(0..self.hot_keys);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        // Acquire locks in a global order: with the stall path enabled,
        // unordered acquisition deadlocks (t1 holds A wants B, t2 holds
        // B wants A, both waiting).
        keys.sort_unstable();
        // Counter increments are `Update` ops: the old value is read
        // under the lock and the closure applied, so the whole key set
        // executes in one round trip.
        let mut req = pandora::TxnRequest::new();
        for k in keys {
            if rng.random_bool(self.write_ratio) {
                req = req.update(MICRO_TABLE, k, |old| {
                    encode_value(MICRO_VALUE_LEN, decode_field(old) + 1)
                });
            } else {
                req = req.read(MICRO_TABLE, k);
            }
        }
        Some(req)
    }

    fn execute(&self, co: &mut Coordinator, rng: &mut StdRng) -> Result<(), TxnError> {
        let req = self.request(rng).expect("every draw declares");
        loop {
            match co.run_request(&req) {
                Err(TxnError::Aborted(_)) if self.retry_until_commit => continue,
                other => return other.map(drop),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora::ProtocolKind;
    use rand::SeedableRng;

    fn micro_cluster(bench: &MicroBench) -> SimCluster {
        let b = crate::with_tables(
            SimCluster::builder(ProtocolKind::Pandora).memory_nodes(2).replication(2),
            bench,
        );
        let cluster = b.build().unwrap();
        bench.load(&cluster);
        cluster
    }

    #[test]
    fn microbench_runs_and_counts() {
        let bench = MicroBench::new(256, 0.5);
        let cluster = micro_cluster(&bench);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut committed = 0;
        for _ in 0..50 {
            if bench.execute(&mut co, &mut rng).is_ok() {
                committed += 1;
            }
        }
        assert!(committed > 0);
        // Counters must reflect the committed writes (no lost updates).
        let total: u64 = (0..256)
            .map(|k| decode_field(&cluster.peek(MICRO_TABLE, k).expect("key")))
            .sum();
        assert!(total > 0, "writes must land");
    }

    #[test]
    fn pure_read_workload_never_writes() {
        let bench = MicroBench::new(128, 0.0);
        let cluster = micro_cluster(&bench);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            bench.execute(&mut co, &mut rng).unwrap();
        }
        let total: u64 = (0..128)
            .map(|k| decode_field(&cluster.peek(MICRO_TABLE, k).expect("key")))
            .sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn hot_set_restricts_key_range() {
        let bench = MicroBench::new(1024, 1.0).with_hot_keys(8);
        let cluster = micro_cluster(&bench);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let _ = bench.execute(&mut co, &mut rng);
        }
        let cold: u64 = (8..1024)
            .map(|k| decode_field(&cluster.peek(MICRO_TABLE, k).expect("key")))
            .sum();
        assert_eq!(cold, 0, "cold keys must never be written");
    }

    #[test]
    #[should_panic(expected = "hot <= self.keys")]
    fn hot_keys_bounded_by_keys() {
        let _ = MicroBench::new(10, 0.5).with_hot_keys(11);
    }
}
