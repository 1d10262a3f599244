//! YCSB core workloads A–F over the DKVS.
//!
//! Not part of the paper's evaluation (an extension — see DESIGN.md):
//! YCSB is the standard cloud-KVS benchmark and rounds out the workload
//! suite for downstream users. One table, 100-byte values, scrambled-
//! Zipfian request distribution (θ = 0.99).
//!
//! | workload | mix |
//! |---|---|
//! | A | 50 % read / 50 % update |
//! | B | 95 % read / 5 % update |
//! | C | 100 % read |
//! | D | 95 % read-latest / 5 % insert |
//! | E | 95 % short range scan / 5 % insert |
//! | F | 50 % read / 50 % read-modify-write |

use std::sync::atomic::{AtomicU64, Ordering};

use dkvs::{TableDef, TableId};
use pandora::{Coordinator, SimCluster, TxnError};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::zipf::{scramble, Zipf};
use crate::{decode_field, encode_value, Workload};

pub const YCSB_TABLE: TableId = TableId(0);
pub const YCSB_VALUE_LEN: usize = 100;

/// The six core workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbMix {
    A,
    B,
    C,
    D,
    E,
    F,
}

/// A YCSB workload instance.
pub struct Ycsb {
    pub mix: YcsbMix,
    pub records: u64,
    zipf: Zipf,
    /// Insert frontier for workloads D/E (keys beyond `records`).
    next_insert: AtomicU64,
    /// Max scan length for workload E.
    pub max_scan: u64,
}

impl Ycsb {
    pub fn new(mix: YcsbMix, records: u64) -> Ycsb {
        Ycsb {
            mix,
            records,
            zipf: Zipf::new(records, 0.99),
            next_insert: AtomicU64::new(records),
            max_scan: 16,
        }
    }

    fn pick(&self, rng: &mut StdRng) -> u64 {
        scramble(self.zipf.sample(rng), self.records)
    }

    fn read_latest(&self, rng: &mut StdRng) -> u64 {
        // Read-latest: bias toward the insert frontier.
        let frontier = self.next_insert.load(Ordering::Relaxed);
        let back = self.zipf.sample(rng).min(frontier - 1);
        frontier - 1 - back
    }

    fn op_insert(&self, co: &mut Coordinator) -> Result<(), TxnError> {
        let key = self.next_insert.fetch_add(1, Ordering::Relaxed);
        let mut txn = co.begin();
        txn.insert(YCSB_TABLE, key, &encode_value(YCSB_VALUE_LEN, key))?;
        txn.commit()
    }

    fn op_scan(&self, co: &mut Coordinator, rng: &mut StdRng, start: u64) -> Result<(), TxnError> {
        let len = rng.random_range(1..=self.max_scan);
        let mut txn = co.begin();
        txn.read_range(YCSB_TABLE, start..(start + len).min(self.records))?;
        txn.commit()
    }
}

impl Workload for Ycsb {
    fn name(&self) -> &'static str {
        match self.mix {
            YcsbMix::A => "YCSB-A",
            YcsbMix::B => "YCSB-B",
            YcsbMix::C => "YCSB-C",
            YcsbMix::D => "YCSB-D",
            YcsbMix::E => "YCSB-E",
            YcsbMix::F => "YCSB-F",
        }
    }

    fn tables(&self) -> Vec<TableDef> {
        // Size for the loaded records plus insert headroom (D/E).
        vec![TableDef::sized_for(0, "usertable", YCSB_VALUE_LEN, self.records * 2)]
    }

    fn load(&self, cluster: &SimCluster) {
        cluster
            .bulk_load(YCSB_TABLE, (0..self.records).map(|k| (k, encode_value(YCSB_VALUE_LEN, k))))
            .expect("load ycsb");
    }

    fn request(&self, rng: &mut StdRng) -> Option<pandora::TxnRequest> {
        // A/B/C/F touch only loaded keys, D reads near the insert
        // frontier and inserts at it; E's range scans stay on the
        // classic path.
        let p = rng.random_range(0..100u32);
        let req = pandora::TxnRequest::new();
        match self.mix {
            YcsbMix::D => Some(if p < 95 {
                req.read(YCSB_TABLE, self.read_latest(rng))
            } else {
                let key = self.next_insert.fetch_add(1, Ordering::Relaxed);
                req.insert(YCSB_TABLE, key, encode_value(YCSB_VALUE_LEN, key))
            }),
            YcsbMix::A | YcsbMix::B => {
                let key = self.pick(rng);
                let read_pct = if self.mix == YcsbMix::A { 50 } else { 95 };
                Some(if p < read_pct {
                    req.read(YCSB_TABLE, key)
                } else {
                    req.write(YCSB_TABLE, key, encode_value(YCSB_VALUE_LEN, p as u64))
                })
            }
            YcsbMix::C => Some(req.read(YCSB_TABLE, self.pick(rng))),
            YcsbMix::F => {
                let key = self.pick(rng);
                Some(if p < 50 {
                    req.read(YCSB_TABLE, key)
                } else {
                    req.update(YCSB_TABLE, key, |old| {
                        encode_value(YCSB_VALUE_LEN, decode_field(old) + 1)
                    })
                })
            }
            YcsbMix::E => None,
        }
    }

    fn execute(&self, co: &mut Coordinator, rng: &mut StdRng) -> Result<(), TxnError> {
        if self.mix != YcsbMix::E {
            let req = self.request(rng).expect("mixes A-D and F declare every draw");
            return co.run_request(&req).map(drop);
        }
        if rng.random_range(0..100u32) < 95 {
            let start = self.pick(rng);
            self.op_scan(co, rng, start)
        } else {
            self.op_insert(co)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora::ProtocolKind;
    use rand::SeedableRng;

    fn ycsb_cluster(w: &Ycsb) -> SimCluster {
        let b = crate::with_tables(
            SimCluster::builder(ProtocolKind::Pandora)
                .memory_nodes(2)
                .replication(2)
                .capacity_per_node(64 << 20),
            w,
        );
        let cluster = b.build().unwrap();
        w.load(&cluster);
        cluster
    }

    #[test]
    fn every_mix_runs() {
        for mix in [YcsbMix::A, YcsbMix::B, YcsbMix::C, YcsbMix::D, YcsbMix::E, YcsbMix::F] {
            let w = Ycsb::new(mix, 512);
            let cluster = ycsb_cluster(&w);
            let (mut co, _lease) = cluster.coordinator().unwrap();
            let mut rng = StdRng::seed_from_u64(mix as u64 + 1);
            let mut committed = 0;
            for _ in 0..60 {
                if w.execute(&mut co, &mut rng).is_ok() {
                    committed += 1;
                }
            }
            assert!(committed > 40, "{mix:?}: only {committed}/60 committed");
        }
    }

    #[test]
    fn workload_c_never_writes() {
        let w = Ycsb::new(YcsbMix::C, 256);
        let cluster = ycsb_cluster(&w);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..40 {
            w.execute(&mut co, &mut rng).unwrap();
        }
        for k in (0..256).step_by(17) {
            assert_eq!(
                decode_field(&cluster.peek(YCSB_TABLE, k).unwrap()),
                k,
                "read-only mix must not modify"
            );
        }
    }

    #[test]
    fn workload_d_inserts_advance_the_frontier() {
        let w = Ycsb::new(YcsbMix::D, 128);
        let cluster = ycsb_cluster(&w);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..200 {
            let _ = w.execute(&mut co, &mut rng);
        }
        let frontier = w.next_insert.load(std::sync::atomic::Ordering::Relaxed);
        assert!(frontier > 128, "inserts must have happened");
        // Every inserted key is present.
        for k in 128..frontier {
            assert!(cluster.peek(YCSB_TABLE, k).is_some(), "inserted key {k} missing");
        }
    }
}
