//! Correctness audit: a raw scan of every slot of every table on every
//! replica, over zero-latency admin queue pairs, with no traffic running.
//!
//! `SimCluster::peek` and `raw_slot` register a fabric endpoint per call
//! and the fabric has 4096, so the scan reads whole buckets itself —
//! which also lets it check every slot instead of the touched keys only.

use dkvs::{SlotImage, SlotLayout};
use pandora::SimCluster;
use rdma_sim::{FaultInjector, QueuePair};

#[derive(Default, Debug)]
pub struct Audit {
    /// Slots whose lock word is set, on any replica.
    pub locked_slots: u64,
    /// Slots whose version, or whose key or value while live, differ
    /// between replicas.
    pub replica_mismatches: u64,
    /// Sum over table 0's live slots of the value's leading u64 (on the
    /// micro workloads: increments committed since the load).
    pub field_sum: u64,
}

impl Audit {
    pub fn failures(&self) -> u64 {
        self.locked_slots + self.replica_mismatches
    }
}

pub fn scan(cluster: &SimCluster) -> Audit {
    let fabric = &cluster.ctx.fabric;
    let map = &cluster.ctx.map;
    let endpoint = fabric.register_endpoint();
    let qps: Vec<QueuePair> = fabric
        .node_ids()
        .map(|n| fabric.qp_admin(endpoint, n, FaultInjector::new()).expect("admin qp"))
        .collect();
    let mut out = Audit::default();
    for def in map.tables() {
        let layout = def.layout();
        let slot_bytes = layout.slot_bytes() as usize;
        let lock_off = SlotLayout::LOCK_OFF as usize;
        let mut primary = vec![0u8; def.bucket_bytes() as usize];
        let mut backup = vec![0u8; def.bucket_bytes() as usize];
        for bucket in 0..def.buckets {
            let replicas = map.replicas(def.id, bucket);
            let read = |node: rdma_sim::NodeId, buf: &mut [u8]| {
                qps[node.0 as usize]
                    .read(map.bucket_addr(node, def.id, bucket), buf)
                    .expect("audit read")
            };
            read(replicas[0], &mut primary);
            for (rank, &node) in replicas.iter().enumerate() {
                if rank > 0 {
                    read(node, &mut backup);
                }
                let buf = if rank == 0 { &primary } else { &backup };
                for slot in 0..def.slots_per_bucket as usize {
                    let s = &buf[slot * slot_bytes..(slot + 1) * slot_bytes];
                    let img = SlotImage::parse(layout, &s[lock_off..]);
                    if img.lock.is_locked() {
                        out.locked_slots += 1;
                    }
                    if rank == 0 {
                        let key = u64::from_le_bytes(s[..8].try_into().expect("8 bytes"));
                        if def.id.0 == 0
                            && key != dkvs::layout::EMPTY_KEY
                            && img.version.is_present()
                        {
                            out.field_sum +=
                                u64::from_le_bytes(img.value[..8].try_into().expect("8 bytes"));
                        }
                    } else {
                        // Replicas agree on every version word, and on the
                        // key and value of every live object. A key word
                        // alone may differ: an insert claims its slot on
                        // the primary first, and an aborted or crashed
                        // claim stays behind as a never-written slot.
                        let p = &primary[slot * slot_bytes..(slot + 1) * slot_bytes];
                        let p_img = SlotImage::parse(layout, &p[lock_off..]);
                        let live_differs = img.version.is_present()
                            && (s[..lock_off] != p[..lock_off] || img.value != p_img.value);
                        if img.version != p_img.version || live_differs {
                            out.replica_mismatches += 1;
                        }
                    }
                }
            }
        }
    }
    out
}
