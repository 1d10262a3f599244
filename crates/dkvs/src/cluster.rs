//! The cluster map: where every table segment and log region lives.
//!
//! Built once at setup time through control-path RPCs (the only
//! non-one-sided traffic in the system, as the paper permits for
//! "connection setup and management", §1.1) and then shared read-only
//! with every compute server as part of its initial configuration.

use std::sync::Arc;

use rdma_sim::{Fabric, NodeId, RdmaError, RdmaResult};

use crate::layout::SlotLayout;
use crate::log::{LogRegion, LOG_REGION_BYTES};
use crate::placement::{NodeList, NodeSet, Placement};
use crate::table::{TableDef, TableId};

struct TableMeta {
    def: TableDef,
    /// Segment base byte-offset per memory node (indexed by `NodeId.0`).
    bases: Vec<u64>,
}

/// Immutable layout of the whole DKVS: table segments on every memory
/// node (placement decides which node is primary/backup per bucket) and
/// a slab of per-coordinator log regions on every node.
pub struct ClusterMap {
    placement: Placement,
    tables: Vec<TableMeta>,
    /// Log-slab base per node (indexed by `NodeId.0`).
    log_bases: Vec<u64>,
    /// Lock-intent-slab base per node (used only by the "traditional
    /// logging scheme" of paper §6.1, which logs each lock before
    /// acquiring it).
    intent_bases: Vec<u64>,
    /// Number of coordinator log slots in the slab.
    max_coord_slots: u32,
}

/// Fixed lock-intent region size per coordinator per log server
/// (traditional scheme only; a handful of fixed records).
pub const INTENT_REGION_BYTES: u64 = 4 * 1024;

impl ClusterMap {
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    pub fn max_coord_slots(&self) -> u32 {
        self.max_coord_slots
    }

    pub fn table(&self, id: TableId) -> &TableDef {
        &self.tables[id.0 as usize].def
    }

    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.iter().map(|t| &t.def)
    }

    pub fn layout(&self, id: TableId) -> SlotLayout {
        self.table(id).layout()
    }

    /// Byte address of a table segment base on `node`.
    pub fn segment_base(&self, node: NodeId, table: TableId) -> u64 {
        self.tables[table.0 as usize].bases[node.0 as usize]
    }

    /// Byte address of bucket `bucket` of `table` on `node`.
    pub fn bucket_addr(&self, node: NodeId, table: TableId, bucket: u64) -> u64 {
        let meta = &self.tables[table.0 as usize];
        meta.bases[node.0 as usize] + bucket * meta.def.bucket_bytes()
    }

    /// Byte address of `(bucket, slot)` of `table` on `node`.
    pub fn slot_addr(&self, node: NodeId, table: TableId, bucket: u64, slot: u32) -> u64 {
        let meta = &self.tables[table.0 as usize];
        meta.bases[node.0 as usize] + meta.def.slot_offset(bucket, slot)
    }

    /// Full replica list (primary first) for a bucket, ignoring failures.
    pub fn replicas(&self, table: TableId, bucket: u64) -> Vec<NodeId> {
        self.placement.replicas(table.0 as u64 + 1, bucket)
    }

    /// The replicas of a bucket (primary first), ignoring failures,
    /// without allocating.
    pub fn replica_walk(&self, table: TableId, bucket: u64) -> impl Iterator<Item = NodeId> + '_ {
        self.placement.replica_walk(table.0 as u64 + 1, bucket)
    }

    /// The acting primary of a bucket under the failed-node set `dead`
    /// (`None` = every replica is dead); allocates nothing.
    pub fn primary(&self, table: TableId, bucket: u64, dead: NodeSet) -> Option<NodeId> {
        self.placement.primary(table.0 as u64 + 1, bucket, dead)
    }

    /// Replica list with `dead` nodes filtered; head = acting primary.
    pub fn live_replicas(&self, table: TableId, bucket: u64, dead: &[NodeId]) -> Vec<NodeId> {
        self.placement.live_replicas(table.0 as u64 + 1, bucket, dead)
    }

    /// The f+1 designated log servers of `coord`.
    pub fn log_servers(&self, coord: u16) -> NodeList {
        self.placement.log_servers(coord)
    }

    /// The log region of `coord` on `node`.
    ///
    /// Coordinator-ids are mapped onto `max_coord_slots` physical regions
    /// (`coord % max_coord_slots`); the failure detector never has more
    /// than `max_coord_slots` coordinators alive at once, so a slot is
    /// reused only after its previous owner's logs were truncated.
    pub fn log_region(&self, node: NodeId, coord: u16) -> LogRegion {
        let slot = (coord as u32 % self.max_coord_slots) as u64;
        LogRegion { node, base: self.log_bases[node.0 as usize] + slot * LOG_REGION_BYTES }
    }

    /// The lock-intent region of `coord` on `node` (traditional scheme).
    pub fn intent_region(&self, node: NodeId, coord: u16) -> LogRegion {
        let slot = (coord as u32 % self.max_coord_slots) as u64;
        LogRegion { node, base: self.intent_bases[node.0 as usize] + slot * INTENT_REGION_BYTES }
    }

    /// Admin/debug scan: per-table occupancy of one node's segments
    /// (used slots, live values, tombstones, held locks). Reads through
    /// a control-path-created queue pair; not a data-path operation.
    pub fn occupancy(
        &self,
        fabric: &std::sync::Arc<rdma_sim::Fabric>,
        node: NodeId,
    ) -> rdma_sim::RdmaResult<Vec<TableOccupancy>> {
        use crate::layout::{LockWord, SlotLayout, VersionWord};
        let ep = fabric.register_endpoint();
        let qp = fabric.qp(ep, node, rdma_sim::FaultInjector::new())?;
        let mut out = Vec::with_capacity(self.tables.len());
        for meta in &self.tables {
            let def = &meta.def;
            let layout = def.layout();
            let sb = layout.slot_bytes() as usize;
            let mut buf = vec![0u8; def.bucket_bytes() as usize];
            let mut occ = TableOccupancy {
                table: def.id,
                name: def.name,
                total_slots: def.buckets * def.slots_per_bucket as u64,
                ..TableOccupancy::default()
            };
            for bucket in 0..def.buckets {
                qp.read(self.bucket_addr(node, def.id, bucket), &mut buf)?;
                for i in 0..def.slots_per_bucket as usize {
                    let s = &buf[i * sb..(i + 1) * sb];
                    let key = u64::from_le_bytes(s[0..8].try_into().expect("8B"));
                    if key == 0 {
                        continue;
                    }
                    occ.used_slots += 1;
                    let lock = LockWord(u64::from_le_bytes(
                        s[SlotLayout::LOCK_OFF as usize..SlotLayout::LOCK_OFF as usize + 8]
                            .try_into()
                            .expect("8B"),
                    ));
                    let version = VersionWord(u64::from_le_bytes(
                        s[SlotLayout::VERSION_OFF as usize..SlotLayout::VERSION_OFF as usize + 8]
                            .try_into()
                            .expect("8B"),
                    ));
                    if lock.is_locked() {
                        occ.locked += 1;
                    }
                    if version.is_present() {
                        occ.live += 1;
                    } else if version.is_tombstone() {
                        occ.tombstones += 1;
                    }
                }
            }
            out.push(occ);
        }
        Ok(out)
    }
}

/// Per-table occupancy snapshot (see [`ClusterMap::occupancy`]).
#[derive(Debug, Clone, Default)]
pub struct TableOccupancy {
    pub table: TableId,
    pub name: &'static str,
    pub total_slots: u64,
    /// Slots whose key word is claimed.
    pub used_slots: u64,
    /// Claimed slots with a live value.
    pub live: u64,
    pub tombstones: u64,
    pub locked: u64,
}

impl TableOccupancy {
    pub fn load_factor(&self) -> f64 {
        if self.total_slots == 0 {
            0.0
        } else {
            self.used_slots as f64 / self.total_slots as f64
        }
    }
}

/// Builder that sizes and allocates the cluster layout.
pub struct ClusterMapBuilder {
    replication: usize,
    tables: Vec<TableDef>,
    max_coord_slots: u32,
}

impl ClusterMapBuilder {
    /// `replication` = f+1 copies of every bucket and every log region.
    pub fn new(replication: usize) -> ClusterMapBuilder {
        ClusterMapBuilder { replication, tables: Vec::new(), max_coord_slots: 1024 }
    }

    /// Register a table. Table ids must be dense and in order.
    pub fn table(mut self, def: TableDef) -> ClusterMapBuilder {
        assert_eq!(def.id.0 as usize, self.tables.len(), "table ids must be dense and ordered");
        self.tables.push(def);
        self
    }

    /// Override the number of coordinator log slots (default 1024).
    pub fn max_coord_slots(mut self, slots: u32) -> ClusterMapBuilder {
        assert!(slots > 0);
        self.max_coord_slots = slots;
        self
    }

    /// Allocate every segment on every memory node of `fabric` through
    /// the control path and freeze the map.
    pub fn build(self, fabric: &Arc<Fabric>) -> RdmaResult<Arc<ClusterMap>> {
        let nodes: Vec<NodeId> = fabric.node_ids().collect();
        if nodes.is_empty() {
            return Err(RdmaError::Control("fabric has no memory nodes".into()));
        }
        let placement = Placement::new(nodes.clone(), self.replication);
        let mut tables = Vec::with_capacity(self.tables.len());
        for def in &self.tables {
            let mut bases = vec![0u64; nodes.len()];
            for &n in &nodes {
                bases[n.0 as usize] = fabric.control(n)?.alloc(def.segment_bytes())?;
            }
            tables.push(TableMeta { def: def.clone(), bases });
        }
        let mut log_bases = vec![0u64; nodes.len()];
        let mut intent_bases = vec![0u64; nodes.len()];
        for &n in &nodes {
            let ctrl = fabric.control(n)?;
            log_bases[n.0 as usize] = ctrl.alloc(self.max_coord_slots as u64 * LOG_REGION_BYTES)?;
            intent_bases[n.0 as usize] =
                ctrl.alloc(self.max_coord_slots as u64 * INTENT_REGION_BYTES)?;
        }
        Ok(Arc::new(ClusterMap {
            placement,
            tables,
            log_bases,
            intent_bases,
            max_coord_slots: self.max_coord_slots,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::FabricConfig;

    fn small_fabric() -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            memory_nodes: 3,
            capacity_per_node: 256 << 20,
            latency: rdma_sim::LatencyModel::zero(),
        })
    }

    fn build_map(fabric: &Arc<Fabric>) -> Arc<ClusterMap> {
        ClusterMapBuilder::new(2)
            .table(TableDef::sized_for(0, "accounts", 16, 1000))
            .table(TableDef::sized_for(1, "orders", 40, 500))
            .max_coord_slots(64)
            .build(fabric)
            .unwrap()
    }

    #[test]
    fn segments_allocated_on_every_node() {
        let f = small_fabric();
        let m = build_map(&f);
        let t = TableId(0);
        let mut bases = Vec::new();
        for n in f.node_ids() {
            bases.push(m.segment_base(n, t));
        }
        assert_eq!(bases.len(), 3);
        // Non-overlapping with the second table on the same node.
        let n0 = NodeId(0);
        let t0_end = m.segment_base(n0, TableId(0)) + m.table(TableId(0)).segment_bytes();
        assert!(m.segment_base(n0, TableId(1)) >= t0_end);
    }

    #[test]
    fn slot_addresses_are_consistent_with_bucket_addresses() {
        let f = small_fabric();
        let m = build_map(&f);
        let t = TableId(1);
        let n = NodeId(2);
        let slot_bytes = m.layout(t).slot_bytes();
        assert_eq!(m.slot_addr(n, t, 3, 0), m.bucket_addr(n, t, 3));
        assert_eq!(m.slot_addr(n, t, 3, 2), m.bucket_addr(n, t, 3) + 2 * slot_bytes);
    }

    #[test]
    fn log_regions_are_disjoint_per_coordinator() {
        let f = small_fabric();
        let m = build_map(&f);
        let n = NodeId(0);
        let a = m.log_region(n, 0);
        let b = m.log_region(n, 1);
        assert_eq!(b.base - a.base, LOG_REGION_BYTES);
    }

    #[test]
    fn log_slot_wraps_at_max_coord_slots() {
        let f = small_fabric();
        let m = build_map(&f);
        let n = NodeId(0);
        assert_eq!(m.log_region(n, 0).base, m.log_region(n, 64).base);
        assert_ne!(m.log_region(n, 0).base, m.log_region(n, 63).base);
    }

    #[test]
    fn replicas_have_requested_degree() {
        let f = small_fabric();
        let m = build_map(&f);
        assert_eq!(m.replicas(TableId(0), 7).len(), 2);
        assert_eq!(m.log_servers(5).len(), 2);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn out_of_order_table_ids_rejected() {
        let _ = ClusterMapBuilder::new(1).table(TableDef::sized_for(3, "x", 8, 10));
    }
}
