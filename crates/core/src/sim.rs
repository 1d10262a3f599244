//! Simulation test-kit: one-call cluster construction used by tests,
//! examples, the litmus framework, and the benchmark harness.

use std::sync::{Arc, OnceLock};

use dkvs::{ClusterMapBuilder, SlotLayout, TableDef, TableId, VersionWord};
use rdma_sim::{
    ChaosConfig, ChaosModel, EndpointId, Fabric, FabricConfig, FaultInjector, LatencyModel,
    QueuePair, RdmaError, RdmaResult,
};

use crate::config::{BugFlags, ProtocolKind, SystemConfig};
use crate::context::SharedContext;
use crate::coordinator::Coordinator;
use crate::fd::{CoordinatorLease, FailureDetector};
use crate::flight::FlightRecorder;
use crate::txn::TxnError;

/// Builder for a full simulated DKVS: fabric + layout + shared context +
/// failure detector.
pub struct SimClusterBuilder {
    memory_nodes: u16,
    capacity_per_node: u64,
    replication: usize,
    tables: Vec<TableDef>,
    config: SystemConfig,
    latency: LatencyModel,
    chaos: Option<ChaosConfig>,
    flight_capacity: Option<usize>,
    max_coord_slots: u32,
}

impl SimClusterBuilder {
    pub fn new(protocol: ProtocolKind) -> SimClusterBuilder {
        SimClusterBuilder {
            memory_nodes: 2,
            capacity_per_node: 64 << 20,
            replication: 2,
            tables: Vec::new(),
            config: SystemConfig::new(protocol),
            latency: LatencyModel::zero(),
            chaos: None,
            flight_capacity: None,
            max_coord_slots: 1024,
        }
    }

    pub fn memory_nodes(mut self, n: u16) -> Self {
        self.memory_nodes = n;
        self
    }

    pub fn capacity_per_node(mut self, bytes: u64) -> Self {
        self.capacity_per_node = bytes;
        self
    }

    /// Replication degree f+1.
    pub fn replication(mut self, r: usize) -> Self {
        self.replication = r;
        self
    }

    pub fn table(mut self, def: TableDef) -> Self {
        self.tables.push(def);
        self
    }

    pub fn bugs(mut self, bugs: BugFlags) -> Self {
        self.config.bugs = bugs;
        self
    }

    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Install a seeded chaos model on every protocol-path link. The
    /// model starts *disabled*: load the dataset, then flip it on with
    /// `cluster.chaos.set_enabled(true)` and off again before audits.
    /// Admin paths ([`SimCluster::bulk_load`], [`SimCluster::raw_slot`])
    /// bypass chaos unconditionally either way.
    pub fn chaos(mut self, config: ChaosConfig) -> Self {
        self.chaos = Some(config);
        self
    }

    pub fn max_coord_slots(mut self, slots: u32) -> Self {
        self.max_coord_slots = slots;
        self
    }

    /// Install a flight recorder (see [`crate::flight`]) retaining
    /// `capacity` spans per track. Like chaos, installation happens
    /// before any queue pair exists, so every protocol-path verb is
    /// observed; admin paths ([`SimCluster::bulk_load`],
    /// [`SimCluster::raw_slot`]) are never taped. The recorder starts
    /// enabled — disable with `cluster.flight.set_enabled(false)` for
    /// overhead-sensitive measurement runs.
    pub fn flight(mut self, capacity: usize) -> Self {
        self.flight_capacity = Some(capacity);
        self
    }

    pub fn build(self) -> RdmaResult<SimCluster> {
        let fabric = Fabric::new(FabricConfig {
            memory_nodes: self.memory_nodes,
            capacity_per_node: self.capacity_per_node,
            latency: self.latency,
        });
        // Install chaos before any QP exists so every later protocol
        // link (coordinators, FD, recovery) is subject to injection.
        let chaos = self.chaos.map(|cfg| {
            let model = ChaosModel::new(cfg);
            fabric.install_chaos(Arc::clone(&model));
            model
        });
        let mut mb = ClusterMapBuilder::new(self.replication).max_coord_slots(self.max_coord_slots);
        for t in self.tables {
            mb = mb.table(t);
        }
        let map = mb.build(&fabric)?;
        let ctx = SharedContext::new(fabric, map, self.config);
        // The flight recorder, like chaos, must exist before the first
        // QP (the FD's recovery links are created next) so the whole
        // cluster shares one taped fabric and one time axis.
        let flight = self.flight_capacity.map(|cap| {
            let rec = FlightRecorder::new(ctx.fabric.clock(), ctx.fabric.num_nodes(), cap);
            if let Some(chaos) = &chaos {
                rec.set_chaos_seed(chaos.config().seed);
            }
            ctx.install_flight(Arc::clone(&rec));
            rec
        });
        let fd = FailureDetector::new(Arc::clone(&ctx))?;
        Ok(SimCluster { ctx, fd, chaos, flight, inspection: OnceLock::new() })
    }
}

/// A running simulated cluster.
pub struct SimCluster {
    pub ctx: Arc<SharedContext>,
    pub fd: Arc<FailureDetector>,
    /// The installed chaos model, when the builder requested one.
    pub chaos: Option<Arc<ChaosModel>>,
    /// The installed flight recorder, when the builder requested one.
    pub flight: Option<Arc<FlightRecorder>>,
    /// What [`SimCluster::raw_slot`] and [`SimCluster::peek`] connect
    /// through, created on first use and kept: the fabric never recycles
    /// an endpoint id, so an endpoint per inspection call would exhaust
    /// them (a soak test makes thousands).
    inspection: OnceLock<Inspection>,
}

struct Inspection {
    /// One admin QP per memory node, all on one endpoint that no
    /// coordinator ever registers — so no failure detector can revoke it.
    admin: Vec<QueuePair>,
    /// The endpoint every `peek` coordinator connects at.
    peek_endpoint: EndpointId,
}

impl SimCluster {
    pub fn builder(protocol: ProtocolKind) -> SimClusterBuilder {
        SimClusterBuilder::new(protocol)
    }

    /// Spawn a coordinator: registers an endpoint, obtains a
    /// coordinator-id lease from the FD, and connects queue pairs.
    pub fn coordinator(&self) -> RdmaResult<(Coordinator, CoordinatorLease)> {
        let endpoint = self.ctx.fabric.register_endpoint();
        let lease = self.fd.register(endpoint);
        let co = Coordinator::connect_at(Arc::clone(&self.ctx), lease.coord_id, endpoint)?;
        Ok((co, lease))
    }

    /// Setup-path bulk load: writes `(key, value)` pairs straight into
    /// every replica (no locks, no logs — legitimate before the system
    /// goes live, exactly like loading a dataset before an experiment).
    /// Values must match the table's `value_len`.
    pub fn bulk_load(
        &self,
        table: TableId,
        items: impl IntoIterator<Item = (u64, Vec<u8>)>,
    ) -> RdmaResult<u64> {
        let endpoint = self.ctx.fabric.register_endpoint();
        let injector = FaultInjector::new();
        let mut qps = Vec::new();
        for n in self.ctx.fabric.node_ids() {
            // Setup path: loads never pay the modelled network latency
            // and are never subject to chaos injection.
            qps.push(self.ctx.fabric.qp_admin(endpoint, n, Arc::clone(&injector))?);
        }
        let def = self.ctx.map.table(table).clone();
        let layout = def.layout();
        // Deterministic slot assignment per bucket (same on all replicas),
        // spilling along the probe sequence exactly like live inserts.
        let mut next_slot: dkvs::hash::FxHashMap<u64, u32> = dkvs::hash::FxHashMap::default();
        let mut loaded = 0u64;
        for (key, value) in items {
            assert_eq!(value.len(), layout.value_len, "value_len mismatch in bulk_load");
            let home = def.bucket_for(key);
            let (bucket, slot) = (0..dkvs::table::PROBE_LIMIT.min(def.buckets))
                .map(|p| (home + p) % def.buckets)
                .find_map(|b| {
                    let used = *next_slot.get(&b).unwrap_or(&0);
                    (used < def.slots_per_bucket).then_some((b, used))
                })
                .unwrap_or_else(|| {
                    panic!("probe range around bucket {home} exhausted in bulk_load — size the table larger")
                });
            *next_slot.entry(bucket).or_insert(0) += 1;
            let mut padded = value;
            padded.resize(layout.value_padded(), 0);
            for node in self.ctx.map.replicas(table, bucket) {
                let base = self.ctx.map.slot_addr(node, table, bucket, slot);
                let qp = &qps[node.0 as usize];
                qp.write_u64(base + SlotLayout::KEY_OFF, dkvs::layout::stored_key(key))?;
                qp.write(base + SlotLayout::VALUE_OFF, &padded)?;
                qp.write_u64(base + SlotLayout::VERSION_OFF, VersionWord::new(1, false).raw())?;
            }
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Read a committed value outside any transaction (test assertions).
    /// Goes through a fresh read-only transaction so it sees only
    /// consistent state.
    pub fn peek(&self, table: TableId, key: u64) -> Option<Vec<u8>> {
        let endpoint = self.inspection().peek_endpoint;
        // A running FD monitor may suspect a slow peek — the lease never
        // beats — and terminate the endpoint's links. The next peek
        // rejoins the way a falsely suspected server does: restore the
        // endpoint through the FD (whose RC must forget the termination),
        // take a fresh coordinator-id, try once more.
        for _ in 0..2 {
            let lease = self.fd.register(endpoint);
            let mut co =
                Coordinator::connect_at(Arc::clone(&self.ctx), lease.coord_id, endpoint).ok()?;
            let result = co.run(|txn| txn.read(table, key));
            // Throwaway coordinator: return its id/log slot to the pool.
            self.fd.deregister(lease.coord_id);
            co.gate().mark_dead();
            match result {
                Err(TxnError::Rdma(RdmaError::AccessRevoked)) => {
                    self.fd.rejoin(endpoint);
                }
                other => return other.ok()?.0,
            }
        }
        None
    }

    fn inspection(&self) -> &Inspection {
        self.inspection.get_or_init(|| {
            let fabric = &self.ctx.fabric;
            let endpoint = fabric.register_endpoint();
            let admin = fabric
                .node_ids()
                .map(|n| fabric.qp_admin(endpoint, n, FaultInjector::new()))
                .collect::<RdmaResult<_>>()
                .expect("admin QP to a node of this fabric");
            Inspection { admin, peek_endpoint: fabric.register_endpoint() }
        })
    }

    /// The inspection endpoint's admin QP to `node` (zero latency, no
    /// chaos, never taped).
    fn admin_qp(&self, node: rdma_sim::NodeId) -> Option<&QueuePair> {
        self.inspection().admin.get(node.0 as usize)
    }

    /// Raw (non-transactional) inspection of a key's slot on one replica:
    /// `(lock, version, value)`. Test/debug only — bypasses the protocol.
    pub fn raw_slot(
        &self,
        table: TableId,
        key: u64,
        node: rdma_sim::NodeId,
    ) -> Option<(dkvs::LockWord, VersionWord, Vec<u8>)> {
        let qp = self.admin_qp(node)?;
        let def = self.ctx.map.table(table);
        let layout = def.layout();
        let home = def.bucket_for(key);
        let mut buf = vec![0u8; def.bucket_bytes() as usize];
        let sb = layout.slot_bytes() as usize;
        for p in 0..dkvs::table::PROBE_LIMIT.min(def.buckets) {
            let bucket = (home + p) % def.buckets;
            qp.read(self.ctx.map.bucket_addr(node, table, bucket), &mut buf).ok()?;
            for i in 0..def.slots_per_bucket as usize {
                let s = &buf[i * sb..(i + 1) * sb];
                let k = u64::from_le_bytes(s[0..8].try_into().expect("8B"));
                if k == dkvs::layout::stored_key(key) {
                    let img = dkvs::SlotImage::parse(layout, &s[SlotLayout::LOCK_OFF as usize..]);
                    return Some((img.lock, img.version, img.value));
                }
            }
        }
        None
    }

    /// Raw inspection of `coord`'s undo log: the state word of every lane
    /// on each log copy that can be read (zero = empty or truncated).
    /// Test/debug only — bypasses the protocol.
    pub fn raw_lane_headers(&self, coord: u16) -> Vec<(rdma_sim::NodeId, Vec<u64>)> {
        let map = &self.ctx.map;
        let copy = |node| {
            let qp = self.admin_qp(node)?;
            let base = map.log_region(node, coord).base;
            let words = (0..dkvs::TXN_LOG_LANES as u32)
                .map(|lane| qp.read_u64(base + dkvs::log_lane_offset(lane)).ok())
                .collect::<Option<_>>()?;
            Some((node, words))
        };
        map.log_servers(coord).iter().filter_map(|&node| copy(node)).collect()
    }

    /// The bucket a key actually occupies (following the probe chain on
    /// the acting primary), or its home bucket if not found.
    fn bucket_of_key(&self, table: TableId, key: u64) -> u64 {
        let def = self.ctx.map.table(table);
        let home = def.bucket_for(key);
        let dead = self.ctx.dead_nodes();
        for p in 0..dkvs::table::PROBE_LIMIT.min(def.buckets) {
            let bucket = (home + p) % def.buckets;
            let Some(&primary) = self.ctx.map.live_replicas(table, bucket, &dead).first() else {
                continue;
            };
            if self.raw_slot_in_bucket(table, key, bucket, primary).is_some() {
                return bucket;
            }
        }
        home
    }

    fn raw_slot_in_bucket(
        &self,
        table: TableId,
        key: u64,
        bucket: u64,
        node: rdma_sim::NodeId,
    ) -> Option<u32> {
        let qp = self.admin_qp(node)?;
        let def = self.ctx.map.table(table);
        let layout = def.layout();
        let mut buf = vec![0u8; def.bucket_bytes() as usize];
        qp.read(self.ctx.map.bucket_addr(node, table, bucket), &mut buf).ok()?;
        let sb = layout.slot_bytes() as usize;
        (0..def.slots_per_bucket as usize).find_map(|i| {
            let k = u64::from_le_bytes(buf[i * sb..i * sb + 8].try_into().expect("8B"));
            (k == dkvs::layout::stored_key(key)).then_some(i as u32)
        })
    }

    /// The acting primary node for `key` (placement inspection).
    pub fn primary_node(&self, table: TableId, key: u64) -> rdma_sim::NodeId {
        let bucket = self.bucket_of_key(table, key);
        self.ctx.map.live_replicas(table, bucket, &self.ctx.dead_nodes())[0]
    }

    /// All replica nodes (primary first) for `key`, ignoring failures.
    pub fn replica_nodes(&self, table: TableId, key: u64) -> Vec<rdma_sim::NodeId> {
        let bucket = self.bucket_of_key(table, key);
        self.ctx.map.replicas(table, bucket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KV: TableId = TableId(0);

    fn cluster() -> SimCluster {
        let cluster = SimCluster::builder(ProtocolKind::Pandora)
            .capacity_per_node(16 << 20)
            .table(TableDef::sized_for(0, "kv", 8, 128))
            .max_coord_slots(16)
            .build()
            .expect("build cluster");
        cluster
            .bulk_load(KV, (0..16u64).map(|k| (k, k.to_le_bytes().to_vec())))
            .expect("load");
        cluster
    }

    #[test]
    fn inspection_does_not_burn_endpoints() {
        // The fabric has 4096 endpoint ids and never recycles one.
        let cluster = cluster();
        let node = cluster.primary_node(KV, 3);
        for i in 0..5_000u64 {
            let key = i % 16;
            let (lock, _, value) = cluster.raw_slot(KV, key, node).expect("loaded key");
            assert!(!lock.is_locked());
            assert_eq!(value[..8], key.to_le_bytes());
            assert_eq!(cluster.peek(KV, key), Some(key.to_le_bytes().to_vec()));
        }
        assert_eq!(cluster.peek(KV, 99), None);
        // Still room for coordinators.
        cluster.coordinator().expect("an endpoint is left");
    }

    #[test]
    fn peek_rejoins_after_a_false_suspicion() {
        let cluster = cluster();
        assert!(cluster.peek(KV, 1).is_some());
        // A monitor that suspects a slow peek declares its coordinator
        // failed: the peek endpoint's links are terminated.
        let endpoint = cluster.inspection().peek_endpoint;
        let node = cluster.primary_node(KV, 1);
        let suspect = |cluster: &SimCluster| {
            let lease = cluster.fd.register(endpoint);
            let qp = cluster.ctx.fabric.qp(endpoint, node, FaultInjector::new()).unwrap();
            let admitted = qp.read_u64(0).is_ok();
            let report = cluster.fd.declare_failed(lease.coord_id).expect("recovery runs");
            assert_eq!(qp.read_u64(0), Err(RdmaError::AccessRevoked));
            (admitted, report.link_fanouts)
        };
        assert_eq!(suspect(&cluster), (true, 1));
        assert_eq!(cluster.peek(KV, 1), Some(1u64.to_le_bytes().to_vec()));
        // The rejoin made the RC forget the termination: a restored
        // endpoint that is suspected again is fenced again.
        assert_eq!(suspect(&cluster), (true, 1));
        assert_eq!(cluster.peek(KV, 1), Some(1u64.to_le_bytes().to_vec()));
        // Raw inspection rides its own endpoint and never noticed.
        assert!(cluster.raw_slot(KV, 1, cluster.primary_node(KV, 1)).is_some());
    }
}
