//! The shared runtime context every compute server receives as its
//! "initial configuration" from the failure detector (paper §3.1.2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dkvs::{ClusterMap, NodeSet};
use parking_lot::RwLock;
use rdma_sim::{Fabric, NodeId};

use crate::config::SystemConfig;
use crate::failed_ids::FailedIds;
use crate::flight::FlightRecorder;
use crate::pause::WorldPause;
use crate::retry::ResilienceStats;

/// Cluster-wide shared state: the fabric, the layout map, the failed-ids
/// set, the dead-memory-node set, and the stop-the-world controller.
///
/// In a real deployment most of this is distributed (the FD pushes
/// failed-id notifications; the cluster map is part of the join
/// handshake); in-process sharing is the simulation equivalent and keeps
/// the same information boundaries: coordinators only *read* this state,
/// the FD/recovery side writes it. What a transaction reads here — the
/// failed-ids bitset, the pause flag, the dead-node set — it reads with
/// plain atomic loads: no lock is taken and nothing in this struct is
/// written on the transaction path (DESIGN.md §10, "What coordinator
/// threads share").
pub struct SharedContext {
    pub fabric: Arc<Fabric>,
    pub map: Arc<ClusterMap>,
    pub failed: Arc<FailedIds>,
    pub pause: WorldPause,
    pub config: SystemConfig,
    /// Cluster-wide retry/survival counters (transient-fault telemetry).
    pub resilience: Arc<ResilienceStats>,
    /// Recoveries currently being executed by the failure detector —
    /// the gauge the metrics timeline samples to reconstruct the
    /// paper's fail-over availability curve.
    pub recoveries_in_flight: AtomicU64,
    /// Read at connect time only: coordinators cache their handle.
    flight: RwLock<Option<Arc<FlightRecorder>>>,
    dead: Membership,
}

/// The dead-memory-node set as one word ([`NodeSet::bits`]), on a cache
/// line of its own: every `primary_of` loads it, only a memory-node
/// failure or revival stores to it.
#[repr(align(128))]
struct Membership(AtomicU64);

impl SharedContext {
    pub fn new(
        fabric: Arc<Fabric>,
        map: Arc<ClusterMap>,
        config: SystemConfig,
    ) -> Arc<SharedContext> {
        Arc::new(SharedContext {
            fabric,
            map,
            failed: Arc::new(FailedIds::new()),
            pause: WorldPause::new(),
            config,
            resilience: ResilienceStats::new(),
            recoveries_in_flight: AtomicU64::new(0),
            flight: RwLock::new(None),
            dead: Membership(AtomicU64::new(0)),
        })
    }

    /// Install the cluster's flight recorder: registers it as the
    /// fabric's verb sink (QPs created afterwards carry a tap) and
    /// makes it discoverable to coordinators, the failure detector,
    /// and the self-fence sites. Call before any coordinator connects.
    pub fn install_flight(&self, rec: Arc<FlightRecorder>) {
        self.fabric.install_flight(Arc::clone(&rec) as Arc<dyn rdma_sim::VerbSink>);
        *self.flight.write() = Some(rec);
    }

    /// The installed flight recorder, if any.
    pub fn flight(&self) -> Option<Arc<FlightRecorder>> {
        self.flight.read().clone()
    }

    /// The known-dead memory nodes (placement input): one `Acquire`
    /// load, pairing with the `AcqRel` update in
    /// [`SharedContext::mark_node_dead`] / [`SharedContext::mark_node_live`],
    /// so a reader that sees a node dead also sees whatever the marker
    /// did before marking it.
    #[inline]
    pub fn dead_set(&self) -> NodeSet {
        NodeSet::from_bits(self.dead.0.load(Ordering::Acquire))
    }

    /// [`SharedContext::dead_set`] as a list, in node-id order.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.dead_set().iter().collect()
    }

    pub fn is_node_dead(&self, n: NodeId) -> bool {
        self.dead_set().contains(n)
    }

    /// Record a memory-node death (called by the FD under world pause).
    pub fn mark_node_dead(&self, n: NodeId) {
        self.dead.0.fetch_or(NodeSet::only(n).bits(), Ordering::AcqRel);
    }

    /// Remove a node from the dead set after re-replication/revival.
    pub fn mark_node_live(&self, n: NodeId) {
        self.dead.0.fetch_and(!NodeSet::only(n).bits(), Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use dkvs::{ClusterMapBuilder, TableDef};
    use rdma_sim::FabricConfig;

    fn ctx() -> Arc<SharedContext> {
        let fabric = Fabric::new(FabricConfig {
            memory_nodes: 2,
            capacity_per_node: 8 << 20,
            latency: rdma_sim::LatencyModel::zero(),
        });
        let map = ClusterMapBuilder::new(2)
            .table(TableDef::sized_for(0, "t", 8, 64))
            .max_coord_slots(16)
            .build(&fabric)
            .unwrap();
        SharedContext::new(fabric, map, SystemConfig::new(ProtocolKind::Pandora))
    }

    #[test]
    fn dead_node_tracking() {
        let c = ctx();
        assert!(c.dead_nodes().is_empty());
        c.mark_node_dead(NodeId(1));
        assert!(c.is_node_dead(NodeId(1)));
        c.mark_node_dead(NodeId(1)); // idempotent
        assert_eq!(c.dead_nodes(), vec![NodeId(1)]);
        assert_eq!(c.dead_set(), NodeSet::only(NodeId(1)));
        c.mark_node_live(NodeId(1));
        assert!(!c.is_node_dead(NodeId(1)));
        assert_eq!(c.dead_set(), NodeSet::default());
    }
}
